//! Query algorithms of the Query Processor (§4).
//!
//! Integer arithmetic here is checked by clippy: a raw `d + w` on `Weight`
//! can wrap past `INFINITY` and invert Property 1's extraction order, so
//! distances add through `weight_add` and the saturating methods
//! (`kspin_graph::weight`), and counters through `wrapping_add`.
#![deny(clippy::arithmetic_side_effects)]

pub mod baseline;
pub mod bknn;
pub mod boolean;
mod kbest;
pub mod topk;

/// The boolean operator of a BkNN query (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Conjunctive: results contain *all* query keywords.
    And,
    /// Disjunctive: results contain *at least one* query keyword.
    Or,
}

#[cfg(test)]
mod tests {
    /// Every `pub fn` of the Query Processor outside tests carries a `///`
    /// block, above any attributes, that cites the paper.
    #[test]
    fn every_pub_fn_cites_the_paper() {
        let markers = "§ Algorithm Lemma Theorem Observation Definition Eq. Fig.";
        let files = [
            include_str!("baseline.rs"),
            include_str!("bknn.rs"),
            include_str!("boolean.rs"),
            include_str!("kbest.rs"),
            include_str!("mod.rs"),
            include_str!("topk.rs"),
        ];
        let mut fns = Vec::new();
        for src in files {
            // Each file keeps its `#[cfg(test)]` module last.
            let live = src.split("#[cfg(test)]").next().unwrap_or(src);
            let lines: Vec<&str> = live.lines().map(str::trim).collect();
            for (i, line) in lines.iter().enumerate() {
                let mut words = line.split_whitespace().skip(1);
                let item = words.find(|w| !["const", "async", "unsafe"].contains(w));
                if !line.starts_with("pub ") || item != Some("fn") {
                    continue;
                }
                // Up past the attributes: stop at a doc line, a blank line or an item's end.
                let above = lines[..i].iter().rev().skip_while(|l| {
                    !l.starts_with("///") && !l.is_empty() && !l.ends_with(['}', ';', '{'])
                });
                let doc: String = above
                    .take_while(|l| l.starts_with("///"))
                    .copied()
                    .collect();
                fns.push((*line, markers.split(' ').any(|m| doc.contains(m))));
            }
        }
        let uncited: Vec<_> = fns.iter().filter(|(_, cited)| !cited).collect();
        assert!(
            uncited.is_empty(),
            "pub fns citing no paper section: {uncited:?}"
        );
        assert!(fns.len() >= 12, "the scan found only {} pub fns", fns.len());
    }
}
