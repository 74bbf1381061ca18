//! The generator adjacency graph of an NVD.
//!
//! Nodes are Voronoi generators (objects); an edge connects two generators
//! whose Voronoi node sets touch via a road-network edge. Observation 2a:
//! this graph has `O(|inv(t)|)` size with small constant average degree, and
//! it is *all* that LazyReheap (Algorithm 4) needs — the `O(|V|)` owner
//! table can be discarded.
//!
//! Layout: one CSR (`offsets` + `data`) laid out once, by the build or by
//! the snapshot loader, plus an append-only per-node tail that only §6.2
//! inserts write. A node's first insert copies its row into its tail, so
//! its neighbours are always one slice: the tail once it has one, the row
//! before — the row's order with the inserts after it. The snapshot stores
//! that slice, so a reloaded graph holds the same rows with empty tails.

use kspin_graph::csr::row_slice;
use kspin_graph::Labels;

/// Adjacency rows over generator indices `0..m`.
#[derive(Debug, Clone)]
pub struct AdjacencyGraph {
    /// `data[offsets[a]..offsets[a + 1]]` is node `a`'s row, for every node
    /// laid out by the build or the loader.
    offsets: Vec<u32>,
    data: Vec<u32>,
    /// Empty until the first §6.2 insert, then one list per node: empty,
    /// or the node's row followed by the neighbours inserts linked to it.
    tail: Vec<Vec<u32>>,
}

impl AdjacencyGraph {
    /// The adjacency graph over `m` generators with an undirected edge per
    /// distinct pair in `edges`. A node's row lists its neighbours in the
    /// order of their first edge in `edges`; self-loops are dropped.
    ///
    /// # Panics
    /// If an endpoint is not below `m`.
    #[expect(
        clippy::indexing_slicing,
        reason = "build time: offsets holds m + 1 fences, next and the marks m slots, and \
                  the documented panic covers an endpoint not below m"
    )]
    pub fn from_edges(m: usize, edges: &[(u32, u32)]) -> Self {
        // Counting sort by endpoint, both directions, in stream order.
        let mut offsets = vec![0u32; m + 1];
        for &(a, b) in edges {
            if a != b {
                offsets[a as usize + 1] += 1;
                offsets[b as usize + 1] += 1;
            }
        }
        for a in 0..m {
            offsets[a + 1] += offsets[a];
        }
        let mut next = offsets[..m].to_vec();
        let mut data = vec![0u32; offsets[m] as usize];
        for &(a, b) in edges {
            if a != b {
                data[next[a as usize] as usize] = b;
                next[a as usize] += 1;
                data[next[b as usize] as usize] = a;
                next[b as usize] += 1;
            }
        }
        // A repeated pair repeats in both rows: keep each neighbour's first
        // occurrence, compacting in place (`next` becomes the mark array).
        next.fill(u32::MAX);
        let (mut kept, mut lo) = (0usize, 0usize);
        for a in 0..m {
            let hi = offsets[a + 1] as usize;
            for i in lo..hi {
                let b = data[i];
                if next[b as usize] != a as u32 {
                    next[b as usize] = a as u32;
                    data[kept] = b;
                    kept += 1;
                }
            }
            offsets[a + 1] = kept as u32;
            lo = hi;
        }
        data.truncate(kept);
        AdjacencyGraph {
            offsets,
            data,
            tail: Vec::new(),
        }
    }

    /// Number of generators.
    pub fn num_nodes(&self) -> usize {
        (self.offsets.len() - 1).max(self.tail.len())
    }

    /// Appends a node linked to each of `neighbours` (distinct existing
    /// nodes) — a lazily inserted object — and returns its index.
    #[expect(
        clippy::indexing_slicing,
        reason = "update path: every neighbour is an existing node < id, and id's slot was \
                  made by the resize above"
    )]
    pub fn push_node(&mut self, neighbours: &[u32]) -> u32 {
        let id = self.num_nodes();
        self.tail.resize_with(id + 1, Vec::new);
        for &a in neighbours {
            let a = a as usize;
            if self.tail[a].is_empty() {
                let row = self.row(a).to_vec();
                self.tail[a] = row;
            }
            self.tail[a].push(id as u32);
        }
        self.tail[id] = neighbours.to_vec();
        id as u32
    }

    /// Node `a`'s laid-out row; empty past the laid-out rows (inserts).
    #[inline]
    fn row(&self, a: usize) -> &[u32] {
        if a + 1 < self.offsets.len() {
            row_slice(&self.offsets, &self.data, a)
        } else {
            &[]
        }
    }

    /// Generators adjacent to `a`: its row, then the neighbours §6.2
    /// inserts linked to it since.
    #[inline]
    pub fn adjacent(&self, a: u32) -> &[u32] {
        match self.tail.get(a as usize) {
            Some(tail) if !tail.is_empty() => tail,
            _ => self.row(a as usize),
        }
    }

    /// Size in bytes of the layout: the CSR's 4-byte fences and entries,
    /// plus, once a §6.2 insert has made it, the tail's list headers and
    /// their entries.
    pub fn size_bytes(&self) -> usize {
        let tail: usize = self.tail.iter().map(Vec::len).sum();
        (self.offsets.len() + self.data.len() + tail) * size_of::<u32>()
            + self.tail.len() * size_of::<Vec<u32>>()
    }

    /// Flattens the graph into `(offsets, data)` CSR form — the snapshot
    /// serialization boundary. Each node's neighbours keep their order, so
    /// a flatten → rebuild round trip is the identity.
    pub fn flat_parts(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut data = Vec::with_capacity(self.data.len() + n);
        for a in 0..n as u32 {
            data.extend_from_slice(self.adjacent(a));
            offsets.push(data.len() as u32);
        }
        (offsets, data)
    }

    /// Copies a graph out of flattened CSR form, neighbour order exactly.
    /// Only the offsets' shape is checked here: ranges, simplicity and
    /// symmetry of the entries are [`Self::validate_symmetric`]'s audit,
    /// which the one caller on the load path runs once on the assembled
    /// NVD ([`crate::ApproxNvd::from_snapshot_parts`]).
    ///
    /// # Errors
    /// Malformed offsets.
    pub fn from_flat(offsets: &[u32], data: &[u32]) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("adjacency offsets must hold m + 1 entries, got 0".into());
        }
        if u32::try_from(data.len()).is_err() {
            return Err(format!("adjacency edge count {} exceeds u32", data.len()));
        }
        if offsets.first() != Some(&0) || offsets.last() != Some(&(data.len() as u32)) {
            return Err("adjacency offsets must start at 0 and end at the edge count".into());
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields two-element slices"
        )]
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("adjacency offsets must be monotone non-decreasing".into());
        }
        Ok(AdjacencyGraph {
            offsets: offsets.to_vec(),
            data: data.to_vec(),
            tail: Vec::new(),
        })
    }

    /// Invariant audit: every entry is in range, no self-loops, no
    /// duplicates, and every edge has its reverse (the graph is undirected
    /// by construction — Observation 2a relies on it). Returns each
    /// violation as a human-readable string.
    ///
    /// Linear in nodes + entries: the reverse edges come from a transpose
    /// built by counting sort, and each row is held against its transposed
    /// row through one mark store, reset per row. `audit` holds the three
    /// arrays, so a caller auditing many graphs allocates them once.
    pub fn validate_symmetric(&self, audit: &mut SymmetryAudit) -> Result<(), Vec<String>> {
        if self.tail.is_empty() {
            audit.rows(&self.offsets, &self.data)
        } else {
            let (offsets, data) = self.flat_parts();
            audit.rows(&offsets, &data)
        }
    }
}

/// The scratch arrays of [`AdjacencyGraph::validate_symmetric`]: the
/// transpose's offsets and sources, and the marks of the audited row's
/// entries.
#[derive(Debug)]
pub struct SymmetryAudit {
    ends: Vec<u32>,
    sources: Vec<u32>,
    mark: Labels<bool>,
}

impl Default for SymmetryAudit {
    fn default() -> Self {
        SymmetryAudit {
            ends: Vec::new(),
            sources: Vec::new(),
            mark: Labels::new(0, false),
        }
    }
}

impl SymmetryAudit {
    /// The audit of the flat rows `data[offsets[a]..offsets[a + 1]]`
    /// (monotone offsets, the last one `data.len()`).
    #[expect(
        clippy::indexing_slicing,
        reason = "offsets are n + 1 monotone fences ending at data.len() (the build makes \
                  them so and from_flat checks it); ends holds n + 1 entries and is indexed \
                  by in-range nodes only"
    )]
    fn rows(&mut self, offsets: &[u32], data: &[u32]) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let n = offsets.len() - 1;
        let row = |a: usize| &data[offsets[a] as usize..offsets[a + 1] as usize];
        // Transpose: `sources[fence(b)..ends[b]]` lists every `a` with an
        // in-range entry `a → b` (the fill advances `ends[b]` from the
        // start of `b`'s run to its end; `fence(b)` is the end of `b - 1`'s).
        let ends = &mut self.ends;
        ends.clear();
        ends.resize(n + 1, 0);
        for &b in data {
            if (b as usize) < n {
                ends[b as usize + 1] += 1;
            }
        }
        for b in 0..n {
            ends[b + 1] += ends[b];
        }
        self.sources.clear();
        self.sources.resize(ends[n] as usize, 0);
        for a in 0..n {
            for &b in row(a) {
                if (b as usize) < n {
                    self.sources[ends[b as usize] as usize] = a as u32;
                    ends[b as usize] += 1;
                }
            }
        }
        if self.mark.num_ids() < n {
            self.mark = Labels::new(n, false);
        }
        let mut fence = 0;
        for a in 0..n {
            self.mark.reset();
            for &b in row(a) {
                if b as usize >= n {
                    errs.push(format!("adjacency {a}→{b}: node {b} out of range (n={n})"));
                    continue;
                }
                if b as usize == a {
                    errs.push(format!("adjacency self-loop at node {a}"));
                }
                if self.mark.get(b) {
                    errs.push(format!("duplicate adjacency {a}→{b}"));
                }
                self.mark.set(b, true);
            }
            // Every x → a must be met by a → x, now marked.
            for &x in &self.sources[fence..ends[a] as usize] {
                if !self.mark.get(x) {
                    errs.push(format!("asymmetric adjacency: {x}→{a} has no reverse edge"));
                }
            }
            fence = ends[a] as usize;
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(g: &AdjacencyGraph, a: u32) -> Vec<u32> {
        g.adjacent(a).to_vec()
    }

    fn audit(g: &AdjacencyGraph) -> Result<(), Vec<String>> {
        g.validate_symmetric(&mut SymmetryAudit::default())
    }

    #[test]
    fn repeated_pairs_and_self_loops_are_dropped() {
        let a = AdjacencyGraph::from_edges(3, &[(0, 1), (1, 0), (2, 2), (0, 1)]);
        assert_eq!(row(&a, 0), [1]);
        assert_eq!(row(&a, 1), [0]);
        assert!(row(&a, 2).is_empty());
        audit(&a).expect("a built graph audits clean");
    }

    #[test]
    fn rows_follow_first_edge_order() {
        let a = AdjacencyGraph::from_edges(4, &[(2, 0), (0, 3), (1, 0), (3, 0), (2, 1)]);
        assert_eq!(row(&a, 0), [2, 3, 1]);
        assert_eq!(row(&a, 1), [0, 2]);
        assert_eq!(row(&a, 2), [0, 1]);
        assert_eq!(row(&a, 3), [0]);
    }

    #[test]
    fn push_node_links_both_ways_after_the_row() {
        let mut a = AdjacencyGraph::from_edges(2, &[(0, 1)]);
        let n = a.push_node(&[1, 0]);
        assert_eq!((n, a.num_nodes()), (2, 3));
        assert_eq!(row(&a, n), [1, 0]);
        assert_eq!(row(&a, 0), [1, 2]);
        let m = a.push_node(&[n]);
        assert_eq!(row(&a, n), [1, 0, 3]);
        audit(&a).expect("inserts keep the graph symmetric");
        let (offsets, data) = a.flat_parts();
        assert_eq!(offsets, [0, 2, 4, 7, 8]);
        assert_eq!(data, [1, 2, 0, 2, 1, 0, 3, 2]);
        let b = AdjacencyGraph::from_flat(&offsets, &data).unwrap();
        assert!((0..=m).all(|x| row(&a, x) == row(&b, x)));
    }

    /// Rows `rows` in flat form.
    fn flat(rows: &[&[u32]]) -> AdjacencyGraph {
        let mut offsets = vec![0u32];
        let mut data = Vec::new();
        for r in rows {
            data.extend_from_slice(r);
            offsets.push(data.len() as u32);
        }
        AdjacencyGraph::from_flat(&offsets, &data).unwrap()
    }

    #[test]
    fn the_audit_names_every_violation() {
        let cases: [(&[&[u32]], &str); 5] = [
            (&[&[1], &[0, 7]], "out of range"),
            (&[&[0, 1], &[0]], "self-loop"),
            (&[&[1, 1], &[0]], "duplicate"),
            (&[&[1], &[]], "asymmetric adjacency: 0→1"),
            // Every row as long as its transposed row, yet a 3-cycle.
            (&[&[1], &[2], &[0]], "asymmetric"),
        ];
        let mut scratch = SymmetryAudit::default();
        for (rows, want) in cases {
            let errs = flat(rows).validate_symmetric(&mut scratch).unwrap_err();
            assert!(errs.iter().any(|e| e.contains(want)), "{rows:?}: {errs:?}");
        }
        // The scratch carries over: a clean graph after the bad ones.
        flat(&[&[1, 2], &[0], &[0]])
            .validate_symmetric(&mut scratch)
            .expect("clean");
    }

    #[test]
    fn marks_from_a_previous_graph_are_stale() {
        let mut scratch = SymmetryAudit::default();
        flat(&[&[1], &[0]])
            .validate_symmetric(&mut scratch)
            .unwrap();
        let errs = flat(&[&[1], &[]])
            .validate_symmetric(&mut scratch)
            .unwrap_err();
        assert_eq!(errs, ["asymmetric adjacency: 0→1 has no reverse edge"]);
    }
}
