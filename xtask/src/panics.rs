//! The panic-reachability analysis of `cargo xtask certify`.
//!
//! Proves (conservatively) that no panic source is reachable from the
//! declared serving entry points of the release binary. The pipeline:
//!
//! 1. [`crate::items`] parses every `fn` in the certified perimeter
//!    ([`crate::entrypoints::CERT_DIRS`]).
//! 2. [`crate::callgraph`] builds a conservative call graph (trait-object
//!    calls fan out to every same-named method) and runs BFS from the
//!    entry points, keeping shortest-chain parents.
//! 3. This module classifies panic *sources* in each reachable body:
//!    `unwrap`/`expect`, the panicking macros, `[i]` index expressions,
//!    integer `/` and `%` with a non-constant divisor, and the panicking
//!    slice methods (`split_at`, `copy_from_slice`, …). Sites inside
//!    `debug_assert*!` or under a debug/test `cfg` are release-invisible
//!    and skipped.
//!
//! A site that is provably fine carries an inline justification — a
//! `// PANIC-OK: reason` comment on the line or the contiguous comment
//! block above — and is counted but not reported. Everything else is a
//! finding under rule key `panic-reachability`.
//!
//! The sweep, report and CLI live in the shared driver
//! ([`crate::certify`]); this module is classifier-only.

use crate::callgraph::{body_tokens, CallGraph};
use crate::certify::{Certifier, Site};
use crate::entrypoints::PANIC_ENTRIES;
use crate::lex::TokenKind;
use crate::rules::statement_around;
use crate::scope::SourceFile;

/// The description block the shared driver runs from. No warm-up
/// boundary — panics are certified over the *whole* serving surface.
pub(crate) const CERTIFIER: Certifier = Certifier {
    name: "panics",
    rule: "panic-reachability",
    entries: &PANIC_ENTRIES,
    warm_up: &[],
    marker: "PANIC-OK",
    reach_adjective: "reachable",
    noun: "panic-reachable",
    classify: panic_sites,
};

/// Classifies every panic source in the certified body of `items[idx]`.
///
/// The scan walks the release-visible body tokens only (the call-graph
/// layer's skip rules for `debug_assert*!`, attributes, gated statements,
/// and nested fns apply here too).
pub fn panic_sites(file: &SourceFile, graph: &CallGraph, idx: usize) -> Vec<Site> {
    let mut out = Vec::new();
    for k in body_tokens(file, &graph.items, idx) {
        let t = &file.tokens[file.code[k]];
        let prev = |n: usize| (k >= n).then(|| &file.tokens[file.code[k - n]]);
        let next = |n: usize| file.code.get(k + n).map(|&i| &file.tokens[i]);
        let site = |what: &str| Site {
            line: t.line,
            col: t.col,
            what: what.to_string(),
        };
        match t.kind {
            TokenKind::Ident => {
                let dot_call = prev(1).is_some_and(|p| p.is_punct("."))
                    && next(1).is_some_and(|n| n.is_punct("("));
                if dot_call {
                    match t.text.as_str() {
                        "unwrap" => out.push(site(".unwrap() on None/Err")),
                        "expect" => out.push(site(".expect() on None/Err")),
                        "split_at" | "split_at_mut" => {
                            out.push(site("split_at past the slice length"));
                        }
                        "copy_from_slice" | "clone_from_slice" => {
                            out.push(site("copy_from_slice length mismatch"));
                        }
                        _ => {}
                    }
                } else if next(1).is_some_and(|n| n.is_punct("!")) {
                    match t.text.as_str() {
                        "panic" => out.push(site("panic! macro")),
                        "unreachable" => out.push(site("unreachable! macro")),
                        "todo" | "unimplemented" => out.push(site("todo!/unimplemented! macro")),
                        "assert" | "assert_eq" | "assert_ne" => {
                            out.push(site("assert! macro (release-armed)"));
                        }
                        _ => {}
                    }
                }
            }
            TokenKind::Punct if t.text == "[" => {
                // An index/slice *expression*: `expr[` — the previous token
                // ends an expression. Types (`&[u32]`), array literals
                // (`= [0; n]`), attributes (`#[`), and macros (`vec![`)
                // all have non-expression predecessors.
                let indexes = prev(1).is_some_and(|p| {
                    matches!(p.kind, TokenKind::Ident | TokenKind::NumLit)
                        && !KEYWORDS_BEFORE_BRACKET.contains(&p.text.as_str())
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                if indexes {
                    out.push(site("index expression out of bounds"));
                }
            }
            TokenKind::Punct
                if matches!(t.text.as_str(), "/" | "%" | "/=" | "%=")
                    && int_division_panics(file, k) =>
            {
                out.push(site("integer division/remainder by zero"));
            }
            _ => {}
        }
    }
    out
}

/// Identifiers that may directly precede a `[` without ending an
/// expression (`return [a, b]`, `in [0, 1]`, …).
const KEYWORDS_BEFORE_BRACKET: [&str; 6] = ["return", "in", "else", "match", "mut", "dyn"];

/// Whether the `/`, `%`, `/=` or `%=` at code index `k` can panic:
/// integer operands with a divisor that is not a non-zero literal.
/// Float evidence anywhere in the statement (an `f32`/`f64` token or a
/// float literal) clears the site — float division never panics.
fn int_division_panics(file: &SourceFile, k: usize) -> bool {
    let (start, end) = statement_around(file, k);
    for j in start..end {
        let t = &file.tokens[file.code[j]];
        match t.kind {
            TokenKind::Ident if t.text == "f64" || t.text == "f32" => return false,
            TokenKind::NumLit
                if t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32") =>
            {
                return false;
            }
            _ => {}
        }
    }
    // Divisor is the next code token; a non-zero integer literal cannot
    // raise the div-by-zero panic (and `MIN / -1` needs a negative
    // divisor, so a positive literal clears overflow too).
    if let Some(&i) = file.code.get(k + 1) {
        let t = &file.tokens[i];
        if t.kind == TokenKind::NumLit {
            return literal_value(&t.text) == Some(0);
        }
    }
    true
}

/// Parses an integer literal's value, tolerating `_` separators, radix
/// prefixes, and type suffixes. `None` for unparseable forms (treated as
/// potentially zero by the caller's logic — conservative).
fn literal_value(text: &str) -> Option<u128> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (radix, digits) = match clean.get(..2) {
        Some("0x") => (16, &clean[2..]),
        Some("0o") => (8, &clean[2..]),
        Some("0b") => (2, &clean[2..]),
        _ => (10, clean.as_str()),
    };
    let digits = digits
        .find(|c: char| !c.is_digit(radix))
        .map_or(digits, |p| &digits[..p]);
    u128::from_str_radix(digits, radix).ok()
}

// ---------------------------------------------------------------------------
// Self-tests: the classifier on planted fixtures, caught and justified
// chains end-to-end. (The live workspace: `crate::certify`'s tests.)
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{certify_fixture, Certificate};

    fn cert(src: &str, entries: &'static [&'static str]) -> Certificate {
        certify_fixture(&CERTIFIER, "fixture.rs", src, entries, &[])
            .expect("fixture entries resolve")
    }

    #[test]
    fn classifier_finds_each_panic_class_with_exact_spans() {
        let src = "\
fn entry(xs: &[u32], n: usize, d: u32) -> u32 {
    let a = xs.first().unwrap();
    let b = xs.get(1).expect(\"two\");
    let c = xs[n];
    let (_lo, _hi) = xs.split_at(n);
    let q = d / n as u32;
    let r = d % n as u32;
    panic!(\"boom {a} {b} {c} {q} {r}\");
}
";
        let c = cert(src, &["entry"]);
        let kinds: Vec<(&str, usize)> = c
            .summary
            .findings
            .iter()
            .map(|f| (f.message.split(';').next().expect("kind"), f.line))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (".unwrap() on None/Err", 2),
                (".expect() on None/Err", 3),
                ("index expression out of bounds", 4),
                ("split_at past the slice length", 5),
                ("integer division/remainder by zero", 6),
                ("integer division/remainder by zero", 7),
                ("panic! macro", 8),
            ]
        );
        let unwrap = &c.summary.findings[0];
        assert_eq!(
            unwrap.col,
            src.lines().nth(1).expect("l2").find("unwrap").expect("pos") + 1
        );
    }

    #[test]
    fn checked_and_release_invisible_forms_are_clean() {
        let src = "\
fn entry(xs: &[u32], n: usize) -> u32 {
    debug_assert!(xs[n] > 0);
    let a = xs.get(n).copied().unwrap_or(0);
    let b = n / 2 + n % 4;
    let c = (n as f64 / xs.len() as f64) as u32;
    let d = [0u32; 4];
    #[cfg(debug_assertions)]
    audit(xs);
    a + b as u32 + c + d[0]
}
#[cfg(any(debug_assertions, feature = \"audit\"))]
fn audit(xs: &[u32]) { assert!(xs[0] > 0); }
";
        let c = cert(src, &["entry"]);
        let msgs: Vec<&str> = c
            .summary
            .findings
            .iter()
            .map(|f| f.snippet.as_str())
            .collect();
        assert_eq!(
            c.summary.findings.len(),
            1,
            "only the constant-index d[0] may fire: {msgs:?}"
        );
        assert!(c.summary.findings[0].snippet.contains("d[0]"));
    }

    #[test]
    fn unreachable_panics_do_not_fire_and_chains_are_shortest() {
        let src = "\
impl Engine {
    pub fn serve(&self) { self.step(); }
    fn step(&self) { kernel(); }
}
fn kernel() { deep.unwrap(); }
fn offline() { other[9]; }
";
        let c = cert(src, &["Engine::serve"]);
        assert_eq!(c.summary.findings.len(), 1);
        let f = &c.summary.findings[0];
        assert!(
            f.message.contains("Engine::serve → Engine::step → kernel"),
            "chain missing: {}",
            f.message
        );
        assert!(
            !c.summary.findings.iter().any(|f| f.line == 6),
            "offline fn fired"
        );
    }

    #[test]
    fn panic_ok_justifications_silence_but_count() {
        let src = "\
fn entry(xs: &[u32], i: usize) -> u32 {
    // PANIC-OK: i < xs.len() — caller-validated by construction
    let a = xs[i];
    let b = xs[i + 1];
    a + b
}
";
        let c = cert(src, &["entry"]);
        assert_eq!(
            c.summary.findings.len(),
            1,
            "only the unjustified line fires"
        );
        assert_eq!(c.summary.findings[0].line, 4);
        assert_eq!(c.summary.justified.get(CERTIFIER.rule), Some(&1));
    }

    #[test]
    fn missing_entry_points_are_a_hard_error() {
        let err = certify_fixture(
            &CERTIFIER,
            "fixture.rs",
            "fn real() {}\n",
            &["Engine::renamed_away"],
            &[],
        )
        .err()
        .expect("stale entry spec must be a hard error");
        assert!(err.contains("renamed_away"));
    }

    #[test]
    fn division_literal_values_parse() {
        assert_eq!(literal_value("0"), Some(0));
        assert_eq!(literal_value("2"), Some(2));
        assert_eq!(literal_value("0x10"), Some(16));
        assert_eq!(literal_value("1_000u64"), Some(1000));
        assert_eq!(literal_value("0b0"), Some(0));
    }
}
