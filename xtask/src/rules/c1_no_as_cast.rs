//! C1: no bare `as` numeric casts in decode-classified files.
//!
//! The decode half of the snapshot layer turns untrusted bytes into
//! offsets, counts and capacities. A bare `x as u32` silently truncates
//! and `x as usize` silently widens-or-truncates depending on target —
//! exactly the conversions an adversarial file exploits. Inside the
//! decode-classified files every numeric conversion must go through
//! `try_from`/`From` (fail-closed) or carry a
//! `lint:allow(no-as-cast-in-decode)` justification stating why the cast
//! is lossless.
//!
//! Scope refinements, both deliberate:
//! * `crates/snapshot/src/writer.rs` is exempt — it is the encode half
//!   of the crate and consumes trusted in-memory structures only.
//! * Functions whose name starts with `encode` are exempt for the same
//!   reason: the decode direction is where a bare cast can launder an
//!   adversarial value.

use crate::lex::TokenKind;
use crate::rules::{record, scope, tok, tok_is, Rule, Summary};
use crate::scope::SourceFile;

/// Files where decoded (untrusted) integers flow.
const SCOPED_PREFIXES: [&str; 1] = ["crates/snapshot/src/"];
const SCOPED_FILES: [&str; 2] = ["crates/core/src/snapshot.rs", "src/snapshot.rs"];
/// The encode half of `crates/snapshot`; never sees untrusted bytes.
const EXEMPT_FILES: [&str; 1] = ["crates/snapshot/src/writer.rs"];

/// Numeric target types a bare `as` cast can truncate into.
const NUM_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

fn in_scope(rel: &str) -> bool {
    if EXEMPT_FILES.contains(&rel) {
        return false;
    }
    SCOPED_PREFIXES.iter().any(|p| rel.starts_with(p)) || SCOPED_FILES.contains(&rel)
}

/// Scans one file for bare `as` numeric casts outside tests and encode
/// functions.
pub fn check(file: &SourceFile, summary: &mut Summary) {
    if !in_scope(&file.rel) {
        return;
    }
    for k in 0..file.code.len() {
        let t = tok(file, k);
        if !(t.kind == TokenKind::Ident && t.text == "as") {
            continue;
        }
        let sc = scope(file, k);
        if sc.in_test {
            continue;
        }
        if sc
            .fn_name
            .as_deref()
            .is_some_and(|f| f.starts_with("encode"))
        {
            continue;
        }
        let Some(target) = file.code.get(k + 1).map(|&i| file.tokens[i].text.clone()) else {
            continue;
        };
        if !NUM_TYPES.contains(&target.as_str()) {
            continue;
        }
        // `use x as y` / `impl Trait as` renames never have a numeric
        // type on the right, so reaching here means a real cast.
        if tok_is(file, k + 1, |n| n.kind != TokenKind::Ident) {
            continue;
        }
        record(
            file,
            t.line,
            t.col,
            Rule::NoAsCastInDecode,
            format!(
                "bare `as {target}` cast in decode-classified file (use try_from/From or justify)"
            ),
            summary,
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{run_rule, Rule};

    #[test]
    fn casts_in_decode_files_are_flagged_with_positions() {
        let src = "\
fn decode(x: u64) -> usize {
    let n = x as usize;
    n
}
";
        let s = run_rule("crates/snapshot/src/reader.rs", src, Rule::NoAsCastInDecode);
        assert_eq!(s.findings.len(), 1);
        assert_eq!((s.findings[0].line, s.findings[0].col), (2, 15));
        assert!(s.findings[0].message.contains("as usize"));
    }

    #[test]
    fn encode_fns_tests_justifications_and_foreign_files_are_exempt() {
        let src = "\
fn encode_graph(x: usize) -> u64 {
    x as u64
}
fn decode_ok(x: u64) -> usize {
    // lint:allow(no-as-cast-in-decode) — u32-bounded by the len check above
    x as usize
}
#[cfg(test)]
mod tests {
    fn t(x: u64) -> usize { x as usize }
}
";
        let s = run_rule("crates/core/src/snapshot.rs", src, Rule::NoAsCastInDecode);
        assert_eq!(s.findings.len(), 0, "{:?}", s.findings);
        assert_eq!(s.justified_count(Rule::NoAsCastInDecode.key()), 1);
        let other = run_rule(
            "crates/core/src/query/bknn.rs",
            "fn f(x: u64) { x as usize; }",
            Rule::NoAsCastInDecode,
        );
        assert_eq!(other.findings.len(), 0, "out-of-scope file");
        let writer = run_rule(
            "crates/snapshot/src/writer.rs",
            "fn put(x: usize) { x as u64; }",
            Rule::NoAsCastInDecode,
        );
        assert_eq!(writer.findings.len(), 0, "writer.rs is the encode half");
    }

    #[test]
    fn non_numeric_as_uses_are_not_casts() {
        let src = "\
use std::io::Error as IoError;
fn f(v: &dyn std::any::Any) -> u32 {
    let _ = v as &dyn std::any::Any;
    <u32 as Default>::default()
}
";
        let s = run_rule("crates/snapshot/src/format.rs", src, Rule::NoAsCastInDecode);
        assert_eq!(s.findings.len(), 0, "{:?}", s.findings);
    }
}
