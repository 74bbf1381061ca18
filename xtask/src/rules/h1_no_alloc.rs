//! H1 `no-alloc-in-hot-loop` — no `Vec::new` / `vec!` / `.to_vec()` /
//! `.clone()` / `.collect()` / `format!` / `Box::new` inside loop bodies
//! of non-test code on the paper's hot paths. The file scope is derived
//! from the steady-state serving entry-point set
//! ([`crate::entrypoints::hot_loop_scope`]): the Algorithm 1/3 query
//! loops, inverted-heap extraction, the batch executor, the d-ary heap
//! kernel and VN3 kNN. Per-iteration allocation is exactly the defect
//! class the kNN experimentation literature blames for order-of-magnitude
//! slowdowns; hoist a scratch buffer out of the loop or justify the site. `cargo xtask allocs` deduplicates against
//! these token-level spans so a site is reported by exactly one pass.

use crate::entrypoints::hot_loop_scope;
use crate::rules::{record, scope, tok, tok_is, Rule, Summary};
use crate::scope::SourceFile;

/// Method calls that allocate (`recv.to_vec()`, `.clone()`, `.collect()`).
const ALLOC_METHODS: [&str; 3] = ["to_vec", "clone", "collect"];

/// `Type::new` constructors that allocate.
const ALLOC_CTORS: [&str; 2] = ["Vec", "Box"];

/// Macros that allocate (`format!`, `vec!`).
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Every token-level H1 match in `file` *before* justification handling:
/// `(line, col, message)`. Shared with `cargo xtask allocs`, which drops
/// its own classifier sites at these exact spans — H1 is the front line
/// for in-loop allocation, whether reported or `lint:allow`ed.
pub(crate) fn matches(file: &SourceFile) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    if !hot_loop_scope(&file.rel) {
        return out;
    }
    for k in 0..file.code.len() {
        let sc = scope(file, k);
        if sc.in_test || sc.loop_depth == 0 {
            continue;
        }
        let t = tok(file, k);
        let what = if t.is_ident("new")
            && k >= 2
            && tok(file, k - 1).is_punct("::")
            && ALLOC_CTORS.contains(&tok(file, k - 2).text.as_str())
        {
            format!("{}::new", tok(file, k - 2).text)
        } else if ALLOC_METHODS.contains(&t.text.as_str())
            && k > 0
            && tok(file, k - 1).is_punct(".")
            && tok_is(file, k + 1, |n| n.is_punct("(") || n.is_punct("::"))
        {
            format!(".{}()", t.text)
        } else if ALLOC_MACROS.contains(&t.text.as_str())
            && tok_is(file, k + 1, |n| n.is_punct("!"))
        {
            format!("{}!", t.text)
        } else {
            continue;
        };
        let fn_name = sc
            .fn_name
            .as_deref()
            .or(sc.item_name.as_deref())
            .unwrap_or("?");
        out.push((
            t.line,
            t.col,
            format!(
                "allocation ({what}) inside a loop (depth {}) of `{fn_name}` — \
                 hoist a reused scratch buffer out of the hot loop or justify",
                sc.loop_depth
            ),
        ));
    }
    out
}

pub(crate) fn check(file: &SourceFile, summary: &mut Summary) {
    for (line, col, message) in matches(file) {
        record(file, line, col, Rule::NoAllocInHotLoop, message, summary);
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{run_rule, Rule};

    #[test]
    fn h1_triggers_on_allocations_inside_loops() {
        let src = "\
fn hot(xs: &[u32]) {
    for x in xs {
        let v: Vec<u32> = Vec::new();
        let w = xs.to_vec();
        let c = x.clone();
        let s = format!(\"{x}\");
        let b = Box::new(x);
        let m = vec![0; 4];
        let g: Vec<u32> = xs.iter().copied().collect();
    }
}
";
        let summary = run_rule("crates/core/src/query/x.rs", src, Rule::NoAllocInHotLoop);
        assert_eq!(summary.count(Rule::NoAllocInHotLoop), 7);
        // Spans: the `Vec::new` finding sits on the `new` token.
        let first = &summary.findings[0];
        assert_eq!(first.line, 3);
        assert_eq!(
            first.col,
            src.lines().nth(2).expect("line").find("new").expect("pos") + 1
        );
        assert!(first.message.contains("`hot`"));
        assert!(first.message.contains("depth 1"));
    }

    #[test]
    fn h1_ignores_allocations_outside_loops_and_out_of_scope_files() {
        let outside = "\
fn cold(xs: &[u32]) {
    let v = xs.to_vec();
    for x in xs {
        use_it(v[0] + x);
    }
}
";
        assert_eq!(
            run_rule(
                "crates/core/src/query/x.rs",
                outside,
                Rule::NoAllocInHotLoop
            )
            .count(Rule::NoAllocInHotLoop),
            0
        );
        let elsewhere = "fn f(xs: &[u32]) { for _ in xs { let v = xs.to_vec(); } }\n";
        assert_eq!(
            run_rule("crates/graph/src/x.rs", elsewhere, Rule::NoAllocInHotLoop)
                .count(Rule::NoAllocInHotLoop),
            0
        );
    }

    #[test]
    fn h1_ignores_tests_and_honors_justifications() {
        let test_only = "\
#[cfg(test)]
mod tests {
    fn t(xs: &[u32]) { for _ in xs { let v = xs.to_vec(); } }
}
";
        assert_eq!(
            run_rule(
                "crates/core/src/query/x.rs",
                test_only,
                Rule::NoAllocInHotLoop
            )
            .count(Rule::NoAllocInHotLoop),
            0
        );
        let justified = "\
fn f(xs: &[u32]) {
    for _ in xs {
        // lint:allow(no-alloc-in-hot-loop) — runs once per rebuild, not per query
        let v = xs.to_vec();
    }
}
";
        let summary = run_rule(
            "crates/core/src/query/x.rs",
            justified,
            Rule::NoAllocInHotLoop,
        );
        assert_eq!(summary.count(Rule::NoAllocInHotLoop), 0);
        assert_eq!(summary.justified.get("no-alloc-in-hot-loop"), Some(&1));
    }

    #[test]
    fn h1_sees_turbofish_collect_and_nested_depth() {
        let src = "\
fn f(xs: &[u32]) {
    while a {
        for x in xs {
            let v = xs.iter().collect::<Vec<_>>();
        }
    }
}
";
        let summary = run_rule("crates/core/src/heap.rs", src, Rule::NoAllocInHotLoop);
        assert_eq!(summary.count(Rule::NoAllocInHotLoop), 1);
        assert!(summary.findings[0].message.contains("depth 2"));
    }

    #[test]
    fn h1_ignores_clone_trait_bounds_and_derives() {
        let src = "\
#[derive(Clone)]
struct S;
fn f<T: Clone>(xs: &[T]) {
    for _ in xs {
        step();
    }
}
";
        assert_eq!(
            run_rule("crates/core/src/query/x.rs", src, Rule::NoAllocInHotLoop)
                .count(Rule::NoAllocInHotLoop),
            0
        );
    }
}
