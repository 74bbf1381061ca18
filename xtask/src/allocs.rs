//! The allocation-freedom analysis of `cargo xtask certify`.
//!
//! Sibling of [`crate::panics`]: proves (conservatively) that the
//! serving *steady state* performs no unjustified heap allocation after
//! warm-up. The pipeline shares the panic certifier's symbol layers —
//! [`crate::items`] parses the `crates/{graph,alt,nvd,core}` perimeter,
//! [`crate::callgraph`] builds the conservative call graph — and differs
//! in two ways:
//!
//! 1. **Reachability is phase-split.** The sweep starts from the
//!    steady-state entry points ([`crate::entrypoints::STEADY_ENTRIES`])
//!    but never crosses into the warm-up boundary
//!    ([`crate::entrypoints::WARM_UP`]): constructors, index builds and
//!    the Heap Generator's `seed` first-fill are *allowed* to allocate,
//!    mirroring the paper's generation-then-extraction phase structure.
//!    The dynamic twin (`tests/alloc_steady_state.rs`) pins what the
//!    carve-out actually costs per query.
//! 2. **The classifier enumerates allocation sources**, not panic
//!    sources: allocating constructors (`Vec::new`, `Box::new`,
//!    `HashMap::with_capacity`, …), the `vec!`/`format!` macros,
//!    always-allocating methods (`.to_vec()`, `.to_owned()`,
//!    `.to_string()`, `.collect()`, and — conservatively — any
//!    `.clone()`), and container *growth* methods (`.push()`,
//!    `.insert()`, `.extend()`, `.resize()`, …). Growth calls are
//!    receiver-typed: a call on a workspace type with a certified method
//!    of that name is charged to the callee body through the call-graph
//!    edge instead of the call site; every other receiver — std
//!    container, field, or untyped — is a site.
//!
//! A site that is provably amortized-free carries an inline
//! `// ALLOC-OK: <capacity invariant>` justification (same placement
//! grammar as `PANIC-OK`) and is counted but not reported. Everything
//! else is a finding under rule key `alloc-reachability`.
//!
//! **What the static sweep by design does not see:** a loop inside a
//! warm-up-fenced fn — e.g. a per-candidate allocation in
//! `InvertedHeap::seed`, which runs once per query keyword. The fence
//! excuses the whole body, loops included. No such site exists today, and
//! the dynamic twin counts exactly that: `tests/alloc_steady_state.rs`
//! pins the allocator calls per steady-state query, warm-up-fenced fns
//! included, so an allocation that crept into one would move its number.
//!
//! The sweep, report and CLI live in the shared driver
//! ([`crate::certify`]); this module is classifier-only.

use crate::callgraph::{body_tokens, CallGraph};
use crate::certify::{Certifier, Site};
use crate::entrypoints::{STEADY_ENTRIES, WARM_UP};
use crate::lex::TokenKind;
use crate::scope::SourceFile;

/// The description block the shared driver runs from.
pub(crate) const CERTIFIER: Certifier = Certifier {
    name: "allocs",
    rule: "alloc-reachability",
    entries: &STEADY_ENTRIES,
    warm_up: &WARM_UP,
    marker: "ALLOC-OK",
    reach_adjective: "steady-reachable",
    noun: "steady-state allocation",
    classify: alloc_sites,
};

/// Allocating `Type::ctor(…)` qualifiers.
const ALLOC_TYPES: [&str; 11] = [
    "Vec",
    "VecDeque",
    "String",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Box",
    "Rc",
    "Arc",
];

/// Constructor methods that allocate when qualified by an
/// [`ALLOC_TYPES`] name. `Arc::clone`/`Rc::clone` are deliberately not
/// here: they bump a refcount, and the workspace's qualified-call idiom
/// exists precisely to keep them distinguishable from deep clones.
const CTOR_METHODS: [&str; 6] = [
    "new",
    "with_capacity",
    "with_capacity_and_hasher",
    "from",
    "from_iter",
    "default",
];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Dot methods that allocate on every receiver that compiles (`.clone()`
/// is conservative: a `Copy` receiver's clone is free, but proving
/// `Copy` is beyond this scan — justify or restructure).
const ALWAYS_ALLOC_METHODS: [&str; 7] = [
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "clone",
    "concat",
    "repeat",
];

/// Container growth methods — allocation depends on spare capacity, so
/// the receiver decides: certified workspace receivers are charged via
/// the call edge, everything else is a site.
const GROWTH_METHODS: [&str; 9] = [
    "push",
    "push_str",
    "push_back",
    "insert",
    "extend",
    "extend_from_slice",
    "resize",
    "reserve",
    "append",
];

/// Classifies every allocation source in the certified body of
/// `items[idx]`, walking release-visible tokens only (the call-graph
/// layer's skip rules for `debug_assert*!`, attributes, gated
/// statements, and nested fns apply here too).
pub fn alloc_sites(file: &SourceFile, graph: &CallGraph, idx: usize) -> Vec<Site> {
    let locals = graph.local_types(file, idx);
    let mut out = Vec::new();
    for k in body_tokens(file, &graph.items, idx) {
        let t = &file.tokens[file.code[k]];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = |n: usize| (k >= n).then(|| &file.tokens[file.code[k - n]]);
        let next = |n: usize| file.code.get(k + n).map(|&i| &file.tokens[i]);
        let site = |what: String| Site {
            line: t.line,
            col: t.col,
            what,
        };
        let name = t.text.as_str();
        if next(1).is_some_and(|n| n.is_punct("!")) {
            if ALLOC_MACROS.contains(&name) {
                out.push(site(format!("{name}! allocates")));
            }
            continue;
        }
        // `.method(…)` (optionally through a `::<…>` turbofish).
        let dot_call = prev(1).is_some_and(|p| p.is_punct("."))
            && next(1).is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
        if dot_call {
            if ALWAYS_ALLOC_METHODS.contains(&name) {
                let note = if name == "clone" {
                    " (conservative: receiver may be non-Copy)"
                } else {
                    ""
                };
                out.push(site(format!(".{name}() allocates{note}")));
            } else if GROWTH_METHODS.contains(&name) {
                match graph.receiver_type(file, idx, k, &locals) {
                    Some(ty)
                        if graph
                            .certified_methods
                            .contains(&(ty.clone(), t.text.clone())) =>
                    {
                        // Charged to the certified callee body, which the
                        // reachability sweep scans through the call edge.
                    }
                    Some(ty) => out.push(site(format!(
                        ".{name}() on `{ty}` may grow past capacity and reallocate"
                    ))),
                    None => out.push(site(format!(
                        ".{name}() on untyped receiver may grow and reallocate"
                    ))),
                }
            }
            continue;
        }
        // `Type::ctor(…)`.
        if prev(1).is_some_and(|p| p.is_punct("::"))
            && next(1).is_some_and(|n| n.is_punct("(") || n.is_punct("::"))
            && CTOR_METHODS.contains(&name)
        {
            if let Some(q) = prev(2).filter(|q| q.kind == TokenKind::Ident) {
                if ALLOC_TYPES.contains(&q.text.as_str()) {
                    out.push(site(format!("{}::{name}() allocates", q.text)));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Self-tests: the classifier on planted fixtures, the warm-up/steady
// split, receiver-typed growth dispatch. (The live workspace:
// `crate::certify`'s tests.)
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{certify_fixture, Certificate};

    type Specs = &'static [&'static str];

    fn cert_at(rel: &str, src: &str, entries: Specs, warm: Specs) -> Certificate {
        certify_fixture(&CERTIFIER, rel, src, entries, warm).expect("fixture specs resolve")
    }

    fn cert(src: &str, entries: Specs, warm: Specs) -> Certificate {
        cert_at("fixture.rs", src, entries, warm)
    }

    #[test]
    fn classifier_finds_each_allocation_class_with_exact_spans() {
        let src = "\
fn entry(xs: &[u32], n: usize) -> u32 {
    let a: Vec<u32> = Vec::with_capacity(n);
    let b = Box::new(n);
    let c = vec![0; n];
    let d = format!(\"{n}\");
    let e = xs.to_vec();
    let f = n.clone();
    let g: Vec<u32> = xs.iter().copied().collect::<Vec<u32>>();
    let h = String::from(\"x\");
    0
}
";
        let c = cert(src, &["entry"], &[]);
        let kinds: Vec<(&str, usize)> = c
            .summary
            .findings
            .iter()
            .map(|f| (f.message.split(';').next().expect("kind"), f.line))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("Vec::with_capacity() allocates", 2),
                ("Box::new() allocates", 3),
                ("vec! allocates", 4),
                ("format! allocates", 5),
                (".to_vec() allocates", 6),
                (
                    ".clone() allocates (conservative: receiver may be non-Copy)",
                    7
                ),
                (".collect() allocates", 8),
                ("String::from() allocates", 9),
            ]
        );
        let ctor = &c.summary.findings[0];
        assert_eq!(
            ctor.col,
            src.lines()
                .nth(1)
                .expect("l2")
                .find("with_capacity")
                .expect("pos")
                + 1
        );
    }

    #[test]
    fn growth_calls_dispatch_on_the_receiver_type() {
        let src = "\
struct Heap { entries: Vec<u64> }
impl Heap {
    pub fn push(&mut self, x: u64) {
        self.entries.push(x);
    }
}
fn entry(h: &mut Heap, out: &mut Vec<u32>) {
    h.push(1);
    out.push(2);
    mystery.push(3);
}
";
        let c = cert(src, &["entry"], &[]);
        let lines: Vec<usize> = c.summary.findings.iter().map(|f| f.line).collect();
        // h.push is charged to the certified Heap::push body (line 4);
        // out.push (Vec) and mystery.push (untyped) are call-site findings.
        assert_eq!(lines, vec![4, 9, 10]);
        assert!(c.summary.findings[0].message.contains("on `Vec`"));
        assert!(c.summary.findings[0].message.contains("entry → Heap::push"));
        assert!(c.summary.findings[2].message.contains("untyped receiver"));
    }

    #[test]
    fn warm_up_boundary_fences_constructors_and_first_fill() {
        let src = "\
impl Engine {
    pub fn serve(&mut self) {
        self.step();
    }
    fn step(&mut self) { let v = vec![1]; }
    pub fn new(n: usize) -> Self {
        let all = vec![0; n];
        build_index();
        Engine
    }
}
fn build_index() { let big: Vec<u32> = Vec::with_capacity(9); }
fn seed_heap() { let s = vec![7]; }
";
        let c = cert(src, &["Engine::serve"], &["new", "seed_heap"]);
        // Only step's vec! is a finding: new, everything behind it, and
        // seed_heap are fenced off.
        assert_eq!(c.summary.findings.len(), 1);
        assert_eq!(c.summary.findings[0].line, 5);
        let fenced: usize = c.warm_up.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(fenced, 2);
    }

    #[test]
    fn alloc_ok_justifications_silence_but_count() {
        let src = "\
fn entry(n: usize) -> Vec<u32> {
    // ALLOC-OK: result buffer, bounded by k ≤ n at every call site
    let mut out = Vec::with_capacity(n);
    out.extend(0..3u32);
    out
}
";
        let c = cert(src, &["entry"], &[]);
        assert_eq!(c.summary.findings.len(), 1, "only the extend fires");
        assert_eq!(c.summary.findings[0].line, 4);
        assert_eq!(c.summary.justified.get(CERTIFIER.rule), Some(&1));
    }

    #[test]
    fn allocations_inside_and_outside_a_loop_are_both_reported() {
        let src = "\
fn entry(xs: &[u32]) {
    for _ in xs {
        let v = xs.to_vec();
    }
    let w = xs.to_vec();
}
";
        // A steady-reachable fn of a query-processor file: the in-loop
        // site is as much this analysis' as the one outside the loop.
        let c = cert_at("crates/core/src/query/fx.rs", src, &["entry"], &[]);
        let lines: Vec<usize> = c.summary.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 5]);
        assert!(c.summary.findings[0]
            .message
            .contains(".to_vec() allocates"));
    }

    #[test]
    fn missing_entry_and_warm_up_specs_are_hard_errors() {
        let certify =
            |e: Specs, w: Specs| certify_fixture(&CERTIFIER, "fixture.rs", "fn real() {}\n", e, w);
        let err = certify(&["gone"], &[])
            .err()
            .expect("stale entry spec must be a hard error");
        assert!(err.contains("gone"));
        let err = certify(&["real"], &["fenced_away"])
            .err()
            .expect("stale warm-up spec must be a hard error");
        assert!(err.contains("fenced_away") && err.contains("warm-up"));
    }
}
