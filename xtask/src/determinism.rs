//! The determinism analysis of `cargo xtask certify`.
//!
//! Third certificate in the family ([`crate::panics`], [`crate::allocs`]):
//! proves (conservatively) that the serving steady state is
//! *order-deterministic* — every query processor returns bit-identical
//! results regardless of hash seed, wall clock, rng state, thread count,
//! or chunk-claiming order. This is the static twin of
//! `tests/serving_determinism.rs`, which pins the same property
//! dynamically for one workload on one host; together they back the
//! paper's parallel ≡ sequential serving claim (§5) and the ROADMAP's
//! scatter-gather precondition (every replica must answer byte-identically).
//!
//! The sweep reuses the allocation certifier's phase split: reachability
//! starts from [`crate::entrypoints::STEADY_ENTRIES`] and never crosses
//! the [`crate::entrypoints::WARM_UP`] boundary — index builds may read
//! clocks and hash freely because their *outputs* are sorted/canonical
//! structures, which the build-determinism tests pin separately.
//!
//! The classifier enumerates five nondeterminism source classes:
//!
//! * **(a) hash-order iteration** — `.iter()`/`.keys()`/`.drain()`/… and
//!   `for`-loops over a receiver that resolves to `HashMap`/`HashSet`:
//!   `RandomState` makes the visit order differ per process, so any
//!   result or heap-push order derived from it differs too.
//! * **(b) hash container construction** — `HashMap::new()`,
//!   `HashSet::with_capacity()`, …: building a `RandomState`-hashed
//!   container on a result path is flagged at the source even when the
//!   escaping iteration happens in untypable code.
//! * **(c) time/rng reads** — `Instant::now()`, `SystemTime::now()`,
//!   `thread_rng()`, `from_entropy()`, `random()`: fine for metrics,
//!   nondeterministic for anything that feeds a result.
//! * **(d) order-sensitive float reduction** — `.sum()`/`.product()`
//!   with float evidence in the statement: float addition is
//!   non-associative, so a reduction whose operand order varies with
//!   thread count or chunk claiming varies bit-wise.
//! * **(e) host-shape branches** — `available_parallelism()`,
//!   `thread::current()`: results must not depend on how many workers
//!   the host happens to offer.
//!
//! A site whose ordering provably cannot escape carries an inline
//! `// DETER-OK: <ordering invariant>` justification (same placement
//! grammar as `PANIC-OK`/`ALLOC-OK`) and is counted but not reported.
//! Everything else is a finding under rule key `determinism`.
//!
//! The sweep, report and CLI live in the shared driver
//! ([`crate::certify`]); this module is classifier-only.

use crate::callgraph::{body_tokens, CallGraph};
use crate::certify::{Certifier, Site};
use crate::entrypoints::{STEADY_ENTRIES, WARM_UP};
use crate::lex::TokenKind;
use crate::rules::statement_around;
use crate::scope::SourceFile;

/// The description block the shared driver runs from.
pub(crate) const CERTIFIER: Certifier = Certifier {
    name: "determinism",
    rule: "determinism",
    entries: &STEADY_ENTRIES,
    warm_up: &WARM_UP,
    marker: "DETER-OK",
    reach_adjective: "steady-reachable",
    noun: "nondeterminism",
    classify: deter_sites,
};

/// `RandomState`-hashed std containers whose iteration order is
/// seed-dependent.
const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Methods that iterate (or visit-and-mutate) a container in its storage
/// order — nondeterministic when the receiver is a [`HASH_TYPES`] type.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
    "into_keys",
    "into_values",
];

/// Constructors that build a hashed container (class b). Includes
/// `with_capacity_and_hasher`: even a fixed hasher leaves the order an
/// implementation detail of the bucket layout, so it still needs a
/// DETER-OK invariant to sit on a result path.
const HASH_CTORS: [&str; 5] = [
    "new",
    "with_capacity",
    "with_capacity_and_hasher",
    "default",
    "from_iter",
];

/// Clock-source qualifiers for `::now()` (class c).
const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];

/// Free/assoc rng calls (class c).
const RNG_CALLS: [&str; 3] = ["thread_rng", "from_entropy", "random"];

/// Order-sensitive reducers when operating on floats (class d).
const FLOAT_REDUCERS: [&str; 2] = ["sum", "product"];

/// Classifies every nondeterminism source in the certified body of
/// `items[idx]`, walking release-visible tokens only (the call-graph
/// layer's skip rules for `debug_assert*!`, attributes, gated
/// statements, and nested fns apply here too).
pub fn deter_sites(file: &SourceFile, graph: &CallGraph, idx: usize) -> Vec<Site> {
    let locals = graph.local_types(file, idx);
    let self_ty = graph.items[idx].self_type.clone();
    let mut out = Vec::new();
    for k in body_tokens(file, &graph.items, idx) {
        let t = &file.tokens[file.code[k]];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = |n: usize| (k >= n).then(|| &file.tokens[file.code[k - n]]);
        let next = |n: usize| file.code.get(k + n).map(|&i| &file.tokens[i]);
        let name = t.text.as_str();

        // (a) `for x in map { … }` — the iterated receiver resolves to a
        // hash type. Method-style iteration is handled by the dot-call
        // arm below, so this only needs the bare `for … in receiver {`
        // shape (optionally through `&`/`mut`).
        if name == "in" {
            let mut j = k + 1;
            while file
                .code
                .get(j)
                .is_some_and(|&i| file.tokens[i].is_punct("&") || file.tokens[i].is_ident("mut"))
            {
                j += 1;
            }
            let at = |n: usize| file.code.get(n).map(|&i| &file.tokens[i]);
            let resolved: Option<(String, &crate::lex::Token)> = if at(j)
                .is_some_and(|r| r.is_ident("self"))
                && at(j + 1).is_some_and(|d| d.is_punct("."))
                && at(j + 2).is_some_and(|f| f.kind == TokenKind::Ident)
                && at(j + 3).is_some_and(|b| b.is_punct("{"))
            {
                let field = &file.tokens[file.code[j + 2]];
                self_ty
                    .as_ref()
                    .and_then(|ty| {
                        graph
                            .field_types
                            .get(&(ty.clone(), field.text.clone()))
                            .cloned()
                    })
                    .map(|ty| (ty, field))
            } else if at(j).is_some_and(|r| r.kind == TokenKind::Ident)
                && at(j + 1).is_some_and(|b| b.is_punct("{"))
            {
                let recv = &file.tokens[file.code[j]];
                locals.get(&recv.text).cloned().map(|ty| (ty, recv))
            } else {
                None
            };
            if let Some((ty, recv)) = resolved {
                if HASH_TYPES.contains(&ty.as_str()) {
                    out.push(Site {
                        line: recv.line,
                        col: recv.col,
                        what: format!("for-loop over `{ty}` iterates in RandomState order"),
                    });
                }
            }
            continue;
        }

        let site = |what: String| Site {
            line: t.line,
            col: t.col,
            what,
        };

        // `.method(…)` (optionally through a `::<…>` turbofish).
        let dot_call = prev(1).is_some_and(|p| p.is_punct("."))
            && next(1).is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
        if dot_call {
            if ITER_METHODS.contains(&name) {
                if let Some(ty) = graph.receiver_type(file, idx, k, &locals) {
                    if HASH_TYPES.contains(&ty.as_str()) {
                        out.push(site(format!(
                            ".{name}() on `{ty}` iterates in RandomState order"
                        )));
                    }
                }
            }
            if FLOAT_REDUCERS.contains(&name) && float_in_statement(file, k) {
                out.push(site(format!(
                    ".{name}() float reduction is order-sensitive"
                )));
            }
            continue;
        }

        // `Qual::name(…)`.
        let qualified = prev(1).is_some_and(|p| p.is_punct("::"))
            && next(1).is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
        if qualified {
            if let Some(q) = prev(2).filter(|q| q.kind == TokenKind::Ident) {
                if name == "now" && CLOCK_TYPES.contains(&q.text.as_str()) {
                    out.push(site(format!("{}::now() reads the clock", q.text)));
                    continue;
                }
                if HASH_CTORS.contains(&name) && HASH_TYPES.contains(&q.text.as_str()) {
                    out.push(site(format!(
                        "{}::{name}() builds a RandomState-hashed container",
                        q.text
                    )));
                    continue;
                }
                if name == "current" && q.text == "thread" {
                    out.push(site(
                        "thread::current() makes results thread-dependent".to_string(),
                    ));
                    continue;
                }
            }
        }

        // Bare or qualified calls that are nondeterministic by name.
        let called = next(1).is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
        if called {
            if RNG_CALLS.contains(&name) {
                out.push(site(format!("{name}() draws nondeterministic randomness")));
            } else if name == "available_parallelism" {
                out.push(site(
                    "available_parallelism() varies with the host's worker count".to_string(),
                ));
            }
        }
    }
    out
}

/// Float evidence anywhere in the statement containing code token `k`:
/// an `f32`/`f64` type token or a float literal. Mirrors the panic
/// certifier's integer-division heuristic, inverted — integer reduction
/// is order-insensitive, float reduction is not.
fn float_in_statement(file: &SourceFile, k: usize) -> bool {
    let (start, end) = statement_around(file, k);
    (start..end).any(|j| {
        let t = &file.tokens[file.code[j]];
        match t.kind {
            TokenKind::Ident => t.text == "f64" || t.text == "f32",
            TokenKind::NumLit => {
                t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32")
            }
            _ => false,
        }
    })
}

// ---------------------------------------------------------------------------
// Self-tests: one true positive per source class with exact spans,
// receiver-typed precision, DETER-OK suppression, the warm-up fence.
// (The live workspace: `crate::certify`'s tests.)
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{certify_fixture, Certificate};

    type Specs = &'static [&'static str];

    fn cert(src: &str, entries: Specs, warm: Specs) -> Certificate {
        certify_fixture(&CERTIFIER, "fixture.rs", src, entries, warm)
            .expect("fixture specs resolve")
    }

    #[test]
    fn classifier_finds_each_nondeterminism_class_with_exact_spans() {
        let src = "\
fn entry(xs: &[f64], n: usize) -> u32 {
    let m = HashMap::new();
    for k in &m { touch(k); }
    let s: HashSet<u32> = HashSet::with_capacity(n);
    let t = Instant::now();
    let r = thread_rng();
    let total: f64 = xs.iter().sum();
    let w = std::thread::available_parallelism();
    m.keys().count() as u32
}
fn touch(_k: u32) {}
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
                ("HashMap::new() builds a RandomState-hashed container", 2),
                ("for-loop over `HashMap` iterates in RandomState order", 3),
                (
                    "HashSet::with_capacity() builds a RandomState-hashed container",
                    4
                ),
                ("Instant::now() reads the clock", 5),
                ("thread_rng() draws nondeterministic randomness", 6),
                (".sum() float reduction is order-sensitive", 7),
                (
                    "available_parallelism() varies with the host's worker count",
                    8
                ),
                (".keys() on `HashMap` iterates in RandomState order", 9),
            ]
        );
        let for_loop = &c.summary.findings[1];
        assert_eq!(
            for_loop.col,
            src.lines().nth(2).expect("l3").find("&m").expect("pos") + 2,
            "for-loop finding anchors on the receiver"
        );
    }

    #[test]
    fn deterministic_forms_are_clean() {
        let src = "\
struct Index { by_id: BTreeMap<u32, u32>, slots: Vec<u32> }
impl Index {
    pub fn entry(&self, xs: &[u32]) -> u32 {
        let mut acc = 0u32;
        for v in &self.slots { acc += v; }
        for (_k, v) in &self.by_id { acc += v; }
        let ints: u32 = xs.iter().sum();
        let sorted: Vec<u32> = Vec::with_capacity(4);
        debug_assert!(HashSet::new().is_empty());
        acc + ints + sorted.len() as u32
    }
}
";
        let c = cert(src, &["Index::entry"], &[]);
        assert!(
            c.summary.findings.is_empty(),
            "Vec/BTreeMap iteration, integer sum, and debug-only hash use \
             are all deterministic: {:?}",
            c.summary.findings
        );
    }

    #[test]
    fn untyped_iteration_is_not_flagged_but_construction_is() {
        // `mystery.iter()` cannot be typed — flooding every slice iter
        // would bury the signal, so class (a) requires a resolved hash
        // receiver. The construction class (b) still catches the
        // container at its source.
        let src = "\
fn entry(n: usize) -> usize {
    let m = HashMap::with_capacity(n);
    helper(&m)
}
fn helper(mystery: &M) -> usize {
    mystery.iter().count()
}
";
        let c = cert(src, &["entry"], &[]);
        assert_eq!(c.summary.findings.len(), 1);
        assert!(c.summary.findings[0]
            .message
            .contains("HashMap::with_capacity() builds a RandomState-hashed container"));
    }

    #[test]
    fn deter_ok_justifications_silence_but_count() {
        let src = "\
fn entry(scratch: &mut Scratch) -> u32 {
    // DETER-OK: drained into a sort_unstable before anything escapes
    let m = HashMap::new();
    let t = Instant::now();
    post(m, t)
}
fn post(_m: M, _t: T) -> u32 { 0 }
";
        let c = cert(src, &["entry"], &[]);
        assert_eq!(c.summary.findings.len(), 1, "only the clock read fires");
        assert_eq!(c.summary.findings[0].line, 4);
        assert_eq!(c.summary.justified.get(CERTIFIER.rule), Some(&1));
    }

    #[test]
    fn warm_up_boundary_fences_build_time_nondeterminism() {
        let src = "\
impl Engine {
    pub fn serve(&mut self) { self.step(); }
    fn step(&mut self) { let t = Instant::now(); }
    pub fn new(n: usize) -> Self {
        let timer = Instant::now();
        let dedup = HashSet::with_capacity(n);
        Engine
    }
}
";
        let c = cert(src, &["Engine::serve"], &["new"]);
        // Only step's clock read is a finding: `new` may hash and time
        // freely because its outputs are canonicalized before serving.
        assert_eq!(c.summary.findings.len(), 1);
        assert_eq!(c.summary.findings[0].line, 3);
        assert!(c.summary.findings[0]
            .message
            .contains("Engine::serve → Engine::step"));
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
