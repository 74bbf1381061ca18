//! The serving entry-point model shared by the analyses of
//! `cargo xtask certify`.
//!
//! The allocation analysis splits the serving lifecycle in two, following
//! the paper's own phase structure (heap *generation* happens once per
//! query term via the Heap Generator, then the Algorithm 1/3 loops only
//! *extract*):
//!
//! * **Steady state** — [`STEADY_ENTRIES`]: the query processors, the
//!   batch executor, the d-ary heap kernel ops and inverted-heap
//!   extraction. Allocation reached from here must carry an
//!   `ALLOC-OK: capacity invariant` or it is a finding.
//! * **Warm-up** — [`WARM_UP`]: constructors (`new`), index/heap builds
//!   and the Heap Generator's `seed` first-fill. These are allowed to
//!   allocate; the reachability sweep never enters them. (The dynamic
//!   `tests/alloc_steady_state.rs` twin pins what the warm-up carve-out
//!   actually costs per query, so nothing hides there.)
//!
//! This module is also the single registration point for both analyses'
//! *perimeter*: [`CERT_DIRS`] (the shared reachability perimeter of
//! `panics`/`allocs`) and [`PANIC_ENTRIES`] (the panic certificate's
//! serving surface).

/// The certified perimeter, relative to the workspace root: the crates a
/// serving path executes. `kspin-core::modules` dispatches through the
/// `NetworkDistance` / `LowerBound` traits, and the adapters that
/// implement them for CH and hub labels live in the facade (`src/`),
/// outside this perimeter, so the kernels they wrap are registered by name
/// in the entry tables below. `crates/ch` is in for `ChQuery`, the kernel
/// behind KS-CH (e2e `query_ch`); `crates/hl` for `HlQuery`, the kernel
/// behind KS-HL — the default serving variant (the CLI and three of the
/// four e2e workloads). G-tree, ROAD and FS-FBS remain
/// comparison crates no default serving path calls into.
///
/// The same seven crates, and `crates/text` (scoring, which every top-k
/// query runs), deny clippy's `disallowed_types` / `disallowed_methods`
/// at their crate roots (the lists are in the root `clippy.toml`): a
/// crate added here gets that deny too.
pub const CERT_DIRS: [&str; 7] = [
    "crates/graph/src",
    "crates/alt/src",
    "crates/nvd/src",
    "crates/core/src",
    "crates/ch/src",
    "crates/hl/src",
    "crates/snapshot/src",
];

/// The serving entry points the panic certificate quantifies over: every
/// query processor the engine exposes (§4 of the paper), the batch
/// executor, the d-ary heap kernel API, the Heap Generator constructor,
/// and the CH and hub-label distance kernels KS-CH and KS-HL serve every
/// exact distance through.
pub const PANIC_ENTRIES: [&str; 11] = [
    "QueryEngine::bknn",
    "QueryEngine::top_k",
    "QueryEngine::bknn_expr",
    "BatchExecutor::execute",
    "DaryHeap::push",
    "DaryHeap::pop",
    "DaryHeap::insert_or_decrease",
    "InvertedHeap::create",
    "ChQuery::distance",
    "HlQuery::distance",
    "SnapshotFile::validate",
];

/// Steady-state serving entry points for the allocation certificate: the
/// 3 query processors (§4.1/§4.2), the batch executor, the 4 d-ary heap
/// kernel ops, inverted-heap extraction (Algorithm 4), and the CH and
/// hub-label distance kernels.
pub const STEADY_ENTRIES: [&str; 12] = [
    "QueryEngine::bknn",
    "QueryEngine::top_k",
    "QueryEngine::bknn_expr",
    "BatchExecutor::execute",
    "DaryHeap::push",
    "DaryHeap::pop",
    "DaryHeap::insert_or_decrease",
    "DaryHeap::clear",
    "InvertedHeap::extract",
    "ChQuery::distance",
    "HlQuery::distance",
    "SnapshotFile::validate",
];

/// Warm-up boundary specs, resolved with entry-point semantics (a bare
/// name matches every certified fn of that name — `new` covers every
/// constructor, `build` every index build). Reachability never crosses
/// into these items: they may allocate freely.
///
/// A fence is for code that *is* called from a serving path and may
/// allocate there by design. It is not the fix for a name collision: the
/// resolver links a `.name(…)` call to every certified fn called `name`,
/// so a build- or persist-time method that shares a name with something
/// the serving path calls (`ServingQuery::run`, the heap kernel's `push`,
/// an iterator's `take`) is linked from it by a false edge — and a fence
/// would hide that edge from this analysis only, while the panic analysis,
/// which has no fence, went on demanding a justification for every index
/// expression behind it. Such a method is renamed instead
/// (`Contractor::contract_all`, `SnapshotWriter::append_section`,
/// `Pool::take_n`); `build_and_persist_code_is_not_panic_reachable` below
/// keeps them out of every serving reach set.
pub const WARM_UP: [&str; 3] = ["new", "build", "InvertedHeap::seed"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::certify::load_files;

    /// Warm-up specs must stay anchored to real fns too; a rename that
    /// silently widened the steady perimeter would weaken the certificate
    /// in the *unsound* direction.
    #[test]
    fn warm_up_specs_resolve_on_the_live_workspace() {
        let files = load_files(&CERT_DIRS);
        let graph = CallGraph::build(&files);
        for spec in WARM_UP {
            assert!(
                !graph.resolve_entry(spec).is_empty(),
                "warm-up spec {spec} resolves to nothing"
            );
        }
    }

    /// Panic entries resolve on the live workspace, same rot guard as the
    /// warm-up specs above.
    #[test]
    fn panic_entries_resolve_on_the_live_workspace() {
        let files = load_files(&CERT_DIRS);
        let graph = CallGraph::build(&files);
        for spec in PANIC_ENTRIES {
            assert!(
                !graph.resolve_entry(spec).is_empty(),
                "panic entry {spec} resolves to nothing"
            );
        }
    }

    /// Build- and persist-time code stays out of the panic certificate's
    /// reach: the three methods renamed off a serving-path name, and
    /// everything only they call. (Constructors are not listed — an
    /// unknown qualifier such as `Vec::new()` still resolves to every
    /// workspace `new`, `Contractor::new` included; conservative by
    /// design, see the module docs of `callgraph`.)
    #[test]
    fn build_and_persist_code_is_not_panic_reachable() {
        let files = load_files(&CERT_DIRS);
        let graph = CallGraph::build(&files);
        let entries: Vec<usize> = PANIC_ENTRIES
            .iter()
            .flat_map(|spec| graph.resolve_entry(spec))
            .collect();
        let reach = graph.reach(&entries);
        for spec in [
            "Contractor::contract_all",
            "Contractor::contract",
            "Contractor::simulate",
            "Contractor::priority",
            "WitnessSearch::witnessed",
            "Contractor::insert_shortcut",
            "SnapshotWriter::append_section",
            "Pool::take_n",
        ] {
            let items = graph.resolve_entry(spec);
            assert!(!items.is_empty(), "{spec} resolves to nothing");
            for i in items {
                assert!(
                    !reach.reached(i),
                    "{spec} is panic-reachable via {:?}",
                    reach
                        .chain(i)
                        .into_iter()
                        .map(|j| graph.items[j].qualified())
                        .collect::<Vec<_>>()
                );
            }
        }
    }
}
