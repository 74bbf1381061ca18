//! Which layer a per-layer metric belongs to, and which end-to-end metrics
//! it should move. `BENCHMARK.json` lists the per-layer metrics by name,
//! unit and direction only (its format allows no more), so the map lives
//! here: the table on stderr prints it and the smoke test holds it to
//! `BENCHMARK.json`. On which workload each should show is in the README.

/// Everything a query's cost reaches.
const QUERY: &[&str] = &[
    "qps",
    "topk_mean_us",
    "topk_p95_us",
    "bknn_or_mean_us",
    "bknn_or_p95_us",
    "bknn_and_mean_us",
    "boolean_mean_us",
    "serve_qps",
];

/// `(layer, end-to-end metrics it should move)` of a per-layer metric. The
/// layer's short name is the last-but-one component of the metric's name
/// (`topk.alt.lb_share`, `alt.build_s`); the layers are the repository's
/// modules.
pub fn layer_of(name: &str) -> Option<(&'static str, &'static [&'static str])> {
    let short = name.rsplit('.').nth(1).unwrap_or(name);
    Some(match (short, name) {
        ("alt", "alt.build_s") => ("kspin-alt", &["setup_s"]),
        ("alt", "alt.bytes") => ("kspin-alt", &["snapshot_bytes_per_vertex"]),
        ("alt", _) => ("kspin-alt", QUERY),
        ("dist", "dist.build_s") => ("kspin-hl / kspin-ch", &["setup_s"]),
        // Memory only: the distance module is not in the snapshot.
        ("dist", "dist.bytes") => ("kspin-hl / kspin-ch", &[]),
        ("dist", _) => ("kspin-hl / kspin-ch", QUERY),
        ("heap", _) => ("kspin-core::heap", QUERY),
        ("core", _) => ("kspin-core::query", QUERY),
        ("text", _) => ("kspin-text", &["topk_mean_us", "topk_p95_us"]),
        ("serving", _) => ("kspin-core::serving", &["serve_qps"]),
        ("system" | "index", "system.build_s" | "index.build_s") => (
            "kspin-core::index + kspin-nvd",
            &["index_build_s", "setup_s"],
        ),
        ("index", "index.bytes") => (
            "kspin-core::index + kspin-nvd",
            &["snapshot_bytes_per_vertex"],
        ),
        // A lazily updated index is what `lifecycle` queries.
        ("index", "index.lazy_query_slowdown") => ("kspin-core::index + kspin-nvd", QUERY),
        ("index", "index.nvd_terms" | "index.small_terms") => (
            "kspin-core::index + kspin-nvd",
            &["index_build_s", "rebuild_p50_ms"],
        ),
        // §6.2 inserts and deletes: measured, not gated (see the README).
        ("index" | "nvd", _) => ("kspin-core::index + kspin-nvd", &[]),
        ("snapshot", "snapshot.bytes") => ("kspin-snapshot", &["snapshot_bytes_per_vertex"]),
        ("snapshot", _) => ("kspin-snapshot", &["snapshot_load_ms"]),
        // Distribution detail, determinism and the cost of recording.
        ("diag" | "trace" | "result_digest", _) => ("harness", &[]),
        _ => return None,
    })
}
