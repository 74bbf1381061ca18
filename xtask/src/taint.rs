//! The untrusted-input flow analysis of `cargo xtask certify`.
//!
//! The two reachability analyses (`panics`, `allocs`) answer "what can
//! this entry point *do*?". This one answers the dual question for the
//! snapshot/serving boundary: "where can untrusted *bytes* go?" — and
//! proves every source→sink flow crosses a sanitizer or carries a
//! reviewed `TAINT-OK(reason)` justification.
//!
//! The model has three vocabularies, registered in this module:
//!
//! * **Sources** ([`SOURCE_CLASSES`]): where attacker-controlled values
//!   enter. `snapshot-bytes` is every typed section accessor of
//!   [`SnapshotFile`] plus raw `from_le_bytes` decoding; `cli-path` is
//!   file reads named on the command line (`fs::read`).
//! * **Sanitizers** ([`SANITIZERS`]): the hand-audited validation
//!   boundary. `SnapshotFile::validate` (structural: checksums, offsets,
//!   lengths), the `Pool`/`decoded_usize`/`len_field` checked-extraction
//!   helpers, and the `from_*_parts` constructors that re-validate
//!   semantic invariants and return structured `SnapshotError`s. The
//!   flood never enters a sanitizer: its body is the audited perimeter.
//! * **Sinks** (classified per tainted body): slice indexing and
//!   `get_unchecked`, allocation capacities (`with_capacity`/`reserve`/
//!   `resize`), unchecked `+`/`-`/`*` arithmetic on decoded offsets, and
//!   id-typed tuple constructors (`VertexId(..)` et al.).
//!
//! **Propagation** is argument-level "lite": an item is *seeded* when it
//! calls a source (its locals hold decoded values) or matches a source
//! token pattern, then taint floods **forward** over the call graph's
//! [`typed_edges`](crate::callgraph::CallGraph::typed_edges) — callees
//! receive tainted arguments. The typed edge set is deliberately an
//! under-approximation (no name fan-out, receivers must type): a fanned
//! `.push(…)` edge from a decode-local `Vec` into the serving heap
//! kernel would poison the whole serving surface with false taint. The
//! compensating soundness argument: sinks are classified in *every*
//! tainted body directly, sanitizer bodies are hand-audited, and the
//! conservative edge set still backs the panic/alloc certificates.
//!
//! Like its three siblings, the analysis burns findings to zero: fix the
//! flow (checked conversion, destructuring `let`, capacity clamp) or
//! justify the site with `TAINT-OK(reason)` on the line or the comment
//! block above it. Everything else is a finding under rule key
//! `taint-flow`.

use crate::callgraph::{body_tokens, CallGraph};
use crate::certify::Site;
use crate::json::Json;
use crate::lex::TokenKind;
use crate::report::{print_findings, summary_json};
use crate::rules::{statement_around, tok, Finding, Summary};
use crate::scope::SourceFile;

/// Analysis name: the report section and JSON key.
pub(crate) const NAME: &str = "taint";

/// Rule key carried by the findings.
const RULE: &str = "taint-flow";

/// One class of untrusted-input entry points: named fns (resolved like
/// entry specs, hard error on rot) plus `::`-path token patterns matched
/// inside certified bodies.
pub struct SourceClass {
    pub name: &'static str,
    /// `Type::method` / free-fn specs; each must resolve.
    pub specs: &'static [&'static str],
    /// Call-path patterns (`fs::read`, `from_le_bytes`) seeding the
    /// containing fn.
    pub patterns: &'static [&'static str],
}

/// The registered source classes. Order is report order.
pub const SOURCE_CLASSES: [SourceClass; 2] = [
    SourceClass {
        name: "snapshot-bytes",
        specs: &[
            "SnapshotFile::u32s",
            "SnapshotFile::u64s",
            "SnapshotFile::f64s",
            "SnapshotFile::bytes",
            "SnapshotFile::section",
            "SnapshotFile::section_at",
            "SnapshotFile::sections",
        ],
        patterns: &["from_le_bytes"],
    },
    SourceClass {
        name: "cli-path",
        specs: &[],
        patterns: &["fs::read", "fs::read_to_string"],
    },
];

/// The sanitizer registry: the flood never enters these fns, so each
/// body is part of the hand-audited validation boundary. Every spec must
/// resolve — a renamed sanitizer silently *widens* the tainted set, the
/// unsound direction, so rot is a hard error.
pub const SANITIZERS: [&str; 13] = [
    // Structural validation: checksums, offsets, canonical layout.
    "SnapshotFile::validate",
    // Checked-extraction helpers of the core decode layer.
    "Pool::take_n",
    "Pool::take1",
    "Pool::finish",
    "decoded_usize",
    "len_field",
    // Re-validating constructors: decoded parts in, structured
    // SnapshotError/String out.
    "Graph::from_csr_parts",
    "MortonSpace::from_parts",
    "AdjacencyGraph::from_flat",
    "ApproxNvd::from_snapshot_parts",
    "KspinIndex::from_snapshot_parts",
    "AltIndex::from_flat_parts",
    "ContractionHierarchy::from_flat_parts",
];

/// Capacity-shaped sink methods: a decoded length reaching one of these
/// is an allocation-amplification primitive.
const CAPACITY_SINKS: [&str; 5] = [
    "with_capacity",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
];

/// Id-typed tuple constructors: wrapping a decoded integer into a typed
/// handle launders it past every downstream bounds contract.
const ID_CTORS: [&str; 3] = ["VertexId", "ObjectId", "TermId"];

/// Identifiers that may precede `[` without ending an expression. The
/// panic classifier's list plus `let` (slice-destructuring `let [a, b] =`
/// is a *pattern*, and the checked alternative this tool pushes decode
/// code toward).
const KEYWORDS_BEFORE_BRACKET: [&str; 7] = ["return", "in", "else", "match", "mut", "dyn", "let"];

/// Identifier keywords that cannot be the left operand of arithmetic.
const NON_OPERAND_KEYWORDS: [&str; 15] = [
    "return", "in", "else", "match", "if", "while", "let", "mut", "as", "break", "continue",
    "move", "loop", "unsafe", "ref",
];

/// The full result of one taint run, kept for reporting and self-tests.
#[derive(Debug)]
pub struct TaintAnalysis {
    pub graph: CallGraph,
    /// `tainted[i]` = index into the class table of the source class that
    /// reached item `i`; `None` = clean.
    pub tainted: Vec<Option<usize>>,
    /// BFS predecessor for chain rendering; `Some(i)` marks a seed.
    pub parent: Vec<Option<usize>>,
    /// Class names, parallel to the `tainted` indices.
    pub class_names: Vec<String>,
    /// Seeded fns per class (fns that call a source / match a pattern).
    pub seeds_per_class: Vec<usize>,
    /// Resolved sanitizer fn count.
    pub sanitizer_fns: usize,
    /// Unjustified findings under the `taint-flow` rule.
    pub summary: Summary,
}

impl TaintAnalysis {
    /// The source-to-sink call chain ending at item `i`, source first.
    pub fn chain(&self, mut i: usize) -> Vec<usize> {
        let mut chain = vec![i];
        while let Some(p) = self.parent[i] {
            if p == i {
                break;
            }
            chain.push(p);
            i = p;
        }
        chain.reverse();
        chain
    }

    /// Index of the certified item named `name` (bare or `Type::name`),
    /// for the self-tests and the fuzz-agreement regression test.
    #[cfg(test)]
    pub fn item(&self, spec: &str) -> Option<usize> {
        self.graph.resolve_entry(spec).into_iter().next()
    }
}

/// Whether the ident at code index `k` completes `pattern` (a
/// `::`-separated call path whose last segment is called): the ident
/// matches the last segment, is followed by `(`, and each preceding
/// segment matches backwards through `::`.
fn pattern_at(file: &SourceFile, k: usize, pattern: &str) -> bool {
    let segs: Vec<&str> = pattern.split("::").collect();
    let t = tok(file, k);
    if t.kind != TokenKind::Ident || t.text != segs[segs.len() - 1] {
        return false;
    }
    if !(k + 1 < file.code.len() && tok(file, k + 1).is_punct("(")) {
        return false;
    }
    let mut j = k;
    for seg in segs.iter().rev().skip(1) {
        if j < 2 || !tok(file, j - 1).is_punct("::") {
            return false;
        }
        let q = tok(file, j - 2);
        if q.kind != TokenKind::Ident || q.text != *seg {
            return false;
        }
        j -= 2;
    }
    true
}

/// Classifies the sink sites in the (tainted) body of `items[idx]`.
pub fn taint_sinks(file: &SourceFile, graph: &CallGraph, idx: usize) -> Vec<Site> {
    let mut out = Vec::new();
    for k in body_tokens(file, &graph.items, idx) {
        let t = tok(file, k);
        let prev = |n: usize| (k >= n).then(|| tok(file, k - n));
        let next = |n: usize| (k + n < file.code.len()).then(|| tok(file, k + n));
        let site = |what: String| Site {
            line: t.line,
            col: t.col,
            what,
        };
        match t.kind {
            TokenKind::Punct if t.text == "[" => {
                // An index *expression*: the previous token ends an
                // expression (same shape test as the panic classifier;
                // `let [a, b] =` destructuring is a pattern, not a sink).
                let indexes = prev(1).is_some_and(|p| {
                    matches!(p.kind, TokenKind::Ident | TokenKind::NumLit)
                        && !KEYWORDS_BEFORE_BRACKET.contains(&p.text.as_str())
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                if indexes {
                    out.push(site("slice index on decoded data".to_string()));
                }
            }
            TokenKind::Punct if matches!(t.text.as_str(), "+" | "-" | "*" | "+=" | "-=" | "*=") => {
                let operand = prev(1).is_some_and(|p| {
                    matches!(p.kind, TokenKind::Ident | TokenKind::NumLit)
                        && !NON_OPERAND_KEYWORDS.contains(&p.text.as_str())
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                if operand && !statement_is_checked_or_float(file, k) {
                    out.push(site(format!(
                        "unchecked `{}` arithmetic on decoded value",
                        t.text
                    )));
                }
            }
            TokenKind::Ident
                if (t.text == "get_unchecked" || t.text == "get_unchecked_mut")
                    && prev(1).is_some_and(|p| p.is_punct("."))
                    && next(1).is_some_and(|n| n.is_punct("(")) =>
            {
                out.push(site(format!("{}() on decoded data", t.text)));
            }
            // A literal capacity cannot be attacker-controlled, so a lone
            // numeric-literal argument clears the sink.
            TokenKind::Ident
                if CAPACITY_SINKS.contains(&t.text.as_str())
                    && next(1).is_some_and(|n| n.is_punct("("))
                    && !(next(2).is_some_and(|a| a.kind == TokenKind::NumLit)
                        && next(3).is_some_and(|c| c.is_punct(")"))) =>
            {
                out.push(site(format!(
                    "allocation capacity via {} from decoded value",
                    t.text
                )));
            }
            TokenKind::Ident
                if ID_CTORS.contains(&t.text.as_str())
                    && next(1).is_some_and(|n| n.is_punct("(")) =>
            {
                out.push(site(format!(
                    "id-typed constructor {}(..) on decoded value",
                    t.text
                )));
            }
            _ => {}
        }
    }
    out
}

/// Whether the statement around code index `k` shows float evidence (its
/// arithmetic is weight math, not offset math) or already goes through a
/// `checked_`/`saturating_`/`wrapping_` helper.
fn statement_is_checked_or_float(file: &SourceFile, k: usize) -> bool {
    let (start, end) = statement_around(file, k);
    for j in start..end {
        let t = tok(file, j);
        match t.kind {
            TokenKind::Ident
                if t.text == "f64"
                    || t.text == "f32"
                    || t.text.ends_with("_f64")
                    || t.text.ends_with("_f32")
                    || t.text.starts_with("checked_")
                    || t.text.starts_with("saturating_")
                    || t.text.starts_with("wrapping_") =>
            {
                return true;
            }
            TokenKind::NumLit if is_float_literal(&t.text) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Whether a numeric literal is a float: a decimal point, an `f32`/`f64`
/// suffix, or a scientific-notation exponent (`1e3`). Radix-prefixed
/// literals (`0x1E3`) are always integers — their `e`/`E` is a hex digit
/// — and the `e` of an integer suffix (`3usize`) never follows a digit.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0X") {
        return false;
    }
    if text.contains('.') || text.ends_with("f64") || text.ends_with("f32") {
        return true;
    }
    let b = text.as_bytes();
    b.iter().enumerate().any(|(i, &c)| {
        (c == b'e' || c == b'E')
            && i > 0
            && b[i - 1].is_ascii_digit()
            && b.get(i + 1)
                .is_some_and(|&n| n.is_ascii_digit() || n == b'+' || n == b'-')
    })
}

/// Runs the taint analysis over `files` with the registered source
/// classes and sanitizers. Spec rot (a source or sanitizer that resolves
/// to nothing) is a hard error in both directions: a lost source narrows
/// the certificate, a lost sanitizer widens the tainted set.
pub fn certify(files: &[SourceFile]) -> Result<TaintAnalysis, String> {
    certify_with(files, &SOURCE_CLASSES, &SANITIZERS)
}

/// [`certify`] with explicit registries, for fixture self-tests.
pub fn certify_with(
    files: &[SourceFile],
    classes: &[SourceClass],
    sanitizers: &[&str],
) -> Result<TaintAnalysis, String> {
    let graph = CallGraph::build(files);
    let n = graph.items.len();

    // Sanitizer barrier set: every spec must resolve.
    let mut barrier = vec![false; n];
    let mut missing = Vec::new();
    let mut sanitizer_fns = 0usize;
    for spec in sanitizers {
        let resolved = graph.resolve_entry(spec);
        if resolved.is_empty() {
            missing.push((*spec).to_string());
        }
        sanitizer_fns += resolved.len();
        for i in resolved {
            barrier[i] = true;
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "sanitizer spec(s) resolved to no certified fn — renamed or removed? {}",
            missing.join(", ")
        ));
    }

    // Seed the flood: source fns themselves, fns that call a source
    // (return-value taint), and fns matching a source token pattern.
    let mut tainted: Vec<Option<usize>> = vec![None; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seeds_per_class = vec![0usize; classes.len()];
    let mut queue = std::collections::VecDeque::new();
    let mut seed = |i: usize,
                    c: usize,
                    p: usize,
                    tainted: &mut Vec<Option<usize>>,
                    parent: &mut Vec<Option<usize>>,
                    queue: &mut std::collections::VecDeque<usize>| {
        if !barrier[i] && tainted[i].is_none() && graph.items[i].certified() {
            tainted[i] = Some(c);
            parent[i] = Some(p);
            seeds_per_class[c] += 1;
            queue.push_back(i);
        }
    };
    for (c, class) in classes.iter().enumerate() {
        let mut missing = Vec::new();
        let mut source_items = Vec::new();
        for spec in class.specs {
            let resolved = graph.resolve_entry(spec);
            if resolved.is_empty() {
                missing.push((*spec).to_string());
            }
            source_items.extend(resolved);
        }
        if !missing.is_empty() {
            return Err(format!(
                "source spec(s) of class `{}` resolved to no certified fn — renamed or removed? {}",
                class.name,
                missing.join(", ")
            ));
        }
        let mut class_hit = !source_items.is_empty();
        // The source fns decode raw bytes themselves.
        for &s in &source_items {
            seed(s, c, s, &mut tainted, &mut parent, &mut queue);
        }
        for i in 0..n {
            if !graph.items[i].certified() || barrier[i] {
                continue;
            }
            // Return-value taint: calling a source taints the caller.
            if let Some(&s) = graph.typed_edges[i]
                .iter()
                .find(|t| source_items.contains(t))
            {
                seed(i, c, s, &mut tainted, &mut parent, &mut queue);
            }
            // Pattern sources (`fs::read`, `from_le_bytes`).
            let file = &files[graph.items[i].file_idx];
            let hit = body_tokens(file, &graph.items, i)
                .into_iter()
                .any(|k| class.patterns.iter().any(|p| pattern_at(file, k, p)));
            if hit {
                class_hit = true;
                seed(i, c, i, &mut tainted, &mut parent, &mut queue);
            }
        }
        if !class_hit {
            return Err(format!(
                "source class `{}` matched nothing — sources moved or renamed?",
                class.name
            ));
        }
    }

    // Forward flood over the typed edges: callees receive tainted
    // arguments. Sanitizers are barriers; their bodies are the audited
    // validation boundary.
    while let Some(i) = queue.pop_front() {
        let c = tainted[i].expect("queued items are tainted");
        for &j in &graph.typed_edges[i] {
            if tainted[j].is_none() && !barrier[j] && graph.items[j].certified() {
                tainted[j] = Some(c);
                parent[j] = Some(i);
                queue.push_back(j);
            }
        }
    }

    // Classify sinks in every tainted body.
    let mut analysis = TaintAnalysis {
        graph,
        tainted,
        parent,
        class_names: classes.iter().map(|c| c.name.to_string()).collect(),
        seeds_per_class,
        sanitizer_fns,
        summary: Summary {
            files_scanned: files.len(),
            ..Summary::default()
        },
    };
    let mut findings = Vec::new();
    for i in 0..n {
        let Some(c) = analysis.tainted[i] else {
            continue;
        };
        let file = &files[analysis.graph.items[i].file_idx];
        for site in taint_sinks(file, &analysis.graph, i) {
            if file.taint_justified(site.line) {
                *analysis.summary.justified.entry(RULE).or_insert(0) += 1;
                continue;
            }
            let chain: Vec<String> = analysis
                .chain(i)
                .into_iter()
                .map(|j| analysis.graph.items[j].qualified())
                .collect();
            findings.push(Finding {
                rule: RULE,
                file: file.rel.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "{} [source: {}]; via {}",
                    site.what,
                    classes[c].name,
                    chain.join(" → ")
                ),
                snippet: file.snippet(site.line).to_string(),
            });
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col)
            .cmp(&(&b.file, b.line, b.col))
            .then_with(|| a.message.cmp(&b.message))
    });
    analysis.summary.findings = findings;
    Ok(analysis)
}

/// `--list`: the source classes and the sanitizer registry.
pub(crate) fn print_registry() {
    for class in &SOURCE_CLASSES {
        for spec in class.specs {
            println!("{NAME:<16} source {} {spec}", class.name);
        }
        for pattern in class.patterns {
            println!("{NAME:<16} source {} pattern {pattern}(", class.name);
        }
    }
    for s in SANITIZERS {
        println!("{NAME:<16} sanitizer {s}");
    }
}

/// The JSON report sub-object: the shared summary fields, then the flood
/// sizes.
pub(crate) fn json_fields(a: &TaintAnalysis) -> Vec<(String, Json)> {
    let classes = a
        .class_names
        .iter()
        .zip(&a.seeds_per_class)
        .map(|(name, &n)| (name.clone(), Json::Num(n)))
        .collect();
    let mut fields = summary_json(&a.summary);
    fields.extend([
        (
            "tainted_fns".to_string(),
            Json::Num(a.tainted.iter().flatten().count()),
        ),
        ("sanitizer_fns".to_string(), Json::Num(a.sanitizer_fns)),
        ("source_classes".to_string(), Json::Obj(classes)),
    ]);
    fields
}

/// The human report section.
pub(crate) fn print_report(a: &TaintAnalysis) {
    let certified = a.graph.items.iter().filter(|i| i.certified()).count();
    println!(
        "{NAME} — {} files, {} certified fns, {} tainted via {} source class(es), {} sanitizer barrier fn(s)",
        a.summary.files_scanned,
        certified,
        a.tainted.iter().flatten().count(),
        a.class_names.len(),
        a.sanitizer_fns
    );
    for (name, &seeds) in a.class_names.iter().zip(&a.seeds_per_class) {
        println!("  source class {name:<16} → {seeds} seeded fn(s)");
    }
    println!(
        "  {} unjustified source→sink flow(s), {} justified via TAINT-OK",
        a.summary.findings.len(),
        a.summary.justified_count(RULE)
    );
    print_findings(&a.summary.findings);
}

// ---------------------------------------------------------------------------
// Self-tests: planted source→sink chains, sanitizer barriers, the
// justification grammar end-to-end, registry-rot errors, and the live
// workspace's agreement with the snapshot fuzz suite's corruption
// coverage. (Zero live findings: `crate::certify`'s tests.)
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::load_perimeters;

    const BYTES_ONLY: [SourceClass; 1] = [SourceClass {
        name: "snapshot-bytes",
        specs: &["SnapshotFile::u32s"],
        patterns: &[],
    }];

    fn analyze(src: &str, classes: &[SourceClass], sanitizers: &[&str]) -> TaintAnalysis {
        certify_with(
            &[SourceFile::from_source("fixture.rs", src)],
            classes,
            sanitizers,
        )
        .expect("fixture registries resolve")
    }

    #[test]
    fn tainted_chain_is_reported_with_its_full_call_path() {
        let src = "\
impl SnapshotFile {
    fn u32s(&self) -> Vec<u32> { Vec::new() }
}
fn decode(f: &SnapshotFile) -> u32 {
    let lens = f.u32s();
    build(&lens)
}
fn build(lens: &[u32]) -> u32 {
    lens[0]
}
fn serving(xs: &[u32]) -> u32 {
    xs[1]
}
";
        let a = analyze(src, &BYTES_ONLY, &[]);
        assert!(a.tainted[a.item("decode").unwrap()].is_some());
        assert!(a.tainted[a.item("build").unwrap()].is_some());
        assert!(
            a.tainted[a.item("serving").unwrap()].is_none(),
            "no flow reaches serving"
        );
        assert_eq!(a.summary.findings.len(), 1, "{:?}", a.summary.findings);
        let f = &a.summary.findings[0];
        assert_eq!((f.line, f.col), (9, 9));
        assert!(
            f.message
                .contains("via SnapshotFile::u32s → decode → build"),
            "{}",
            f.message
        );
        assert!(f.message.contains("[source: snapshot-bytes]"));
        assert_eq!(f.snippet, "lens[0]");
    }

    #[test]
    fn sanitizer_barriers_stop_the_flood_and_their_bodies_are_exempt() {
        let src = "\
impl SnapshotFile {
    fn u32s(&self) -> Vec<u32> { Vec::new() }
}
impl Graph {
    fn from_csr_parts(offsets: &[u32]) -> Graph {
        Graph { n: offsets[0] }
    }
}
fn decode(f: &SnapshotFile) -> Graph {
    let offsets = f.u32s();
    Graph::from_csr_parts(&offsets)
}
";
        let a = analyze(src, &BYTES_ONLY, &["Graph::from_csr_parts"]);
        assert!(a.tainted[a.item("decode").unwrap()].is_some());
        assert!(
            a.tainted[a.item("Graph::from_csr_parts").unwrap()].is_none(),
            "the sanitizer is a barrier"
        );
        assert!(
            a.summary.findings.is_empty(),
            "the sink inside the sanitizer body is hand-audited: {:?}",
            a.summary.findings
        );
    }

    #[test]
    fn taint_ok_justifies_a_site_and_reasonless_markers_do_not() {
        let src = "\
impl SnapshotFile {
    fn u32s(&self) -> Vec<u32> { Vec::new() }
}
fn decode(f: &SnapshotFile) -> u32 {
    let v = f.u32s();
    // TAINT-OK(v.len() == 3 verified by the caller's section check)
    let a = v[0];
    // TAINT-OK()
    let b = v[1];
    a + b
}
";
        let a = analyze(src, &BYTES_ONLY, &[]);
        assert_eq!(a.summary.justified.get(RULE), Some(&1));
        // v[1] (reason-less marker) and the `+` both remain findings.
        assert_eq!(a.summary.findings.len(), 2, "{:?}", a.summary.findings);
        assert!(a.summary.findings[0].message.contains("slice index"));
        assert!(a.summary.findings[1]
            .message
            .contains("unchecked `+` arithmetic"));
    }

    #[test]
    fn pattern_sources_seed_their_class() {
        let classes: [SourceClass; 1] = [SourceClass {
            name: "cli-path",
            specs: &[],
            patterns: &["fs::read"],
        }];
        let src = "\
fn cmd_load(path: &str) -> u8 {
    let bytes = std::fs::read(path).unwrap_or_default();
    parse(&bytes)
}
fn parse(b: &[u8]) -> u8 {
    b[0]
}
fn elsewhere(r: &Reader) {
    r.read();
}
";
        let a = analyze(src, &classes, &[]);
        assert!(a.tainted[a.item("cmd_load").unwrap()].is_some());
        assert!(a.tainted[a.item("parse").unwrap()].is_some());
        assert!(
            a.tainted[a.item("elsewhere").unwrap()].is_none(),
            "a `.read()` method call is not the fs::read path pattern"
        );
        assert_eq!(a.summary.findings.len(), 1);
        assert!(a.summary.findings[0].message.contains("[source: cli-path]"));
    }

    #[test]
    fn capacity_id_ctor_and_unchecked_access_sinks_classify() {
        let src = "\
impl SnapshotFile {
    fn u32s(&self) -> Vec<u32> { Vec::new() }
}
fn decode(f: &SnapshotFile) -> VertexId {
    let n = f.u32s();
    let len = n.first().copied().unwrap_or(0);
    let mut v = Vec::with_capacity(len);
    let w = Vec::with_capacity(16);
    v.reserve(len);
    let x = unsafe { n.get_unchecked(1) };
    VertexId(len)
}
";
        let a = analyze(src, &BYTES_ONLY, &[]);
        let whats: Vec<&str> = a
            .summary
            .findings
            .iter()
            .map(|f| f.message.split(" [source:").next().unwrap())
            .collect();
        assert_eq!(
            whats,
            vec![
                "allocation capacity via with_capacity from decoded value",
                "allocation capacity via reserve from decoded value",
                "get_unchecked() on decoded data",
                "id-typed constructor VertexId(..) on decoded value",
            ],
            "literal with_capacity(16) must not classify"
        );
    }

    #[test]
    fn checked_and_float_arithmetic_is_not_a_sink() {
        let src = "\
impl SnapshotFile {
    fn u32s(&self) -> Vec<u32> { Vec::new() }
}
fn decode(f: &SnapshotFile) -> u32 {
    let v = f.u32s();
    let n = v.len().checked_add(1).unwrap_or(0);
    let w = 0.5 * 3.0;
    let x = n.saturating_mul(2);
    let ms = t.as_secs_f64() * 1e3;
    let arr = [0u32; 4];
    n as u32
}
";
        let a = analyze(src, &BYTES_ONLY, &[]);
        assert!(a.summary.findings.is_empty(), "{:?}", a.summary.findings);
        assert!(is_float_literal("1e3") && is_float_literal("2.5"));
        assert!(!is_float_literal("0x1E3") && !is_float_literal("3usize"));
    }

    #[test]
    fn registry_rot_is_a_hard_error() {
        let files = [SourceFile::from_source("fixture.rs", "fn f() {}")];
        let gone: [SourceClass; 1] = [SourceClass {
            name: "snapshot-bytes",
            specs: &["SnapshotFile::gone"],
            patterns: &[],
        }];
        let err = certify_with(&files, &gone, &[]).unwrap_err();
        assert!(err.contains("source spec"), "{err}");
        let silent: [SourceClass; 1] = [SourceClass {
            name: "cli-path",
            specs: &[],
            patterns: &["fs::read"],
        }];
        let err = certify_with(&files, &silent, &[]).unwrap_err();
        assert!(err.contains("matched nothing"), "{err}");
        let err = certify_with(&files, &silent, &["Gone::sanitize"]).unwrap_err();
        assert!(err.contains("sanitizer spec"), "{err}");
    }

    // -- live workspace ----------------------------------------------------

    fn live() -> TaintAnalysis {
        certify(&load_perimeters().0).expect("live source/sanitizer registries resolve")
    }

    /// Fuzz-agreement regression (the static certificate must cover what
    /// `tests/snapshot_roundtrip.rs` exercises dynamically): every decode
    /// fn a corrupted snapshot byte can reach — all section decoders and
    /// the facade loader — is certified tainted, so its sinks were either
    /// fixed or carry a reviewed TAINT-OK.
    #[test]
    fn every_fuzzer_corruptible_decode_path_is_certified_tainted() {
        let a = live();
        for spec in [
            "decode_graph",
            "decode_corpus",
            "decode_vocab",
            "decode_one_nvd",
            "decode_index",
            "decode_alt",
            "decode_ch",
            "KspinSystem::load_snapshot",
            "describe_sections",
        ] {
            let idx = a
                .item(spec)
                .unwrap_or_else(|| panic!("decode fn `{spec}` missing from the perimeter"));
            assert!(
                a.tainted[idx].is_some(),
                "`{spec}` decodes snapshot bytes but the flood never reaches it — \
                 a source spec or call edge rotted"
            );
        }
        // The serving side stays clean: taint must not leak across the
        // sanitizer constructors into the query processors.
        for spec in crate::entrypoints::STEADY_ENTRIES {
            if spec == "SnapshotFile::validate" {
                continue; // the validator is a sanitizer, not a serving path
            }
            for idx in a.graph.resolve_entry(spec) {
                assert!(
                    a.tainted[idx].is_none(),
                    "serving entry `{spec}` is tainted — a sanitizer boundary leaked"
                );
            }
        }
    }
}
