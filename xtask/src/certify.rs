//! `cargo xtask certify` — the two static certificates of the serving
//! path, one command.
//!
//! | analysis | proves (conservatively)                                  | marker      |
//! |----------|----------------------------------------------------------|-------------|
//! | `panics` | no panic source reachable from a serving entry point     | `PANIC-OK:` |
//! | `allocs` | no allocation in the serving steady state after warm-up  | `ALLOC-OK:` |
//!
//! Two properties need no reach analysis and are lint configuration
//! instead. Order-determinism: the serving crates deny clippy's
//! `disallowed_types` / `disallowed_methods` (hashed containers, clocks,
//! host shape; see the root `clippy.toml`) at their crate roots.
//! Untrusted snapshot input: the decode modules (`kspin-snapshot` but its
//! writer, and both `snapshot.rs` codecs) deny
//! `clippy::arithmetic_side_effects` and `clippy::indexing_slicing`, and
//! `tests/load_allocations.rs` bounds the bytes one load may request by a
//! multiple of the file length.
//!
//! One run lexes every file of [`CERT_DIRS`] once, builds one call graph,
//! runs both analyses and prints one report. An inline marker comment on
//! the flagged line, or in the contiguous comment block directly above
//! it, is the only way to exempt a site: everything else is a finding and
//! fails the run.
//!
//! The two analyses share their whole pipeline — spec resolution with
//! hard errors on rot, the warm-up-fenced sweep, per-site justification,
//! finding assembly with shortest call chains — through [`Certifier`] and
//! [`certify`]; [`crate::panics`] and [`crate::allocs`] supply a
//! classifier and a description block each.

use std::process::ExitCode;

use crate::callgraph::{CallGraph, Reach};
use crate::entrypoints::CERT_DIRS;
use crate::json::Json;
use crate::lint::{walk_rs, workspace_root};
use crate::report::{json_document, parse_format, print_findings, summary_json, Format};
use crate::rules::{Finding, Summary};
use crate::scope::SourceFile;
use crate::{allocs, panics};

/// CLI usage.
const USAGE: &str = "\
usage: cargo xtask certify [options]

Certifies the serving path two ways — panic-free (PANIC-OK) and steady
state alloc-free after warm-up (ALLOC-OK) — and fails on any finding. A
site is exempted only by its inline marker comment with a reason, e.g.
`// PANIC-OK: i < n by construction`.

options:
  --format <human|json>   report format (json: one document, a sub-object
                          per analysis; default human)
  --list                  print every entry point and warm-up fence the
                          certificates rest on
  -h, --help              show this help";

/// The analyses, in report order.
const CERTIFIERS: [&Certifier; 2] = [&panics::CERTIFIER, &allocs::CERTIFIER];

/// One classified site inside an item body, independent of which
/// analysis found it.
#[derive(Debug)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Human description of the site's class.
    pub what: String,
}

/// Everything that distinguishes one reachability analysis from the next.
pub struct Certifier {
    /// Analysis name: the report section and JSON key, e.g. `panics`.
    pub name: &'static str,
    /// Rule key carried by its findings, e.g. `panic-reachability`.
    pub rule: &'static str,
    /// Entry-point specs the sweep starts from.
    pub entries: &'static [&'static str],
    /// Warm-up boundary specs the sweep never crosses; empty = sweep the
    /// whole graph from the entries.
    pub warm_up: &'static [&'static str],
    /// Inline justification marker, e.g. `PANIC-OK`: a comment
    /// `// PANIC-OK: reason` exempts a site (see [`SourceFile::marked`]).
    pub marker: &'static str,
    /// Adjective for the reachable-fn count line, e.g. `steady-reachable`.
    pub reach_adjective: &'static str,
    /// Noun phrase for the failure tally, e.g. `panic-reachable`.
    pub noun: &'static str,
    /// Classifies the rule's sites in the certified body of `items[idx]`.
    pub classify: fn(&SourceFile, &CallGraph, usize) -> Vec<Site>,
}

/// The result of one reachability analysis.
pub struct Certificate {
    pub reach: Reach,
    /// Resolved entry items per spec.
    pub entries: Vec<(String, Vec<usize>)>,
    /// Resolved warm-up boundary items per spec.
    pub warm_up: Vec<(String, Vec<usize>)>,
    /// Unjustified findings under the analysis' rule.
    pub summary: Summary,
}

/// Runs one reachability analysis over `files` (whose call graph is
/// `graph`) from `spec`'s entries, never crossing its warm-up boundary.
/// Both spec lists must resolve in full: a renamed entry silently narrows
/// the certificate, a renamed warm-up fence silently *widens* it — each is
/// a hard error.
pub fn certify(
    files: &[SourceFile],
    graph: &CallGraph,
    spec: &Certifier,
) -> Result<Certificate, String> {
    let resolve_all = |specs: &[&str], kind: &str| -> Result<Vec<(String, Vec<usize>)>, String> {
        let mut resolved = Vec::new();
        let mut missing = Vec::new();
        for &s in specs {
            let items = graph.resolve_entry(s);
            if items.is_empty() {
                missing.push(s);
            }
            resolved.push((s.to_string(), items));
        }
        if missing.is_empty() {
            Ok(resolved)
        } else {
            Err(format!(
                "{}: {kind} spec(s) resolved to no certified fn — renamed or removed? {}",
                spec.name,
                missing.join(", ")
            ))
        }
    };
    let entries = resolve_all(spec.entries, "entry point")?;
    let warm_up = resolve_all(spec.warm_up, "warm-up boundary")?;
    let roots: Vec<usize> = entries
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    let avoid: Vec<usize> = warm_up
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    let reach = if avoid.is_empty() {
        graph.reach(&roots)
    } else {
        graph.reach_avoiding(&roots, &avoid)
    };

    let mut summary = Summary {
        files_scanned: files.len(),
        ..Summary::default()
    };
    for idx in 0..graph.items.len() {
        if !graph.items[idx].certified() || !reach.reached(idx) {
            continue;
        }
        let file = &files[graph.items[idx].file_idx];
        for site in (spec.classify)(file, graph, idx) {
            if file.marked(site.line, spec.marker) {
                *summary.justified.entry(spec.rule).or_insert(0) += 1;
                continue;
            }
            let chain: Vec<String> = reach
                .chain(idx)
                .into_iter()
                .map(|i| graph.items[i].qualified())
                .collect();
            summary.findings.push(Finding {
                rule: spec.rule,
                file: file.rel.clone(),
                line: site.line,
                col: site.col,
                message: format!("{}; via {}", site.what, chain.join(" → ")),
                snippet: file.snippet(site.line).to_string(),
            });
        }
    }
    summary.findings.sort_by(|a, b| {
        (&a.file, a.line, a.col)
            .cmp(&(&b.file, b.line, b.col))
            .then_with(|| a.message.cmp(&b.message))
    });
    Ok(Certificate {
        reach,
        entries,
        warm_up,
        summary,
    })
}

/// Loads the `.rs` files under the given workspace-relative dirs, sorted
/// by path. The dir tables themselves live in [`crate::entrypoints`].
pub(crate) fn load_files(dirs: &[&str]) -> Vec<SourceFile> {
    let root = workspace_root();
    let mut paths = Vec::new();
    for dir in dirs {
        walk_rs(&root.join(dir), &mut paths);
    }
    paths.sort();
    paths
        .iter()
        .filter_map(|p| SourceFile::load(&root, p))
        .collect()
}

/// Everything one run computes over the live workspace.
struct Report {
    /// Files of the certified perimeter.
    files_scanned: usize,
    /// Call graph of the certified perimeter, shared by [`CERTIFIERS`].
    graph: CallGraph,
    certificates: Vec<(&'static Certifier, Certificate)>,
}

impl Report {
    /// Findings over both analyses; non-zero fails the run.
    fn unjustified(&self) -> usize {
        self.certificates
            .iter()
            .map(|(_, cert)| cert.summary.findings.len())
            .sum()
    }
}

/// Runs both analyses over the workspace.
fn analyze_workspace() -> Result<Report, String> {
    let files = load_files(&CERT_DIRS);
    let graph = CallGraph::build(&files);
    let certificates = CERTIFIERS
        .iter()
        .map(|&spec| Ok((spec, certify(&files, &graph, spec)?)))
        .collect::<Result<_, String>>()?;
    Ok(Report {
        files_scanned: files.len(),
        graph,
        certificates,
    })
}

fn parse_args(args: &[String]) -> Result<(Format, bool, bool), String> {
    let (mut format, mut list, mut help) = (Format::Human, false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value = it.next().ok_or("--format needs a value: human or json")?;
                format = parse_format(value)?;
            }
            "--list" => list = true,
            "-h" | "--help" => help = true,
            other => match other.strip_prefix("--format=") {
                Some(value) => format = parse_format(value)?,
                None => return Err(format!("unknown argument `{other}`")),
            },
        }
    }
    Ok((format, list, help))
}

/// CLI entry: `cargo xtask certify [options]`.
pub fn run(args: &[String]) -> ExitCode {
    let (format, list, help) = match parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if list {
        for spec in CERTIFIERS {
            for e in spec.entries {
                println!("{:<16} entry {e}", spec.name);
            }
            for w in spec.warm_up {
                println!("{:<16} warm-up {w}", spec.name);
            }
        }
        return ExitCode::SUCCESS;
    }

    let report = match analyze_workspace() {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match format {
        Format::Human => print_human(&report),
        Format::Json => print!("{}", render_json(&report).render()),
    }
    if report.unjustified() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One document: a sub-object per analysis in the shape of the lint
/// report (`files_scanned` / `new_count` / `findings` / `justified`).
fn render_json(report: &Report) -> Json {
    let analyses: Vec<(String, Json)> = report
        .certificates
        .iter()
        .map(|(spec, cert)| {
            let fields = summary_json(&cert.summary);
            (spec.name.to_string(), Json::Obj(fields))
        })
        .collect();
    json_document("cargo-xtask-certify", analyses)
}

fn print_human(report: &Report) {
    println!(
        "cargo xtask certify — {} files, {} analyses",
        report.files_scanned,
        report.certificates.len()
    );
    for (spec, cert) in &report.certificates {
        print_certificate(spec, cert, &report.graph);
    }
    let total = report.unjustified();
    if total > 0 {
        println!("\n{total} unjustified site(s) — fix each, or justify it with its marker comment");
    }
}

/// One reachability section: perimeter and reachability sizes, resolved
/// entries, the warm-up fence, and the verdict.
fn print_certificate(spec: &Certifier, cert: &Certificate, graph: &CallGraph) {
    let certified = graph.items.iter().filter(|i| i.certified()).count();
    let reachable = (0..graph.items.len())
        .filter(|&i| graph.items[i].certified() && cert.reach.reached(i))
        .count();
    println!(
        "{} — {} files, {} certified fns, {} {} from {} entry points",
        spec.name,
        cert.summary.files_scanned,
        certified,
        reachable,
        spec.reach_adjective,
        cert.entries.len()
    );
    for (entry_spec, resolved) in &cert.entries {
        let defs: Vec<String> = resolved
            .iter()
            .map(|&i| format!("{}:{}", graph.items[i].file, graph.items[i].line))
            .collect();
        println!("  entry {:<36} → {}", entry_spec, defs.join(", "));
    }
    if !cert.warm_up.is_empty() {
        let fenced: usize = cert.warm_up.iter().map(|(_, v)| v.len()).sum();
        println!(
            "  warm-up boundary: {} spec(s) fencing {} fn(s) — excluded from the steady sweep",
            cert.warm_up.len(),
            fenced
        );
    }
    let findings = &cert.summary.findings;
    println!(
        "  {} unjustified {} site(s), {} justified via {}",
        findings.len(),
        spec.noun,
        cert.summary.justified_count(spec.rule),
        spec.marker
    );
    print_findings(findings);
}

/// Test helper shared by the classifier modules: runs `spec`'s analysis
/// over one fixture file, from fixture entry and warm-up specs.
#[cfg(test)]
pub(crate) fn certify_fixture(
    spec: &Certifier,
    rel: &str,
    src: &str,
    entries: &'static [&'static str],
    warm_up: &'static [&'static str],
) -> Result<Certificate, String> {
    let files = [SourceFile::from_source(rel, src)];
    let spec = Certifier {
        entries,
        warm_up,
        ..*spec
    };
    certify(&files, &CallGraph::build(&files), &spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parses_its_two_flags_and_rejects_the_rest() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&args(&["--format", "json", "--list"])),
            Ok((Format::Json, true, false))
        );
        assert_eq!(
            parse_args(&args(&["--format=human"])),
            Ok((Format::Human, false, false))
        );
        assert!(parse_args(&args(&["--format", "xml"])).is_err());
        assert!(parse_args(&args(&["--format"])).is_err());
        // The retired per-tool surface is gone, not aliased.
        for gone in [
            "--entry",
            "--list-entries",
            "--list-sources",
            "--only",
            "panics",
        ] {
            assert!(
                parse_args(&args(&[gone])).is_err(),
                "{gone} must be rejected"
            );
        }
    }

    /// The live workspace, both analyses: every entry and warm-up spec
    /// resolves (rot is a hard error), the perimeter is not suspiciously
    /// small, and no site is unjustified.
    #[test]
    fn live_workspace_certificates_hold() {
        let report = analyze_workspace().expect("every registered spec resolves");
        for (_, cert) in &report.certificates {
            for (spec, resolved) in cert.entries.iter().chain(&cert.warm_up) {
                assert!(!resolved.is_empty(), "{spec} resolved to nothing");
            }
        }
        assert_eq!(report.certificates.len(), 2);
        for (spec, cert) in &report.certificates {
            let (name, summary) = (spec.name, &cert.summary);
            assert!(
                summary.files_scanned > 20,
                "{name}: suspiciously small perimeter"
            );
            let listing: Vec<String> = summary.findings.iter().map(ToString::to_string).collect();
            assert!(
                summary.findings.is_empty(),
                "{name}: unjustified sites in the live workspace:\n{}",
                listing.join("\n")
            );
        }
    }
}
