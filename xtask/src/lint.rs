//! `cargo xtask lint` — the K-SPIN custom lint wall, v2.
//!
//! A token-level static-analysis engine: [`crate::lex`] lexes each source
//! file with byte-accurate spans, [`crate::scope`] adds per-token scope
//! facts (enclosing item, `#[cfg(test)]` status, loop nesting depth), and
//! the passes in [`crate::rules`] encode repo policy that rustc/clippy
//! cannot express — L2, L4 and A1; see `cargo xtask lint --list-rules`
//! for the catalog and docs/ALGORITHMS.md for the rationale of each rule.
//!
//! What clippy can express is clippy configuration, not a rule here: no
//! `unwrap`/`expect` in `kspin-core` / `kspin-nvd` (`unwrap_used`,
//! `expect_used`), no discarded `Result` (`let_underscore_must_use`,
//! `unused_result_ok`), no bare `as` in the snapshot decoders
//! (`as_conversions`) and no hashed container, clock read, thread spawn
//! or `Mutex` in the serving crates (`disallowed_types`,
//! `disallowed_methods`, listed in the root `clippy.toml`). Their
//! exemptions are `#[expect(<lint>, reason = "…")]` attributes, which
//! fail clippy once they no longer suppress anything.
//!
//! A flagged site is exempted by a justification comment on the same line
//! or in the contiguous comment block directly above it:
//!
//! ```text
//! // lint:allow(<rule>) — why this site is provably fine
//! ```
//!
//! That comment is the only exemption: every other finding fails the run.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::Json;
use crate::report::{json_document, parse_format, print_findings, summary_json, Format};
use crate::rules::{scan_file, Rule, Summary};
use crate::scope::SourceFile;

/// CLI usage, shared with `cargo xtask` help output.
pub const USAGE: &str = "\
usage: cargo xtask lint [options] [rule ...]

Runs the K-SPIN lint wall over the workspace sources. With rule keys
given (e.g. `paper-docs`), only those rules run.

options:
  --format <human|json>   report format (json is SARIF-lite; default human)
  --list-rules            print every rule key with a one-line description
  -h, --help              show this help";

/// The workspace root (the parent of the xtask crate).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// Collects the `.rs` files the lint wall covers: library/binary sources
/// under `crates/*/src` and the facade's `src/`. Vendored stand-ins,
/// integration tests, benches and examples are out of scope.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        for entry in entries.flatten() {
            walk_rs(&entry.path().join("src"), &mut out);
        }
    }
    walk_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

pub(crate) fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints the workspace rooted at `root` with the given rules.
pub fn lint_workspace_rules(root: &Path, rules: &[Rule]) -> Summary {
    let mut summary = Summary::default();
    for path in collect_sources(root) {
        let Some(file) = SourceFile::load(root, &path) else {
            continue;
        };
        summary.files_scanned += 1;
        scan_file(&file, rules, &mut summary);
    }
    summary
}

#[derive(Debug)]
struct Options {
    rules: Vec<Rule>,
    format: Format,
    list_rules: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        rules: Vec::new(),
        format: Format::Human,
        list_rules: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value = it.next().ok_or("--format needs a value: human or json")?;
                opts.format = parse_format(value)?;
            }
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => opts.help = true,
            other => {
                if let Some(value) = other.strip_prefix("--format=") {
                    opts.format = parse_format(value)?;
                } else if other.starts_with('-') {
                    return Err(format!("unknown flag `{other}`"));
                } else {
                    let rule = Rule::from_key(other).ok_or_else(|| {
                        format!(
                            "unknown rule `{other}` — available: {}",
                            Rule::ALL.map(Rule::key).join(", ")
                        )
                    })?;
                    opts.rules.push(rule);
                }
            }
        }
    }
    if opts.rules.is_empty() {
        opts.rules.extend(Rule::ALL);
    }
    Ok(opts)
}

/// CLI entry: `cargo xtask lint [options] [rule …]`.
pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if opts.list_rules {
        for rule in Rule::ALL {
            println!("{:<28} {}", rule.key(), rule.doc());
        }
        return ExitCode::SUCCESS;
    }

    let summary = lint_workspace_rules(&workspace_root(), &opts.rules);
    match opts.format {
        Format::Human => print_human(&opts.rules, &summary),
        Format::Json => print!("{}", render_json(&summary).render()),
    }
    if summary.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render_json(summary: &Summary) -> Json {
    json_document("cargo-xtask-lint", summary_json(summary))
}

fn print_human(rules: &[Rule], summary: &Summary) {
    println!("cargo xtask lint — {} files scanned", summary.files_scanned);
    for &rule in rules {
        let new = summary.count(rule);
        let status = if new == 0 { "ok" } else { "FAIL" };
        println!(
            "  {:<30} {:>3} new, {:>2} justified   [{status}]",
            rule.label(),
            new,
            summary.justified_count(rule.key())
        );
    }
    print_findings(&summary.findings);
    if !summary.findings.is_empty() {
        println!("\n{} new finding(s)", summary.findings.len());
    }
}

// ---------------------------------------------------------------------------
// Self-tests: planted violations with exact spans, the JSON report, CLI
// argument handling, and the live workspace.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixture with a deliberately planted A1 violation; its span is
    /// asserted byte-exactly.
    #[test]
    fn planted_a1_violation_is_found_with_an_exact_span() {
        let src = "\
fn hot(xs: &[u32], d: Weight, w: Weight) -> Weight {
    let mut acc = 0;
    for x in xs {
        let copies = xs.to_vec();
        acc += copies[0] + x;
    }
    let nd = d + w;
    nd
}
";
        let file = SourceFile::from_source("crates/core/src/query/fixture.rs", src);
        let mut summary = Summary::default();
        scan_file(&file, &Rule::ALL, &mut summary);

        let find = |rule: Rule| {
            summary
                .findings
                .iter()
                .find(|f| f.rule == rule.key())
                .unwrap_or_else(|| panic!("planted {} not found", rule.key()))
        };
        let line = |n: usize| src.lines().nth(n - 1).expect("fixture line");

        let a1 = find(Rule::CheckedWeightArithmetic);
        assert_eq!(a1.file, "crates/core/src/query/fixture.rs");
        assert_eq!(a1.line, 7);
        assert_eq!(a1.snippet, "let nd = d + w;");
        assert_eq!(a1.col, line(7).find('+').expect("pos") + 1);

        // `acc += copies[0] + x` is inside the loop but not weight-like;
        // only the planted `d + w` fires A1.
        assert_eq!(summary.count(Rule::CheckedWeightArithmetic), 1);
    }

    #[test]
    fn json_report_carries_exact_spans() {
        let src = "fn hot(d: Weight, w: Weight) -> Weight { d + w }\n";
        let file = SourceFile::from_source("crates/core/src/query/fixture.rs", src);
        let mut summary = Summary {
            files_scanned: 1,
            ..Summary::default()
        };
        scan_file(&file, &Rule::ALL, &mut summary);

        let text = render_json(&summary).render();
        let col = src.find("+ w").expect("pos") + 1;
        for needle in [
            "\"tool\": \"cargo-xtask-lint\"".to_string(),
            "\"files_scanned\": 1".to_string(),
            "\"new_count\": 1".to_string(),
            "\"rule\": \"checked-weight-arithmetic\"".to_string(),
            "\"file\": \"crates/core/src/query/fixture.rs\"".to_string(),
            "\"line\": 1".to_string(),
            format!("\"col\": {col}"),
            format!("\"snippet\": \"{}\"", src.trim()),
            "\"justified\": {}".to_string(),
        ] {
            assert!(text.contains(&needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn cli_rejects_unknown_flags_and_rules() {
        assert!(parse_args(&["--nope".to_string()]).is_err());
        assert!(parse_args(&["bogus-rule".to_string()]).is_err());
        assert!(parse_args(&["--format".to_string(), "xml".to_string()]).is_err());
        assert!(parse_args(&["--format".to_string()]).is_err());
    }

    #[test]
    fn cli_parses_flags_and_rule_filters() {
        let opts = parse_args(&[
            "--format=json".to_string(),
            "--list-rules".to_string(),
            "paper-docs".to_string(),
        ])
        .expect("valid args");
        assert_eq!(opts.format, Format::Json);
        assert!(opts.list_rules);
        assert_eq!(opts.rules, vec![Rule::PaperDocs]);
        let all = parse_args(&[]).expect("no args is valid");
        assert_eq!(all.rules.len(), Rule::ALL.len());
    }

    // ---- the live workspace ------------------------------------------------

    #[test]
    fn live_workspace_has_no_unjustified_finding() {
        let summary = lint_workspace_rules(&workspace_root(), &Rule::ALL);
        assert!(summary.files_scanned > 20, "suspiciously few files scanned");
        let report: Vec<String> = summary.findings.iter().map(ToString::to_string).collect();
        assert!(
            summary.findings.is_empty(),
            "lint findings in the live workspace:\n{}",
            report.join("\n")
        );
    }
}
