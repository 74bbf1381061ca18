//! Report emission for `cargo xtask lint`: the `--format` flag, the
//! SARIF-lite JSON shape of a [`Summary`], and the human finding listing.

use crate::json::Json;
use crate::rules::{Finding, Summary};

/// Report format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    Human,
    Json,
}

/// Parses a `--format` value.
pub(crate) fn parse_format(value: &str) -> Result<Format, String> {
    match value {
        "human" => Ok(Format::Human),
        "json" => Ok(Format::Json),
        other => Err(format!("unknown format `{other}` — use human or json")),
    }
}

/// A report document: the tool id and schema tag, then `fields`.
pub(crate) fn json_document(tool: &str, fields: Vec<(String, Json)>) -> Json {
    let mut doc = vec![
        ("tool".to_string(), Json::Str(tool.to_string())),
        ("schema".to_string(), Json::Str("sarif-lite/3".into())),
    ];
    doc.extend(fields);
    Json::Obj(doc)
}

/// SARIF-lite fields of one summary: rule id, message, file, line, col and
/// snippet per finding, plus the justified-site counts per rule.
pub(crate) fn summary_json(summary: &Summary) -> Vec<(String, Json)> {
    let findings = summary
        .findings
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(f.rule.to_string())),
                ("message".into(), Json::Str(f.message.clone())),
                ("file".into(), Json::Str(f.file.clone())),
                ("line".into(), Json::Num(f.line)),
                ("col".into(), Json::Num(f.col)),
                ("snippet".into(), Json::Str(f.snippet.clone())),
            ])
        })
        .collect();
    let justified = summary
        .justified
        .iter()
        .map(|(&k, &n)| (k.to_string(), Json::Num(n)))
        .collect();
    vec![
        ("files_scanned".into(), Json::Num(summary.files_scanned)),
        ("new_count".into(), Json::Num(summary.findings.len())),
        ("findings".into(), Json::Arr(findings)),
        ("justified".into(), Json::Obj(justified)),
    ]
}

/// Prints each finding (`file:line:col: [rule] message`) with its source
/// line, after a separating blank line; nothing when there are none.
pub(crate) fn print_findings(findings: &[Finding]) {
    if findings.is_empty() {
        return;
    }
    println!();
    for f in findings {
        println!("{f}");
        if !f.snippet.is_empty() {
            println!("    {}", f.snippet);
        }
    }
}
