//! The lint rules and their shared scaffolding.
//!
//! Every rule is a token-level pass over a [`SourceFile`] (lexed source +
//! per-token scope facts). Rules record findings through [`record`], which
//! consults the `lint:allow` justification model, so a justified site is
//! counted but never reported as a violation.

use std::collections::BTreeMap;
use std::fmt;

use crate::lex::Token;
use crate::scope::{SourceFile, TokenScope};

pub mod a1_weight_arith;
pub mod l2_total_order;
pub mod l4_paper_docs;

/// The lint rules, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L2: float ordering only through `OrderedWeight`.
    TotalOrderWeights,
    /// L4: query-processor `pub fn`s cite their paper section.
    PaperDocs,
    /// A1: weight arithmetic goes through the checked helpers.
    CheckedWeightArithmetic,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 3] = [
        Rule::TotalOrderWeights,
        Rule::PaperDocs,
        Rule::CheckedWeightArithmetic,
    ];

    /// The name used inside `lint:allow(..)` comments, CLI filters, and
    /// reports.
    pub fn key(self) -> &'static str {
        match self {
            Rule::TotalOrderWeights => "total-order-weights",
            Rule::PaperDocs => "paper-docs",
            Rule::CheckedWeightArithmetic => "checked-weight-arithmetic",
        }
    }

    /// Display label with the rule number.
    pub fn label(self) -> &'static str {
        match self {
            Rule::TotalOrderWeights => "L2 total-order-weights",
            Rule::PaperDocs => "L4 paper-docs",
            Rule::CheckedWeightArithmetic => "A1 checked-weight-arithmetic",
        }
    }

    /// One-line documentation for `--list-rules`.
    pub fn doc(self) -> &'static str {
        match self {
            Rule::TotalOrderWeights => {
                "no partial_cmp or raw-f64 heaps outside crates/graph/src/weight.rs (OrderedWeight)"
            }
            Rule::PaperDocs => {
                "every pub fn in crates/core/src/query/ cites the paper section it implements"
            }
            Rule::CheckedWeightArithmetic => {
                "+/+= on weight-like operands in query code goes through weight_add/OrderedWeight"
            }
        }
    }

    /// Parses a rule key from the CLI.
    pub fn from_key(key: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.key() == key)
    }
}

/// One finding of a lint rule, with a byte-accurate source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule key ([`Rule::key`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    pub message: String,
    /// The trimmed source line the finding sits on.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct Summary {
    pub findings: Vec<Finding>,
    /// Sites matched by a rule but exempted by an inline justification,
    /// per rule key.
    pub justified: BTreeMap<&'static str, usize>,
    pub files_scanned: usize,
}

impl Summary {
    /// Findings of one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.findings
            .iter()
            .filter(|v| v.rule == rule.key())
            .count()
    }

    /// Justified (exempted) sites under one rule key.
    pub fn justified_count(&self, rule_key: &str) -> usize {
        self.justified.get(rule_key).copied().unwrap_or(0)
    }
}

/// Runs every requested rule over one file, appending to `summary`.
pub fn scan_file(file: &SourceFile, rules: &[Rule], summary: &mut Summary) {
    for &rule in rules {
        match rule {
            Rule::TotalOrderWeights => l2_total_order::check(file, summary),
            Rule::PaperDocs => l4_paper_docs::check(file, summary),
            Rule::CheckedWeightArithmetic => a1_weight_arith::check(file, summary),
        }
    }
}

/// Records a match at (1-based) line/col: a finding, or a justified
/// exemption.
pub(crate) fn record(
    file: &SourceFile,
    line: usize,
    col: usize,
    rule: Rule,
    msg: String,
    summary: &mut Summary,
) {
    if file.justified(line, rule.key()) {
        *summary.justified.entry(rule.key()).or_insert(0) += 1;
    } else {
        summary.findings.push(Finding {
            rule: rule.key(),
            file: file.rel.clone(),
            line,
            col,
            message: msg,
            snippet: file.snippet(line).to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// Code-token navigation shared by the rule passes. `k` always indexes
// `file.code` (the comment-free token sequence).
// ---------------------------------------------------------------------------

/// The `k`-th code token.
pub(crate) fn tok(file: &SourceFile, k: usize) -> &Token {
    &file.tokens[file.code[k]]
}

/// Scope facts of the `k`-th code token.
pub(crate) fn scope(file: &SourceFile, k: usize) -> &TokenScope {
    &file.scopes[file.code[k]]
}

/// Whether code token `k` exists and satisfies `pred`.
pub(crate) fn tok_is(file: &SourceFile, k: usize, pred: impl Fn(&Token) -> bool) -> bool {
    k < file.code.len() && pred(tok(file, k))
}

/// Code-token index range `[start, end)` of the statement containing `k`,
/// bounded (exclusively) by the nearest `;`, `{` or `}` on each side.
pub(crate) fn statement_around(file: &SourceFile, k: usize) -> (usize, usize) {
    let boundary = |t: &Token| t.is_punct(";") || t.is_punct("{") || t.is_punct("}");
    let mut start = k;
    while start > 0 && !boundary(tok(file, start - 1)) {
        start -= 1;
    }
    let mut end = k + 1;
    while end < file.code.len() && !boundary(tok(file, end)) {
        end += 1;
    }
    (start, end)
}

/// Test helper: run one rule over fixture source.
#[cfg(test)]
pub(crate) fn run_rule(rel: &str, src: &str, rule: Rule) -> Summary {
    let file = SourceFile::from_source(rel, src);
    let mut summary = Summary::default();
    scan_file(&file, &[rule], &mut summary);
    summary
}
