//! Brace-tracked scope analysis over the token stream of [`crate::lex`].
//!
//! For every token the analyzer knows whether it sits inside
//! `#[cfg(test)]` / `#[test]` code.
//!
//! The model is deliberately approximate (no full parse): a `{` opens a
//! test scope when a test attribute was seen since the last statement
//! boundary, and otherwise inherits the enclosing scope's facts.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::lex::{lex, Token, TokenKind};

/// Scope facts for one token.
#[derive(Debug, Clone, Default)]
pub struct TokenScope {
    /// Inside `#[cfg(test)]` or `#[test]` code.
    pub in_test: bool,
}

#[derive(Debug, Clone)]
struct Scope {
    facts: TokenScope,
    /// `(`/`[` nesting of the *enclosing* scope at push time, restored on
    /// pop so closure bodies inside call arguments track statements again.
    saved_group_depth: usize,
    /// For a brace opened mid-expression (inside `(`/`[`): the suspended
    /// head state of the enclosing statement, restored on pop so a const
    /// block in `#[test] fn f(x: [u8; { N }]) {` does not erase the test
    /// attribute.
    saved_head: Option<Head>,
}

/// Head-token state gathered since the last statement boundary; decides
/// what the next `{` opens.
#[derive(Debug, Default, Clone)]
struct Head {
    test_attr: bool,
}

/// Computes per-token scope facts. `scopes[i]` describes `tokens[i]`.
pub fn analyze(tokens: &[Token]) -> Vec<TokenScope> {
    let mut scopes: Vec<TokenScope> = Vec::with_capacity(tokens.len());
    let mut stack: Vec<Scope> = vec![Scope {
        facts: TokenScope::default(),
        saved_group_depth: 0,
        saved_head: None,
    }];
    let mut head = Head::default();
    let mut group_depth = 0usize;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_comment() {
            scopes.push(current(&stack));
            i += 1;
            continue;
        }
        // Attribute groups (`#[...]` / `#![...]`) are consumed wholesale so
        // their brackets never perturb the delimiter bookkeeping.
        if t.is_punct("#") && group_depth == 0 {
            let (end, is_test) = scan_attribute(tokens, i);
            if let Some(end) = end {
                head.test_attr |= is_test;
                for _ in i..=end {
                    scopes.push(current(&stack));
                }
                i = end + 1;
                continue;
            }
        }
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" => {
                    scopes.push(current(&stack));
                    group_depth += 1;
                }
                ")" | "]" => {
                    group_depth = group_depth.saturating_sub(1);
                    scopes.push(current(&stack));
                }
                ";" if group_depth == 0 => {
                    scopes.push(current(&stack));
                    head = Head::default();
                }
                "{" => {
                    scopes.push(current(&stack));
                    let parent = current(&stack);
                    stack.push(Scope {
                        facts: TokenScope {
                            in_test: parent.in_test || head.test_attr,
                        },
                        saved_group_depth: group_depth,
                        saved_head: (group_depth > 0).then(|| std::mem::take(&mut head)),
                    });
                    group_depth = 0;
                    head = Head::default();
                }
                "}" => {
                    if stack.len() > 1 {
                        let closed = stack.pop().expect("stack.len() > 1");
                        group_depth = closed.saved_group_depth;
                        head = closed.saved_head.unwrap_or_default();
                    } else {
                        head = Head::default();
                    }
                    scopes.push(current(&stack));
                }
                _ => scopes.push(current(&stack)),
            },
            _ => scopes.push(current(&stack)),
        }
        i += 1;
    }
    scopes
}

fn current(stack: &[Scope]) -> TokenScope {
    stack
        .last()
        .expect("scope stack never empties")
        .facts
        .clone()
}

/// Scans an attribute starting at the `#` at `i`. Returns the index of the
/// closing `]` (if this really is an attribute) and whether the attribute
/// marks test-only code: `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`
/// — but **not** `#[cfg(not(test))]`.
fn scan_attribute(tokens: &[Token], i: usize) -> (Option<usize>, bool) {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
        return (None, false);
    }
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    for (k, t) in tokens.iter().enumerate().skip(j) {
        match t.kind {
            TokenKind::Punct if t.text == "[" => depth += 1,
            TokenKind::Punct if t.text == "]" => {
                depth -= 1;
                if depth == 0 {
                    let has = |s: &str| idents.contains(&s);
                    let is_test = has("test") && (idents.len() == 1 || has("cfg")) && !has("not");
                    return (Some(k), is_test);
                }
            }
            TokenKind::Ident => idents.push(&t.text),
            _ => {}
        }
    }
    (None, false)
}

// ---------------------------------------------------------------------------
// SourceFile: tokens + scopes + the line-level comment model that backs
// `lint:allow` justifications and report snippets.
// ---------------------------------------------------------------------------

/// A parsed source file ready for rule scans.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// The full token stream (comments included).
    pub tokens: Vec<Token>,
    /// `scopes[i]` describes `tokens[i]`.
    pub scopes: Vec<TokenScope>,
    /// Indices into `tokens` of non-comment tokens, in order — what the
    /// rule passes iterate.
    pub code: Vec<usize>,
    /// Raw source lines (for report snippets), 0-based.
    lines: Vec<String>,
    /// 1-based line → concatenated comment text on that line.
    comment_on_line: BTreeMap<usize, String>,
    /// 1-based lines carrying at least one code token.
    code_on_line: BTreeSet<usize>,
    /// 1-based lines carrying a doc comment (`///`, `//!`, `/** … */`).
    doc_on_line: BTreeSet<usize>,
}

impl SourceFile {
    /// Parses source text (for fixtures and tests as well as real files).
    pub fn from_source(rel: &str, src: &str) -> Self {
        let tokens = lex(src);
        let scopes = analyze(&tokens);
        let mut comment_on_line: BTreeMap<usize, String> = BTreeMap::new();
        let mut code_on_line = BTreeSet::new();
        let mut doc_on_line = BTreeSet::new();
        let mut code = Vec::new();
        for (i, t) in tokens.iter().enumerate() {
            if t.is_comment() {
                for line in t.line..=t.end_line() {
                    let slot = comment_on_line.entry(line).or_default();
                    slot.push_str(&t.text);
                    slot.push('\n');
                    if t.is_doc_comment() {
                        doc_on_line.insert(line);
                    }
                }
            } else {
                code.push(i);
                for line in t.line..=t.end_line() {
                    code_on_line.insert(line);
                }
            }
        }
        SourceFile {
            rel: rel.to_string(),
            tokens,
            scopes,
            code,
            lines: src.lines().map(str::to_string).collect(),
            comment_on_line,
            code_on_line,
            doc_on_line,
        }
    }

    /// Reads and parses a file, producing a workspace-relative name.
    pub fn load(root: &Path, path: &Path) -> Option<Self> {
        let src = fs::read_to_string(path).ok()?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        Some(SourceFile::from_source(&rel, &src))
    }

    /// The trimmed raw source of a 1-based line (for report snippets).
    pub fn snippet(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map_or("", |l| l.trim())
    }

    /// Whether a match at 1-based `line` is justified for `rule_key`: a
    /// `lint:allow(rule) — reason` comment on the line itself or in the
    /// contiguous comment-only block directly above.
    pub fn justified(&self, line: usize, rule_key: &str) -> bool {
        let allowed = |c: &String| allows(c, rule_key);
        if self.comment_on_line.get(&line).is_some_and(allowed) {
            return true;
        }
        let mut j = line;
        while j > 1 {
            j -= 1;
            let Some(comment) = self.comment_on_line.get(&j) else {
                break;
            };
            if self.code_on_line.contains(&j) {
                break;
            }
            if allowed(comment) {
                return true;
            }
        }
        false
    }

    /// Whether any token on the 1-based line is code (not comment).
    pub fn line_has_code(&self, line: usize) -> bool {
        self.code_on_line.contains(&line)
    }

    /// The contiguous doc block directly above 1-based `line`, skipping
    /// attribute lines (`#[...]`) between the docs and the item.
    pub fn doc_block_above(&self, line: usize) -> String {
        let mut doc = String::new();
        let mut j = line;
        while j > 1 {
            j -= 1;
            let raw = self.snippet(j);
            if self.doc_on_line.contains(&j) && !self.line_has_code(j) {
                doc.push_str(raw);
                doc.push('\n');
            } else if raw.starts_with("#[") || raw.starts_with("#![") {
                continue;
            } else {
                break;
            }
        }
        doc
    }
}

/// Parses one `lint:allow(..)` comment: the rule list must contain
/// `rule_key` and a dash-separated non-empty reason must follow.
pub fn allows(comment: &str, rule_key: &str) -> bool {
    let Some(pos) = comment.find("lint:allow(") else {
        return false;
    };
    let rest = &comment[pos + "lint:allow(".len()..];
    let Some(end) = rest.find(')') else {
        return false;
    };
    if !rest[..end].split(',').any(|r| r.trim() == rule_key) {
        return false;
    }
    let after = rest[end + 1..].trim_start();
    let reason = after
        .strip_prefix('—')
        .or_else(|| after.strip_prefix('–'))
        .or_else(|| after.strip_prefix('-'));
    matches!(reason, Some(r) if r.trim().len() >= 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scope of the first code token with the given text.
    fn scope_of<'a>(file: &'a SourceFile, text: &str) -> &'a TokenScope {
        let (i, _) = file
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| !t.is_comment() && t.text == text)
            .unwrap_or_else(|| panic!("token `{text}` not found"));
        &file.scopes[i]
    }

    #[test]
    fn brace_inside_a_signature_does_not_erase_the_test_attribute() {
        let src = "#[test]\nfn f(x: [u8; { N }]) { body(x); }\nfn g() { live(); }\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(scope_of(&f, "body").in_test);
        assert!(!scope_of(&f, "live").in_test);
    }

    #[test]
    fn cfg_test_marks_whole_items() {
        let src = "\
fn live() { a(); }
#[cfg(test)]
mod tests {
    fn t() { b(); }
}
fn live2() { c(); }
#[test]
fn unit() { d(); }
#[cfg(not(test))]
fn shipped() { e(); }
";
        let f = SourceFile::from_source("x.rs", src);
        assert!(!scope_of(&f, "a").in_test);
        assert!(scope_of(&f, "b").in_test);
        assert!(!scope_of(&f, "c").in_test);
        assert!(scope_of(&f, "d").in_test);
        assert!(!scope_of(&f, "e").in_test);
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { body(); }\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(!scope_of(&f, "body").in_test);
    }

    #[test]
    fn justification_walks_contiguous_comment_block() {
        let src = "\
fn f() {
    // lint:allow(total-order-weights) — invariant: both operands finite
    // (continued explanation)
    a.partial_cmp(&b);
    c.partial_cmp(&d);
}
";
        let f = SourceFile::from_source("x.rs", src);
        assert!(f.justified(4, "total-order-weights"));
        assert!(
            !f.justified(5, "total-order-weights"),
            "code line breaks the block"
        );
        assert!(!f.justified(4, "paper-docs"), "rule key must match");
    }

    #[test]
    fn justification_grammar() {
        assert!(allows(
            "// lint:allow(total-order-weights) — proven by Theorem 1",
            "total-order-weights"
        ));
        assert!(allows(
            "// lint:allow(total-order-weights) - ascii dash reason",
            "total-order-weights"
        ));
        assert!(allows("// lint:allow(a, paper-docs) — multi", "paper-docs"));
        assert!(!allows(
            "// lint:allow(total-order-weights)",
            "total-order-weights"
        ));
        assert!(!allows(
            "// lint:allow(total-order-weights) — ",
            "total-order-weights"
        ));
        assert!(!allows(
            "// lint:allow(paper-docs) — wrong rule",
            "total-order-weights"
        ));
        assert!(!allows("// nothing here", "total-order-weights"));
    }

    #[test]
    fn doc_block_above_skips_attributes() {
        let src = "/// Implements Algorithm 2 (§4.2).\n#[inline]\npub fn good() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(f.doc_block_above(3).contains("Algorithm 2"));
        assert!(f.doc_block_above(1).is_empty());
    }
}
