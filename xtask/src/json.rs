//! A minimal JSON value type with a pretty-printer.
//!
//! The workspace vendors no serialization crates, so the `--format json`
//! reports of `cargo xtask lint` and `cargo xtask certify` use this
//! dependency-free writer. It supports exactly the JSON the tooling emits:
//! objects (insertion-ordered), arrays, strings with standard escapes and
//! unsigned integers. Nothing in the workspace reads JSON back; CI checks the
//! reports' well-formedness with `python3 -m json.tool`.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Every number the reports carry is a count or a position.
    Num(usize),
    Str(String),
    Arr(Vec<Json>),
    /// Key-value pairs in insertion order (stable output for diffs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_report_shaped_document_with_escapes() {
        let doc = Json::Obj(vec![
            ("tool".into(), Json::Str("cargo-xtask-lint".into())),
            ("files".into(), Json::Num(42)),
            (
                "findings".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("line".into(), Json::Num(7)),
                    (
                        "snippet".into(),
                        Json::Str("let v = \"x\\ny\";\t\u{1}é".into()),
                    ),
                ])]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{
  "tool": "cargo-xtask-lint",
  "files": 42,
  "findings": [
    {
      "line": 7,
      "snippet": "let v = \"x\\ny\";\t\u0001é"
    }
  ],
  "empty": []
}
"#
        );
    }
}
