//! L3 `sanctioned-concurrency` — no `thread::spawn` and no bare `Mutex`
//! outside the sanctioned concurrency sites. Ad-hoc threading elsewhere
//! needs a justification.

use crate::rules::{record, scope, tok, tok_is, Rule, Summary};
use crate::scope::SourceFile;

/// The sanctioned concurrency site: `index.rs` — the crossbeam scope of
/// the parallel keyword build (Observation 3).
///
/// The serving layer's `BatchExecutor` is deliberately *not* listed: it
/// uses only crossbeam scoped threads and atomics, which this rule never
/// flags.
const SANCTIONED: [&str; 1] = ["crates/core/src/index.rs"];

pub(crate) fn check(file: &SourceFile, summary: &mut Summary) {
    if SANCTIONED.contains(&file.rel.as_str()) {
        return;
    }
    for k in 0..file.code.len() {
        let t = tok(file, k);
        if scope(file, k).in_test {
            continue;
        }
        if t.is_ident("thread")
            && tok_is(file, k + 1, |n| n.is_punct("::"))
            && tok_is(file, k + 2, |n| n.is_ident("spawn"))
        {
            record(
                file,
                t.line,
                t.col,
                Rule::SanctionedConcurrency,
                "thread::spawn outside the sanctioned index-build scope".into(),
                summary,
            );
        }
        // `Mutex<..>` (a declared type) or `Mutex::new(..)` (a value).
        let mutex_use = t.is_ident("Mutex")
            && (tok_is(file, k + 1, |n| n.is_punct("<"))
                || (tok_is(file, k + 1, |n| n.is_punct("::"))
                    && tok_is(file, k + 2, |n| n.is_ident("new"))));
        if mutex_use {
            record(
                file,
                t.line,
                t.col,
                Rule::SanctionedConcurrency,
                "bare Mutex outside the sanctioned index-build scope".into(),
                summary,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{run_rule, Rule};

    #[test]
    fn l3_triggers_on_spawn_and_mutex() {
        let src = "fn f() { std::thread::spawn(|| {}); }\nstatic M: Mutex<u32> = Mutex::new(0);\n";
        let summary = run_rule("crates/gtree/src/x.rs", src, Rule::SanctionedConcurrency);
        // Three sites: the spawn, the Mutex type, and Mutex::new.
        assert_eq!(summary.count(Rule::SanctionedConcurrency), 3);
    }

    #[test]
    fn l3_exempts_the_sanctioned_index_scope_and_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }\nstruct S { m: Mutex<u32> }\n";
        assert_eq!(
            run_rule("crates/core/src/index.rs", src, Rule::SanctionedConcurrency)
                .count(Rule::SanctionedConcurrency),
            0
        );
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert_eq!(
            run_rule(
                "crates/core/src/x.rs",
                test_only,
                Rule::SanctionedConcurrency
            )
            .count(Rule::SanctionedConcurrency),
            0
        );
    }
}
