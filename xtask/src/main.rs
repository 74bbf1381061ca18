//! `cargo xtask` — repo automation entry point.

mod json;
mod lex;
mod lint;
mod report;
mod rules;
mod scope;

use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <task> [options]

tasks:
  lint      run the K-SPIN lint wall (see `cargo xtask lint --help`)

Run `cargo xtask lint --list-rules` for the rule catalog.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown xtask `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
