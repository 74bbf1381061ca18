//! `kspin-cli … | head`: a reader that closes stdout early ends the CLI
//! cleanly (exit 0, no panic), on the REPL as on every other subcommand.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_repl_without_a_panic() {
    let cli = env!("CARGO_BIN_EXE_kspin-cli");
    let prefix = format!("{}/cli_broken_pipe", env!("CARGO_TARGET_TMPDIR"));
    let generated = Command::new(cli)
        .args(["generate", "--vertices", "400", "--out", &prefix])
        .output()
        .expect("spawn kspin-cli generate");
    assert!(generated.status.success(), "{generated:?}");
    let snapshot = format!("{prefix}.kspin");
    let saved = Command::new(cli)
        .args(["snapshot", "save", &snapshot, "--data", &prefix])
        .output()
        .expect("spawn kspin-cli snapshot save");
    assert!(saved.status.success(), "{saved:?}");

    let mut repl = Command::new(cli)
        .args(["query", "--snapshot", &snapshot, "--dist", "dijkstra"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kspin-cli query");
    let mut stdin = repl.stdin.take().expect("piped stdin");
    writeln!(stdin, "help").expect("write first command");
    {
        // Read the first line, then close the read end like `head -n 1`.
        let mut stdout = BufReader::new(repl.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("read first line");
        assert!(first.contains("bknn"), "unexpected first line {first:?}");
    }
    // Every later write by the CLI now hits a closed pipe.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "once the CLI has exited, this write fails too, which is fine"
    )]
    let _ = writeln!(stdin, "help\nstats\nhelp");
    drop(stdin);

    let out = repl.wait_with_output().expect("wait for kspin-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "CLI panicked:\n{stderr}");
    assert!(out.status.success(), "exit {:?}:\n{stderr}", out.status);
}
