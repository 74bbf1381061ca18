//! A `.kw` object placed off the graph is refused where the CLI reads
//! the dataset, `snapshot save`: exit 1 and the out-of-range line, never a
//! panic in the index build. A degenerate or unknown flag is refused the
//! same way, and the smallest network still round-trips. `query` serves a
//! snapshot under each distance module with the same answers, and refuses
//! CH or HL on a snapshot saved without a hierarchy.

use std::process::{Command, Output, Stdio};

/// Runs `kspin-cli` with `args`, `stdin` on its standard input.
fn run(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kspin-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kspin-cli");
    let mut input = child.stdin.take().expect("piped stdin");
    // A child that exits before reading, as on a refused flag, closes the pipe.
    if let Err(e) = std::io::Write::write_all(&mut input, stdin.as_bytes()) {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
    }
    drop(input);
    child.wait_with_output().expect("wait for kspin-cli")
}

/// `--rho 0` (no NVD leaf could keep a candidate) and `--vertices 0` are
/// refused as flags: exit 1 naming the flag, not a panic in the index build
/// or the generator. Each subcommand names its flags, so a misspelt or
/// foreign one is refused the same way instead of being ignored (`query`
/// reads no dataset: its `--rho` is unknown), and `--ch` is `true|false`.
#[test]
fn a_degenerate_flag_is_refused_without_a_panic() {
    let prefix = format!("{}/cli_dataset_flags", env!("CARGO_TARGET_TMPDIR"));
    let generated = run(&["generate", "--vertices", "300", "--out", &prefix], "");
    assert!(generated.status.success(), "{generated:?}");
    let snapshot = format!("{prefix}.kspin");
    for (args, flag) in [
        (
            vec![
                "snapshot", "save", &snapshot, "--data", &prefix, "--rho", "0",
            ],
            "bad --rho",
        ),
        (
            vec!["query", "--snapshot", &snapshot, "--rho", "0"],
            "unknown flag --rho",
        ),
        (
            vec!["generate", "--vertices", "0", "--out", &prefix],
            "bad --vertices",
        ),
        (
            vec![
                "generate",
                "--vertices",
                "20",
                "--out",
                &prefix,
                "--sead",
                "7",
            ],
            "unknown flag --sead",
        ),
        (
            vec![
                "snapshot", "save", &snapshot, "--data", &prefix, "--ch", "yes",
            ],
            "bad --ch",
        ),
        (
            vec![
                "snapshot", "save", &snapshot, "--data", &prefix, "--dist", "ch",
            ],
            "unknown flag --dist",
        ),
        (
            vec!["snapshot", "load", &snapshot, "--ch", "true"],
            "unknown flag --ch",
        ),
        (
            vec!["query", "--snapshot", &snapshot, "--dsit", "hl"],
            "unknown flag --dsit",
        ),
        (vec!["query", "--data", &prefix], "unknown flag --data"),
    ] {
        let out = run(&args, "");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// One vertex is fewer than the five seed terms the vocabulary holds; the
/// network still generates, saves with its CH, loads, and answers over hub
/// labels from the snapshot.
#[test]
fn a_one_vertex_network_round_trips() {
    let prefix = format!("{}/cli_dataset_one", env!("CARGO_TARGET_TMPDIR"));
    let snapshot = format!("{prefix}.kspin");
    for args in [
        vec!["generate", "--vertices", "1", "--out", &prefix],
        vec![
            "snapshot", "save", &snapshot, "--data", &prefix, "--ch", "true",
        ],
        vec!["snapshot", "load", &snapshot],
    ] {
        let out = run(&args, "");
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
    let out = run(
        &["query", "--snapshot", &snapshot, "--dist", "hl"],
        "bknn 0 3 or hotel bank\nquit\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("object 0 @ vertex 0 dist 0"), "{stdout}");
}

#[test]
fn an_object_off_the_graph_is_refused_without_a_panic() {
    let cli = env!("CARGO_BIN_EXE_kspin-cli");
    let prefix = format!("{}/cli_dataset", env!("CARGO_TARGET_TMPDIR"));
    let generated = Command::new(cli)
        .args(["generate", "--vertices", "300", "--out", &prefix])
        .output()
        .expect("spawn kspin-cli generate");
    assert!(generated.status.success(), "{generated:?}");

    // Move the first object to vertex 99999 of a ~300-vertex graph.
    let kw = format!("{prefix}.kw");
    let text = std::fs::read_to_string(&kw).expect("read the generated .kw");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let first = lines
        .iter_mut()
        .find(|l| l.starts_with("o "))
        .expect("the generated .kw holds an object");
    let keywords = first.splitn(3, ' ').nth(2).expect("o <vertex> <keywords>");
    *first = format!("o 99999 {keywords}");
    std::fs::write(&kw, lines.join("\n") + "\n").expect("write the edited .kw");

    let snapshot = format!("{prefix}.kspin");
    let out = run(
        &[
            "snapshot", "save", &snapshot, "--data", &prefix, "--rho", "1",
        ],
        "",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("vertex id 99999 is out of range"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// The numbers of every result line (`dist d` or `score s`) in REPL output.
fn result_values(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("object "))
        .filter_map(|l| {
            let (_, rest) = l.split_once(" dist ").or_else(|| l.split_once(" score "))?;
            rest.split_whitespace().next().map(str::to_string)
        })
        .collect()
}

/// One script of BkNN and top-k queries answers with the same distances
/// and scores under Dijkstra, the snapshot's CH and hub labels built from
/// it. Values, not object ids, are compared: equidistant objects may come
/// back in another order.
#[test]
fn every_distance_module_answers_a_snapshot_alike() {
    let prefix = format!("{}/cli_dataset_modules", env!("CARGO_TARGET_TMPDIR"));
    let snapshot = format!("{prefix}.kspin");
    for args in [
        vec!["generate", "--vertices", "3000", "--out", &prefix],
        vec![
            "snapshot", "save", &snapshot, "--data", &prefix, "--rho", "2", "--ch", "true",
        ],
    ] {
        let out = run(&args, "");
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
    let script = "bknn 0 5 or hotel restaurant\n\
                  bknn 300 5 and hotel restaurant\n\
                  bknn 17 8 or school bank supermarket\n\
                  topk 0 5 hotel restaurant\n\
                  topk 450 10 school bank\n\
                  topk 17 5 supermarket\n";
    let answers: Vec<Vec<String>> = ["dijkstra", "ch", "hl"]
        .into_iter()
        .map(|dist| {
            let out = run(&["query", "--snapshot", &snapshot, "--dist", dist], script);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "--dist {dist}: {out:?}");
            result_values(&stdout)
        })
        .collect();
    assert!(answers[0].len() >= 20, "too few results: {:?}", answers[0]);
    assert_eq!(answers[0], answers[1], "Dijkstra against CH");
    assert_eq!(answers[0], answers[2], "Dijkstra against HL");
}

/// `--dist ch` and `--dist hl` serve the snapshot's hierarchy and never
/// build one: on a file saved without `--ch true` they exit 1 naming that
/// flag.
#[test]
fn a_snapshot_without_a_ch_refuses_ch_and_hl() {
    let prefix = format!("{}/cli_dataset_no_ch", env!("CARGO_TARGET_TMPDIR"));
    let snapshot = format!("{prefix}.kspin");
    for args in [
        vec!["generate", "--vertices", "200", "--out", &prefix],
        vec!["snapshot", "save", &snapshot, "--data", &prefix],
    ] {
        let out = run(&args, "");
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
    for dist in ["ch", "hl"] {
        let out = run(
            &["query", "--snapshot", &snapshot, "--dist", dist],
            "bknn 0 3 or hotel\nquit\n",
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--dist {dist}: {stderr}");
        assert!(stderr.contains("--ch true"), "--dist {dist}: {stderr}");
        assert!(!stderr.contains("panicked"), "--dist {dist}: {stderr}");
        assert!(out.stdout.is_empty(), "--dist {dist} answered");
    }
}

/// A write error in the last buffered block of a generated file fails the
/// command and names the file: `{prefix}.gr` is a link to `/dev/full`, and
/// a 20-vertex `.gr` fits in one buffer, so the error surfaces only at the
/// flush.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_write_of_a_generated_file_is_reported() {
    let cli = env!("CARGO_BIN_EXE_kspin-cli");
    let prefix = format!("{}/cli_dataset_full", env!("CARGO_TARGET_TMPDIR"));
    let gr = format!("{prefix}.gr");
    if let Err(e) = std::fs::remove_file(&gr) {
        assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{gr}: {e}");
    }
    std::os::unix::fs::symlink("/dev/full", &gr).expect("link the .gr to /dev/full");
    let out = Command::new(cli)
        .args(["generate", "--vertices", "20", "--out", &prefix])
        .output()
        .expect("spawn kspin-cli generate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains(&format!("{gr}: ")), "{stderr}");
    assert!(!stderr.contains(&format!("wrote {gr}")), "{stderr}");
}
