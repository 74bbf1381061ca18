//! A `.kw` object placed off the graph is refused where the CLI reads
//! the dataset, by every subcommand that reads one: exit 1 and the
//! out-of-range line, never a panic in the index build.

use std::process::{Command, Stdio};

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
    for args in [
        vec![
            "snapshot", "save", &snapshot, "--data", &prefix, "--rho", "1",
        ],
        vec!["query", "--data", &prefix],
    ] {
        let out = Command::new(cli)
            .args(&args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn kspin-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("vertex id 99999 is out of range"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
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
