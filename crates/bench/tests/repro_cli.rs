//! `repro`'s argument handling, through the built binary.

use std::process::Command;

/// An unknown name anywhere in the list is rejected before any
/// experiment runs: exit code 2, the name on stderr, nothing on stdout.
#[test]
fn unknown_experiment_is_rejected_before_any_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "bogus"])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown experiment 'bogus' (try --list)"),
        "stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "printed before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
