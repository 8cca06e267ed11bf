//! `spothost-cli`'s argument handling, through the built binary.

use std::process::Command;

/// A zero count is a bad flag: exit code 2 with the flag named on
/// stderr, never a panic and never a vacuous run.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
        .args(args)
        .output()
        .expect("run spothost-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    assert!(
        stderr.contains(&format!("--{flag} must be >= 1")),
        "{args:?}: stderr: {stderr}"
    );
}

#[test]
fn zero_days_is_rejected_by_every_command() {
    let out_dir = std::env::temp_dir().join("spothost-cli-args-test");
    let out_dir = out_dir.to_str().expect("utf-8 temp dir");
    for args in [
        &["simulate", "--days", "0"][..],
        &["gen-traces", "--days", "0", "--out", out_dir],
        &["timeline", "--days", "0"],
        &["fleet-sim", "--days", "0"],
        &["chaos", "--days", "0", "--seconds", "1"],
        &["jobs", "--days", "0"],
    ] {
        assert_rejected(args, "days");
    }
}

#[test]
fn zero_seeds_is_rejected() {
    assert_rejected(&["simulate", "--seeds", "0", "--days", "1"], "seeds");
}
