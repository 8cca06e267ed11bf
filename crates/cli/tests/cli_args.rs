//! `spothost-cli`'s argument handling, through the built binary.

use std::process::Command;

/// A bad flag exits with code 2 and `message` on stderr, never a panic
/// and never a vacuous or wrapped-around run.
fn assert_rejected(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
        .args(args)
        .output()
        .expect("run spothost-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr: {stderr}");
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
        assert_rejected(args, "--days must be >= 1");
    }
}

#[test]
fn zero_seeds_is_rejected() {
    assert_rejected(
        &["simulate", "--seeds", "0", "--days", "1"],
        "--seeds must be >= 1",
    );
}

/// A count held in a `u32` must not wrap: 2^32 + 1 workers is an
/// argument error, not a run with one worker.
#[test]
fn u32_counts_above_u32_max_are_rejected() {
    for case in [
        "jobs --workers 4294967297",
        "simulate --units 4294967296",
        "simulate --scope zone:us-east-1a --units 4294967304",
        "timeline --scope zone:us-east-1a --units 4294967304",
        "fleet-sim --vms 4294967300",
        "fleet-sim --min-vms 4294967298",
    ] {
        let args: Vec<&str> = case.split(' ').collect();
        let [.., flag, value] = args[..] else {
            unreachable!("each case ends with a flag and its value")
        };
        let message = format!("{flag} must be <= 4294967295, got {value}");
        assert_rejected(&[&args[..], &["--days", "1"]].concat(), &message);
    }
}

/// An imported trace directory that lacks a candidate market of the
/// scope is a bad input: exit code 2 naming the market, never a panic.
#[test]
fn traces_missing_a_candidate_market_are_rejected() {
    let dir = std::env::temp_dir().join(format!("spothost-cli-partial-{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let generated = Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
        .args(["gen-traces", "--days", "3", "--zone", "us-east-1a"])
        .args(["--out", dir_s])
        .output()
        .expect("run spothost-cli");
    assert!(generated.status.success(), "gen-traces failed");
    // Keep only the large market: the zone scope's small, medium and
    // xlarge candidates are missing.
    for entry in std::fs::read_dir(&dir).expect("read trace dir") {
        let path = entry.expect("dir entry").path();
        if path
            .file_name()
            .is_some_and(|n| n != "us-east-1a_large.csv")
        {
            std::fs::remove_file(&path).expect("remove trace");
        }
    }
    for cmd in ["simulate", "timeline"] {
        let out = Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
            .args([cmd, "--scope", "zone:us-east-1a", "--traces", dir_s])
            .output()
            .expect("run spothost-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: stderr: {stderr}");
        assert!(
            stderr.contains("trace set missing candidate market us-east-1a/small"),
            "{cmd}: stderr: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove trace dir");
}

/// `--units` reaches a single market's configuration too: a count no
/// scope supports, or one the market's servers cannot pack, is rejected
/// by validation, never run as the market's default or a panic.
#[test]
fn units_a_single_market_cannot_host_are_rejected() {
    for cmd in ["simulate", "timeline"] {
        assert_rejected(
            &[cmd, "--units", "64", "--days", "1"],
            "capacity_units must be one of [1, 2, 4, 8], got 64",
        );
        assert_rejected(
            &[cmd, "--market", "us-east-1a/large", "--units", "2"],
            "scope has no candidate markets for this capacity",
        );
    }
}
