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

/// An output directory that cannot be created is an error naming it:
/// exit code 2, never a panic. `F` is a regular file, so `F/sub` is no
/// directory.
#[test]
fn an_unwritable_output_directory_is_rejected_by_name() {
    let dir = std::env::temp_dir().join(format!("repro-cli-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let file = dir.join("F");
    std::fs::write(&file, "a regular file").expect("write a regular file");
    let under_file = file.join("sub");
    let under_file = under_file.to_str().expect("utf-8 temp dir");
    for (flag, experiment) in [("--csv", "fig12"), ("--trace", "fig6")] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--quick", flag, under_file, experiment])
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: stderr: {stderr}");
        assert!(
            stderr.starts_with(&format!("{flag} {under_file}")),
            "{flag}: stderr: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn help_lists_every_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("run repro");
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    for flag in [
        "--quick",
        "--list",
        "--csv DIR",
        "--trace DIR",
        "--trace-cap N",
    ] {
        assert!(help.contains(flag), "{flag} missing from:\n{help}");
    }
}

/// A reader that closed the pipe has read all it wants: the first write
/// fails with EPIPE, and repro exits 0 without a word.
#[test]
fn a_closed_stdout_pipe_ends_repro_quietly() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "fig1"])
        .stdout(writer)
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
