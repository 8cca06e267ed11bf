//! `spothost-cli`'s argument handling, through the built binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const GOLDEN_COL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/fleet_small.col"
);

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
        .args(args)
        .output()
        .expect("run spothost-cli")
}

/// A bad flag exits with code 2 and `message` on stderr, never a panic
/// and never a vacuous or wrapped-around run.
fn assert_rejected(args: &[&str], message: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: printed before rejecting");
}

/// A fresh scratch directory of this test process.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spothost-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Two days of us-east-1a price history, written by `gen-traces` into
/// `dir`.
fn gen_traces(dir: &Path) -> String {
    let dir = dir.to_str().expect("utf-8 temp dir");
    let out = cli(&[
        "gen-traces",
        "--days",
        "2",
        "--zone",
        "us-east-1a",
        "--out",
        dir,
    ]);
    assert!(out.status.success(), "gen-traces failed");
    dir.to_string()
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

/// A duration flag whose milliseconds overflow `u64` is an argument
/// error naming the largest accepted value, not a wrapped-around horizon,
/// control interval or sampling step. (The largest accepted value itself
/// is not run: it would simulate about 585 million years.)
#[test]
fn durations_whose_milliseconds_overflow_are_rejected() {
    let dir = scratch("overflow");
    let traces = &gen_traces(&dir.join("traces"));
    let out_dir = dir.join("out");
    let out_dir = out_dir.to_str().expect("utf-8 temp dir");
    let days = "213503982335";
    for args in [
        &["simulate", "--days", days][..],
        &["timeline", "--days", days],
        &["jobs", "--days", days],
        &["chaos", "--days", days, "--seconds", "1"],
        &["gen-traces", "--days", days, "--out", out_dir],
        &["fleet-sim", "--days", days],
    ] {
        assert_rejected(args, "--days must be <= 213503982334, got 213503982335");
    }
    assert_rejected(
        &["fleet-sim", "--seconds", "18446744073709552", "--days", "1"],
        "--seconds must be <= 18446744073709551, got 18446744073709552",
    );
    assert_rejected(
        &[
            "analyze",
            "--traces",
            traces,
            "--sample-mins",
            "307445734561826",
        ],
        "--sample-mins must be <= 307445734561825, got 307445734561826",
    );
    assert!(
        !Path::new(out_dir).exists(),
        "gen-traces wrote before rejecting"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_seeds_is_rejected() {
    assert_rejected(
        &["simulate", "--seeds", "0", "--days", "1"],
        "--seeds must be >= 1",
    );
}

/// A zero sampling step would panic the correlation sampler, and zero
/// histogram buckets would silently become one.
#[test]
fn zero_sampling_step_and_bucket_count_are_rejected() {
    let dir = scratch("zero-step");
    let traces = &gen_traces(&dir);
    assert_rejected(
        &["analyze", "--traces", traces, "--sample-mins", "0"],
        "--sample-mins must be >= 1",
    );
    assert_rejected(
        &[
            "query",
            "--store",
            GOLDEN_COL,
            "--agg",
            "hist",
            "--field",
            "cost",
            "--buckets",
            "0",
        ],
        "--buckets must be >= 1",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `analyze --sample-mins` samples every correlation it prints at the
/// step, and a step that leaves fewer than three samples in the horizon
/// (where a Pearson correlation is ±1 or 0 by construction) is an
/// argument error naming the largest step that leaves three.
#[test]
fn sampling_step_must_leave_three_samples() {
    let dir = scratch("sample-step");
    let traces = &gen_traces(&dir);
    for step in ["1440", "2879", "2880", "3000"] {
        assert_rejected(
            &["analyze", "--traces", traces, "--sample-mins", step],
            &format!(
                "--sample-mins must be <= 1439 to take three samples of the 2.0-day horizon, got {step}"
            ),
        );
    }
    let correlations = |step: &str| {
        let out = cli(&["analyze", "--traces", traces, "--sample-mins", step]);
        assert!(out.status.success(), "--sample-mins {step} failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        let lines: Vec<String> = stdout
            .lines()
            .filter(|l| l.contains("correlation"))
            .map(str::to_string)
            .collect();
        assert_eq!(lines.len(), 2, "{stdout}");
        lines
    };
    let (fine, coarse) = (correlations("5"), correlations("1439"));
    assert_ne!(fine[0], coarse[0], "the zone average ignores the step");
    assert_ne!(fine[1], coarse[1], "the pairwise line ignores the step");
    std::fs::remove_dir_all(&dir).ok();
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
    let dir = scratch("partial");
    let dir_s = &gen_traces(&dir);
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
        assert_rejected(
            &[cmd, "--scope", "zone:us-east-1a", "--traces", dir_s],
            "trace set missing candidate market us-east-1a/small",
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

/// A misspelled, misplaced, repeated or valueless flag is rejected before
/// anything runs or is written, naming the flag.
#[test]
fn undeclared_repeated_and_valueless_flags_are_rejected() {
    let dir = scratch("undeclared");
    let store = dir.join("x.col");
    let store = store.to_str().expect("utf-8 temp dir");
    for (args, message) in [
        (
            &["simulate", "--days", "2", "--polcy", "reactive"][..],
            "unknown flag --polcy (see spothost simulate --help)",
        ),
        (
            &["timeline", "--days", "2", "--store", store],
            "unknown flag --store",
        ),
        (&["jobs", "--units", "64"], "unknown flag --units"),
        (
            &["simulate", "--policy", "reactive", "--policy", "proactive"],
            "--policy given twice",
        ),
        (
            &["simulate", "--days", "2", "--verbose"],
            "unknown flag --verbose",
        ),
        (&["markets", "--bogus", "x"], "unknown flag --bogus"),
        (
            &["query", "--store", GOLDEN_COL, "--outcomes"],
            "unknown flag --outcomes",
        ),
        (
            &["chaos", "--seconds", "1", "--policy", "reactive"],
            "unknown flag --policy",
        ),
        (
            &["simulate", "--days", "2", "--seed"],
            "--seed expects a value",
        ),
        (
            &["fleet-sim", "--store", "--days", "2"],
            "--store expects a value, got '--days'",
        ),
    ] {
        assert_rejected(args, message);
    }
    assert!(!Path::new(store).exists(), "a rejected run wrote {store}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag that another flag makes inapplicable would be dropped without
/// a word, so the pair is rejected, naming both.
#[test]
fn flags_another_flag_makes_inapplicable_are_rejected() {
    let dir = scratch("inapplicable");
    let traces = &gen_traces(&dir.join("traces"));
    let perfetto = dir.join("out.json");
    let perfetto = perfetto.to_str().expect("utf-8 temp dir");
    for (args, message) in [
        (
            &["simulate", "--days", "2", "--risk-budget", "x"][..],
            "--risk-budget applies only to --policy adaptive, not proactive",
        ),
        (
            &["simulate", "--policy", "reactive", "--bid-mult", "8"],
            "--bid-mult applies only to --policy proactive, not reactive",
        ),
        (
            &["timeline", "--policy", "adaptive", "--bid-mult", "2"],
            "--bid-mult applies only to --policy proactive, not adaptive",
        ),
        (
            &[
                "simulate",
                "--scope",
                "zone:us-east-1a",
                "--market",
                "us-east-1b/large",
            ],
            "--market cannot be combined with --scope",
        ),
        (
            &["simulate", "--traces", traces, "--seeds", "5"],
            "--seeds cannot be combined with --traces",
        ),
        (
            &["simulate", "--traces", traces, "--days", "2"],
            "--days cannot be combined with --traces",
        ),
        (
            &["timeline", "--traces", traces, "--days", "2"],
            "--days cannot be combined with --traces",
        ),
        (
            &[
                "query",
                "--store",
                GOLDEN_COL,
                "--perfetto",
                perfetto,
                "--agg",
                "sum",
            ],
            "--agg cannot be combined with --perfetto",
        ),
        (
            &["query", "--store", GOLDEN_COL, "--field", "cost"],
            "--field applies only to an --agg other than count",
        ),
        (
            &[
                "query",
                "--store",
                GOLDEN_COL,
                "--agg",
                "p50",
                "--buckets",
                "5",
            ],
            "--buckets applies only to --agg hist, not p50",
        ),
    ] {
        assert_rejected(args, message);
    }
    assert!(
        !Path::new(perfetto).exists(),
        "a rejected run wrote {perfetto}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An imported trace set fixes the horizon: `simulate` reports it and
/// `timeline` draws it, whatever `--days` would default to.
#[test]
fn an_imported_trace_set_sets_the_horizon() {
    let dir = scratch("horizon");
    let traces = &gen_traces(&dir);
    let stdout = |args: &[&str]| {
        let out = cli(args);
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let report = stdout(&["simulate", "--traces", traces]);
    assert!(report.contains("\nruns:       1 x 2 days\n"), "{report}");
    let chart = stdout(&["timeline", "--traces", traces, "--width", "40"]);
    assert!(
        chart.starts_with("timeline 0d 00:00:00 .. 2d 00:00:00 (48.0h"),
        "{chart}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Each command's quick argv that exits 0. `TRACES` stands for a trace
/// directory and `OUT` for an output directory.
const BASES: [(&str, &[&str]); 9] = [
    ("markets", &[]),
    (
        "gen-traces",
        &["--days", "2", "--zone", "us-east-1a", "--out", "OUT"],
    ),
    ("analyze", &["--traces", "TRACES"]),
    ("simulate", &["--days", "2"]),
    ("timeline", &["--days", "2", "--width", "40"]),
    ("chaos", &["--seconds", "0.1", "--days", "1"]),
    (
        "fleet-sim",
        &[
            "--vms",
            "8",
            "--users",
            "500",
            "--days",
            "2",
            "--seconds",
            "900",
            "--width",
            "40",
        ],
    ),
    ("jobs", &["--days", "2"]),
    ("query", &["--store", GOLDEN_COL]),
];

/// Flags tried in another argv than their command's base: one in which
/// they apply.
const OWN_ARGV: [(&str, &str, &[&str]); 6] = [
    (
        "simulate",
        "risk-budget",
        &["--days", "2", "--policy", "adaptive"],
    ),
    ("simulate", "traces", &[]),
    (
        "timeline",
        "risk-budget",
        &["--days", "2", "--width", "40", "--policy", "adaptive"],
    ),
    ("timeline", "traces", &["--width", "40"]),
    (
        "query",
        "field",
        &["--store", GOLDEN_COL, "--agg", "sum", "--field", "cost"],
    ),
    (
        "query",
        "buckets",
        &["--store", GOLDEN_COL, "--agg", "hist", "--field", "cost"],
    ),
];

/// Value flags that name a path. Every other value flag is given
/// `bogus`, which is neither a number nor a known name.
const PATH_FLAGS: [&str; 5] = ["out", "traces", "trace", "store", "perfetto"];

/// Every flag of every command's table is read: given a bad value it
/// makes the command exit 2, where the argv without it exits 0, and a
/// switch changes stdout. The commands and flags are read from
/// `--help`, which renders the tables, so a table entry its command
/// ignores fails here.
#[test]
fn every_declared_flag_is_read() {
    let dir = scratch("every-flag");
    let traces = gen_traces(&dir.join("traces"));
    let file = dir.join("file");
    std::fs::write(&file, "a regular file").expect("write a regular file");
    let under_file = file.join("sub").to_str().expect("utf-8").to_string();
    let out_dir = dir.join("out").to_str().expect("utf-8").to_string();
    let expand = |argv: &[&str]| -> Vec<String> {
        argv.iter()
            .map(|a| match *a {
                "TRACES" => traces.clone(),
                "OUT" => out_dir.clone(),
                a => a.to_string(),
            })
            .collect()
    };
    let run = |cmd: &str, argv: &[String]| {
        cli(&[
            &[cmd][..],
            &argv.iter().map(String::as_str).collect::<Vec<_>>(),
        ]
        .concat())
    };

    let help = String::from_utf8(cli(&["--help"]).stdout).expect("utf-8 help");
    let commands: Vec<&str> = help
        .split_once("COMMANDS:\n")
        .expect("a command list")
        .1
        .lines()
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().next().expect("a command name"))
        .collect();
    let listed: Vec<&str> = BASES.iter().map(|(c, _)| *c).collect();
    assert_eq!(commands, listed, "a command without a base argv here");

    let mut tried = Vec::new();
    for (cmd, base) in BASES {
        let help = String::from_utf8(cli(&[cmd, "--help"]).stdout).expect("utf-8 help");
        // `  --name PLACEHOLDER  help`, or `  --name  help` for a switch.
        for line in help.lines().filter_map(|l| l.strip_prefix("  --")) {
            let usage = line.split_once("  ").expect("a help column").0;
            let (flag, value) = match usage.split_once(' ') {
                Some((flag, _)) => (flag, true),
                None => (usage, false),
            };
            let own = OWN_ARGV.iter().find(|(c, f, _)| (*c, *f) == (cmd, flag));
            let ok = expand(own.map_or(base, |(_, _, argv)| *argv));
            let ok_run = run(cmd, &ok);
            assert!(
                ok_run.status.success(),
                "{cmd} {ok:?}: stderr: {}",
                String::from_utf8_lossy(&ok_run.stderr)
            );
            if !value {
                let switched = run(cmd, &[ok.clone(), vec![format!("--{flag}")]].concat());
                assert!(switched.status.success(), "{cmd} --{flag} failed");
                assert_ne!(
                    switched.stdout, ok_run.stdout,
                    "{cmd}: --{flag} changes nothing"
                );
                tried.push((cmd, flag.to_string()));
                continue;
            }
            let bad = if PATH_FLAGS.contains(&flag) {
                under_file.as_str()
            } else {
                "bogus"
            };
            // The flag's value in the argv is replaced, or the flag added.
            let mut argv = ok.clone();
            match argv.iter().position(|a| *a == format!("--{flag}")) {
                Some(i) => argv[i + 1] = bad.to_string(),
                None => argv.extend([format!("--{flag}"), bad.to_string()]),
            }
            let out = run(cmd, &argv);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{cmd} {argv:?}: stderr: {stderr}"
            );
            assert!(stderr.contains(bad), "{cmd} {argv:?}: stderr: {stderr}");
            assert!(
                !stderr.contains("panicked"),
                "{cmd} {argv:?}: stderr: {stderr}"
            );
            tried.push((cmd, flag.to_string()));
        }
    }
    for (cmd, flag, _) in OWN_ARGV {
        assert!(
            tried.contains(&(cmd, flag.to_string())),
            "{cmd} declares no --{flag}"
        );
    }
    assert!(
        tried.len() > 60,
        "only {} flags found in --help",
        tried.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `spothost-cli` with its stdout a pipe whose reader is already
/// closed, so that its first write fails with EPIPE.
fn into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("run spothost-cli")
}

/// A reader that closed the pipe has read all it wants: that is no
/// error, so a run that succeeds exits 0 without a word, and one that
/// fails still exits 2 with its error.
#[test]
fn a_closed_stdout_pipe_is_not_an_error() {
    for args in [
        &["markets"][..],
        &["simulate", "--days", "2"],
        &["timeline", "--days", "2"],
        &[
            "fleet-sim",
            "--vms",
            "8",
            "--users",
            "500",
            "--days",
            "2",
            "--seconds",
            "900",
        ],
        &["jobs", "--days", "2"],
        &["query", "--store", GOLDEN_COL, "--group-by", "kind"],
    ] {
        let out = into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: stderr: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: stderr: {stderr}");
    }
    let dir = scratch("closed-pipe");
    let file = dir.join("file");
    std::fs::write(&file, "a regular file").expect("write a regular file");
    let store = file.join("x.col");
    let store = store.to_str().expect("utf-8 temp dir");
    let out = into_closed_pipe(&["simulate", "--days", "2", "--store", store]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: --store {store}: ")),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
