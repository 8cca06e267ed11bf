//! `simulate` and `timeline` record a run once, into a columnar store, and
//! print every telemetry output as a view of it: checked through the
//! built binary.

use spothost_core::telemetry::event_to_json;
use spothost_core::telemetry::recorder::DEFAULT_CAPACITY;
use spothost_eventstore::ColReader;
use std::path::PathBuf;
use std::process::Command;

/// Run `spothost-cli` and return its stdout; it must exit 0.
fn run_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
        .args(args)
        .output()
        .expect("run spothost-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: stderr: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A scratch directory of this test process.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spothost-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A `--metrics` statistic such as `min=0.200s`, without its unit.
fn stat(line: &str, name: &str) -> Option<f64> {
    let token = line
        .split_whitespace()
        .find_map(|t| t.strip_prefix(&format!("{name}=")))?;
    let number = token.trim_end_matches(|c: char| !c.is_ascii_digit());
    number.parse().ok()
}

#[test]
fn trace_store_and_metrics_are_views_of_one_recording() {
    let dir = scratch("views");
    let (trace, store) = (dir.join("t.jsonl"), dir.join("s.col"));
    let (trace_arg, store_arg) = (trace.to_str().unwrap(), store.to_str().unwrap());
    let stdout = run_cli(&[
        "simulate",
        "--days",
        "14",
        "--fault-rate",
        "0.1",
        "--trace",
        trace_arg,
        "--store",
        store_arg,
        "--metrics",
    ]);

    // The JSONL is the store's decoded stream, line for line.
    let events = ColReader::open(&store)
        .and_then(|r| r.decode_all())
        .expect("decode the store");
    let jsonl = std::fs::read_to_string(&trace).expect("read the trace");
    let lines: Vec<&str> = jsonl.lines().collect();
    let want: Vec<String> = events
        .iter()
        .map(|se| event_to_json(se.at, &se.event))
        .collect();
    assert!(!want.is_empty(), "an empty recording proves nothing");
    assert_eq!(lines, want);

    // The per-kind counts add up to the same stream.
    let counts = stdout
        .lines()
        .find_map(|l| l.strip_prefix("events:"))
        .expect("an events: line");
    let total: usize = counts
        .split_whitespace()
        .map(|kv| kv.split_once('=').expect("kind=count").1.parse::<usize>())
        .sum::<Result<_, _>>()
        .expect("numeric counts");
    assert_eq!(total, events.len());

    // Every p99 is a sample quantile: within the sample's [min, max].
    let mut checked = 0;
    for line in stdout.lines().filter(|l| l.contains(" p99=")) {
        let (Some(min), Some(max), Some(p99)) =
            (stat(line, "min"), stat(line, "max"), stat(line, "p99"))
        else {
            assert!(line.contains("n=0 "), "unparsed summary: {line}");
            continue;
        };
        assert!((min..=max).contains(&p99), "{line}");
        checked += 1;
    }
    assert!(checked >= 4, "too few summaries checked:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_timeline_longer_than_a_ring_buffer_is_whole() {
    let run = [
        "--days",
        "600",
        "--fault-rate",
        "0.5",
        "--storm-intensity",
        "1.0",
        "--policy",
        "reactive",
    ];
    let stdout = run_cli(&[&["timeline", "--width", "60"][..], &run].concat());
    assert!(!stdout.contains("WARNING"), "{stdout}");
    let closing = stdout.lines().last().expect("a closing line");
    let shown: u64 = closing
        .split_once(" events |")
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no event count in {closing:?}"));

    // The same run, recorded by `simulate --store`.
    let dir = scratch("timeline");
    let store = dir.join("s.col");
    run_cli(&[&["simulate", "--store", store.to_str().unwrap()][..], &run].concat());
    let recorded = ColReader::open(&store)
        .expect("open the store")
        .event_count();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(shown, recorded);
    assert!(
        shown > DEFAULT_CAPACITY as u64,
        "the run must outgrow a ring buffer"
    );
}
