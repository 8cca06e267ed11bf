//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all             # every experiment, paper-fidelity settings
//! repro fig6 fig7       # selected experiments
//! repro --quick all     # smaller Monte-Carlo settings (CI smoke)
//! repro --list          # list experiment names
//! repro --csv out/ all  # also write CSV artifacts for the figures
//! repro --trace out/ fig6  # also dump one representative seed's
//!                          # telemetry event stream per experiment
//! repro --trace-cap 0 all  # unbounded trace arena (default bounds
//!                          # residency to 64 traces, ~50 MB)
//! ```

use spothost_bench::experiments;
use spothost_bench::ExpSettings;
use std::time::Instant;

/// Default trace-arena residency bound. Seed sweeps walk seeds
/// monotonically, so FIFO eviction keeps only the seeds in flight; 64
/// traces (~50 MB at the 60-day horizon) comfortably covers the widest
/// per-seed market union in the suite while keeping `repro all` flat in
/// memory instead of accumulating every (seed, market) trace generated.
const DEFAULT_TRACE_CAP: u64 = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut csv_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut trace_cap = DEFAULT_TRACE_CAP;
    let mut names: Vec<String> = Vec::new();
    let mut args_iter = args.iter().peekable();
    while let Some(a) = args_iter.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--csv" => {
                let Some(dir) = args_iter.next() else {
                    eprintln!("--csv expects a directory");
                    std::process::exit(2);
                };
                csv_dir = Some(dir.clone());
            }
            "--trace" => {
                let Some(dir) = args_iter.next() else {
                    eprintln!("--trace expects a directory");
                    std::process::exit(2);
                };
                trace_dir = Some(dir.clone());
            }
            "--trace-cap" => {
                let cap = args_iter.next().and_then(|v| v.parse().ok());
                let Some(cap) = cap else {
                    eprintln!("--trace-cap expects a trace count (0 = unbounded)");
                    std::process::exit(2);
                };
                trace_cap = cap;
            }
            "--list" => {
                for (name, desc) in experiments::ALL {
                    println!("{name:<12} {desc}");
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!("usage: repro [--quick] [--list] <experiment...|all>");
                return;
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        eprintln!("usage: repro [--quick] [--list] <experiment...|all>");
        eprintln!(
            "experiments: {}",
            experiments::ALL.map(|(n, _)| n).join(", ")
        );
        std::process::exit(2);
    }
    if names.iter().any(|n| n == "all") {
        names = experiments::ALL
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
    }

    let settings = if quick {
        ExpSettings::quick()
    } else {
        ExpSettings::full()
    };
    spothost_market::TraceArena::global().set_trace_capacity(trace_cap);
    let total = Instant::now();
    let runs = match experiments::run_suite(&names, &settings) {
        Ok(runs) => runs,
        Err(unknown) => {
            eprintln!("{unknown} (try --list)");
            std::process::exit(2);
        }
    };
    println!(
        "spothost repro — seeds {} x horizon {} ({} mode)\n",
        settings.seeds,
        settings.horizon,
        if quick { "quick" } else { "full" }
    );

    for run in &runs {
        let name = run.name;
        println!("{}", "=".repeat(78));
        println!("{}", run.report);
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            for (file, contents) in &run.artifacts {
                let path = std::path::Path::new(dir).join(file);
                std::fs::write(&path, contents).expect("write csv");
                println!("[wrote {}]", path.display());
            }
        }
        if let Some(dir) = &trace_dir {
            if let Some(rec) = experiments::representative_recording(name, &settings) {
                std::fs::create_dir_all(dir).expect("create trace dir");
                let path = std::path::Path::new(dir).join(format!("{name}.trace.jsonl"));
                let mut out = std::io::BufWriter::new(
                    std::fs::File::create(&path).expect("create trace file"),
                );
                rec.write_jsonl(&mut out).expect("write trace");
                println!("[wrote {} ({} events)]", path.display(), rec.len());
                // The same stream as a columnar store, ready for
                // `spothost query --store`.
                let col_path = std::path::Path::new(dir).join(format!("{name}.col"));
                let store = spothost_eventstore::ColumnarStore::create(&col_path)
                    .expect("create columnar store");
                let mut sink = store.sink();
                for &(t, ev) in rec.events() {
                    spothost_core::telemetry::Sink::emit(&mut sink, t, ev);
                }
                drop(sink);
                store.finish().expect("flush columnar store");
                println!(
                    "[wrote {} ({} blocks)]",
                    col_path.display(),
                    store.blocks_written()
                );
            }
        }
        println!("[{name} done in {:.1}s]\n", run.wall.as_secs_f64());
    }
    println!("total: {:.1}s", total.elapsed().as_secs_f64());
}
