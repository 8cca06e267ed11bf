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
use spothost_core::telemetry::export::write_jsonl;
use spothost_eventstore::ColReader;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Default trace-arena residency bound. Seed sweeps walk seeds
/// monotonically, so FIFO eviction keeps only the seeds in flight; 64
/// traces (~50 MB at the 60-day horizon) comfortably covers the widest
/// per-seed market union in the suite while keeping `repro all` flat in
/// memory instead of accumulating every (seed, market) trace generated.
const DEFAULT_TRACE_CAP: u64 = 64;

/// `repro`'s usage and flags, for `--help` and for a run that names no
/// experiment.
fn usage() -> String {
    format!(
        "usage: repro [--quick] [--list] [--csv DIR] [--trace DIR] [--trace-cap N] \
         <experiment...|all>
  --quick        smaller Monte-Carlo settings (the CI smoke)
  --list         list the experiments
  --csv DIR      also write each experiment's CSV artifacts to DIR
  --trace DIR    also write one representative seed's event stream per
                 experiment to DIR, as JSONL and as a columnar store
  --trace-cap N  bound the trace arena to N traces, 0 for unbounded \
         (default {DEFAULT_TRACE_CAP})
"
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let result = run(&args, &mut out);
    spothost_analysis::stdout::write(&out);
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// Run the experiments `args` name, writing their reports into `out`.
/// A bad flag, an unknown experiment or an output path that cannot be
/// written is an error naming it.
fn run(args: &[String], out: &mut String) -> Result<(), String> {
    let mut quick = false;
    let mut csv_dir: Option<&str> = None;
    let mut trace_dir: Option<&str> = None;
    let mut trace_cap = DEFAULT_TRACE_CAP;
    let mut names: Vec<String> = Vec::new();
    let mut args_iter = args.iter();
    while let Some(a) = args_iter.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--csv" => csv_dir = Some(args_iter.next().ok_or("--csv expects a directory")?),
            "--trace" => trace_dir = Some(args_iter.next().ok_or("--trace expects a directory")?),
            "--trace-cap" => {
                trace_cap = args_iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--trace-cap expects a trace count (0 = unbounded)")?;
            }
            "--list" => {
                for (name, desc) in experiments::ALL {
                    let _ = writeln!(out, "{name:<12} {desc}");
                }
                return Ok(());
            }
            "--help" | "-h" => {
                out.push_str(&usage());
                return Ok(());
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        return Err(format!(
            "{}experiments: {}",
            usage(),
            experiments::ALL.map(|(n, _)| n).join(", ")
        ));
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
    let runs = experiments::run_suite(&names, &settings)
        .map_err(|unknown| format!("{unknown} (try --list)"))?;
    let _ = writeln!(
        out,
        "spothost repro — seeds {} x horizon {} ({} mode)\n",
        settings.seeds,
        settings.horizon,
        if quick { "quick" } else { "full" }
    );

    for run in &runs {
        let name = run.name;
        let _ = writeln!(out, "{}", "=".repeat(78));
        let _ = writeln!(out, "{}", run.report);
        if let Some(dir) = csv_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("--csv {dir}: {e}"))?;
            for (file, contents) in &run.artifacts {
                let path = Path::new(dir).join(file);
                std::fs::write(&path, contents)
                    .map_err(|e| format!("--csv {}: {e}", path.display()))?;
                let _ = writeln!(out, "[wrote {}]", path.display());
            }
        }
        if let Some(dir) = trace_dir {
            if let Some(store) = experiments::representative_recording(name, &settings) {
                std::fs::create_dir_all(dir).map_err(|e| format!("--trace {dir}: {e}"))?;
                let events = ColReader::from_bytes(&store.bytes())
                    .and_then(|r| r.decode_all())
                    .expect("decode the recording");
                let path = Path::new(dir).join(format!("{name}.trace.jsonl"));
                File::create(&path)
                    .and_then(|file| {
                        let mut file = BufWriter::new(file);
                        write_jsonl(&mut file, events.iter().map(|se| (se.at, &se.event)))?;
                        file.flush()
                    })
                    .map_err(|e| format!("--trace {}: {e}", path.display()))?;
                let _ = writeln!(out, "[wrote {} ({} events)]", path.display(), events.len());
                // The recording itself, ready for `spothost query --store`.
                let col_path = Path::new(dir).join(format!("{name}.col"));
                std::fs::write(&col_path, store.bytes())
                    .map_err(|e| format!("--trace {}: {e}", col_path.display()))?;
                let _ = writeln!(
                    out,
                    "[wrote {} ({} blocks)]",
                    col_path.display(),
                    store.blocks_written()
                );
            }
        }
        let _ = writeln!(out, "[{name} done in {:.1}s]\n", run.wall.as_secs_f64());
    }
    let _ = writeln!(out, "total: {:.1}s", total.elapsed().as_secs_f64());
    Ok(())
}
