//! The spothost benchmark: one workload per process, seeded, timed, and
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload sweep|fleet|jobs|store --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets up its inputs (every price trace it will request, generated
//! into the process's empty trace arena, plus its configurations) several
//! times and reports the median as `setup_s`. It then runs the workload
//! as a closed batch, one pass after another, for `--seconds`. A workload
//! has one or more slots, distinct inputs drawn from the seed; passes
//! cycle through them, and one pass over every slot is a cycle. Every pass
//! checks the invariants of each report and prints a digest of all report
//! fields, which must repeat for its slot. Every set-up and pass is timed
//! at the reference speed: divided by the host's slowdown, measured by a
//! fixed kernel just before and just after it ([`probe::Reference`]).
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` spends half
//! the time on untraced passes and half on traced ones, which record spans
//! around each library call and count scheduler events through counting
//! sinks, and reports the per-layer metrics, per cycle. Traced digests
//! must equal untraced ones. The last line of standard output is a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod digest;
mod fleet;
mod jobs;
mod probe;
mod store;
mod sweep;
mod trace;

use digest::Digest;
use probe::Stopwatch;
use spothost_analysis::percentile;
use spothost_market::TraceArena;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Tracer, ROOT};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// A run sets up `SETUPS` times; `setup_s` is the median. The count is
/// fixed, not timed, so that every run of a seed makes the same
/// allocations before its passes.
const SETUPS: usize = 7;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_hours_per_s", "h/s"),
    ("sim_hours_per_cpu_s", "h/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`, per cycle. Those a
/// workload does not load read 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("market.generate_s", "s"),
    ("market.traces_generated", "count"),
    ("market.timed_misses", "count"),
    ("market.resident_mb", "MB"),
    ("core.runs", "count"),
    ("core.run_ms_p50", "ms"),
    ("core.run_ms_p90", "ms"),
    ("core.events_per_run", "count"),
    ("cloudsim.lease_requests", "count"),
    ("cloudsim.grant_ratio", "ratio"),
    ("cloudsim.revocations", "count"),
    ("virt.migrations", "count"),
    ("virt.abort_ratio", "ratio"),
    ("faults.injected", "count"),
    ("faults.backoffs", "count"),
    ("faults.storm_episodes", "count"),
    ("forecast.bids", "count"),
    ("forecast.risk_bids", "count"),
    ("fleet.run_s", "s"),
    ("fleet.storm_share", "ratio"),
    ("fleet.step_calls", "count"),
    ("fleet.ns_per_step", "ns"),
    ("fleet.spawns", "count"),
    ("fleet.ticks", "count"),
    ("workload.mva_solves", "count"),
    ("workload.mva_s", "s"),
    ("jobs.runs", "count"),
    ("jobs.run_ms_p50", "ms"),
    ("jobs.run_ms_p90", "ms"),
    ("jobs.useful_ratio", "ratio"),
    ("jobs.restarts", "count"),
    ("jobs.checkpoints", "count"),
    ("telemetry.events", "count"),
    ("telemetry.emit_ns_per_event", "ns"),
    ("telemetry.ring_drops", "count"),
    ("telemetry.events_per_s", "ev/s"),
    ("eventstore.blocks", "count"),
    ("eventstore.events_per_block", "count"),
    ("eventstore.bytes_per_event", "B"),
    ("eventstore.seal_ns_per_event", "ns"),
    ("eventstore.open_ms", "ms"),
    ("eventstore.decoded_block_ratio", "ratio"),
    ("eventstore.jsonl_bytes_per_event", "B"),
    ("eventstore.query_p50_ms", "ms"),
    ("eventstore.query_p90_ms", "ms"),
    ("eventstore.store_overhead_pct", "%"),
    ("analysis.parallel_efficiency", "ratio"),
    ("analysis.threads", "count"),
    ("bench.ref_ms", "ms"),
    ("bench.peak_rss_mb", "MB"),
];

/// Self time per cycle of each layer that spans name (`layer.operation`).
const SELF_TIMES: [&str; 9] = [
    "bench.self_s",
    "analysis.self_s",
    "market.self_s",
    "core.self_s",
    "fleet.self_s",
    "workload.self_s",
    "jobs.self_s",
    "telemetry.self_s",
    "eventstore.self_s",
];

/// Per-layer metrics about the tracing itself.
const TRACE_METRICS: [(&str, &str); 2] = [("trace.overhead_pct", "%"), ("trace.spans", "count")];

/// Latency percentiles of the spans named first.
const SPAN_PERCENTILES: [(&str, &str, &str); 2] = [
    ("core.run", "core.run_ms_p50", "core.run_ms_p90"),
    ("jobs.run", "jobs.run_ms_p50", "jobs.run_ms_p90"),
];

/// Per-layer ratios: `name = numerator / denominator * scale`, over the
/// per-cycle sums the traced passes collect.
const RATIOS: [(&str, &str, &str, f64); 13] = [
    (
        "cloudsim.grant_ratio",
        "cloudsim.granted",
        "cloudsim.lease_requests",
        1.0,
    ),
    ("virt.abort_ratio", "virt.aborts", "virt.migrations", 1.0),
    ("core.events_per_run", "core.events", "core.runs", 1.0),
    ("jobs.useful_ratio", "jobs.useful_h", "jobs.compute_h", 1.0),
    ("fleet.storm_share", "fleet.storm_s", "fleet.run_s", 1.0),
    ("fleet.ns_per_step", "fleet.run_s", "fleet.step_calls", 1e9),
    (
        "telemetry.emit_ns_per_event",
        "telemetry.emit_s",
        "telemetry.events",
        1e9,
    ),
    (
        "telemetry.events_per_s",
        "eventstore.events",
        "fleet.store_s",
        1.0,
    ),
    (
        "eventstore.events_per_block",
        "eventstore.events",
        "eventstore.blocks",
        1.0,
    ),
    (
        "eventstore.bytes_per_event",
        "eventstore.bytes",
        "eventstore.events",
        1.0,
    ),
    (
        "eventstore.seal_ns_per_event",
        "eventstore.seal_s",
        "eventstore.events",
        1e9,
    ),
    (
        "eventstore.decoded_block_ratio",
        "eventstore.blocks_decoded",
        "eventstore.blocks_scanned",
        1.0,
    ),
    (
        "eventstore.jsonl_bytes_per_event",
        "eventstore.jsonl_bytes",
        "core.events",
        1.0,
    ),
];

/// What one pass produced.
#[derive(Default)]
pub struct PassOut {
    /// Digest over every report field the pass produced.
    pub digest: Digest,
    /// Simulated server-hours the pass finished.
    pub sim_hours: f64,
    /// Wall and CPU time of the pass's library calls (checks excluded).
    pub work: Stopwatch,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each query (store only), ms.
    pub op_ms: Vec<f64>,
    /// How many times slower than the reference speed the host ran during
    /// the pass; the run loop sets it (see [`probe::Reference`]).
    pub slowdown: f64,
}

impl PassOut {
    /// Count one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one traced pass produced on top of its [`PassOut`]. Both maps
/// hold additive quantities, summed over a cycle's slots.
pub struct TracedOut {
    pub pass: PassOut,
    /// Counts that depend only on the inputs: every traced pass of a slot
    /// must reproduce them exactly.
    pub counts: BTreeMap<&'static str, f64>,
    /// Seconds spent per pass; the run takes each slot's median.
    pub timings: BTreeMap<&'static str, f64>,
}

impl TracedOut {
    pub fn new(pass: PassOut) -> TracedOut {
        TracedOut {
            pass,
            counts: BTreeMap::new(),
            timings: BTreeMap::new(),
        }
    }
}

/// A benchmark workload: a closed batch of library calls.
pub trait Workload: Sized {
    /// Whether the workload's calls fan out on the analysis thread pool.
    const PARALLEL: bool;

    /// Distinct inputs drawn from one seed that passes cycle through.
    const SLOTS: usize;

    /// Generate every price trace the passes will request and build the
    /// configurations, adding the time spent generating to `generate_s`.
    fn setup(seed: u64, generate_s: &mut f64) -> Self;

    /// One untraced pass over `slot`'s input.
    fn pass(&mut self, slot: usize) -> PassOut;

    /// One traced pass over `slot`'s input: the same work, with spans
    /// under `parent`.
    fn traced_pass(&mut self, slot: usize, tr: &Tracer, parent: u32) -> TracedOut;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = a.next() {
        let value = a.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The run's outcome, printed as the last line of standard output.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Time of one cycle at the reference speed, given each slot's passes:
/// each pass's `time` over its slowdown, the median per slot, summed.
fn cycle_s<'a>(
    slots: impl Iterator<Item = Vec<&'a PassOut>>,
    time: impl Fn(&Stopwatch) -> f64,
) -> f64 {
    slots
        .map(|passes| {
            let scaled: Vec<f64> = passes.iter().map(|p| time(&p.work) / p.slowdown).collect();
            median(&scaled)
        })
        .sum()
}

/// Run passes until `budget` seconds have gone and at least `min` ran.
fn passes(budget: f64, min: usize, mut one: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min || t0.elapsed().as_secs_f64() < budget {
        one(i);
        i += 1;
    }
}

fn run<W: Workload>(args: &Args) -> Outcome {
    let arena = TraceArena::global();
    let start = arena.stats();
    let mut correct = start.resident_traces == 0 && start.trace_capacity == 0;

    let threads = if W::PARALLEL {
        rayon::current_num_threads()
    } else {
        1
    };
    // Set-up runs on one thread whatever the workload's passes use.
    let mut setup_reference = probe::Reference::new(1);

    // Set-up, several times from an empty arena; the last one stays.
    let (mut setup_s, mut generate_s, mut generated) = (Vec::new(), Vec::new(), Vec::new());
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        arena.clear();
        let misses = arena.stats().trace_misses;
        let mut gen = 0.0;
        let t0 = Instant::now();
        workload = Some(W::setup(args.seed, &mut gen));
        let secs = t0.elapsed().as_secs_f64();
        setup_s.push(secs / setup_reference.since_last());
        generate_s.push(gen);
        generated.push((arena.stats().trace_misses - misses) as f64);
    }
    let mut w = workload.expect("at least one set-up");
    correct &= generated.iter().all(|&g| g == generated[0] && g > 0.0);
    println!(
        "setups {} setup_s median {:.6}",
        setup_s.len(),
        median(&setup_s)
    );
    let resident_mb = arena.stats().resident_bytes as f64 / 1e6;
    let misses_before = arena.stats().trace_misses;

    let slots = W::SLOTS;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Vec<Option<Digest>> = vec![None; slots];
    let mut check = |kind: &str, i: usize, p: &PassOut| {
        let slot = i % slots;
        println!(
            "pass {i} slot {slot} {kind} digest {} work_s {:.4} cpu_s {:.2} slowdown {:.3} sim_hours {:.1} ops {} failed {}",
            p.digest, p.work.wall_s, p.work.cpu_s, p.slowdown, p.sim_hours, p.attempted, p.failed
        );
        let same = *first[slot].get_or_insert(p.digest) == p.digest;
        attempted += p.attempted;
        failed += p.failed + u64::from(!same);
        same
    };

    // Untraced passes. The first warms the allocator and caches; it is
    // checked but not measured, so every slot still gets a timed pass.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain: Vec<Vec<PassOut>> = (0..slots).map(|_| Vec::new()).collect();
    let mut reference = probe::Reference::new(threads);
    // Peak memory is read after a fixed amount of work, the warm-up pass
    // and one cycle: resident memory keeps creeping up with every further
    // pass as the allocator's free lists fragment, so a host fast enough
    // to fit more passes in would read higher.
    let (mut peak_heap_mb, mut peak_rss_mb) = (0.0, 0.0);
    passes(budget, slots + 1, |i| {
        let mut p = w.pass(i % slots);
        p.slowdown = reference.since_last();
        if i == slots {
            peak_heap_mb = probe::stop_heap_count();
            peak_rss_mb = probe::peak_rss_mb();
        }
        correct &= check("untraced", i, &p);
        if i > 0 {
            plain[i % slots].push(p);
        }
    });
    let plain_cycle =
        |time: fn(&Stopwatch) -> f64| cycle_s(plain.iter().map(|slot| slot.iter().collect()), time);
    let wall = plain_cycle(|w| w.wall_s);
    let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
    if !args.trace {
        // CPU time is charged for the slow states too (they are not
        // stolen time), so it is scaled by the same slowdown.
        let hours: f64 = plain.iter().map(|slot| slot[0].sim_hours).sum();
        let cpu = plain_cycle(|w| w.cpu_s);
        println!("cycle sim_hours {hours:.1} at reference speed wall_s {wall:.4} cpu_s {cpu:.4}");
        let values = [median(&setup_s), hours / wall, hours / cpu, peak_heap_mb];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
        correct &= arena.stats().trace_misses == misses_before;
    } else {
        let tr = Tracer::new();
        let mut traced: Vec<Vec<TracedOut>> = (0..slots).map(|_| Vec::new()).collect();
        passes(budget, slots, |i| {
            let mut t = tr.span("bench.pass", ROOT, |id| w.traced_pass(i % slots, &tr, id));
            t.pass.slowdown = reference.since_last();
            correct &= check("traced", i, &t.pass);
            let mine = &mut traced[i % slots];
            if let Some(t0) = mine.first() {
                correct &= t0.counts == t.counts;
            }
            mine.push(t);
        });
        let cycles = traced.iter().map(Vec::len).sum::<usize>() as f64 / slots as f64;

        // Per-cycle sums: counts from each slot's first traced pass,
        // timings as each slot's median.
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        for slot in &traced {
            for (k, v) in &slot[0].counts {
                *layer.entry(k).or_default() += v;
            }
            let keys: std::collections::BTreeSet<&&str> =
                slot.iter().flat_map(|t| t.timings.keys()).collect();
            for k in keys {
                let vals: Vec<f64> = slot
                    .iter()
                    .filter_map(|t| t.timings.get(*k).copied())
                    .collect();
                *layer.entry(k).or_default() += median(&vals);
            }
        }
        for (name, num, den, scale) in RATIOS {
            let (n, d) = (layer.get(num).copied(), layer.get(den).copied());
            if let (Some(n), Some(d)) = (n, d) {
                layer.insert(name, if d == 0.0 { 0.0 } else { n / d * scale });
            }
        }
        if let Some(open_s) = layer.get("eventstore.open_s").copied() {
            layer.insert("eventstore.open_ms", open_s * 1e3 / slots as f64);
        }
        if let (Some(store), Some(null)) = (layer.get("fleet.store_s"), layer.get("fleet.null_s")) {
            layer.insert(
                "eventstore.store_overhead_pct",
                (store / null - 1.0) * 100.0,
            );
        }
        layer.insert("market.generate_s", median(&generate_s));
        layer.insert("market.traces_generated", generated[0]);
        layer.insert(
            "market.timed_misses",
            (arena.stats().trace_misses - misses_before) as f64,
        );
        layer.insert("market.resident_mb", resident_mb);
        for (span, p50, p90) in SPAN_PERCENTILES {
            let ms = tr.durations_ms(span);
            if !ms.is_empty() {
                layer.insert(p50, percentile(&ms, 50.0));
                layer.insert(p90, percentile(&ms, 90.0));
            }
        }
        let queries: Vec<f64> = traced
            .iter()
            .flatten()
            .flat_map(|t| t.pass.op_ms.iter().copied())
            .collect();
        if !queries.is_empty() {
            layer.insert("eventstore.query_p50_ms", percentile(&queries, 50.0));
            layer.insert("eventstore.query_p90_ms", percentile(&queries, 90.0));
        }
        let (cpu, wall_sum): (f64, f64) = plain.iter().flatten().fold((0.0, 0.0), |(c, s), p| {
            (c + p.work.cpu_s, s + p.work.wall_s)
        });
        layer.insert(
            "analysis.parallel_efficiency",
            cpu / (wall_sum * threads as f64),
        );
        layer.insert("analysis.threads", threads as f64);
        layer.insert("bench.ref_ms", median(reference.times()) * 1e3);
        layer.insert("bench.peak_rss_mb", peak_rss_mb);
        correct &= layer.get("market.timed_misses") == Some(&0.0);

        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, layer.get(name).copied().unwrap_or(0.0)));
        }
        let own = tr.self_seconds();
        for name in SELF_TIMES {
            let l = name.trim_end_matches(".self_s");
            metrics.push((name, "s", own.get(l).copied().unwrap_or(0.0) / cycles));
        }
        let traced_wall = cycle_s(
            traced
                .iter()
                .map(|slot| slot.iter().map(|t| &t.pass).collect()),
            |w| w.wall_s,
        );
        let values = [
            (traced_wall / wall - 1.0) * 100.0,
            tr.spans().len() as f64 / cycles,
        ];
        for ((name, unit), v) in TRACE_METRICS.iter().zip(values) {
            metrics.push((name, unit, v));
        }
    }
    // JSON has no NaN or infinity: a metric that is not finite makes the
    // run incorrect and reads 0.
    for m in &mut metrics {
        if !m.2.is_finite() {
            correct = false;
            m.2 = 0.0;
        }
    }
    correct &= failed == 0;
    println!(
        "threads {threads} nproc {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep" => run::<sweep::Sweep>(&args),
        "fleet" => run::<fleet::Fleet>(&args),
        "jobs" => run::<jobs::Jobs>(&args),
        "store" => run::<store::Store>(&args),
        other => {
            eprintln!("hostbench: unknown workload {other} (sweep, fleet, jobs, store)");
            std::process::exit(2);
        }
    };
    println!("{}", outcome.json());
}
