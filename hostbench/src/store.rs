//! `store`: the telemetry write path beside the read path. Writes record
//! the calm single-zone `fleet` variant into an in-memory columnar store,
//! and the experiments' representative runs through a `Recorder`, then
//! export those to JSONL and replay them into `.col` (the `repro --trace`
//! path). Reads run a fixed query mix through `ColReader`.

use crate::digest::Digest;
use crate::fleet::{self, absorb_fleet};
use crate::probe::Stopwatch;
use crate::sweep::absorb_run;
use crate::trace::{maybe_span, Ctx, SinkTime, TimedFactory, Tracer};
use crate::{PassOut, TracedOut, Workload};
use spothost_analysis::percentile;
use spothost_bench::experiments::{representative_config, ALL};
use spothost_core::prelude::*;
use spothost_core::telemetry::{NullSinkFactory, Sink, SinkFactory};
use spothost_core::SimRun;
use spothost_eventstore::{ColReader, ColumnarStore, Field, GroupBy, Predicate, StoredEvent};
use spothost_fleet::{FleetSim, FleetSimConfig, FleetSimReport};
use spothost_market::gen::derive_seed;
use spothost_market::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const REP_HORIZON_DAYS: u64 = 60;
/// Fleet seeds per run: the first four of the `fleet` workload's block. A store
/// pass takes a quarter of the time a fleet cycle over one seed does, so
/// fewer seeds leave each several passes to take a median over.
const SEEDS: usize = 4;
/// Length of a time-window select.
const WINDOW: SimDuration = SimDuration(6 * 3_600_000);

/// One query of the read mix. Point and window targets are drawn from the
/// seed and resolved against the store's VM count and horizon.
#[derive(Debug, Clone, Copy)]
enum Query {
    Vm(u64),
    Window(u64),
    Grouped(GroupBy),
}

/// The fixed read mix: 8 per-VM point selects, 8 time-window selects and
/// 4 full-scan grouped aggregates per pass. Points are the fastest and
/// scans the slowest, so the median falls among the windows and the 90th
/// percentile among the scans, not on a boundary between kinds.
fn query_mix(seed: u64) -> Vec<Query> {
    let draw = |i: u64| derive_seed(seed, "hostbench-query", i);
    let mut q = Vec::new();
    for i in 0..8 {
        q.push(Query::Vm(draw(i)));
        q.push(Query::Window(draw(100 + i)));
    }
    q.extend(
        [
            GroupBy::Market,
            GroupBy::Kind,
            GroupBy::Market,
            GroupBy::Kind,
        ]
        .map(Query::Grouped),
    );
    q
}

/// Per-group (key, event count, cost sum, cost p99).
type Aggregate = Vec<(String, u64, f64, f64)>;

fn predicate(q: Query, vms: u64, horizon: SimDuration) -> (Predicate, GroupBy) {
    match q {
        Query::Vm(h) => (Predicate::any().with_vm((h % vms) as u32), GroupBy::None),
        Query::Window(h) => {
            let from = h % (horizon.as_millis() - WINDOW.as_millis());
            let from = SimTime::millis(from);
            (
                Predicate::any().with_time_range(from, from + WINDOW),
                GroupBy::None,
            )
        }
        Query::Grouped(g) => (Predicate::any(), g),
    }
}

/// The query layer's answer: grouped counts plus cost sum and p99.
fn aggregate(events: &[StoredEvent], group: GroupBy) -> Aggregate {
    let counts = spothost_eventstore::query::group_counts(events, group);
    let costs = spothost_eventstore::query::grouped_values(events, Field::Cost, group);
    counts
        .into_iter()
        .map(|(key, n)| {
            let vals = costs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.as_slice());
            let vals = vals.unwrap_or(&[]);
            let sum = vals.iter().fold(0.0, |a, v| a + v);
            (
                key,
                n,
                sum,
                spothost_eventstore::query::percentile_of(vals, 99.0),
            )
        })
        .collect()
}

/// The same aggregate as a plain fold over the fully decoded stream.
fn raw_fold(all: &[StoredEvent], pred: &Predicate, group: GroupBy) -> Aggregate {
    let mut groups: Vec<(String, u64, f64, Vec<f64>)> = Vec::new();
    for se in all.iter().filter(|se| pred.matches_event(se)) {
        let key = group.key(se);
        let i = match groups.iter().position(|g| g.0 == key) {
            Some(i) => i,
            None => {
                groups.push((key, 0, 0.0, Vec::new()));
                groups.len() - 1
            }
        };
        let g = &mut groups[i];
        g.1 += 1;
        if let Some(c) = Field::Cost.extract(&se.event) {
            g.2 += c;
            g.3.push(c);
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    groups
        .into_iter()
        .map(|(k, n, sum, vals)| (k, n, sum, percentile(&vals, 99.0)))
        .collect()
}

fn same(a: &Aggregate, b: &Aggregate) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.0 == y.0
                && x.1 == y.1
                && x.2.to_bits() == y.2.to_bits()
                && x.3.to_bits() == y.3.to_bits()
        })
}

/// One representative run's outputs.
struct Recorded {
    report: RunReport,
    events: usize,
    dropped: u64,
    jsonl_bytes: usize,
    col: Vec<u8>,
}

/// Export a recording to JSONL and replay it into an in-memory `.col`.
fn export(rec: &Recorder) -> (usize, Vec<u8>) {
    let mut jsonl = Vec::new();
    rec.write_jsonl(&mut jsonl)
        .expect("writing to memory cannot fail");
    let store = ColumnarStore::in_memory();
    let mut sink = store.sink();
    for &(t, ev) in rec.events() {
        sink.emit(t, ev);
    }
    drop(sink);
    store.finish().expect("in-memory store cannot fail");
    (jsonl.len(), store.bytes())
}

/// A recorded run's `.col` must decode to every event, and its
/// `LeaseClosed` costs must sum to the report's cost bit for bit.
fn check_recorded(d: &mut Digest, r: &Recorded) -> bool {
    let ok_report = absorb_run(d, &r.report);
    let Ok(events) = ColReader::from_bytes(&r.col).and_then(|c| c.decode_all()) else {
        return false;
    };
    let cost = events.iter().fold(0.0, |a, se| match se.event {
        TelemetryEvent::LeaseClosed { cost, .. } => a + cost,
        _ => a,
    });
    d.u64(events.len() as u64);
    ok_report && events.len() == r.events && cost.to_bits() == r.report.cost.to_bits()
}

/// The write phase's fleet outputs.
struct Written {
    report: FleetSimReport,
    events: u64,
    blocks: u64,
    bytes: Vec<u8>,
}

pub struct Store {
    /// The fleet workload's seed block; one slot per seed.
    seeds: Vec<u64>,
    fleet: FleetSimConfig,
    reps: Vec<SchedulerConfig>,
}

/// What one pass wrote and read, beyond its [`PassOut`].
struct Pass {
    out: PassOut,
    written: Written,
    recorded: Vec<Recorded>,
    blocks_decoded: usize,
    blocks_scanned: usize,
    store_s: f64,
    open_s: f64,
}

impl Store {
    fn fleet_traces(&self, seed: u64) -> TraceSet {
        TraceSet::generate(
            &Catalog::ec2_2015(),
            &fleet::markets(&self.fleet),
            seed,
            fleet::horizon(),
        )
    }

    fn rep_traces(&self, cfg: &SchedulerConfig, seed: u64) -> TraceSet {
        TraceSet::generate(
            &Catalog::ec2_2015(),
            &cfg.candidates(),
            seed,
            SimDuration::days(REP_HORIZON_DAYS),
        )
    }

    fn write_fleet<F: SinkFactory>(
        &self,
        seed: u64,
        traces: &TraceSet,
        wrap: impl FnOnce(ColumnarStore) -> F,
    ) -> Written {
        let store = ColumnarStore::in_memory();
        let report =
            FleetSim::with_sinks(self.fleet.clone(), traces, seed, wrap(store.clone())).run();
        store.finish().expect("in-memory store cannot fail");
        Written {
            report,
            events: store.events_written(),
            blocks: store.blocks_written(),
            bytes: store.bytes(),
        }
    }

    /// One pass over `slot`'s seed, with spans when `tr` is given.
    fn run(&self, slot: usize, tr: Ctx) -> Pass {
        let seed = self.seeds[slot];
        let mut out = PassOut::default();
        // Writes: the fleet into a columnar store, then every
        // representative run through a recorder, exported to JSONL and
        // replayed into `.col`.
        let (written, store_s) = out.work.time(|| {
            let traces = maybe_span(tr, "market.generate", |_| self.fleet_traces(seed));
            maybe_span(tr, "fleet.run", |_| self.write_fleet(seed, &traces, |s| s))
        });
        out.sim_hours += written.report.vm_hours;
        let (recorded, _) = out.work.time(|| {
            self.reps
                .iter()
                .map(|cfg| {
                    let traces = maybe_span(tr, "market.generate", |_| self.rep_traces(cfg, seed));
                    let mut rec = Recorder::new();
                    let report = maybe_span(tr, "core.run", |_| {
                        SimRun::new(&traces, cfg, seed).with_sink(&mut rec).run()
                    });
                    let (jsonl_bytes, col) = maybe_span(tr, "telemetry.export", |_| export(&rec));
                    Recorded {
                        report,
                        events: rec.len(),
                        dropped: rec.dropped(),
                        jsonl_bytes,
                        col,
                    }
                })
                .collect::<Vec<_>>()
        });
        for r in &recorded {
            let ok = check_recorded(&mut out.digest, r);
            out.op(ok);
            out.sim_hours += r.report.active_span.as_hours_f64();
        }
        // Reads: open the fleet's store and run the query mix.
        let (reader, open_s) = out.work.time(|| {
            maybe_span(tr, "eventstore.open", |_| {
                ColReader::from_bytes(&written.bytes)
            })
        });
        let mut pass = Pass {
            out,
            written,
            recorded,
            blocks_decoded: 0,
            blocks_scanned: 0,
            store_s,
            open_s,
        };
        let Ok(reader) = reader else {
            pass.out.op(false);
            return pass;
        };
        let (vms, horizon) = (
            u64::from(pass.written.report.spawned_vms),
            pass.written.report.horizon,
        );
        let mut answers = Vec::new();
        for q in query_mix(seed) {
            let (pred, group) = predicate(q, vms, horizon);
            let (sel, secs) = pass.out.work.time(|| {
                maybe_span(tr, "eventstore.query", |_| {
                    reader.select(&pred).map(|sel| {
                        (
                            aggregate(&sel.events, group),
                            sel.blocks_decoded,
                            sel.blocks_total,
                        )
                    })
                })
            });
            pass.out.op_ms.push(secs * 1e3);
            match sel {
                Ok((answer, decoded, scanned)) => {
                    pass.blocks_decoded += decoded;
                    pass.blocks_scanned += scanned;
                    answers.push((pred, group, answer));
                }
                Err(_) => pass.out.op(false),
            }
        }
        // Checks, untimed: the store decodes to every event written, and
        // every answer equals a plain fold over the decoded stream.
        let w = &pass.written;
        let out = &mut pass.out;
        let fleet_ok = absorb_fleet(&mut out.digest, &w.report);
        let decoded = reader.decode_all();
        let all = decoded.as_deref().unwrap_or(&[]);
        out.op(fleet_ok
            && decoded.is_ok()
            && all.len() as u64 == w.events
            && reader.event_count() == w.events);
        out.digest.u64(w.events);
        out.digest.u64(w.blocks);
        for (pred, group, answer) in &answers {
            out.op(same(answer, &raw_fold(all, pred, *group)));
            for (key, n, sum, p99) in answer {
                out.digest.str(key);
                out.digest.u64(*n);
                out.digest.f64(*sum);
                out.digest.f64(*p99);
            }
        }
        pass
    }
}

impl Workload for Store {
    const PARALLEL: bool = false;
    const SLOTS: usize = SEEDS;

    fn setup(seed: u64, generate_s: &mut f64) -> Store {
        let (_, fleet) = fleet::variants().swap_remove(0);
        let mut seen = std::collections::HashSet::new();
        let reps: Vec<SchedulerConfig> = ALL
            .iter()
            .filter_map(|(name, _)| representative_config(name))
            .filter(|c| seen.insert(format!("{c:?}")))
            .collect();
        let store = Store {
            seeds: fleet::seeds(seed)[..SEEDS].to_vec(),
            fleet,
            reps,
        };
        let t0 = Instant::now();
        for &s in &store.seeds {
            store.fleet_traces(s);
            for cfg in &store.reps {
                store.rep_traces(cfg, s);
            }
        }
        *generate_s += t0.elapsed().as_secs_f64();
        store
    }

    fn pass(&mut self, slot: usize) -> PassOut {
        self.run(slot, None).out
    }

    /// The untraced pass with spans around each call, plus two runs of
    /// the same fleet outside the timed work: one without telemetry (the
    /// baseline the store's overhead is measured against) and one whose
    /// sinks time each `emit` and each final block seal.
    fn traced_pass(&mut self, slot: usize, tr: &Tracer, parent: u32) -> TracedOut {
        let seed = self.seeds[slot];
        let traces = tr.span("market.generate", parent, |_| self.fleet_traces(seed));
        let (_, null_s) = Stopwatch::default().time(|| {
            tr.span("fleet.run_null", parent, |_| {
                FleetSim::with_sinks(self.fleet.clone(), &traces, seed, NullSinkFactory).run()
            })
        });
        let time = Rc::new(RefCell::new(SinkTime::default()));
        tr.span("fleet.run_timed", parent, |id| {
            self.write_fleet(seed, &traces, |s| TimedFactory {
                inner: s,
                time: Rc::clone(&time),
            });
            let t = *time.borrow();
            tr.charge("telemetry", id, t.emit_ns);
            tr.charge("eventstore", id, t.drop_ns);
        });
        let pass = self.run(slot, Some((tr, parent)));
        let t = *time.borrow();
        let w = &pass.written;
        let mut out = TracedOut::new(pass.out);
        for (k, v) in [
            ("core.runs", pass.recorded.len() as f64),
            (
                "core.events",
                pass.recorded.iter().map(|r| r.events).sum::<usize>() as f64,
            ),
            ("telemetry.events", t.events as f64),
            (
                "telemetry.ring_drops",
                pass.recorded.iter().map(|r| r.dropped).sum::<u64>() as f64,
            ),
            ("eventstore.events", w.events as f64),
            ("eventstore.blocks", w.blocks as f64),
            ("eventstore.bytes", w.bytes.len() as f64),
            (
                "eventstore.jsonl_bytes",
                pass.recorded.iter().map(|r| r.jsonl_bytes).sum::<usize>() as f64,
            ),
            ("eventstore.blocks_decoded", pass.blocks_decoded as f64),
            ("eventstore.blocks_scanned", pass.blocks_scanned as f64),
        ] {
            out.counts.insert(k, v);
        }
        for (k, v) in [
            ("telemetry.emit_s", t.emit_ns as f64 / 1e9),
            ("eventstore.seal_s", t.drop_ns as f64 / 1e9),
            ("fleet.store_s", pass.store_s),
            ("fleet.null_s", null_s),
            ("eventstore.open_s", pass.open_s),
        ] {
            out.timings.insert(k, v);
        }
        out
    }
}
