//! Tracing for the per-layer run: in-memory spans recorded around each
//! call the benchmark makes into a library layer, plus telemetry sinks
//! that count scheduler events and time a store's emit path.
//!
//! Nothing here reaches into the crates: spans bracket public calls from
//! the outside, and the counting sinks observe the same event stream the
//! simulators already emit to any `Sink`.

use spothost_core::telemetry::{Sink, SinkFactory, TelemetryEvent};
use spothost_market::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of top-level spans.
pub const ROOT: u32 = 0;

/// One closed span. `name` is `layer.operation`; its layer is the part
/// before the first dot.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }

    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Time measured inside a span but too fine-grained to be a span of its
/// own (a sink's per-event `emit`), attributed to `layer`.
#[derive(Debug, Clone, Copy)]
struct Charge {
    layer: &'static str,
    parent: u32,
    ns: u64,
}

/// Span recorder shared by every thread of a traced pass. Spans stay in
/// memory until the run reports.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    charges: Mutex<Vec<Charge>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
            charges: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn span<R>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        // Relaxed: the counter only hands out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no panic while recording")
            .push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
            });
        r
    }

    /// Attribute `ns` spent inside span `parent` to `layer`.
    pub fn charge(&self, layer: &'static str, parent: u32, ns: u64) {
        self.charges
            .lock()
            .expect("no panic while recording")
            .push(Charge { layer, parent, ns });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no panic while recording").clone()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part of its interval that its child spans cover and minus the time
    /// charged inside it; charged time counts for the charged layer.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let charges = self
            .charges
            .lock()
            .expect("no panic while recording")
            .clone();
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut charged: BTreeMap<u32, u64> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for c in &charges {
            *charged.entry(c.parent).or_default() += c.ns;
            *out.entry(c.layer).or_default() += c.ns as f64 / 1e9;
        }
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |kids| union_len(kids, s.start_ns, s.end_ns));
            let own = (s.end_ns - s.start_ns)
                .saturating_sub(covered)
                .saturating_sub(charged.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer()).or_default() += own as f64 / 1e9;
        }
        out
    }
}

/// Where spans go, if anywhere: the tracer and the parent span id.
pub type Ctx<'a> = Option<(&'a Tracer, u32)>;

/// Run `f` inside a span when tracing, else just run it; `f` gets the
/// context its own calls should record under.
pub fn maybe_span<'a, R>(tr: Ctx<'a>, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
    match tr {
        Some((t, parent)) => t.span(name, parent, |id| f(Some((t, id)))),
        None => f(None),
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`. Children on
/// different threads overlap, so their durations cannot simply be summed.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Scheduler work observed in a run's event stream, by layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub bids: u64,
    pub risk_bids: u64,
    pub granted: u64,
    pub denied: u64,
    pub revocations: u64,
    pub migrations: u64,
    pub migration_aborts: u64,
    pub faults: u64,
    pub backoffs: u64,
    pub storm_episodes: u64,
    pub job_restarts: u64,
    pub job_checkpoints: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.bids += o.bids;
        self.risk_bids += o.risk_bids;
        self.granted += o.granted;
        self.denied += o.denied;
        self.revocations += o.revocations;
        self.migrations += o.migrations;
        self.migration_aborts += o.migration_aborts;
        self.faults += o.faults;
        self.backoffs += o.backoffs;
        self.storm_episodes += o.storm_episodes;
        self.job_restarts += o.job_restarts;
        self.job_checkpoints += o.job_checkpoints;
    }

    fn observe(&mut self, ev: &TelemetryEvent) {
        self.events += 1;
        match ev {
            TelemetryEvent::BidPlaced { predicted_risk, .. } => {
                self.bids += 1;
                self.risk_bids += u64::from(predicted_risk.is_some());
            }
            TelemetryEvent::LeaseGranted { .. } => self.granted += 1,
            TelemetryEvent::LeaseDenied { .. } => self.denied += 1,
            TelemetryEvent::RevocationWarning { .. } | TelemetryEvent::UnwarnedDeath { .. } => {
                self.revocations += 1
            }
            TelemetryEvent::MigrationStarted { .. } => self.migrations += 1,
            TelemetryEvent::MigrationAborted { .. } => self.migration_aborts += 1,
            TelemetryEvent::FaultInjected { .. } => self.faults += 1,
            TelemetryEvent::BackoffScheduled { .. } => self.backoffs += 1,
            TelemetryEvent::StormStarted { .. } => self.storm_episodes += 1,
            TelemetryEvent::JobRestarted { .. } => self.job_restarts += 1,
            TelemetryEvent::JobCheckpointed { .. } => self.job_checkpoints += 1,
            _ => {}
        }
    }

    /// Add these counts to the per-layer sums they feed.
    pub fn export(&self, layers: &mut BTreeMap<&'static str, f64>) {
        for (k, v) in [
            ("telemetry.events", self.events),
            ("core.events", self.events),
            ("cloudsim.lease_requests", self.granted + self.denied),
            ("cloudsim.granted", self.granted),
            ("cloudsim.revocations", self.revocations),
            ("virt.migrations", self.migrations),
            ("virt.aborts", self.migration_aborts),
            ("faults.injected", self.faults),
            ("faults.backoffs", self.backoffs),
            ("faults.storm_episodes", self.storm_episodes),
            ("forecast.bids", self.bids),
            ("forecast.risk_bids", self.risk_bids),
            ("jobs.restarts", self.job_restarts),
            ("jobs.checkpoints", self.job_checkpoints),
        ] {
            *layers.entry(k).or_default() += v as f64;
        }
    }
}

impl Sink for Counts {
    const ENABLED: bool = true;

    fn emit(&mut self, _at: SimTime, event: TelemetryEvent) {
        self.observe(&event);
    }
}

/// A fleet's sink factory that gives every VM a sink counting into one
/// shared tally (fleets step their VMs on one thread).
#[derive(Default)]
pub struct CountFactory(pub Rc<RefCell<Counts>>);

pub struct SharedCounts(Rc<RefCell<Counts>>);

impl Sink for SharedCounts {
    const ENABLED: bool = true;

    fn emit(&mut self, _at: SimTime, event: TelemetryEvent) {
        self.0.borrow_mut().observe(&event);
    }
}

impl SinkFactory for CountFactory {
    type Sink = SharedCounts;

    fn make(&mut self, _idx: u32) -> SharedCounts {
        SharedCounts(Rc::clone(&self.0))
    }
}

/// Time spent inside a wrapped sink: its `emit` calls, and the final
/// flush it does when dropped (a columnar sink seals its partial block).
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkTime {
    pub events: u64,
    pub emit_ns: u64,
    pub drop_ns: u64,
}

/// Wraps every sink a factory makes in a [`TimedSink`].
pub struct TimedFactory<F> {
    pub inner: F,
    pub time: Rc<RefCell<SinkTime>>,
}

pub struct TimedSink<S> {
    inner: Option<S>,
    time: Rc<RefCell<SinkTime>>,
}

impl<S: Sink> Sink for TimedSink<S> {
    const ENABLED: bool = true;

    fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        let t0 = Instant::now();
        if let Some(s) = &mut self.inner {
            s.emit(at, event);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let mut t = self.time.borrow_mut();
        t.events += 1;
        t.emit_ns += ns;
    }
}

impl<S> Drop for TimedSink<S> {
    fn drop(&mut self) {
        let t0 = Instant::now();
        drop(self.inner.take());
        self.time.borrow_mut().drop_ns += t0.elapsed().as_nanos() as u64;
    }
}

impl<F: SinkFactory> SinkFactory for TimedFactory<F> {
    type Sink = TimedSink<F::Sink>;

    fn make(&mut self, idx: u32) -> Self::Sink {
        TimedSink {
            inner: Some(self.inner.make(idx)),
            time: Rc::clone(&self.time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children_and_charges() {
        let t = Tracer::new();
        t.span("bench.pass", ROOT, |p| {
            t.span("core.run", p, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.charge("telemetry", p, 1_000_000);
        });
        let own = t.self_seconds();
        assert!(own["core"] >= 0.02);
        assert!(own["bench"] < own["core"]);
        assert!((own["telemetry"] - 0.001).abs() < 1e-12);
    }
}
