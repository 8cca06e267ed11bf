//! The cloud scheduler as a discrete-event simulation (§3).
//!
//! One [`SimRun`] hosts one always-on service against one generated price
//! history. The service state machine:
//!
//! ```text
//!        Boot ──ready──▶ Active ◀────────────────┐
//!                        │  │ boundary decision  │ resume
//!                        │  └──▶ Migrating ──▶ switchover (becomes Active)
//!            revocation  │            │
//!              warning   ▼            │ warning on old server
//!                     Evacuating ◀────┘        (forced migration)
//!                        │
//!                        └─ pure-spot only: DownWaiting ──▶ Restoring
//! ```
//!
//! Decisions follow §3.1 exactly:
//! * **Forced migration** — the provider delivers a two-minute warning
//!   when the spot price exceeds the bid; the bounded checkpoint is
//!   flushed inside the window and the VM restores on a replacement
//!   on-demand server (or, for pure-spot, whenever the market returns).
//! * **Planned migration** — evaluated shortly before each instance-hour
//!   billing boundary (mid-hour price rises cost nothing, §2.1): if the
//!   current spot price exceeds the on-demand price, move to the cheapest
//!   attractive spot market, else to on-demand. Proactive only.
//! * **Reverse migration** — evaluated at on-demand billing boundaries:
//!   return to spot as soon as a market is cheaper than on-demand.

use crate::accounting::Accounting;
use crate::capacity::servers_needed;
use crate::config::SchedulerConfig;
use crate::policy::BiddingPolicy;
use crate::report::RunReport;
use crate::strategy::MarketScope;
use spothost_cloudsim::{
    CloudProvider, EventQueue, InstanceId, InstanceState, RequestError, StartupModel,
    TerminationReason,
};
use spothost_faults::{acquire_backoff, FaultKind, FaultPlan, StormSchedule};
use spothost_forecast::{ForecastParams, MarketForecaster};
use spothost_market::gen::TraceSet;
use spothost_market::time::{SimDuration, SimTime, MILLIS_PER_DAY, MILLIS_PER_HOUR};
use spothost_market::trace::{TraceCursor, TrailingWindow};
use spothost_market::types::{MarketId, Zone};
use spothost_telemetry::{
    DenialReason, MigrationPhase, NullSink, SchedulerState, Sink, TelemetryEvent,
};
use spothost_virt::{
    lazy_restore, plan_migration, plan_migration_live_aborted, standard_restore, MechanismCombo,
    MigrationContext, MigrationKind, MigrationTiming, RestoreOutcome, VirtParams, VmSpec,
};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Cold-boot time of the hosted service from its disk volume under the
/// naive (Figure 3) recovery: OS boot plus application start.
const NAIVE_SERVICE_BOOT: SimDuration = SimDuration(60 * 1000);

/// Disk state (GiB) replicated on a cross-region move.
const DISK_GIB: f64 = 8.0;

/// Safety margin added to the migration decision lead time.
const LEAD_SLACK: SimDuration = SimDuration(120 * 1000);

/// The trailing price history the stability penalty reads.
const STABILITY_WINDOW: SimDuration = SimDuration(7 * MILLIS_PER_DAY);

/// After this much continuous uptime on one lease, the reacquire backoff
/// ladder resets to its 60 s base. Shorter stints keep their escalated
/// backoff so a brief mid-storm activation cannot re-arm the thundering
/// herd.
const STABLE_BACKOFF_RESET: SimDuration = SimDuration(30 * 60 * 1000);

/// Scheduler events. Instance ids double as generation tokens: an event
/// whose id no longer matches the current state is stale and ignored.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A requested server reaches its ready time.
    Ready(InstanceId),
    /// Revocation warning for a running spot lease. Carries the provider's
    /// termination time: a fault-delayed warning shrinks the grace window,
    /// so the receiver cannot assume `now + REVOCATION_GRACE`.
    Warning(InstanceId, SimTime),
    /// Forced termination of a revoked lease (warning + grace).
    Terminate(InstanceId),
    /// Unwarned revocation (injected warning-miss fault): the lease dies
    /// right now, with no grace window and no checkpoint flush.
    Died(InstanceId),
    /// Billing-boundary decision point for the active lease.
    Boundary(InstanceId),
    /// A voluntary migration's switchover moment (id = target).
    Switchover(InstanceId),
    /// Service resumes after a forced migration / pure-spot restore
    /// (id = replacement server).
    ResumeDone(InstanceId),
    /// Pure-spot: the market has become affordable again; re-acquire.
    SpotRetry,
    /// Retry an acquisition that failed with an injected provider fault,
    /// after a bounded backoff.
    Reacquire,
}

/// Storm-episode edges, merged into the event stream straight from the
/// shared storm timeline instead of being queued: one cursor per scope
/// zone into the schedule's episode list.
///
/// Edges are not telemetry only. An episode start in the active spot
/// lease's zone triggers a storm evacuation, so when an edge is
/// dispatched relative to the queued events is part of the output.
/// [`SimRun::step_until`] merges them with the queue by this tie rule: an
/// edge goes before any queued event of the same time, and edges of the
/// same time go in scope-zone order (the order `MarketScope::zones` lists
/// them). Within one zone edges strictly increase, because a zone's
/// episodes never touch. This is the `(time, sequence)` order the edges
/// would have if all of them were queued, zone by zone, before the run's
/// first event.
#[derive(Debug, Clone, Copy)]
struct StormEdges {
    /// Per scope zone, in scope order: the zone and the index of its next
    /// edge (`2i` is episode `i`'s start, `2i + 1` its end).
    cursors: [(Zone, usize); 4],
    /// Cursors in use: the scope's zone count, or 0 without storms.
    len: usize,
    /// Edges at or past this instant (the run's horizon) never fire.
    end: SimTime,
    /// The earliest pending edge and the cursor it belongs to.
    next: Option<(SimTime, usize)>,
}

impl StormEdges {
    /// Cursors at the first edge of each of `zones`, or no cursors at all
    /// without a schedule. `zones` holds at most four distinct zones
    /// ([`SchedulerConfig::validate`] rejects a repeated one).
    fn new(storms: Option<&StormSchedule>, zones: &[Zone], end: SimTime) -> Self {
        let mut edges = StormEdges {
            cursors: [(Zone::UsEast1a, 0); 4],
            len: 0,
            end,
            next: None,
        };
        if let Some(s) = storms {
            for (slot, &zone) in edges.cursors.iter_mut().zip(zones) {
                *slot = (zone, 0);
            }
            edges.len = zones.len();
            edges.refresh(s);
        }
        edges
    }

    /// Move every cursor to its zone's first edge at or after `at`.
    fn seek(&mut self, storms: &StormSchedule, at: SimTime) {
        for (zone, next) in &mut self.cursors[..self.len] {
            let eps = storms.episodes(*zone);
            let i = eps.partition_point(|e| e.end < at);
            *next = 2 * i + usize::from(eps.get(i).is_some_and(|e| e.start < at));
        }
        self.refresh(storms);
    }

    /// Recompute `next`: the earliest cursor edge before `end`, the first
    /// cursor in scope order on a tie.
    fn refresh(&mut self, storms: &StormSchedule) {
        self.next = None;
        for (i, &(zone, k)) in self.cursors[..self.len].iter().enumerate() {
            let Some(ep) = storms.episodes(zone).get(k / 2) else {
                continue;
            };
            let t = if k % 2 == 0 { ep.start } else { ep.end };
            if t < self.end && self.next.is_none_or(|(best, _)| t < best) {
                self.next = Some((t, i));
            }
        }
    }

    /// Consume the `next` edge: its zone, and whether it starts an
    /// episode.
    fn pop(&mut self, storms: &StormSchedule, slot: usize) -> (Zone, bool) {
        let (zone, k) = self.cursors[slot];
        self.cursors[slot].1 += 1;
        self.refresh(storms);
        (zone, k % 2 == 0)
    }
}

/// A running lease the service lives on.
#[derive(Debug, Clone, Copy)]
struct Lease {
    id: InstanceId,
    market: MarketId,
    is_spot: bool,
    start: SimTime,
}

/// A requested server that hasn't been switched to yet.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: InstanceId,
    market: MarketId,
    is_spot: bool,
    ready_at: SimTime,
}

impl Pending {
    fn into_lease(self) -> Lease {
        Lease {
            id: self.id,
            market: self.market,
            is_spot: self.is_spot,
            start: self.ready_at,
        }
    }
}

#[derive(Debug)]
enum St {
    /// Initial acquisition (no accounting until the service is up).
    Boot {
        target: Option<Pending>,
    },
    Active {
        lease: Lease,
    },
    /// Voluntary migration in progress.
    Migrating {
        from: Lease,
        to: Pending,
        kind: MigrationKind,
        timing: Option<MigrationTiming>,
    },
    /// Forced migration: old server dying (or dead), replacement restoring.
    Evacuating {
        to: Pending,
        degraded: SimDuration,
        /// The market the service is moving off — sizes the restore if the
        /// replacement itself fails and recovery has to start over.
        from_market: MarketId,
        /// Recovery is a cold boot from the disk volume (no usable memory
        /// checkpoint), not a checkpoint restore.
        cold: bool,
    },
    /// Pure-spot: down, waiting for the price to return below the bid.
    DownWaiting {
        cold: bool,
    },
    /// Pure-spot: replacement requested, waiting for boot + restore.
    Restoring {
        target: Pending,
        cold: bool,
    },
    /// Down with acquisition repeatedly faulting; backing off before the
    /// next attempt.
    Reacquiring {
        zone: Zone,
        from_market: MarketId,
        cold: bool,
    },
}

/// A candidate spot market at a moment in time.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    market: MarketId,
    bid: f64,
    /// The aggregate $/hour for the whole service in this market right
    /// now, plus the stability penalty — what selection decisions
    /// compare. Equals the raw rate when `stability_weight` is zero.
    score: f64,
    /// Forecast-predicted P(revocation within the next hour) at `bid`.
    /// `None` unless the adaptive policy's forecaster produced the bid.
    risk: Option<f64>,
    /// The candidate's zone is inside a storm episode right now. Storming
    /// candidates carry a full baseline-rate score surcharge and rank
    /// after every calm candidate, so recovery prefers markets outside
    /// the storming scope.
    storm: bool,
}

/// The market ranking, stated once: the cheapest `score` first; in a
/// multi-market or multi-region scope, a score tie goes to the calmer
/// candidate by the risk key `risk.unwrap_or(prior) + storm`; any tie
/// left keeps candidate order. [`SimRun::best_spot`] takes the first of
/// equal minima and [`SimRun::ranked_spots`] sorts stably, so both keep
/// that last rule.
#[derive(Debug, Clone, Copy)]
struct SpotRank {
    /// Score ties break by risk. False in a single-market scope, which has
    /// nothing to reorder: its runs stay bit-identical whether or not a
    /// forecaster is attached.
    by_risk: bool,
    /// The risk charged to a candidate whose forecaster has no estimate.
    prior: f64,
}

impl SpotRank {
    fn cmp(&self, a: &Candidate, b: &Candidate) -> Ordering {
        let by_score = a.score.total_cmp(&b.score);
        if !self.by_risk {
            return by_score;
        }
        by_score.then_with(|| self.risk_key(a).total_cmp(&self.risk_key(b)))
    }

    /// A storming zone is charged a full unit of risk on top of any
    /// forecast, so among equal scores calm zones rank first. With no
    /// forecaster attached every calm key is 0.
    fn risk_key(&self, c: &Candidate) -> f64 {
        c.risk.unwrap_or(self.prior) + if c.storm { 1.0 } else { 0.0 }
    }
}

/// Per-market online forecaster state for the adaptive policy (`None` on
/// every other policy — the field then adds nothing to the run).
///
/// Entries are aligned index-for-index with `SimRun::candidates`, whose
/// order `MarketScope::candidates` pins canonically, so forecaster state
/// is a deterministic function of (trace set, config) alone.
struct ForecastState<'t> {
    risk_budget: f64,
    per_market: Vec<(TraceCursor<'t>, MarketForecaster)>,
}

impl St {
    /// Telemetry label for this state.
    fn label(&self) -> SchedulerState {
        match self {
            St::Boot { .. } => SchedulerState::Boot,
            St::Active { .. } => SchedulerState::Active,
            St::Migrating { .. } => SchedulerState::Migrating,
            St::Evacuating { .. } => SchedulerState::Evacuating,
            St::DownWaiting { .. } => SchedulerState::DownWaiting,
            St::Restoring { .. } => SchedulerState::Restoring,
            St::Reacquiring { .. } => SchedulerState::Reacquiring,
        }
    }
}

/// One simulation run of the scheduler.
///
/// Generic over a telemetry [`Sink`]; the default [`NullSink`] is
/// statically disabled, so every emission site below compiles to nothing
/// and the uninstrumented run is bit-identical to a build without
/// telemetry. Attach a real sink with [`SimRun::with_sink`].
pub struct SimRun<'t, S: Sink = NullSink> {
    provider: CloudProvider<'t>,
    /// What every run of this configuration shares: the validated config,
    /// its candidates and the values derived from them.
    plan: Arc<RunPlan<'t>>,
    queue: EventQueue<Ev>,
    st: St,
    acc: Accounting,
    horizon: SimTime,
    now: SimTime,
    /// Set while the service is down (downtime interval open end).
    down_since: Option<SimTime>,
    /// Mechanism-side fault draws (checkpoint/live/lazy). `None` unless
    /// fault injection is enabled; the provider holds its own plan. Boxed,
    /// so a run without faults does not carry an empty plan's space
    /// through every move.
    faults: Option<Box<FaultPlan>>,
    /// Correlated-failure storm schedule (a clone of the provider's: both
    /// share one episode timeline, the scheduler uses only the jitter
    /// stream and the provider only the crunch stream, so the clones never
    /// diverge). `None` unless storms are configured.
    storms: Option<StormSchedule>,
    /// Cursors of the storm edges not yet dispatched.
    edges: StormEdges,
    /// Per-zone end of the storm episode in which a capacity fault was
    /// last observed. Market ranking shuns a storming zone only while
    /// `now` is inside this window: a storm becomes evidence against its
    /// zone once it has actually refused capacity, not before. Mild
    /// episodes therefore keep cheap in-zone recovery; crunching ones
    /// push the scheduler toward calm zones until they blow over.
    zone_shunned_until: [SimTime; 4],
    /// Consecutive faulted acquisition attempts (drives the backoff).
    acquire_attempts: u32,
    /// Start of the current continuous `Active` stint. Leaving `Active`
    /// after at least `STABLE_BACKOFF_RESET` of uptime resets
    /// `acquire_attempts` to the 60 s base; shorter stints keep their
    /// escalated backoff so a brief mid-storm activation cannot re-arm
    /// the thundering herd.
    active_since: Option<SimTime>,
    /// First moment initial acquisition was blocked by a fault, while the
    /// service has never been up. Lets `finish` report a run that never
    /// started as a full outage instead of an empty span.
    boot_blocked_since: Option<SimTime>,
    /// Online per-market forecasters (adaptive policy only).
    forecast: Option<ForecastState<'t>>,
    /// Per candidate (index-aligned with `candidates`): the share of the
    /// trailing week its price spent above its on-demand price. Empty
    /// unless `stability_weight` is positive.
    windows: Vec<TrailingWindow<'t>>,
    /// The spot candidates of the decision being made. Recycled through
    /// [`SimScratch`], so a decision allocates nothing.
    spots: Vec<Candidate>,
    /// Telemetry sink (the default `NullSink` compiles to nothing).
    sink: S,
}

/// Reusable per-worker scratch state for [`SimRun`]: the event queue's
/// heap allocation, the adaptive policy's forecaster buffers and the spot
/// candidate buffer survive from one run to the next instead of being
/// reallocated per run.
///
/// Determinism contract: a run built with [`SimRun::with_scratch`] on
/// previously used scratch is bit-identical to one built on
/// [`SimScratch::new`] — the queue is [`EventQueue::reset`] (heap emptied,
/// tie-breaking sequence counter rewound) and every recycled forecaster is
/// [`MarketForecaster::reset`] to its freshly constructed state. Only
/// allocation capacity carries over, and capacity is not observable.
pub struct SimScratch {
    queue: EventQueue<Ev>,
    forecasters: Vec<MarketForecaster>,
    spots: Vec<Candidate>,
}

impl SimScratch {
    /// Fresh scratch with a pre-sized event queue.
    pub fn new() -> Self {
        SimScratch {
            queue: EventQueue::with_capacity(1024),
            forecasters: Vec::new(),
            spots: Vec::new(),
        }
    }
}

impl Default for SimScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a [`RunPlan`] cannot be built for a configuration and trace set.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// [`SchedulerConfig::validate`] rejected the configuration.
    InvalidConfig(String),
    /// A candidate market of the configuration has no trace in the set.
    MissingTrace(MarketId),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InvalidConfig(e) => write!(f, "invalid scheduler config: {e}"),
            PlanError::MissingTrace(m) => write!(f, "trace set missing candidate market {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Everything a run derives from its configuration and trace set alone:
/// the validated config, its candidate markets and scope zones, the
/// virtualisation parameters, the baseline rate and the decision lead.
///
/// These are the same for every run of one configuration, whatever its
/// seed, so runs share one plan through an `Arc` instead of re-deriving
/// it: a fleet builds one plan and spawns every VM from it. Everything
/// seeded (the provider, fault plans, the storm schedule's streams, edge
/// cursors, forecasters and windows) stays per run.
#[derive(Debug)]
pub struct RunPlan<'t> {
    traces: &'t TraceSet,
    cfg: SchedulerConfig,
    /// The markets the scheduler may bid in, in `MarketScope::candidates`
    /// order; every one has a trace.
    candidates: Vec<MarketId>,
    /// The scope's zones, in `MarketScope::zones` order.
    zones: Vec<Zone>,
    vparams: VirtParams,
    baseline_rate: f64,
    /// Decision lead before billing boundaries.
    lead: SimDuration,
}

impl<'t> RunPlan<'t> {
    /// Validate `cfg` and check that `traces` covers each of its
    /// candidate markets, then derive what its runs share.
    pub fn new(traces: &'t TraceSet, cfg: &SchedulerConfig) -> Result<Self, PlanError> {
        cfg.validate().map_err(PlanError::InvalidConfig)?;
        let candidates = cfg.candidates();
        if let Some(&m) = candidates.iter().find(|&&m| traces.trace(m).is_none()) {
            return Err(PlanError::MissingTrace(m));
        }
        let vparams = cfg.virt_params();
        let lead = compute_lead(&vparams, &candidates);
        Ok(RunPlan {
            traces,
            baseline_rate: cfg
                .scope
                .baseline_rate(traces.catalog(), cfg.capacity_units),
            zones: cfg.scope.zones(),
            cfg: cfg.clone(),
            candidates,
            vparams,
            lead,
        })
    }
}

// `new` is defined concretely on the `NullSink` instantiation: default
// type parameters don't guide function-call inference, so this is what
// keeps every existing `SimRun::new(..)` call site compiling unchanged.
impl<'t> SimRun<'t, NullSink> {
    /// Build a run over a trace set. Panics on an invalid config or if the
    /// traces don't cover the configured scope ([`RunPlan::new`] returns
    /// both as errors instead).
    pub fn new(traces: &'t TraceSet, cfg: &SchedulerConfig, seed: u64) -> Self {
        Self::with_scratch(traces, cfg, seed, SimScratch::new())
    }

    /// [`SimRun::new`] reusing a worker's scratch state. Bit-identical to
    /// `new` (see [`SimScratch`]); pair with [`SimRun::run_reclaim`] to
    /// recover the scratch after the run.
    pub fn with_scratch(
        traces: &'t TraceSet,
        cfg: &SchedulerConfig,
        seed: u64,
        scratch: SimScratch,
    ) -> Self {
        match RunPlan::new(traces, cfg) {
            Ok(plan) => Self::from_plan(Arc::new(plan), seed, scratch),
            Err(e) => panic!("{e}"),
        }
    }

    /// A run of `plan`'s configuration with run seed `seed`. Bit-identical
    /// to [`SimRun::with_scratch`] over the plan's traces and config.
    pub fn from_plan(plan: Arc<RunPlan<'t>>, seed: u64, scratch: SimScratch) -> Self {
        let traces = plan.traces;
        let cfg = &plan.cfg;
        let horizon = SimTime::ZERO + traces.horizon();
        // Storms ride their own seed-derived streams, independent of the
        // fault streams; a fleet pins one schedule in the config so every
        // service in it shares the same episode timeline. An effect-free
        // storm config builds no schedule at all — bit-identical to a
        // build without any of this.
        let storms = cfg.run_storms(traces, seed);
        let (provider, faults) = CloudProvider::for_run(traces, seed, &cfg.faults, storms.as_ref());
        let edges = StormEdges::new(storms.as_ref(), &plan.zones, horizon);
        let SimScratch {
            mut queue,
            mut forecasters,
            mut spots,
        } = scratch;
        queue.reset();
        spots.clear();
        spots.reserve_exact(plan.candidates.len());
        let covered = "the plan checked every candidate's trace";
        let forecast = match cfg.policy {
            BiddingPolicy::Adaptive { risk_budget } => Some(ForecastState {
                risk_budget,
                per_market: plan
                    .candidates
                    .iter()
                    .map(|m| {
                        let trace = traces.trace(*m).expect(covered);
                        // Recycle a forecaster from the scratch pool when
                        // one is available; reset makes it bit-identical
                        // to a fresh one.
                        let fc = match forecasters.pop() {
                            Some(mut f) => {
                                f.reset(ForecastParams::default());
                                f
                            }
                            None => MarketForecaster::new(ForecastParams::default()),
                        };
                        (trace.cursor(), fc)
                    })
                    .collect(),
            }),
            _ => None,
        };
        let windows = if cfg.stability_weight > 0.0 {
            plan.candidates
                .iter()
                .map(|&m| {
                    let trace = traces.trace(m).expect(covered);
                    trace.trailing_window(STABILITY_WINDOW, traces.catalog().on_demand_price(m))
                })
                .collect()
        } else {
            Vec::new()
        };
        SimRun {
            provider,
            plan,
            queue,
            st: St::Boot { target: None },
            acc: Accounting::new(),
            horizon,
            now: SimTime::ZERO,
            down_since: None,
            faults,
            storms,
            edges,
            zone_shunned_until: [SimTime::ZERO; 4],
            acquire_attempts: 0,
            active_since: None,
            boot_blocked_since: None,
            forecast,
            windows,
            spots,
            sink: NullSink,
        }
    }
}

impl<'t, S: Sink> SimRun<'t, S> {
    /// Attach a telemetry sink, rebuilding the run at the new sink type.
    /// Sinks implement `Sink` for `&mut S` too, so callers can lend a
    /// recorder and keep it: `.with_sink(&mut recorder)`.
    pub fn with_sink<S2: Sink>(self, sink: S2) -> SimRun<'t, S2> {
        SimRun {
            provider: self.provider,
            plan: self.plan,
            queue: self.queue,
            st: self.st,
            acc: self.acc,
            horizon: self.horizon,
            now: self.now,
            down_since: self.down_since,
            faults: self.faults,
            storms: self.storms,
            edges: self.edges,
            zone_shunned_until: self.zone_shunned_until,
            acquire_attempts: self.acquire_attempts,
            active_since: self.active_since,
            boot_blocked_since: self.boot_blocked_since,
            forecast: self.forecast,
            windows: self.windows,
            spots: self.spots,
            sink,
        }
    }

    /// Replace the startup model (tests use the deterministic one).
    pub fn with_startup_model(mut self, model: StartupModel) -> Self {
        self.provider = self.provider.with_startup_model(model);
        self
    }

    /// Execute the run to the horizon and report.
    pub fn run(self) -> RunReport {
        self.run_reclaim().0
    }

    /// [`SimRun::run`], additionally handing back the run's scratch state
    /// (event-queue heap, forecaster and candidate buffers) for reuse by
    /// the caller's next [`SimRun::with_scratch`].
    pub fn run_reclaim(mut self) -> (RunReport, SimScratch) {
        self.begin();
        self.step_until(SimTime::MAX);
        let horizon = self.horizon;
        self.finish_at(horizon)
    }

    // --- incremental stepping (fleet driver) --------------------------------

    /// Shift the run's starting time to `at` before [`SimRun::begin`]: the
    /// initial acquisition happens at `at` against the prices of that
    /// moment, and accounting spans `[at, horizon]`. A fleet autoscaler
    /// uses this to spin up a VM mid-simulation on the shared global
    /// clock, so every scheduler in the fleet observes the same market
    /// history at the same simulated instant.
    ///
    /// Storm edges before `at` never fire (time must never move
    /// backwards): the edge cursors skip to the first edge at or after
    /// `at`. The storm's other effects are schedule queries at the time
    /// they are made and need no skipping.
    pub fn with_start(mut self, at: SimTime) -> Self {
        assert!(
            at <= self.horizon,
            "start {at:?} must not pass the horizon {:?}",
            self.horizon
        );
        debug_assert!(self.queue.is_empty(), "with_start must precede begin");
        if let Some(s) = &self.storms {
            self.edges.seek(s, at);
        }
        self.now = at;
        self
    }

    /// Start the run: perform the initial acquisition at the current
    /// simulation time. Call exactly once, before any
    /// [`SimRun::step_until`]. ([`SimRun::run_reclaim`] calls it for you.)
    pub fn begin(&mut self) {
        self.initial_acquire();
    }

    /// Advance the run, dispatching every queued event and storm edge
    /// strictly before `limit`. Returns `true` when the run stopped *at*
    /// `limit` (or ran out of events) and is still live; `false` once the
    /// next event lies at or past its own horizon — the run is over and
    /// the only valid next call is [`SimRun::finish_at`]. That event stays
    /// queued, so the final sweep settles a revoked lease whose
    /// termination lies there.
    ///
    /// Storm edges are not queued: they come from cursors into the shared
    /// storm timeline and are merged with the queue here. An edge goes
    /// before a queued event of the same time, and same-time edges go in
    /// scope-zone order; edges change behaviour (an episode start can
    /// evacuate the active lease), so this tie rule is part of the output.
    pub fn step_until(&mut self, limit: SimTime) -> bool {
        loop {
            let queued = self.queue.peek_time();
            if let Some((t, slot)) = self.edges.next {
                if queued.is_none_or(|q| t <= q) {
                    if t >= limit {
                        return true;
                    }
                    let Some(storms) = &self.storms else {
                        unreachable!("storm edges come from the schedule");
                    };
                    let (zone, started) = self.edges.pop(storms, slot);
                    debug_assert!(t >= self.now, "time went backwards");
                    self.now = t;
                    self.on_storm_edge(zone, started);
                    continue;
                }
            }
            let Some(t) = queued else {
                return true;
            };
            if t >= self.horizon {
                return false;
            }
            if t >= limit {
                // The next event belongs to a later step window.
                return true;
            }
            let Some((t, ev)) = self.queue.pop() else {
                unreachable!("peek_time saw an event");
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatch(ev);
        }
    }

    /// The earliest limit past which [`SimRun::step_until`] would act:
    /// `step_until(limit)` dispatches something exactly when this lies
    /// before `limit` and before the horizon. A fleet steps only the VMs
    /// for which that holds, and leaves the rest untouched.
    /// `SimTime::MAX` when nothing is pending at all.
    pub fn next_due(&self) -> SimTime {
        let queued = self.queue.peek_time();
        match self.edges.next {
            Some((t, _)) if queued.is_none_or(|q| t <= q) => t,
            _ => queued.unwrap_or(SimTime::MAX),
        }
    }

    /// Finish the run at `at` (clamped to the configured horizon),
    /// settling every open lease there and reporting as if the run's
    /// horizon had been `at` all along. This is how a fleet autoscaler
    /// releases a VM mid-simulation: the report covers `[start, at]` and
    /// the scratch state is handed back for the next spawned VM.
    ///
    /// `finish_at(horizon)` after draining the queue is exactly the tail
    /// of [`SimRun::run_reclaim`].
    pub fn finish_at(mut self, at: SimTime) -> (RunReport, SimScratch) {
        assert!(at >= self.now, "cannot finish in the past");
        self.horizon = self.horizon.min(at);
        self.finish();
        let report = RunReport::from_accounting(&self.acc, self.horizon, self.plan.baseline_rate);
        let mut queue = self.queue;
        queue.reset();
        let forecasters = self
            .forecast
            .map(|fs| fs.per_market.into_iter().map(|(_, f)| f).collect())
            .unwrap_or_default();
        let scratch = SimScratch {
            queue,
            forecasters,
            spots: self.spots,
        };
        (report, scratch)
    }

    /// True while the hosted service is actually up: `Active`, or mid
    /// voluntary migration (the source keeps serving until switchover).
    /// Booting, evacuating, restoring, waiting and backing-off states are
    /// all down. A fleet load balancer routes users only to serving VMs.
    pub fn is_serving(&self) -> bool {
        matches!(self.st, St::Active { .. } | St::Migrating { .. })
    }

    /// Current simulation time of this run.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's horizon (end of the trace set).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    // --- telemetry ----------------------------------------------------------

    /// Emit one event at the current simulation time. Behind the default
    /// `NullSink` the guard is a compile-time `false`: the event
    /// construction at every call site is dead code and disappears.
    #[inline(always)]
    fn emit(&mut self, ev: TelemetryEvent) {
        if S::ENABLED {
            self.sink.emit(self.now, ev);
        }
    }

    /// Move the state machine to `st`, emitting the transition.
    ///
    /// This is the single choke point for `Active` stint tracking: entry
    /// stamps `active_since`, and exit resets the reacquire backoff
    /// ladder only after a stable stint (`STABLE_BACKOFF_RESET`). A
    /// brief mid-storm activation therefore keeps its escalated backoff
    /// instead of re-arming the thundering herd at the 60 s base.
    fn enter(&mut self, st: St) {
        let was_active = matches!(self.st, St::Active { .. });
        let is_active = matches!(st, St::Active { .. });
        if is_active && !was_active {
            self.active_since = Some(self.now);
        } else if was_active && !is_active {
            if let Some(since) = self.active_since.take() {
                if self.now - since >= STABLE_BACKOFF_RESET {
                    self.acquire_attempts = 0;
                }
            }
        }
        if S::ENABLED {
            self.sink
                .emit(self.now, TelemetryEvent::StateChange { state: st.label() });
        }
        self.st = st;
    }

    /// Request a server at `at`: a spot bid with the forecaster's
    /// revocation-risk estimate behind it (adaptive policy only), or an
    /// on-demand server when `bid` is `None`. Every request of the run
    /// goes through here. It emits the bid and the grant or denial, and
    /// queues a granted server's `Ready`. A capacity or quota refusal
    /// counts as a request fault; a spot bid below the price does not. A
    /// capacity refusal inside a storm shuns the zone. `at` lies in the
    /// future only for the naive restart, which requests its replacement
    /// at termination time.
    fn request(
        &mut self,
        market: MarketId,
        bid: Option<(f64, Option<f64>)>,
        at: SimTime,
    ) -> Result<Pending, RequestError> {
        let spot = bid.is_some();
        self.emit(TelemetryEvent::BidPlaced {
            market,
            bid: bid.map(|(b, _)| b),
            predicted_risk: bid.and_then(|(_, risk)| risk),
        });
        let granted = match bid {
            Some((b, _)) => self.provider.request_spot(market, b, at),
            None => self.provider.request_on_demand(market, at),
        };
        let (id, ready_at) = match granted {
            Ok(granted) => granted,
            Err(e) => {
                let fault = match e {
                    RequestError::InsufficientCapacity(_) => {
                        self.note_capacity_fault(market.zone, at);
                        self.emit(TelemetryEvent::FaultInjected {
                            kind: if spot {
                                FaultKind::SpotCapacity
                            } else {
                                FaultKind::OdCapacity
                            },
                        });
                        true
                    }
                    RequestError::QuotaExhausted(_) => {
                        self.emit(TelemetryEvent::QuotaExhausted { market });
                        true
                    }
                    _ => false,
                };
                self.acc.request_faults += u32::from(fault);
                self.emit(TelemetryEvent::LeaseDenied {
                    market,
                    spot,
                    reason: DenialReason::from(&e),
                });
                return Err(e);
            }
        };
        self.emit(TelemetryEvent::LeaseGranted {
            id,
            market,
            spot,
            ready_at,
        });
        self.queue.push(ready_at, Ev::Ready(id));
        Ok(Pending {
            id,
            market,
            is_spot: spot,
            ready_at,
        })
    }

    /// A capacity fault observed mid-storm marks the zone as shunned for
    /// the remainder of that episode: market ranking then prefers calm
    /// zones until the storm blows over. Faults outside any episode (or
    /// with storms disabled) leave ranking untouched — ordinary capacity
    /// blips are handled by the backoff ladder, not by fleeing the zone.
    fn note_capacity_fault(&mut self, zone: Zone, at: SimTime) {
        if let Some(end) = self.storms.as_mut().and_then(|s| s.episode_end(zone, at)) {
            let until = &mut self.zone_shunned_until[zone.index()];
            *until = (*until).max(end);
        }
    }

    /// Is the zone inside a storm episode that has refused capacity?
    /// Always false with storms disabled, so every shun-gated behavior
    /// collapses to the storm-free baseline bit-for-bit.
    fn zone_shunned(&self, zone: Zone) -> bool {
        self.now < self.zone_shunned_until[zone.index()]
    }

    /// `provider.activate` with activation telemetry. `doomed` must be
    /// read before activation consumes the doom marker.
    fn activate(&mut self, id: InstanceId, market: MarketId, doomed: bool) -> bool {
        let ok = self.provider.activate(id, self.now);
        if S::ENABLED {
            if ok {
                self.emit(TelemetryEvent::LeaseActivated { id, market });
            } else {
                if doomed {
                    self.emit(TelemetryEvent::FaultInjected {
                        kind: FaultKind::StartupFailure,
                    });
                }
                self.emit(TelemetryEvent::ActivationFailed { id, market, doomed });
            }
        }
        ok
    }

    /// `provider.volume_attach_delay` with fault telemetry.
    fn volume_attach_delay(&mut self) -> SimDuration {
        let d = self.provider.volume_attach_delay();
        if d > SimDuration::ZERO {
            self.emit(TelemetryEvent::FaultInjected {
                kind: FaultKind::VolumeDelay,
            });
        }
        d
    }

    /// Record (and emit) a service outage interval.
    fn add_downtime(&mut self, from: SimTime, to: SimTime) {
        if let Some((start, end)) = self.acc.add_downtime(from, to, self.horizon) {
            self.emit(TelemetryEvent::Outage { start, end });
        }
    }

    /// Record (and emit) a degraded-performance interval.
    fn add_degraded(&mut self, from: SimTime, to: SimTime) {
        if let Some((start, end)) = self.acc.add_degraded(from, to, self.horizon) {
            self.emit(TelemetryEvent::Degraded { start, end });
        }
    }

    // --- helpers -----------------------------------------------------------

    fn n_servers(&self, market: MarketId) -> f64 {
        servers_needed(self.plan.cfg.capacity_units, market.itype) as f64
    }

    fn vm_for(&self, market: MarketId) -> VmSpec {
        VmSpec::for_instance(market.itype)
    }

    fn restore_for(&self, market: MarketId) -> RestoreOutcome {
        let vm = self.vm_for(market);
        if self.plan.cfg.mechanism.lazy_restore {
            lazy_restore(&vm, &self.plan.vparams)
        } else {
            standard_restore(&vm, &self.plan.vparams)
        }
    }

    /// Restore outcome with any injected lazy-restore page-fault storm
    /// applied. Draws from the fault stream only for lazy restores.
    fn restore_with_faults(&mut self, market: MarketId) -> RestoreOutcome {
        self.set_mech_storm_mult(market.zone);
        let base = self.restore_for(market);
        if self.plan.cfg.mechanism.lazy_restore {
            if let Some(f) = &mut self.faults {
                let k = f.lazy_degraded_factor();
                if k != 1.0 {
                    self.emit(TelemetryEvent::FaultInjected {
                        kind: FaultKind::LazyStorm,
                    });
                }
                return base.inflate_degraded(k);
            }
        }
        base
    }

    fn fault_live_aborts(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|f| f.live_migration_aborts())
    }

    /// Suspend the VM on a warned lease in `zone` just early enough to
    /// flush the final checkpoint increment before `terminate_at`, and
    /// open the outage there. Returns whether recovery must cold-boot from
    /// the disk volume instead: the flush fails when the (possibly
    /// fault-shortened) grace window cannot fit it or the write itself
    /// faults, and the instance then serves until termination. Never cold
    /// in zero-fault runs: an on-time warning leaves the full grace
    /// window, which every configured flush bound fits.
    fn suspend(&mut self, zone: Zone, terminate_at: SimTime) -> bool {
        let flush = self.plan.vparams.final_ckpt_write();
        self.set_mech_storm_mult(zone);
        let cold = self.now + flush > terminate_at
            || self.faults.as_mut().is_some_and(|f| f.ckpt_write_fails());
        if cold {
            self.acc.ckpt_faults += 1;
            self.emit(TelemetryEvent::FaultInjected {
                kind: FaultKind::CkptWriteFail,
            });
            self.down_since = Some(terminate_at);
        } else {
            self.emit(TelemetryEvent::MigrationPhase {
                phase: MigrationPhase::CkptFlush,
                duration: flush,
            });
            self.down_since = Some(terminate_at.saturating_sub(flush));
        }
        cold
    }

    /// Point the mechanism fault plan's storm multiplier at this zone at
    /// the current moment (no-op without storms or without faults).
    fn set_mech_storm_mult(&mut self, zone: Zone) {
        if let (Some(s), Some(f)) = (&mut self.storms, &mut self.faults) {
            f.set_storm_multiplier(s.fault_multiplier(zone, self.now));
        }
    }

    /// A request was refused: wake up with `ev` (`Reacquire` or
    /// `SpotRetry`) after the backoff ladder's next delay
    /// ([`acquire_backoff`]) from `from`, unless that passes the horizon.
    /// `from` is now, or a pending termination time when the refused
    /// request was made ahead of the server's death. A service that has
    /// never been up is blocked from booting from here on.
    fn back_off(&mut self, from: SimTime, ev: Ev) {
        self.note_boot_blocked();
        let attempt = self.acquire_attempts;
        let at = from + acquire_backoff(&mut self.acquire_attempts, self.storms.as_mut());
        self.emit(TelemetryEvent::BackoffScheduled { attempt, until: at });
        if at < self.horizon {
            self.queue.push(at, ev);
        }
    }

    /// Record that initial acquisition is fault-blocked (no-op once the
    /// service has been up, or after the first blockage).
    fn note_boot_blocked(&mut self) {
        if self.acc.service_start.is_none() && self.boot_blocked_since.is_none() {
            self.boot_blocked_since = Some(self.now);
        }
    }

    /// The on-demand fallback market in `zone`.
    fn od_market(&self, zone: Zone) -> MarketId {
        self.plan
            .cfg
            .scope
            .on_demand_market(zone, self.plan.cfg.capacity_units)
    }

    /// Aggregate on-demand rate of the fallback server in `zone`.
    fn od_rate(&self, zone: Zone) -> f64 {
        let m = self.od_market(zone);
        self.provider.on_demand_price(m) * self.n_servers(m)
    }

    /// Advance every forecaster to the current simulation time, feeding
    /// the price history span `[fed_to, now)` exactly once. Strictly
    /// causal: nothing at or past `now` is ever observed, so the adaptive
    /// policy sees only what a real scheduler could have seen.
    fn feed_forecasters(&mut self) {
        let Some(fs) = &mut self.forecast else {
            return;
        };
        let now = self.now;
        for (cursor, fc) in &mut fs.per_market {
            let from = fc.fed_to();
            if from < now {
                cursor.feed_segments(from, now, |seg| fc.feed(seg));
            }
        }
    }

    /// Collect into `self.spots`, in candidate order, every spot candidate
    /// currently requestable (price at or below the policy bid),
    /// optionally excluding the current market, and return the ranking
    /// that orders them.
    fn collect_spots(&mut self, exclude: Option<MarketId>) -> SpotRank {
        self.feed_forecasters();
        let catalog = self.provider.traces().catalog();
        self.spots.clear();
        // By index: the stability penalty advances candidate `i`'s window.
        for i in 0..self.plan.candidates.len() {
            let m = self.plan.candidates[i];
            if Some(m) == exclude {
                continue;
            }
            let pon = catalog.on_demand_price(m);
            // Adaptive: per-market forecast decision (cheapest ladder bid
            // within the risk budget). Other policies: the fixed rule.
            let (bid, risk) = match &mut self.forecast {
                Some(fs) => {
                    let d = fs.per_market[i]
                        .1
                        .decide_bid(pon, catalog.max_bid(m), fs.risk_budget);
                    (Some(d.bid), d.predicted_risk)
                }
                None => (self.plan.cfg.policy.bid(pon, catalog.max_bid(m)), None),
            };
            let Some(bid) = bid else {
                continue;
            };
            let Some(price) = self.provider.spot_price(m, self.now) else {
                continue; // candidates are asserted to have traces in new()
            };
            if price > bid {
                continue; // request would be rejected
            }
            let rate = price * self.n_servers(m);
            // The risk surcharge is applied after the loop: a cold
            // forecaster's missing estimate is priced against the other
            // candidates' measurements, which aren't known until every
            // candidate has been collected.
            // A storming zone is never entered voluntarily: the surcharge
            // pushes its markets above the on-demand bar, so boundary and
            // reverse decisions wait out the episode from wherever the
            // service already is.
            let storm = self
                .storms
                .as_mut()
                .is_some_and(|s| s.is_storming(m.zone, self.now));
            let score = rate
                + self.stability_penalty(i)
                + if storm { self.plan.baseline_rate } else { 0.0 };
            self.spots.push(Candidate {
                market: m,
                bid,
                score,
                risk,
                storm,
            });
        }
        // Predicted revocation risk enters the score the same way the
        // stability penalty does: as an effective-rate surcharge, so a
        // calm market beats an equally cheap jittery one. A candidate
        // whose forecaster has no estimate yet must *not* read as
        // risk-free — unknown is not safe — so it is charged a
        // conservative prior: the highest measured risk among its rivals,
        // floored at the risk budget. When no candidate has a measurement
        // (warmup, or no forecaster attached) there is nothing to rank
        // against; the prior stays zero and the scoring is bit-identical
        // to the fixed-policy path.
        let max_measured = self
            .spots
            .iter()
            .filter_map(|c| c.risk)
            .fold(f64::NAN, f64::max);
        let prior = if max_measured.is_nan() {
            0.0
        } else {
            let floor = self.forecast.as_ref().map_or(0.0, |fs| fs.risk_budget);
            max_measured.max(floor)
        };
        for c in &mut self.spots {
            c.score += c.risk.unwrap_or(prior) * self.plan.baseline_rate;
        }
        SpotRank {
            by_risk: !matches!(self.plan.cfg.scope, MarketScope::Single(_)),
            prior,
        }
    }

    /// Every spot candidate currently requestable, best first (see
    /// [`SpotRank`]), optionally excluding the current market. For the
    /// callers that look past the first choice; each hands the buffer back
    /// to `self.spots` when done with it.
    fn ranked_spots(&mut self, exclude: Option<MarketId>) -> Vec<Candidate> {
        let rank = self.collect_spots(exclude);
        let mut ranked = std::mem::take(&mut self.spots);
        ranked.sort_by(|a, b| rank.cmp(a, b));
        ranked
    }

    /// The first of [`SimRun::ranked_spots`], found without sorting.
    fn best_spot(&mut self, exclude: Option<MarketId>) -> Option<Candidate> {
        let rank = self.collect_spots(exclude);
        self.spots.iter().min_by(|a, b| rank.cmp(a, b)).copied()
    }

    /// Stability-aware penalty on candidate `i` (§8 future work): the
    /// observable fraction of the trailing week spent above on-demand
    /// price — a direct revocation-risk proxy — scaled by the baseline
    /// rate and the configured weight. Zero weight = the paper's greedy
    /// cheapest-market selection. Simulated time never moves backwards,
    /// so each call slides the candidate's window forward.
    fn stability_penalty(&mut self, i: usize) -> f64 {
        let Some(window) = self.windows.get_mut(i) else {
            return 0.0; // zero weight: no windows
        };
        let risk = window.fraction_at(self.now);
        self.plan.cfg.stability_weight * self.plan.baseline_rate * risk
    }

    /// Close a lease (idempotent), billing it and recording time shares.
    fn close_lease(&mut self, id: InstanceId, reason: TerminationReason) {
        let Some(inst) = self.provider.instance(id) else {
            return;
        };
        if inst.is_terminated() {
            return;
        }
        let was_pending = matches!(inst.state, InstanceState::Pending { .. });
        let market = inst.market;
        let is_spot = inst.kind.is_spot();
        let start = inst.ready_at;
        let end = if was_pending {
            start
        } else {
            self.now.max(start)
        };
        let charge = self.provider.terminate(id, end, reason);
        let cost = charge * self.n_servers(market);
        self.acc.cost += cost;
        // The settlement event carries the exact aggregate amount added to
        // the run's cost: replaying `lease_closed` in stream order is
        // bit-identical to the accounting sum.
        self.emit(TelemetryEvent::LeaseClosed {
            id,
            market,
            spot: is_spot,
            reason,
            start,
            end,
            cost,
        });
        if !was_pending && end > start {
            let dur = end - start;
            if is_spot {
                self.acc.spot_time += dur;
            } else {
                self.acc.on_demand_time += dur;
            }
        }
    }

    /// Schedule the next billing-boundary decision for a lease, if the
    /// policy makes boundary decisions on this lease kind.
    fn schedule_boundary(&mut self, lease: &Lease) {
        let wanted = if lease.is_spot {
            self.plan.cfg.policy.plans_migrations()
        } else {
            // Reverse migrations happen from on-demand leases.
            self.plan.cfg.policy.uses_spot() && self.plan.cfg.policy.uses_on_demand_fallback()
        };
        if !wanted {
            return;
        }
        // First boundary b = start + k*1h with b - lead strictly in the
        // future.
        let elapsed = (self.now - lease.start).as_millis() + self.plan.lead.as_millis();
        let k = elapsed / MILLIS_PER_HOUR + 1;
        let at = lease.start + SimDuration::millis(k * MILLIS_PER_HOUR) - self.plan.lead;
        if at < self.horizon {
            self.queue.push(at, Ev::Boundary(lease.id));
        }
    }

    /// Schedule the revocation warning for a freshly activated spot lease.
    /// Warning faults surface here: a delayed warning fires late (carrying
    /// the unmoved termination time), a missing warning degenerates to a
    /// bare [`Ev::Died`] at termination.
    fn schedule_warning(&mut self, lease: &Lease) {
        if !lease.is_spot {
            return;
        }
        if let Some(sched) = self.provider.revocation_schedule(lease.id, self.now) {
            self.emit(TelemetryEvent::PriceCrossing {
                id: lease.id,
                market: lease.market,
                at: sched.crossing_at,
            });
            match sched.warning_at {
                Some(at) => {
                    // An on-time warning fires at the crossing; later means
                    // the fault plan delayed it into the grace window.
                    if at > sched.crossing_at {
                        self.emit(TelemetryEvent::FaultInjected {
                            kind: FaultKind::WarningDelay,
                        });
                    }
                    if at < self.horizon {
                        self.queue
                            .push(at, Ev::Warning(lease.id, sched.terminate_at));
                    }
                }
                None => {
                    self.emit(TelemetryEvent::FaultInjected {
                        kind: FaultKind::WarningMiss,
                    });
                    if sched.terminate_at < self.horizon {
                        self.queue.push(sched.terminate_at, Ev::Died(lease.id));
                    }
                }
            }
        }
    }

    /// The service is up on `lease`. `armed` says the lease's revocation
    /// warning is already scheduled (a voluntary target arms it when it
    /// activates, so a spike can abort the move).
    fn become_active(&mut self, lease: Lease, armed: bool) {
        let first = self.acc.service_start.is_none();
        if first {
            self.acc.service_start = Some(self.now);
        }
        self.emit(TelemetryEvent::ServiceUp {
            id: lease.id,
            market: lease.market,
            spot: lease.is_spot,
            first,
        });
        if !armed {
            self.schedule_warning(&lease);
        }
        self.schedule_boundary(&lease);
        self.enter(St::Active { lease });
    }

    // --- initial acquisition -----------------------------------------------

    /// Request the cheapest attractive spot market, walking down the
    /// ranking past refusals; a policy with an on-demand fallback takes
    /// it when no spot market beats the baseline or every one is refused.
    fn initial_acquire(&mut self) {
        if matches!(self.plan.cfg.policy, BiddingPolicy::OnDemandOnly) {
            return self.request_initial_od();
        }
        let fallback = self.plan.cfg.policy.uses_on_demand_fallback();
        let baseline = self.plan.baseline_rate;
        match self.request_ranked_spot(None, |_, c| !(fallback && c.score >= baseline)) {
            Ok(target) => self.enter(St::Boot {
                target: Some(target),
            }),
            Err(_) if fallback => self.request_initial_od(),
            Err(false) => self.schedule_spot_retry(),
            // A capacity fault while the price is attractive: a
            // price-based wakeup would fire immediately and spin, so back
            // off in real time instead.
            Err(true) => self.retry_boot_later(),
        }
    }

    fn request_initial_od(&mut self) {
        match self.request(self.od_market(self.plan.zones[0]), None, self.now) {
            Ok(target) => self.enter(St::Boot {
                target: Some(target),
            }),
            Err(_) => self.retry_boot_later(),
        }
    }

    /// Initial acquisition faulted: back off, then retry from scratch.
    fn retry_boot_later(&mut self) {
        self.back_off(self.now, Ev::Reacquire);
        self.enter(St::Boot { target: None });
    }

    /// Pure-spot: wake up when the first candidate market becomes
    /// affordable.
    fn schedule_spot_retry(&mut self) {
        self.spot_retry_from(self.plan.candidates[0], self.now);
    }

    /// Wake up with `SpotRetry` once `market` trades at or below the
    /// policy's bid, at or after `from`.
    fn spot_retry_from(&mut self, market: MarketId, from: SimTime) {
        let catalog = self.provider.traces().catalog();
        let Some(bid) = self
            .plan
            .cfg
            .policy
            .bid(catalog.on_demand_price(market), catalog.max_bid(market))
        else {
            return; // non-bidding policies never wait on a spot price
        };
        if let Some(at) = self.provider.next_time_at_or_below(market, from, bid) {
            if at < self.horizon {
                self.queue.push(at, Ev::SpotRetry);
            }
        }
    }

    // --- event dispatch -----------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Ready(id) => self.on_ready(id),
            Ev::Warning(id, terminate_at) => self.on_warning(id, terminate_at),
            Ev::Terminate(id) => self.close_lease(id, TerminationReason::Revoked),
            Ev::Died(id) => self.on_died(id),
            Ev::Boundary(id) => self.on_boundary(id),
            Ev::Switchover(id) => self.on_switchover(id),
            Ev::ResumeDone(id) => self.on_resume_done(id),
            Ev::SpotRetry => self.on_spot_retry(),
            Ev::Reacquire => self.on_reacquire(),
        }
    }

    /// A storm edge in a scope zone: telemetry, and on an episode start
    /// the storm evacuation below.
    fn on_storm_edge(&mut self, zone: Zone, started: bool) {
        self.emit(if started {
            TelemetryEvent::StormStarted { zone }
        } else {
            TelemetryEvent::StormEnded { zone }
        });
        if started {
            self.storm_evacuation(zone);
        }
    }

    /// Storm-safe evacuation: an episode onset in the active spot lease's
    /// zone is treated as an observable revocation-risk signal (in a real
    /// deployment: zone-wide revocation notices and correlated price
    /// jumps — the same contagion the schedule couples into the traces).
    /// Planning policies evacuate to in-zone on-demand, which mass
    /// revocations never touch: the switchover is minutes, not the tens
    /// of minutes a cross-region live migration needs, and a mass
    /// revocation mid-migration *reuses* an on-demand pending instead of
    /// abandoning it. The move to a calm spot market happens afterwards,
    /// from safety, at the next boundary's reverse decision — with the
    /// service up during the WAN pre-copy. If the request fails (capacity
    /// crunch, quota), the lease stays put and takes its chances —
    /// recovery then rides the jittered backoff ladder like any other
    /// loss.
    fn storm_evacuation(&mut self, zone: Zone) {
        if !self.plan.cfg.policy.plans_migrations() {
            return; // reactive/naive baselines keep their eyes closed
        }
        match self.st {
            St::Active { lease } if lease.is_spot && lease.market.zone == zone => {
                self.start_voluntary(lease, MigrationKind::Planned, None)
            }
            _ => {}
        }
    }

    fn on_ready(&mut self, id: InstanceId) {
        let target = match &self.st {
            St::Boot { target: Some(p) } | St::Restoring { target: p, .. } => *p,
            St::Migrating { to, .. } | St::Evacuating { to, .. } => *to,
            _ => return,
        };
        if target.id != id {
            return; // stale
        }
        // Whether an activation failure below is an injected startup fault
        // (vs a legitimate spot price rise) — must be read before
        // `activate` consumes the doom marker.
        let doomed = self.provider.is_doomed(id);
        let up = self.activate(id, target.market, doomed);
        // An injected startup fault is a refused request; so is any
        // replacement lost mid-evacuation, a spot one whose price rose
        // during boot included.
        if !up && (doomed || matches!(self.st, St::Evacuating { .. })) {
            self.acc.request_faults += 1;
        }
        match self.st {
            St::Boot { .. } if up => self.become_active(target.into_lease(), false),
            St::Boot { .. } => {
                // Spot price rose above the bid during boot, or the
                // startup was fault-doomed.
                if doomed {
                    self.note_boot_blocked();
                }
                if matches!(self.plan.cfg.policy, BiddingPolicy::PureSpot) {
                    self.enter(St::Boot { target: None });
                    self.schedule_spot_retry();
                } else {
                    self.request_initial_od();
                }
            }
            St::Migrating { from, kind, .. } if up => self.plan_switchover(from, target, kind),
            // Target market spiked during boot (or the startup was
            // fault-doomed): re-target to on-demand in the current zone.
            St::Migrating { from, kind, .. } => self.abort_migration(from, kind, true),
            St::Evacuating { .. } if up => {}
            St::Evacuating {
                from_market, cold, ..
            } => {
                // The replacement itself failed to come up. Its pending
                // ResumeDone is now stale (filtered by id); re-acquire
                // immediately — the service is already down, so there is
                // nothing to wait for.
                self.enter(St::Reacquiring {
                    zone: target.market.zone,
                    from_market,
                    cold,
                });
                self.queue.push(self.now, Ev::Reacquire);
            }
            St::Restoring { cold, .. } if up => {
                self.schedule_recovery_resume(target, target.market, cold, self.now)
            }
            St::Restoring { cold, .. } => {
                self.enter(St::DownWaiting { cold });
                self.schedule_spot_retry();
            }
            _ => unreachable!("the target came from one of the states above"),
        }
    }

    /// A voluntary migration's target is up: time the move and schedule
    /// its switchover.
    fn plan_switchover(&mut self, from: Lease, to: Pending, kind: MigrationKind) {
        let ctx = MigrationContext {
            vm: self.vm_for(from.market),
            from_region: from.market.zone.region(),
            to_region: to.market.zone.region(),
            disk_gib: DISK_GIB,
        };
        let live = self.plan.cfg.mechanism.live && kind.is_voluntary();
        let mut timing = plan_migration(self.plan.cfg.mechanism, kind, &ctx, &self.plan.vparams);
        let mut aborted = false;
        self.set_mech_storm_mult(from.market.zone);
        if live && self.fault_live_aborts() {
            // Pre-copy aborted mid-flight: fall back to a checkpoint
            // restore on the already-booted target.
            self.acc.live_aborts += 1;
            aborted = true;
            self.emit(TelemetryEvent::FaultInjected {
                kind: FaultKind::LiveAbort,
            });
            timing = plan_migration_live_aborted(
                self.plan.cfg.mechanism,
                kind,
                &ctx,
                &self.plan.vparams,
            );
        }
        if S::ENABLED {
            let phase = if live && !aborted {
                MigrationPhase::LivePrecopy
            } else {
                MigrationPhase::Prepare
            };
            self.emit(TelemetryEvent::MigrationPhase {
                phase,
                duration: timing.prepare,
            });
        }
        let sw = self.now + timing.prepare;
        self.queue.push(sw, Ev::Switchover(to.id));
        // Arm the new lease's own revocation warning so a spike in the
        // target market aborts the migration.
        self.schedule_warning(&to.into_lease());
        self.enter(St::Migrating {
            from,
            to,
            kind,
            timing: Some(timing),
        });
    }

    /// The serving lease and, mid voluntary migration, its target and the
    /// migration's kind. `None` while the service is down.
    fn serving(&self) -> Option<(Lease, Option<(Pending, MigrationKind)>)> {
        match &self.st {
            St::Active { lease } => Some((*lease, None)),
            St::Migrating { from, to, kind, .. } => Some((*from, Some((*to, *kind)))),
            _ => None,
        }
    }

    fn on_warning(&mut self, id: InstanceId, terminate_at: SimTime) {
        match self.serving() {
            Some((lease, target)) if lease.id == id => {
                self.emit(TelemetryEvent::RevocationWarning {
                    id,
                    market: lease.market,
                    terminate_at,
                });
                // Mid-migration, the voluntary move becomes a forced one.
                self.forced_migration(lease, target.map(|(to, _)| to), terminate_at);
            }
            Some((from, Some((to, kind)))) if to.id == id => {
                // The *target* market spiked before switchover: abort the
                // migration, let the provider revoke the target (its
                // partial hour is then free), and stay on the old server.
                self.emit(TelemetryEvent::RevocationWarning {
                    id,
                    market: to.market,
                    terminate_at,
                });
                self.queue.push(terminate_at, Ev::Terminate(id));
                self.abort_migration(from, kind, false);
            }
            _ => { /* stale */ }
        }
    }

    /// An unwarned revocation (injected warning-miss fault): the lease is
    /// gone *now* — no grace window, no final checkpoint flush. Recovery
    /// restores from the last bounded background checkpoint (the image on
    /// the volume is at most the checkpoint bound stale), or cold-boots
    /// under the naive baseline.
    fn on_died(&mut self, id: InstanceId) {
        match self.serving() {
            Some((lease, target)) if lease.id == id => {
                self.acc.forced_migrations += 1;
                self.acc.unwarned_revocations += 1;
                self.emit(TelemetryEvent::UnwarnedDeath {
                    id,
                    market: lease.market,
                });
                self.close_lease(id, TerminationReason::Revoked);
                self.down_since = Some(self.now);
                let cold = self.plan.cfg.naive_restart;
                if let Some(to) = self.keep_od_target(target.map(|(to, _)| to)) {
                    self.schedule_recovery_resume(to, lease.market, cold, self.now);
                } else if self.plan.cfg.policy.uses_on_demand_fallback() {
                    self.try_reacquire(lease.market.zone, lease.market, cold);
                } else {
                    self.enter(St::DownWaiting { cold });
                    self.schedule_spot_retry();
                }
            }
            Some((from, Some((to, kind)))) if to.id == id => {
                // The migration target died unwarned: abort, stay on the
                // old server.
                self.emit(TelemetryEvent::UnwarnedDeath {
                    id,
                    market: to.market,
                });
                self.close_lease(id, TerminationReason::Revoked);
                self.abort_migration(from, kind, false);
            }
            // Stale reference (the service moved off this lease before it
            // died): make sure the provider closes it.
            _ => self.close_lease(id, TerminationReason::Revoked),
        }
    }

    /// What a forced move keeps of an interrupted voluntary move's
    /// `target`: an on-demand target becomes the replacement, and a spot
    /// target, which would bill hourly while the service restores
    /// elsewhere, is walked away from.
    fn keep_od_target(&mut self, target: Option<Pending>) -> Option<Pending> {
        match target {
            Some(to) if to.is_spot => {
                self.close_lease(to.id, TerminationReason::Voluntary);
                None
            }
            to => to,
        }
    }

    /// Request an on-demand replacement for a lost lease; if it is
    /// refused, back off and retry.
    fn try_reacquire(&mut self, zone: Zone, from_market: MarketId, cold: bool) {
        match self.request(self.od_market(zone), None, self.now) {
            Ok(to) => self.schedule_recovery_resume(to, from_market, cold, self.now),
            Err(_) => self.reacquire_later(zone, from_market, cold, self.now),
        }
    }

    /// No replacement could be had: back off from `from`, then try again.
    fn reacquire_later(&mut self, zone: Zone, from_market: MarketId, cold: bool, from: SimTime) {
        self.back_off(from, Ev::Reacquire);
        self.enter(St::Reacquiring {
            zone,
            from_market,
            cold,
        });
    }

    /// A replacement server is requested (or already up): schedule the
    /// service resume on it and enter `Evacuating`. Every forced move
    /// resumes here. The restore starts once the replacement is up,
    /// `not_before` has passed (the old server's termination, while it
    /// flushes the checkpoint) and the checkpoint volume is attached.
    fn schedule_recovery_resume(
        &mut self,
        to: Pending,
        from_market: MarketId,
        cold: bool,
        not_before: SimTime,
    ) {
        let vol_delay = self.volume_attach_delay();
        let restore_start = to.ready_at.max(not_before) + vol_delay;
        let (latency, degraded) = if cold {
            (NAIVE_SERVICE_BOOT, SimDuration::ZERO)
        } else {
            let r = self.restore_with_faults(from_market);
            (r.resume_latency, r.degraded)
        };
        self.queue
            .push(restore_start + latency, Ev::ResumeDone(to.id));
        self.emit(TelemetryEvent::MigrationStarted {
            kind: MigrationKind::Forced,
            from: from_market,
            to: to.market,
        });
        if S::ENABLED {
            self.emit(TelemetryEvent::MigrationPhase {
                phase: MigrationPhase::Restore,
                duration: latency,
            });
            if degraded > SimDuration::ZERO {
                self.emit(TelemetryEvent::MigrationPhase {
                    phase: MigrationPhase::LazyFaultIn,
                    duration: degraded,
                });
            }
        }
        self.enter(St::Evacuating {
            to,
            degraded,
            from_market,
            cold,
        });
    }

    /// Handle a revocation warning on `lease`: flush the bounded
    /// checkpoint, acquire (or reuse) an on-demand replacement, restore.
    /// `target` is the interrupted voluntary move's, if any.
    /// `terminate_at` comes from the provider's schedule — a fault-delayed
    /// warning leaves less than the full grace window before it.
    fn forced_migration(&mut self, lease: Lease, target: Option<Pending>, terminate_at: SimTime) {
        let reuse = self.keep_od_target(target);
        self.queue.push(terminate_at, Ev::Terminate(lease.id));
        self.acc.forced_migrations += 1;
        let zone = lease.market.zone;
        if !self.plan.cfg.policy.uses_on_demand_fallback() {
            // Pure-spot: no replacement. Downtime runs from the suspend
            // until the market comes back and the VM restores; the
            // earliest sensible retry is after termination.
            let cold = self.suspend(zone, terminate_at);
            self.enter(St::DownWaiting { cold });
            self.spot_retry_from(lease.market, terminate_at);
            return;
        }
        if self.plan.cfg.naive_restart {
            // Figure 3: no checkpoint, no warning handling. The service
            // dies with the server; only then is an on-demand replacement
            // requested, and the service cold-boots from its network disk.
            // An interrupted move's on-demand target is not kept for it:
            // closing a pending lease costs nothing.
            if let Some(to) = reuse {
                self.close_lease(to.id, TerminationReason::Voluntary);
            }
            self.down_since = Some(terminate_at);
            match self.request(self.od_market(zone), None, terminate_at) {
                Ok(to) => self.schedule_recovery_resume(to, lease.market, true, terminate_at),
                Err(_) => self.reacquire_later(zone, lease.market, true, terminate_at),
            }
            return;
        }
        // Checkpoint path: the VM suspends to flush the final increment,
        // and the replacement is requested right away.
        let cold = self.suspend(zone, terminate_at);
        let to = match reuse {
            Some(to) => Some(to),
            None => match self.request(self.od_market(zone), None, self.now) {
                Ok(to) => Some(to),
                // Storm-aware fallback: when the refusal is storm
                // backpressure (the zone's episode has demonstrably
                // crunched — the request above just marked it), a backoff
                // window is pure downtime the service need not pay. Grab
                // a spot server wherever capacity remains; ranking shuns
                // the crunched zone, so calm markets come first. Ordinary
                // fault blips keep the plain backoff ladder.
                Err(_) if self.zone_shunned(zone) => {
                    self.request_ranked_spot(None, |_, _| true).ok()
                }
                Err(_) => None,
            },
        };
        match to {
            Some(to) => self.schedule_recovery_resume(to, lease.market, cold, terminate_at),
            None => self.reacquire_later(zone, lease.market, cold, terminate_at),
        }
    }

    fn on_boundary(&mut self, id: InstanceId) {
        let lease = match &self.st {
            St::Active { lease } if lease.id == id => *lease,
            _ => return, // stale
        };
        // Keep the lease's billing meter caught up: every instance-hour that
        // has completed by now is charged here, so settlement at close only
        // ever handles the final partial hour.
        self.provider.advance_billing(id, self.now);
        if lease.is_spot {
            self.spot_boundary_decision(lease);
        } else {
            self.od_boundary_decision(lease);
        }
    }

    /// §3.1 planned migration, evaluated `lead` before the billing boundary.
    fn spot_boundary_decision(&mut self, lease: Lease) {
        debug_assert!(self.plan.cfg.policy.plans_migrations());
        let Some(price) = self.provider.spot_price(lease.market, self.now) else {
            // Unreachable (the lease's market has a trace); keep the lease
            // running and re-decide next boundary rather than panic.
            self.schedule_boundary(&lease);
            return;
        };
        let current_rate = price * self.n_servers(lease.market);
        // Stability-aware: the occupied market's own risk counts too, so a
        // risky-but-cheap market can be left for a calm one. Spot leases
        // are only ever placed on candidates.
        let penalty = if self.windows.is_empty() {
            0.0
        } else {
            self.plan
                .candidates
                .iter()
                .position(|&m| m == lease.market)
                .map_or(0.0, |i| self.stability_penalty(i))
        };
        let current_score = current_rate + penalty;
        let od = self.od_rate(lease.market.zone);
        let best = self.best_spot(Some(lease.market));

        if current_rate >= od {
            // Must leave: cheapest attractive spot market, else on-demand.
            let target = best.filter(|b| b.score < self.od_rate(b.market.zone));
            self.start_voluntary(lease, MigrationKind::Planned, target);
        } else if let Some(b) =
            best.filter(|b| b.score < current_score * (1.0 - self.plan.cfg.hop_margin))
        {
            // Hop to a clearly better market (multi-market/multi-region
            // greedy step; "better" includes the stability penalty).
            self.start_voluntary(lease, MigrationKind::Planned, Some(b));
        } else {
            self.schedule_boundary(&lease);
        }
    }

    /// §3.1 reverse migration from an on-demand lease.
    fn od_boundary_decision(&mut self, lease: Lease) {
        let od = self.od_rate(lease.market.zone);
        match self.best_spot(None).filter(|b| b.score < od) {
            Some(b) => self.start_voluntary(lease, MigrationKind::Reverse, Some(b)),
            None => self.schedule_boundary(&lease),
        }
    }

    /// Request the best requestable spot market that `admit` lets
    /// through, walking down the ranking past refusals. `Err(true)` when
    /// a capacity fault refused one of them, `Err(false)` when none was
    /// admitted or each was refused for its price.
    fn request_ranked_spot(
        &mut self,
        exclude: Option<MarketId>,
        admit: impl Fn(&Self, &Candidate) -> bool,
    ) -> Result<Pending, bool> {
        let ranked = self.ranked_spots(exclude);
        let mut result = Err(false);
        for c in &ranked {
            if !admit(self, c) {
                continue;
            }
            match self.request(c.market, Some((c.bid, c.risk)), self.now) {
                Ok(p) => {
                    result = Ok(p);
                    break;
                }
                Err(RequestError::InsufficientCapacity(_)) => result = Err(true),
                Err(_) => {}
            }
        }
        self.spots = ranked;
        result
    }

    /// Request the chosen voluntary-migration target; on a capacity fault,
    /// fall through the remaining attractive markets cheapest-first.
    fn request_voluntary_spot(&mut self, from: &Lease, c: Candidate) -> Option<Pending> {
        match self.request(c.market, Some((c.bid, c.risk)), self.now) {
            Ok(p) => Some(p),
            // Still require each fallback to beat its zone's on-demand
            // rate — otherwise staying put (or the caller's on-demand
            // plan) is the better move.
            Err(RequestError::InsufficientCapacity(_)) => self
                .request_ranked_spot(from.is_spot.then_some(from.market), |s, cand| {
                    cand.market != c.market && cand.score < s.od_rate(cand.market.zone)
                })
                .ok(),
            Err(_) => None,
        }
    }

    /// Kick off a voluntary migration to a spot candidate (or on-demand if
    /// `target` is `None`).
    fn start_voluntary(&mut self, from: Lease, kind: MigrationKind, target: Option<Candidate>) {
        let to = match target {
            Some(c) => self.request_voluntary_spot(&from, c),
            None => self
                .request(self.od_market(from.market.zone), None, self.now)
                .ok(),
        };
        let Some(to) = to else {
            // Price moved between decision and request, or every request
            // was refused: stay put and re-decide at the next boundary.
            // The current server still runs; losing the planned move costs
            // money, not availability.
            self.schedule_boundary(&from);
            return;
        };
        self.emit(TelemetryEvent::MigrationStarted {
            kind,
            from: from.market,
            to: to.market,
        });
        self.enter(St::Migrating {
            from,
            to,
            kind,
            timing: None,
        });
    }

    /// Give up a voluntary migration off `from`, which still serves. With
    /// `retarget`, a planned move re-targets to on-demand in the current
    /// zone; otherwise, or when that request is refused, the service stays
    /// on `from` and re-decides at the next boundary.
    fn abort_migration(&mut self, from: Lease, kind: MigrationKind, retarget: bool) {
        self.acc.aborted_migrations += 1;
        self.emit(TelemetryEvent::MigrationAborted {
            kind,
            from: from.market,
        });
        // A reverse move is off on-demand already: nothing to re-target.
        if retarget && kind != MigrationKind::Reverse {
            if let Ok(to) = self.request(self.od_market(from.market.zone), None, self.now) {
                self.enter(St::Migrating {
                    from,
                    to,
                    kind,
                    timing: None,
                });
                return;
            }
        }
        self.enter(St::Active { lease: from });
        self.schedule_boundary(&from);
    }

    fn on_switchover(&mut self, target_id: InstanceId) {
        let (from, to, kind, timing) = match &self.st {
            St::Migrating {
                from,
                to,
                kind,
                timing: Some(t),
            } if to.id == target_id => (*from, *to, *kind, *t),
            _ => return, // stale (migration superseded or aborted)
        };
        // Account the switchover outage and any degraded tail.
        let down_end = self.now + timing.downtime;
        self.add_downtime(self.now, down_end);
        self.add_degraded(down_end, down_end + timing.degraded);
        match kind {
            MigrationKind::Planned => self.acc.planned_migrations += 1,
            MigrationKind::Reverse => self.acc.reverse_migrations += 1,
            MigrationKind::Forced => unreachable!("forced moves don't switch over here"),
        }
        self.emit(TelemetryEvent::MigrationCompleted {
            kind,
            from: from.market,
            to: to.market,
            downtime: timing.downtime,
            degraded: timing.degraded,
        });
        // Release the old server; voluntary, so the started hour is billed.
        self.close_lease(from.id, TerminationReason::Voluntary);
        // The new lease has been running (and billing) since its ready
        // time; its warning was armed at activation.
        self.become_active(to.into_lease(), true);
    }

    fn on_resume_done(&mut self, id: InstanceId) {
        match &self.st {
            St::Evacuating {
                to,
                degraded,
                from_market,
                ..
            } if to.id == id => {
                let (to, degraded, from_market) = (*to, *degraded, *from_market);
                let since = self.down_since.take();
                if let Some(s) = since {
                    self.add_downtime(s, self.now);
                }
                self.add_degraded(self.now, self.now + degraded);
                if S::ENABLED {
                    let downtime = since.map_or(SimDuration::ZERO, |s| self.now - s);
                    self.emit(TelemetryEvent::MigrationCompleted {
                        kind: MigrationKind::Forced,
                        from: from_market,
                        to: to.market,
                        downtime,
                        degraded,
                    });
                }
                self.become_active(to.into_lease(), false);
            }
            _ => { /* stale */ }
        }
    }

    /// A watched market is back at or below the bid, or a backoff ran
    /// out: while still booting or down (pure-spot), request the best
    /// spot market.
    fn on_spot_retry(&mut self) {
        let cold = match self.st {
            St::Boot { target: None } => None,
            St::DownWaiting { cold } => Some(cold),
            _ => return,
        };
        let Some(best) = self.best_spot(None) else {
            self.schedule_spot_retry();
            return;
        };
        match self.request(best.market, Some((best.bid, best.risk)), self.now) {
            Ok(target) => self.enter(match cold {
                None => St::Boot {
                    target: Some(target),
                },
                Some(cold) => St::Restoring { target, cold },
            }),
            // Capacity fault while the price is attractive: a price-based
            // wakeup would fire right now again, so back off in real time.
            Err(RequestError::InsufficientCapacity(_)) => self.back_off(self.now, Ev::SpotRetry),
            Err(_) => self.schedule_spot_retry(),
        }
    }

    /// Backoff expired after refused acquisitions: try again. A down
    /// service takes any server it can get — if the policy bids on spot at
    /// all, a currently-affordable spot market beats staying down waiting
    /// for on-demand capacity to return.
    fn on_reacquire(&mut self) {
        match self.st {
            St::Reacquiring {
                zone,
                from_market,
                cold,
            } => {
                if self.plan.cfg.policy.uses_spot() {
                    if let Ok(to) = self.request_ranked_spot(None, |_, _| true) {
                        self.schedule_recovery_resume(to, from_market, cold, self.now);
                        return;
                    }
                }
                self.try_reacquire(zone, from_market, cold);
            }
            St::Boot { target: None } => self.initial_acquire(),
            _ => { /* stale */ }
        }
    }

    // --- end of run ---------------------------------------------------------

    fn finish(&mut self) {
        self.now = self.horizon;
        // A service that never came up because acquisition kept faulting
        // is a full outage, not an empty measurement span: report honestly.
        if self.acc.service_start.is_none() {
            if let Some(t0) = self.boot_blocked_since {
                self.acc.service_start = Some(t0);
                self.add_downtime(t0, self.horizon);
            }
        }
        // Close any open downtime interval.
        if let Some(since) = self.down_since.take() {
            self.add_downtime(since, self.horizon);
        }
        // Close all leases the state still references.
        let ids = match &self.st {
            St::Boot { target } => [target.map(|p| p.id), None],
            St::Active { lease } => [Some(lease.id), None],
            St::Migrating { from, to, .. } => [Some(from.id), Some(to.id)],
            St::Evacuating { to, .. } | St::Restoring { target: to, .. } => [Some(to.id), None],
            St::DownWaiting { .. } | St::Reacquiring { .. } => [None, None],
        };
        for id in ids.into_iter().flatten() {
            self.close_lease(id, TerminationReason::Voluntary);
        }
        // A revoked lease whose Terminate/Died event lay beyond the
        // horizon is still open in the provider; close_lease above only
        // covers state-referenced servers, and a revoked server is no
        // longer referenced — sweep any remainder through pending events.
        while let Some((_, ev)) = self.queue.pop() {
            if let Ev::Terminate(id) | Ev::Died(id) = ev {
                self.close_lease(id, TerminationReason::Revoked);
            }
        }
    }
}

/// Decision lead before billing boundaries: enough time to boot the
/// replacement and run the migration preparation, plus slack, clamped so
/// at least one decision happens per billing hour.
///
/// The prepare bound is the worst case over *all* mechanism combos, not
/// just the configured one, so the decision schedule — and therefore
/// every bidding decision — is identical across mechanisms. Mechanisms
/// must only change downtime, never the cost structure (§5.2's
/// comparison holds the bidding fixed while varying the mechanism).
fn compute_lead(vparams: &VirtParams, candidates: &[MarketId]) -> SimDuration {
    let startup = StartupModel::table1();
    let max_startup = candidates
        .iter()
        .map(|m| startup.spot_mean(m.zone.region()))
        .max()
        .unwrap_or(SimDuration::secs(300));
    // Worst-case preparation across candidate VM sizes and mechanism
    // combos, local moves.
    let max_prepare = candidates
        .iter()
        .flat_map(|m| {
            MechanismCombo::ALL.map(|combo| {
                let ctx = MigrationContext::local(VmSpec::for_instance(m.itype), m.zone.region());
                plan_migration(combo, MigrationKind::Planned, &ctx, vparams).prepare
            })
        })
        .max()
        .unwrap_or(SimDuration::secs(60));
    let lead = max_startup + max_prepare + LEAD_SLACK;
    lead.min(SimDuration::minutes(50))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::SUPPORTED_UNITS;
    use proptest::prelude::*;
    use spothost_faults::FaultConfig;
    use spothost_market::catalog::Catalog;
    use spothost_market::gen::TraceSet;
    use spothost_market::model::SpotModelParams;
    use spothost_market::trace::{PricePoint, PriceTrace};
    use spothost_market::types::InstanceType;
    use spothost_virt::MechanismCombo;

    fn market() -> MarketId {
        MarketId::new(Zone::UsEast1a, InstanceType::Small)
    }

    /// A quiet trace set: essentially flat at the calm base, no spikes.
    fn quiet_traces(days: u64) -> TraceSet {
        let catalog = Catalog::ec2_2015();
        let mut p = SpotModelParams::default_market();
        p.base_ratio = 0.2;
        p.sigma = 0.02;
        p.spike_rate_per_day = 0.0;
        p.zone_spike_rate_per_day = 0.0;
        p.elevated_base_mult = 1.001;
        TraceSet::generate_with(&catalog, &[(market(), p)], 3, SimDuration::days(days))
    }

    /// A stormy trace set: spikes several times a day, many above 4x.
    fn stormy_traces(days: u64, seed: u64) -> TraceSet {
        let catalog = Catalog::ec2_2015();
        let mut p = SpotModelParams::default_market();
        p.base_ratio = 0.2;
        p.sigma = 0.1;
        p.spike_rate_per_day = 4.0;
        p.spike_pareto_alpha = 0.9; // heavy tail: many spikes above 4x
        p.zone_spike_rate_per_day = 0.0;
        TraceSet::generate_with(&catalog, &[(market(), p)], seed, SimDuration::days(days))
    }

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::single_market(market())
    }

    #[test]
    fn cold_forecast_must_not_outrank_known_low_risk_market() {
        // Regression: `ranked_spots` used to score a forecaster with no
        // estimate yet (`risk == None`) as zero revocation risk, letting
        // an unknown market outrank a known, cheap, low-measured-risk
        // one. A cold forecast must be charged a conservative prior (the
        // max measured rival risk, floored at the risk budget) instead.
        use spothost_market::trace::Segment;
        let catalog = Catalog::ec2_2015();
        let a = MarketId::new(Zone::UsEast1a, InstanceType::Small);
        let b = MarketId::new(Zone::UsEast1a, InstanceType::Medium);
        let horizon = SimDuration::days(3);
        let end = SimTime::ZERO + horizon;
        let flat = |price: f64| {
            PriceTrace::new(
                vec![PricePoint {
                    at: SimTime::ZERO,
                    price,
                }],
                end,
            )
        };
        // 2 capacity units: Small runs 2 servers, Medium runs 1. The cold
        // market is marginally cheaper in aggregate ($0.039 vs $0.040).
        let ts = TraceSet::from_traces(&catalog, vec![(a, flat(0.020)), (b, flat(0.039))], horizon);
        let c = SchedulerConfig::multi(MarketScope::MultiMarket(Zone::UsEast1a))
            .with_capacity_units(2)
            .with_policy(BiddingPolicy::Adaptive { risk_budget: 0.05 });
        let mut run = SimRun::new(&ts, &c, 1);
        // Warm only market A's forecaster: two days of calm history gives
        // it a measured (near-zero) risk; B stays cold (`None`).
        let fs = run.forecast.as_mut().expect("adaptive attaches forecast");
        fs.per_market[0].1.feed(Segment {
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::days(2),
            price: 0.020,
        });
        assert!(fs.per_market[0].1.warmed_up());
        assert!(!fs.per_market[1].1.warmed_up());
        let ranked = run.ranked_spots(None);
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].risk.is_some(), "known market must rank first");
        assert_eq!(
            ranked[0].market, a,
            "cold market must not beat the cheap low-measured-risk one"
        );
    }

    /// A candidate for the comparator tests; `bid` tags its position.
    fn cand(tag: f64, score: f64, risk: Option<f64>, storm: bool) -> Candidate {
        Candidate {
            market: market(),
            bid: tag,
            score,
            risk,
            storm,
        }
    }

    #[test]
    fn ranking_breaks_score_ties_by_risk_in_multi_scopes_only() {
        let items = [
            cand(0.0, 1.0, Some(0.3), false),
            cand(1.0, 1.0, Some(0.1), false),
            cand(2.0, 1.0, None, false),
            cand(3.0, 1.0, Some(0.0), true),
            cand(4.0, 0.5, Some(0.9), true),
        ];
        let ranked = |rank: SpotRank| {
            let mut v = items.to_vec();
            v.sort_by(|a, b| rank.cmp(a, b));
            let best = items.iter().min_by(|a, b| rank.cmp(a, b)).map(|c| c.bid);
            assert_eq!(best, Some(v[0].bid), "best and ranked agree");
            v.iter().map(|c| c.bid).collect::<Vec<_>>()
        };
        let single = SpotRank {
            by_risk: false,
            prior: 0.2,
        };
        assert_eq!(
            ranked(single),
            [4.0, 0.0, 1.0, 2.0, 3.0],
            "a single scope never reorders by risk"
        );
        // The unknown risk reads as the prior; storming adds a unit.
        let multi = |prior| SpotRank {
            by_risk: true,
            prior,
        };
        assert_eq!(ranked(multi(0.2)), [4.0, 1.0, 2.0, 0.0, 3.0]);
        assert_eq!(ranked(multi(0.4)), [4.0, 1.0, 0.0, 2.0, 3.0]);
        // Equal keys keep candidate order, in the sort and in the argmin.
        let twins = [
            cand(0.0, 1.0, None, false),
            cand(1.0, 1.0, Some(0.2), false),
        ];
        for rank in [single, multi(0.2)] {
            for pair in [twins, [twins[1], twins[0]]] {
                let best = pair.iter().min_by(|a, b| rank.cmp(a, b));
                assert_eq!(best.map(|c| c.bid), Some(pair[0].bid));
            }
        }
    }

    /// A candidate's bits, for comparisons that must be exact.
    fn bits(c: &Candidate) -> (MarketId, u64, u64, Option<u64>, bool) {
        (
            c.market,
            c.bid.to_bits(),
            c.score.to_bits(),
            c.risk.map(f64::to_bits),
            c.storm,
        )
    }

    /// The order `ranked_spots` produced before [`SpotRank`]: a stable
    /// sort by the risk key in multi-market and multi-region scopes, then
    /// a stable sort by score, with the prior derived as the scheduler
    /// derives it.
    fn two_sort_reference(
        collected: &[Candidate],
        multi: bool,
        risk_budget: f64,
    ) -> Vec<Candidate> {
        let measured = collected
            .iter()
            .filter_map(|c| c.risk)
            .fold(f64::NAN, f64::max);
        let prior = if measured.is_nan() {
            0.0
        } else {
            measured.max(risk_budget)
        };
        let key = |c: &Candidate| c.risk.unwrap_or(prior) + if c.storm { 1.0 } else { 0.0 };
        let mut v = collected.to_vec();
        if multi {
            v.sort_by(|a, b| key(a).total_cmp(&key(b)));
        }
        v.sort_by(|a, b| a.score.total_cmp(&b.score));
        v
    }

    /// Piecewise-flat traces whose aggregate rates come from a few
    /// fractions of the zone's on-demand rate, so candidates' scores often
    /// tie exactly: each size's server count is a power of two.
    fn tied_traces(candidates: &[MarketId], units: u32, seed: u64, days: u64) -> TraceSet {
        let catalog = Catalog::ec2_2015();
        let horizon = SimDuration::days(days);
        let end = SimTime::ZERO + horizon;
        let mut state = seed;
        let mut draw = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let traces = candidates
            .iter()
            .map(|&m| {
                let od = catalog.on_demand_price(MarketId::new(m.zone, InstanceType::XLarge));
                let n = f64::from(servers_needed(units, m.itype));
                let points = (0..days * 4)
                    .map(|k| PricePoint {
                        at: SimTime::ZERO + SimDuration::hours(6 * k),
                        price: [0.125, 0.25, 0.5, 2.0][draw(4) as usize] * od / n,
                    })
                    .collect();
                (m, PriceTrace::new(points, end))
            })
            .collect();
        TraceSet::from_traces(&catalog, traces, horizon)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn best_spot_is_the_first_of_the_two_sort_ranking(
            scope_kind in 0..3usize,
            scope_pick in 0..16usize,
            units_pick in 0..4usize,
            policy_kind in 0..3usize,
            storms in prop::bool::ANY,
            weighted in prop::bool::ANY,
            tied in prop::bool::ANY,
            seed in 0..4u64,
            exclude_pick in 0..20usize,
            steps in prop::collection::vec(1..40u64, 1..10),
        ) {
            let days = 12;
            let scope = match scope_kind {
                0 => MarketScope::Single(MarketId::all()[scope_pick]),
                1 => MarketScope::MultiMarket(Zone::ALL[scope_pick % 4]),
                // A non-empty zone subset, by bit mask.
                _ => MarketScope::MultiRegion(
                    (0..4)
                        .filter(|b| (scope_pick % 15 + 1) & (1 << b) != 0)
                        .map(|b| Zone::ALL[b])
                        .collect(),
                ),
            };
            let multi = scope_kind != 0;
            let mut c = match &scope {
                MarketScope::Single(m) => SchedulerConfig::single_market(*m),
                _ => SchedulerConfig::multi(scope.clone())
                    .with_capacity_units(SUPPORTED_UNITS[units_pick]),
            };
            let risk_budget = 0.05;
            c = c.with_policy(match policy_kind {
                0 => BiddingPolicy::Reactive,
                1 => BiddingPolicy::proactive_default(),
                _ => BiddingPolicy::Adaptive { risk_budget },
            });
            if storms {
                c = c.with_storms(spothost_faults::StormConfig::intensity(0.8));
            }
            if weighted {
                c = c.with_stability_weight(0.5);
            }
            let candidates = c.candidates();
            let ts = if tied {
                tied_traces(&candidates, c.capacity_units, seed, days)
            } else {
                TraceSet::generate(&Catalog::ec2_2015(), &candidates, seed, SimDuration::days(days))
            };
            let budget = if policy_kind == 2 { risk_budget } else { 0.0 };
            let exclude = candidates.get(exclude_pick).copied();
            let mut run = SimRun::new(&ts, &c, seed);
            run.begin();
            let mut t = SimTime::ZERO;
            for h in steps {
                t += SimDuration::hours(h);
                if !run.step_until(t) {
                    break;
                }
                for ex in [None, exclude] {
                    run.collect_spots(ex);
                    let reference = two_sort_reference(&run.spots, multi, budget);
                    let ranked = run.ranked_spots(ex);
                    let best = run.best_spot(ex);
                    prop_assert_eq!(
                        ranked.iter().map(bits).collect::<Vec<_>>(),
                        reference.iter().map(bits).collect::<Vec<_>>()
                    );
                    prop_assert_eq!(best.as_ref().map(bits), ranked.first().map(bits));
                }
            }
        }
    }

    #[test]
    fn next_due_is_never_before_the_last_step() {
        // Storm edges, faults and a spiky market: after `step_until(t)`
        // nothing is left before `t`.
        let ts = stormy_traces(10, 4);
        let c = cfg()
            .with_faults(FaultConfig::uniform(0.2))
            .with_storms(spothost_faults::StormConfig::intensity(1.0));
        let mut run = SimRun::new(&ts, &c, 4);
        run.begin();
        let mut t = SimTime::ZERO;
        while t < run.horizon() {
            run.step_until(t);
            let due = run.next_due();
            assert!(due >= t, "{due:?} is before {t:?}");
            t += SimDuration::minutes(7);
        }
    }

    #[test]
    fn next_due_is_a_terminal_event_left_queued() {
        // A run started a minute before its horizon requests a server that
        // is ready only after it. No step dispatches that event: each one
        // reports the run over and leaves it queued for the final sweep.
        let ts = quiet_traces(3);
        let horizon = SimTime::ZERO + SimDuration::days(3);
        let mut run = SimRun::new(&ts, &cfg(), 1)
            .with_startup_model(StartupModel::deterministic())
            .with_start(horizon - SimDuration::minutes(1));
        run.begin();
        let due = run.next_due();
        assert!(due > horizon, "the server is ready after the horizon");
        for limit in [SimTime::ZERO, due, SimTime::MAX] {
            assert!(!run.step_until(limit), "the run is over at {limit:?}");
            assert_eq!(run.next_due(), due, "the event stays queued");
        }
    }

    #[test]
    fn quiet_market_proactive_stays_on_spot() {
        let ts = quiet_traces(10);
        let report = SimRun::new(&ts, &cfg(), 1)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert_eq!(report.forced_migrations, 0);
        assert_eq!(report.planned_migrations, 0);
        assert!(report.spot_fraction > 0.999, "{}", report.spot_fraction);
        assert_eq!(report.unavailability, 0.0);
        // Normalized cost ~ base ratio 0.2.
        assert!(
            (report.normalized_cost - 0.2).abs() < 0.05,
            "normalized cost {}",
            report.normalized_cost
        );
    }

    #[test]
    fn on_demand_only_costs_baseline() {
        let ts = quiet_traces(10);
        let c = cfg().with_policy(BiddingPolicy::OnDemandOnly);
        let report = SimRun::new(&ts, &c, 1)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert_eq!(report.unavailability, 0.0);
        assert_eq!(report.forced_migrations, 0);
        assert_eq!(report.spot_fraction, 0.0);
        // Rounding the final hour up puts the normalized cost at or just
        // above 1.
        assert!(
            (report.normalized_cost - 1.0).abs() < 0.01,
            "normalized cost {}",
            report.normalized_cost
        );
    }

    #[test]
    fn stormy_market_forces_migrations() {
        let ts = stormy_traces(30, 7);
        let report = SimRun::new(&ts, &cfg(), 7)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert!(report.forced_migrations > 0, "storms must revoke");
        assert!(report.unavailability > 0.0);
        assert!(
            report.reverse_migrations > 0,
            "service must return to spot after storms"
        );
        assert!(report.normalized_cost < 1.0, "spot still cheaper overall");
    }

    #[test]
    fn stepped_run_is_bit_identical_to_run_reclaim() {
        // The fleet driver advances runs in bounded windows
        // (`begin`/`step_until`/`finish_at`); the window size must never
        // be observable in the report.
        for (ts, seed) in [(stormy_traces(20, 7), 7), (quiet_traces(20), 1)] {
            let whole = SimRun::new(&ts, &cfg(), seed).run();
            let mut run = SimRun::new(&ts, &cfg(), seed);
            run.begin();
            let horizon = run.horizon();
            let mut t = SimTime::ZERO;
            let mut live = true;
            while live && t < horizon {
                t += SimDuration::hours(5);
                live = run.step_until(t);
            }
            if live {
                live = run.step_until(SimTime::MAX);
            }
            assert!(!live || run.now() <= horizon);
            let (stepped, _) = run.finish_at(horizon);
            assert_eq!(whole, stepped, "stepping granularity leaked");
        }
    }

    #[test]
    fn with_start_shifts_the_accounting_span() {
        let ts = quiet_traces(10);
        let start = SimTime::ZERO + SimDuration::days(4);
        let mut run = SimRun::new(&ts, &cfg(), 1)
            .with_startup_model(StartupModel::deterministic())
            .with_start(start);
        run.begin();
        assert!(run.now() >= start);
        run.step_until(SimTime::MAX);
        let horizon = run.horizon();
        let (report, _) = run.finish_at(horizon);
        // The run only spans the last 6 days (minus boot).
        assert!(report.active_span <= SimDuration::days(6));
        assert!(report.active_span >= SimDuration::days(5));
        assert_eq!(report.unavailability, 0.0);
        assert!(report.cost > 0.0);
        // Deterministic: an identical late-started run reports identically.
        let mut again = SimRun::new(&ts, &cfg(), 1)
            .with_startup_model(StartupModel::deterministic())
            .with_start(start);
        again.begin();
        again.step_until(SimTime::MAX);
        assert_eq!(report, again.finish_at(horizon).0);
    }

    #[test]
    fn early_release_settles_open_leases() {
        let ts = quiet_traces(10);
        let release = SimTime::ZERO + SimDuration::days(3);
        let mut run = SimRun::new(&ts, &cfg(), 1).with_startup_model(StartupModel::deterministic());
        run.begin();
        let live = run.step_until(release);
        assert!(live, "run must still be live at an early release point");
        assert!(run.is_serving(), "quiet market keeps the service up");
        let (report, _) = run.finish_at(release);
        // The report covers only the released span, leases settled there.
        assert!(report.active_span <= SimDuration::days(3));
        assert!(report.cost > 0.0);
        let full = SimRun::new(&ts, &cfg(), 1)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert!(report.cost < full.cost, "3 days must cost less than 10");
    }

    #[test]
    fn reactive_sees_more_forced_migrations_than_proactive() {
        let ts = stormy_traces(30, 11);
        let pro = SimRun::new(&ts, &cfg(), 11)
            .with_startup_model(StartupModel::deterministic())
            .run();
        let rea = SimRun::new(&ts, &cfg().with_policy(BiddingPolicy::Reactive), 11)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert!(
            rea.forced_migrations > pro.forced_migrations,
            "reactive {} vs proactive {}",
            rea.forced_migrations,
            pro.forced_migrations
        );
        assert!(rea.unavailability > pro.unavailability);
    }

    #[test]
    fn pure_spot_goes_down_during_storms() {
        let ts = stormy_traces(30, 13);
        let report = SimRun::new(&ts, &cfg().with_policy(BiddingPolicy::PureSpot), 13)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert_eq!(report.spot_fraction, 1.0, "pure spot never buys on-demand");
        assert!(
            report.unavailability > 0.001,
            "unavailability {} should be large",
            report.unavailability
        );
        let pro = SimRun::new(&ts, &cfg(), 13)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert!(report.unavailability > 10.0 * pro.unavailability);
    }

    #[test]
    fn runs_are_deterministic() {
        let ts = stormy_traces(20, 5);
        let a = SimRun::new(&ts, &cfg(), 5).run();
        let b = SimRun::new(&ts, &cfg(), 5).run();
        assert_eq!(a, b);
    }

    #[test]
    fn mechanism_changes_downtime_not_cost_structure() {
        let ts = stormy_traces(30, 17);
        let ckpt = SimRun::new(&ts, &cfg().with_mechanism(MechanismCombo::CKPT), 17)
            .with_startup_model(StartupModel::deterministic())
            .run();
        let lr_live = SimRun::new(&ts, &cfg().with_mechanism(MechanismCombo::CKPT_LR_LIVE), 17)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert!(
            ckpt.unavailability > lr_live.unavailability,
            "CKPT {} must be worse than CKPT+LR+Live {}",
            ckpt.unavailability,
            lr_live.unavailability
        );
        // Same bidding decisions, so migration counts match.
        assert_eq!(ckpt.forced_migrations, lr_live.forced_migrations);
    }

    #[test]
    fn multi_market_prefers_cheapest() {
        // Two markets in one zone, one clearly cheaper.
        let catalog = Catalog::ec2_2015();
        let zone = Zone::UsEast1a;
        let mk = |t: InstanceType, ratio: f64| {
            let mut p = SpotModelParams::default_market();
            p.base_ratio = ratio;
            p.sigma = 0.02;
            p.spike_rate_per_day = 0.0;
            p.zone_spike_rate_per_day = 0.0;
            p.elevated_base_mult = 1.001;
            (MarketId::new(zone, t), p)
        };
        let models = vec![
            mk(InstanceType::Small, 0.4),
            mk(InstanceType::Medium, 0.1),
            mk(InstanceType::Large, 0.4),
            mk(InstanceType::XLarge, 0.4),
        ];
        let ts = TraceSet::generate_with(&catalog, &models, 3, SimDuration::days(10));
        let c = SchedulerConfig::multi(MarketScope::MultiMarket(zone));
        let report = SimRun::new(&ts, &c, 3)
            .with_startup_model(StartupModel::deterministic())
            .run();
        // Should sit in the 0.1-ratio market almost the whole time.
        assert!(
            report.normalized_cost < 0.2,
            "normalized cost {}",
            report.normalized_cost
        );
    }

    #[test]
    fn proactive_single_market_has_low_unavailability_with_lr_live() {
        let ts = stormy_traces(30, 23);
        let c = cfg().with_mechanism(MechanismCombo::CKPT_LR_LIVE);
        let report = SimRun::new(&ts, &c, 23)
            .with_startup_model(StartupModel::deterministic())
            .run();
        // Even in an extreme storm market, proactive + the full mechanism
        // combo keeps unavailability below a percent.
        assert!(
            report.unavailability < 0.01,
            "unavailability {}",
            report.unavailability
        );
    }

    #[test]
    fn zero_rate_fault_config_is_bit_identical() {
        let ts = stormy_traces(30, 7);
        let base = SimRun::new(&ts, &cfg(), 7).run();
        let zero = SimRun::new(&ts, &cfg().with_faults(FaultConfig::uniform(0.0)), 7).run();
        assert_eq!(base, zero);
        assert_eq!(base.request_faults, 0);
        assert_eq!(base.unwarned_revocations, 0);
        assert_eq!(base.ckpt_faults, 0);
        assert_eq!(base.live_aborts, 0);
    }

    #[test]
    fn full_od_request_failure_terminates_and_reports_outage() {
        // Acceptance check: at a 100% on-demand request-failure rate the
        // run must terminate cleanly and report the whole horizon as an
        // outage — no panic, no hang, no empty span.
        let ts = quiet_traces(10);
        let mut f = FaultConfig::none();
        f.od_capacity_rate = 1.0;
        let c = cfg()
            .with_policy(BiddingPolicy::OnDemandOnly)
            .with_faults(f);
        let report = SimRun::new(&ts, &c, 1)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert!(
            (report.unavailability - 1.0).abs() < 1e-9,
            "unavailability {}",
            report.unavailability
        );
        assert!(report.request_faults > 0);
        assert_eq!(report.cost, 0.0);
        assert_eq!(report.active_span, SimDuration::days(10));
    }

    #[test]
    fn missing_warnings_cause_unwarned_downtime() {
        let ts = stormy_traces(30, 7);
        let mut f = FaultConfig::none();
        f.warning_miss_rate = 1.0;
        let faulty = SimRun::new(&ts, &cfg().with_faults(f), 7)
            .with_startup_model(StartupModel::deterministic())
            .run();
        let clean = SimRun::new(&ts, &cfg(), 7)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert!(faulty.unwarned_revocations > 0);
        assert_eq!(faulty.unwarned_revocations, faulty.forced_migrations);
        // No warning means no grace window: every recovery starts from the
        // kill, so unavailability can only be worse.
        assert!(
            faulty.unavailability > clean.unavailability,
            "faulty {} vs clean {}",
            faulty.unavailability,
            clean.unavailability
        );
        // The checkpoint flush path is never reached without a warning.
        assert_eq!(faulty.ckpt_faults, 0);
    }

    #[test]
    fn fault_runs_are_deterministic_and_sane() {
        let ts = stormy_traces(30, 9);
        let c = cfg().with_faults(FaultConfig::uniform(0.2));
        let a = SimRun::new(&ts, &c, 9).run();
        let b = SimRun::new(&ts, &c, 9).run();
        assert_eq!(a, b);
        assert!(a.request_faults > 0);
        assert!(a.downtime <= a.active_span);
        assert!(a.cost.is_finite() && a.cost >= 0.0);
    }

    #[test]
    fn cost_is_positive_and_leases_accounted() {
        let ts = stormy_traces(15, 29);
        let report = SimRun::new(&ts, &cfg(), 29).run();
        assert!(report.cost > 0.0);
        assert!(report.baseline_cost > report.cost);
        assert!(report.active_span > SimDuration::days(14));
        assert!(report.spot_fraction > 0.5);
    }

    #[test]
    fn adaptive_runs_are_deterministic() {
        let ts = stormy_traces(20, 5);
        let c = cfg().with_policy(BiddingPolicy::adaptive_default());
        let a = SimRun::new(&ts, &c, 5).run();
        let b = SimRun::new(&ts, &c, 5).run();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_on_a_quiet_market_matches_proactive_cost() {
        // On a calm trace the forecaster's cheap bids never get revoked,
        // and spot bills the hour-start price either way — so adaptive
        // must land on proactive's cost, not above it.
        let ts = quiet_traces(10);
        let adp = SimRun::new(
            &ts,
            &cfg().with_policy(BiddingPolicy::adaptive_default()),
            1,
        )
        .with_startup_model(StartupModel::deterministic())
        .run();
        let pro = SimRun::new(&ts, &cfg(), 1)
            .with_startup_model(StartupModel::deterministic())
            .run();
        assert_eq!(adp.forced_migrations, 0);
        assert_eq!(adp.unavailability, 0.0);
        assert!(
            (adp.normalized_cost - pro.normalized_cost).abs() < 1e-9,
            "adaptive {} vs proactive {}",
            adp.normalized_cost,
            pro.normalized_cost
        );
    }

    #[test]
    fn adaptive_stays_available_in_storms() {
        let ts = stormy_traces(30, 7);
        let adp = SimRun::new(
            &ts,
            &cfg()
                .with_policy(BiddingPolicy::adaptive_default())
                .with_mechanism(MechanismCombo::CKPT_LR_LIVE),
            7,
        )
        .with_startup_model(StartupModel::deterministic())
        .run();
        // The risk budget keeps revocations rare enough for the same
        // sub-percent availability proactive achieves in this market.
        assert!(
            adp.unavailability < 0.01,
            "unavailability {}",
            adp.unavailability
        );
        assert!(adp.normalized_cost < 1.0, "{}", adp.normalized_cost);
        assert!(adp.spot_fraction > 0.5, "{}", adp.spot_fraction);
    }

    #[test]
    fn adaptive_costs_no_more_than_the_fixed_cap_in_storms() {
        // Paired comparison on the same traces: bidding below the cap
        // cannot raise the price paid (hour-start billing) and revoked
        // partial hours are free, so adaptive's cost must come in at or
        // below proactive k=4, within a small on-demand-fallback margin.
        let mut worse = 0usize;
        for seed in [7u64, 11, 13] {
            let ts = stormy_traces(30, seed);
            let adp = SimRun::new(
                &ts,
                &cfg().with_policy(BiddingPolicy::adaptive_default()),
                seed,
            )
            .with_startup_model(StartupModel::deterministic())
            .run();
            let pro = SimRun::new(&ts, &cfg(), seed)
                .with_startup_model(StartupModel::deterministic())
                .run();
            if adp.normalized_cost > pro.normalized_cost * 1.02 {
                worse += 1;
            }
        }
        assert_eq!(worse, 0, "adaptive must not lose to the fixed cap");
    }

    #[test]
    fn effect_free_storm_config_builds_no_schedule() {
        let ts = stormy_traces(10, 5);
        assert!(!spothost_faults::StormConfig::intensity(0.0).enabled());
        let run = SimRun::new(&ts, &cfg(), 5);
        assert!(run.storms.is_none());
        let run = SimRun::new(
            &ts,
            &cfg().with_storms(spothost_faults::StormConfig::intensity(0.0)),
            5,
        );
        assert!(run.storms.is_none());
    }

    #[test]
    fn zero_intensity_storms_are_bit_identical() {
        // The storm analogue of `zero_rate_fault_config_is_bit_identical`:
        // a zero-intensity config builds no schedule at all, and even a
        // *built* but neutral schedule (no episodes, zero jitter, an
        // unreachable quota) never advances a stream — both runs must be
        // bit-identical to a simulation with no storms configured.
        use spothost_faults::StormConfig;
        let ts = stormy_traces(30, 7);
        let c = cfg().with_faults(FaultConfig::uniform(0.1));
        let base = SimRun::new(&ts, &c, 7).run();
        let zero = SimRun::new(&ts, &c.clone().with_storms(StormConfig::intensity(0.0)), 7).run();
        assert_eq!(base, zero);
        let mut neutral = StormConfig::none();
        neutral.od_quota = 10_000; // enabled() — a schedule IS built
        let built = SimRun::new(&ts, &c.clone().with_storms(neutral), 7).run();
        assert_eq!(base, built);
    }

    #[test]
    fn storm_runs_are_deterministic_and_disruptive() {
        use spothost_faults::StormConfig;
        let ts = stormy_traces(30, 7);
        let c = cfg()
            .with_faults(FaultConfig::uniform(0.05))
            .with_storms(StormConfig::intensity(0.6));
        let a = SimRun::new(&ts, &c, 7).run();
        let b = SimRun::new(&ts, &c, 7).run();
        assert_eq!(a, b);
        let calm = SimRun::new(&ts, &cfg().with_faults(FaultConfig::uniform(0.05)), 7).run();
        // Crunch rejections push the service onto on-demand (fewer spot
        // revocations to migrate from), so migration counts can legally
        // *drop* — the invariant is that downtime and fault pressure rise.
        assert!(
            a.unavailability > calm.unavailability,
            "storm {} vs calm {}",
            a.unavailability,
            calm.unavailability
        );
        assert!(
            a.request_faults > calm.request_faults,
            "the storm multiplier must elevate fault draws: storm {} vs calm {}",
            a.request_faults,
            calm.request_faults
        );
    }

    #[test]
    fn coinciding_storm_edges_dispatch_in_scope_zone_order() {
        // Pins the merge's tie rule: spike-coupled windows that coincide
        // in two zones start (and end) storms in the order the scope lists
        // the zones, not in zone-index order.
        use spothost_faults::{StormConfig, StormSchedule};
        use spothost_telemetry::Recorder;
        let mut storms = StormConfig::none();
        storms.spike_coupling = 1.0;
        let window = (SimTime::hours(5), SimTime::hours(7));
        let mut spans: [Vec<(SimTime, SimTime)>; 4] = [const { Vec::new() }; 4];
        spans[Zone::UsEast1a.index()] = vec![window];
        spans[Zone::UsWest1a.index()] = vec![window];
        for zones in [
            vec![Zone::UsWest1a, Zone::UsEast1a],
            vec![Zone::UsEast1a, Zone::UsWest1a],
        ] {
            let mut c = SchedulerConfig::multi(MarketScope::MultiRegion(zones.clone()))
                .with_storms(storms.clone());
            let ts = TraceSet::generate(
                &Catalog::ec2_2015(),
                &c.candidates(),
                3,
                SimDuration::days(1),
            );
            c.storm_schedule = Some(StormSchedule::new(storms.clone(), 1, ts.horizon(), &spans));
            let mut rec = Recorder::new();
            SimRun::new(&ts, &c, 3).with_sink(&mut rec).run();
            let edges: Vec<(SimTime, bool, Zone)> = rec
                .events()
                .filter_map(|(t, ev)| match ev {
                    TelemetryEvent::StormStarted { zone } => Some((*t, true, *zone)),
                    TelemetryEvent::StormEnded { zone } => Some((*t, false, *zone)),
                    _ => None,
                })
                .collect();
            let expected: Vec<(SimTime, bool, Zone)> = [(window.0, true), (window.1, false)]
                .into_iter()
                .flat_map(|(t, started)| zones.iter().map(move |&z| (t, started, z)))
                .collect();
            assert_eq!(edges, expected, "scope {zones:?}");
        }
    }

    #[test]
    fn backoff_ladder_resets_only_after_stable_uptime() {
        // Regression: `become_active` used to reset `acquire_attempts`
        // unconditionally, so a lease that survived only seconds mid-storm
        // re-armed the 60 s base backoff and the thundering herd with it.
        // The ladder must persist across short stints and reset only after
        // `STABLE_BACKOFF_RESET` of continuous uptime.
        let ts = quiet_traces(3);
        let c = cfg();
        let mut run = SimRun::new(&ts, &c, 1);
        let lease = Lease {
            id: InstanceId(1),
            market: market(),
            is_spot: true,
            start: SimTime::ZERO,
        };
        run.acquire_attempts = 4;
        run.now = SimTime::hours(1);
        run.enter(St::Active { lease });
        run.now = SimTime::hours(1) + SimDuration::minutes(5);
        run.enter(St::DownWaiting { cold: false });
        assert_eq!(run.acquire_attempts, 4, "short stint must keep the ladder");
        run.now = SimTime::hours(2);
        run.enter(St::Active { lease });
        run.now = SimTime::hours(2) + STABLE_BACKOFF_RESET;
        run.enter(St::DownWaiting { cold: false });
        assert_eq!(
            run.acquire_attempts, 0,
            "stable stint must reset the ladder"
        );
    }
}
