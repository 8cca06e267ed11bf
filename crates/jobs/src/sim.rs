//! The deterministic batch-job simulator.
//!
//! Jobs are scheduled in arrival order onto a fixed pool of worker
//! slots, each slot one spot server in the configured market. A job
//! runs as a sequence of leases: spot leases end at price crossings,
//! storm mass revocations, or injected capacity faults at billing-hour
//! boundaries; escalated jobs run one uninterrupted on-demand lease.
//! Everything is driven by seeded streams ([`derive_seed`]) and the
//! arena-backed price traces, so a `(config, seed)` pair replays
//! bit-identically.
//!
//! Jobs are simulated one at a time, to completion, in start order.
//! That is sound because a job's start time is `max(arrival, earliest
//! worker free time)`: arrivals are sorted and the earliest free time
//! only ever grows, so job starts are monotone and the forecaster can
//! be fed price history causally — each job's bid decision sees exactly
//! the history up to its own start, never the future.

use spothost_cloudsim::billing::{on_demand_lease_charge, SpotLeaseMeter};
use spothost_core::BiddingPolicy;
use spothost_faults::{FaultPlan, StormSchedule, WarningFault};
use spothost_forecast::{ForecastParams, MarketForecaster};
use spothost_market::gen::derive_seed;
use spothost_market::time::{
    SimDuration, SimTime, MILLIS_PER_DAY, MILLIS_PER_HOUR, MILLIS_PER_MINUTE, MILLIS_PER_SECOND,
};
use spothost_market::trace::TraceCursor;
use spothost_market::types::{MarketId, Zone};
use spothost_market::{Catalog, TraceSet};
use spothost_telemetry::{NullSink, Sink, TelemetryEvent};
use spothost_virt::{BoundedCheckpointer, VirtParams, VmSpec};
use std::fmt;

use crate::config::{JobPolicy, JobsConfig};
use crate::report::JobsReport;
use crate::workload::{generate_jobs, JobSpec};

/// Simulation horizon used by [`run_jobs`] when the caller does not
/// supply traces of their own.
pub const DEFAULT_HORIZON: SimDuration = SimDuration(14 * MILLIS_PER_DAY);

/// Server boot time before a lease does useful work.
const BOOT: SimDuration = SimDuration(60 * MILLIS_PER_SECOND);
/// The provider's revocation warning lead (EC2's two minutes).
const GRACE: SimDuration = SimDuration(120 * MILLIS_PER_SECOND);
/// Base backoff after a denied server request.
const ACQUIRE_BACKOFF: SimDuration = SimDuration(60 * MILLIS_PER_SECOND);
/// Clamp range for the Young-formula checkpoint interval.
const TAU_MIN: SimDuration = SimDuration(10 * MILLIS_PER_MINUTE);
const TAU_MAX: SimDuration = SimDuration(6 * MILLIS_PER_HOUR);
/// Revocation-hazard floor (per hour) when neither the forecaster nor
/// fleet observation has evidence yet. Keeps Young's MTBF finite and
/// the escalation rule mildly cautious instead of blind.
const HAZARD_FLOOR_PER_H: f64 = 0.005;

/// What one job went through, for property checks and aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// The job as submitted.
    pub spec: JobSpec,
    /// First successful server acquisition; `None` if the job never got
    /// a server before the horizon.
    pub started: Option<SimTime>,
    /// When the job finished — or the horizon, for jobs cut off by it.
    pub completion: SimTime,
    /// Did all of the job's work complete before the horizon?
    pub finished: bool,
    /// Did it finish after its deadline (or not at all)?
    pub missed: bool,
    /// Dollars billed across every lease of the job.
    pub cost: f64,
    /// Dollars attributable to useful compute: each lease's charge
    /// scaled by its useful share. Always `<= cost`.
    pub useful_cost: f64,
    /// Leased wall-clock that counted toward completion.
    pub useful: SimDuration,
    /// Leased wall-clock thrown away: boots, checkpoint/restore
    /// overhead, grace windows, and progress lost to revocations.
    /// `useful + wasted` equals [`JobOutcome::compute`] exactly.
    pub wasted: SimDuration,
    /// Total leased wall-clock across all of the job's leases.
    pub compute: SimDuration,
    /// Spot leases lost to price crossings, mass revocations, or
    /// injected capacity faults.
    pub revocations: u32,
    /// Durable checkpoints written (periodic and warned final flushes).
    pub checkpoints: u32,
    /// Did the job escalate to an on-demand server?
    pub escalated: bool,
}

/// Reusable buffers for [`run_jobs_on`]: the forecaster's grown
/// estimator storage survives across runs. A reused scratch produces
/// bit-identical reports to a fresh one.
#[derive(Debug, Clone)]
pub struct JobsScratch {
    forecaster: MarketForecaster,
    events: Vec<(SimTime, TelemetryEvent)>,
}

impl JobsScratch {
    /// Fresh scratch.
    pub fn new() -> Self {
        JobsScratch {
            forecaster: MarketForecaster::new(ForecastParams::default()),
            events: Vec::new(),
        }
    }
}

impl Default for JobsScratch {
    fn default() -> Self {
        JobsScratch::new()
    }
}

/// Everything [`run_jobs_on`] produced: the aggregate report plus the
/// per-job outcomes it was folded from.
#[derive(Debug, Clone)]
pub struct JobsRunResult {
    /// Aggregate metrics.
    pub report: JobsReport,
    /// Per-job detail, in arrival order.
    pub outcomes: Vec<JobOutcome>,
}

/// Run the job simulation on arena-backed calibrated traces over
/// [`DEFAULT_HORIZON`], without telemetry.
pub fn run_jobs(cfg: &JobsConfig, master_seed: u64) -> JobsReport {
    run_jobs_with(cfg, master_seed, &mut NullSink, &mut JobsScratch::new()).report
}

/// [`run_jobs`] with a telemetry sink and reusable scratch.
pub fn run_jobs_with<S: Sink>(
    cfg: &JobsConfig,
    master_seed: u64,
    sink: &mut S,
    scratch: &mut JobsScratch,
) -> JobsRunResult {
    let catalog = Catalog::ec2_2015();
    let traces = TraceSet::generate(&catalog, &[cfg.market], master_seed, DEFAULT_HORIZON);
    run_jobs_on(cfg, &traces, master_seed, sink, scratch)
}

/// Why [`try_run_jobs_on`] cannot run a configuration on a trace set.
#[derive(Debug, Clone, PartialEq)]
pub enum JobsError {
    /// [`JobsConfig::validate`] rejected the configuration.
    InvalidConfig(String),
    /// The trace set has no trace for the configured market.
    MissingTrace(MarketId),
}

impl fmt::Display for JobsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobsError::InvalidConfig(e) => write!(f, "invalid jobs config: {e}"),
            JobsError::MissingTrace(m) => write!(f, "trace set has no trace for {m}"),
        }
    }
}

impl std::error::Error for JobsError {}

/// Run the job simulation against explicit price traces. Panics on an
/// invalid configuration or a trace set missing the configured market,
/// like `SimRun::new`; [`try_run_jobs_on`] returns those as a
/// [`JobsError`] instead.
pub fn run_jobs_on<S: Sink>(
    cfg: &JobsConfig,
    traces: &TraceSet,
    master_seed: u64,
    sink: &mut S,
    scratch: &mut JobsScratch,
) -> JobsRunResult {
    try_run_jobs_on(cfg, traces, master_seed, sink, scratch).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_jobs_on`], returning a [`JobsError`] for an invalid
/// configuration or a trace set missing the configured market. Nothing
/// is simulated, and nothing emitted, when it fails.
pub fn try_run_jobs_on<S: Sink>(
    cfg: &JobsConfig,
    traces: &TraceSet,
    master_seed: u64,
    sink: &mut S,
    scratch: &mut JobsScratch,
) -> Result<JobsRunResult, JobsError> {
    cfg.validate().map_err(JobsError::InvalidConfig)?;
    let trace = traces
        .trace(cfg.market)
        .ok_or(JobsError::MissingTrace(cfg.market))?;
    let horizon = SimTime::ZERO + traces.horizon();
    let jobs = generate_jobs(cfg, master_seed, horizon);

    scratch.forecaster.reset(ForecastParams::default());
    scratch.events.clear();
    let ckpt = BoundedCheckpointer::new(&VmSpec::paper_2gib(), &VirtParams::typical());

    let mut ctx = Ctx {
        cfg,
        prices: trace.cursor(),
        pon: traces.catalog().on_demand_price(cfg.market),
        cap: traces.catalog().max_bid(cfg.market),
        horizon,
        zone: cfg.market.zone,
        delta: ckpt.full_checkpoint_duration(),
        ckpt,
        faults: FaultPlan::new(
            cfg.faults.clone(),
            derive_seed(master_seed, "jobs-faults", 0),
        ),
        storms: StormSchedule::new(
            cfg.storms.clone(),
            derive_seed(master_seed, "jobs-storms", 0),
            traces.horizon(),
            traces.spike_spans(),
        ),
        forecaster: &mut scratch.forecaster,
        events: &mut scratch.events,
        obs_revocations: 0,
        obs_busy: SimDuration::ZERO,
        crossing: None,
    };

    let mut free_at = vec![SimTime::ZERO; cfg.workers as usize];
    let mut outcomes = Vec::with_capacity(jobs.len());
    for (idx, spec) in jobs.into_iter().enumerate() {
        // Earliest-free worker, lowest index on ties.
        let (w, _) = free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("workers >= 1 by validation");
        let start = spec.arrival.max(free_at[w]);
        // Feed the forecaster exactly the history up to this start
        // (monotone across jobs — see the module docs).
        if start > ctx.forecaster.fed_to() {
            for seg in trace.segments_in_iter(ctx.forecaster.fed_to(), start) {
                ctx.forecaster.feed(seg);
            }
        }
        let outcome = ctx.run_job(idx as u32, spec, start);
        free_at[w] = outcome.completion;
        outcomes.push(outcome);
    }

    // Jobs are simulated to completion one at a time, so raw emission
    // order is per-job, not chronological; restore the global timeline
    // (stable, so same-instant events keep their deterministic order).
    if S::ENABLED {
        ctx.events.sort_by_key(|&(t, _)| t);
        for &(t, ev) in ctx.events.iter() {
            sink.emit(t, ev);
        }
    }
    scratch.events.clear();

    Ok(JobsRunResult {
        report: JobsReport::from_outcomes(cfg.policy, &outcomes),
        outcomes,
    })
}

/// Why a lease ended before its planned completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaseEnd {
    /// Price crossed the bid: the provider sends the grace warning.
    Warned,
    /// Mass revocation or injected capacity fault: no warning.
    Unwarned,
    /// The simulation horizon cut the lease off.
    Horizon,
}

struct Ctx<'a> {
    cfg: &'a JobsConfig,
    /// The market's price trace. Queries follow each job's leases in
    /// time order, so they seek forward; a job that starts before the
    /// previous job's last lease ended costs one binary search back.
    prices: TraceCursor<'a>,
    pon: f64,
    cap: f64,
    horizon: SimTime,
    zone: Zone,
    /// Duration of one full checkpoint write (also used as the restore
    /// read on the replacement server).
    delta: SimDuration,
    ckpt: BoundedCheckpointer,
    faults: FaultPlan,
    storms: StormSchedule,
    forecaster: &'a mut MarketForecaster,
    events: &'a mut Vec<(SimTime, TelemetryEvent)>,
    /// Fleet-wide revocations observed so far (all jobs).
    obs_revocations: u32,
    /// Fleet-wide leased spot time so far, the hazard denominator.
    obs_busy: SimDuration,
    /// The last price crossing a spot lease looked up, kept across leases
    /// and jobs (see [`Ctx::next_crossing`]).
    crossing: Option<Crossing>,
}

/// One answer of `TraceCursor::next_time_above(from, bid)`: `at` is the
/// first instant at or after `from` with the price above `bid`, `None`
/// if there is none before the horizon.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    bid: f64,
    from: SimTime,
    at: Option<SimTime>,
}

impl Ctx<'_> {
    /// Blended revocation hazard per hour: the forecaster's predicted
    /// P(revocation within its 1 h lookahead) if warmed up, the fleet's
    /// observed revocations per leased hour, or the floor — whichever
    /// is largest.
    fn hazard_per_hour(&self, predicted_risk: Option<f64>) -> f64 {
        let observed = if self.obs_busy >= SimDuration::hours(1) {
            f64::from(self.obs_revocations) / self.obs_busy.as_hours_f64()
        } else {
            0.0
        };
        predicted_risk
            .unwrap_or(0.0)
            .max(observed)
            .max(HAZARD_FLOOR_PER_H)
    }

    /// Young's formula: `tau = sqrt(2 * delta * MTBF)`, clamped.
    fn young_interval(&self, hazard_per_h: f64) -> SimDuration {
        let tau_h = (2.0 * self.delta.as_hours_f64() / hazard_per_h).sqrt();
        SimDuration::secs_f64(tau_h * 3600.0)
            .max(TAU_MIN)
            .min(TAU_MAX)
    }

    fn emit(&mut self, at: SimTime, ev: TelemetryEvent) {
        self.events.push((at, ev));
    }

    /// The first instant at or after `grant` with the price above `bid`,
    /// exactly as `self.prices.next_time_above(grant, bid)` answers it.
    /// The price stays at or below `bid` from the remembered lookup's
    /// `from` until its answer, so a lease with the same bid granted in
    /// that window (up to the horizon if there was no crossing) has the
    /// same answer, and the points up to it are not walked again. Leases
    /// re-granted after an unwarned revocation, a failed boot, or by the
    /// next job mostly land there.
    ///
    /// The memo lives here rather than in `TraceCursor`, whose every
    /// other user would carry its space without a hit.
    fn next_crossing(&mut self, grant: SimTime, bid: f64) -> Option<SimTime> {
        if let Some(c) = self.crossing {
            if c.bid == bid && c.from <= grant && c.at.is_none_or(|at| grant <= at) {
                return c.at;
            }
        }
        let at = self.prices.next_time_above(grant, bid);
        self.crossing = Some(Crossing {
            bid,
            from: grant,
            at,
        });
        at
    }

    /// Simulate one job from `start` to completion (or the horizon).
    fn run_job(&mut self, id: u32, spec: JobSpec, start: SimTime) -> JobOutcome {
        let mut out = JobOutcome {
            spec,
            started: None,
            completion: self.horizon,
            finished: false,
            missed: true,
            cost: 0.0,
            useful_cost: 0.0,
            useful: SimDuration::ZERO,
            wasted: SimDuration::ZERO,
            compute: SimDuration::ZERO,
            revocations: 0,
            checkpoints: 0,
            escalated: false,
        };

        // Bid decision with the history available at the job's start.
        let (bid, predicted_risk) = match self.cfg.policy.bidding() {
            BiddingPolicy::Adaptive { risk_budget } => {
                let d = self.forecaster.decide_bid(self.pon, self.cap, risk_budget);
                (d.bid, d.predicted_risk)
            }
            other => {
                let bid = other
                    .bid(self.pon, self.cap)
                    .expect("job policy ladder always bids");
                let risk = self
                    .forecaster
                    .warmed_up()
                    .then(|| self.forecaster.prob_above(bid));
                (bid, risk)
            }
        };
        let hazard = self.hazard_per_hour(predicted_risk);
        let can_ckpt = spec.checkpointable && self.cfg.policy == JobPolicy::CheckpointSpot;
        let tau = self.young_interval(hazard);

        // Work remaining from the last durable state (full runtime until
        // a checkpoint lands), and progress lost at the last revocation
        // (owed to the next JobRestarted emission).
        let mut durable_left = spec.runtime;
        let mut pending_lost: Option<SimDuration> = None;
        let mut now = start;
        let mut escalated = false;

        'job: while now < self.horizon {
            if self.cfg.policy == JobPolicy::OnDemandFallback && !escalated {
                // Escalate when the remaining slack no longer covers the
                // predicted restart loss: over the R hours left, expect
                // `hazard * R` revocations losing R/2 each on average.
                let r = durable_left;
                let expected_loss = r.mul_f64(0.5 * hazard * r.as_hours_f64());
                if now + BOOT + r + expected_loss > spec.deadline {
                    escalated = true;
                }
            }

            if escalated {
                self.run_on_demand_lease(id, &mut out, &mut pending_lost, &mut now, durable_left);
                break 'job;
            }

            // Wait for the spot price to clear the bid.
            if self.prices.price_at(now) > bid {
                match self.prices.next_time_at_or_below(now, bid) {
                    Some(t) if t < self.horizon => now = t,
                    _ => break 'job,
                }
            }
            // Capacity denials at request time.
            self.faults
                .set_storm_multiplier(self.storms.fault_multiplier(self.zone, now));
            if self.storms.crunch_fault(self.zone, now) || self.faults.spot_capacity_fault() {
                now += self.storms.jittered_backoff(ACQUIRE_BACKOFF);
                continue 'job;
            }
            let grant = now;
            // A failed boot burns (and bills) the boot window.
            if self.faults.startup_failure() {
                let end = (grant + BOOT).min(self.horizon);
                self.bill_spot(&mut out, grant, end, false, SimDuration::ZERO);
                now = end;
                continue 'job;
            }

            if out.started.is_none() {
                out.started = Some(grant);
                self.emit(
                    grant,
                    TelemetryEvent::JobStarted {
                        job: id,
                        market: self.cfg.market,
                        spot: true,
                    },
                );
            } else if let Some(lost) = pending_lost.take() {
                self.emit(
                    grant,
                    TelemetryEvent::JobRestarted {
                        job: id,
                        market: self.cfg.market,
                        lost,
                    },
                );
            }

            match self.run_spot_lease(id, &mut out, grant, bid, can_ckpt, tau, &mut durable_left) {
                SpotLeaseOutcome::Finished(at) => {
                    out.finished = true;
                    out.completion = at;
                    break 'job;
                }
                SpotLeaseOutcome::Revoked { at, lost } => {
                    out.revocations += 1;
                    self.obs_revocations += 1;
                    pending_lost = Some(lost);
                    now = at;
                }
                SpotLeaseOutcome::HorizonCut => break 'job,
            }
        }

        if !out.finished {
            // Cut off by the horizon: nothing it computed ever completed
            // a job, so it all counts as waste.
            out.completion = self.horizon;
            out.wasted += out.useful;
            out.useful = SimDuration::ZERO;
            out.useful_cost = 0.0;
        }
        out.missed = !out.finished || out.completion > spec.deadline;
        out.escalated = escalated;
        if out.started.is_some() || out.cost > 0.0 {
            self.emit(
                out.completion,
                TelemetryEvent::JobFinished {
                    job: id,
                    missed: out.missed,
                    cost: out.cost,
                },
            );
        }
        out
    }

    /// One uninterrupted on-demand lease running the job to completion
    /// (or the horizon). On-demand capacity faults back off and retry.
    fn run_on_demand_lease(
        &mut self,
        id: u32,
        out: &mut JobOutcome,
        pending_lost: &mut Option<SimDuration>,
        now: &mut SimTime,
        durable_left: SimDuration,
    ) {
        loop {
            self.faults
                .set_storm_multiplier(self.storms.fault_multiplier(self.zone, *now));
            if !self.faults.od_capacity_fault() {
                break;
            }
            *now += self.storms.jittered_backoff(ACQUIRE_BACKOFF);
            if *now >= self.horizon {
                return;
            }
        }
        let grant = *now;
        if out.started.is_none() {
            out.started = Some(grant);
            self.emit(
                grant,
                TelemetryEvent::JobStarted {
                    job: id,
                    market: self.cfg.market,
                    spot: false,
                },
            );
        } else if let Some(lost) = pending_lost.take() {
            self.emit(
                grant,
                TelemetryEvent::JobRestarted {
                    job: id,
                    market: self.cfg.market,
                    lost,
                },
            );
        }
        let work_start = grant + BOOT;
        let end = (work_start + durable_left).min(self.horizon);
        let worked = end.since(work_start.min(end));
        let wall = end.since(grant);
        let charge = on_demand_lease_charge(self.pon, grant, end);
        out.cost += charge;
        out.useful += worked;
        out.wasted += wall - worked;
        out.compute += wall;
        if wall > SimDuration::ZERO {
            out.useful_cost += charge * (worked.as_secs_f64() / wall.as_secs_f64());
        }
        *now = end;
        if worked == durable_left {
            out.finished = true;
            out.completion = end;
        }
    }

    /// Bill one spot lease and book its useful/wasted split.
    fn bill_spot(
        &mut self,
        out: &mut JobOutcome,
        grant: SimTime,
        end: SimTime,
        revoked: bool,
        useful: SimDuration,
    ) {
        let wall = end.since(grant);
        debug_assert!(useful <= wall);
        let charge = SpotLeaseMeter::new(self.prices.trace(), grant).close(end, revoked);
        out.cost += charge;
        out.useful += useful;
        out.wasted += wall - useful;
        out.compute += wall;
        if wall > SimDuration::ZERO {
            out.useful_cost += charge * (useful.as_secs_f64() / wall.as_secs_f64());
        }
        self.obs_busy += wall;
    }

    /// Simulate one spot lease granted at `grant` until the job
    /// finishes, the lease is revoked, or the horizon interferes.
    #[allow(clippy::too_many_arguments)]
    fn run_spot_lease(
        &mut self,
        id: u32,
        out: &mut JobOutcome,
        grant: SimTime,
        bid: f64,
        can_ckpt: bool,
        tau: SimDuration,
        durable_left: &mut SimDuration,
    ) -> SpotLeaseOutcome {
        // Boot, plus checkpoint restore when resuming durable state.
        let mut setup = BOOT;
        if can_ckpt && *durable_left < out.spec.runtime {
            setup += self.delta + self.faults.volume_attach_delay();
        }
        let work_start = grant + setup;

        // Planned completion if nothing interferes: the remaining work
        // plus one checkpoint pause per full tau chunk.
        let n_pauses = if can_ckpt && *durable_left > tau {
            (durable_left.as_millis() - 1) / tau.as_millis().max(1)
        } else {
            0
        };
        let planned_end = work_start + *durable_left + self.delta.mul_f64(n_pauses as f64);

        // Earliest interference: price crossing (warned), mass
        // revocation, or an injected capacity fault at a billing-hour
        // boundary (both unwarned).
        let mut stop_t = planned_end.min(self.horizon);
        let mut end_kind = if planned_end <= self.horizon {
            None
        } else {
            Some(LeaseEnd::Horizon)
        };
        if let Some(t) = self.next_crossing(grant, bid) {
            if t < stop_t {
                stop_t = t;
                end_kind = Some(LeaseEnd::Warned);
            }
        }
        if let Some(t) = self.storms.next_mass_revocation(self.zone, grant) {
            if t < stop_t {
                stop_t = t;
                end_kind = Some(LeaseEnd::Unwarned);
            }
        }
        let mut boundary = grant + SimDuration::hours(1);
        while boundary < stop_t {
            self.faults
                .set_storm_multiplier(self.storms.fault_multiplier(self.zone, boundary));
            if self.faults.spot_capacity_fault() {
                stop_t = boundary;
                end_kind = Some(LeaseEnd::Unwarned);
                break;
            }
            boundary += SimDuration::hours(1);
        }

        // A warned revocation stops work when the warning lands and
        // spends the rest of the window flushing; a delayed warning
        // works longer but has less flush budget left.
        let (work_stop, flush_budget) = match end_kind {
            Some(LeaseEnd::Warned) => match self.faults.warning_fault(GRACE) {
                WarningFault::Delivered => (stop_t.saturating_sub(GRACE), GRACE),
                WarningFault::Delayed(d) => {
                    (stop_t.saturating_sub(GRACE) + d, GRACE.saturating_sub(d))
                }
                WarningFault::Missing => (stop_t, SimDuration::ZERO),
            },
            _ => (stop_t, SimDuration::ZERO),
        };

        // Walk the work/checkpoint blocks up to `work_stop`.
        let entering_left = *durable_left;
        let mut left = entering_left;
        let mut unsaved = SimDuration::ZERO;
        let mut cursor = work_start;
        let finished_at = loop {
            if cursor >= work_stop {
                break None;
            }
            let chunk = if can_ckpt { left.min(tau) } else { left };
            let chunk_end = cursor + chunk;
            if work_stop < chunk_end {
                let done = work_stop.since(cursor);
                unsaved += done;
                left -= done;
                break None;
            }
            cursor = chunk_end;
            unsaved += chunk;
            left -= chunk;
            if left == SimDuration::ZERO {
                break Some(cursor);
            }
            // Periodic checkpoint pause; a revocation mid-write loses it.
            let ck_end = cursor + self.delta;
            if work_stop < ck_end {
                break None;
            }
            cursor = ck_end;
            if !self.faults.ckpt_write_fails() {
                *durable_left = left;
                unsaved = SimDuration::ZERO;
                out.checkpoints += 1;
                self.emit(
                    cursor,
                    TelemetryEvent::JobCheckpointed {
                        job: id,
                        duration: self.delta,
                    },
                );
            }
        };

        if let Some(done_at) = finished_at {
            *durable_left = SimDuration::ZERO;
            self.bill_spot(out, grant, done_at, false, entering_left);
            return SpotLeaseOutcome::Finished(done_at);
        }

        // Warned revocations get a bounded final flush of the unsaved
        // increment inside the remaining grace window.
        if can_ckpt && unsaved > SimDuration::ZERO && flush_budget > SimDuration::ZERO {
            let flush = self.ckpt.final_write_duration(unsaved);
            if flush <= flush_budget && !self.faults.ckpt_write_fails() {
                *durable_left = left;
                unsaved = SimDuration::ZERO;
                out.checkpoints += 1;
                self.emit(
                    stop_t,
                    TelemetryEvent::JobCheckpointed {
                        job: id,
                        duration: flush,
                    },
                );
            }
        }

        let banked = entering_left - *durable_left;
        match end_kind {
            None | Some(LeaseEnd::Horizon) => {
                // The horizon cut the lease (planned end or grace window
                // past it): terminate voluntarily at the horizon.
                self.bill_spot(out, grant, self.horizon, false, banked);
                SpotLeaseOutcome::HorizonCut
            }
            _ => {
                self.bill_spot(out, grant, stop_t, true, banked);
                SpotLeaseOutcome::Revoked {
                    at: stop_t,
                    lost: unsaved,
                }
            }
        }
    }
}

enum SpotLeaseOutcome {
    /// Job completed all remaining work at this time.
    Finished(SimTime),
    /// Lease revoked; `lost` is the progress not durably saved.
    Revoked { at: SimTime, lost: SimDuration },
    /// The horizon ended the run mid-lease.
    HorizonCut,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_market::types::InstanceType;

    fn one_day(market: MarketId) -> TraceSet {
        TraceSet::generate(&Catalog::ec2_2015(), &[market], 1, SimDuration::days(1))
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let cfg = JobsConfig::new(JobPolicy::GreedySpot).with_workers(0);
        let traces = one_day(cfg.market);
        let err = try_run_jobs_on(&cfg, &traces, 1, &mut NullSink, &mut JobsScratch::new())
            .expect_err("zero workers must be rejected");
        assert_eq!(
            err,
            JobsError::InvalidConfig("at least one worker slot required".into())
        );
        assert_eq!(
            err.to_string(),
            "invalid jobs config: at least one worker slot required"
        );
    }

    #[test]
    fn missing_trace_is_a_typed_error() {
        let cfg = JobsConfig::new(JobPolicy::CheckpointSpot);
        let other = MarketId::new(Zone::EuWest1a, InstanceType::Small);
        assert_ne!(other, cfg.market);
        let traces = one_day(other);
        let err = try_run_jobs_on(&cfg, &traces, 1, &mut NullSink, &mut JobsScratch::new())
            .expect_err("a trace set without the market must be rejected");
        assert_eq!(err, JobsError::MissingTrace(cfg.market));
        assert_eq!(
            err.to_string(),
            format!("trace set has no trace for {}", cfg.market)
        );
    }

    #[test]
    #[should_panic(expected = "invalid jobs config: at least one worker slot required")]
    fn run_jobs_on_still_panics_with_the_message() {
        let cfg = JobsConfig::new(JobPolicy::GreedySpot).with_workers(0);
        let traces = one_day(cfg.market);
        run_jobs_on(&cfg, &traces, 1, &mut NullSink, &mut JobsScratch::new());
    }
}
