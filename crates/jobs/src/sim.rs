//! The deterministic batch-job simulator.
//!
//! Jobs are scheduled in arrival order onto a fixed pool of worker
//! slots, each slot one server in the configured market. A job runs as
//! a sequence of leases, each requested, activated and billed through
//! one [`CloudProvider`] on the terms the service scheduler gets (§2.1):
//! a spot lease is warned when the price crosses its bid or a storm
//! sweeps its zone, and ends [`REVOCATION_GRACE`] later with its partial
//! hour free; allocation latency follows Table 1 and is not billed; a
//! failed startup is free; a denied request backs off on the
//! scheduler's ladder ([`acquire_backoff`]). Escalated jobs run one
//! on-demand lease. What this module adds is job logic: the bid, Young's
//! checkpoint interval, the checkpoint walk with its final flush, and
//! escalation. Everything is driven by seeded streams ([`derive_seed`])
//! and the arena-backed price traces, so a `(config, seed)` pair replays
//! bit-identically.
//!
//! Jobs are simulated one at a time, to completion, in start order.
//! That is sound because a job's start time is `max(arrival, earliest
//! worker free time)`: arrivals are sorted and the earliest free time
//! only ever grows, so job starts are monotone and the forecaster can
//! be fed price history causally — each job's bid decision sees exactly
//! the history up to its own start, never the future.
//!
//! [`REVOCATION_GRACE`]: spothost_cloudsim::REVOCATION_GRACE

use spothost_cloudsim::{CloudProvider, InstanceId, StartupModel, TerminationReason};
use spothost_core::BiddingPolicy;
use spothost_faults::{acquire_backoff, FaultPlan, StormSchedule};
use spothost_forecast::{ForecastParams, MarketForecaster};
use spothost_market::gen::derive_seed;
use spothost_market::time::{
    SimDuration, SimTime, MILLIS_PER_DAY, MILLIS_PER_HOUR, MILLIS_PER_MINUTE,
};
use spothost_market::types::MarketId;
use spothost_market::{Catalog, TraceSet};
use spothost_telemetry::{NullSink, Sink, TelemetryEvent};
use spothost_virt::{BoundedCheckpointer, VirtParams, VmSpec};
use std::fmt;
use std::marker::PhantomData;

use crate::config::{JobPolicy, JobsConfig};
use crate::report::JobsReport;
use crate::workload::{generate_jobs, JobSpec};

/// Simulation horizon used by [`run_jobs`] when the caller does not
/// supply traces of their own.
pub const DEFAULT_HORIZON: SimDuration = SimDuration(14 * MILLIS_PER_DAY);

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
    /// When the job's first server came up; `None` if none did before
    /// the horizon.
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
    /// Leased wall-clock thrown away: checkpoint/restore overhead, grace
    /// windows, and progress lost to revocations. Allocation latency is
    /// not leased time. `useful + wasted` equals
    /// [`JobOutcome::compute`] exactly.
    pub wasted: SimDuration,
    /// Total leased wall-clock across all of the job's leases.
    pub compute: SimDuration,
    /// Spot leases revoked, by a price crossing or a storm mass
    /// revocation.
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
    let jobs = generate_jobs(cfg, master_seed, SimTime::ZERO + traces.horizon());

    scratch.forecaster.reset(ForecastParams::default());
    scratch.events.clear();
    let mut ctx = Ctx::<S>::new(
        cfg,
        traces,
        master_seed,
        &mut scratch.forecaster,
        &mut scratch.events,
    );

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

/// The state of one job run. `S` is the run's sink type: events are
/// buffered only when it records them.
struct Ctx<'a, S> {
    cfg: &'a JobsConfig,
    /// Every lease of every job is requested, activated, scheduled for
    /// revocation and billed here. Jobs run one after another, each from
    /// its own start, so its price and storm cursors sometimes seek back.
    provider: CloudProvider<'a>,
    pon: f64,
    cap: f64,
    horizon: SimTime,
    /// Mean allocation latency of an on-demand server (Table 1): the
    /// wait the escalation rule expects before the job runs again.
    od_latency: SimDuration,
    /// Duration of one full checkpoint write (also used as the restore
    /// read on the replacement server).
    delta: SimDuration,
    ckpt: BoundedCheckpointer,
    /// Checkpoint-write fault draws. `None` unless fault injection is
    /// enabled; the provider holds its own plan for everything else.
    faults: Option<Box<FaultPlan>>,
    /// The storm schedule's backoff jitter and the fault-rate multiplier
    /// of checkpoint writes (a clone of the provider's, which draws only
    /// the crunch stream). `None` unless storms are enabled.
    storms: Option<StormSchedule>,
    forecaster: &'a mut MarketForecaster,
    events: &'a mut Vec<(SimTime, TelemetryEvent)>,
    /// Fleet-wide revocations observed so far (all jobs).
    obs_revocations: u32,
    /// Fleet-wide leased spot time so far, the hazard denominator.
    obs_busy: SimDuration,
    /// Consecutive denied requests of the current job (drives the
    /// backoff).
    denials: u32,
    sink: PhantomData<fn(S)>,
}

impl<'a, S: Sink> Ctx<'a, S> {
    /// The simulation state of one run: its provider, built the way the
    /// service scheduler builds one, and its storm schedule, built only
    /// when storms are enabled.
    fn new(
        cfg: &'a JobsConfig,
        traces: &'a TraceSet,
        master_seed: u64,
        forecaster: &'a mut MarketForecaster,
        events: &'a mut Vec<(SimTime, TelemetryEvent)>,
    ) -> Self {
        let storms = cfg.storms.enabled().then(|| {
            StormSchedule::new(
                cfg.storms.clone(),
                derive_seed(master_seed, "jobs-storms", 0),
                traces.horizon(),
                traces.spike_spans(),
            )
        });
        let (provider, faults) =
            CloudProvider::for_run(traces, master_seed, &cfg.faults, storms.as_ref());
        let ckpt = BoundedCheckpointer::new(&VmSpec::paper_2gib(), &VirtParams::typical());
        Ctx {
            cfg,
            provider,
            pon: traces.catalog().on_demand_price(cfg.market),
            cap: traces.catalog().max_bid(cfg.market),
            horizon: SimTime::ZERO + traces.horizon(),
            od_latency: StartupModel::table1().on_demand_mean(cfg.market.zone.region()),
            delta: ckpt.full_checkpoint_duration(),
            ckpt,
            faults,
            storms,
            forecaster,
            events,
            obs_revocations: 0,
            obs_busy: SimDuration::ZERO,
            denials: 0,
            sink: PhantomData,
        }
    }

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

    /// Buffer one event for the sink. Behind a `NullSink` the guard is a
    /// compile-time `false`, so nothing is recorded.
    fn emit(&mut self, at: SimTime, ev: TelemetryEvent) {
        if S::ENABLED {
            self.events.push((at, ev));
        }
    }

    /// Does a checkpoint write at `at` fail? Never without faults.
    fn ckpt_write_fails(&mut self, at: SimTime) -> bool {
        let Some(f) = &mut self.faults else {
            return false;
        };
        if let Some(s) = &mut self.storms {
            f.set_storm_multiplier(s.fault_multiplier(self.cfg.market.zone, at));
        }
        f.ckpt_write_fails()
    }

    /// Request a server at `*now` (spot at `bid`, on-demand without one)
    /// and activate it at its ready time, which `*now` moves to; a denied
    /// request moves `*now` past the backoff instead. The running lease,
    /// or `None` when no server came up: a failed startup, a spot price
    /// above the bid at the ready time and a server ready only after the
    /// horizon all close the lease unbilled.
    fn acquire(&mut self, now: &mut SimTime, bid: Option<f64>) -> Option<InstanceId> {
        let market = self.cfg.market;
        let granted = match bid {
            Some(bid) => self.provider.request_spot(market, bid, *now),
            None => self.provider.request_on_demand(market, *now),
        };
        let Ok((lease, ready)) = granted else {
            *now += acquire_backoff(&mut self.denials, self.storms.as_mut());
            return None;
        };
        self.denials = 0;
        if ready >= self.horizon {
            self.provider
                .terminate(lease, *now, TerminationReason::Voluntary);
            *now = self.horizon;
            return None;
        }
        *now = ready;
        self.provider.activate(lease, ready).then_some(lease)
    }

    /// Emit the job's start on its first server, or its restart on the
    /// first server after a revocation.
    fn note_server(
        &mut self,
        id: u32,
        out: &mut JobOutcome,
        pending_lost: &mut Option<SimDuration>,
        at: SimTime,
        spot: bool,
    ) {
        let market = self.cfg.market;
        if out.started.is_none() {
            out.started = Some(at);
            self.emit(
                at,
                TelemetryEvent::JobStarted {
                    job: id,
                    market,
                    spot,
                },
            );
        } else if let Some(lost) = pending_lost.take() {
            self.emit(
                at,
                TelemetryEvent::JobRestarted {
                    job: id,
                    market,
                    lost,
                },
            );
        }
    }

    /// Close the lease that came up at `ready` at `end`, and book its
    /// charge and its leased time, `useful` of which counted toward
    /// completion. Returns the leased time.
    fn close(
        &mut self,
        out: &mut JobOutcome,
        lease: InstanceId,
        ready: SimTime,
        end: SimTime,
        reason: TerminationReason,
        useful: SimDuration,
    ) -> SimDuration {
        let charge = self.provider.terminate(lease, end, reason);
        let wall = end.since(ready);
        debug_assert!(useful <= wall);
        out.cost += charge;
        out.useful += useful;
        out.wasted += wall - useful;
        out.compute += wall;
        if wall > SimDuration::ZERO {
            out.useful_cost += charge * (useful.as_secs_f64() / wall.as_secs_f64());
        }
        wall
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
        self.denials = 0;

        'job: while now < self.horizon {
            if self.cfg.policy == JobPolicy::OnDemandFallback && !escalated {
                // Escalate when the remaining slack no longer covers the
                // predicted restart loss: over the R hours left, expect
                // `hazard * R` revocations losing R/2 each on average.
                let r = durable_left;
                let expected_loss = r.mul_f64(0.5 * hazard * r.as_hours_f64());
                if now + self.od_latency + r + expected_loss > spec.deadline {
                    escalated = true;
                }
            }

            if escalated {
                self.run_on_demand_lease(id, &mut out, &mut pending_lost, &mut now, durable_left);
                break 'job;
            }

            // Wait for the spot price to clear the bid.
            match self
                .provider
                .next_time_at_or_below(self.cfg.market, now, bid)
            {
                Some(t) if t < self.horizon => now = t,
                _ => break 'job,
            }
            let Some(lease) = self.acquire(&mut now, Some(bid)) else {
                continue 'job;
            };
            self.note_server(id, &mut out, &mut pending_lost, now, true);

            match self.run_spot_lease(id, &mut out, lease, now, can_ckpt, tau, &mut durable_left) {
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
    /// (or the horizon). A denied request backs off and a failed startup
    /// requests again.
    fn run_on_demand_lease(
        &mut self,
        id: u32,
        out: &mut JobOutcome,
        pending_lost: &mut Option<SimDuration>,
        now: &mut SimTime,
        durable_left: SimDuration,
    ) {
        let lease = loop {
            if *now >= self.horizon {
                return;
            }
            if let Some(lease) = self.acquire(now, None) {
                break lease;
            }
        };
        let ready = *now;
        self.note_server(id, out, pending_lost, ready, false);
        let end = (ready + durable_left).min(self.horizon);
        let worked = end.since(ready);
        self.close(out, lease, ready, end, TerminationReason::Voluntary, worked);
        *now = end;
        if worked == durable_left {
            out.finished = true;
            out.completion = end;
        }
    }

    /// Run the job on the spot lease that came up at `ready` until the
    /// job finishes, the lease is revoked, or the horizon cuts it off,
    /// and close the lease.
    #[allow(clippy::too_many_arguments)]
    fn run_spot_lease(
        &mut self,
        id: u32,
        out: &mut JobOutcome,
        lease: InstanceId,
        ready: SimTime,
        can_ckpt: bool,
        tau: SimDuration,
        durable_left: &mut SimDuration,
    ) -> SpotLeaseOutcome {
        // Checkpoint restore when resuming durable state.
        let mut work_start = ready;
        if can_ckpt && *durable_left < out.spec.runtime {
            work_start += self.delta + self.provider.volume_attach_delay();
        }

        // Planned completion if nothing interferes: the remaining work
        // plus one checkpoint pause per full tau chunk.
        let n_pauses = if can_ckpt && *durable_left > tau {
            (durable_left.as_millis() - 1) / tau.as_millis().max(1)
        } else {
            0
        };
        let planned_end = work_start + *durable_left + self.delta.mul_f64(n_pauses as f64);

        // The lease ends at the planned completion or the horizon, unless
        // its revocation stops work first: at the warning, or at the
        // termination when no warning comes. The lease then ends at the
        // termination, and the rest of the grace window is the budget of
        // a final flush.
        let mut end = planned_end.min(self.horizon);
        let mut work_stop = end;
        let mut revoked = false;
        if let Some(s) = self.provider.revocation_schedule(lease, ready) {
            let stop = s.warning_at.unwrap_or(s.terminate_at);
            if stop < end {
                work_stop = stop;
                end = s.terminate_at.min(self.horizon);
                revoked = true;
            }
        }

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
            if !self.ckpt_write_fails(cursor) {
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
            let reason = TerminationReason::Voluntary;
            let wall = self.close(out, lease, ready, done_at, reason, entering_left);
            self.obs_busy += wall;
            return SpotLeaseOutcome::Finished(done_at);
        }

        // A warned revocation flushes the unsaved increment when the rest
        // of the grace window fits it.
        if revoked && can_ckpt && unsaved > SimDuration::ZERO {
            let flush = self.ckpt.final_write_duration(unsaved);
            let flushed = work_stop + flush;
            if flushed <= end && !self.ckpt_write_fails(work_stop) {
                *durable_left = left;
                unsaved = SimDuration::ZERO;
                out.checkpoints += 1;
                self.emit(
                    flushed,
                    TelemetryEvent::JobCheckpointed {
                        job: id,
                        duration: flush,
                    },
                );
            }
        }

        let banked = entering_left - *durable_left;
        let reason = if revoked {
            TerminationReason::Revoked
        } else {
            TerminationReason::Voluntary
        };
        let wall = self.close(out, lease, ready, end, reason, banked);
        self.obs_busy += wall;
        if revoked {
            SpotLeaseOutcome::Revoked {
                at: end,
                lost: unsaved,
            }
        } else {
            SpotLeaseOutcome::HorizonCut
        }
    }
}

enum SpotLeaseOutcome {
    /// Job completed all remaining work at this time.
    Finished(SimTime),
    /// Lease revoked and closed at `at`; `lost` is the progress not
    /// durably saved.
    Revoked { at: SimTime, lost: SimDuration },
    /// The horizon ended the run mid-lease.
    HorizonCut,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_cloudsim::{spot_lease_charge, REVOCATION_GRACE};
    use spothost_market::trace::{PricePoint, PriceTrace};
    use spothost_market::types::{InstanceType, Zone};
    use spothost_telemetry::Recorder;

    /// Behind a `NullSink` a run records nothing: the scratch's event
    /// buffer is never grown.
    #[test]
    fn a_null_sink_run_buffers_no_events() {
        let cfg = JobsConfig::new(JobPolicy::CheckpointSpot);
        let traces = TraceSet::generate(
            &Catalog::ec2_2015(),
            &[cfg.market],
            3,
            SimDuration::days(14),
        );
        let mut scratch = JobsScratch::new();
        let result = run_jobs_on(&cfg, &traces, 3, &mut NullSink, &mut scratch);
        assert_eq!(result.outcomes.len(), 93);
        assert_eq!(scratch.events.capacity(), 0);
    }

    /// A checkpointing job's spot lease on a hand-made step trace, faults
    /// off: the price crosses every bid 59 min into the job's work. Work
    /// stops at the crossing, the unsaved increment is flushed inside the
    /// grace window, and the lease is billed to the crossing plus the
    /// grace, which takes it past its first hour: that hour is charged,
    /// the revoked partial hour is free. The job counts one revocation and
    /// finishes on a replacement that runs exactly the work left.
    #[test]
    fn a_revoked_lease_is_warned_at_the_crossing_and_billed_to_its_end() {
        let cfg = JobsConfig::new(JobPolicy::CheckpointSpot);
        let catalog = Catalog::ec2_2015();
        let pon = catalog.on_demand_price(cfg.market);
        let startup = StartupModel::deterministic();
        let latency = startup.spot_mean(cfg.market.zone.region());
        let ready = SimTime::ZERO + latency;
        let crossing = ready + SimDuration::minutes(59);
        let calm = crossing + SimDuration::minutes(30);
        let days = SimDuration::days(2);
        let point = |at, price| PricePoint { at, price };
        let trace = PriceTrace::new(
            vec![
                point(SimTime::ZERO, 0.3 * pon),
                point(crossing, 10.0 * pon),
                point(calm, 0.3 * pon),
            ],
            SimTime::ZERO + days,
        );
        let traces = TraceSet::from_traces(&catalog, vec![(cfg.market, trace)], days);
        let trace = traces.trace(cfg.market).expect("built above");
        let mut scratch = JobsScratch::new();
        let (forecaster, events) = (&mut scratch.forecaster, &mut scratch.events);
        let mut ctx = Ctx::<Recorder>::new(&cfg, &traces, 1, forecaster, events);
        ctx.provider = CloudProvider::new(&traces, 1).with_startup_model(startup);
        let tau = ctx.young_interval(ctx.hazard_per_hour(None));
        assert!(tau > crossing.since(ready), "one chunk, no periodic write");
        let spec = JobSpec {
            arrival: SimTime::ZERO,
            runtime: SimDuration::minutes(79),
            deadline: SimTime::ZERO + days,
            checkpointable: true,
        };
        let out = ctx.run_job(0, spec, SimTime::ZERO);

        assert_eq!(out.revocations, 1);
        assert_eq!(out.started, Some(ready));
        let end = crossing + REVOCATION_GRACE;
        let flushes: Vec<SimTime> = ctx
            .events
            .iter()
            .filter(|(_, ev)| matches!(ev, TelemetryEvent::JobCheckpointed { .. }))
            .map(|&(at, _)| at)
            .collect();
        assert_eq!(out.checkpoints, 1);
        assert_eq!(flushes.len(), 1);
        assert!(crossing < flushes[0] && flushes[0] <= end, "{flushes:?}");
        // The replacement comes up once the price is back under the bid,
        // restores, and runs exactly the 20 min not done by the crossing.
        let ready2 = calm + latency;
        assert!(out.finished);
        assert_eq!(
            out.completion,
            ready2 + ctx.delta + SimDuration::minutes(20)
        );
        assert_eq!(out.useful, spec.runtime);
        assert_eq!(out.compute, end.since(ready) + out.completion.since(ready2));
        let first = spot_lease_charge(trace, ready, end, true);
        assert!((first - 0.3 * pon).abs() < 1e-12, "one hour, got {first}");
        let second = spot_lease_charge(trace, ready2, out.completion, false);
        assert_eq!(out.cost.to_bits(), (first + second).to_bits());
    }

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
