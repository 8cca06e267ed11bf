//! Fleet-scale service simulation: N per-VM schedulers in lockstep on a
//! shared clock, fronted by a least-loaded balancer and a reactive
//! autoscaler.
//!
//! The fleet is one *service* whose capacity breathes with demand:
//!
//! * a [`TrafficModel`] (diurnal + flash crowds) produces the offered
//!   concurrent-user population at every instant;
//! * control ticks every `control_interval` advance every live VM's
//!   [`SimRun`] in lockstep (`step_until(tick)`), so the whole fleet
//!   observes the same arena-backed market history on one shared
//!   simulated clock. A VM with nothing due before the tick
//!   ([`SimRun::next_due`]) is not called at all: a step that would
//!   dispatch nothing is skipped;
//! * at each tick, the least-loaded balancer's even user split lets
//!   [`spothost_workload::mva::fleet_response`] close the loop — offered
//!   load → per-VM utilisation → response time → SLO violations — with
//!   at most **two** populations to solve however large the fleet is,
//!   each looked up in (or added to) the fleet's [`MvaTable`];
//! * a target-tracking autoscaler compares demand against the per-VM
//!   capacity at the target utilisation and acquires or releases VMs
//!   through the ordinary bidding/fault/storm machinery: spawned VMs
//!   boot with real (spot!) startup latency, released VMs settle their
//!   leases at the release instant.
//!
//! # Determinism
//!
//! The fleet report is a pure function of `(config, seed, horizon)`:
//! every VM runs from one [`RunPlan`], per-VM provider streams derive
//! from `derive_seed(fleet_seed, "fleet-vm", spawn_index)`, one storm
//! schedule built from the fleet seed is shared by every VM (one storm
//! hits everyone at once), the flash schedule derives from its own
//! named stream, and every tick iterates VMs in stable spawn order. Same
//! seed → byte-identical [`FleetSimReport`] (proptest-guarded in
//! `tests/fleet_sim_properties.rs`).

use spothost_core::config::SchedulerConfig;
use spothost_core::policy::BiddingPolicy;
use spothost_core::report::RunReport;
use spothost_core::scheduler::{RunPlan, SimRun, SimScratch};
use spothost_core::strategy::MarketScope;
use spothost_core::telemetry::{NullSinkFactory, Sink, SinkFactory};
use spothost_faults::StormConfig;
use spothost_market::catalog::Catalog;
use spothost_market::gen::{derive_seed, TraceSet};
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::Zone;
use spothost_virt::MechanismCombo;
use spothost_workload::mva::{capacity_at_utilization, MvaTable};
use spothost_workload::tpcw::{tpcw_network, NestedPenalties, Platform, TpcwConfig};
use spothost_workload::traffic::{TrafficConfig, TrafficModel};
use spothost_workload::ClosedNetwork;
use std::sync::Arc;

/// Capacity units of each VM: one small server.
const VM_UNITS: u32 = 1;

/// Minimum quiet time between a scaling action and a later scale *down*
/// (scale-ups are never delayed).
const SCALE_DOWN_COOLDOWN: SimDuration = SimDuration(20 * 60 * 1000);

/// Configuration of a fleet-scale service simulation.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// Zone(s) the fleet may place VMs in: one zone = multi-market, more
    /// = multi-region (heterogeneous spot mixes across regions).
    pub zones: Vec<Zone>,
    /// Bidding policy of every per-VM scheduler.
    pub policy: BiddingPolicy,
    /// Migration mechanism combo of every per-VM scheduler.
    pub mechanism: MechanismCombo,
    /// Correlated-failure storms: one schedule built from the fleet seed
    /// is shared by every VM, so the whole fleet sees one episode
    /// timeline.
    pub storms: StormConfig,
    /// The offered-load model driving the autoscaler.
    pub traffic: TrafficConfig,
    /// Fleet size floor (the autoscaler never goes below; ≥ 1).
    pub min_vms: u32,
    /// Fleet size ceiling (capacity is capped here however high demand
    /// surges).
    pub max_vms: u32,
    /// Autoscaler control interval: the fleet steps, re-solves the MVA
    /// model, and re-decides capacity every this often.
    pub control_interval: SimDuration,
    /// Bottleneck-utilisation target per VM; the autoscaler sizes the
    /// fleet so the balanced per-VM population stays at or below the
    /// capacity this utilisation implies.
    pub target_utilization: f64,
    /// Response-time SLO (seconds) that violation fractions are measured
    /// against.
    pub slo_response_s: f64,
    /// The per-VM queueing model users are balanced into. The default is
    /// the CPU-bound nested TPC-W network (images on a CDN), with the
    /// load-dependent nested-CPU fixed point resolved at a mid-range
    /// population of 200 EBs.
    pub per_vm_network: ClosedNetwork,
}

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            zones: vec![Zone::UsEast1a],
            policy: BiddingPolicy::proactive_default(),
            mechanism: MechanismCombo::CKPT_LR_LIVE,
            storms: StormConfig::none(),
            traffic: TrafficConfig::diurnal_default(),
            min_vms: 2,
            max_vms: 200,
            control_interval: SimDuration::minutes(5),
            target_utilization: 0.6,
            slo_response_s: 1.0,
            per_vm_network: tpcw_network(
                TpcwConfig::NoImages,
                Platform::Nested,
                &NestedPenalties::xen_blanket(),
                200,
            ),
        }
    }
}

impl FleetSimConfig {
    /// The market scope every per-VM scheduler bids in.
    pub fn scope(&self) -> MarketScope {
        match self.zones.as_slice() {
            [zone] => MarketScope::MultiMarket(*zone),
            zones => MarketScope::MultiRegion(zones.to_vec()),
        }
    }

    /// Validate ranges; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.zones.is_empty() {
            return Err("fleet needs at least one zone".into());
        }
        self.scope().validate()?;
        if self.min_vms == 0 {
            return Err("min_vms must be >= 1".into());
        }
        if self.max_vms < self.min_vms {
            return Err(format!(
                "max_vms {} must be >= min_vms {}",
                self.max_vms, self.min_vms
            ));
        }
        if self.control_interval < SimDuration::secs(1) {
            return Err("control_interval must be >= 1s".into());
        }
        if !(0.0..=1.0).contains(&self.target_utilization) || self.target_utilization <= 0.0 {
            return Err(format!(
                "target_utilization must be in (0, 1]: {}",
                self.target_utilization
            ));
        }
        if !(self.slo_response_s.is_finite() && self.slo_response_s > 0.0) {
            return Err(format!(
                "slo_response_s must be positive: {}",
                self.slo_response_s
            ));
        }
        self.traffic.validate()
    }

    fn scheduler_config(&self, traces: &TraceSet, fleet_seed: u64) -> SchedulerConfig {
        SchedulerConfig::multi(self.scope())
            .with_policy(self.policy)
            .with_mechanism(self.mechanism)
            .with_capacity_units(VM_UNITS)
            .with_storms(self.storms.clone())
            .with_shared_storms(traces, fleet_seed)
    }
}

/// One autoscaler control-tick observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSample {
    /// Tick time.
    pub t: SimTime,
    /// Offered concurrent users at the tick.
    pub users: f64,
    /// Fleet size the autoscaler wants.
    pub desired: u32,
    /// VMs alive (serving or booting/recovering) when the tick fired,
    /// before any scaling action; the action's effect appears in the
    /// next sample.
    pub live: u32,
    /// VMs actually serving users at the tick.
    pub serving: u32,
    /// User-weighted bottleneck utilisation (0 when nothing serves).
    pub utilization: f64,
    /// User-weighted mean response time, seconds (0 when nothing serves).
    pub mean_response_s: f64,
    /// Approximate p99 response time, seconds (0 when nothing serves).
    pub p99_response_s: f64,
}

/// Aggregated outcome of a fleet simulation. `PartialEq` so the
/// determinism proptest can compare whole reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSimReport {
    /// One observation per control tick, in time order.
    pub samples: Vec<FleetSample>,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Dollars the fleet actually spent (every VM's settled leases).
    pub total_cost: f64,
    /// Dollars the same VM-hours would have cost on on-demand servers
    /// (each VM's baseline over its own lifespan).
    pub od_equivalent_cost: f64,
    /// Dollars a static deployment provisioned for the observed peak
    /// (peak desired fleet size, on-demand, whole horizon) would cost —
    /// the no-autoscaler, no-spot alternative.
    pub static_peak_cost: f64,
    /// Total VM lifetime, hours.
    pub vm_hours: f64,
    /// Peak desired fleet size over the run.
    pub peak_vms: u32,
    /// VMs spawned (including the initial floor).
    pub spawned_vms: u32,
    /// VMs released by scale-downs.
    pub released_vms: u32,
    /// Scale-up / scale-down actions taken.
    pub scale_ups: u32,
    /// Scale-down actions taken.
    pub scale_downs: u32,
    /// Integral of offered users over time (user-seconds).
    pub offered_user_seconds: f64,
    /// User-seconds offered while *nothing* was serving (full outage).
    pub unserved_user_seconds: f64,
    /// Wall time with zero serving VMs, seconds.
    pub outage_seconds: f64,
    /// User-weighted mean response time over the run, seconds.
    pub mean_response_s: f64,
    /// Worst per-tick p99 response time, seconds.
    pub worst_p99_s: f64,
    /// Time-weighted mean of the per-tick utilisation.
    pub mean_utilization: f64,
    /// User-weighted SLO violation fraction (outage user-seconds count
    /// as violated).
    pub slo_violation_frac: f64,
    /// VM-lifespan-weighted unavailability across all VMs (each VM's own
    /// downtime from its scheduler run).
    pub vm_unavailability: f64,
    /// VM-lifespan-weighted fraction of lease time spent on spot.
    pub spot_fraction: f64,
    /// Summed per-VM migration counters.
    pub forced_migrations: u64,
    /// Planned (boundary) migrations across the fleet.
    pub planned_migrations: u64,
    /// Reverse (back-to-spot) migrations across the fleet.
    pub reverse_migrations: u64,
}

impl FleetSimReport {
    /// Fleet cost as a fraction of the static peak-provisioned on-demand
    /// deployment — the headline number: what autoscaling *and* spot
    /// together save over the textbook alternative.
    pub fn normalized_cost(&self) -> f64 {
        if self.static_peak_cost == 0.0 {
            0.0
        } else {
            self.total_cost / self.static_peak_cost
        }
    }

    /// Fleet cost as a fraction of the same VM-hours on on-demand —
    /// isolates the spot win from the autoscaling win.
    pub fn spot_cost_ratio(&self) -> f64 {
        if self.od_equivalent_cost == 0.0 {
            0.0
        } else {
            self.total_cost / self.od_equivalent_cost
        }
    }

    /// Fraction of offered user-seconds that found a serving fleet.
    pub fn service_availability(&self) -> f64 {
        if self.offered_user_seconds == 0.0 {
            1.0
        } else {
            1.0 - self.unserved_user_seconds / self.offered_user_seconds
        }
    }

    /// Render the report as the text block experiments and the CLI print.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet over {:.1} days: {} ticks, peak {} VMs, {} spawned / {} released ({} ups, {} downs)\n",
            self.horizon.as_hours_f64() / 24.0,
            self.samples.len(),
            self.peak_vms,
            self.spawned_vms,
            self.released_vms,
            self.scale_ups,
            self.scale_downs,
        ));
        out.push_str(&format!(
            "  cost: ${:.2} = {:.1}% of static-peak on-demand (${:.2}); {:.1}% of same-hours on-demand (${:.2})\n",
            self.total_cost,
            100.0 * self.normalized_cost(),
            self.static_peak_cost,
            100.0 * self.spot_cost_ratio(),
            self.od_equivalent_cost,
        ));
        out.push_str(&format!(
            "  service: availability {:.4}%, SLO violations {:.3}%, mean response {:.0} ms, worst p99 {:.0} ms\n",
            100.0 * self.service_availability(),
            100.0 * self.slo_violation_frac,
            1_000.0 * self.mean_response_s,
            1_000.0 * self.worst_p99_s,
        ));
        out.push_str(&format!(
            "  VMs: {:.0} VM-hours, unavailability {:.4}%, spot fraction {:.1}%, migrations {}F/{}P/{}R\n",
            self.vm_hours,
            100.0 * self.vm_unavailability,
            100.0 * self.spot_fraction,
            self.forced_migrations,
            self.planned_migrations,
            self.reverse_migrations,
        ));
        out
    }
}

/// One live VM: its stepping scheduler run plus fleet bookkeeping. The
/// run sits behind a `Box` so the tick loop walks a compact array, and
/// `due` and `serving` cache what the run reported after its last step.
struct VmSlot<'t, S: Sink> {
    run: Box<SimRun<'t, S>>,
    /// [`SimRun::next_due`] after the last step.
    due: SimTime,
    /// [`SimRun::is_serving`] after the last step.
    serving: bool,
    started: SimTime,
    spawn_idx: u32,
}

impl<S: Sink> VmSlot<'_, S> {
    /// Refresh the cached `due` and `serving` from the run.
    fn observe(&mut self) {
        self.due = self.run.next_due();
        self.serving = self.run.is_serving();
    }
}

/// The fleet simulator. Borrows a caller-owned [`TraceSet`] so every VM
/// shares the arena-backed market history; use [`run_fleet_sim`] for the
/// generate-and-run convenience path.
///
/// Generic over a [`SinkFactory`]: each spawned VM gets its own telemetry
/// sink tagged with the VM's stable spawn index, so a columnar store (or
/// any other factory) can demultiplex per-VM event streams afterwards.
/// The default [`NullSinkFactory`] monomorphizes every per-VM run to the
/// uninstrumented scheduler — the factory plumbing costs nothing unless a
/// real factory is attached via [`FleetSim::with_sinks`].
pub struct FleetSim<'t, F: SinkFactory = NullSinkFactory> {
    cfg: FleetSimConfig,
    sinks: F,
    /// The run plan every VM is spawned from.
    plan: Arc<RunPlan<'t>>,
    /// The per-VM network's MVA solutions, shared by every tick.
    mva: MvaTable,
    traffic: TrafficModel,
    seed: u64,
    horizon: SimTime,
    vms: Vec<VmSlot<'t, F::Sink>>,
    scratch_pool: Vec<SimScratch>,
    per_vm_cap: u64,
    baseline_rate: f64,
    spawn_counter: u32,
    last_scale: SimTime,
    // accumulators
    samples: Vec<FleetSample>,
    finished: Vec<RunReport>,
    scale_ups: u32,
    scale_downs: u32,
    released: u32,
    offered_user_seconds: f64,
    unserved_user_seconds: f64,
    outage_seconds: f64,
    response_user_seconds: f64,
    violation_user_seconds: f64,
    utilization_seconds: f64,
    worst_p99_s: f64,
    peak_desired: u32,
}

// `new` is defined concretely on the `NullSinkFactory` instantiation:
// default type parameters don't guide function-call inference, so this is
// what keeps every existing `FleetSim::new(..)` call site compiling
// unchanged (mirroring `SimRun::new`).
impl<'t> FleetSim<'t> {
    /// Build the fleet over a trace set covering every market in scope.
    /// Panics on an invalid config (validate first for a soft error) or
    /// on a trace set that misses a market in scope.
    pub fn new(cfg: FleetSimConfig, traces: &'t TraceSet, seed: u64) -> Self {
        FleetSim::with_sinks(cfg, traces, seed, NullSinkFactory)
    }
}

impl<'t, F: SinkFactory> FleetSim<'t, F> {
    /// [`FleetSim::new`] with a telemetry [`SinkFactory`]: every spawned
    /// VM's scheduler run is instrumented with `factory.make(spawn_idx)`,
    /// so the factory can tag each stream with the VM it came from.
    /// Panics like [`FleetSim::new`].
    pub fn with_sinks(cfg: FleetSimConfig, traces: &'t TraceSet, seed: u64, sinks: F) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid fleet sim config: {e}");
        }
        let horizon = SimTime::ZERO + traces.horizon();
        let traffic = TrafficModel::new(cfg.traffic.clone(), seed, traces.horizon());
        let per_vm_cap = capacity_at_utilization(&cfg.per_vm_network, cfg.target_utilization);
        let plan = match RunPlan::new(traces, &cfg.scheduler_config(traces, seed)) {
            Ok(plan) => Arc::new(plan),
            Err(e) => panic!("{e}"),
        };
        let mva = MvaTable::new(&cfg.per_vm_network);
        let baseline_rate = cfg.scope().baseline_rate(traces.catalog(), VM_UNITS);
        FleetSim {
            cfg,
            sinks,
            plan,
            mva,
            traffic,
            seed,
            horizon,
            vms: Vec::new(),
            scratch_pool: Vec::new(),
            per_vm_cap,
            baseline_rate,
            spawn_counter: 0,
            last_scale: SimTime::ZERO,
            samples: Vec::new(),
            finished: Vec::new(),
            scale_ups: 0,
            scale_downs: 0,
            released: 0,
            offered_user_seconds: 0.0,
            unserved_user_seconds: 0.0,
            outage_seconds: 0.0,
            response_user_seconds: 0.0,
            violation_user_seconds: 0.0,
            utilization_seconds: 0.0,
            worst_p99_s: 0.0,
            peak_desired: 0,
        }
    }

    /// Users one VM absorbs at the configured target utilisation.
    pub fn per_vm_capacity(&self) -> u64 {
        self.per_vm_cap
    }

    /// Run the whole simulation and report.
    pub fn run(mut self) -> FleetSimReport {
        // Boot the floor fleet at t = 0.
        for _ in 0..self.cfg.min_vms {
            self.spawn(SimTime::ZERO);
        }
        let mut t = SimTime::ZERO;
        while t < self.horizon {
            self.control_tick(t);
            t += self.cfg.control_interval;
        }
        // Settle every VM still alive at the horizon.
        let horizon = self.horizon;
        let vms = std::mem::take(&mut self.vms);
        for mut slot in vms {
            slot.run.step_until(SimTime::MAX);
            let (report, scratch) = slot.run.finish_at(horizon);
            self.finished.push(report);
            self.scratch_pool.push(scratch);
        }
        self.into_report()
    }

    /// Spawn one VM starting at `at` from the fleet's run plan, drawing a
    /// fresh derived seed and recycling scratch when available. The sink
    /// factory is consulted with the VM's stable spawn index before the
    /// run begins, so its very first emissions are already tagged.
    fn spawn(&mut self, at: SimTime) {
        let vm_seed = derive_seed(self.seed, "fleet-vm", self.spawn_counter as u64);
        let scratch = self.scratch_pool.pop().unwrap_or_default();
        let sink = self.sinks.make(self.spawn_counter);
        let run = SimRun::from_plan(Arc::clone(&self.plan), vm_seed, scratch)
            .with_sink(sink)
            .with_start(at);
        let mut slot = VmSlot {
            run: Box::new(run),
            due: SimTime::ZERO,
            serving: false,
            started: at,
            spawn_idx: self.spawn_counter,
        };
        slot.run.begin();
        slot.observe();
        self.vms.push(slot);
        self.spawn_counter += 1;
    }

    /// Release `k` VMs at `t`: non-serving victims first, then the
    /// youngest — a deterministic order that sheds booting or recovering
    /// capacity before touching stable servers.
    fn release(&mut self, k: usize, t: SimTime) {
        let mut order: Vec<usize> = (0..self.vms.len()).collect();
        order.sort_by_key(|&i| {
            let slot = &self.vms[i];
            (
                slot.serving,
                std::cmp::Reverse(slot.started),
                std::cmp::Reverse(slot.spawn_idx),
            )
        });
        let mut victims: Vec<usize> = order.into_iter().take(k).collect();
        // Remove from the back so earlier indices stay valid.
        victims.sort_unstable_by(|a, b| b.cmp(a));
        for idx in victims {
            let slot = self.vms.remove(idx);
            let (report, scratch) = slot.run.finish_at(t);
            self.finished.push(report);
            self.scratch_pool.push(scratch);
            self.released += 1;
        }
    }

    fn control_tick(&mut self, t: SimTime) {
        // 1. Advance every VM to the tick, in spawn order. A VM with
        // nothing due before the tick would dispatch nothing, so it is not
        // called.
        for slot in &mut self.vms {
            if slot.due < t {
                slot.run.step_until(t);
                slot.observe();
            }
        }
        // 2. Observe load and solve the balanced queueing model.
        let users_f = self.traffic.users_at(t);
        let users = users_f.round().max(0.0) as u64;
        let serving = self.vms.iter().filter(|s| s.serving).count() as u32;
        let dt = self
            .cfg
            .control_interval
            .min(SimDuration(self.horizon.0 - t.0));
        let dt_s = dt.0 as f64 / 1_000.0;
        let (utilization, mean_r, p99) = if serving > 0 {
            let load = self
                .mva
                .fleet_response(users, serving as u64, self.cfg.slo_response_s);
            self.violation_user_seconds += load.slo_violation_frac * users_f * dt_s;
            self.worst_p99_s = self.worst_p99_s.max(load.p99_response_s);
            (load.utilization, load.mean_response_s, load.p99_response_s)
        } else {
            // Nothing serving: a full outage interval. All offered
            // user-seconds are unserved and count as SLO violations.
            self.unserved_user_seconds += users_f * dt_s;
            self.violation_user_seconds += users_f * dt_s;
            self.outage_seconds += dt_s;
            (0.0, 0.0, 0.0)
        };
        self.offered_user_seconds += users_f * dt_s;
        self.response_user_seconds += mean_r * users_f * dt_s;
        self.utilization_seconds += utilization * dt_s;
        // 3. Target-tracking capacity decision.
        let desired = users
            .div_ceil(self.per_vm_cap)
            .max(self.cfg.min_vms as u64)
            .min(self.cfg.max_vms as u64) as u32;
        self.peak_desired = self.peak_desired.max(desired);
        let live = self.vms.len() as u32;
        if desired > live {
            for _ in live..desired {
                self.spawn(t);
            }
            self.scale_ups += 1;
            self.last_scale = t;
        } else if desired < live && t.0 - self.last_scale.0 >= SCALE_DOWN_COOLDOWN.0 {
            self.release((live - desired) as usize, t);
            self.scale_downs += 1;
            self.last_scale = t;
        }
        // 4. Record the tick: the pre-action observation the decision was
        // made on; the action's effect shows up in the next sample.
        self.samples.push(FleetSample {
            t,
            users: users_f,
            desired,
            live,
            serving,
            utilization,
            mean_response_s: mean_r,
            p99_response_s: p99,
        });
    }

    fn into_report(self) -> FleetSimReport {
        let mut total_cost = 0.0;
        let mut od_equivalent_cost = 0.0;
        let mut vm_ms = 0.0f64;
        let mut down_ms = 0.0f64;
        let mut spot_weighted = 0.0f64;
        let mut forced = 0u64;
        let mut planned = 0u64;
        let mut reverse = 0u64;
        for r in &self.finished {
            total_cost += r.cost;
            od_equivalent_cost += r.baseline_cost;
            let span_ms = r.active_span.0 as f64;
            vm_ms += span_ms;
            down_ms += r.downtime.0 as f64;
            spot_weighted += r.spot_fraction * span_ms;
            forced += r.forced_migrations as u64;
            planned += r.planned_migrations as u64;
            reverse += r.reverse_migrations as u64;
        }
        let horizon = SimDuration(self.horizon.0);
        let static_peak_cost =
            self.peak_desired as f64 * self.baseline_rate * horizon.as_hours_f64();
        FleetSimReport {
            samples: self.samples,
            horizon,
            total_cost,
            od_equivalent_cost,
            static_peak_cost,
            vm_hours: vm_ms / 3_600_000.0,
            peak_vms: self.peak_desired,
            spawned_vms: self.spawn_counter,
            released_vms: self.released,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            offered_user_seconds: self.offered_user_seconds,
            unserved_user_seconds: self.unserved_user_seconds,
            outage_seconds: self.outage_seconds,
            mean_response_s: if self.offered_user_seconds == 0.0 {
                0.0
            } else {
                self.response_user_seconds / self.offered_user_seconds
            },
            worst_p99_s: self.worst_p99_s,
            mean_utilization: {
                let total_s = horizon.0 as f64 / 1_000.0;
                if total_s == 0.0 {
                    0.0
                } else {
                    self.utilization_seconds / total_s
                }
            },
            slo_violation_frac: if self.offered_user_seconds == 0.0 {
                0.0
            } else {
                self.violation_user_seconds / self.offered_user_seconds
            },
            vm_unavailability: if vm_ms == 0.0 { 0.0 } else { down_ms / vm_ms },
            spot_fraction: if vm_ms == 0.0 {
                0.0
            } else {
                spot_weighted / vm_ms
            },
            forced_migrations: forced,
            planned_migrations: planned,
            reverse_migrations: reverse,
        }
    }
}

/// Generate traces for the configured scope and run the fleet: the
/// convenience entry point experiments and the CLI use. Trace generation
/// is arena-backed, so a fleet sharing markets with other experiments in
/// the same process reuses their price histories.
pub fn run_fleet_sim(cfg: &FleetSimConfig, seed: u64, horizon: SimDuration) -> FleetSimReport {
    run_fleet_sim_with(cfg, seed, horizon, NullSinkFactory)
}

/// [`run_fleet_sim`] with a telemetry [`SinkFactory`] attached: every
/// spawned VM streams its events into `factory.make(spawn_idx)`. Pass a
/// `spothost_eventstore::ColumnarStore` to capture per-VM tagged columnar
/// telemetry of a whole fleet run.
pub fn run_fleet_sim_with<F: SinkFactory>(
    cfg: &FleetSimConfig,
    seed: u64,
    horizon: SimDuration,
    sinks: F,
) -> FleetSimReport {
    let catalog = Catalog::ec2_2015();
    let markets: Vec<_> = cfg
        .zones
        .iter()
        .flat_map(|&z| spothost_market::types::MarketId::all_in_zone(z))
        .collect();
    let traces = TraceSet::generate(&catalog, &markets, seed, horizon);
    FleetSim::with_sinks(cfg.clone(), &traces, seed, sinks).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetSimConfig {
        FleetSimConfig {
            min_vms: 2,
            max_vms: 20,
            control_interval: SimDuration::minutes(15),
            traffic: TrafficConfig {
                base_users: 600.0,
                ..TrafficConfig::diurnal_default()
            },
            ..FleetSimConfig::default()
        }
    }

    #[test]
    fn fleet_serves_and_scales() {
        let report = run_fleet_sim(&small_cfg(), 7, SimDuration::days(7));
        assert!(report.peak_vms >= 2);
        assert!(report.spawned_vms >= report.peak_vms.min(20));
        assert!(report.total_cost > 0.0);
        assert!(report.vm_hours > 0.0);
        assert!(
            report.service_availability() > 0.95,
            "availability {}",
            report.service_availability()
        );
        // Diurnal swing must actually move the fleet.
        assert!(report.scale_ups > 0);
        assert!(report.scale_downs > 0, "fleet never scaled down");
        let sizes: Vec<u32> = report.samples.iter().map(|s| s.live).collect();
        let min = sizes.iter().min().copied().unwrap_or(0);
        let max = sizes.iter().max().copied().unwrap_or(0);
        assert!(max > min, "fleet size never moved: {min}..{max}");
    }

    #[test]
    fn fleet_beats_static_peak_on_demand() {
        let report = run_fleet_sim(&small_cfg(), 3, SimDuration::days(7));
        assert!(
            report.normalized_cost() < 0.5,
            "normalized {}",
            report.normalized_cost()
        );
        // And the spot layer alone also beats same-hours on-demand.
        assert!(
            report.spot_cost_ratio() < 0.6,
            "spot ratio {}",
            report.spot_cost_ratio()
        );
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = run_fleet_sim(&small_cfg(), 11, SimDuration::days(3));
        let b = run_fleet_sim(&small_cfg(), 11, SimDuration::days(3));
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        let c = run_fleet_sim(&small_cfg(), 12, SimDuration::days(3));
        assert_ne!(a.total_cost, c.total_cost, "seed must matter");
    }

    #[test]
    fn max_vms_caps_the_fleet() {
        let mut cfg = small_cfg();
        cfg.max_vms = 3;
        let report = run_fleet_sim(&cfg, 5, SimDuration::days(3));
        assert!(report.samples.iter().all(|s| s.live <= 3));
        assert_eq!(report.peak_vms, 3, "demand should want more than 3");
        // Overloaded fleet: utilisation pins high somewhere.
        let worst = report
            .samples
            .iter()
            .map(|s| s.utilization)
            .fold(0.0, f64::max);
        assert!(worst > 0.9, "worst utilization {worst}");
    }

    #[test]
    fn multi_region_fleet_runs() {
        let cfg = FleetSimConfig {
            zones: vec![Zone::UsEast1a, Zone::UsWest1a],
            ..small_cfg()
        };
        let report = run_fleet_sim(&cfg, 9, SimDuration::days(3));
        assert!(report.total_cost > 0.0);
        assert!(report.service_availability() > 0.9);
    }

    #[test]
    fn storms_do_not_break_the_fleet() {
        let calm = run_fleet_sim(&small_cfg(), 13, SimDuration::days(5));
        let stormy_cfg = FleetSimConfig {
            storms: StormConfig::intensity(0.5),
            ..small_cfg()
        };
        let stormy = run_fleet_sim(&stormy_cfg, 13, SimDuration::days(5));
        assert!(stormy.vm_unavailability >= calm.vm_unavailability);
        // Zero intensity is byte-identical to no storms at all.
        let zero_cfg = FleetSimConfig {
            storms: StormConfig::intensity(0.0),
            ..small_cfg()
        };
        let zero = run_fleet_sim(&zero_cfg, 13, SimDuration::days(5));
        assert_eq!(calm, zero);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = small_cfg();
        cfg.min_vms = 0;
        assert!(cfg.validate().is_err());
        cfg = small_cfg();
        cfg.max_vms = 1;
        assert!(cfg.validate().is_err());
        cfg = small_cfg();
        cfg.target_utilization = 0.0;
        assert!(cfg.validate().is_err());
        assert!(small_cfg().validate().is_ok());
    }

    #[test]
    fn a_repeated_zone_is_rejected() {
        // Regression: `[us-east-1a, us-east-1a]` used to validate, and
        // every VM then saw each of that zone's storm edges twice.
        let cfg = FleetSimConfig {
            zones: vec![Zone::UsEast1a, Zone::UsEast1a],
            storms: StormConfig::intensity(0.5),
            ..small_cfg()
        };
        let err = cfg.validate().expect_err("repeated zone");
        assert!(err.contains("us-east-1a"), "{err}");
    }
}
