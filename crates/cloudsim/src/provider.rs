//! The cloud provider: allocation, revocation scheduling, billing.
//!
//! The provider is *omniscient about its own prices* (it sets them from the
//! trace), so it can tell a simulation driver exactly when a given lease
//! will be revoked — the driver schedules that as a future event. The
//! *customer-visible* API remains faithful to EC2: the scheduler only ever
//! learns of a revocation through the two-minute warning.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::cell::RefCell;

use crate::billing::{on_demand_lease_charge, spot_lease_charge, SpotLeaseMeter};
use crate::instance::{Instance, InstanceId, InstanceKind, InstanceState, TerminationReason};
use crate::startup::StartupModel;
use crate::REVOCATION_GRACE;
use spothost_faults::{FaultConfig, FaultPlan, StormSchedule, WarningFault};
use spothost_market::gen::{derive_seed, TraceSet};
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::trace::TraceCursor;
use spothost_market::types::{MarketId, Zone};

/// Errors from server requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestError {
    /// The market has no generated trace in this simulation.
    UnknownMarket(MarketId),
    /// Spot requests are only granted while the current price is at or
    /// below the bid.
    BidBelowPrice { current: f64, bid: f64 },
    /// The provider caps bids (Amazon: 4x on-demand, §3.1 footnote 1).
    BidAboveCap { cap: f64, bid: f64 },
    /// The market is (transiently) out of capacity — injected by a fault
    /// plan or a storm capacity crunch; real EC2 returns this for both
    /// spot and on-demand requests.
    InsufficientCapacity(MarketId),
    /// The global on-demand quota (a storm-model knob) is exhausted: the
    /// account already holds its maximum of concurrent on-demand servers
    /// and must wait for one to be released.
    QuotaExhausted(MarketId),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownMarket(m) => write!(f, "no trace for market {m}"),
            RequestError::BidBelowPrice { current, bid } => {
                write!(f, "bid {bid} below current spot price {current}")
            }
            RequestError::BidAboveCap { cap, bid } => {
                write!(f, "bid {bid} above provider cap {cap}")
            }
            RequestError::InsufficientCapacity(m) => {
                write!(f, "insufficient capacity in market {m}")
            }
            RequestError::QuotaExhausted(m) => {
                write!(f, "on-demand quota exhausted requesting in market {m}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// When a running spot lease will be revoked, if ever (within the horizon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevocationSchedule {
    /// When the spot price first exceeds the bid — the moment the
    /// revocation becomes inevitable on the provider side.
    pub crossing_at: SimTime,
    /// When the customer-visible warning is delivered. Normally equal to
    /// `crossing_at`; a fault plan may delay it (eating into the grace
    /// window) or suppress it entirely (`None` — pre-2015 EC2 gave no
    /// warning at all).
    pub warning_at: Option<SimTime>,
    /// Forced termination time (`crossing_at + REVOCATION_GRACE`),
    /// warning or no warning.
    pub terminate_at: SimTime,
}

/// The simulated cloud provider.
///
/// All price queries (`spot_price`, crossing scans, billing) go through
/// per-market [`TraceCursor`]s held behind a `RefCell`: the simulation
/// clock only moves forward, so a lookup is an O(1) cursor step to the
/// next price change or an O(log d) gallop over `d` changes instead of an
/// O(log n) binary search, and the cursors are invisible to callers
/// (`&self` query methods keep their signatures).
/// A cursor handed an out-of-order timestamp simply resyncs, so
/// correctness never depends on monotonicity — only speed does.
///
/// Instance ids are handed out densely from 0 and never reused, so the
/// provider's tables are plain vectors: the instance table is indexed by
/// id, and the few running spot leases' meters and the doomed startups
/// are short lists searched by id. Nothing is hashed.
#[derive(Debug)]
pub struct CloudProvider<'t> {
    traces: &'t TraceSet,
    startup: StartupModel,
    rng: ChaCha12Rng,
    /// Every instance ever created, at the index of its id.
    instances: Vec<Instance>,
    /// One forward cursor per market (dense-indexed, lazily created),
    /// shared by price lookups, revocation scans and reverse-migration
    /// scans. Interior mutability keeps the read-only query API
    /// (`spot_price(&self, ..)`) intact.
    market_cursors: RefCell<[Option<TraceCursor<'t>>; 16]>,
    /// Incremental billing meter for each *running* spot lease; created on
    /// activation, advanced as the simulation clock passes hour boundaries,
    /// consumed at termination.
    meters: Vec<(InstanceId, SpotLeaseMeter<'t>)>,
    /// Injected provider faults. `None` (the default) is the infallible
    /// provider: requests always granted, servers always come up, warnings
    /// always on time. Boxed, so a provider without faults does not carry
    /// an empty plan's space through every move.
    faults: Option<Box<FaultPlan>>,
    /// Correlated-failure storms: episode-modulated fault rates, capacity
    /// crunches, mass revocations and the global on-demand quota. `None`
    /// (the default) is the storm-free provider. Only the crunch stream is
    /// drawn here; the timeline is shared with the schedule's other clones.
    storms: Option<StormSchedule>,
    /// On-demand servers currently held (granted and not yet terminated),
    /// counted against the storm model's global quota.
    od_active: u32,
    /// Instances whose startup was sabotaged by the fault plan: they reach
    /// their ready time but activation fails and they close unbilled.
    /// Empty without a fault plan.
    doomed: Vec<InstanceId>,
}

impl<'t> CloudProvider<'t> {
    /// Build a provider over a trace set. The startup sampler derives its
    /// stream from `seed`, independent of trace generation.
    pub fn new(traces: &'t TraceSet, seed: u64) -> Self {
        CloudProvider {
            traces,
            startup: StartupModel::table1(),
            rng: ChaCha12Rng::seed_from_u64(derive_seed(seed, "provider-startup", 0)),
            instances: Vec::new(),
            market_cursors: RefCell::new([const { None }; 16]),
            meters: Vec::new(),
            faults: None,
            storms: None,
            od_active: 0,
            doomed: Vec::new(),
        }
    }

    /// The provider of one simulation run with seed `seed`, and the
    /// mechanism-side fault plan its caller draws from.
    ///
    /// Fault plans are split: the provider draws request, startup and
    /// warning faults, the caller draws the rest (checkpoint writes, live
    /// aborts, lazy-restore storms). Separate derived seeds keep the two
    /// stream families independent. With faults disabled neither side
    /// holds a plan, and without a storm schedule the provider holds
    /// none, so a run without either is bit-identical to a provider that
    /// never heard of them.
    ///
    /// Under a storm schedule fault rates rise during episodes, requests
    /// can hit capacity crunches, running spot leases are swept by mass
    /// revocations, and on-demand requests are bounded by the global
    /// quota. The provider keeps its own clone of `storms`: it draws only
    /// the crunch stream, the caller only the jitter stream.
    pub fn for_run(
        traces: &'t TraceSet,
        seed: u64,
        faults: &FaultConfig,
        storms: Option<&StormSchedule>,
    ) -> (Self, Option<Box<FaultPlan>>) {
        let plan = |role| {
            let seed = derive_seed(seed, role, 0);
            faults
                .enabled()
                .then(|| Box::new(FaultPlan::new(faults.clone(), seed)))
        };
        let mut provider = CloudProvider::new(traces, seed);
        provider.faults = plan("faults-provider");
        provider.storms = storms.cloned();
        (provider, plan("faults-mechanism"))
    }

    /// On-demand servers currently counted against the storm quota.
    pub fn on_demand_in_use(&self) -> u32 {
        self.od_active
    }

    /// Point the fault plan's storm multiplier at this zone and moment.
    /// The multiplier lingers until the next call, so draws without their
    /// own market context (volume attach) inherit the most recent one —
    /// deterministic either way, and those draws belong to the recovery
    /// the storm just forced.
    fn apply_storm_rates(&mut self, zone: Zone, at: SimTime) {
        if let (Some(s), Some(f)) = (&mut self.storms, &mut self.faults) {
            f.set_storm_multiplier(s.fault_multiplier(zone, at));
        }
    }

    /// Release one unit of the on-demand quota when an on-demand server
    /// leaves the fleet.
    fn release_od(&mut self, kind: InstanceKind) {
        if matches!(kind, InstanceKind::OnDemand) {
            self.od_active = self.od_active.saturating_sub(1);
        }
    }

    /// Run `f` against the (lazily created) forward cursor for `market`.
    /// Returns `None` when the market has no trace in this simulation.
    fn with_cursor<R>(
        &self,
        market: MarketId,
        f: impl FnOnce(&mut TraceCursor<'t>) -> R,
    ) -> Option<R> {
        let mut cursors = self.market_cursors.borrow_mut();
        let slot = &mut cursors[market.dense_index()];
        if slot.is_none() {
            *slot = Some(self.traces.trace(market)?.cursor());
        }
        Some(f(slot.as_mut().expect("just filled")))
    }

    /// Replace the startup model (tests use [`StartupModel::deterministic`]).
    pub fn with_startup_model(mut self, model: StartupModel) -> Self {
        self.startup = model;
        self
    }

    pub fn traces(&self) -> &'t TraceSet {
        self.traces
    }

    /// Current spot price of a market.
    pub fn spot_price(&self, market: MarketId, at: SimTime) -> Option<f64> {
        self.with_cursor(market, |c| c.price_at(at))
    }

    /// Fixed on-demand price of a market.
    pub fn on_demand_price(&self, market: MarketId) -> f64 {
        self.traces.catalog().on_demand_price(market)
    }

    /// Earliest time `>= from` when the market trades at or below `price`
    /// (used by the scheduler to decide when a reverse migration becomes
    /// attractive).
    pub fn next_time_at_or_below(
        &self,
        market: MarketId,
        from: SimTime,
        price: f64,
    ) -> Option<SimTime> {
        self.with_cursor(market, |c| c.next_time_at_or_below(from, price))?
    }

    /// Create a pending instance under the next dense id, drawing its
    /// startup-failure fault.
    fn admit(
        &mut self,
        market: MarketId,
        kind: InstanceKind,
        now: SimTime,
        ready_at: SimTime,
    ) -> InstanceId {
        let id = InstanceId(self.instances.len() as u64);
        self.maybe_doom(id);
        self.instances.push(Instance {
            id,
            market,
            kind,
            requested_at: now,
            ready_at,
            state: InstanceState::Pending { ready_at },
        });
        id
    }

    /// The instance with this id, if it exists.
    fn slot_mut(&mut self, id: InstanceId) -> Option<&mut Instance> {
        self.instances.get_mut(usize::try_from(id.0).ok()?)
    }

    /// Position of a running spot lease's meter in `meters`.
    fn meter_index(&self, id: InstanceId) -> Option<usize> {
        self.meters.iter().position(|(m, _)| *m == id)
    }

    /// Request a spot server. Granted only if the current price is at or
    /// below `bid` and `bid` does not exceed the provider cap. Returns the
    /// instance id and the time the server becomes ready.
    pub fn request_spot(
        &mut self,
        market: MarketId,
        bid: f64,
        now: SimTime,
    ) -> Result<(InstanceId, SimTime), RequestError> {
        if self.traces.trace(market).is_none() {
            return Err(RequestError::UnknownMarket(market));
        }
        let cap = self.traces.catalog().max_bid(market);
        if bid > cap + 1e-12 {
            return Err(RequestError::BidAboveCap { cap, bid });
        }
        let current = self
            .with_cursor(market, |c| c.price_at(now))
            .expect("trace presence checked above");
        if current > bid {
            return Err(RequestError::BidBelowPrice { current, bid });
        }
        self.apply_storm_rates(market.zone, now);
        if let Some(f) = &mut self.faults {
            if f.spot_capacity_fault() {
                return Err(RequestError::InsufficientCapacity(market));
            }
        }
        if let Some(s) = &mut self.storms {
            // Storm capacity crunch: the market is drained by everyone
            // else's correlated recovery.
            if s.crunch_fault(market.zone, now) {
                return Err(RequestError::InsufficientCapacity(market));
            }
        }
        let latency = self
            .startup
            .sample_spot(&mut self.rng, market.zone.region());
        let ready_at = now + latency;
        let id = self.admit(market, InstanceKind::Spot { bid }, now, ready_at);
        Ok((id, ready_at))
    }

    /// Request an on-demand server. Always granted by the fault-free
    /// provider; a fault plan can reject it with
    /// [`RequestError::InsufficientCapacity`], and a storm schedule's
    /// global quota with [`RequestError::QuotaExhausted`] once
    /// [`on_demand_in_use`](Self::on_demand_in_use) reaches the quota.
    /// The quota check is deterministic and advances no random stream.
    pub fn request_on_demand(
        &mut self,
        market: MarketId,
        now: SimTime,
    ) -> Result<(InstanceId, SimTime), RequestError> {
        if let Some(s) = &self.storms {
            let quota = s.od_quota();
            if quota > 0 && self.od_active >= quota {
                return Err(RequestError::QuotaExhausted(market));
            }
        }
        self.apply_storm_rates(market.zone, now);
        if let Some(f) = &mut self.faults {
            if f.od_capacity_fault() {
                return Err(RequestError::InsufficientCapacity(market));
            }
        }
        if let Some(s) = &mut self.storms {
            // A crunched zone is out of servers of *either* kind — the
            // correlated recovery draining the spot pools empties the
            // on-demand pool right behind them. This is what makes
            // fleeing to a calm zone beat queueing in the storming one.
            if s.crunch_fault(market.zone, now) {
                return Err(RequestError::InsufficientCapacity(market));
            }
        }
        let latency = self
            .startup
            .sample_on_demand(&mut self.rng, market.zone.region());
        let ready_at = now + latency;
        let id = self.admit(market, InstanceKind::OnDemand, now, ready_at);
        self.od_active += 1;
        Ok((id, ready_at))
    }

    /// Draw the startup-failure fault for a freshly granted request.
    fn maybe_doom(&mut self, id: InstanceId) {
        if let Some(f) = &mut self.faults {
            if f.startup_failure() {
                self.doomed.push(id);
            }
        }
    }

    /// Is this pending instance fated to fail activation? Lets callers
    /// distinguish an injected startup fault from a legitimate spot
    /// price-rise failure when [`CloudProvider::activate`] returns false.
    pub fn is_doomed(&self, id: InstanceId) -> bool {
        self.doomed.contains(&id)
    }

    /// Extra delay before a checkpoint volume is attached to a replacement
    /// server. Zero without a fault plan.
    pub fn volume_attach_delay(&mut self) -> SimDuration {
        self.faults
            .as_mut()
            .map_or(SimDuration::ZERO, |f| f.volume_attach_delay())
    }

    /// Transition a pending instance to running at its ready time. The
    /// allocation *fails* (returns `false`; the instance is closed
    /// unbilled and the caller must re-request) when a spot price has
    /// risen above the bid while the server was booting, or when the fault
    /// plan doomed this startup. Unknown or already-terminated instances
    /// also return `false`; re-activating a running instance is a no-op
    /// returning `true`.
    pub fn activate(&mut self, id: InstanceId, now: SimTime) -> bool {
        let Some(inst) = self.slot_mut(id) else {
            return false;
        };
        let InstanceState::Pending { ready_at } = inst.state else {
            return matches!(inst.state, InstanceState::Running);
        };
        debug_assert_eq!(now, ready_at, "activation must happen at the ready time");
        let (market, kind) = (inst.market, inst.kind);
        let doomed = match self.doomed.iter().position(|d| *d == id) {
            Some(i) => {
                self.doomed.swap_remove(i);
                true
            }
            None => false,
        };
        let fail = |inst: &mut Instance| {
            inst.state = InstanceState::Terminated {
                at: now,
                reason: TerminationReason::FailedAllocation,
            };
        };
        if doomed {
            // Injected startup failure: the server never comes up, for
            // spot and on-demand alike. Closed unbilled.
            if let Some(inst) = self.slot_mut(id) {
                fail(inst);
            }
            self.release_od(kind);
            return false;
        }
        if let InstanceKind::Spot { bid } = kind {
            let Some(price) = self.with_cursor(market, |c| c.price_at(now)) else {
                // Market has no trace (cannot happen for instances created
                // through request_spot): treat as a failed allocation.
                if let Some(inst) = self.slot_mut(id) {
                    fail(inst);
                }
                return false;
            };
            if price > bid {
                if let Some(inst) = self.slot_mut(id) {
                    fail(inst);
                }
                return false;
            }
            // Lease is live: start its incremental billing meter at the
            // moment billing starts (the ready time).
            if let Some(trace) = self.traces.trace(market) {
                self.meters.push((id, SpotLeaseMeter::new(trace, now)));
            }
        }
        if let Some(inst) = self.slot_mut(id) {
            inst.state = InstanceState::Running;
            inst.ready_at = now;
        }
        true
    }

    /// Advance the billing meter of a running spot lease to `now`, charging
    /// any instance-hours that have completed. The scheduler calls this from
    /// billing-boundary events so that termination-time settlement only ever
    /// has the final (at most one) partial hour left to account for. Calling
    /// it is purely an optimisation: skipped calls are caught up by the next
    /// one or by [`terminate`](Self::terminate).
    pub fn advance_billing(&mut self, id: InstanceId, now: SimTime) {
        if let Some(i) = self.meter_index(id) {
            self.meters[i].1.advance_to(now);
        }
    }

    /// When will this running spot lease be revoked? `None` for on-demand
    /// instances and for spot leases whose bid is never exceeded within the
    /// trace horizon. The simulation driver schedules the returned times as
    /// events; the customer-visible warning is `warning_at`, which a fault
    /// plan may delay or suppress (one warning-fault draw per call, so
    /// callers should ask once per armed lease). Under a storm schedule
    /// the effective revocation is the *earlier* of the price crossing and
    /// the zone's next mass-revocation sweep — a sweep revokes the lease
    /// even while the price sits below the bid.
    pub fn revocation_schedule(
        &mut self,
        id: InstanceId,
        from: SimTime,
    ) -> Option<RevocationSchedule> {
        let inst = self.instance(id)?;
        let bid = inst.kind.bid()?;
        let market = inst.market;
        let price_cross = self.with_cursor(market, |c| c.next_time_above(from, bid))?;
        let mass = self
            .storms
            .as_mut()
            .and_then(|s| s.next_mass_revocation(market.zone, from));
        let crossing_at = match (price_cross, mass) {
            (Some(p), Some(m)) => p.min(m),
            (Some(p), None) => p,
            (None, Some(m)) => m,
            (None, None) => return None,
        };
        self.apply_storm_rates(market.zone, crossing_at);
        let warning_at = match &mut self.faults {
            Some(f) => match f.warning_fault(REVOCATION_GRACE) {
                WarningFault::Delivered => Some(crossing_at),
                WarningFault::Delayed(d) => Some(crossing_at + d),
                WarningFault::Missing => None,
            },
            None => Some(crossing_at),
        };
        Some(RevocationSchedule {
            crossing_at,
            warning_at,
            terminate_at: crossing_at + REVOCATION_GRACE,
        })
    }

    /// Close a lease and bill it. Returns the charge, which is never
    /// negative. Idempotent: unknown instances and repeat terminations
    /// charge nothing (the first termination settled the lease; under
    /// injected faults the scheduler may legitimately race its own cleanup
    /// events).
    pub fn terminate(&mut self, id: InstanceId, now: SimTime, reason: TerminationReason) -> f64 {
        let Some(inst) = self.slot_mut(id) else {
            return 0.0;
        };
        if inst.is_terminated() {
            return 0.0;
        }
        let was_pending = matches!(inst.state, InstanceState::Pending { .. });
        inst.state = InstanceState::Terminated { at: now, reason };
        let (market, kind, lease_start) = (inst.market, inst.kind, inst.ready_at);
        self.release_od(kind);

        let meter = self.meter_index(id).map(|i| self.meters.swap_remove(i).1);
        // A request cancelled before the server came up is free.
        if was_pending || reason == TerminationReason::FailedAllocation {
            return 0.0;
        }
        let amount = match kind {
            InstanceKind::Spot { .. } => {
                let revoked = reason == TerminationReason::Revoked;
                match meter {
                    // Hot path: settle the incremental meter — only the
                    // final partial hour (if owed) is left to charge.
                    Some(meter) => meter.close(now, revoked),
                    // No meter (lease created outside activate()): replay.
                    None => {
                        let trace = self.traces.trace(market).expect("market vanished");
                        spot_lease_charge(trace, lease_start, now, revoked)
                    }
                }
            }
            InstanceKind::OnDemand => {
                on_demand_lease_charge(self.on_demand_price(market), lease_start, now)
            }
        };
        assert!(amount >= 0.0, "charges cannot be negative");
        amount
    }

    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(usize::try_from(id.0).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_market::catalog::Catalog;
    use spothost_market::model::SpotModelParams;
    use spothost_market::time::SimDuration;
    use spothost_market::types::{InstanceType, Zone};

    fn market() -> MarketId {
        MarketId::new(Zone::UsEast1a, InstanceType::Small)
    }

    /// A deterministic-startup provider over `ts` with these faults and
    /// storms.
    fn provider<'t>(
        ts: &'t TraceSet,
        faults: &FaultConfig,
        storms: Option<&StormSchedule>,
    ) -> CloudProvider<'t> {
        CloudProvider::for_run(ts, 7, faults, storms)
            .0
            .with_startup_model(StartupModel::deterministic())
    }

    /// A trace set with a hand-built price pattern: cheap, then a spike at
    /// day 1 lasting 30 minutes, then cheap again.
    fn traces() -> TraceSet {
        // Use a quiet custom model and rely on generate_with determinism:
        // simplest is a near-degenerate model, but we want exact control,
        // so we build the TraceSet through the public generator with an
        // almost-flat model and then rely on explicit trace queries in
        // provider methods. For precise billing tests we use the flat
        // pricing below.
        let catalog = Catalog::ec2_2015();
        let mut params = SpotModelParams::default_market();
        params.sigma = 0.01;
        params.spike_rate_per_day = 0.0;
        params.zone_spike_rate_per_day = 0.0;
        params.elevated_base_mult = 1.0001;
        TraceSet::generate_with(
            &catalog,
            &[(market(), params)],
            1,
            spothost_market::time::SimDuration::days(7),
        )
    }

    #[test]
    fn spot_request_grant_and_activate() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7).with_startup_model(StartupModel::deterministic());
        let pon = p.on_demand_price(market());
        let (id, ready) = p.request_spot(market(), pon, SimTime::ZERO).unwrap();
        assert!(ready > SimTime::ZERO);
        assert!(p.activate(id, ready));
        assert_eq!(p.instance(id).unwrap().state, InstanceState::Running);
    }

    #[test]
    fn spot_request_rejected_when_bid_below_price() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7);
        let err = p.request_spot(market(), 1e-6, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, RequestError::BidBelowPrice { .. }));
    }

    #[test]
    fn bid_cap_enforced() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7);
        let pon = p.on_demand_price(market());
        let err = p
            .request_spot(market(), pon * 10.0, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, RequestError::BidAboveCap { .. }));
        // Exactly the cap is fine.
        assert!(p.request_spot(market(), pon * 4.0, SimTime::ZERO).is_ok());
    }

    #[test]
    fn on_demand_always_granted_and_billed_rounded_up() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7).with_startup_model(StartupModel::deterministic());
        let (id, ready) = p.request_on_demand(market(), SimTime::ZERO).unwrap();
        assert!(p.activate(id, ready));
        let end = ready + SimDuration::minutes(90);
        let charge = p.terminate(id, end, TerminationReason::Voluntary);
        let pon = p.on_demand_price(market());
        assert!((charge - 2.0 * pon).abs() < 1e-12);
    }

    #[test]
    fn revocation_schedule_none_when_bid_never_exceeded() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7).with_startup_model(StartupModel::deterministic());
        let pon = p.on_demand_price(market());
        // Quiet trace never crosses 4x on-demand.
        let (id, ready) = p.request_spot(market(), pon * 4.0, SimTime::ZERO).unwrap();
        p.activate(id, ready);
        assert_eq!(p.revocation_schedule(id, ready), None);
    }

    #[test]
    fn pending_cancellation_is_free() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7);
        let pon = p.on_demand_price(market());
        let (id, _ready) = p.request_spot(market(), pon, SimTime::ZERO).unwrap();
        let charge = p.terminate(id, SimTime::secs(10), TerminationReason::Voluntary);
        assert_eq!(charge, 0.0);
    }

    #[test]
    fn double_termination_is_idempotent() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7).with_startup_model(StartupModel::deterministic());
        let (id, ready) = p.request_on_demand(market(), SimTime::ZERO).unwrap();
        p.activate(id, ready);
        let first = p.terminate(
            id,
            ready + SimDuration::hours(1),
            TerminationReason::Voluntary,
        );
        assert_eq!(first, p.on_demand_price(market()));
        // A second termination (stale cleanup event) charges nothing.
        let second = p.terminate(
            id,
            ready + SimDuration::hours(2),
            TerminationReason::Voluntary,
        );
        assert_eq!(second, 0.0);
        // Unknown instances are a no-op too.
        assert_eq!(
            p.terminate(InstanceId(9999), ready, TerminationReason::Voluntary),
            0.0
        );
    }

    #[test]
    fn incremental_meter_matches_replay_bit_for_bit() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7).with_startup_model(StartupModel::deterministic());
        let pon = p.on_demand_price(market());
        let (id, ready) = p.request_spot(market(), pon, SimTime::ZERO).unwrap();
        assert!(p.activate(id, ready));
        // Advance the meter mid-lease (as the scheduler does on billing
        // boundaries), then settle voluntarily mid-hour.
        p.advance_billing(id, ready + SimDuration::minutes(95));
        p.advance_billing(id, ready + SimDuration::hours(3));
        let end = ready + SimDuration::minutes(250);
        let charge = p.terminate(id, end, TerminationReason::Voluntary);
        let expect = spot_lease_charge(ts.trace(market()).unwrap(), ready, end, false);
        assert_eq!(charge.to_bits(), expect.to_bits());
    }

    #[test]
    fn full_capacity_fault_rate_rejects_every_request() {
        let ts = traces();
        let mut cfg = FaultConfig::none();
        cfg.spot_capacity_rate = 1.0;
        cfg.od_capacity_rate = 1.0;
        let mut p = provider(&ts, &cfg, None);
        let pon = p.on_demand_price(market());
        assert!(matches!(
            p.request_spot(market(), pon, SimTime::ZERO),
            Err(RequestError::InsufficientCapacity(_))
        ));
        assert!(matches!(
            p.request_on_demand(market(), SimTime::ZERO),
            Err(RequestError::InsufficientCapacity(_))
        ));
        assert!(p.instance(InstanceId(0)).is_none());
    }

    #[test]
    fn doomed_startup_fails_activation_unbilled() {
        let ts = traces();
        let mut cfg = FaultConfig::none();
        cfg.startup_failure_rate = 1.0;
        let mut p = provider(&ts, &cfg, None);
        let (id, ready) = p.request_on_demand(market(), SimTime::ZERO).unwrap();
        assert!(!p.activate(id, ready));
        let inst = p.instance(id).unwrap();
        assert!(inst.is_terminated());
        let charge = p.terminate(id, ready, TerminationReason::Voluntary);
        assert_eq!(charge, 0.0);
    }

    #[test]
    fn warning_faults_shape_revocation_schedule() {
        let catalog = Catalog::ec2_2015();
        // Stormy enough that a low bid is crossed within the horizon.
        let mut params = SpotModelParams::default_market();
        params.spike_rate_per_day = 6.0;
        let ts = TraceSet::generate_with(&catalog, &[(market(), params)], 2, SimDuration::days(7));
        let pon = catalog.on_demand_price(market());

        let schedule_with = |cfg: FaultConfig| {
            let mut p = provider(&ts, &cfg, None);
            let (id, ready) = p.request_spot(market(), pon, SimTime::ZERO).unwrap();
            assert!(p.activate(id, ready));
            p.revocation_schedule(id, ready)
                .expect("stormy trace must cross the bid")
        };

        let mut missing = FaultConfig::none();
        missing.warning_miss_rate = 1.0;
        let s = schedule_with(missing);
        assert_eq!(s.warning_at, None);
        assert_eq!(s.terminate_at, s.crossing_at + REVOCATION_GRACE);

        let mut delayed = FaultConfig::none();
        delayed.warning_delay_rate = 1.0;
        let s = schedule_with(delayed);
        let w = s.warning_at.expect("delayed, not missing");
        assert!(w > s.crossing_at && w <= s.terminate_at);

        let s = schedule_with(FaultConfig::none());
        assert_eq!(s.warning_at, Some(s.crossing_at));
    }

    #[test]
    fn od_quota_rejects_then_releases() {
        use spothost_faults::StormConfig;
        let ts = traces();
        let mut cfg = StormConfig::none();
        cfg.od_quota = 1;
        let spans = [const { Vec::new() }; 4];
        let storms = StormSchedule::new(cfg, 7, SimDuration::days(7), &spans);
        let mut p = provider(&ts, &FaultConfig::none(), Some(&storms));
        let (first, ready) = p.request_on_demand(market(), SimTime::ZERO).unwrap();
        assert_eq!(p.on_demand_in_use(), 1);
        assert!(matches!(
            p.request_on_demand(market(), SimTime::ZERO),
            Err(RequestError::QuotaExhausted(_))
        ));
        p.activate(first, ready);
        p.terminate(
            first,
            ready + SimDuration::hours(1),
            TerminationReason::Voluntary,
        );
        assert_eq!(p.on_demand_in_use(), 0);
        assert!(p
            .request_on_demand(market(), ready + SimDuration::hours(1))
            .is_ok());
    }

    #[test]
    fn mass_revocation_revokes_even_below_bid() {
        use spothost_faults::StormConfig;
        let ts = traces();
        let mut cfg = StormConfig::none();
        cfg.episodes_per_day = 12.0;
        cfg.mean_episode = SimDuration::hours(6);
        cfg.mass_revocations_per_day = 48.0;
        let spans = [const { Vec::new() }; 4];
        let mut storms = StormSchedule::new(cfg, 21, SimDuration::days(7), &spans);
        let sweep = storms
            .next_mass_revocation(market().zone, SimTime::ZERO)
            .expect("heavy storm config must schedule sweeps");
        let mut p = provider(&ts, &FaultConfig::none(), Some(&storms));
        let pon = p.on_demand_price(market());
        // Quiet trace never crosses 4x on-demand, so any revocation the
        // schedule reports comes from the mass sweep.
        let (id, ready) = p.request_spot(market(), pon * 4.0, SimTime::ZERO).unwrap();
        assert!(p.activate(id, ready));
        let s = p
            .revocation_schedule(id, ready)
            .expect("mass sweep forces a revocation");
        assert!(s.crossing_at >= sweep);
        assert_eq!(s.terminate_at, s.crossing_at + REVOCATION_GRACE);
    }

    #[test]
    fn capacity_crunch_rejects_spot_during_episode() {
        use spothost_faults::StormConfig;
        let ts = traces();
        let mut cfg = StormConfig::none();
        cfg.episodes_per_day = 12.0;
        cfg.mean_episode = SimDuration::hours(6);
        cfg.capacity_crunch_rate = 1.0;
        let spans = [const { Vec::new() }; 4];
        let storms = StormSchedule::new(cfg, 21, SimDuration::days(7), &spans);
        let zone = market().zone;
        let episode = storms.episodes(zone).first().copied().expect("episodes");
        let mut p = provider(&ts, &FaultConfig::none(), Some(&storms));
        let pon = p.on_demand_price(market());
        // Outside any episode the request sails through; inside, the
        // certain crunch drains it.
        if episode.start > SimTime::ZERO {
            assert!(p.request_spot(market(), pon, SimTime::ZERO).is_ok());
        }
        assert!(matches!(
            p.request_spot(market(), pon, episode.start),
            Err(RequestError::InsufficientCapacity(_))
        ));
        // On-demand is crunched too: a drained zone has no servers of
        // either kind to grant.
        assert!(matches!(
            p.request_on_demand(market(), episode.start),
            Err(RequestError::InsufficientCapacity(_))
        ));
        assert_eq!(p.on_demand_in_use(), 0, "crunched request grants nothing");
    }

    #[test]
    fn revoked_partial_hour_not_billed() {
        let ts = traces();
        let mut p = CloudProvider::new(&ts, 7).with_startup_model(StartupModel::deterministic());
        let pon = p.on_demand_price(market());
        let (id, ready) = p.request_spot(market(), pon, SimTime::ZERO).unwrap();
        p.activate(id, ready);
        // Revoked 30 minutes into the lease: zero charge.
        let charge = p.terminate(
            id,
            ready + SimDuration::minutes(30),
            TerminationReason::Revoked,
        );
        assert_eq!(charge, 0.0);
    }
}
