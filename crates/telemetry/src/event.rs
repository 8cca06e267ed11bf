//! The typed event schema.
//!
//! Every variant is plain copyable data so that constructing an event is
//! side-effect free: behind the [`crate::NullSink`] the construction is
//! dead code and the optimizer deletes it. The schema table in DESIGN.md
//! ("Observability") mirrors this enum field for field.

use spothost_cloudsim::{InstanceId, RequestError, TerminationReason};
use spothost_faults::FaultKind;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::{MarketId, Zone};
use spothost_virt::MigrationKind;

/// Why a server request was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenialReason {
    /// No trace for the market in this simulation (a config error).
    UnknownMarket,
    /// Spot only: the current price is above the bid.
    BidBelowPrice,
    /// Spot only: the bid exceeds the provider's cap.
    BidAboveCap,
    /// Injected capacity fault (spot or on-demand).
    InsufficientCapacity,
    /// On-demand only: the global on-demand quota is exhausted (storm
    /// backpressure; the request must queue behind the backoff).
    QuotaExhausted,
}

impl DenialReason {
    pub fn name(self) -> &'static str {
        match self {
            DenialReason::UnknownMarket => "unknown-market",
            DenialReason::BidBelowPrice => "bid-below-price",
            DenialReason::BidAboveCap => "bid-above-cap",
            DenialReason::InsufficientCapacity => "insufficient-capacity",
            DenialReason::QuotaExhausted => "quota-exhausted",
        }
    }
}

impl From<&RequestError> for DenialReason {
    fn from(e: &RequestError) -> Self {
        match e {
            RequestError::UnknownMarket(_) => DenialReason::UnknownMarket,
            RequestError::BidBelowPrice { .. } => DenialReason::BidBelowPrice,
            RequestError::BidAboveCap { .. } => DenialReason::BidAboveCap,
            RequestError::InsufficientCapacity(_) => DenialReason::InsufficientCapacity,
            RequestError::QuotaExhausted(_) => DenialReason::QuotaExhausted,
        }
    }
}

/// A phase of a migration, with how long it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Target-side preparation before switchover (voluntary moves).
    Prepare,
    /// Live pre-copy rounds (subset of preparation when live is on).
    LivePrecopy,
    /// Final bounded-checkpoint flush inside the grace window.
    CkptFlush,
    /// Restore of the VM image on the replacement server.
    Restore,
    /// Lazy restore's background fault-in window (service degraded).
    LazyFaultIn,
}

impl MigrationPhase {
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Prepare => "prepare",
            MigrationPhase::LivePrecopy => "live-precopy",
            MigrationPhase::CkptFlush => "ckpt-flush",
            MigrationPhase::Restore => "restore",
            MigrationPhase::LazyFaultIn => "lazy-fault-in",
        }
    }
}

/// Scheduler state-machine label (mirrors `core::scheduler`'s states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerState {
    Boot,
    Active,
    Migrating,
    Evacuating,
    DownWaiting,
    Restoring,
    Reacquiring,
}

impl SchedulerState {
    pub fn name(self) -> &'static str {
        match self {
            SchedulerState::Boot => "boot",
            SchedulerState::Active => "active",
            SchedulerState::Migrating => "migrating",
            SchedulerState::Evacuating => "evacuating",
            SchedulerState::DownWaiting => "down-waiting",
            SchedulerState::Restoring => "restoring",
            SchedulerState::Reacquiring => "reacquiring",
        }
    }
}

/// One structured event in a run's timeline. Emission time is carried
/// alongside (see [`crate::TimedEvent`]); times inside a variant refer to
/// other moments (a lease's start, a scheduled termination, ...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A spot bid (or on-demand request, `bid = None`) was placed.
    /// `predicted_risk` is the forecaster's estimate of P(revocation
    /// within the next hour) behind the bid — present only when the
    /// adaptive policy's warmed-up forecaster chose it.
    BidPlaced {
        market: MarketId,
        bid: Option<f64>,
        predicted_risk: Option<f64>,
    },
    /// The provider granted a server; it becomes ready at `ready_at`.
    LeaseGranted {
        id: InstanceId,
        market: MarketId,
        spot: bool,
        ready_at: SimTime,
    },
    /// The provider denied a request.
    LeaseDenied {
        market: MarketId,
        spot: bool,
        reason: DenialReason,
    },
    /// A granted server came up and started serving/billing.
    LeaseActivated { id: InstanceId, market: MarketId },
    /// A granted server failed to come up: the spot price rose above the
    /// bid during boot, or the startup was fault-doomed.
    ActivationFailed {
        id: InstanceId,
        market: MarketId,
        doomed: bool,
    },
    /// Billing settlement: a lease closed and its final charge was added
    /// to the run's cost. `cost` is the exact aggregate dollar amount
    /// added (per-server charge times packed servers) — summing these in
    /// stream order reproduces the run's total cost bit for bit.
    LeaseClosed {
        id: InstanceId,
        market: MarketId,
        spot: bool,
        reason: TerminationReason,
        start: SimTime,
        end: SimTime,
        cost: f64,
    },
    /// The provider-side moment the spot price first crosses above the
    /// bid — the revocation becomes inevitable at `at` (a future time;
    /// the customer only learns of it through the warning).
    PriceCrossing {
        id: InstanceId,
        market: MarketId,
        at: SimTime,
    },
    /// The customer-visible two-minute warning was delivered. A
    /// fault-delayed warning leaves less than the full grace window
    /// before `terminate_at`.
    RevocationWarning {
        id: InstanceId,
        market: MarketId,
        terminate_at: SimTime,
    },
    /// An unwarned revocation: the lease died right now, with no grace
    /// window and no checkpoint flush.
    UnwarnedDeath { id: InstanceId, market: MarketId },
    /// A migration was initiated.
    MigrationStarted {
        kind: MigrationKind,
        from: MarketId,
        to: MarketId,
    },
    /// One phase of the in-flight migration, with its planned duration.
    MigrationPhase {
        phase: MigrationPhase,
        duration: SimDuration,
    },
    /// A migration finished: the service runs on `to`. `downtime` is the
    /// outage it cost, `degraded` the degraded tail after resume.
    MigrationCompleted {
        kind: MigrationKind,
        from: MarketId,
        to: MarketId,
        downtime: SimDuration,
        degraded: SimDuration,
    },
    /// A voluntary migration was aborted (target revoked or died while
    /// booting); the service stays on `from`.
    MigrationAborted { kind: MigrationKind, from: MarketId },
    /// A closed service outage interval `[start, end)`, clamped to the
    /// horizon, exactly as accounted — summing `end - start` over the
    /// stream reproduces the run's total downtime.
    Outage { start: SimTime, end: SimTime },
    /// A closed degraded-performance interval `[start, end)`, clamped to
    /// the horizon, exactly as accounted.
    Degraded { start: SimTime, end: SimTime },
    /// The service is up and serving on this lease. `first` marks the
    /// initial boot (the start of the measured span).
    ServiceUp {
        id: InstanceId,
        market: MarketId,
        spot: bool,
        first: bool,
    },
    /// A fault plan injected a fault of this kind.
    FaultInjected { kind: FaultKind },
    /// An acquisition attempt faulted; the next attempt is scheduled at
    /// `until` (bounded exponential backoff, `attempt` starting at 0).
    BackoffScheduled { attempt: u32, until: SimTime },
    /// The scheduler state machine moved to a new state.
    StateChange { state: SchedulerState },
    /// A correlated-failure storm episode opened in this zone.
    StormStarted { zone: Zone },
    /// The storm episode in this zone closed.
    StormEnded { zone: Zone },
    /// An on-demand request was rejected by the global on-demand quota
    /// (storm backpressure) — demand now queues behind the backoff.
    QuotaExhausted { market: MarketId },
    /// A batch job began (or re-began after a revocation) executing on a
    /// lease in `market`. `spot` is false when the job runs on-demand
    /// (the `OnDemandFallback` escalation path).
    JobStarted {
        job: u32,
        market: MarketId,
        spot: bool,
    },
    /// A periodic checkpoint of a running batch job completed, costing
    /// `duration` of compute overhead on top of the job's useful work.
    JobCheckpointed { job: u32, duration: SimDuration },
    /// A batch job restarted after its lease was revoked, losing `lost`
    /// of un-checkpointed progress.
    JobRestarted {
        job: u32,
        market: MarketId,
        lost: SimDuration,
    },
    /// A batch job completed. `missed` marks completion after the job's
    /// deadline; `cost` is the total dollars billed to the job's leases.
    JobFinished { job: u32, missed: bool, cost: f64 },
}

/// Declares [`EventKind`] from one list of `Variant => "name"` pairs:
/// the enum, `ALL` in index order, each kind's name, and
/// [`TelemetryEvent::kind`].
macro_rules! event_kinds {
    ($($kind:ident => $name:literal,)+) => {
        /// Dense discriminant of a [`TelemetryEvent`] variant: the column
        /// family a columnar store writes an event's fields to, and its
        /// bit in a block's kind bitmap.
        ///
        /// A kind's index is its code on disk, so kinds are only ever
        /// appended, never reordered or removed;
        /// `crates/eventstore/tests/fixtures/all_kinds.col` pins every
        /// kind's code. Each kind is named after its variant, which
        /// documents it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum EventKind {
            $($kind,)+
        }

        impl EventKind {
            /// Every kind, in index order.
            pub const ALL: [EventKind; [$($name),+].len()] = [$(EventKind::$kind),+];

            /// The stable snake_case name: the `kind` field of exports
            /// and the CLI's `--kind` values.
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $name,)+
                }
            }
        }

        impl TelemetryEvent {
            /// The event's kind.
            pub fn kind(&self) -> EventKind {
                match self {
                    $(TelemetryEvent::$kind { .. } => EventKind::$kind,)+
                }
            }
        }
    };
}

event_kinds! {
    BidPlaced => "bid_placed",
    LeaseGranted => "lease_granted",
    LeaseDenied => "lease_denied",
    LeaseActivated => "lease_activated",
    ActivationFailed => "activation_failed",
    LeaseClosed => "lease_closed",
    PriceCrossing => "price_crossing",
    RevocationWarning => "revocation_warning",
    UnwarnedDeath => "unwarned_death",
    MigrationStarted => "migration_started",
    MigrationPhase => "migration_phase",
    MigrationCompleted => "migration_completed",
    MigrationAborted => "migration_aborted",
    Outage => "outage",
    Degraded => "degraded",
    ServiceUp => "service_up",
    FaultInjected => "fault_injected",
    BackoffScheduled => "backoff_scheduled",
    StateChange => "state_change",
    StormStarted => "storm_started",
    StormEnded => "storm_ended",
    QuotaExhausted => "quota_exhausted",
    JobStarted => "job_started",
    JobCheckpointed => "job_checkpointed",
    JobRestarted => "job_restarted",
    JobFinished => "job_finished",
}

impl EventKind {
    /// The kind's index in `0..26`: its position in [`EventKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`EventKind::index`].
    pub fn from_index(i: usize) -> Option<EventKind> {
        EventKind::ALL.get(i).copied()
    }

    /// Parse a kind's name.
    pub fn parse(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl TelemetryEvent {
    /// Stable machine-readable name (the `kind` field of exports).
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }
}
