//! Exhaustive export coverage: every `TelemetryEvent` variant goes
//! through `event_to_json` with golden assertions on field names, values,
//! and escaping. A new enum variant fails the
//! `exhaustive` match below at compile time, forcing this table to grow
//! with the schema.

use spothost_cloudsim::{InstanceId, TerminationReason};
use spothost_faults::FaultKind;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::{InstanceType, MarketId, Zone};
use spothost_telemetry::{
    event_to_json, DenialReason, MigrationPhase, SchedulerState, TelemetryEvent,
};
use spothost_virt::MigrationKind;

fn m() -> MarketId {
    MarketId::new(Zone::UsWest1a, InstanceType::Large)
}

fn m2() -> MarketId {
    MarketId::new(Zone::UsEast1b, InstanceType::Small)
}

fn id() -> InstanceId {
    InstanceId(42)
}

/// Compile-time exhaustiveness guard: adding a variant breaks this match,
/// which is the cue to add a golden row below.
fn exhaustive(ev: &TelemetryEvent) {
    match ev {
        TelemetryEvent::BidPlaced { .. }
        | TelemetryEvent::LeaseGranted { .. }
        | TelemetryEvent::LeaseDenied { .. }
        | TelemetryEvent::LeaseActivated { .. }
        | TelemetryEvent::ActivationFailed { .. }
        | TelemetryEvent::LeaseClosed { .. }
        | TelemetryEvent::PriceCrossing { .. }
        | TelemetryEvent::RevocationWarning { .. }
        | TelemetryEvent::UnwarnedDeath { .. }
        | TelemetryEvent::MigrationStarted { .. }
        | TelemetryEvent::MigrationPhase { .. }
        | TelemetryEvent::MigrationCompleted { .. }
        | TelemetryEvent::MigrationAborted { .. }
        | TelemetryEvent::Outage { .. }
        | TelemetryEvent::Degraded { .. }
        | TelemetryEvent::ServiceUp { .. }
        | TelemetryEvent::FaultInjected { .. }
        | TelemetryEvent::BackoffScheduled { .. }
        | TelemetryEvent::StateChange { .. }
        | TelemetryEvent::StormStarted { .. }
        | TelemetryEvent::StormEnded { .. }
        | TelemetryEvent::QuotaExhausted { .. }
        | TelemetryEvent::JobStarted { .. }
        | TelemetryEvent::JobCheckpointed { .. }
        | TelemetryEvent::JobRestarted { .. }
        | TelemetryEvent::JobFinished { .. } => {}
    }
}

/// One golden row per variant shape: (event, expected JSON).
fn goldens() -> Vec<(TelemetryEvent, &'static str)> {
    vec![
        (
            TelemetryEvent::BidPlaced {
                market: m(),
                bid: Some(0.125),
                predicted_risk: Some(0.02),
            },
            r#"{"t_ms":1000,"kind":"bid_placed","market":"us-west-1a/large","bid":0.125,"risk":0.02}"#,
        ),
        (
            TelemetryEvent::BidPlaced {
                market: m(),
                bid: None,
                predicted_risk: None,
            },
            r#"{"t_ms":1000,"kind":"bid_placed","market":"us-west-1a/large","on_demand":true}"#,
        ),
        (
            TelemetryEvent::LeaseGranted {
                id: id(),
                market: m(),
                spot: true,
                ready_at: SimTime::millis(61_000),
            },
            r#"{"t_ms":1000,"kind":"lease_granted","id":"i-000042","market":"us-west-1a/large","spot":true,"ready_ms":61000}"#,
        ),
        (
            TelemetryEvent::LeaseDenied {
                market: m(),
                spot: true,
                reason: DenialReason::BidBelowPrice,
            },
            r#"{"t_ms":1000,"kind":"lease_denied","market":"us-west-1a/large","spot":true,"reason":"bid-below-price"}"#,
        ),
        (
            TelemetryEvent::LeaseActivated {
                id: id(),
                market: m(),
            },
            r#"{"t_ms":1000,"kind":"lease_activated","id":"i-000042","market":"us-west-1a/large"}"#,
        ),
        (
            TelemetryEvent::ActivationFailed {
                id: id(),
                market: m(),
                doomed: true,
            },
            r#"{"t_ms":1000,"kind":"activation_failed","id":"i-000042","market":"us-west-1a/large","doomed":true}"#,
        ),
        (
            TelemetryEvent::LeaseClosed {
                id: id(),
                market: m(),
                spot: true,
                reason: TerminationReason::Revoked,
                start: SimTime::millis(500),
                end: SimTime::millis(3_500),
                cost: 0.75,
            },
            r#"{"t_ms":1000,"kind":"lease_closed","id":"i-000042","market":"us-west-1a/large","spot":true,"reason":"revoked","start_ms":500,"end_ms":3500,"cost":0.75}"#,
        ),
        (
            TelemetryEvent::PriceCrossing {
                id: id(),
                market: m(),
                at: SimTime::millis(2_000),
            },
            r#"{"t_ms":1000,"kind":"price_crossing","id":"i-000042","market":"us-west-1a/large","crossing_ms":2000}"#,
        ),
        (
            TelemetryEvent::RevocationWarning {
                id: id(),
                market: m(),
                terminate_at: SimTime::millis(121_000),
            },
            r#"{"t_ms":1000,"kind":"revocation_warning","id":"i-000042","market":"us-west-1a/large","terminate_ms":121000}"#,
        ),
        (
            TelemetryEvent::UnwarnedDeath {
                id: id(),
                market: m(),
            },
            r#"{"t_ms":1000,"kind":"unwarned_death","id":"i-000042","market":"us-west-1a/large"}"#,
        ),
        (
            TelemetryEvent::MigrationStarted {
                kind: MigrationKind::Forced,
                from: m(),
                to: m2(),
            },
            r#"{"t_ms":1000,"kind":"migration_started","migration":"forced","from":"us-west-1a/large","to":"us-east-1b/small"}"#,
        ),
        (
            TelemetryEvent::MigrationPhase {
                phase: MigrationPhase::CkptFlush,
                duration: SimDuration::millis(1_500),
            },
            r#"{"t_ms":1000,"kind":"migration_phase","phase":"ckpt-flush","duration_ms":1500}"#,
        ),
        (
            TelemetryEvent::MigrationCompleted {
                kind: MigrationKind::Planned,
                from: m(),
                to: m2(),
                downtime: SimDuration::millis(2_000),
                degraded: SimDuration::millis(500),
            },
            r#"{"t_ms":1000,"kind":"migration_completed","migration":"planned","from":"us-west-1a/large","to":"us-east-1b/small","downtime_ms":2000,"degraded_ms":500}"#,
        ),
        (
            TelemetryEvent::MigrationAborted {
                kind: MigrationKind::Reverse,
                from: m(),
            },
            r#"{"t_ms":1000,"kind":"migration_aborted","migration":"reverse","from":"us-west-1a/large"}"#,
        ),
        (
            TelemetryEvent::Outage {
                start: SimTime::millis(100),
                end: SimTime::millis(400),
            },
            r#"{"t_ms":1000,"kind":"outage","start_ms":100,"end_ms":400,"duration_ms":300}"#,
        ),
        (
            TelemetryEvent::Degraded {
                start: SimTime::millis(100),
                end: SimTime::millis(400),
            },
            r#"{"t_ms":1000,"kind":"degraded","start_ms":100,"end_ms":400,"duration_ms":300}"#,
        ),
        (
            TelemetryEvent::ServiceUp {
                id: id(),
                market: m(),
                spot: true,
                first: true,
            },
            r#"{"t_ms":1000,"kind":"service_up","id":"i-000042","market":"us-west-1a/large","spot":true,"first":true}"#,
        ),
        (
            TelemetryEvent::ServiceUp {
                id: id(),
                market: m(),
                spot: false,
                first: false,
            },
            r#"{"t_ms":1000,"kind":"service_up","id":"i-000042","market":"us-west-1a/large","spot":false,"first":false}"#,
        ),
        (
            TelemetryEvent::FaultInjected {
                kind: FaultKind::CkptWriteFail,
            },
            r#"{"t_ms":1000,"kind":"fault_injected","fault":"ckpt-write-fail"}"#,
        ),
        (
            TelemetryEvent::BackoffScheduled {
                attempt: 3,
                until: SimTime::millis(9_000),
            },
            r#"{"t_ms":1000,"kind":"backoff_scheduled","attempt":3,"until_ms":9000}"#,
        ),
        (
            TelemetryEvent::StateChange {
                state: SchedulerState::Reacquiring,
            },
            r#"{"t_ms":1000,"kind":"state_change","state":"reacquiring"}"#,
        ),
        (
            TelemetryEvent::StormStarted {
                zone: Zone::EuWest1a,
            },
            r#"{"t_ms":1000,"kind":"storm_started","zone":"eu-west-1a"}"#,
        ),
        (
            TelemetryEvent::StormEnded {
                zone: Zone::EuWest1a,
            },
            r#"{"t_ms":1000,"kind":"storm_ended","zone":"eu-west-1a"}"#,
        ),
        (
            TelemetryEvent::QuotaExhausted { market: m() },
            r#"{"t_ms":1000,"kind":"quota_exhausted","market":"us-west-1a/large"}"#,
        ),
        (
            TelemetryEvent::JobStarted {
                job: 17,
                market: m(),
                spot: true,
            },
            r#"{"t_ms":1000,"kind":"job_started","job":17,"market":"us-west-1a/large","spot":true}"#,
        ),
        (
            TelemetryEvent::JobCheckpointed {
                job: 17,
                duration: SimDuration::millis(4_000),
            },
            r#"{"t_ms":1000,"kind":"job_checkpointed","job":17,"duration_ms":4000}"#,
        ),
        (
            TelemetryEvent::JobRestarted {
                job: 17,
                market: m(),
                lost: SimDuration::millis(90_000),
            },
            r#"{"t_ms":1000,"kind":"job_restarted","job":17,"market":"us-west-1a/large","lost_ms":90000}"#,
        ),
        (
            TelemetryEvent::JobFinished {
                job: 17,
                missed: true,
                cost: 0.375,
            },
            r#"{"t_ms":1000,"kind":"job_finished","job":17,"missed":true,"cost":0.375}"#,
        ),
    ]
}

#[test]
fn every_variant_has_a_golden_json_line() {
    let mut kinds_seen = std::collections::BTreeSet::new();
    for (ev, json) in goldens() {
        exhaustive(&ev);
        kinds_seen.insert(ev.name());
        let line = event_to_json(SimTime::millis(1_000), &ev);
        assert_eq!(line, json, "JSON golden mismatch for {}", ev.name());
        // Well-formedness: balanced braces and an even quote count.
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('"').count() % 2, 0, "{line}");
    }
    // All 26 kinds covered (Bid/ServiceUp appear twice for both shapes).
    assert_eq!(kinds_seen.len(), 26, "kinds covered: {kinds_seen:?}");
}
