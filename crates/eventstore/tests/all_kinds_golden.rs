//! The `.col` bytes of every event kind, pinned.
//!
//! `tests/fixtures/all_kinds.col` is one store holding all 26 kinds. It
//! pins the format: only a change of the format itself (a new magic)
//! may rewrite it. Writing the same stream must give the same bytes,
//! and reading the fixture must give the same stream back. The
//! stream covers every field type at its edges: both `Option<f64>`
//! states, NaN payloads and −0.0, in-variant times before and after
//! their emission instant (`SimTime::MAX` included), `u32::MAX` as a job
//! id and as an attempt, an instance id repeated within and across
//! blocks, and untagged and tagged streams in one file: the first block
//! is untagged only (no VM column), the later ones mix three streams.

use spothost_cloudsim::{InstanceId, TerminationReason};
use spothost_eventstore::read::{ColReader, StoredEvent};
use spothost_eventstore::store::ColumnarStore;
use spothost_eventstore::EventKind;
use spothost_faults::FaultKind;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::{InstanceType, MarketId, Zone};
use spothost_telemetry::{DenialReason, MigrationPhase, SchedulerState, Sink, TelemetryEvent as E};
use spothost_virt::MigrationKind;
use std::collections::BTreeMap;

const FIXTURE: &[u8] = include_bytes!("fixtures/all_kinds.col");

/// Events per block: the first block is the 16 untagged events.
const BLOCK_EVENTS: usize = 16;

fn m(zone: Zone, itype: InstanceType) -> MarketId {
    MarketId::new(zone, itype)
}

/// The pinned stream, in emission order, with each event's VM tag.
fn all_kinds() -> Vec<StoredEvent> {
    let a = m(Zone::UsEast1a, InstanceType::Small);
    let b = m(Zone::EuWest1a, InstanceType::XLarge);
    let c = m(Zone::UsWest1a, InstanceType::Medium);
    let nan = f64::from_bits(0x7ff8_dead_beef_cafe);
    let neg_nan = f64::from_bits(0xfff0_0000_0000_0001);
    let t = SimTime::millis;
    let d = SimDuration::millis;
    let untagged = [
        (
            t(1_000),
            E::BidPlaced {
                market: a,
                bid: Some(0.25),
                predicted_risk: None,
            },
        ),
        (
            t(1_000),
            E::BidPlaced {
                market: b,
                bid: None,
                predicted_risk: Some(nan),
            },
        ),
        (
            t(1_000),
            E::BidPlaced {
                market: c,
                bid: Some(-0.0),
                predicted_risk: Some(0.01),
            },
        ),
        (
            t(1_200),
            E::LeaseGranted {
                id: InstanceId(7),
                market: a,
                spot: true,
                ready_at: t(61_200),
            },
        ),
        (
            t(1_300),
            E::LeaseDenied {
                market: b,
                spot: false,
                reason: DenialReason::QuotaExhausted,
            },
        ),
        (
            t(61_200),
            E::LeaseActivated {
                id: InstanceId(7),
                market: a,
            },
        ),
        (
            t(61_200),
            E::StateChange {
                state: SchedulerState::Reacquiring,
            },
        ),
        (
            t(61_200),
            E::ServiceUp {
                id: InstanceId(7),
                market: a,
                spot: true,
                first: true,
            },
        ),
        (
            t(90_000),
            E::PriceCrossing {
                id: InstanceId(7),
                market: a,
                at: t(200_000),
            },
        ),
        // A step back in emission time.
        (
            t(80_000),
            E::RevocationWarning {
                id: InstanceId(7),
                market: a,
                terminate_at: t(200_000),
            },
        ),
        (
            t(200_000),
            E::LeaseClosed {
                id: InstanceId(7),
                market: a,
                spot: true,
                reason: TerminationReason::Revoked,
                start: t(61_200),
                end: t(200_000),
                cost: 0.017,
            },
        ),
        (
            t(200_000),
            E::UnwarnedDeath {
                id: InstanceId(u64::MAX),
                market: c,
            },
        ),
        (
            t(200_000),
            E::Outage {
                start: t(200_000),
                end: t(260_000),
            },
        ),
        (
            t(260_000),
            E::Degraded {
                start: t(259_999),
                end: SimTime::MAX,
            },
        ),
        (
            t(210_000),
            E::MigrationStarted {
                kind: MigrationKind::Forced,
                from: a,
                to: b,
            },
        ),
        (
            t(210_000),
            E::MigrationPhase {
                phase: MigrationPhase::LazyFaultIn,
                duration: d(120_000),
            },
        ),
    ];
    let mixed = [
        (
            Some(0),
            t(0),
            E::ActivationFailed {
                id: InstanceId(11),
                market: c,
                doomed: true,
            },
        ),
        (
            Some(5),
            t(5_000),
            E::MigrationCompleted {
                kind: MigrationKind::Planned,
                from: b,
                to: c,
                downtime: d(0),
                degraded: d(30_000),
            },
        ),
        (
            None,
            t(220_000),
            E::MigrationAborted {
                kind: MigrationKind::Reverse,
                from: b,
            },
        ),
        (
            Some(0),
            t(1),
            E::FaultInjected {
                kind: FaultKind::LazyStorm,
            },
        ),
        (
            Some(5),
            t(5_000),
            E::BackoffScheduled {
                attempt: u32::MAX,
                until: t(4_000),
            },
        ),
        (
            Some(5),
            t(5_000),
            E::BackoffScheduled {
                attempt: 0,
                until: t(9_000),
            },
        ),
        (
            None,
            t(230_000),
            E::StormStarted {
                zone: Zone::UsWest1a,
            },
        ),
        (
            Some(0),
            t(10),
            E::StormEnded {
                zone: Zone::EuWest1a,
            },
        ),
        (Some(5), t(6_000), E::QuotaExhausted { market: b }),
        (
            None,
            t(240_000),
            E::JobStarted {
                job: u32::MAX,
                market: c,
                spot: false,
            },
        ),
        (
            Some(0),
            t(20),
            E::JobCheckpointed {
                job: 0,
                duration: d(0),
            },
        ),
        (
            Some(5),
            t(7_000),
            E::JobRestarted {
                job: 3,
                market: a,
                lost: d(u64::MAX),
            },
        ),
        (
            None,
            t(250_000),
            E::JobFinished {
                job: u32::MAX,
                missed: true,
                cost: neg_nan,
            },
        ),
        (
            Some(5),
            t(8_000),
            E::JobFinished {
                job: 2,
                missed: false,
                cost: -0.0,
            },
        ),
        // Instance id 7 again, in a later block.
        (
            Some(0),
            t(30),
            E::LeaseGranted {
                id: InstanceId(7),
                market: b,
                spot: false,
                ready_at: t(0),
            },
        ),
        (
            Some(0),
            t(40),
            E::ServiceUp {
                id: InstanceId(11),
                market: c,
                spot: false,
                first: false,
            },
        ),
        (
            Some(0),
            t(50),
            E::LeaseClosed {
                id: InstanceId(11),
                market: c,
                spot: false,
                reason: TerminationReason::FailedAllocation,
                start: SimTime::ZERO,
                end: SimTime::MAX,
                cost: f64::NEG_INFINITY,
            },
        ),
        (
            None,
            t(260_000),
            E::LeaseClosed {
                id: InstanceId(7),
                market: b,
                spot: false,
                reason: TerminationReason::Voluntary,
                start: t(230_000),
                end: t(260_000),
                cost: f64::MIN_POSITIVE,
            },
        ),
        (
            Some(5),
            t(9_000),
            E::Outage {
                start: t(8_000),
                end: t(9_000),
            },
        ),
    ];
    untagged
        .into_iter()
        .map(|(at, event)| (None, at, event))
        .chain(mixed)
        .map(|(vm, at, event)| StoredEvent { vm, at, event })
        .collect()
}

/// Write `events` through one live sink per stream tag, in stream
/// order, into a store of [`BLOCK_EVENTS`]-event blocks.
fn write(events: &[StoredEvent]) -> Vec<u8> {
    let store = ColumnarStore::in_memory().with_block_events(BLOCK_EVENTS);
    {
        let mut sinks = BTreeMap::new();
        for se in events {
            let sink = sinks.entry(se.vm).or_insert_with(|| match se.vm {
                Some(vm) => store.sink_for_vm(vm),
                None => store.sink(),
            });
            sink.emit(se.at, se.event);
        }
    }
    store.bytes()
}

#[test]
fn the_stream_holds_every_kind() {
    let events = all_kinds();
    for kind in EventKind::ALL {
        assert!(
            events.iter().any(|se| se.event.name() == kind.name()),
            "no {} event",
            kind.name()
        );
    }
}

#[test]
fn writing_the_stream_gives_the_fixture_bytes() {
    let bytes = write(&all_kinds());
    assert!(
        bytes == FIXTURE,
        "the .col bytes changed ({} bytes, fixture {})",
        bytes.len(),
        FIXTURE.len()
    );
}

#[test]
fn reading_the_fixture_gives_the_stream_back() {
    let reader = ColReader::from_bytes(FIXTURE).expect("the fixture parses");
    assert_eq!(reader.block_count(), 3);
    assert_eq!(reader.vms(), vec![None, Some(0), Some(5)]);
    let decoded = reader.decode_all().expect("the fixture decodes");
    let events = all_kinds();
    // Debug output shows every field but a NaN's payload; writing the
    // decoded stream again compares every `f64` by its bits.
    assert_eq!(format!("{decoded:?}"), format!("{events:?}"));
    assert!(write(&decoded) == FIXTURE);
}
