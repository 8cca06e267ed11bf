//! Property tests for the columnar format and the query layer.
//!
//! (a) Lossless round-trip: for ANY event stream — arbitrary variants,
//!     arbitrary field values including full-bit-pattern floats — sealing
//!     into blocks and decoding reproduces the exact `TimedEvent` stream:
//!     timestamps equal, every field equal, `f64`s `to_bits`-equal. The
//!     re-encoded payload is byte-identical, so nothing is silently
//!     normalized either.
//! (b) Aggregate parity: percentiles, sums and histograms computed
//!     through the query API over a stored stream equal the same
//!     aggregates computed directly from the raw in-memory stream.
//! (c) Pruning soundness: any predicate's pruned selection equals the
//!     brute-force filter of the fully decoded stream — pruning never
//!     drops a matching event.
//! (d) Mutation robustness: random truncations and bit flips of a valid
//!     multi-VM store make every read entry point return a `ColError` or
//!     succeed, never panic; an unchanged file reads back whole.
//! (e) Grouping parity: `group_counts` and `grouped_values` equal a
//!     `String`-keyed fold over the same events for every `GroupBy` and
//!     every `Field`, on stores with enough VMs that `vm10` and `vm2`
//!     must sort as strings.
//! (f) Fleet interleaving: tagged streams of random VMs, interleaved
//!     through live sinks into blocks of random size, with the stream
//!     stepping back in time by up to one control tick as a fleet's
//!     does, round-trip per VM in emission order; each block's VM
//!     dictionary is exactly the set of VMs in it; and pruned VM, time
//!     and kind selects equal the brute-force filter, a VM select
//!     decoding only the blocks whose dictionary holds the VM.

use proptest::prelude::*;
use spothost_cloudsim::{InstanceId, TerminationReason};
use spothost_eventstore::query::{
    group_counts, grouped_values, histogram_of, percentile_of, Field, GroupBy, Predicate,
};
use spothost_eventstore::read::{ColReader, StoredEvent};
use spothost_eventstore::store::ColumnarStore;
use spothost_eventstore::{block, EventKind};
use spothost_faults::FaultKind;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::{InstanceType, MarketId, Zone};
use spothost_telemetry::{
    DenialReason, MigrationPhase, SchedulerState, Sink, TelemetryEvent, TimedEvent,
};
use spothost_virt::MigrationKind;
use std::collections::BTreeMap;

// ---- strategies (built on the workspace's minimal vendored proptest) -----

fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (prop::bool::ANY, s).prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn arb_market() -> impl Strategy<Value = MarketId> {
    (0usize..4, 0usize..4).prop_map(|(z, i)| MarketId::new(Zone::ALL[z], InstanceType::ALL[i]))
}

fn arb_zone() -> impl Strategy<Value = Zone> {
    (0usize..4).prop_map(|z| Zone::ALL[z])
}

fn arb_id() -> impl Strategy<Value = InstanceId> {
    // Small ids (dictionary hits) and arbitrary u64 ids.
    prop_oneof![
        (0u64..8).prop_map(InstanceId),
        (0u64..=u64::MAX).prop_map(InstanceId),
    ]
}

/// Full-bit-pattern floats: every NaN payload, both zeros, infinities.
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..10.0,
        0.0f64..10.0,
        0.0f64..10.0,
        (0u64..=u64::MAX).prop_map(f64::from_bits),
    ]
}

fn arb_time() -> impl Strategy<Value = SimTime> {
    // Near-stream times, the MAX sentinel, and the whole u64 range: the
    // format must be lossless everywhere.
    prop_oneof![
        (0u64..10_000_000u64).prop_map(SimTime::millis),
        (0u64..10_000_000u64).prop_map(SimTime::millis),
        (0u64..10_000_000u64).prop_map(SimTime::millis),
        (0u64..10_000_000u64).prop_map(SimTime::millis),
        Just(SimTime::MAX),
        (0u64..=u64::MAX).prop_map(SimTime),
    ]
}

fn arb_duration() -> impl Strategy<Value = SimDuration> {
    (0u64..100_000_000u64).prop_map(SimDuration::millis)
}

fn arb_term() -> impl Strategy<Value = TerminationReason> {
    prop_oneof![
        Just(TerminationReason::Revoked),
        Just(TerminationReason::Voluntary),
        Just(TerminationReason::FailedAllocation),
    ]
}

fn arb_denial() -> impl Strategy<Value = DenialReason> {
    prop_oneof![
        Just(DenialReason::UnknownMarket),
        Just(DenialReason::BidBelowPrice),
        Just(DenialReason::BidAboveCap),
        Just(DenialReason::InsufficientCapacity),
        Just(DenialReason::QuotaExhausted),
    ]
}

fn arb_phase() -> impl Strategy<Value = MigrationPhase> {
    prop_oneof![
        Just(MigrationPhase::Prepare),
        Just(MigrationPhase::LivePrecopy),
        Just(MigrationPhase::CkptFlush),
        Just(MigrationPhase::Restore),
        Just(MigrationPhase::LazyFaultIn),
    ]
}

fn arb_state() -> impl Strategy<Value = SchedulerState> {
    prop_oneof![
        Just(SchedulerState::Boot),
        Just(SchedulerState::Active),
        Just(SchedulerState::Migrating),
        Just(SchedulerState::Evacuating),
        Just(SchedulerState::DownWaiting),
        Just(SchedulerState::Restoring),
        Just(SchedulerState::Reacquiring),
    ]
}

fn arb_fault() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::SpotCapacity),
        Just(FaultKind::OdCapacity),
        Just(FaultKind::StartupFailure),
        Just(FaultKind::WarningMiss),
        Just(FaultKind::WarningDelay),
        Just(FaultKind::VolumeDelay),
        Just(FaultKind::CkptWriteFail),
        Just(FaultKind::LiveAbort),
        Just(FaultKind::LazyStorm),
    ]
}

fn arb_mig() -> impl Strategy<Value = MigrationKind> {
    prop_oneof![
        Just(MigrationKind::Forced),
        Just(MigrationKind::Planned),
        Just(MigrationKind::Reverse),
    ]
}

fn arb_event() -> impl Strategy<Value = TelemetryEvent> {
    prop_oneof![
        (arb_market(), opt(arb_f64_bits()), opt(arb_f64_bits())).prop_map(
            |(market, bid, predicted_risk)| TelemetryEvent::BidPlaced {
                market,
                bid,
                predicted_risk
            }
        ),
        (arb_id(), arb_market(), prop::bool::ANY, arb_time()).prop_map(
            |(id, market, spot, ready_at)| TelemetryEvent::LeaseGranted {
                id,
                market,
                spot,
                ready_at
            }
        ),
        (arb_market(), prop::bool::ANY, arb_denial()).prop_map(|(market, spot, reason)| {
            TelemetryEvent::LeaseDenied {
                market,
                spot,
                reason,
            }
        }),
        (arb_id(), arb_market())
            .prop_map(|(id, market)| TelemetryEvent::LeaseActivated { id, market }),
        (arb_id(), arb_market(), prop::bool::ANY).prop_map(|(id, market, doomed)| {
            TelemetryEvent::ActivationFailed { id, market, doomed }
        }),
        (
            arb_id(),
            arb_market(),
            prop::bool::ANY,
            arb_term(),
            arb_time(),
            arb_time(),
            arb_f64_bits()
        )
            .prop_map(|(id, market, spot, reason, start, end, cost)| {
                TelemetryEvent::LeaseClosed {
                    id,
                    market,
                    spot,
                    reason,
                    start,
                    end,
                    cost,
                }
            }),
        (arb_id(), arb_market(), arb_time())
            .prop_map(|(id, market, at)| TelemetryEvent::PriceCrossing { id, market, at }),
        (arb_id(), arb_market(), arb_time()).prop_map(|(id, market, terminate_at)| {
            TelemetryEvent::RevocationWarning {
                id,
                market,
                terminate_at,
            }
        }),
        (arb_id(), arb_market())
            .prop_map(|(id, market)| TelemetryEvent::UnwarnedDeath { id, market }),
        (arb_mig(), arb_market(), arb_market())
            .prop_map(|(kind, from, to)| TelemetryEvent::MigrationStarted { kind, from, to }),
        (arb_phase(), arb_duration())
            .prop_map(|(phase, duration)| TelemetryEvent::MigrationPhase { phase, duration }),
        (
            arb_mig(),
            arb_market(),
            arb_market(),
            arb_duration(),
            arb_duration()
        )
            .prop_map(|(kind, from, to, downtime, degraded)| {
                TelemetryEvent::MigrationCompleted {
                    kind,
                    from,
                    to,
                    downtime,
                    degraded,
                }
            }),
        (arb_mig(), arb_market())
            .prop_map(|(kind, from)| TelemetryEvent::MigrationAborted { kind, from }),
        (arb_time(), arb_time()).prop_map(|(start, end)| TelemetryEvent::Outage { start, end }),
        (arb_time(), arb_time()).prop_map(|(start, end)| TelemetryEvent::Degraded { start, end }),
        (arb_id(), arb_market(), prop::bool::ANY, prop::bool::ANY).prop_map(
            |(id, market, spot, first)| TelemetryEvent::ServiceUp {
                id,
                market,
                spot,
                first
            }
        ),
        arb_fault().prop_map(|kind| TelemetryEvent::FaultInjected { kind }),
        ((0u32..=u32::MAX), arb_time())
            .prop_map(|(attempt, until)| TelemetryEvent::BackoffScheduled { attempt, until }),
        arb_state().prop_map(|state| TelemetryEvent::StateChange { state }),
        arb_zone().prop_map(|zone| TelemetryEvent::StormStarted { zone }),
        arb_zone().prop_map(|zone| TelemetryEvent::StormEnded { zone }),
        arb_market().prop_map(|market| TelemetryEvent::QuotaExhausted { market }),
        ((0u32..=u32::MAX), arb_market(), prop::bool::ANY)
            .prop_map(|(job, market, spot)| TelemetryEvent::JobStarted { job, market, spot }),
        ((0u32..=u32::MAX), arb_duration())
            .prop_map(|(job, duration)| TelemetryEvent::JobCheckpointed { job, duration }),
        ((0u32..=u32::MAX), arb_market(), arb_duration())
            .prop_map(|(job, market, lost)| TelemetryEvent::JobRestarted { job, market, lost }),
        ((0u32..=u32::MAX), prop::bool::ANY, arb_f64_bits())
            .prop_map(|(job, missed, cost)| TelemetryEvent::JobFinished { job, missed, cost }),
    ]
}

/// A monotone event stream: timestamps are a prefix sum of deltas.
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<TimedEvent>> {
    arb_stream_len(0..max_len)
}

fn arb_stream_len(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TimedEvent>> {
    prop::collection::vec((0u64..600_000u64, arb_event()), len).prop_map(|raw| {
        let mut t = 0u64;
        raw.into_iter()
            .map(|(dt, ev)| {
                t += dt;
                (SimTime::millis(t), ev)
            })
            .collect()
    })
}

/// The control tick of [`arb_fleet_stream`], ms.
const TICK_MS: u64 = 300_000;

/// A fleet-like stream over VMs `0..vms` (`vms` itself standing for an
/// untagged stream): each event lands at a random instant of the
/// current control tick, and some events close the tick. So consecutive
/// events step back in time by up to one tick, and each VM's own stream
/// need not be monotone either.
fn arb_fleet_stream(max_len: usize) -> impl Strategy<Value = (u32, Vec<StoredEvent>)> {
    let item = (0u32..64, 0u64..TICK_MS, prop::bool::ANY, arb_event());
    (1u32..8, prop::collection::vec(item, 0..max_len)).prop_map(|(vms, raw)| {
        let mut tick = 0u64;
        let events = raw
            .into_iter()
            .map(|(vm, offset, closes_tick, event)| {
                let at = SimTime::millis(tick * TICK_MS + offset);
                tick += u64::from(closes_tick);
                let vm = vm % (vms + 1);
                StoredEvent {
                    vm: (vm < vms).then_some(vm),
                    at,
                    event,
                }
            })
            .collect();
        (vms, events)
    })
}

// ---- bit-exact comparison ------------------------------------------------

/// `f64`-aware equality: like `PartialEq` but NaN-safe (`to_bits`).
fn events_bits_equal(a: &TelemetryEvent, b: &TelemetryEvent) -> bool {
    use TelemetryEvent as E;
    let opt_bits = |x: Option<f64>, y: Option<f64>| match (x, y) {
        (None, None) => true,
        (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    };
    match (a, b) {
        (
            E::BidPlaced {
                market: m1,
                bid: b1,
                predicted_risk: r1,
            },
            E::BidPlaced {
                market: m2,
                bid: b2,
                predicted_risk: r2,
            },
        ) => m1 == m2 && opt_bits(*b1, *b2) && opt_bits(*r1, *r2),
        (
            E::LeaseClosed {
                cost: c1,
                id: i1,
                market: m1,
                spot: s1,
                reason: r1,
                start: st1,
                end: e1,
            },
            E::LeaseClosed {
                cost: c2,
                id: i2,
                market: m2,
                spot: s2,
                reason: r2,
                start: st2,
                end: e2,
            },
        ) => c1.to_bits() == c2.to_bits() && (i1, m1, s1, r1, st1, e1) == (i2, m2, s2, r2, st2, e2),
        (
            E::JobFinished {
                job: j1,
                missed: x1,
                cost: c1,
            },
            E::JobFinished {
                job: j2,
                missed: x2,
                cost: c2,
            },
        ) => (j1, x1) == (j2, x2) && c1.to_bits() == c2.to_bits(),
        // Every other variant is float-free: derived equality is exact.
        _ => a == b,
    }
}

fn store_roundtrip(events: &[TimedEvent], block_events: usize) -> Vec<StoredEvent> {
    let store = ColumnarStore::in_memory().with_block_events(block_events);
    {
        let mut sink = store.sink();
        for (t, ev) in events {
            sink.emit(*t, *ev);
        }
    }
    let reader = ColReader::from_bytes(&store.bytes()).expect("store bytes must parse");
    reader.decode_all().expect("store bytes must decode")
}

/// A store holding one tagged stream per VM (`streams[v]` is `vm{v}`'s),
/// emitted round-robin through live sinks so that blocks of different
/// VMs interleave in the file, as they do in a fleet run.
fn multi_vm_store(streams: &[Vec<TimedEvent>], block_events: usize) -> Vec<u8> {
    let store = ColumnarStore::in_memory().with_block_events(block_events);
    {
        let mut sinks: Vec<_> = (0..streams.len() as u32)
            .map(|vm| store.sink_for_vm(vm))
            .collect();
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (sink, stream) in sinks.iter_mut().zip(streams) {
                if let Some((t, ev)) = stream.get(i) {
                    sink.emit(*t, *ev);
                }
            }
        }
    }
    store.bytes()
}

/// `vm`'s events of a selection, in order, as plain timed events.
fn stream_of(events: &[StoredEvent], vm: u32) -> Vec<TimedEvent> {
    events
        .iter()
        .filter(|se| se.vm == Some(vm))
        .map(|se| (se.at, se.event))
        .collect()
}

fn streams_bits_equal(a: &[TimedEvent], b: &[TimedEvent]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((t1, e1), (t2, e2))| t1 == t2 && events_bits_equal(e1, e2))
}

/// Tag, time and event equal, `f64`s by `to_bits`.
fn stored_bits_equal(a: &[StoredEvent], b: &[StoredEvent]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.vm == y.vm && x.at == y.at && events_bits_equal(&x.event, &y.event))
}

// ---- String-keyed reference grouping -------------------------------------

/// Event counts per group, with one `String` key per event folded into a
/// `BTreeMap`: slow, but sorted by key by construction.
fn reference_group_counts(events: &[StoredEvent], group: GroupBy) -> Vec<(String, u64)> {
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    for se in events {
        *map.entry(group.key(se)).or_insert(0) += 1;
    }
    map.into_iter().collect()
}

/// Per-group samples of `field`, folded the same way.
fn reference_grouped_values(
    events: &[StoredEvent],
    field: Field,
    group: GroupBy,
) -> Vec<(String, Vec<f64>)> {
    let mut map: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for se in events {
        if let Some(v) = field.extract(&se.event) {
            map.entry(group.key(se)).or_default().push(v);
        }
    }
    map.into_iter().collect()
}

const GROUPS: [GroupBy; 5] = [
    GroupBy::None,
    GroupBy::Kind,
    GroupBy::Market,
    GroupBy::Zone,
    GroupBy::Vm,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) decode ∘ encode is the identity, bit-for-bit, on tagged
    /// streams that step back in time.
    #[test]
    fn roundtrip_is_lossless(fleet in arb_fleet_stream(120)) {
        let (_, events) = fleet;
        let payload = block::seal(&events);
        if events.is_empty() {
            prop_assert!(payload.is_empty());
            return Ok(());
        }
        let (meta, decoded) = block::decode(&payload).expect("sealed block must decode");
        let mut vms: Vec<Option<u32>> = events.iter().map(|se| se.vm).collect();
        vms.sort_unstable();
        vms.dedup();
        prop_assert_eq!(meta.vms(), &vms[..]);
        // Timestamps are exact u64 ms; floats compare by `to_bits`.
        prop_assert!(stored_bits_equal(&decoded, &events));
        // Nothing silently normalized: re-sealing the decoded stream
        // yields the identical payload.
        prop_assert_eq!(block::seal(&decoded), payload);
    }

    /// (a') the full store (multi-block, framed file) round-trips too.
    #[test]
    fn multi_block_store_roundtrips(events in arb_stream(150), block_events in 1usize..16) {
        let decoded = store_roundtrip(&events, block_events);
        prop_assert_eq!(decoded.len(), events.len());
        for ((t1, e1), se) in events.iter().zip(&decoded) {
            prop_assert_eq!(t1.as_millis(), se.at.as_millis());
            prop_assert_eq!(se.vm, None);
            prop_assert!(events_bits_equal(e1, &se.event));
        }
    }

    /// (b) aggregates through the query API equal aggregates computed
    /// from the raw stream.
    #[test]
    fn aggregates_match_raw_stream(events in arb_stream(150)) {
        let stored = store_roundtrip(&events, 16);
        let raw: Vec<StoredEvent> = events
            .iter()
            .map(|(t, ev)| StoredEvent { vm: None, at: *t, event: *ev })
            .collect();

        for field in [Field::Cost, Field::LeaseHours, Field::OutageSeconds] {
            let a = grouped_values(&stored, field, GroupBy::Zone);
            let b = grouped_values(&raw, field, GroupBy::Zone);
            prop_assert_eq!(a.len(), b.len());
            for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
                prop_assert_eq!(ka, kb);
                prop_assert_eq!(va.len(), vb.len());
                for (x, y) in va.iter().zip(vb) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                // Identical samples in identical order: percentile and
                // histogram agree exactly (same analysis code path).
                if va.iter().all(|v| !v.is_nan()) {
                    let pa = percentile_of(va, 99.0);
                    let pb = percentile_of(vb, 99.0);
                    prop_assert_eq!(pa.to_bits(), pb.to_bits());
                }
                let ha = histogram_of(va, 8);
                let hb = histogram_of(vb, 8);
                prop_assert_eq!(ha.counts(), hb.counts());
                prop_assert_eq!(ha.count(), hb.count());
            }
        }
        prop_assert_eq!(
            group_counts(&stored, GroupBy::Kind),
            group_counts(&raw, GroupBy::Kind)
        );
    }

    /// (c) pruned selection == brute-force filter of the full stream.
    #[test]
    fn pruning_never_drops_matches(
        events in arb_stream(150),
        block_events in 1usize..12,
        from_ms in 0u64..40_000_000u64,
        len_ms in 0u64..40_000_000u64,
        kind_i in opt(0usize..26),
        zone_i in opt(0usize..4),
    ) {
        let store = ColumnarStore::in_memory().with_block_events(block_events);
        {
            let mut sink = store.sink();
            for (t, ev) in &events {
                sink.emit(*t, *ev);
            }
        }
        let reader = ColReader::from_bytes(&store.bytes()).expect("parse");

        let mut pred = Predicate::any()
            .with_time_range(SimTime::millis(from_ms), SimTime::millis(from_ms + len_ms));
        if let Some(i) = kind_i {
            pred = pred.with_kind(EventKind::ALL[i]);
        }
        if let Some(z) = zone_i {
            pred = pred.with_zone(Zone::ALL[z]);
        }

        let sel = reader.select(&pred).expect("select");
        let all = reader.decode_all().expect("decode");
        let brute: Vec<&StoredEvent> = all.iter().filter(|se| pred.matches_event(se)).collect();
        prop_assert_eq!(sel.events.len(), brute.len());
        for (a, b) in sel.events.iter().zip(brute) {
            prop_assert_eq!(a.at, b.at);
            prop_assert!(events_bits_equal(&a.event, &b.event));
        }
        prop_assert!(sel.blocks_decoded <= sel.blocks_total);
    }
}

proptest! {
    // Cheap cases, and most of them damage the file: run many.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// (d) Truncations and bit flips of a valid store never panic the
    /// reader; with no byte changed it returns the original streams.
    #[test]
    fn mutated_stores_error_or_decode_never_panic(
        streams in prop::collection::vec(arb_stream(40), 2..5),
        block_events in 1usize..10,
        cut in opt(0.0f64..1.0),
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 0..4),
        vm in 0u32..5,
        window in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let bytes = multi_vm_store(&streams, block_events);
        let mut bad = bytes.clone();
        if let Some(f) = cut {
            bad.truncate((f * bytes.len() as f64) as usize);
        }
        for (at, bit) in flips {
            if !bad.is_empty() {
                let i = (at * bad.len() as f64) as usize;
                bad[i] ^= 1 << bit;
            }
        }
        let t_max = streams
            .iter()
            .flatten()
            .map(|(t, _)| t.as_millis())
            .max()
            .unwrap_or(0) as f64;
        let from = SimTime::millis((window.0 * t_max) as u64);
        let to = from + SimDuration::millis((window.1 * t_max) as u64);
        let by_vm = Predicate::any().with_vm(vm);
        let by_time = Predicate::any().with_time_range(from, to);

        let reader = ColReader::from_bytes(&bad);
        let reads = reader.as_ref().ok().map(|r| {
            (r.decode_all(), r.select(&by_vm), r.select(&by_time))
        });
        if bad != bytes {
            // Any outcome but a panic is acceptable for a damaged file.
            return Ok(());
        }
        let (all, vm_sel, time_sel) = reads.expect("an unchanged store must parse");
        let all = all.expect("an unchanged store must decode");
        let vm_sel = vm_sel.expect("an unchanged store must select by VM");
        let time_sel = time_sel.expect("an unchanged store must select by time");
        prop_assert_eq!(all.len(), streams.iter().map(Vec::len).sum::<usize>());
        for (v, stream) in streams.iter().enumerate() {
            let v = v as u32;
            prop_assert!(streams_bits_equal(&stream_of(&all, v), stream));
            let in_window: Vec<TimedEvent> = stream
                .iter()
                .filter(|(t, _)| from <= *t && *t <= to)
                .copied()
                .collect();
            prop_assert!(streams_bits_equal(&stream_of(&time_sel.events, v), &in_window));
        }
        let want = streams.get(vm as usize).map_or(&[][..], Vec::as_slice);
        prop_assert_eq!(vm_sel.events.len(), want.len());
        prop_assert!(streams_bits_equal(&stream_of(&vm_sel.events, vm), want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (e) Every grouping of every field equals the `String`-keyed
    /// reference fold, bit for bit and in the same key order.
    #[test]
    fn grouping_matches_string_keyed_reference(
        streams in prop::collection::vec(arb_stream_len(1..12), 11..16),
        untagged in arb_stream(12),
        block_events in 1usize..10,
    ) {
        let mut events = ColReader::from_bytes(&multi_vm_store(&streams, block_events))
            .and_then(|r| r.decode_all())
            .expect("store must decode");
        events.extend(untagged.iter().map(|&(at, event)| StoredEvent { vm: None, at, event }));
        for group in GROUPS {
            prop_assert_eq!(
                group_counts(&events, group),
                reference_group_counts(&events, group)
            );
            for field in Field::ALL {
                let got = grouped_values(&events, field, group);
                let want = reference_grouped_values(&events, field, group);
                prop_assert_eq!(got.len(), want.len());
                for ((kg, vg), (kw, vw)) in got.iter().zip(&want) {
                    prop_assert_eq!(kg, kw);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(vg), bits(vw));
                }
            }
        }
        // Keys sort as strings, not as VM numbers.
        let keys: Vec<String> = group_counts(&events, GroupBy::Vm)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let at = |k: &str| keys.iter().position(|x| x == k).expect("every VM has events");
        prop_assert!(at("vm10") < at("vm2"), "vm10 must sort before vm2: {:?}", keys);
    }
}

/// A store written through one live sink per VM of `0..vms` and one
/// untagged sink, each emitting its events of `events` in turn, so
/// blocks fill with every VM's events in emission order.
fn fleet_store(vms: u32, events: &[StoredEvent], block_events: usize) -> Vec<u8> {
    let store = ColumnarStore::in_memory().with_block_events(block_events);
    {
        let mut sinks: Vec<_> = (0..vms).map(|vm| store.sink_for_vm(vm)).collect();
        sinks.push(store.sink());
        for se in events {
            sinks[se.vm.unwrap_or(vms) as usize].emit(se.at, se.event);
        }
    }
    store.bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (f) Fleet-wide blocks keep every VM's stream and prune on exact
    /// VM membership.
    #[test]
    fn interleaved_fleet_streams_roundtrip_and_prune(
        fleet in arb_fleet_stream(200),
        block_events in 1usize..64,
        vm in 0u32..9,
        window in (0u64..40, 0u64..4),
        kind_i in 0usize..26,
    ) {
        let (vms, events) = fleet;
        let reader = ColReader::from_bytes(&fleet_store(vms, &events, block_events))
            .expect("parse");
        let all = reader.decode_all().expect("decode");
        // The whole stream in emission order, so every VM's stream too.
        prop_assert!(stored_bits_equal(&all, &events));
        for v in 0..vms {
            let want: Vec<StoredEvent> =
                events.iter().filter(|se| se.vm == Some(v)).copied().collect();
            let sel = reader.select(&Predicate::any().with_vm(v)).expect("select");
            prop_assert!(stored_bits_equal(&sel.events, &want));
        }
        // Blocks hold consecutive runs of the stream, and each block's
        // VM dictionary is exactly the set of VMs in its run.
        let mut start = 0;
        for meta in reader.metas() {
            let mut held: Vec<Option<u32>> =
                all[start..start + meta.count].iter().map(|se| se.vm).collect();
            held.sort_unstable();
            held.dedup();
            prop_assert_eq!(meta.vms(), &held[..]);
            start += meta.count;
        }
        prop_assert_eq!(start, all.len());

        let from = SimTime::millis(window.0 * TICK_MS);
        let to = from + SimDuration::millis(window.1 * TICK_MS);
        for pred in [
            Predicate::any().with_vm(vm),
            Predicate::any().with_time_range(from, to),
            Predicate::any().with_kind(EventKind::ALL[kind_i]),
        ] {
            let sel = reader.select(&pred).expect("select");
            let brute: Vec<StoredEvent> =
                all.iter().filter(|se| pred.matches_event(se)).copied().collect();
            prop_assert!(stored_bits_equal(&sel.events, &brute));
        }
        let sel = reader.select(&Predicate::any().with_vm(vm)).expect("select");
        let holding = reader.metas().filter(|m| m.holds_vm(Some(vm))).count();
        prop_assert_eq!(sel.blocks_decoded, holding);
    }
}

/// NaN payloads and signed zeros survive verbatim (regression anchor for
/// the `to_bits` guarantee, independent of proptest sampling).
#[test]
fn nan_payloads_roundtrip_bit_exact() {
    let weird = f64::from_bits(0x7ff8_dead_beef_cafe);
    let events = vec![
        (
            SimTime::millis(5),
            TelemetryEvent::BidPlaced {
                market: MarketId::new(Zone::UsEast1a, InstanceType::Small),
                bid: Some(weird),
                predicted_risk: Some(-0.0),
            },
        ),
        (
            SimTime::millis(9),
            TelemetryEvent::LeaseClosed {
                id: InstanceId(7),
                market: MarketId::new(Zone::EuWest1a, InstanceType::XLarge),
                spot: false,
                reason: TerminationReason::Voluntary,
                start: SimTime::ZERO,
                end: SimTime::MAX,
                cost: f64::NEG_INFINITY,
            },
        ),
    ];
    let events: Vec<StoredEvent> = events
        .into_iter()
        .map(|(at, event)| StoredEvent {
            vm: None,
            at,
            event,
        })
        .collect();
    let payload = block::seal(&events);
    let (_, decoded) = block::decode(&payload).expect("decode");
    match &decoded[0].event {
        TelemetryEvent::BidPlaced {
            bid,
            predicted_risk,
            ..
        } => {
            assert_eq!(bid.expect("bid present").to_bits(), weird.to_bits());
            assert_eq!(
                predicted_risk.expect("risk present").to_bits(),
                (-0.0f64).to_bits()
            );
        }
        other => panic!("wrong variant decoded: {other:?}"),
    }
    match &decoded[1].event {
        TelemetryEvent::LeaseClosed { cost, end, .. } => {
            assert_eq!(cost.to_bits(), f64::NEG_INFINITY.to_bits());
            assert_eq!(*end, SimTime::MAX);
        }
        other => panic!("wrong variant decoded: {other:?}"),
    }
}
