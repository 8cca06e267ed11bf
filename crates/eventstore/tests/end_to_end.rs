//! End-to-end: a real scheduler run streamed through a [`ColumnarSink`]
//! round-trips bit-exactly, compresses ≥5x vs the equivalent JSONL, and
//! a time-range query prunes blocks without decoding the whole file —
//! the ISSUE's acceptance criteria, run against live simulator output
//! rather than synthetic streams.

use spothost_core::prelude::*;
use spothost_core::scheduler::SimRun;
use spothost_eventstore::query::{grouped_values, percentile_of, Field, GroupBy, Predicate};
use spothost_eventstore::read::ColReader;
use spothost_eventstore::store::ColumnarStore;
use spothost_eventstore::EventKind;
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::{InstanceType, MarketId, Zone};
use spothost_telemetry::export::event_to_json;
use spothost_telemetry::Recorder;

/// A config chaotic enough to exercise most event kinds.
fn chaos_cfg() -> SchedulerConfig {
    let mut faults = FaultConfig::none();
    faults.spot_capacity_rate = 0.2;
    faults.warning_miss_rate = 0.2;
    faults.ckpt_failure_rate = 0.1;
    SchedulerConfig::single_market(MarketId::new(Zone::UsEast1a, InstanceType::Small))
        .with_policy(BiddingPolicy::Reactive)
        .with_faults(faults)
}

/// Run once with a recorder AND a columnar sink attached (tuple sink):
/// both observe the identical emission stream.
fn run_both(
    cfg: &SchedulerConfig,
    seed: u64,
    horizon: SimDuration,
    block_events: usize,
) -> (Recorder, ColumnarStore, RunReport) {
    let catalog = Catalog::ec2_2015();
    let markets = cfg.candidates();
    let traces = TraceSet::generate(&catalog, &markets, seed, horizon);
    let mut rec = Recorder::with_capacity(1 << 20);
    let store = ColumnarStore::in_memory().with_block_events(block_events);
    let report = {
        let sink = store.sink();
        SimRun::new(&traces, cfg, seed)
            .with_sink((&mut rec, sink))
            .run()
    };
    (rec, store, report)
}

#[test]
fn live_run_roundtrips_bit_exact() {
    let cfg = chaos_cfg();
    let (rec, store, _) = run_both(&cfg, 7, SimDuration::days(14), 512);
    assert_eq!(rec.dropped(), 0, "recorder capacity exceeded");
    let raw: Vec<_> = rec.events().cloned().collect();
    assert!(raw.len() > 500, "run too quiet to be a useful fixture");

    let reader = ColReader::from_bytes(&store.bytes()).expect("parse");
    assert_eq!(reader.event_count(), raw.len() as u64);
    let decoded = reader.decode_all().expect("decode");
    // Simulator streams carry no NaN, so derived equality is exact; the
    // JSON re-render doubles as a field-level diff on failure.
    for ((t, ev), se) in raw.iter().zip(&decoded) {
        assert_eq!(*t, se.at);
        assert_eq!(
            event_to_json(*t, ev),
            event_to_json(se.at, &se.event),
            "decoded event differs from live stream"
        );
        assert_eq!(ev, &se.event);
    }
}

#[test]
fn columnar_is_at_least_5x_smaller_than_jsonl() {
    let cfg = chaos_cfg();
    let (rec, store, _) = run_both(&cfg, 11, SimDuration::days(30), 4096);
    assert_eq!(rec.dropped(), 0);

    let mut jsonl = Vec::new();
    rec.write_jsonl(&mut jsonl).expect("jsonl");
    let col = store.bytes();
    assert!(!col.is_empty());
    let ratio = jsonl.len() as f64 / col.len() as f64;
    assert!(
        ratio >= 5.0,
        "compression ratio {ratio:.2} < 5.0 (jsonl {} bytes, col {} bytes)",
        jsonl.len(),
        col.len()
    );
}

#[test]
fn time_range_query_prunes_blocks() {
    let cfg = chaos_cfg();
    let (rec, store, _) = run_both(&cfg, 3, SimDuration::days(30), 256);
    assert_eq!(rec.dropped(), 0);

    let reader = ColReader::from_bytes(&store.bytes()).expect("parse");
    assert!(
        reader.block_count() >= 4,
        "need several blocks to demonstrate pruning, got {}",
        reader.block_count()
    );

    // First simulated day only: most blocks must be skipped unread.
    let pred = Predicate::any().with_time_range(SimTime::ZERO, SimTime::days(1));
    let sel = reader.select(&pred).expect("select");
    assert!(
        sel.blocks_decoded < sel.blocks_total,
        "expected pruning: decoded {}/{} blocks",
        sel.blocks_decoded,
        sel.blocks_total
    );
    assert!(!sel.events.is_empty());
    assert!(sel
        .events
        .iter()
        .all(|se| se.at.as_millis() <= SimTime::days(1).as_millis()));

    // Kind-restricted query agrees with the brute-force filter.
    let closed = reader
        .select(&Predicate::any().with_kind(EventKind::LeaseClosed))
        .expect("select");
    let brute = reader
        .decode_all()
        .expect("decode")
        .into_iter()
        .filter(|se| se.event.kind() == EventKind::LeaseClosed)
        .count();
    assert_eq!(closed.events.len(), brute);
}

#[test]
fn query_aggregate_matches_raw_stream_aggregate() {
    let cfg = chaos_cfg();
    let (rec, store, report) = run_both(&cfg, 5, SimDuration::days(30), 1024);
    assert_eq!(rec.dropped(), 0);

    let reader = ColReader::from_bytes(&store.bytes()).expect("parse");
    let all = reader.decode_all().expect("decode");

    // Sum of LeaseClosed.cost through the query API equals the report's
    // total cost bitwise (the stream-replay invariant, now through the
    // columnar store).
    let by_none = grouped_values(&all, Field::Cost, GroupBy::None);
    let total: f64 = by_none.iter().flat_map(|(_, v)| v).sum();
    assert_eq!(total.to_bits(), report.cost.to_bits());

    // p99 cost from the store equals p99 computed from the recorder's
    // raw stream.
    let mut raw_costs = Vec::new();
    for (_, ev) in rec.events() {
        if let spothost_telemetry::TelemetryEvent::LeaseClosed { cost, .. } = ev {
            raw_costs.push(*cost);
        }
    }
    let from_store: Vec<f64> = by_none.into_iter().flat_map(|(_, v)| v).collect();
    assert_eq!(from_store.len(), raw_costs.len());
    assert_eq!(
        percentile_of(&from_store, 99.0).to_bits(),
        percentile_of(&raw_costs, 99.0).to_bits()
    );
}
