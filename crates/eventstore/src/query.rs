//! Predicates and aggregations over a columnar selection.
//!
//! A [`Predicate`] is evaluated in two stages: [`Predicate::matches_meta`]
//! prunes whole blocks using only header zone maps (time window, kind /
//! market / zone bitmaps, VM dictionary), then [`Predicate::matches_event`]
//! filters the events of the blocks that had to be decoded. The split is
//! what makes narrow queries cheap on fleet-scale files.
//!
//! Aggregations ([`group_counts`], [`grouped_values`], [`percentile_of`],
//! [`histogram_of`]) reuse `spothost-analysis` so the numbers the query
//! CLI prints are bit-identical to what a report computed from the raw
//! stream would say — a property the crate's proptests pin down. Grouped
//! aggregations accumulate on one dense slot per group and format each
//! group's key once, not once per event.

use crate::block::BlockMeta;
use crate::read::StoredEvent;
use crate::schema::{market_code, markets_of, zone_code, zones_of};
use crate::EventKind;
use spothost_analysis::{percentile, FixedHistogram};
use spothost_market::time::SimTime;
use spothost_market::types::{InstanceType, MarketId, Zone};
use spothost_telemetry::TelemetryEvent;
use std::collections::{BTreeMap, HashMap};

/// A conjunctive filter over stored events.
///
/// All constraints are ANDed; each unset constraint matches everything.
/// Kind/market/zone constraints accumulate (two `with_kind` calls match
/// either kind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    from_ms: u64,
    to_ms: u64,
    kinds: Option<u32>,
    markets: Option<u16>,
    zones: Option<u8>,
    vm: Option<u32>,
}

impl Default for Predicate {
    fn default() -> Self {
        Predicate::any()
    }
}

impl Predicate {
    /// The match-everything predicate.
    pub fn any() -> Self {
        Predicate {
            from_ms: 0,
            to_ms: u64::MAX,
            kinds: None,
            markets: None,
            zones: None,
            vm: None,
        }
    }

    /// Restrict to emission times in `[from, to]` (inclusive).
    pub fn with_time_range(mut self, from: SimTime, to: SimTime) -> Self {
        self.from_ms = from.as_millis();
        self.to_ms = to.as_millis();
        self
    }

    /// Also match events of `kind`.
    pub fn with_kind(mut self, kind: EventKind) -> Self {
        *self.kinds.get_or_insert(0) |= 1 << kind.index();
        self
    }

    /// Also match events referencing `market` (migrations match on either
    /// endpoint).
    pub fn with_market(mut self, market: MarketId) -> Self {
        *self.markets.get_or_insert(0) |= 1 << market_code(market);
        self
    }

    /// Also match events touching `zone`.
    pub fn with_zone(mut self, zone: Zone) -> Self {
        *self.zones.get_or_insert(0) |= 1 << zone_code(zone);
        self
    }

    /// Restrict to the stream of fleet VM `vm` (spawn index). Untagged
    /// single-run streams never match a VM constraint.
    pub fn with_vm(mut self, vm: u32) -> Self {
        self.vm = Some(vm);
        self
    }

    /// Can any event in a block with this header match? Used for pruning;
    /// must never return `false` for a block containing a matching event.
    pub fn matches_meta(&self, meta: &BlockMeta) -> bool {
        if meta.max_t_ms < self.from_ms || meta.min_t_ms > self.to_ms {
            return false;
        }
        if let Some(k) = self.kinds {
            if meta.kinds & k == 0 {
                return false;
            }
        }
        if let Some(m) = self.markets {
            if meta.markets & m == 0 {
                return false;
            }
        }
        if let Some(z) = self.zones {
            if meta.zones & z == 0 {
                return false;
            }
        }
        self.vm.is_none_or(|vm| meta.holds_vm(Some(vm)))
    }

    /// Does every event in a block with this header match? True when the
    /// header lies wholly inside the predicate: its time window inside
    /// the range, its kinds among the predicate's, no market or zone
    /// constraint, and the VM unconstrained or the only one in the
    /// block's VM dictionary. Such a block needs no
    /// [`Self::matches_event`] pass.
    pub(crate) fn covers_meta(&self, meta: &BlockMeta) -> bool {
        self.from_ms <= meta.min_t_ms
            && meta.max_t_ms <= self.to_ms
            && self.kinds.is_none_or(|k| meta.kinds & !k == 0)
            && self.markets.is_none()
            && self.zones.is_none()
            && self.vm.is_none_or(|vm| meta.vms == [Some(vm)])
    }

    /// Exact per-event filter, applied after a block is decoded.
    pub fn matches_event(&self, se: &StoredEvent) -> bool {
        let t = se.at.as_millis();
        if t < self.from_ms || t > self.to_ms {
            return false;
        }
        if let Some(k) = self.kinds {
            if k & (1 << se.event.kind().index()) == 0 {
                return false;
            }
        }
        if let Some(m) = self.markets {
            let (a, b) = markets_of(&se.event);
            let hit = [a, b]
                .into_iter()
                .flatten()
                .any(|mk| m & (1 << market_code(mk)) != 0);
            if !hit {
                return false;
            }
        }
        if let Some(z) = self.zones {
            let (a, b) = zones_of(&se.event);
            let hit = [a, b]
                .into_iter()
                .flatten()
                .any(|zn| z & (1 << zone_code(zn)) != 0);
            if !hit {
                return false;
            }
        }
        if let Some(vm) = self.vm {
            if se.vm != Some(vm) {
                return false;
            }
        }
        true
    }
}

/// A numeric observable extracted from single events, for sums, means,
/// percentiles and histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// `LeaseClosed.cost`: dollars spent on the lease.
    Cost,
    /// `BidPlaced.bid`: the bid price, when one was placed.
    Bid,
    /// `BidPlaced.predicted_risk`: the policy's revocation-risk estimate.
    Risk,
    /// `LeaseClosed`: lease length `end - start` in hours.
    LeaseHours,
    /// `Outage`: outage length in seconds.
    OutageSeconds,
    /// `Degraded`: degraded-interval length in seconds.
    DegradedSeconds,
    /// `MigrationCompleted.downtime` in seconds.
    MigrationDowntimeSeconds,
    /// `MigrationCompleted.degraded` in seconds.
    MigrationDegradedSeconds,
    /// `MigrationPhase.duration` in seconds.
    PhaseSeconds,
    /// `BackoffScheduled.attempt`: the retry attempt number.
    BackoffAttempt,
}

impl Field {
    /// Every field, for CLI help text.
    pub const ALL: [Field; 10] = [
        Field::Cost,
        Field::Bid,
        Field::Risk,
        Field::LeaseHours,
        Field::OutageSeconds,
        Field::DegradedSeconds,
        Field::MigrationDowntimeSeconds,
        Field::MigrationDegradedSeconds,
        Field::PhaseSeconds,
        Field::BackoffAttempt,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Field::Cost => "cost",
            Field::Bid => "bid",
            Field::Risk => "risk",
            Field::LeaseHours => "lease_hours",
            Field::OutageSeconds => "outage_s",
            Field::DegradedSeconds => "degraded_s",
            Field::MigrationDowntimeSeconds => "mig_downtime_s",
            Field::MigrationDegradedSeconds => "mig_degraded_s",
            Field::PhaseSeconds => "phase_s",
            Field::BackoffAttempt => "backoff_attempt",
        }
    }

    /// Parse a CLI `--field` value.
    pub fn parse(name: &str) -> Option<Field> {
        Field::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The field's value for one event, if the event carries it.
    pub fn extract(self, ev: &TelemetryEvent) -> Option<f64> {
        match (self, ev) {
            (Field::Cost, TelemetryEvent::LeaseClosed { cost, .. })
            | (Field::Cost, TelemetryEvent::JobFinished { cost, .. }) => Some(*cost),
            (Field::Bid, TelemetryEvent::BidPlaced { bid, .. }) => *bid,
            (Field::Risk, TelemetryEvent::BidPlaced { predicted_risk, .. }) => *predicted_risk,
            (Field::LeaseHours, TelemetryEvent::LeaseClosed { start, end, .. }) => {
                Some((end.as_millis().saturating_sub(start.as_millis())) as f64 / 3_600_000.0)
            }
            (Field::OutageSeconds, TelemetryEvent::Outage { start, end })
            | (Field::DegradedSeconds, TelemetryEvent::Degraded { start, end }) => {
                Some((end.as_millis().saturating_sub(start.as_millis())) as f64 / 1_000.0)
            }
            (
                Field::MigrationDowntimeSeconds,
                TelemetryEvent::MigrationCompleted { downtime, .. },
            ) => Some(downtime.as_millis() as f64 / 1_000.0),
            (
                Field::MigrationDegradedSeconds,
                TelemetryEvent::MigrationCompleted { degraded, .. },
            ) => Some(degraded.as_millis() as f64 / 1_000.0),
            (Field::PhaseSeconds, TelemetryEvent::MigrationPhase { duration, .. }) => {
                Some(duration.as_millis() as f64 / 1_000.0)
            }
            (Field::BackoffAttempt, TelemetryEvent::BackoffScheduled { attempt, .. }) => {
                Some(f64::from(*attempt))
            }
            _ => None,
        }
    }
}

/// The grouping dimension of an aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupBy {
    /// One group holding everything.
    #[default]
    None,
    /// Group by event kind.
    Kind,
    /// Group by (primary) market.
    Market,
    /// Group by (primary) zone.
    Zone,
    /// Group by fleet VM tag.
    Vm,
}

/// An event's group as a number: the kind index, the market or zone code
/// (one past the last code for `"-"`), or the VM tag.
#[derive(Debug, Clone, Copy)]
enum GroupCode {
    Dense(usize),
    Vm(Option<u32>),
}

/// Every dense code is below this: 26 kind indices outnumber the 17
/// market and 5 zone codes.
const DENSE_CODES: usize = EventKind::ALL.len();

impl GroupBy {
    /// Parse a CLI `--group-by` value.
    pub fn parse(name: &str) -> Option<GroupBy> {
        match name {
            "none" => Some(GroupBy::None),
            "kind" => Some(GroupBy::Kind),
            "market" => Some(GroupBy::Market),
            "zone" => Some(GroupBy::Zone),
            "vm" => Some(GroupBy::Vm),
            _ => None,
        }
    }

    /// The group key of one event. Events without the dimension (e.g. a
    /// `StateChange` grouped by market) land in `"-"`.
    pub fn key(self, se: &StoredEvent) -> String {
        match self {
            GroupBy::None => "all".to_string(),
            GroupBy::Kind => se.event.kind().name().to_string(),
            GroupBy::Market => match markets_of(&se.event).0 {
                Some(m) => m.to_string(),
                None => "-".to_string(),
            },
            GroupBy::Zone => match zones_of(&se.event).0 {
                Some(z) => z.name().to_string(),
                None => "-".to_string(),
            },
            GroupBy::Vm => match se.vm {
                Some(v) => format!("vm{v}"),
                None => "-".to_string(),
            },
        }
    }

    /// The event's group as a number: events share a [`key`](Self::key)
    /// exactly when they share a code.
    fn code(self, se: &StoredEvent) -> GroupCode {
        const NO_MARKET: usize = Zone::ALL.len() * InstanceType::ALL.len();
        match self {
            GroupBy::None => GroupCode::Dense(0),
            GroupBy::Kind => GroupCode::Dense(se.event.kind().index()),
            GroupBy::Market => GroupCode::Dense(
                markets_of(&se.event)
                    .0
                    .map_or(NO_MARKET, |m| usize::from(market_code(m))),
            ),
            GroupBy::Zone => GroupCode::Dense(
                zones_of(&se.event)
                    .0
                    .map_or(Zone::ALL.len(), |z| usize::from(zone_code(z))),
            ),
            GroupBy::Vm => GroupCode::Vm(se.vm),
        }
    }
}

/// Dense accumulator slots for one grouping, numbered in first-seen
/// order. Dense codes index a table; VM tags, which a file may carry up
/// to `u32::MAX`, go through a map.
struct Slots {
    group: GroupBy,
    dense: [Option<usize>; DENSE_CODES],
    vms: HashMap<Option<u32>, usize>,
    /// Each slot's first event, which its key is formatted from.
    first: Vec<usize>,
}

impl Slots {
    fn new(group: GroupBy) -> Self {
        Slots {
            group,
            dense: [None; DENSE_CODES],
            vms: HashMap::new(),
            first: Vec::new(),
        }
    }

    /// The slot of event `i`; a new group gets the next slot.
    fn of(&mut self, i: usize, se: &StoredEvent) -> usize {
        let next = self.first.len();
        let slot = match self.group.code(se) {
            GroupCode::Dense(c) => *self.dense[c].get_or_insert(next),
            GroupCode::Vm(vm) => *self.vms.entry(vm).or_insert(next),
        };
        if slot == next {
            self.first.push(i);
        }
        slot
    }

    /// Pair each slot's accumulator with its key, sorted by key.
    fn keyed<T>(&self, events: &[StoredEvent], accs: Vec<T>) -> Vec<(String, T)> {
        let mut out: Vec<(String, T)> = self
            .first
            .iter()
            .map(|&i| self.group.key(&events[i]))
            .zip(accs)
            .collect();
        // Distinct groups have distinct keys, so the order is total.
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Event counts per group, sorted by key.
pub fn group_counts(events: &[StoredEvent], group: GroupBy) -> Vec<(String, u64)> {
    let mut slots = Slots::new(group);
    let mut counts: Vec<u64> = Vec::new();
    for (i, se) in events.iter().enumerate() {
        let s = slots.of(i, se);
        if s == counts.len() {
            counts.push(0);
        }
        counts[s] += 1;
    }
    slots.keyed(events, counts)
}

/// Per-group samples of `field`, sorted by key. Events that don't carry
/// the field contribute nothing (and create no group).
pub fn grouped_values(
    events: &[StoredEvent],
    field: Field,
    group: GroupBy,
) -> Vec<(String, Vec<f64>)> {
    let mut slots = Slots::new(group);
    let mut values: Vec<Vec<f64>> = Vec::new();
    for (i, se) in events.iter().enumerate() {
        if let Some(v) = field.extract(&se.event) {
            let s = slots.of(i, se);
            if s == values.len() {
                values.push(Vec::new());
            }
            values[s].push(v);
        }
    }
    slots.keyed(events, values)
}

/// Percentile of a sample (delegates to `spothost-analysis`, so query
/// results match report numbers exactly).
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(values, p)
}

/// A `buckets`-bucket linear histogram spanning the sample's own min/max
/// (degenerate samples get a unit-width bucket).
pub fn histogram_of(values: &[f64], buckets: usize) -> FixedHistogram {
    let n = buckets.max(1);
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (lo, hi) = if finite.is_empty() {
        (0.0, 1.0)
    } else if lo == hi {
        (lo, lo + 1.0)
    } else {
        (lo, hi)
    };
    // Samples near the f64 extremes can defeat linear bucketing: the span
    // may overflow to infinity, or edge increments may round away
    // (`f64::MAX + 1.0 == f64::MAX`). Validate the edge ladder and fall
    // back to a unit range — out-of-range samples are still counted, in
    // the under/overflow buckets.
    let w = (hi - lo) / n as f64;
    let edges: Vec<f64> = (0..=n).map(|i| lo + w * i as f64).collect();
    let usable = w.is_finite() && edges.windows(2).all(|e| e[0] < e[1]);
    let mut h = if usable {
        FixedHistogram::new(edges)
    } else {
        FixedHistogram::linear(0.0, 1.0, n)
    };
    for v in values {
        h.record(*v);
    }
    h
}

/// Time-to-reacquire episodes, the paper's headline recovery metric,
/// derived from the raw stream: per VM stream, the first
/// `BackoffScheduled` after a loss opens an episode and the next
/// `LeaseGranted` closes it. Returns `(zone of the granted market,
/// seconds from first backoff to grant)` per episode, in stream order.
pub fn reacquire_seconds(events: &[StoredEvent]) -> Vec<(Zone, f64)> {
    let mut open: BTreeMap<Option<u32>, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for se in events {
        match &se.event {
            TelemetryEvent::BackoffScheduled { .. } => {
                open.entry(se.vm).or_insert_with(|| se.at.as_millis());
            }
            TelemetryEvent::LeaseGranted { market, .. } => {
                if let Some(start) = open.remove(&se.vm) {
                    let secs = se.at.as_millis().saturating_sub(start) as f64 / 1_000.0;
                    out.push((market.zone, secs));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_cloudsim::InstanceId;

    fn se(vm: Option<u32>, at_ms: u64, event: TelemetryEvent) -> StoredEvent {
        StoredEvent {
            vm,
            at: SimTime::millis(at_ms),
            event,
        }
    }

    fn grant(zone: Zone) -> TelemetryEvent {
        TelemetryEvent::LeaseGranted {
            id: InstanceId(1),
            market: MarketId::new(zone, InstanceType::Large),
            spot: true,
            ready_at: SimTime::ZERO,
        }
    }

    #[test]
    fn predicate_event_filters_compose() {
        let e = se(Some(2), 5_000, grant(Zone::UsEast1b));
        assert!(Predicate::any().matches_event(&e));
        assert!(Predicate::any()
            .with_kind(EventKind::LeaseGranted)
            .with_zone(Zone::UsEast1b)
            .with_vm(2)
            .matches_event(&e));
        assert!(!Predicate::any().with_vm(1).matches_event(&e));
        assert!(!Predicate::any()
            .with_kind(EventKind::Outage)
            .matches_event(&e));
        assert!(!Predicate::any()
            .with_time_range(SimTime::millis(6_000), SimTime::MAX)
            .matches_event(&e));
        // Two with_kind calls match either kind.
        assert!(Predicate::any()
            .with_kind(EventKind::Outage)
            .with_kind(EventKind::LeaseGranted)
            .matches_event(&e));
    }

    #[test]
    fn field_extraction_and_grouping() {
        let events = vec![
            se(
                None,
                0,
                TelemetryEvent::LeaseClosed {
                    id: InstanceId(1),
                    market: MarketId::new(Zone::UsEast1a, InstanceType::Large),
                    spot: true,
                    reason: spothost_cloudsim::TerminationReason::Revoked,
                    start: SimTime::ZERO,
                    end: SimTime::hours(2),
                    cost: 0.5,
                },
            ),
            se(
                None,
                1,
                TelemetryEvent::LeaseClosed {
                    id: InstanceId(2),
                    market: MarketId::new(Zone::UsWest1a, InstanceType::Large),
                    spot: false,
                    reason: spothost_cloudsim::TerminationReason::Voluntary,
                    start: SimTime::ZERO,
                    end: SimTime::hours(1),
                    cost: 0.25,
                },
            ),
        ];
        let by_zone = grouped_values(&events, Field::Cost, GroupBy::Zone);
        assert_eq!(by_zone.len(), 2);
        let total: f64 = by_zone.iter().flat_map(|(_, v)| v).sum();
        assert!((total - 0.75).abs() < 1e-12);
        let hours = grouped_values(&events, Field::LeaseHours, GroupBy::None);
        assert_eq!(hours[0].1, vec![2.0, 1.0]);
        assert_eq!(group_counts(&events, GroupBy::Kind)[0].1, 2);
    }

    #[test]
    fn reacquire_pairs_backoff_with_next_grant_per_vm() {
        let events = vec![
            se(
                Some(0),
                1_000,
                TelemetryEvent::BackoffScheduled {
                    attempt: 0,
                    until: SimTime::millis(2_000),
                },
            ),
            // Second backoff of the same episode must not reset the start.
            se(
                Some(0),
                3_000,
                TelemetryEvent::BackoffScheduled {
                    attempt: 1,
                    until: SimTime::millis(5_000),
                },
            ),
            // Interleaved other-VM episode.
            se(
                Some(1),
                4_000,
                TelemetryEvent::BackoffScheduled {
                    attempt: 0,
                    until: SimTime::millis(5_000),
                },
            ),
            se(Some(0), 11_000, grant(Zone::UsEast1a)),
            se(Some(1), 5_000, grant(Zone::EuWest1a)),
            // Grant without open episode: ignored.
            se(Some(0), 12_000, grant(Zone::UsEast1a)),
        ];
        let eps = reacquire_seconds(&events);
        assert_eq!(eps, vec![(Zone::UsEast1a, 10.0), (Zone::EuWest1a, 1.0)]);
    }

    #[test]
    fn histogram_and_percentile_handle_edge_samples() {
        let h = histogram_of(&[], 4);
        assert_eq!(h.count(), 0);
        let h = histogram_of(&[3.0, 3.0], 4);
        assert_eq!(h.count(), 2);
        let h = histogram_of(&[0.0, 1.0, 2.0, 10.0], 5);
        assert_eq!(h.count(), 4);
        assert_eq!(percentile_of(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
    }
}
