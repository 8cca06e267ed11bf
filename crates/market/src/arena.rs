//! Process-global trace arena: generate each calibrated trace once, share
//! it everywhere.
//!
//! A calibrated market trace is a pure function of `(master seed, horizon,
//! market, on-demand price)` — every stochastic ingredient draws from a
//! dedicated derived stream, so the trace does not depend on which other
//! markets are generated alongside it (see `gen.rs`). That makes the
//! traces perfect cache candidates: the paper's experiment suite re-runs
//! the same seeds over the same markets and horizons dozens of times, and
//! regeneration — not simulation — dominated `repro all` before this
//! arena existed.
//!
//! The arena is append-only and keyed by exactly the inputs the trace is
//! a function of, so a cached hit is byte-identical to a fresh
//! generation (asserted by tests in `gen.rs`). Shared intermediates (the
//! global/zone factor paths and the zone-wide spike schedules) are cached
//! the same way, so a miss for one market never recomputes another's
//! shared randomness.
//!
//! Memory model: entries are `Arc`-shared; the resident cost is the sum
//! of all distinct `(seed, horizon, market)` traces generated so far
//! (about 0.16 MB per market-seed at the paper's 60-day horizon). Callers
//! running unbounded seed sweeps can drop the cache between phases with
//! [`TraceArena::clear`], or — better — set a residency bound with
//! [`TraceArena::set_trace_capacity`]: above the bound the arena evicts
//! oldest-inserted traces first (seed sweeps walk seeds monotonically, so
//! FIFO evicts exactly the seeds the sweep has moved past). Eviction only
//! drops the arena's own reference — outstanding `Arc`s stay alive — and
//! an evicted key regenerates byte-identically on the next lookup.
//! Generation happens outside the arena lock; two threads racing on the
//! same key may both generate, but the first insert wins and both observe
//! the same shared trace.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use crate::calib::calibrated_model;
use crate::catalog::Catalog;
use crate::gen::{calibrated_trace, FactorPaths, TraceSet, ZoneSpikeSchedules};
use crate::time::SimDuration;
use crate::trace::PriceTrace;
use crate::types::MarketId;

/// Cache key for one calibrated trace. The on-demand price is part of the
/// key (as raw bits) because the generator scales spike levels and the OU
/// base by it — two catalogs that price a market differently must not
/// share a trace.
type TraceKey = (u64, u64, MarketId, u64);

/// Counters describing the arena's effectiveness and footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Trace lookups served from the cache.
    pub trace_hits: u64,
    /// Trace lookups that required generation.
    pub trace_misses: u64,
    /// Factor-path lookups served from the cache.
    pub factor_hits: u64,
    /// Factor-path lookups that required generation.
    pub factor_misses: u64,
    /// Distinct traces resident in the arena.
    pub resident_traces: u64,
    /// Heap bytes held by resident traces, points and block maxima
    /// ([`PriceTrace::heap_bytes`]); excludes map overhead and the factor
    /// paths, which are transient by comparison.
    pub resident_bytes: u64,
    /// Traces evicted to honour the residency bound
    /// ([`TraceArena::set_trace_capacity`]).
    pub trace_evictions: u64,
    /// The residency bound currently in force (0 = unbounded).
    pub trace_capacity: u64,
}

#[derive(Default)]
struct Inner {
    traces: HashMap<TraceKey, Arc<PriceTrace>>,
    /// Insertion order of `traces` keys — the FIFO eviction queue. Holds
    /// exactly the keys of `traces` (inserts append, evictions and
    /// `clear` remove), so the front is always the oldest resident.
    order: VecDeque<TraceKey>,
    factors: HashMap<(u64, u64, usize), Arc<FactorPaths>>,
    zone_spikes: HashMap<(u64, u64), Arc<ZoneSpikeSchedules>>,
    stats: ArenaStats,
}

impl Inner {
    /// Evict oldest-inserted traces until the residency bound holds.
    fn enforce_capacity(&mut self) {
        let cap = self.stats.trace_capacity;
        if cap == 0 {
            return;
        }
        while self.traces.len() as u64 > cap {
            let key = match self.order.pop_front() {
                Some(k) => k,
                None => break,
            };
            if self.traces.remove(&key).is_some() {
                self.stats.trace_evictions += 1;
            }
        }
    }

    /// Recompute the residency gauges after any insert or eviction.
    fn refresh_gauges(&mut self) {
        self.stats.resident_traces = self.traces.len() as u64;
        self.stats.resident_bytes = self.traces.values().map(|t| t.heap_bytes() as u64).sum();
    }
}

/// The process-global arena behind [`TraceSet::generate`].
pub struct TraceArena {
    inner: Mutex<Inner>,
}

impl TraceArena {
    /// The process-global instance.
    pub fn global() -> &'static TraceArena {
        static GLOBAL: OnceLock<TraceArena> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceArena {
            inner: Mutex::new(Inner::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means another thread panicked after its
        // mutation completed (inserts are single statements); the map is
        // still coherent, so recover rather than propagate.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Build a calibrated [`TraceSet`] for `markets`, generating only the
    /// traces not already resident and sharing everything by reference.
    pub fn calibrated_set(
        &self,
        catalog: &Catalog,
        markets: &[MarketId],
        master_seed: u64,
        horizon: SimDuration,
    ) -> TraceSet {
        assert!(!markets.is_empty(), "at least one market required");
        assert!(horizon > SimDuration::ZERO);
        let hms = horizon.as_millis();

        let mut entries: Vec<(MarketId, Option<Arc<PriceTrace>>)> =
            markets.iter().map(|&m| (m, None)).collect();
        let mut missing: Vec<(usize, MarketId, f64)> = Vec::new();
        {
            let mut g = self.lock();
            for (i, &m) in markets.iter().enumerate() {
                let pon = catalog.on_demand_price(m);
                match g.traces.get(&(master_seed, hms, m, pon.to_bits())).cloned() {
                    Some(t) => {
                        g.stats.trace_hits += 1;
                        entries[i].1 = Some(t);
                    }
                    None => {
                        g.stats.trace_misses += 1;
                        missing.push((i, m, pon));
                    }
                }
            }
        }

        if !missing.is_empty() {
            // Every calibrated model shares one grid step, so the factor
            // paths for this (seed, horizon) are common to all markets.
            let step = calibrated_model(missing[0].1).step;
            let n_grid = (hms / step.as_millis()) as usize + 1;
            let factors = self.factor_paths(master_seed, step, n_grid);
            let zone_spikes = self.zone_spike_schedules(master_seed, horizon);
            for &(i, m, pon) in &missing {
                let trace = Arc::new(calibrated_trace(
                    master_seed,
                    m,
                    pon,
                    horizon,
                    &factors,
                    &zone_spikes,
                ));
                let mut g = self.lock();
                let key = (master_seed, hms, m, pon.to_bits());
                let resident = match g.traces.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        let t = v.insert(trace).clone();
                        g.order.push_back(key);
                        t
                    }
                };
                g.enforce_capacity();
                g.refresh_gauges();
                entries[i].1 = Some(resident);
            }
        }

        // Attach the zone spike spans behind these traces (cached like the
        // traces themselves) so correlated-failure models can couple to
        // the same price events regardless of cache hits or misses.
        let spans = Arc::new(self.zone_spike_schedules(master_seed, horizon).all_spans());
        TraceSet::from_shared(
            catalog,
            entries
                .into_iter()
                .map(|(m, t)| {
                    let t = t.unwrap_or_else(|| unreachable!("every entry filled above"));
                    (m, t)
                })
                .collect(),
            horizon,
        )
        .with_spike_spans(spans)
    }

    fn factor_paths(&self, master_seed: u64, step: SimDuration, n: usize) -> Arc<FactorPaths> {
        let key = (master_seed, step.as_millis(), n);
        {
            let mut g = self.lock();
            if let Some(f) = g.factors.get(&key).cloned() {
                g.stats.factor_hits += 1;
                return f;
            }
            g.stats.factor_misses += 1;
        }
        let fresh = Arc::new(FactorPaths::generate(master_seed, step, n));
        let mut g = self.lock();
        Arc::clone(g.factors.entry(key).or_insert(fresh))
    }

    /// The shared zone-wide spike schedules for `(master_seed, horizon)`
    /// — exactly the windows calibrated trace generation observed (or
    /// will observe) for that key. Correlated-failure models use this to
    /// couple storms to the price events already baked into the traces.
    pub fn zone_spikes(&self, master_seed: u64, horizon: SimDuration) -> Arc<ZoneSpikeSchedules> {
        self.zone_spike_schedules(master_seed, horizon)
    }

    fn zone_spike_schedules(
        &self,
        master_seed: u64,
        horizon: SimDuration,
    ) -> Arc<ZoneSpikeSchedules> {
        let key = (master_seed, horizon.as_millis());
        {
            let g = self.lock();
            if let Some(z) = g.zone_spikes.get(&key) {
                return Arc::clone(z);
            }
        }
        let fresh = Arc::new(ZoneSpikeSchedules::canonical(master_seed, horizon));
        let mut g = self.lock();
        Arc::clone(g.zone_spikes.entry(key).or_insert(fresh))
    }

    /// Current cache counters.
    pub fn stats(&self) -> ArenaStats {
        self.lock().stats
    }

    /// Bound the number of resident traces (0 = unbounded, the default).
    /// Above the bound the arena evicts oldest-inserted traces first;
    /// long seed sweeps that would otherwise grow without bound stay at
    /// `cap` traces resident. Takes effect immediately: shrinking below
    /// the current residency evicts on the spot.
    pub fn set_trace_capacity(&self, cap: u64) {
        let mut g = self.lock();
        g.stats.trace_capacity = cap;
        g.enforce_capacity();
        g.refresh_gauges();
    }

    /// Drop every resident trace and intermediate (counters survive, with
    /// the resident gauges zeroed). Outstanding `Arc`s keep their traces
    /// alive; only the arena's own references are released.
    pub fn clear(&self) {
        let mut g = self.lock();
        g.traces.clear();
        g.order.clear();
        g.factors.clear();
        g.zone_spikes.clear();
        g.stats.resident_traces = 0;
        g.stats.resident_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{InstanceType, Zone};

    // The arena under test must be private to the test: the global one is
    // shared with every other test in the binary.
    fn arena() -> TraceArena {
        TraceArena {
            inner: Mutex::new(Inner::default()),
        }
    }

    fn catalog() -> Catalog {
        Catalog::ec2_2015()
    }

    fn small_east() -> MarketId {
        MarketId::new(Zone::UsEast1a, InstanceType::Small)
    }

    #[test]
    fn second_lookup_shares_the_same_trace() {
        let a = arena();
        let c = catalog();
        let h = SimDuration::days(2);
        let s1 = a.calibrated_set(&c, &[small_east()], 3, h);
        let s2 = a.calibrated_set(&c, &[small_east()], 3, h);
        assert!(Arc::ptr_eq(
            s1.shared_trace(small_east()).expect("present"),
            s2.shared_trace(small_east()).expect("present"),
        ));
        let st = a.stats();
        assert_eq!((st.trace_hits, st.trace_misses), (1, 1));
        assert_eq!(st.resident_traces, 1);
        assert!(st.resident_bytes > 0);
    }

    #[test]
    fn distinct_seeds_and_horizons_do_not_collide() {
        let a = arena();
        let c = catalog();
        let m = small_east();
        let t1 = a.calibrated_set(&c, &[m], 1, SimDuration::days(2));
        let t2 = a.calibrated_set(&c, &[m], 2, SimDuration::days(2));
        let t3 = a.calibrated_set(&c, &[m], 1, SimDuration::days(3));
        assert_ne!(t1.trace(m), t2.trace(m));
        assert_ne!(t1.trace(m), t3.trace(m));
        assert_eq!(a.stats().resident_traces, 3);
    }

    #[test]
    fn partial_miss_generates_only_the_missing_market() {
        let a = arena();
        let c = catalog();
        let h = SimDuration::days(2);
        let m2 = MarketId::new(Zone::UsEast1a, InstanceType::Medium);
        let solo = a.calibrated_set(&c, &[small_east()], 9, h);
        let both = a.calibrated_set(&c, &[small_east(), m2], 9, h);
        assert!(Arc::ptr_eq(
            solo.shared_trace(small_east()).expect("present"),
            both.shared_trace(small_east()).expect("present"),
        ));
        let st = a.stats();
        assert_eq!((st.trace_hits, st.trace_misses), (1, 2));
        // The shared factor paths were generated once and reused.
        assert_eq!((st.factor_hits, st.factor_misses), (1, 1));
    }

    #[test]
    fn clear_releases_residency_without_breaking_outstanding_sets() {
        let a = arena();
        let c = catalog();
        let h = SimDuration::days(2);
        let set = a.calibrated_set(&c, &[small_east()], 5, h);
        a.clear();
        assert_eq!(a.stats().resident_traces, 0);
        assert_eq!(a.stats().resident_bytes, 0);
        // The outstanding set still owns its trace.
        assert!(set.trace(small_east()).expect("alive").points().len() > 1);
        // Regeneration after clear is byte-identical.
        let again = a.calibrated_set(&c, &[small_east()], 5, h);
        assert_eq!(set.trace(small_east()), again.trace(small_east()));
    }

    #[test]
    fn residency_bound_evicts_oldest_first_and_regenerates_identically() {
        let a = arena();
        let c = catalog();
        let h = SimDuration::days(2);
        a.set_trace_capacity(2);
        let first = a.calibrated_set(&c, &[small_east()], 1, h);
        for seed in 2..=4 {
            a.calibrated_set(&c, &[small_east()], seed, h);
        }
        let st = a.stats();
        assert_eq!(st.trace_capacity, 2);
        assert_eq!(st.resident_traces, 2, "bound must hold after the sweep");
        assert_eq!(st.trace_evictions, 2, "seeds 1 and 2 evicted FIFO");
        // The outstanding set still owns its evicted trace, and the
        // evicted key regenerates byte-identically (a fresh miss).
        let again = a.calibrated_set(&c, &[small_east()], 1, h);
        assert_eq!(first.trace(small_east()), again.trace(small_east()));
        assert_eq!(a.stats().trace_misses, 5, "seed 1 regenerated, not cached");
        // Shrinking the bound evicts on the spot; zero lifts it.
        a.set_trace_capacity(1);
        assert_eq!(a.stats().resident_traces, 1);
        a.set_trace_capacity(0);
        for seed in 10..20 {
            a.calibrated_set(&c, &[small_east()], seed, h);
        }
        assert_eq!(a.stats().resident_traces, 11, "unbounded again");
    }
}
