//! Correlated failure storms: zone-scoped episode schedules that modulate
//! fault rates, revoke whole markets at once, and starve capacity.
//!
//! PR 2's [`crate::FaultPlan`] injects *independent* per-operation faults;
//! the regime the paper actually fears is correlated loss — a zone-wide
//! price event revokes every lease in a market simultaneously and the
//! ensuing capacity crunch defeats naive failover. This module adds that
//! regime as a seeded, deterministic **storm schedule**:
//!
//! * a Markov on/off **episode** process per zone (exponential off- and
//!   on-sojourns), optionally *ignited* by the zone-wide price-spike
//!   windows the market generator already shares across markets
//!   ([`spike_coupling`](StormConfig::spike_coupling) — storms observe the
//!   same randomness the prices were built from, so "crunch during the
//!   spike" holds by construction);
//! * **mass-revocation** instants inside episodes, at which every active
//!   lease in the zone's markets is revoked simultaneously;
//! * a **capacity-crunch** probability: while a zone storms, server
//!   requests there (spot and on-demand alike) fail with this probability
//!   on top of ordinary fault draws;
//! * a **fault-rate multiplier** applied to every [`crate::FaultPlan`]
//!   rate while the relevant zone storms;
//! * deterministic **backoff jitter** (thundering-herd dispersal) and a
//!   global **on-demand quota**, consumed by the scheduler/provider.
//!
//! The same two properties `FaultPlan` guarantees hold here:
//!
//! * **Determinism** — every stochastic ingredient draws from its own
//!   named stream derived from the run seed; episode construction and all
//!   query-time draws are pure functions of `(config, seed, spans)`.
//! * **Zero-intensity neutrality** — a schedule built from
//!   [`StormConfig::none`] (or any all-zero config) generates no
//!   episodes, never advances any stream, and leaves every consumer's
//!   behavior bit-identical to having no schedule at all.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use spothost_market::gen::derive_seed;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::Zone;
use std::sync::Arc;

/// Knobs of the correlated-failure storm model. All-zero (the default,
/// [`StormConfig::none`]) disables everything.
#[derive(Debug, Clone, PartialEq)]
pub struct StormConfig {
    /// Expected spontaneous storm episodes per zone per day (Markov
    /// on/off arrival rate; 0 disables spontaneous episodes).
    pub episodes_per_day: f64,
    /// Mean episode duration (exponential on-sojourn).
    pub mean_episode: SimDuration,
    /// Multiplier applied to every `FaultConfig` rate while the zone
    /// storms (1 = no modulation; capped so effective rates stay <= 1).
    pub fault_multiplier: f64,
    /// Expected mass-revocation events per day *of storm time*: at each,
    /// every active lease in the zone's markets is revoked at once.
    pub mass_revocations_per_day: f64,
    /// P(a server request — spot or on-demand — in a storming zone fails
    /// with `InsufficientCapacity`), on top of ordinary fault draws:
    /// everyone else's correlated recovery drains the zone's pools.
    pub capacity_crunch_rate: f64,
    /// P(a zone-wide price-spike window ignites a storm episode covering
    /// it) — couples storms to the price events already in the traces.
    pub spike_coupling: f64,
    /// Backoff jitter fraction: a reacquire backoff of `b` becomes
    /// `b + b * jitter * U(0,1)`, dispersing the thundering herd a mass
    /// revocation would otherwise synchronise. 0 = no jitter (and no
    /// stream advance).
    pub backoff_jitter: f64,
    /// Global cap on concurrently held on-demand servers (0 = unlimited).
    /// Requests beyond the cap are rejected and must queue behind the
    /// scheduler's backoff — honest backpressure instead of infinite
    /// escalation capacity.
    pub od_quota: u32,
}

impl StormConfig {
    /// No storms (the default): every consumer behaves bit-identically to
    /// a simulation without a schedule.
    pub fn none() -> Self {
        StormConfig {
            episodes_per_day: 0.0,
            mean_episode: SimDuration::hours(1),
            fault_multiplier: 1.0,
            mass_revocations_per_day: 0.0,
            capacity_crunch_rate: 0.0,
            spike_coupling: 0.0,
            backoff_jitter: 0.0,
            od_quota: 0,
        }
    }

    /// One-knob severity scale in `[0, 1]` — the axis the `repro storms`
    /// sweep turns. 0 is exactly [`StormConfig::none`] (plus the default
    /// mean episode); 1 is a hostile market: ~2 episodes/zone/day of ~4 h
    /// mean, 10x fault rates, ~6 mass revocations per storm-day, 90%
    /// crunch rejection and every zone spike igniting an episode.
    pub fn intensity(x: f64) -> Self {
        StormConfig {
            episodes_per_day: 2.0 * x,
            mean_episode: SimDuration::hours(1) + SimDuration::hours(3).mul_f64(x),
            fault_multiplier: 1.0 + 9.0 * x,
            mass_revocations_per_day: 6.0 * x,
            capacity_crunch_rate: 0.9 * x,
            spike_coupling: x,
            backoff_jitter: 0.5 * x,
            od_quota: 0,
        }
    }

    /// True when any storm mechanism can actually fire. Integration
    /// points skip building a [`StormSchedule`] entirely when false.
    pub fn enabled(&self) -> bool {
        self.episodes_per_day > 0.0
            || self.spike_coupling > 0.0
            || self.backoff_jitter > 0.0
            || self.od_quota > 0
    }

    pub fn validate(&self) -> Result<(), String> {
        let nonneg = [
            ("episodes_per_day", self.episodes_per_day),
            ("mass_revocations_per_day", self.mass_revocations_per_day),
        ];
        for (name, r) in nonneg {
            if !(r.is_finite() && r >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {r}"));
            }
        }
        let probs = [
            ("capacity_crunch_rate", self.capacity_crunch_rate),
            ("spike_coupling", self.spike_coupling),
            ("backoff_jitter", self.backoff_jitter),
        ];
        for (name, r) in probs {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} must lie in [0,1], got {r}"));
            }
        }
        if !(self.fault_multiplier >= 1.0 && self.fault_multiplier.is_finite()) {
            return Err(format!(
                "fault_multiplier must be finite and >= 1, got {}",
                self.fault_multiplier
            ));
        }
        if self.mean_episode == SimDuration::ZERO {
            return Err("mean_episode must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for StormConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// One storm episode: the zone storms over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormEpisode {
    pub start: SimTime,
    pub end: SimTime,
}

/// A [`StormConfig`] bound to one episode timeline, one pair of
/// query-time random streams and one set of per-zone cursors.
///
/// Construction pre-computes, per zone, the merged episode list and the
/// mass-revocation instants inside it. That timeline is immutable and
/// shared behind an [`Arc`], so a clone costs a reference-count bump plus
/// the two stream states and the cursors: a fleet builds one schedule and
/// hands a clone to every service it spawns, which then all see the same
/// storms.
///
/// The two query-time streams (capacity crunch, backoff jitter) are
/// independent, so the provider and the scheduler can each hold a clone
/// of the schedule and use *disjoint* streams without divergence. Each
/// clone carries its own copy of the stream states as they were when it
/// was cloned: clones of a schedule nobody has drawn from all start from
/// the state the seed gave.
///
/// # Cursors: monotonic queries
///
/// A simulation asks about one zone at non-decreasing times: once per
/// acquisition retry, per billing hour, per lease grant. So the timeline
/// queries ([`is_storming`](Self::is_storming),
/// [`episode_end`](Self::episode_end),
/// [`fault_multiplier`](Self::fault_multiplier),
/// [`crunch_fault`](Self::crunch_fault),
/// [`next_mass_revocation`](Self::next_mass_revocation)) take `&mut self`
/// and keep, per zone, a cursor into the episode list and one into the
/// mass-revocation list. A query at or after the last one in its zone
/// steps the cursor forward, **O(1)** for the next item and a binary
/// search over the rest for a longer jump; a query behind it
/// re-synchronises with a binary search, as `TraceCursor` does. Answers
/// never depend on where a cursor stands, so clones with different
/// histories answer alike.
#[derive(Debug, Clone)]
pub struct StormSchedule {
    timeline: Arc<StormTimeline>,
    crunch: ChaCha12Rng,
    jitter: ChaCha12Rng,
    /// Per [`Zone::index`]: the number of that zone's episodes that start
    /// at or before its last query.
    episode_at: [u32; 4],
    /// Per [`Zone::index`]: the number of that zone's mass revocations at
    /// or before its last query.
    mass_at: [u32; 4],
}

/// The immutable part of a [`StormSchedule`]: its configuration and, per
/// [`Zone::index`], the episodes and mass-revocation instants.
#[derive(Debug)]
struct StormTimeline {
    cfg: StormConfig,
    episodes: [Vec<StormEpisode>; 4],
    mass_revocations: [Vec<SimTime>; 4],
}

impl StormSchedule {
    /// Build the episode timeline for one run. `spike_spans` are the
    /// zone-wide price-spike windows (per [`Zone::index`]) the traces
    /// were generated from — pass empty vectors when coupling is unused.
    /// Panics on an invalid configuration, like [`crate::FaultPlan::new`].
    pub fn new(
        cfg: StormConfig,
        seed: u64,
        horizon: SimDuration,
        spike_spans: &[Vec<(SimTime, SimTime)>; 4],
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid storm config: {e}");
        }
        let end = SimTime::ZERO + horizon;
        let stream = |role: &str, id: u64| ChaCha12Rng::seed_from_u64(derive_seed(seed, role, id));

        let episodes = Zone::ALL.map(|z| {
            let zi = z.index() as u64;
            let mut eps: Vec<StormEpisode> = Vec::new();
            // Spontaneous Markov on/off episodes. Skipped entirely (no
            // stream advance) at rate zero.
            if cfg.episodes_per_day > 0.0 {
                let mut rng = stream("storm-episodes", zi);
                let off_mean = 86_400.0 / cfg.episodes_per_day;
                let on_mean = cfg.mean_episode.as_secs_f64();
                let mut t = SimTime::ZERO;
                loop {
                    t += exp_draw(&mut rng, off_mean);
                    if t >= end {
                        break;
                    }
                    let start = t;
                    t += exp_draw(&mut rng, on_mean).max(SimDuration::secs(60));
                    eps.push(StormEpisode {
                        start,
                        end: t.min(end),
                    });
                }
            }
            // Contagion: a zone price spike ignites an episode covering
            // its window. Skipped entirely at zero coupling.
            if cfg.spike_coupling > 0.0 {
                let mut rng = stream("storm-contagion", zi);
                for &(s, e) in &spike_spans[z.index()] {
                    if s >= end {
                        continue;
                    }
                    let ignite = cfg.spike_coupling >= 1.0 || rng.gen_bool(cfg.spike_coupling);
                    if ignite {
                        eps.push(StormEpisode {
                            start: s,
                            end: e.min(end),
                        });
                    }
                }
            }
            merge_episodes(eps)
        });

        let mass_revocations = Zone::ALL.map(|z| {
            let mut times = Vec::new();
            // Mass revocations arrive inside episodes only; skipped
            // entirely (no stream advance) at rate zero or with no
            // episodes.
            let zone_eps = &episodes[z.index()];
            if cfg.mass_revocations_per_day > 0.0 && !zone_eps.is_empty() {
                let mut rng = stream("storm-mass-revocation", z.index() as u64);
                let mean = 86_400.0 / cfg.mass_revocations_per_day;
                for ep in zone_eps {
                    let mut t = ep.start;
                    loop {
                        t += exp_draw(&mut rng, mean);
                        if t >= ep.end {
                            break;
                        }
                        times.push(t);
                    }
                }
            }
            times
        });

        StormSchedule {
            timeline: Arc::new(StormTimeline {
                cfg,
                episodes,
                mass_revocations,
            }),
            crunch: stream("storm-crunch", 0),
            jitter: stream("storm-jitter", 0),
            episode_at: [0; 4],
            mass_at: [0; 4],
        }
    }

    pub fn config(&self) -> &StormConfig {
        &self.timeline.cfg
    }

    /// The merged, sorted, non-overlapping episodes of one zone. Within a
    /// zone each episode starts strictly after the previous one ends, so
    /// the zone's edges (every start and end in turn) strictly increase.
    pub fn episodes(&self, zone: Zone) -> &[StormEpisode] {
        &self.timeline.episodes[zone.index()]
    }

    /// Is the zone inside a storm episode at `t`?
    pub fn is_storming(&mut self, zone: Zone, t: SimTime) -> bool {
        self.episode_end(zone, t).is_some()
    }

    /// End of the episode containing `t` in `zone`, if one is in
    /// progress at `t`.
    pub fn episode_end(&mut self, zone: Zone, t: SimTime) -> Option<SimTime> {
        let eps = &self.timeline.episodes[zone.index()];
        let i = seek(eps, &mut self.episode_at[zone.index()], t, |e| e.start);
        (i > 0 && eps[i - 1].end > t).then(|| eps[i - 1].end)
    }

    /// Multiplier on `FaultConfig` rates at `(zone, t)`: the configured
    /// multiplier while storming, 1 otherwise.
    pub fn fault_multiplier(&mut self, zone: Zone, t: SimTime) -> f64 {
        if self.is_storming(zone, t) {
            self.timeline.cfg.fault_multiplier
        } else {
            1.0
        }
    }

    /// The first mass-revocation instant strictly after `after` in this
    /// zone, if any.
    pub fn next_mass_revocation(&mut self, zone: Zone, after: SimTime) -> Option<SimTime> {
        let times = &self.timeline.mass_revocations[zone.index()];
        let i = seek(times, &mut self.mass_at[zone.index()], after, |&t| t);
        times.get(i).copied()
    }

    /// Does a server request in `zone` at `t` fail to the capacity
    /// crunch? Draws (and can fire) only while the zone storms with a
    /// positive crunch rate, so a crunch-free schedule never advances the
    /// stream.
    pub fn crunch_fault(&mut self, zone: Zone, t: SimTime) -> bool {
        let r = self.timeline.cfg.capacity_crunch_rate;
        if r <= 0.0 || !self.is_storming(zone, t) {
            return false;
        }
        if r >= 1.0 {
            return true;
        }
        self.crunch.gen_bool(r)
    }

    /// Deterministically jitter a backoff delay: `b` becomes
    /// `b + b * jitter * U(0,1)`. At zero jitter the delay is returned
    /// unchanged without advancing the stream.
    pub fn jittered_backoff(&mut self, base: SimDuration) -> SimDuration {
        let jitter = self.timeline.cfg.backoff_jitter;
        if jitter <= 0.0 {
            return base;
        }
        let u: f64 = self.jitter.gen();
        base + base.mul_f64(jitter * u)
    }

    /// Global on-demand concurrency cap (0 = unlimited).
    pub fn od_quota(&self) -> u32 {
        self.timeline.cfg.od_quota
    }
}

/// Move a cursor into `items`, sorted by `key`, to the number of items
/// keyed at or before `t`, and return that count. `pos` holds the count
/// for the previous query. The next item is a step; a longer jump forward
/// searches the items past `pos`, and a query behind `pos` searches the
/// items before it.
#[inline]
fn seek<T>(items: &[T], pos: &mut u32, t: SimTime, key: impl Fn(&T) -> SimTime) -> usize {
    let mut i = *pos as usize;
    if i > 0 && key(&items[i - 1]) > t {
        i = items[..i].partition_point(|x| key(x) <= t);
    } else if items.get(i).is_some_and(|x| key(x) <= t) {
        i += 1;
        if items.get(i).is_some_and(|x| key(x) <= t) {
            i += items[i..].partition_point(|x| key(x) <= t);
        }
    }
    *pos = i as u32;
    i
}

/// Exponential draw with the given mean, in seconds, as a duration.
/// (Mirrors the market generator's private `dist::exponential`.)
fn exp_draw(rng: &mut ChaCha12Rng, mean_secs: f64) -> SimDuration {
    let u: f64 = rng.gen();
    SimDuration::secs_f64(-mean_secs * (1.0 - u).ln())
}

/// Sort episodes by start and coalesce overlapping/adjacent ones.
fn merge_episodes(mut eps: Vec<StormEpisode>) -> Vec<StormEpisode> {
    eps.retain(|e| e.end > e.start);
    eps.sort_by_key(|e| (e.start, e.end));
    let mut out: Vec<StormEpisode> = Vec::with_capacity(eps.len());
    for e in eps {
        match out.last_mut() {
            Some(last) if e.start <= last.end => last.end = last.end.max(e.end),
            _ => out.push(e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_spans() -> [Vec<(SimTime, SimTime)>; 4] {
        [const { Vec::new() }; 4]
    }

    fn horizon() -> SimDuration {
        SimDuration::days(30)
    }

    #[test]
    fn none_is_disabled_and_valid() {
        let c = StormConfig::none();
        assert!(!c.enabled());
        c.validate().unwrap();
        assert_eq!(StormConfig::intensity(0.0), StormConfig::none());
        assert!(StormConfig::intensity(0.5).enabled());
        StormConfig::intensity(1.0).validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut c = StormConfig::none();
        c.capacity_crunch_rate = 1.5;
        assert!(c.validate().is_err());
        let mut c = StormConfig::none();
        c.fault_multiplier = 0.5;
        assert!(c.validate().is_err());
        let mut c = StormConfig::none();
        c.episodes_per_day = -1.0;
        assert!(c.validate().is_err());
        // intensity(x) is only valid for x in [0,1]: beyond that the
        // probability knobs leave their range, caught at validate time.
        assert!(StormConfig::intensity(2.0).validate().is_err());
    }

    #[test]
    fn zero_intensity_generates_nothing_and_never_advances_streams() {
        let mut s = StormSchedule::new(StormConfig::none(), 42, horizon(), &no_spans());
        for &z in &Zone::ALL {
            assert!(s.episodes(z).is_empty());
            assert_eq!(s.next_mass_revocation(z, SimTime::ZERO), None);
            for h in 0..48 {
                let t = SimTime::hours(h);
                assert!(!s.is_storming(z, t));
                assert_eq!(s.fault_multiplier(z, t), 1.0);
                assert!(!s.crunch_fault(z, t));
            }
        }
        let base = SimDuration::secs(60);
        for _ in 0..64 {
            assert_eq!(s.jittered_backoff(base), base);
        }
        // Streams untouched: under a jittering timeline, the used
        // schedule's streams draw exactly what a fresh schedule's do.
        let mut jittery = StormConfig::none();
        jittery.backoff_jitter = 0.5;
        let mut fresh = StormSchedule::new(jittery, 42, horizon(), &no_spans());
        let mut used = StormSchedule {
            timeline: Arc::clone(&fresh.timeline),
            ..s
        };
        for _ in 0..64 {
            assert_eq!(used.jittered_backoff(base), fresh.jittered_backoff(base));
        }
    }

    #[test]
    fn clones_share_the_timeline_and_copy_the_streams() {
        let mut cfg = StormConfig::intensity(0.7);
        cfg.capacity_crunch_rate = 0.5;
        let pristine = StormSchedule::new(cfg, 4, horizon(), &no_spans());
        let mut a = pristine.clone();
        let mut b = pristine.clone();
        assert!(Arc::ptr_eq(&a.timeline, &pristine.timeline));
        // Drawing from one clone leaves the others' streams where the
        // seed put them.
        let base = SimDuration::secs(60);
        let drawn: Vec<SimDuration> = (0..32).map(|_| a.jittered_backoff(base)).collect();
        let again: Vec<SimDuration> = (0..32).map(|_| b.jittered_backoff(base)).collect();
        assert_eq!(drawn, again);
        let z = Zone::UsEast1a;
        let t = pristine.episodes(z).first().expect("episodes").start;
        let crunch: Vec<bool> = (0..32).map(|_| a.crunch_fault(z, t)).collect();
        let mut c = pristine.clone();
        assert_eq!(
            crunch,
            (0..32).map(|_| c.crunch_fault(z, t)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn episodes_are_deterministic_sorted_and_disjoint() {
        let cfg = StormConfig::intensity(0.7);
        let a = StormSchedule::new(cfg.clone(), 9, horizon(), &no_spans());
        let b = StormSchedule::new(cfg, 9, horizon(), &no_spans());
        let end = SimTime::ZERO + horizon();
        let mut any = false;
        for &z in &Zone::ALL {
            assert_eq!(a.episodes(z), b.episodes(z));
            any |= !a.episodes(z).is_empty();
            let mut prev_end = None;
            for e in a.episodes(z) {
                // Strictly after: touching episodes are merged, so a
                // zone's edges strictly increase.
                assert!(
                    prev_end.is_none_or(|p| e.start > p),
                    "episodes must not overlap or touch"
                );
                assert!(e.end > e.start && e.end <= end);
                prev_end = Some(e.end);
            }
        }
        assert!(any, "intensity 0.7 over 30 days must produce episodes");
    }

    #[test]
    fn is_storming_matches_episode_intervals() {
        let mut s = StormSchedule::new(StormConfig::intensity(0.8), 3, horizon(), &no_spans());
        let z = Zone::UsEast1a;
        let eps = s.episodes(z).to_vec();
        assert!(!eps.is_empty());
        for e in &eps {
            assert!(s.is_storming(z, e.start));
            assert!(s.is_storming(z, e.start + (e.end - e.start).mul_f64(0.5)));
            assert!(!s.is_storming(z, e.end));
            assert_eq!(s.fault_multiplier(z, e.start), s.config().fault_multiplier);
        }
        if eps[0].start > SimTime::ZERO {
            assert!(!s.is_storming(z, SimTime::ZERO));
        }
    }

    #[test]
    fn mass_revocations_land_inside_episodes() {
        let mut cfg = StormConfig::intensity(1.0);
        cfg.mass_revocations_per_day = 24.0; // one an hour of storm time
        let mut s = StormSchedule::new(cfg, 5, horizon(), &no_spans());
        let mut total = 0;
        for &z in &Zone::ALL {
            let mut after = SimTime::ZERO;
            while let Some(t) = s.next_mass_revocation(z, after) {
                assert!(s.is_storming(z, t), "mass revocation outside episode");
                assert!(t > after);
                after = t;
                total += 1;
            }
        }
        assert!(total > 0, "expected mass revocations at full intensity");
    }

    #[test]
    fn spike_coupling_ignites_episodes_on_spans() {
        let mut cfg = StormConfig::none();
        cfg.spike_coupling = 1.0;
        let mut spans = no_spans();
        spans[Zone::UsWest1a.index()] = vec![
            (SimTime::hours(4), SimTime::hours(5)),
            (SimTime::hours(10), SimTime::hours(11)),
        ];
        let mut s = StormSchedule::new(cfg, 1, horizon(), &spans);
        let z = Zone::UsWest1a;
        assert_eq!(s.episodes(z).len(), 2);
        assert!(s.is_storming(z, SimTime::hours(4)));
        assert!(!s.is_storming(z, SimTime::hours(7)));
        assert!(s.is_storming(z, SimTime::minutes(630)));
        // Other zones untouched.
        assert!(s.episodes(Zone::UsEast1a).is_empty());
    }

    #[test]
    fn crunch_fires_only_while_storming() {
        let mut cfg = StormConfig::none();
        cfg.spike_coupling = 1.0;
        cfg.capacity_crunch_rate = 1.0;
        let mut spans = no_spans();
        spans[0] = vec![(SimTime::hours(1), SimTime::hours(2))];
        let mut s = StormSchedule::new(cfg, 2, horizon(), &spans);
        assert!(!s.crunch_fault(Zone::UsEast1a, SimTime::minutes(30)));
        assert!(s.crunch_fault(Zone::UsEast1a, SimTime::minutes(90)));
        assert!(!s.crunch_fault(Zone::UsEast1b, SimTime::minutes(90)));
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let mut cfg = StormConfig::none();
        cfg.backoff_jitter = 0.5;
        let mut a = StormSchedule::new(cfg.clone(), 8, horizon(), &no_spans());
        let mut b = StormSchedule::new(cfg, 8, horizon(), &no_spans());
        let base = SimDuration::secs(60);
        for _ in 0..256 {
            let ja = a.jittered_backoff(base);
            assert!(ja >= base && ja <= base + base.mul_f64(0.5), "jitter {ja}");
            assert_eq!(ja, b.jittered_backoff(base));
        }
    }

    #[test]
    fn merge_coalesces_overlaps() {
        let t = SimTime::hours;
        let eps = vec![
            StormEpisode {
                start: t(5),
                end: t(6),
            },
            StormEpisode {
                start: t(1),
                end: t(3),
            },
            StormEpisode {
                start: t(2),
                end: t(4),
            },
            StormEpisode {
                start: t(4),
                end: t(5),
            },
            StormEpisode {
                start: t(9),
                end: t(9),
            }, // empty, dropped
        ];
        let merged = merge_episodes(eps);
        assert_eq!(
            merged,
            vec![StormEpisode {
                start: t(1),
                end: t(6)
            }]
        );
    }
}
