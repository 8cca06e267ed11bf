//! Property suite for the storm schedule's per-zone cursors: a schedule
//! that lives through a whole random query sequence answers every query
//! exactly as the cursor-free references do, whatever order the queries
//! come in — repeats, 1 ms steps, multi-day jumps, backward queries,
//! alternating zones, and a first query deep in the horizon.
//!
//! References:
//! - `is_storming`, `episode_end`, `fault_multiplier`: a linear scan of
//!   `episodes(zone)`;
//! - `next_mass_revocation`: a fresh clone of the never-queried schedule
//!   per query;
//! - `crunch_fault`: storming by the linear scan, and the draws of a fresh
//!   clone taken before the sequence, asked only at one fixed storming
//!   instant so that its own cursor never moves.

use proptest::prelude::*;
use spothost_faults::{StormConfig, StormSchedule};
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::Zone;

const HORIZON: SimDuration = SimDuration(30 * 86_400_000);

/// One query: which method, which zone, and how the clock moves first.
#[derive(Debug, Clone, Copy)]
struct Query {
    op: u8,
    zone: usize,
    step: u8,
    ms: u64,
}

fn arb_query() -> impl Strategy<Value = Query> {
    (0u8..5, 0usize..4, 0u8..6, 0u64..3 * 86_400_000).prop_map(|(op, zone, step, ms)| Query {
        op,
        zone,
        step,
        ms,
    })
}

/// Storm configs with many episodes and mass revocations, a crunch rate
/// that is sometimes certain or zero, and zone spike spans to couple.
fn arb_config() -> impl Strategy<Value = StormConfig> {
    (0.2f64..1.0, 0.0f64..48.0, 0u8..4, 0.05f64..0.95).prop_map(|(x, mass, k, r)| {
        let mut c = StormConfig::intensity(x);
        c.mass_revocations_per_day = mass;
        c.capacity_crunch_rate = match k {
            0 => 0.0,
            1 => 1.0,
            _ => r,
        };
        c
    })
}

fn arb_spans() -> impl Strategy<Value = [Vec<(SimTime, SimTime)>; 4]> {
    prop::collection::vec((0usize..4, 0u64..30 * 24, 1u64..12), 0..24).prop_map(|v| {
        let mut spans: [Vec<(SimTime, SimTime)>; 4] = Default::default();
        for (z, start_h, len_h) in v {
            spans[z].push((SimTime::hours(start_h), SimTime::hours(start_h + len_h)));
        }
        spans
    })
}

/// The end of the episode containing `t`, by a linear scan.
fn scan_episode_end(s: &StormSchedule, zone: Zone, t: SimTime) -> Option<SimTime> {
    s.episodes(zone)
        .iter()
        .find(|e| e.start <= t && t < e.end)
        .map(|e| e.end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cursors_answer_like_the_references(
        cfg in arb_config(),
        seed in 0u64..1_000,
        spans in arb_spans(),
        first_ms in 0u64..31 * 86_400_000,
        queries in prop::collection::vec(arb_query(), 1..400),
    ) {
        let pristine = StormSchedule::new(cfg.clone(), seed, HORIZON, &spans);
        let mut live = pristine.clone();
        // The reference crunch stream: a fresh clone, always asked at the
        // start of the first episode there is, if any.
        let mut draws = pristine.clone();
        let fixed = Zone::ALL
            .iter()
            .find_map(|&z| pristine.episodes(z).first().map(|e| (z, e.start)));
        let rate = cfg.capacity_crunch_rate;

        let mut t = SimTime::millis(first_ms);
        for q in queries {
            t = match q.step {
                0 => t,
                1 => t + SimDuration::millis(1),
                2 | 3 => t + SimDuration::millis(q.ms),
                4 => SimTime::millis(t.as_millis().saturating_sub(q.ms)),
                _ => SimTime::millis(t.as_millis().saturating_sub(q.ms % 3_600_000)),
            };
            let zone = Zone::ALL[q.zone];
            let end = scan_episode_end(&pristine, zone, t);
            match q.op {
                0 => prop_assert_eq!(live.is_storming(zone, t), end.is_some(), "{:?} at {}", zone, t),
                1 => prop_assert_eq!(live.episode_end(zone, t), end, "{:?} at {}", zone, t),
                2 => {
                    let want = if end.is_some() { cfg.fault_multiplier } else { 1.0 };
                    prop_assert_eq!(live.fault_multiplier(zone, t).to_bits(), want.to_bits());
                }
                3 => prop_assert_eq!(
                    live.next_mass_revocation(zone, t),
                    pristine.clone().next_mass_revocation(zone, t),
                    "{:?} after {}", zone, t
                ),
                _ => {
                    let want = end.is_some()
                        && rate > 0.0
                        && (rate >= 1.0 || {
                            let (z0, t0) = fixed.expect("a storming instant exists");
                            draws.crunch_fault(z0, t0)
                        });
                    prop_assert_eq!(live.crunch_fault(zone, t), want, "{:?} at {}", zone, t);
                }
            }
        }
    }
}
