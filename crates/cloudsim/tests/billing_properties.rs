//! Property tests pinning the incremental billing meter to the replay
//! oracle: for ANY piecewise-constant price trace, lease window, number
//! of interleaved mid-lease advances and termination kind, the meter's
//! settled charge must be **bit-identical** (`f64::to_bits` equal) to
//! `spot_lease_charge`'s whole-lease replay. Bit identity — not just
//! approximate equality — is what lets the simulation swap the O(hours x
//! log n) replay for the cursor-driven meter without perturbing a single
//! figure. Traces run to about 2000 points and leases start anywhere in
//! them, so a meter's first lookup gallops deep into the trace and, on
//! dense traces, each billed hour jumps many points.

use proptest::prelude::*;
use spothost_cloudsim::billing::{spot_lease_charge, SpotLeaseMeter};
use spothost_market::time::{SimDuration, SimTime, MILLIS_PER_HOUR, MILLIS_PER_MINUTE};
use spothost_market::trace::{PricePoint, PriceTrace};

/// A random trace: first point at t=0, strictly increasing change times,
/// positive finite prices, horizon past the last point. Dense traces
/// change price up to 5 minutes apart, sparse ones up to 4 hours apart.
fn arb_trace() -> impl Strategy<Value = PriceTrace> {
    (
        prop::bool::ANY,
        prop::collection::vec((0.0f64..1.0, 0.01f64..20.0), 0..2000),
        0.01f64..20.0,
        1u64..2 * MILLIS_PER_HOUR,
    )
        .prop_map(|(dense, steps, p0, tail)| {
            let max_gap = if dense {
                5 * MILLIS_PER_MINUTE
            } else {
                4 * MILLIS_PER_HOUR
            };
            let mut points = vec![PricePoint {
                at: SimTime::ZERO,
                price: p0,
            }];
            let mut t = 0u64;
            for (gap, price) in steps {
                t += 1 + (gap * max_gap as f64) as u64;
                points.push(PricePoint {
                    at: SimTime::millis(t),
                    price,
                });
            }
            PriceTrace::new(points, SimTime::millis(t + tail))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn meter_is_bit_identical_to_replay(
        trace in arb_trace(),
        // Where the lease starts, as a fraction of the horizon (past it
        // up to 1.1).
        start_at in 0.0f64..1.1,
        lease_ms in 0u64..50 * MILLIS_PER_HOUR,
        revoked in prop::bool::ANY,
        // Fractions of the lease at which the scheduler happens to call
        // advance_to() mid-lease (unsorted; the meter only ever sees them
        // in non-decreasing order because the sim clock is monotonic).
        advances in prop::collection::vec(0.0f64..1.0, 0..8),
    ) {
        let start_ms = (start_at * trace.end().as_millis() as f64) as u64;
        let start = SimTime::millis(start_ms);
        let end = start + SimDuration::millis(lease_ms);
        let expect = spot_lease_charge(&trace, start, end, revoked);

        let mut meter = SpotLeaseMeter::new(&trace, start);
        let mut ticks: Vec<u64> = advances
            .iter()
            .map(|f| start_ms + (lease_ms as f64 * f) as u64)
            .collect();
        ticks.sort_unstable();
        for t in ticks {
            meter.advance_to(SimTime::millis(t));
        }
        let got = meter.close(end, revoked);

        prop_assert_eq!(
            got.to_bits(),
            expect.to_bits(),
            "meter {} != replay {} (start {}, end {}, revoked {})",
            got, expect, start, end, revoked
        );
    }

    #[test]
    fn accrued_never_exceeds_final_charge(
        trace in arb_trace(),
        lease_ms in 0u64..30 * MILLIS_PER_HOUR,
        cut in 0.0f64..1.0,
    ) {
        // Mid-lease accrual covers complete hours only, so it is a lower
        // bound on any settlement of the full lease.
        let start = SimTime::ZERO;
        let end = SimTime::millis(lease_ms);
        let mut meter = SpotLeaseMeter::new(&trace, start);
        meter.advance_to(SimTime::millis((lease_ms as f64 * cut) as u64));
        let accrued = meter.accrued();
        prop_assert!(accrued <= spot_lease_charge(&trace, start, end, true) + 1e-12);
        prop_assert!(accrued <= spot_lease_charge(&trace, start, end, false) + 1e-12);
    }
}
