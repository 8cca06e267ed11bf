//! Mutation property tests of trace CSV import: `trace_from_csv` must
//! turn a truncated or byte-flipped `trace_to_csv` file into a trace or a
//! typed error, never a panic, and must read an undamaged file back to
//! the trace it was written from.

use proptest::prelude::*;
use spothost_market::io::{trace_from_csv, trace_to_csv};
use spothost_market::time::MILLIS_PER_HOUR;
use spothost_market::trace::{PricePoint, PriceTrace};
use spothost_market::{InstanceType, MarketId, SimTime, Zone};

fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (prop::bool::ANY, s).prop_map(|(some, v)| if some { Some(v) } else { None })
}

/// A random market and trace. With `far`, every change after t=0 lies
/// within a few hundred hours of `u64::MAX` ms and the horizon is
/// `u64::MAX`, so damage to the header leaves no room for a default
/// horizon.
fn arb_market_trace() -> impl Strategy<Value = (MarketId, PriceTrace)> {
    (
        0..Zone::ALL.len(),
        0..InstanceType::ALL.len(),
        prop::collection::vec((1u64..4 * MILLIS_PER_HOUR, 1e-6f64..1e3), 0..60),
        1e-6f64..1e3,
        1u64..2 * MILLIS_PER_HOUR,
        prop::bool::ANY,
    )
        .prop_map(|(z, s, steps, p0, tail, far)| {
            let span = steps.iter().map(|&(d, _)| d).sum::<u64>() + tail;
            let mut t = if far { u64::MAX - span } else { 0 };
            let mut points = vec![PricePoint {
                at: SimTime::ZERO,
                price: p0,
            }];
            for (delta, price) in steps {
                t += delta;
                points.push(PricePoint {
                    at: SimTime::millis(t),
                    price,
                });
            }
            let market = MarketId::new(Zone::ALL[z], InstanceType::ALL[s]);
            (market, PriceTrace::new(points, SimTime::millis(t + tail)))
        })
}

proptest! {
    // Cheap cases, and most of them damage the file: run many.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_trace_csv_errors_or_parses_never_panics(
        market_trace in arb_market_trace(),
        cut in opt(0.0f64..1.0),
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 0..4),
    ) {
        let (market, trace) = market_trace;
        let text = trace_to_csv(market, &trace);
        let mut bad = text.clone().into_bytes();
        if let Some(f) = cut {
            bad.truncate((f * bad.len() as f64) as usize);
        }
        for (at, bit) in flips {
            if !bad.is_empty() {
                let i = (at * bad.len() as f64) as usize;
                bad[i] ^= 1 << bit;
            }
        }
        let parsed = trace_from_csv(&String::from_utf8_lossy(&bad));
        if bad != text.as_bytes() {
            // Any outcome but a panic is acceptable for a damaged file;
            // a trace it yields must survive its own round trip.
            if let Ok((m, t)) = parsed {
                prop_assert_eq!(trace_from_csv(&trace_to_csv(m, &t)), Ok((m, t)));
            }
            return Ok(());
        }
        prop_assert_eq!(parsed, Ok((market, trace)));
    }
}
