//! Property tests pinning every `TraceCursor` query to its stateless
//! `PriceTrace` counterpart on long traces. A query sequence mixes
//! next-point steps, long forward jumps that make the cursor gallop,
//! moves to block edges and into the last block, repeats, backward moves
//! and times past the horizon, and interleaves all six cursor methods, so
//! each seek starts from wherever the previous query committed the
//! cursor. A second property pins `TrailingWindow` to
//! `PriceTrace::fraction_above_in` over the trailing window it keeps.

use proptest::prelude::*;
use spothost_market::time::{MILLIS_PER_HOUR, MILLIS_PER_MINUTE};
use spothost_market::trace::{PricePoint, PriceTrace, Segment};
use spothost_market::{SimDuration, SimTime};

/// Points per block of a trace's block maxima (`trace::BLOCK`), which
/// `TraceCursor::next_time_above` skips by.
const BLOCK: usize = 32;

/// A random trace of up to about 2000 points, in one of three shapes.
/// Dense traces change price up to 10 minutes apart and sparse ones up
/// to 4 hours apart, both to prices drawn from 0.01–20. Calm traces,
/// like the calibrated ones, change up to 10 minutes apart among four
/// low prices, with a spike to 1.5–11 about once per hundred changes and
/// one as the last change in half of them, so whole blocks sit at or
/// below a threshold drawn from the trace.
fn arb_trace() -> impl Strategy<Value = PriceTrace> {
    (
        0u8..3,
        prop::collection::vec((0.0f64..1.0, 0.01f64..20.0), 0..2000),
        0.01f64..20.0,
        1u64..2 * MILLIS_PER_HOUR,
        prop::bool::ANY,
    )
        .prop_map(|(shape, steps, p0, tail, spike_last)| {
            let calm = shape == 2;
            let max_gap = if shape == 1 {
                4 * MILLIS_PER_HOUR
            } else {
                10 * MILLIS_PER_MINUTE
            };
            let price = |p: f64| {
                if !calm {
                    p
                } else if p < 0.2 {
                    1.0 + 50.0 * p
                } else {
                    0.05 + 0.01 * (p / 5.0).floor()
                }
            };
            let mut points = vec![PricePoint {
                at: SimTime::ZERO,
                price: price(p0),
            }];
            let mut t = 0u64;
            for (gap, p) in steps {
                t += 1 + (gap * max_gap as f64) as u64;
                points.push(PricePoint {
                    at: SimTime::millis(t),
                    price: price(p),
                });
            }
            if calm && spike_last {
                t += 1 + tail % max_gap;
                points.push(PricePoint {
                    at: SimTime::millis(t),
                    price: 5.0,
                });
            }
            PriceTrace::new(points, SimTime::millis(t + tail))
        })
}

/// How one query moves the query time.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Stay at the previous query time.
    Repeat,
    /// To the next price change, or a little way into the segment.
    NextPoint,
    /// A fraction of the points left ahead, anywhere inside the segment
    /// there.
    Jump(f64),
    /// To the first point of the block that a fraction of the points
    /// left ahead lies in, or to the last point before it.
    BlockEdge(f64),
    /// Anywhere inside the last block, which is partial unless the
    /// trace's length is a multiple of [`BLOCK`].
    LastBlock,
    /// Back to a fraction of the previous query time.
    Back,
    /// Anywhere in `[0, 1.1 x end)`, so past the horizon too.
    Anywhere,
}

/// Mostly next-point steps and jumps. The jumps cover a fraction of the
/// points left and `Back` moves earlier twice as often as the other rare
/// moves, so query times spread over the whole trace instead of piling
/// up at its end.
fn arb_move() -> impl Strategy<Value = Move> {
    (0u8..13, 0.0f64..1.0).prop_map(|(kind, f)| match kind {
        0 => Move::Repeat,
        1..=4 => Move::NextPoint,
        5..=7 => Move::Jump(f),
        8 => Move::BlockEdge(f),
        9 => Move::LastBlock,
        10 | 11 => Move::Back,
        _ => Move::Anywhere,
    })
}

/// One query: a move, a cursor method (0..6), a fraction used for
/// offsets, thresholds and window lengths, and whether the threshold is
/// the maximum of the block holding the price it is drawn from.
fn arb_query() -> impl Strategy<Value = (Move, u8, f64, bool)> {
    (arb_move(), 0u8..6, 0.0f64..1.0, prop::bool::ANY)
}

/// How one trailing-window query moves the query time forward.
#[derive(Debug, Clone, Copy)]
enum Slide {
    /// Stay at the previous query time.
    Repeat,
    /// One millisecond, or to the next price change.
    Step,
    /// Less than the window length.
    Within,
    /// More than the window length, so the new window does not overlap
    /// the previous one.
    Beyond,
    /// To the trace end, or past it.
    End,
}

/// Mostly steps and slides within the window.
fn arb_slide() -> impl Strategy<Value = Slide> {
    (0u8..10).prop_map(|kind| match kind {
        0 => Slide::Repeat,
        1..=3 => Slide::Step,
        4..=6 => Slide::Within,
        7 | 8 => Slide::Beyond,
        _ => Slide::End,
    })
}

/// A window length from 1 ms to longer than a trace ending at `end_ms`:
/// `kind` picks the scale, `frac` the length within it.
fn window_len(kind: u8, frac: f64, end_ms: u64) -> SimDuration {
    SimDuration::millis(match kind {
        0 => 1,
        1 => 1 + (frac * MILLIS_PER_HOUR as f64) as u64,
        2 => 1 + (frac * end_ms as f64) as u64,
        _ => end_ms + 1 + (frac * end_ms as f64) as u64,
    })
}

/// The segment containing `t`, found in the full segment list: the
/// stateless reference for `segment_at`.
fn segment_containing(segs: &[Segment], t: SimTime) -> Segment {
    segs[segs.partition_point(|s| s.start <= t) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cursor_equals_stateless_queries_on_long_traces(
        trace in arb_trace(),
        queries in prop::collection::vec(arb_query(), 1..200),
    ) {
        let pts = trace.points();
        let segs: Vec<Segment> = trace.segments().collect();
        let end_ms = trace.end().as_millis();
        let mut c = trace.cursor();
        let mut t = SimTime::ZERO;
        let last_block = (pts.len() - 1) / BLOCK * BLOCK;
        for (mv, method, frac, at_block_max) in queries {
            let i = pts.partition_point(|p| p.at <= t) - 1;
            // A time `frac` of the way through segment `j`.
            let inside = |j: usize| {
                let seg = segs[j];
                seg.start.as_millis() + (frac * seg.duration().as_millis() as f64) as u64
            };
            // The point a fraction `f` of the points left ahead.
            let ahead = |f: f64| i + (f * (pts.len() - 1 - i) as f64) as usize;
            t = match mv {
                Move::Repeat => t,
                Move::NextPoint => match pts.get(i + 1) {
                    Some(p) if frac < 0.5 => p.at,
                    _ => SimTime::millis(t.as_millis() + (frac * MILLIS_PER_MINUTE as f64) as u64),
                },
                Move::Jump(f) => SimTime::millis(inside(ahead(f))),
                Move::BlockEdge(f) => {
                    let first = (ahead(f) / BLOCK * BLOCK).min(last_block);
                    pts[if frac < 0.5 { first } else { first.saturating_sub(1) }].at
                }
                Move::LastBlock => SimTime::millis(inside(
                    (last_block + (frac * (pts.len() - last_block) as f64) as usize).min(pts.len() - 1),
                )),
                Move::Back => SimTime::millis((frac * t.as_millis() as f64) as u64),
                Move::Anywhere => SimTime::millis((frac * 1.1 * end_ms as f64) as u64),
            };
            // A threshold among the trace's prices, so crossings happen,
            // or the maximum of a block, which must not cross itself.
            let j = (frac * pts.len() as f64) as usize;
            let threshold = if at_block_max {
                let b = j / BLOCK * BLOCK;
                pts[b..pts.len().min(b + BLOCK)].iter().map(|p| p.price).fold(0.0, f64::max)
            } else {
                pts[j].price
            };
            match method {
                0 => prop_assert_eq!(c.price_at(t), trace.price_at(t), "price_at {}", t),
                1 => prop_assert_eq!(c.segment_at(t), segment_containing(&segs, t), "segment_at {}", t),
                2 => prop_assert_eq!(c.next_change_after(t), trace.next_change_after(t), "next_change_after {}", t),
                3 => prop_assert_eq!(
                    c.next_time_above(t, threshold),
                    trace.next_time_above(t, threshold),
                    "next_time_above {} {}", t, threshold
                ),
                4 => prop_assert_eq!(
                    c.next_time_at_or_below(t, threshold),
                    trace.next_time_at_or_below(t, threshold),
                    "next_time_at_or_below {} {}", t, threshold
                ),
                _ => {
                    // A window reaching up to a few hundred points past `t`.
                    let at = pts.partition_point(|p| p.at <= t) - 1;
                    let to = SimTime::millis(inside((at + (frac * 300.0) as usize).min(pts.len() - 1)))
                        .max(t);
                    let mut fed = Vec::new();
                    c.feed_segments(t, to, |s| fed.push(s));
                    prop_assert_eq!(fed, trace.segments_in(t, to), "feed_segments [{}, {})", t, to);
                    t = to;
                }
            }
        }
    }

    #[test]
    fn trailing_window_equals_stateless_fraction(
        trace in arb_trace(),
        threshold_at in 0.0f64..1.0,
        len_kind in 0u8..4,
        len_frac in 0.0f64..1.0,
        first in 0.0f64..1.0,
        slides in prop::collection::vec((arb_slide(), 0.0f64..1.0), 1..200),
        back_at in 0usize..200,
    ) {
        let pts = trace.points();
        let end_ms = trace.end().as_millis();
        // One of the trace's own prices, so `price == threshold` ties occur.
        let threshold = pts[(threshold_at * pts.len() as f64) as usize].price;
        let len = window_len(len_kind, len_frac, end_ms);
        let mut w = trace.trailing_window(len, threshold);
        // The first query at zero or anywhere in the trace, deep in it too.
        let mut t = if first < 0.1 {
            SimTime::ZERO
        } else {
            SimTime::millis((first * end_ms as f64) as u64)
        };
        let len_ms = len.as_millis() as f64;
        for (k, &(slide, frac)) in slides.iter().enumerate() {
            if k > 0 {
                t = SimTime::millis(t.as_millis() + match slide {
                    Slide::Repeat => 0,
                    Slide::Step => match trace.next_change_after(t) {
                        Some(next) if frac < 0.5 => (next - t).as_millis(),
                        _ => 1,
                    },
                    Slide::Within => (frac * len_ms) as u64,
                    Slide::Beyond => len.as_millis() + 1 + (frac * len_ms) as u64,
                    Slide::End => {
                        end_ms.saturating_sub(t.as_millis()) + (frac * end_ms as f64) as u64
                    }
                });
            }
            // Once per sequence, a query behind the previous one.
            if k == back_at {
                t = SimTime::millis((frac * t.as_millis() as f64) as u64);
            }
            let want = trace.fraction_above_in(t.saturating_sub(len), t, threshold);
            prop_assert_eq!(
                w.fraction_at(t).to_bits(),
                want.to_bits(),
                "fraction_at {} (window {:?}, threshold {})", t, len, threshold
            );
        }
    }
}
