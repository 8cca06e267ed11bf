//! Piecewise-constant spot-price traces.
//!
//! EC2 publishes spot prices as a sequence of (timestamp, price) change
//! events; between changes the price is constant. We keep exactly that
//! representation: simulation becomes event-driven (the scheduler only needs
//! to wake at price changes and billing boundaries), and statistics are
//! computed *time-weighted* so that a one-minute spike does not count the
//! same as a six-hour plateau.

use crate::time::{SimDuration, SimTime};

/// One price-change event: from `at` (inclusive) the price is `price`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricePoint {
    pub at: SimTime,
    pub price: f64,
}

/// A constant-price interval `[start, end)` within a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub start: SimTime,
    pub end: SimTime,
    pub price: f64,
}

impl Segment {
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Points per block of [`PriceTrace`]'s block maxima. A cursor's crossing
/// scan skips every block whose maximum cannot cross its threshold.
const BLOCK: usize = 32;

/// A complete spot-price history over `[0, end)`.
///
/// Invariants (checked at construction):
/// * at least one point, the first at time zero,
/// * strictly increasing timestamps,
/// * strictly positive, finite prices,
/// * `end` at or after the last point.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTrace {
    /// Held at exact capacity: a trace lives as long as its arena entry.
    points: Vec<PricePoint>,
    /// The highest price of each run of [`BLOCK`] points, the last run
    /// possibly shorter.
    block_max: Vec<f64>,
    end: SimTime,
}

impl PriceTrace {
    /// Build a trace, validating invariants. Panics on malformed input —
    /// traces are produced by generators under our control, so a violation
    /// is a programming error, not a recoverable condition.
    ///
    /// A `points` vector with spare capacity is copied once into an
    /// exact-size one, so a generator may reserve a slot per candidate
    /// change and drop repeated prices.
    pub fn new(points: Vec<PricePoint>, end: SimTime) -> Self {
        assert!(!points.is_empty(), "trace must have at least one point");
        assert_eq!(points[0].at, SimTime::ZERO, "trace must start at t=0");
        for w in points.windows(2) {
            assert!(
                w[0].at < w[1].at,
                "trace timestamps must be strictly increasing"
            );
        }
        for p in &points {
            assert!(
                p.price.is_finite() && p.price > 0.0,
                "prices must be positive and finite, got {}",
                p.price
            );
        }
        let last = points.last().expect("non-empty asserted above").at;
        assert!(
            end > last || (points.len() == 1 && end >= SimTime::ZERO),
            "trace end must be after the last change"
        );
        let points = if points.capacity() > points.len() {
            points.as_slice().to_vec()
        } else {
            points
        };
        let block_max = points
            .chunks(BLOCK)
            .map(|b| b.iter().map(|p| p.price).fold(0.0, f64::max))
            .collect();
        PriceTrace {
            points,
            block_max,
            end,
        }
    }

    /// A trace that holds one constant price for the whole horizon.
    pub fn constant(price: f64, end: SimTime) -> Self {
        PriceTrace::new(
            vec![PricePoint {
                at: SimTime::ZERO,
                price,
            }],
            end,
        )
    }

    pub fn end(&self) -> SimTime {
        self.end
    }

    pub fn points(&self) -> &[PricePoint] {
        &self.points
    }

    pub fn num_changes(&self) -> usize {
        self.points.len()
    }

    /// Heap bytes the trace holds: its points and its block maxima.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.points.as_slice())
            + std::mem::size_of_val(self.block_max.as_slice())
    }

    /// Index of the segment containing `t` (last point with `at <= t`).
    fn segment_index(&self, t: SimTime) -> usize {
        match self.points.binary_search_by(|p| p.at.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0, // t before first point cannot happen (first at 0)
            Err(i) => i - 1,
        }
    }

    /// The spot price in effect at instant `t`. Times at or past `end`
    /// return the final price (the trace is extended by its last value).
    pub fn price_at(&self, t: SimTime) -> f64 {
        self.points[self.segment_index(t)].price
    }

    /// First price-change time strictly after `t`, if any remains.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        let i = self.segment_index(t);
        self.points.get(i + 1).map(|p| p.at)
    }

    /// Earliest instant `>= from` at which the price is `> threshold`
    /// (strictly above: EC2 revokes when the spot price *exceeds* the bid).
    ///
    /// Only instants strictly inside the horizon `[0, end)` are returned:
    /// a query at or past `end` yields `None` even though [`price_at`]
    /// extends the trace with its final value.
    ///
    /// Walks point by point: the reference that
    /// [`TraceCursor::next_time_above`]'s block skip is checked against.
    ///
    /// [`price_at`]: PriceTrace::price_at
    pub fn next_time_above(&self, from: SimTime, threshold: f64) -> Option<SimTime> {
        // Clamp the `from` hit to the horizon exactly like later-segment
        // hits below; otherwise a revocation could be scheduled beyond the
        // end of the trace.
        if from >= self.end {
            return None;
        }
        let mut i = self.segment_index(from);
        if self.points[i].price > threshold {
            return Some(from);
        }
        i += 1;
        while i < self.points.len() {
            if self.points[i].price > threshold {
                let at = self.points[i].at;
                return (at < self.end).then_some(at);
            }
            i += 1;
        }
        None
    }

    /// Index of the first point at or after `start` priced `> threshold`:
    /// the rest of `start`'s block point by point, then the first later
    /// block whose maximum is above `threshold`.
    fn first_above(&self, start: usize, threshold: f64) -> Option<usize> {
        let pts = &self.points;
        let block = start / BLOCK;
        let rest = &pts[start..pts.len().min((block + 1) * BLOCK)];
        if let Some(k) = rest.iter().position(|p| p.price > threshold) {
            return Some(start + k);
        }
        let skipped = self
            .block_max
            .get(block + 1..)?
            .iter()
            .position(|&m| m > threshold)?;
        let lo = (block + 1 + skipped) * BLOCK;
        let k = pts[lo..]
            .iter()
            .position(|p| p.price > threshold)
            .expect("a block whose maximum is above the threshold holds a point above it");
        Some(lo + k)
    }

    /// Earliest instant `>= from` at which the price is `<= threshold`.
    /// As with [`next_time_above`], only instants inside `[0, end)` are
    /// returned.
    ///
    /// [`next_time_above`]: PriceTrace::next_time_above
    pub fn next_time_at_or_below(&self, from: SimTime, threshold: f64) -> Option<SimTime> {
        if from >= self.end {
            return None;
        }
        let mut i = self.segment_index(from);
        if self.points[i].price <= threshold {
            return Some(from);
        }
        i += 1;
        while i < self.points.len() {
            if self.points[i].price <= threshold {
                let at = self.points[i].at;
                return (at < self.end).then_some(at);
            }
            i += 1;
        }
        None
    }

    /// Iterate the constant-price segments over `[0, end)`.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let end = self.end;
        self.points.iter().enumerate().map(move |(i, p)| Segment {
            start: p.at,
            end: self.points.get(i + 1).map_or(end, |n| n.at),
            price: p.price,
        })
    }

    /// Segments clipped to the window `[from, to)`, without allocating.
    ///
    /// Starts at the segment containing `from` (binary search) rather
    /// than scanning the whole trace, so a narrow window near the end of
    /// a long trace costs O(log n + segments-in-window). Windows that
    /// extend past `end` are truncated to the horizon.
    pub fn segments_in_iter(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = Segment> + '_ {
        assert!(from <= to);
        let to = to.min(self.end);
        let first = if from >= to {
            self.points.len() // empty window: yield nothing
        } else {
            self.segment_index(from)
        };
        self.points[first.min(self.points.len())..]
            .iter()
            .enumerate()
            .map(move |(off, p)| {
                let i = first + off;
                Segment {
                    start: p.at.max(from),
                    end: self.points.get(i + 1).map_or(self.end, |n| n.at).min(to),
                    price: p.price,
                }
            })
            .take_while(move |s| s.start < to)
    }

    /// Segments clipped to the window `[from, to)`, collected. Thin
    /// wrapper over [`segments_in_iter`] for callers that want ownership;
    /// hot paths should use the iterator directly.
    ///
    /// [`segments_in_iter`]: PriceTrace::segments_in_iter
    pub fn segments_in(&self, from: SimTime, to: SimTime) -> Vec<Segment> {
        self.segments_in_iter(from, to).collect()
    }

    /// Time-weighted mean price over the whole trace.
    pub fn time_weighted_mean(&self) -> f64 {
        self.time_weighted_mean_in(SimTime::ZERO, self.end)
    }

    /// Time-weighted mean over `[from, to)`.
    pub fn time_weighted_mean_in(&self, from: SimTime, to: SimTime) -> f64 {
        let total = (to - from).as_millis();
        if total == 0 {
            return self.price_at(from);
        }
        let mut acc = 0.0;
        for s in self.segments_in_iter(from, to) {
            acc += s.price * s.duration().as_millis() as f64;
        }
        acc / total as f64
    }

    /// Time-weighted standard deviation of the price (population form).
    pub fn time_weighted_std(&self) -> f64 {
        let mean = self.time_weighted_mean();
        let total = self.end.as_millis();
        if total == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for s in self.segments() {
            let d = s.price - mean;
            acc += d * d * s.duration().as_millis() as f64;
        }
        (acc / total as f64).sqrt()
    }

    /// Fraction of the window `[from, to)` spent strictly above
    /// `threshold` — an *observable* revocation-risk signal (a scheduler
    /// can compute it from published price history), used by
    /// stability-aware bidding.
    pub fn fraction_above_in(&self, from: SimTime, to: SimTime, threshold: f64) -> f64 {
        assert!(from <= to);
        let total = (to - from).as_millis();
        if total == 0 {
            return 0.0;
        }
        let above: SimDuration = self
            .segments_in_iter(from, to)
            .filter(|s| s.price > threshold)
            .map(|s| s.duration())
            .sum();
        above.as_millis() as f64 / total as f64
    }

    /// Total time during which the price is strictly above `threshold`.
    pub fn time_above(&self, threshold: f64) -> SimDuration {
        self.segments()
            .filter(|s| s.price > threshold)
            .map(|s| s.duration())
            .sum()
    }

    /// Fraction of the horizon spent strictly above `threshold`, in `[0,1]`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        let total = self.end.as_millis();
        if total == 0 {
            return 0.0;
        }
        self.time_above(threshold).as_millis() as f64 / total as f64
    }

    /// Sample the price on a regular grid (`t = 0, dt, 2dt, ...` while
    /// `t < end`). Used for cross-trace correlation, which needs aligned
    /// observations.
    pub fn sample(&self, dt: SimDuration) -> Vec<f64> {
        assert!(dt > SimDuration::ZERO);
        let mut out = Vec::with_capacity((self.end.as_millis() / dt.as_millis()) as usize + 1);
        let mut t = SimTime::ZERO;
        // Walk segments and the grid together: O(n + samples) not
        // O(samples * log n).
        let mut idx = 0usize;
        while t < self.end {
            while idx + 1 < self.points.len() && self.points[idx + 1].at <= t {
                idx += 1;
            }
            out.push(self.points[idx].price);
            t += dt;
        }
        out
    }

    pub fn min_price(&self) -> f64 {
        self.points.iter().map(|p| p.price).fold(f64::MAX, f64::min)
    }

    pub fn max_price(&self) -> f64 {
        self.points.iter().map(|p| p.price).fold(0.0, f64::max)
    }

    /// A stateful cursor positioned at the start of the trace.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            trace: self,
            idx: 0,
        }
    }

    /// A [`TrailingWindow`] of length `len` measuring the time spent
    /// strictly above `threshold`, before its first query.
    pub fn trailing_window(&self, len: SimDuration, threshold: f64) -> TrailingWindow<'_> {
        TrailingWindow {
            head: self.cursor(),
            tail: self.cursor(),
            threshold,
            len,
            from: SimTime::ZERO,
            to: SimTime::ZERO,
            above_ms: 0,
        }
    }
}

/// Points a forward [`TraceCursor`] seek walks before it gallops.
const WALK: usize = 8;

/// Index of the last point at or before `t`, given `pts[lo].at <= t`:
/// probes `WALK`, `2 WALK`, `4 WALK`, ... points past `lo`, then binary
/// searches the last bracket, so a target `d` points ahead costs
/// O(log d). Kept out of line so that the walk in
/// [`TraceCursor::seek`] stays small enough to inline into callers in
/// other crates.
#[inline(never)]
fn gallop(pts: &[PricePoint], mut lo: usize, t: SimTime) -> usize {
    let mut step = WALK;
    let hi = loop {
        let hi = lo + step;
        if hi >= pts.len() || pts[hi].at > t {
            break hi.min(pts.len());
        }
        lo = hi;
        step *= 2;
    };
    lo + pts[lo + 1..hi].partition_point(|p| p.at <= t)
}

/// A stateful cursor over a trace's piecewise-constant segments.
///
/// The simulation clock only moves forward, so the scheduler's price
/// lookups, revocation scans and billing-hour charges for one lease form
/// a single non-decreasing sequence of query times. A cursor exploits
/// that: it remembers the segment containing the last query and seeks
/// forward from there with no allocation. A query in the committed
/// segment or a few points past it walks, **O(1)** for the next point;
/// a jump of `d` points gallops, **O(log d)**, wherever the cursor
/// starts. Either beats the O(log n) binary search of
/// [`PriceTrace::price_at`] for the short steps a simulation makes, and a
/// cursor created at time zero reaches a lease granted deep in the
/// horizon without walking every point before it.
///
/// # API contract: monotonic advance
///
/// Every query method takes `&mut self` and *commits* the cursor to the
/// segment containing the query time. Queries with non-decreasing times
/// are the designed use and hit the fast path. A query *earlier* than
/// the committed position does not return wrong data — the cursor
/// re-synchronises with a binary search over the whole trace — so callers
/// that mostly look backwards (e.g. windowed statistics) should use
/// [`PriceTrace::segments_in_iter`] instead.
///
/// Results are always identical to the corresponding stateless
/// [`PriceTrace`] queries; the cursor is purely an access-path
/// optimisation.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a PriceTrace,
    /// Index of the committed segment (last point with `at <=` the most
    /// recent query time).
    idx: usize,
}

impl<'a> TraceCursor<'a> {
    /// The trace this cursor walks.
    pub fn trace(&self) -> &'a PriceTrace {
        self.trace
    }

    /// Commit the cursor to the segment containing `t` and return its
    /// index. A target fewer than [`WALK`] points ahead is walked to; a
    /// farther one is found by [`gallop`]. A query behind the committed
    /// segment re-synchronises with a binary search.
    #[inline]
    fn seek(&mut self, t: SimTime) -> usize {
        let pts = &self.trace.points;
        if t < pts[self.idx].at {
            // Regressed behind the committed segment: re-synchronise.
            self.idx = self.trace.segment_index(t);
            return self.idx;
        }
        let far = self.idx + WALK;
        if far < pts.len() && pts[far].at <= t {
            self.idx = gallop(pts, far, t);
        } else {
            while self.idx + 1 < pts.len() && pts[self.idx + 1].at <= t {
                self.idx += 1;
            }
        }
        self.idx
    }

    /// The spot price in effect at instant `t`. Times at or past the
    /// trace end return the final price, exactly like
    /// [`PriceTrace::price_at`].
    #[inline]
    pub fn price_at(&mut self, t: SimTime) -> f64 {
        let i = self.seek(t);
        self.trace.points[i].price
    }

    /// The constant-price segment containing `t`, clipped to the horizon.
    #[inline]
    pub fn segment_at(&mut self, t: SimTime) -> Segment {
        let i = self.seek(t);
        let pts = &self.trace.points;
        Segment {
            start: pts[i].at,
            end: pts.get(i + 1).map_or(self.trace.end, |n| n.at),
            price: pts[i].price,
        }
    }

    /// First price-change time strictly after `t`, if any remains.
    #[inline]
    pub fn next_change_after(&mut self, t: SimTime) -> Option<SimTime> {
        let i = self.seek(t);
        self.trace.points.get(i + 1).map(|p| p.at)
    }

    /// Earliest instant `>= from` (inside the horizon) at which the price
    /// is `> threshold`. Commits the cursor to `from`'s segment, then
    /// scans ahead *without* committing, so a later monotonic query from
    /// `from` onwards stays on the fast path.
    ///
    /// The scan ahead walks the rest of the segment's block, skips every
    /// block whose maximum is not above `threshold`, and walks only the
    /// first block whose maximum is, so it finds the point the stateless
    /// walk finds; debug builds check every answer against that walk.
    pub fn next_time_above(&mut self, from: SimTime, threshold: f64) -> Option<SimTime> {
        if from >= self.trace.end {
            return None;
        }
        let i = self.seek(from);
        let trace = self.trace;
        let found = if trace.points[i].price > threshold {
            Some(from)
        } else {
            trace
                .first_above(i + 1, threshold)
                .map(|j| trace.points[j].at)
                .filter(|&at| at < trace.end)
        };
        debug_assert_eq!(
            found,
            trace.next_time_above(from, threshold),
            "block skip from {from} above {threshold}"
        );
        found
    }

    /// Feed every constant-price segment overlapping `[from, to)` to
    /// `f`, clipped to the window, in time order — the incremental path
    /// for online consumers (forecasters) that observe each span of
    /// price history exactly once as the clock advances. Commits the
    /// cursor to the segment containing the window end, so successive
    /// calls with abutting windows start where the last one stopped.
    ///
    /// Emits exactly what [`PriceTrace::segments_in_iter`]`(from, to)`
    /// yields; the cursor is purely an access-path optimisation.
    pub fn feed_segments(&mut self, from: SimTime, to: SimTime, mut f: impl FnMut(Segment)) {
        assert!(from <= to);
        let to = to.min(self.trace.end);
        if from >= to {
            return;
        }
        let mut i = self.seek(from);
        let pts = &self.trace.points;
        while i < pts.len() {
            let start = pts[i].at.max(from);
            if start >= to {
                break;
            }
            let end = pts.get(i + 1).map_or(self.trace.end, |n| n.at).min(to);
            f(Segment {
                start,
                end,
                price: pts[i].price,
            });
            if pts.get(i + 1).is_some_and(|n| n.at < to) {
                i += 1;
            } else {
                break;
            }
        }
        self.idx = i;
    }

    /// Earliest instant `>= from` (inside the horizon) at which the price
    /// is `<= threshold`. Same committing behaviour as
    /// [`next_time_above`](TraceCursor::next_time_above).
    pub fn next_time_at_or_below(&mut self, from: SimTime, threshold: f64) -> Option<SimTime> {
        if from >= self.trace.end {
            return None;
        }
        let mut i = self.seek(from);
        let pts = &self.trace.points;
        if pts[i].price <= threshold {
            return Some(from);
        }
        i += 1;
        while i < pts.len() {
            if pts[i].price <= threshold {
                let at = pts[i].at;
                return (at < self.trace.end).then_some(at);
            }
            i += 1;
        }
        None
    }
}

/// The share of a trailing window `[now - len, now)` spent strictly
/// above a fixed threshold, kept as the window slides forward.
///
/// The window holds two [`TraceCursor`]s, one committed to each end, and
/// the integer milliseconds of the window (clipped to the horizon) spent
/// above the threshold. A later query moves the end forward, adding the
/// above-threshold time it passes, and the start forward, subtracting
/// the time it passes, so over a run of non-decreasing queries each
/// trace point is passed at most twice. A query whose window does not
/// overlap the previous one, the first query included, recounts its
/// window from scratch; the cursors gallop to it rather than walk.
///
/// # API contract: monotonic advance
///
/// Queries with non-decreasing times are the designed use. A query
/// behind the previous one is still answered exactly: it recounts its
/// window like a first query.
///
/// [`fraction_at`](TrailingWindow::fraction_at)`(now)` is bit-identical
/// to [`PriceTrace::fraction_above_in`]`(now.saturating_sub(len), now,
/// threshold)`: both divide the same integer count of milliseconds by
/// the same window length, once.
#[derive(Debug, Clone)]
pub struct TrailingWindow<'a> {
    /// Committed to the segment of the window's end.
    head: TraceCursor<'a>,
    /// Committed to the segment of the window's start.
    tail: TraceCursor<'a>,
    threshold: f64,
    len: SimDuration,
    /// The previous query's window `[from, to)`.
    from: SimTime,
    to: SimTime,
    /// Milliseconds of `[from, to)`, clipped to the horizon, during which
    /// the price is strictly above `threshold`.
    above_ms: u64,
}

impl TrailingWindow<'_> {
    /// Fraction of `[now - len, now)` spent strictly above the threshold;
    /// 0.0 for an empty window. The window starts at time zero until
    /// `now` reaches `len`, and the part past the trace end counts as
    /// not above.
    pub fn fraction_at(&mut self, now: SimTime) -> f64 {
        let from = now.saturating_sub(self.len);
        let threshold = self.threshold;
        let above = |s: Segment| {
            if s.price > threshold {
                s.duration().as_millis()
            } else {
                0
            }
        };
        if now < self.to || from >= self.to {
            // Behind the previous window, or clear past it: recount.
            let mut ms = 0;
            self.head.feed_segments(from, now, |s| ms += above(s));
            self.above_ms = ms;
        } else {
            let (mut gained, mut lost) = (0, 0);
            self.head
                .feed_segments(self.to, now, |s| gained += above(s));
            self.tail
                .feed_segments(self.from, from, |s| lost += above(s));
            self.above_ms = self.above_ms + gained - lost;
        }
        self.from = from;
        self.to = now;
        let total = (now - from).as_millis();
        if total == 0 {
            return 0.0;
        }
        self.above_ms as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> PriceTrace {
        // [0,10s): 1.0   [10s,20s): 3.0   [20s,60s): 0.5
        PriceTrace::new(
            vec![
                PricePoint {
                    at: SimTime::ZERO,
                    price: 1.0,
                },
                PricePoint {
                    at: SimTime::secs(10),
                    price: 3.0,
                },
                PricePoint {
                    at: SimTime::secs(20),
                    price: 0.5,
                },
            ],
            SimTime::secs(60),
        )
    }

    #[test]
    fn price_at_picks_correct_segment() {
        let t = trace();
        assert_eq!(t.price_at(SimTime::ZERO), 1.0);
        assert_eq!(t.price_at(SimTime::secs(9)), 1.0);
        assert_eq!(t.price_at(SimTime::secs(10)), 3.0);
        assert_eq!(t.price_at(SimTime::secs(19)), 3.0);
        assert_eq!(t.price_at(SimTime::secs(20)), 0.5);
        // Past the end: extended with last value.
        assert_eq!(t.price_at(SimTime::secs(600)), 0.5);
    }

    #[test]
    fn next_change_after_walks_points() {
        let t = trace();
        assert_eq!(t.next_change_after(SimTime::ZERO), Some(SimTime::secs(10)));
        assert_eq!(
            t.next_change_after(SimTime::secs(10)),
            Some(SimTime::secs(20))
        );
        assert_eq!(t.next_change_after(SimTime::secs(20)), None);
    }

    #[test]
    fn crossing_queries() {
        let t = trace();
        // Strictly above 1.0 first happens at the 3.0 segment.
        assert_eq!(
            t.next_time_above(SimTime::ZERO, 1.0),
            Some(SimTime::secs(10))
        );
        // Already above when starting inside the spike.
        assert_eq!(
            t.next_time_above(SimTime::secs(15), 1.0),
            Some(SimTime::secs(15))
        );
        // Never above 5.0.
        assert_eq!(t.next_time_above(SimTime::ZERO, 5.0), None);
        // At-or-below 0.6 first at the tail segment.
        assert_eq!(
            t.next_time_at_or_below(SimTime::secs(12), 0.6),
            Some(SimTime::secs(20))
        );
    }

    #[test]
    fn crossing_queries_clamped_to_horizon() {
        let t = trace(); // end = 60s, final price 0.5
                         // At the horizon: the price there (0.5) satisfies "above 0.1",
                         // but 60s is outside [0, end) — no revocation can happen there.
        assert_eq!(t.next_time_above(SimTime::secs(60), 0.1), None);
        // Past the horizon likewise, even though price_at extends.
        assert_eq!(t.next_time_above(SimTime::secs(90), 0.1), None);
        assert_eq!(t.next_time_at_or_below(SimTime::secs(60), 1.0), None);
        assert_eq!(t.next_time_at_or_below(SimTime::secs(600), 1.0), None);
        // Just inside the horizon still hits.
        let last = SimTime::millis(60_000 - 1);
        assert_eq!(t.next_time_above(last, 0.1), Some(last));
        assert_eq!(t.next_time_at_or_below(last, 1.0), Some(last));
    }

    #[test]
    fn cursor_matches_stateless_queries_monotonic() {
        let t = trace();
        let mut c = t.cursor();
        for ms in (0..70_000).step_by(500) {
            let at = SimTime::millis(ms);
            assert_eq!(c.price_at(at), t.price_at(at), "price at {at}");
            assert_eq!(c.next_change_after(at), t.next_change_after(at));
        }
    }

    #[test]
    fn cursor_crossing_queries_match_and_do_not_overcommit() {
        let t = trace();
        let mut c = t.cursor();
        assert_eq!(
            c.next_time_above(SimTime::ZERO, 1.0),
            t.next_time_above(SimTime::ZERO, 1.0)
        );
        // The scan ahead must not have committed the cursor past t=0:
        // the very next monotonic query at 1s must still be correct.
        assert_eq!(c.price_at(SimTime::secs(1)), 1.0);
        assert_eq!(
            c.next_time_at_or_below(SimTime::secs(12), 0.6),
            Some(SimTime::secs(20))
        );
        assert_eq!(c.next_time_above(SimTime::secs(60), 0.1), None);
    }

    #[test]
    fn new_holds_exactly_its_points_and_one_maximum_per_block() {
        let mut points = Vec::with_capacity(100);
        points.extend((0..BLOCK as u64 + 1).map(|i| PricePoint {
            at: SimTime::secs(i),
            price: 1.0 + (i % 7) as f64,
        }));
        let t = PriceTrace::new(points, SimTime::secs(60));
        assert_eq!(t.points.capacity(), BLOCK + 1);
        assert_eq!(t.block_max, vec![7.0, 5.0]);
        assert_eq!(t.heap_bytes(), (BLOCK + 1) * 16 + 2 * 8);
    }

    #[test]
    fn cursor_resyncs_on_regression() {
        let t = trace();
        let mut c = t.cursor();
        assert_eq!(c.price_at(SimTime::secs(25)), 0.5);
        // Going backwards is allowed (slow path), results stay correct.
        assert_eq!(c.price_at(SimTime::secs(5)), 1.0);
        assert_eq!(c.price_at(SimTime::secs(15)), 3.0);
    }

    #[test]
    fn feed_segments_matches_stateless_windows() {
        let t = trace();
        for (from, to) in [
            (0u64, 60),
            (5, 25),
            (10, 20),
            (0, 0),
            (25, 25),
            (15, 90),
            (60, 70),
        ] {
            let (from, to) = (SimTime::secs(from), SimTime::secs(to));
            let mut fed = Vec::new();
            t.cursor().feed_segments(from, to, |s| fed.push(s));
            assert_eq!(fed, t.segments_in(from, to), "window [{from}, {to})");
        }
    }

    #[test]
    fn feed_segments_abutting_windows_cover_once() {
        // The forecaster's access pattern: successive abutting windows
        // on one cursor must tile the trace exactly once with no gap,
        // overlap, or reordering.
        let t = trace();
        let mut c = t.cursor();
        let mut fed = Vec::new();
        let mut from = SimTime::ZERO;
        for to_s in [7u64, 10, 31, 31, 60] {
            let to = SimTime::secs(to_s);
            c.feed_segments(from, to, |s| fed.push(s));
            from = to;
        }
        // Concatenated windows equal the single full-trace window.
        let mut merged: Vec<Segment> = Vec::new();
        for s in fed {
            match merged.last_mut() {
                Some(last) if last.end == s.start && last.price == s.price => last.end = s.end,
                _ => merged.push(s),
            }
        }
        assert_eq!(merged, t.segments_in(SimTime::ZERO, SimTime::secs(60)));
        // And the cursor remains correct for a following monotonic query.
        assert_eq!(c.price_at(SimTime::secs(59)), 0.5);
    }

    #[test]
    fn cursor_segment_at_clips_to_horizon() {
        let t = trace();
        let mut c = t.cursor();
        let s = c.segment_at(SimTime::secs(30));
        assert_eq!(s.start, SimTime::secs(20));
        assert_eq!(s.end, SimTime::secs(60));
        assert_eq!(s.price, 0.5);
    }

    #[test]
    fn segments_in_iter_matches_collected() {
        let t = trace();
        for (from, to) in [
            (0u64, 60),
            (5, 25),
            (0, 0),
            (10, 10),
            (15, 16),
            (20, 90),
            (60, 90),
            (61, 70),
        ] {
            let (from, to) = (SimTime::secs(from), SimTime::secs(to));
            let collected = t.segments_in(from, to);
            let iterated: Vec<Segment> = t.segments_in_iter(from, to).collect();
            assert_eq!(collected, iterated, "window [{from}, {to})");
        }
    }

    #[test]
    fn segments_in_window_past_end_is_empty() {
        let t = trace();
        assert!(t
            .segments_in(SimTime::secs(60), SimTime::secs(70))
            .is_empty());
        assert!(t
            .segments_in(SimTime::secs(65), SimTime::secs(70))
            .is_empty());
    }

    #[test]
    fn time_weighted_mean_weights_by_duration() {
        let t = trace();
        // (1.0*10 + 3.0*10 + 0.5*40) / 60 = 60/60 = 1.0
        assert!((t.time_weighted_mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_mean() {
        let t = trace();
        // [5s, 15s): 1.0 for 5s then 3.0 for 5s -> 2.0
        let m = t.time_weighted_mean_in(SimTime::secs(5), SimTime::secs(15));
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn std_of_constant_trace_is_zero() {
        let t = PriceTrace::constant(0.3, SimTime::hours(5));
        assert_eq!(t.time_weighted_std(), 0.0);
    }

    #[test]
    fn fraction_above_in_window() {
        let t = trace();
        // Window [5s, 25s): above 1.0 only during [10s, 20s) -> 10/20.
        let f = t.fraction_above_in(SimTime::secs(5), SimTime::secs(25), 1.0);
        assert!((f - 0.5).abs() < 1e-12);
        // Empty window.
        assert_eq!(
            t.fraction_above_in(SimTime::secs(5), SimTime::secs(5), 1.0),
            0.0
        );
        // Window entirely below threshold.
        assert_eq!(
            t.fraction_above_in(SimTime::secs(20), SimTime::secs(60), 1.0),
            0.0
        );
    }

    #[test]
    fn trailing_window_matches_stateless_fraction() {
        let t = trace();
        let len = SimDuration::secs(15);
        let mut w = t.trailing_window(len, 1.0);
        // Before `len`, across the spike, past the end, a repeat, and a
        // query behind the previous one.
        for s in [0u64, 5, 12, 12, 26, 40, 58, 70, 90, 15, 16] {
            let now = SimTime::secs(s);
            let want = t.fraction_above_in(now.saturating_sub(len), now, 1.0);
            assert_eq!(w.fraction_at(now).to_bits(), want.to_bits(), "at {now}");
        }
        assert_eq!(w.fraction_at(SimTime::ZERO), 0.0);
    }

    #[test]
    fn time_above_and_fraction() {
        let t = trace();
        assert_eq!(t.time_above(1.0), SimDuration::secs(10));
        assert!((t.fraction_above(1.0) - 10.0 / 60.0).abs() < 1e-12);
        assert_eq!(t.time_above(0.1), SimDuration::secs(60));
    }

    #[test]
    fn sampling_grid() {
        let t = trace();
        let s = t.sample(SimDuration::secs(10));
        assert_eq!(s, vec![1.0, 3.0, 0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn segments_in_clips() {
        let t = trace();
        let segs = t.segments_in(SimTime::secs(5), SimTime::secs(25));
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].start, SimTime::secs(5));
        assert_eq!(segs[0].end, SimTime::secs(10));
        assert_eq!(segs[2].start, SimTime::secs(20));
        assert_eq!(segs[2].end, SimTime::secs(25));
    }

    #[test]
    fn min_max() {
        let t = trace();
        assert_eq!(t.min_price(), 0.5);
        assert_eq!(t.max_price(), 3.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_points() {
        PriceTrace::new(
            vec![
                PricePoint {
                    at: SimTime::ZERO,
                    price: 1.0,
                },
                PricePoint {
                    at: SimTime::ZERO,
                    price: 2.0,
                },
            ],
            SimTime::secs(10),
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_price() {
        PriceTrace::new(
            vec![PricePoint {
                at: SimTime::ZERO,
                price: 0.0,
            }],
            SimTime::secs(10),
        );
    }

    #[test]
    #[should_panic(expected = "start at t=0")]
    fn rejects_late_start() {
        PriceTrace::new(
            vec![PricePoint {
                at: SimTime::secs(1),
                price: 1.0,
            }],
            SimTime::secs(10),
        );
    }
}
