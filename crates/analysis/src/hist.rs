//! Fixed-bucket histograms: the bucket counts `query --agg hist` renders
//! for a selection's samples.
//!
//! The bucket edges are fixed at construction; samples below the first
//! edge or at or above the last are counted in underflow and overflow.

/// A histogram over `[edges[0], edges[n-1])` with one bucket per
/// consecutive pair of edges, plus underflow and overflow buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl FixedHistogram {
    /// Build a histogram from strictly increasing bucket edges.
    ///
    /// Panics if fewer than two edges are given or they are not strictly
    /// increasing (a caller bug, not a data condition).
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two bucket edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bucket edges must be strictly increasing"
        );
        let n = edges.len() - 1;
        FixedHistogram {
            edges,
            counts: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// `n` equal-width buckets spanning `[lo, hi)`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 1 && hi > lo, "invalid linear histogram spec");
        let w = (hi - lo) / n as f64;
        FixedHistogram::new((0..=n).map(|i| lo + w * i as f64).collect())
    }

    /// Record one observation. Infinities are counted into
    /// overflow/underflow by sign; NaN is dropped entirely.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        if x < self.edges[0] {
            self.underflow += 1;
            return;
        }
        let last = self.edges[self.edges.len() - 1];
        if x >= last {
            self.overflow += 1;
            return;
        }
        // Binary search for the bucket whose left edge is <= x.
        let idx = match self
            .edges
            .binary_search_by(|e| e.partial_cmp(&x).expect("edges are finite"))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        // idx is within [0, n-1] because x < last edge.
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Total number of recorded (non-NaN) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the first edge / at-or-above the last edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The bucket edges this histogram was built from.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket counts (`edges().len() - 1` entries).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Iterate `(lo, hi, count)` per bucket, in order.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.edges
            .windows(2)
            .zip(self.counts.iter())
            .map(|(w, &c)| (w[0], w[1], c))
    }

    /// Render as `lo..hi: count` lines with a proportional bar, for quick
    /// terminal inspection.
    pub fn render(&self, width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        if self.underflow > 0 {
            out.push_str(&format!("{:>22}  {}\n", "< first edge", self.underflow));
        }
        for (lo, hi, c) in self.buckets() {
            let bar = "#".repeat((c as usize * width).div_ceil(peak as usize).min(width));
            let bar = if c == 0 { String::new() } else { bar };
            out.push_str(&format!("{lo:>10.2}..{hi:<10.2}  {c:>8}  {bar}\n"));
        }
        if self.overflow > 0 {
            out.push_str(&format!("{:>22}  {}\n", ">= last edge", self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_buckets() {
        let mut h = FixedHistogram::linear(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 5.5, 9.99] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow_are_tracked() {
        let mut h = FixedHistogram::linear(0.0, 1.0, 2);
        h.record(-0.5);
        h.record(1.0); // right edge is exclusive
        h.record(42.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.counts(), &[0, 0]);
    }

    #[test]
    fn nan_is_dropped() {
        let mut h = FixedHistogram::linear(0.0, 1.0, 2);
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = FixedHistogram::linear(0.0, 1.0, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.counts(), &[0, 0, 0, 0]);
    }
}
