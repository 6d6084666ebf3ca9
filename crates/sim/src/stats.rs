//! Measurement primitives with warm-up support.
//!
//! Every figure in the paper is an average over the post-warm-up window of
//! a run, so all collectors support `reset()` — the experiment harness
//! resets them once the cluster reaches steady state and reads them at the
//! end of the run.

use crate::time::{Duration, SimTime};

/// A monotone event counter.
#[derive(Debug, Default, Clone)]
pub struct Counter {
    n: u64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&mut self) {
        self.n += 1;
    }

    #[inline]
    pub fn add(&mut self, k: u64) {
        self.n += k;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn reset(&mut self) {
        self.n = 0;
    }
}

/// Sample tally: running mean/variance (Welford) plus min/max.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Default::default()
        }
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn reset(&mut self) {
        *self = Tally::new();
    }
}

/// Time-weighted average of a piecewise-constant quantity (queue lengths,
/// active thread counts, utilization levels).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    window_start: SimTime,
    max: f64,
}

impl TimeWeighted {
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last_change: start,
            weighted_sum: 0.0,
            window_start: start,
            max: initial,
        }
    }

    /// Record that the quantity changed to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_change).as_secs_f64();
        self.weighted_sum += self.value * dt;
        self.value = value;
        self.last_change = now;
        self.max = self.max.max(value);
    }

    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    pub fn current(&self) -> f64 {
        self.value
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-weighted mean over `[window_start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last_change).as_secs_f64();
        let total = now.since(self.window_start).as_secs_f64();
        if total <= 0.0 {
            self.value
        } else {
            (self.weighted_sum + self.value * dt) / total
        }
    }

    /// Restart the measurement window at `now`, keeping the current value.
    pub fn reset(&mut self, now: SimTime) {
        self.weighted_sum = 0.0;
        self.last_change = now;
        self.window_start = now;
        self.max = self.value;
    }
}

/// Fixed-bucket histogram over a linear range, with saturating edge buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    n: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, nbuckets: usize) -> Self {
        assert!(hi > lo && nbuckets > 0);
        Histogram {
            lo,
            hi,
            buckets: vec![0; nbuckets],
            n: 0,
        }
    }

    pub fn record(&mut self, x: f64) {
        let k = self.buckets.len();
        let idx = if x <= self.lo {
            0
        } else if x >= self.hi {
            k - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * k as f64) as usize
        };
        self.buckets[idx.min(k - 1)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate quantile (0..=1) using bucket midpoints.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64;
        let mut seen = 0;
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return self.lo + (i as f64 + 0.5) * width;
            }
        }
        self.hi
    }

    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.n = 0;
    }
}

/// Fixed-bucket histogram with *logarithmically* spaced buckets.
///
/// Latency distributions span orders of magnitude; a linear histogram
/// either wastes resolution on the tail or loses it at the head. Log
/// buckets give constant *relative* error everywhere: with `b` buckets
/// spanning `[lo, hi)` each bucket covers a factor of `(hi/lo)^(1/b)`,
/// so quantile estimates are within that factor of the true value.
/// Out-of-range samples saturate into the edge buckets (their count is
/// still exact; only their position is clamped).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    lo: f64,
    /// Natural log of the per-bucket growth factor.
    ln_ratio: f64,
    buckets: Vec<u64>,
    n: u64,
    sum: f64,
}

impl LogHistogram {
    /// Buckets geometrically spanning `[lo, hi)`; both bounds must be
    /// positive with `hi > lo`.
    pub fn new(lo: f64, hi: f64, nbuckets: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && nbuckets > 0);
        LogHistogram {
            lo,
            ln_ratio: (hi / lo).ln() / nbuckets as f64,
            buckets: vec![0; nbuckets],
            n: 0,
            sum: 0.0,
        }
    }

    pub fn record(&mut self, x: f64) {
        let k = self.buckets.len();
        let idx = if x <= self.lo {
            0
        } else {
            let mut i = (((x / self.lo).ln() / self.ln_ratio) as usize).min(k - 1);
            // `ln` rounding can land a sample sitting exactly on a
            // bucket edge one bucket away from its half-open
            // [edge(i), edge(i+1)) home; nudge it back so containment
            // is exact. At most one step is ever needed.
            if x < self.edge(i) {
                i = i.saturating_sub(1);
            } else if i + 1 < k && x >= self.edge(i + 1) {
                i += 1;
            }
            i
        };
        self.buckets[idx] += 1;
        self.n += 1;
        self.sum += x;
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Lower edge of bucket `i`.
    pub fn edge(&self, i: usize) -> f64 {
        self.lo * (self.ln_ratio * i as f64).exp()
    }

    /// Quantile estimate (0..=1): the geometric midpoint of the bucket
    /// containing the q-th sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return self.lo * (self.ln_ratio * (i as f64 + 0.5)).exp();
            }
        }
        self.edge(self.buckets.len())
    }

    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.n = 0;
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.count(), 5);
        c.reset();
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
        assert_eq!(t.count(), 8);
    }

    #[test]
    fn tally_empty_is_zero() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.min(), 0.0);
        assert_eq!(t.max(), 0.0);
    }

    #[test]
    fn time_weighted_mean() {
        let mut g = TimeWeighted::new(SimTime(0), 0.0);
        g.set(SimTime(1_000_000_000), 10.0); // 0 for 1s
        g.set(SimTime(3_000_000_000), 0.0); // 10 for 2s
                                            // mean over [0, 4s] = (0*1 + 10*2 + 0*1)/4 = 5
        assert!((g.mean(SimTime(4_000_000_000)) - 5.0).abs() < 1e-9);
        assert_eq!(g.max(), 10.0);
    }

    #[test]
    fn time_weighted_reset_restarts_window() {
        let mut g = TimeWeighted::new(SimTime(0), 4.0);
        g.reset(SimTime(2_000_000_000));
        assert!((g.mean(SimTime(3_000_000_000)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.1);
        }
        let med = h.quantile(0.5);
        assert!((med - 50.0).abs() < 2.0, "median={med}");
        assert!(h.quantile(1.0) > 95.0);
    }

    #[test]
    fn histogram_saturates_at_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(50.0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn log_histogram_quantile_has_constant_relative_error() {
        // 1 µs .. 100 s in 600 buckets → each bucket spans a factor of
        // 10^(8/600) ≈ 1.032, so quantiles are within ~3.2%.
        let mut h = LogHistogram::new(1e-6, 100.0, 600);
        let mut x = 1e-5;
        let mut values = Vec::new();
        while x < 50.0 {
            h.record(x);
            values.push(x);
            x *= 1.01;
        }
        for q in [0.1, 0.5, 0.95, 0.99] {
            let est = h.quantile(q);
            let idx = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let truth = values[idx];
            assert!(
                (est / truth).ln().abs() < 0.04,
                "q={q}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn log_histogram_saturates_and_counts() {
        let mut h = LogHistogram::new(1e-3, 10.0, 40);
        h.record(1e-9); // below range → first bucket
        h.record(1e9); // above range → last bucket
        h.record(0.1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(*h.buckets().last().unwrap(), 1);
        // Edges are geometric: edge(i+1)/edge(i) constant.
        let r0 = h.edge(1) / h.edge(0);
        let r1 = h.edge(31) / h.edge(30);
        assert!((r0 - r1).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_reset_clears() {
        let mut h = LogHistogram::new(0.1, 10.0, 10);
        h.record(1.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    // ------------------------------------------------------------------
    // Percentile property suite: LogHistogram vs. a brute-force oracle
    // ------------------------------------------------------------------

    /// The empirical quantile `LogHistogram::quantile` approximates:
    /// the smallest sample `v` with `#(samples <= v) >= ceil(q*n)`.
    fn oracle(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len() as f64;
        let target = ((q.clamp(0.0, 1.0) * n).ceil() as usize).max(1);
        sorted[target - 1]
    }

    /// The containment bucket of `x`: the half-open [edge(i), edge(i+1))
    /// cell, with out-of-range samples clamped to the edge cells. This
    /// is the *specification* `record` must satisfy; it deliberately
    /// avoids the ln-based formula under test.
    fn spec_bucket(h: &LogHistogram, x: f64) -> usize {
        let k = h.buckets().len();
        if x < h.edge(1) {
            return 0;
        }
        for i in 1..k {
            if x < h.edge(i + 1) {
                return i;
            }
        }
        k - 1
    }

    fn midpoint(h: &LogHistogram, i: usize) -> f64 {
        // Reconstructed from the public edges, so it matches the
        // internal midpoint only to within a few ulps.
        h.edge(0) * ((h.edge(1) / h.edge(0)).ln() * (i as f64 + 0.5)).exp()
    }

    /// Relative-tolerance equality for reconstructed midpoints.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(a.abs())
    }

    #[test]
    fn log_histogram_record_matches_containment_spec() {
        // Log-uniform samples spanning below lo to above hi, checked
        // one at a time against the specification bucket.
        let mut rng = crate::SimRng::new(0xD15EA5E);
        for _ in 0..5000 {
            let mut h = LogHistogram::new(1e-3, 10.0, 60);
            // 1e-4 .. 1e3: one decade below lo, two above hi.
            let x = 1e-4 * 10f64.powf(rng.unit() * 7.0);
            h.record(x);
            let got = h.buckets().iter().position(|&b| b > 0).unwrap();
            assert_eq!(
                got,
                spec_bucket(&h, x),
                "sample {x} landed in bucket {got}, spec says {}",
                spec_bucket(&h, x)
            );
        }
    }

    #[test]
    fn log_histogram_exact_bin_boundaries_land_in_their_bin() {
        // edge(i) opens bucket i: [edge(i), edge(i+1)). The ln-based
        // index computation must not drop boundary values one bucket
        // low (the classic float off-by-one this suite pins).
        let h0 = LogHistogram::new(1e-3, 10.0, 60);
        for i in 0..60 {
            let mut h = LogHistogram::new(1e-3, 10.0, 60);
            let x = h0.edge(i);
            h.record(x);
            assert_eq!(
                h.buckets()[i],
                1,
                "edge({i}) = {x} did not land in bucket {i}"
            );
        }
    }

    #[test]
    fn log_histogram_quantile_matches_oracle_bucket() {
        // Against a sorted-vec oracle: the estimate must be exactly the
        // geometric midpoint of the bucket containing the oracle
        // sample, and within one bucket ratio of the oracle value.
        let mut rng = crate::SimRng::new(42);
        let mut h = LogHistogram::new(1e-3, 10.0, 60);
        let mut samples = Vec::new();
        for _ in 0..4096 {
            let x = 1e-4 * 10f64.powf(rng.unit() * 6.0);
            h.record(x);
            samples.push(x);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ratio = (10.0f64 / 1e-3).powf(1.0 / 60.0);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let o = oracle(&samples, q);
            let est = h.quantile(q);
            let bucket = spec_bucket(&h, o);
            assert!(
                close(est, midpoint(&h, bucket)),
                "q={q}: estimate {est} is not the midpoint of the oracle's bucket {bucket}"
            );
            // In-range oracle values bound the relative error by one
            // bucket ratio; clamped ones saturate by design.
            if o > 1e-3 && o < 10.0 {
                assert!(
                    est / o < ratio && o / est < ratio,
                    "q={q}: estimate {est} more than one bucket from oracle {o}"
                );
            }
        }
    }

    #[test]
    fn log_histogram_at_or_below_first_bin_saturates_low() {
        let mut h = LogHistogram::new(1e-3, 10.0, 60);
        h.record(1e-3); // exactly lo
        h.record(1e-7); // far below
        h.record(0.0); // zero is "at or below" too
        assert_eq!(h.buckets()[0], 3);
        assert_eq!(h.count(), 3);
        // All mass in bucket 0: every quantile is its midpoint.
        assert!(close(h.quantile(0.0), midpoint(&h, 0)));
        assert!(close(h.quantile(1.0), midpoint(&h, 0)));
    }

    #[test]
    fn log_histogram_above_last_bin_saturates_high() {
        let mut h = LogHistogram::new(1e-3, 10.0, 60);
        h.record(10.0); // exactly hi (outside the half-open range)
        h.record(1e6); // far above
        assert_eq!(h.buckets()[59], 2);
        // Saturated estimates stay inside the configured range.
        let est = h.quantile(0.5);
        assert!(close(est, midpoint(&h, 59)));
        assert!(est < 10.0);
    }

    #[test]
    fn log_histogram_quantile_is_monotone_in_q() {
        let mut rng = crate::SimRng::new(7);
        let mut h = LogHistogram::new(1e-4, 100.0, 600);
        for _ in 0..1000 {
            h.record(1e-4 * 10f64.powf(rng.unit() * 6.0));
        }
        let mut last = 0.0;
        for i in 0..=100 {
            let est = h.quantile(i as f64 / 100.0);
            assert!(
                est >= last,
                "quantile not monotone at q={}",
                i as f64 / 100.0
            );
            last = est;
        }
    }

    #[test]
    fn linear_histogram_quantile_tracks_oracle_bucket() {
        let mut rng = crate::SimRng::new(3);
        let mut h = Histogram::new(0.0, 100.0, 200);
        let mut samples = Vec::new();
        for _ in 0..2048 {
            let x = rng.unit() * 120.0 - 10.0; // spills past both edges
            h.record(x);
            samples.push(x);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let o = oracle(&samples, q);
            let est = h.quantile(q);
            if o > 0.5 && o < 99.5 {
                // Within one linear bucket (0.5) of the oracle.
                assert!(
                    (est - o).abs() <= 0.5 + 1e-9,
                    "q={q}: linear estimate {est} vs oracle {o}"
                );
            }
        }
    }
}
