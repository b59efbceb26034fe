//! [`MetricsRegistry`]: counters, gauges, and fixed-bucket histograms with
//! a deterministic text exposition format.
//!
//! The registry is a plain value, not a global: each subsystem owns one
//! (the simulator's telemetry observer, the `redbin-served` worker pool)
//! and surfaces it through JSON (`redbin::json::metrics`) or the wire
//! `METRICS` command. Iteration order is insertion order, so renders are
//! reproducible run to run.

use std::fmt::Write as _;

/// Default bucket upper bounds for time-valued histograms, in
/// milliseconds: roughly logarithmic from 1 ms to one minute.
pub const DEFAULT_TIME_BOUNDS_MS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10_000, 30_000, 60_000,
];

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper limits in ascending order; a sample lands
/// in the first bucket whose bound it does not exceed, or in the implicit
/// overflow bucket past the last bound. The exposition format renders
/// cumulative `le=`-style bucket lines, but [`counts`](Histogram::counts)
/// returns the raw per-bucket tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    /// An empty histogram with the given inclusive upper bounds.
    ///
    /// Out-of-order or duplicate bounds are tolerated but pointless; the
    /// first matching bucket wins.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Rebuilds a histogram from raw per-bucket counts (one more count
    /// than bounds, the last being the overflow bucket) and a sample sum.
    /// Used by accumulators that tally in a flat array during a hot loop
    /// and flush once at the end. Mismatched lengths are reconciled by
    /// truncating/zero-padding the counts.
    #[must_use]
    pub fn from_counts(bounds: &[u64], counts: &[u64], sum: u64) -> Self {
        let mut h = Histogram::new(bounds);
        for (slot, c) in h.counts.iter_mut().zip(counts) {
            *slot = *c;
        }
        h.count = h.counts.iter().sum();
        h.sum = sum;
        h
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(value);
        self.count += 1;
    }

    /// The inclusive upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Raw per-bucket counts; the final entry is the overflow bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value, or 0.0 for an empty histogram (never NaN).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// An ordered collection of named counters, gauges, and histograms.
///
/// Names are free-form but the workspace convention is kebab-case, same
/// as the JSON layer (`sim-cycles`, `job-service-ms`). Metrics appear in
/// renders in the order they were first touched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// True when no metric has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to counter `name` (registering it at zero first).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some((_, v)) = self.counters.iter_mut().find(|(n, _)| n == name) {
            *v = v.saturating_add(delta);
        } else {
            self.counters.push((name.to_string(), delta));
        }
    }

    /// Current value of counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sets gauge `name`. Non-finite values are sanitised to 0.0 so no
    /// downstream render (JSON or text) ever contains NaN/inf.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        if let Some((_, v)) = self.gauges.iter_mut().find(|(n, _)| n == name) {
            *v = value;
        } else {
            self.gauges.push((name.to_string(), value));
        }
    }

    /// Current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Registers histogram `name` with the given bounds if absent.
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) {
        if !self.histograms.iter().any(|(n, _)| n == name) {
            self.histograms
                .push((name.to_string(), Histogram::new(bounds)));
        }
    }

    /// Records a sample into histogram `name`, registering it with
    /// [`DEFAULT_TIME_BOUNDS_MS`] on first use.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
            h.observe(value);
            return;
        }
        let mut h = Histogram::new(DEFAULT_TIME_BOUNDS_MS);
        h.observe(value);
        self.histograms.push((name.to_string(), h));
    }

    /// Installs (or replaces) a fully built histogram under `name`.
    pub fn set_histogram(&mut self, name: &str, histogram: Histogram) {
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
            *h = histogram;
        } else {
            self.histograms.push((name.to_string(), histogram));
        }
    }

    /// Histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All gauges, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Folds every metric from `other` into `self`: counters add,
    /// gauges overwrite, histograms merge bucket-wise when the bounds
    /// match (and are replaced otherwise).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (n, v) in other.counters() {
            self.add(n, v);
        }
        for (n, v) in other.gauges() {
            self.set_gauge(n, v);
        }
        for (n, h) in other.histograms() {
            match self.histograms.iter_mut().find(|(name, _)| name == n) {
                Some((_, mine)) if mine.bounds == h.bounds => {
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += *b;
                    }
                    mine.sum = mine.sum.saturating_add(h.sum);
                    mine.count += h.count;
                }
                _ => self.set_histogram(n, h.clone()),
            }
        }
    }

    /// Renders the registry in a line-oriented text exposition format:
    ///
    /// ```text
    /// # TYPE sim-cycles counter
    /// sim-cycles 1234
    /// # TYPE queue-depth gauge
    /// queue-depth 3
    /// # TYPE job-service-ms histogram
    /// job-service-ms{le="1"} 0
    /// job-service-ms{le="+Inf"} 9
    /// job-service-ms-sum 417
    /// job-service-ms-count 9
    /// ```
    ///
    /// Bucket lines are cumulative (each `le` bound counts every sample
    /// at or below it), so monitoring-side quantile math works directly.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (b, c) in h.bounds.iter().zip(&h.counts) {
                cum += c;
                let _ = writeln!(out, "{name}{{le=\"{b}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}-sum {}\n{name}-count {}", h.sum, h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("jobs"), 0);
        r.add("jobs", 1);
        r.add("jobs", 4);
        assert_eq!(r.counter("jobs"), 5);
        assert!(!r.is_empty());
    }

    #[test]
    fn gauges_sanitise_non_finite_values() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("rate", f64::NAN);
        assert_eq!(r.gauge("rate"), Some(0.0));
        r.set_gauge("rate", f64::INFINITY);
        assert_eq!(r.gauge("rate"), Some(0.0));
        r.set_gauge("rate", 2.5);
        assert_eq!(r.gauge("rate"), Some(2.5));
    }

    #[test]
    fn histogram_buckets_partition_every_sample() {
        let mut h = Histogram::new(&[1, 5, 10]);
        for v in [0, 1, 2, 5, 6, 10, 11, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.counts().iter().sum::<u64>(), h.count());
        assert_eq!(h.sum(), 1035);
        assert!((h.mean() - 1035.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_mean_is_zero_not_nan() {
        let h = Histogram::new(DEFAULT_TIME_BOUNDS_MS);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn from_counts_reconstructs_totals() {
        let h = Histogram::from_counts(&[0, 1, 2], &[4, 3, 2, 1], 17);
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 17);
        assert_eq!(h.counts(), &[4, 3, 2, 1]);
        // Short count slices zero-pad.
        let h = Histogram::from_counts(&[0, 1], &[5], 0);
        assert_eq!(h.counts(), &[5, 0, 0]);
    }

    #[test]
    fn render_text_is_deterministic_and_cumulative() {
        let mut r = MetricsRegistry::new();
        r.add("sim-cycles", 100);
        r.set_gauge("queue-depth", 3.0);
        r.register_histogram("lat-ms", &[1, 10]);
        for v in [0, 5, 50] {
            r.observe("lat-ms", v);
        }
        let text = r.render_text();
        assert_eq!(text, r.render_text());
        assert!(text.contains("# TYPE sim-cycles counter\nsim-cycles 100\n"));
        assert!(text.contains("# TYPE queue-depth gauge\nqueue-depth 3\n"));
        assert!(text.contains("lat-ms{le=\"1\"} 1\n"));
        assert!(text.contains("lat-ms{le=\"10\"} 2\n"));
        assert!(text.contains("lat-ms{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat-ms-sum 55\nlat-ms-count 3\n"));
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("n", 2);
        b.add("n", 3);
        a.register_histogram("h", &[1, 2]);
        b.register_histogram("h", &[1, 2]);
        a.observe("h", 1);
        b.observe("h", 2);
        b.set_gauge("g", 7.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.gauge("g"), Some(7.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.counts(), &[1, 1, 0]);
    }

    #[test]
    fn observe_auto_registers_with_default_bounds() {
        let mut r = MetricsRegistry::new();
        r.observe("ms", 3);
        let h = r.histogram("ms").unwrap();
        assert_eq!(h.bounds(), DEFAULT_TIME_BOUNDS_MS);
        assert_eq!(h.count(), 1);
    }
}
