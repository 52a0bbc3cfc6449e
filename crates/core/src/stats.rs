//! Distribution statistics for latency samples.
//!
//! §IV-C: "workload performance analysis needs to report statistical
//! distributions in performance. Instead, today's standard practice is to
//! report a single ML performance number." [`Summary`] is the
//! distribution-first report the paper asks for.

use aitax_des::SimSpan;

/// A summary of a latency distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    samples_ms: Vec<f64>,
    sorted_ms: Vec<f64>,
}

impl Summary {
    /// Builds a summary from spans.
    pub(crate) fn from_spans(spans: impl IntoIterator<Item = SimSpan>) -> Self {
        Self::from_ms(spans.into_iter().map(|s| s.as_ms()))
    }

    /// Builds a summary from millisecond samples.
    pub(crate) fn from_ms(samples: impl IntoIterator<Item = f64>) -> Self {
        let samples_ms: Vec<f64> = samples.into_iter().collect();
        let mut sorted_ms = samples_ms.clone();
        sorted_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Summary {
            samples_ms,
            sorted_ms,
        }
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.samples_ms.len()
    }

    /// Whether there are no samples.
    pub(crate) fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// The raw samples in collection order (milliseconds).
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Arithmetic mean in ms (0 when empty) — what the paper reports as
    /// "the arithmetic mean of 500 runs" (§III-D).
    pub fn mean_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            0.0
        } else {
            self.samples_ms.iter().sum::<f64>() / self.samples_ms.len() as f64
        }
    }

    /// Population standard deviation in ms.
    pub fn stddev_ms(&self) -> f64 {
        if self.samples_ms.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_ms();
        let var = self
            .samples_ms
            .iter()
            .map(|x| (x - mean).powi(2))
            .sum::<f64>()
            / self.samples_ms.len() as f64;
        var.sqrt()
    }

    /// Interpolated percentile (`p` in 0..=100) in ms.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or there are no samples.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        assert!(!self.sorted_ms.is_empty(), "no samples");
        if self.sorted_ms.len() == 1 {
            return self.sorted_ms[0];
        }
        let rank = p / 100.0 * (self.sorted_ms.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted_ms[lo] + (self.sorted_ms[hi] - self.sorted_ms[lo]) * frac
    }

    /// Median in ms.
    pub fn median_ms(&self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// 50th percentile in ms (alias for [`Summary::median_ms`]).
    pub(crate) fn p50_ms(&self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// 95th percentile in ms.
    pub(crate) fn p95_ms(&self) -> f64 {
        self.percentile_ms(95.0)
    }

    /// 99th percentile in ms — the tail the paper argues single-number
    /// reporting hides.
    pub(crate) fn p99_ms(&self) -> f64 {
        self.percentile_ms(99.0)
    }

    /// Sum of all samples in ms.
    pub fn total_ms(&self) -> f64 {
        self.samples_ms.iter().sum()
    }

    /// Coefficient of variation (stddev / mean; 0 when the mean is 0).
    pub(crate) fn cv(&self) -> f64 {
        let mean = self.mean_ms();
        if mean == 0.0 {
            0.0
        } else {
            self.stddev_ms() / mean
        }
    }

    /// Empirical CDF over `buckets` equal-width bins spanning
    /// `[min, max]`: each entry is `(upper_edge_ms, cumulative_fraction)`
    /// and the last fraction is exactly 1. Empty summaries yield an
    /// empty CDF.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub(crate) fn cdf(&self, buckets: usize) -> Vec<(f64, f64)> {
        assert!(buckets > 0, "need at least one CDF bucket");
        if self.sorted_ms.is_empty() {
            return Vec::new();
        }
        let lo = self.min_ms();
        let hi = self.max_ms();
        let width = ((hi - lo) / buckets as f64).max(f64::MIN_POSITIVE);
        let n = self.sorted_ms.len() as f64;
        let mut out = Vec::with_capacity(buckets);
        let mut idx = 0usize;
        for b in 0..buckets {
            let edge = if b + 1 == buckets {
                hi
            } else {
                lo + width * (b + 1) as f64
            };
            while idx < self.sorted_ms.len() && self.sorted_ms[idx] <= edge {
                idx += 1;
            }
            let frac = if b + 1 == buckets {
                1.0
            } else {
                idx as f64 / n
            };
            out.push((edge, frac));
        }
        out
    }

    /// Smallest sample in ms.
    pub fn min_ms(&self) -> f64 {
        self.sorted_ms.first().copied().unwrap_or(0.0)
    }

    /// Largest sample in ms.
    pub(crate) fn max_ms(&self) -> f64 {
        self.sorted_ms.last().copied().unwrap_or(0.0)
    }

    /// The Fig. 11 metric: worst-case relative deviation from the median
    /// (`max(|max-med|, |med-min|) / med`).
    pub fn max_deviation_from_median(&self) -> f64 {
        if self.sorted_ms.is_empty() {
            return 0.0;
        }
        let med = self.median_ms();
        if med == 0.0 {
            return 0.0;
        }
        let up = self.max_ms() - med;
        let down = med - self.min_ms();
        up.max(down) / med
    }

    /// Fixed-width histogram over `[min, max]` with `bins` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        assert!(bins > 0, "need at least one bin");
        if self.sorted_ms.is_empty() {
            return Vec::new();
        }
        let lo = self.min_ms();
        let hi = self.max_ms();
        let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
        let mut counts = vec![0usize; bins];
        for &x in &self.sorted_ms {
            let idx = (((x - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (lo + width * (i as f64 + 0.5), c))
            .collect()
    }
}

/// CDF resolution used by [`DistStats`] artifacts.
pub const CDF_BUCKETS: usize = 16;

/// Distribution statistics of one metric, pooled across repeats.
///
/// Built from a full sample vector, so percentiles are exact; for
/// population-scale streaming aggregation (where no sample vector ever
/// materializes) use [`StreamDist`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct DistStats {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean (ms).
    pub mean: f64,
    /// Population standard deviation (ms).
    pub stddev: f64,
    /// Coefficient of variation.
    pub cv: f64,
    /// Smallest sample (ms).
    pub min: f64,
    /// Median (ms).
    pub p50: f64,
    /// 95th percentile (ms).
    pub p95: f64,
    /// 99th percentile (ms).
    pub p99: f64,
    /// Largest sample (ms).
    pub max: f64,
    /// The Fig. 11 metric: worst relative deviation from the median.
    pub max_dev_from_median: f64,
    /// Empirical CDF: `(upper_edge_ms, cumulative_fraction)` per bucket.
    pub cdf: Vec<(f64, f64)>,
}

impl DistStats {
    /// Builds the statistics from raw millisecond samples.
    pub fn from_ms(samples: &[f64]) -> Self {
        let s = Summary::from_ms(samples.iter().copied());
        if s.is_empty() {
            return DistStats {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                cv: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
                max_dev_from_median: 0.0,
                cdf: Vec::new(),
            };
        }
        DistStats {
            n: s.len(),
            mean: s.mean_ms(),
            stddev: s.stddev_ms(),
            cv: s.cv(),
            min: s.min_ms(),
            p50: s.p50_ms(),
            p95: s.p95_ms(),
            p99: s.p99_ms(),
            max: s.max_ms(),
            max_dev_from_median: s.max_deviation_from_median(),
            cdf: s.cdf(CDF_BUCKETS),
        }
    }
}

/// Number of histogram bins per decade in a [`LogHistogram`].
pub(crate) const LOG_HIST_BINS_PER_DECADE: usize = 16;

/// Lower edge of the first [`LogHistogram`] bin, in milliseconds (1 µs).
pub(crate) const LOG_HIST_LO_MS: f64 = 1e-3;

/// Number of decades a [`LogHistogram`] spans (1 µs .. 100 s).
pub(crate) const LOG_HIST_DECADES: usize = 8;

/// Total bin count of a [`LogHistogram`].
pub(crate) const LOG_HIST_BINS: usize = LOG_HIST_BINS_PER_DECADE * LOG_HIST_DECADES;

/// Fixed-bin log-latency histogram with an exactly mergeable
/// representation.
///
/// Every histogram shares the same global binning — `LOG_HIST_BINS`
/// log-spaced bins covering `LOG_HIST_LO_MS` to 100 s, with samples
/// outside the range clamped into the edge bins — so merging two
/// histograms is a pure `u64` bin-count addition: **exactly**
/// associative and commutative, unlike any floating-point accumulator.
/// This is what lets the fleet aggregator fold per-device results in a
/// canonical order and produce byte-identical artifacts for any shard
/// split or thread count.
///
/// Quantiles are estimated by walking the cumulative counts and
/// interpolating geometrically inside the hit bin; with 16 bins per
/// decade the bin ratio is `10^(1/16) ≈ 1.155`, bounding the estimate
/// error at ~7% of the true value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogHistogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_HIST_BINS],
            n: 0,
        }
    }

    /// The bin index a sample falls into (clamped into range).
    fn bin_of(ms: f64) -> usize {
        if ms.is_nan() || ms <= LOG_HIST_LO_MS {
            return 0;
        }
        let idx = ((ms / LOG_HIST_LO_MS).log10() * LOG_HIST_BINS_PER_DECADE as f64) as usize;
        idx.min(LOG_HIST_BINS - 1)
    }

    /// Lower edge of bin `i` in ms.
    pub(crate) fn bin_lo_ms(i: usize) -> f64 {
        LOG_HIST_LO_MS * 10f64.powf(i as f64 / LOG_HIST_BINS_PER_DECADE as f64)
    }

    /// Upper edge of bin `i` in ms.
    pub(crate) fn bin_hi_ms(i: usize) -> f64 {
        Self::bin_lo_ms(i + 1)
    }

    /// Records one millisecond sample.
    pub(crate) fn record(&mut self, ms: f64) {
        self.counts[Self::bin_of(ms)] += 1;
        self.n += 1;
    }

    /// Merges another histogram in (exact, order-independent).
    pub(crate) fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// `(bin_index, count)` for every non-empty bin, ascending.
    pub(crate) fn nonzero_bins(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Estimated quantile (`q` in `[0, 1]`) in ms; 0 when empty.
    ///
    /// Walks the cumulative counts to the bin containing the target rank
    /// and interpolates geometrically within it — a pure function of the
    /// (integer) bin counts, so estimates are identical for any merge
    /// history that produced the same counts.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub(crate) fn quantile_ms(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.n == 0 {
            return 0.0;
        }
        let target = q * self.n as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if next as f64 >= target {
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                let lo = Self::bin_lo_ms(i);
                let hi = Self::bin_hi_ms(i);
                // Geometric interpolation: log-linear within the bin.
                return lo * (hi / lo).powf(frac);
            }
            cum = next;
        }
        // All mass below target (q == 1 with rounding): top non-empty bin.
        let top = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        Self::bin_hi_ms(top)
    }
}

/// Mergeable streaming distribution: Welford moments + exact min/max +
/// a `LogHistogram` for tail quantiles.
///
/// The fleet's population aggregation runs on these: each device folds
/// its own request latencies into a `StreamDist`, and the aggregator
/// merges per-device partials **in device order** — a canonical
/// sequence, independent of shard split and thread count, so the merged
/// result (and every artifact byte rendered from it) is identical for
/// any parallel execution. The histogram half is exactly
/// order-independent; the Welford half is kept deterministic by that
/// canonical merge order.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDist {
    w: Welford,
    min: f64,
    max: f64,
    hist: LogHistogram,
}

impl Default for StreamDist {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDist {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamDist {
            w: Welford::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hist: LogHistogram::new(),
        }
    }

    /// Folds one millisecond sample in.
    pub fn record(&mut self, ms: f64) {
        self.w.push(ms);
        self.min = self.min.min(ms);
        self.max = self.max.max(ms);
        self.hist.record(ms);
    }

    /// Merges another accumulator in.
    ///
    /// Counts, min/max and histogram bins merge exactly; the Welford
    /// moments merge via Chan's parallel update, which is order-sensitive
    /// in the last float bits — callers that need byte-identical output
    /// must merge partials in a canonical order (the fleet aggregator
    /// merges in device order).
    pub fn merge(&mut self, other: &StreamDist) {
        self.w.merge(&other.w);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.hist.merge(&other.hist);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.w.count()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.w.mean()
    }

    /// Population standard deviation.
    pub(crate) fn stddev(&self) -> f64 {
        self.w.stddev()
    }

    /// Coefficient of variation.
    pub fn cv(&self) -> f64 {
        self.w.cv()
    }

    /// Smallest sample (0 when empty).
    pub fn min_ms(&self) -> f64 {
        if self.w.count() == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub(crate) fn max_ms(&self) -> f64 {
        if self.w.count() == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Histogram-estimated median.
    pub fn p50_ms(&self) -> f64 {
        self.hist.quantile_ms(0.50)
    }

    /// Histogram-estimated 95th percentile.
    pub fn p95_ms(&self) -> f64 {
        self.hist.quantile_ms(0.95)
    }

    /// Histogram-estimated 99th percentile.
    pub fn p99_ms(&self) -> f64 {
        self.hist.quantile_ms(0.99)
    }

    /// The underlying histogram.
    pub(crate) fn histogram(&self) -> &LogHistogram {
        &self.hist
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// The lab aggregator folds per-job statistics without materializing a
/// sample vector per metric; `Welford::merge` (Chan's parallel update)
/// combines accumulators built independently, so the result is the same
/// whichever order jobs finished in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Folds one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Combines two accumulators (Chan et al. parallel variance).
    pub(crate) fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.n += other.n;
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two samples).
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (stddev / mean; 0 when the mean is 0).
    pub(crate) fn cv(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            self.stddev() / self.mean()
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    fn s(v: &[f64]) -> Summary {
        Summary::from_ms(v.iter().copied())
    }

    #[test]
    fn mean_and_stddev() {
        let sum = s(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sum.mean_ms() - 5.0).abs() < 1e-12);
        assert!((sum.stddev_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let sum = s(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum.percentile_ms(0.0), 1.0);
        assert_eq!(sum.percentile_ms(100.0), 4.0);
        assert!((sum.median_ms() - 2.5).abs() < 1e-12);
        assert!((sum.percentile_ms(25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_unsorted_input() {
        let sum = s(&[9.0, 1.0, 5.0]);
        assert_eq!(sum.median_ms(), 5.0);
        assert_eq!(sum.min_ms(), 1.0);
        assert_eq!(sum.max_ms(), 9.0);
    }

    #[test]
    fn deviation_from_median_metric() {
        // Interpolated median 10.25, max 13 → ≈27%.
        let sum = s(&[9.5, 10.0, 10.5, 13.0]);
        assert!((sum.max_deviation_from_median() - (13.0 - 10.25) / 10.25).abs() < 1e-9);
        let spread = s(&[7.0, 10.0, 13.0]);
        assert!((spread.max_deviation_from_median() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_everything() {
        let sum = s(&[1.0, 1.1, 1.2, 5.0, 9.0, 9.1]);
        let h = sum.histogram(4);
        assert_eq!(h.iter().map(|(_, c)| c).sum::<usize>(), 6);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn empty_summary_is_safe() {
        let sum = s(&[]);
        assert!(sum.is_empty());
        assert_eq!(sum.mean_ms(), 0.0);
        assert_eq!(sum.stddev_ms(), 0.0);
        assert_eq!(sum.max_deviation_from_median(), 0.0);
        assert!(sum.histogram(3).is_empty());
    }

    #[test]
    fn from_spans_converts_units() {
        let sum = Summary::from_spans([SimSpan::from_ms(2.0), SimSpan::from_ms(4.0)]);
        assert_eq!(sum.mean_ms(), 3.0);
        assert_eq!(sum.len(), 2);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_panics() {
        s(&[1.0]).percentile_ms(101.0);
    }

    #[test]
    fn tail_percentile_aliases() {
        let sum = s(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(sum.p50_ms(), sum.median_ms());
        assert!((sum.p95_ms() - 95.05).abs() < 1e-9);
        assert!((sum.p99_ms() - 99.01).abs() < 1e-9);
        assert_eq!(sum.total_ms(), 5050.0);
    }

    #[test]
    fn cv_is_relative_spread() {
        let sum = s(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sum.cv() - 2.0 / 5.0).abs() < 1e-12);
        assert_eq!(s(&[]).cv(), 0.0);
        assert_eq!(s(&[0.0, 0.0]).cv(), 0.0);
    }

    #[test]
    fn cdf_reaches_one_and_is_monotone() {
        let sum = s(&[1.0, 2.0, 3.0, 4.0, 10.0]);
        let cdf = sum.cdf(4);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0, "edges increase");
            assert!(w[0].1 <= w[1].1, "fractions non-decreasing");
        }
        // 4 of 5 samples are ≤ 4.0 ms, inside the first two buckets.
        assert!((cdf[1].1 - 0.8).abs() < 1e-12);
        assert!(s(&[]).cdf(3).is_empty());
    }

    #[test]
    fn welford_matches_batch_summary() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for x in data {
            w.push(x);
        }
        let sum = s(&data);
        assert_eq!(w.count(), 8);
        assert!((w.mean() - sum.mean_ms()).abs() < 1e-12);
        assert!((w.stddev() - sum.stddev_ms()).abs() < 1e-12);
        assert!((w.cv() - sum.cv()).abs() < 1e-12);
    }

    /// Deterministic pseudo-random sample stream for merge properties.
    fn stream(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = aitax_des::SimRng::seed_from(seed);
        (0..n).map(|_| rng.lognormal(25.0, 0.8)).collect()
    }

    /// Splits `data` into contiguous chunks at pseudo-random boundaries.
    fn random_split(data: &[f64], pieces: usize, seed: u64) -> Vec<&[f64]> {
        let mut rng = aitax_des::SimRng::seed_from(seed);
        let mut cuts: Vec<usize> = (0..pieces - 1)
            .map(|_| rng.uniform_u64(0, data.len() as u64 + 1) as usize)
            .collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();
        cuts.windows(2).map(|w| &data[w[0]..w[1]]).collect()
    }

    #[test]
    fn dist_stats_pools_samples() {
        let d = DistStats::from_ms(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.n, 4);
        assert!((d.mean - 2.5).abs() < 1e-12);
        assert_eq!(d.cdf.len(), CDF_BUCKETS);
        assert_eq!(d.cdf.last().unwrap().1, 1.0);
        let empty = DistStats::from_ms(&[]);
        assert_eq!(empty.n, 0);
        assert!(empty.cdf.is_empty());
    }

    #[test]
    fn log_histogram_bins_cover_range_and_clamp() {
        let mut h = LogHistogram::new();
        h.record(0.0); // clamps into bin 0
        h.record(1e-9);
        h.record(1e9); // clamps into the top bin
        h.record(25.0);
        let nz = h.nonzero_bins();
        assert_eq!(nz.first().unwrap().0, 0);
        assert_eq!(nz.last().unwrap().0, LOG_HIST_BINS - 1);
        assert_eq!(nz.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        // Bin edges are log-spaced: each decade spans BINS_PER_DECADE bins.
        let ratio = LogHistogram::bin_hi_ms(3) / LogHistogram::bin_lo_ms(3);
        assert!((ratio - 10f64.powf(1.0 / LOG_HIST_BINS_PER_DECADE as f64)).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_quantiles_track_true_percentiles() {
        let data = stream(20_000, 42);
        let mut h = LogHistogram::new();
        for &x in &data {
            h.record(x);
        }
        let sum = s(&data);
        for (q, p) in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)] {
            let est = h.quantile_ms(q);
            let exact = sum.percentile_ms(p);
            assert!(
                (est - exact).abs() / exact < 0.08,
                "q{q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(LogHistogram::new().quantile_ms(0.5), 0.0);
        assert!(h.quantile_ms(0.0) <= h.quantile_ms(1.0));
    }

    #[test]
    fn log_histogram_merge_is_exactly_associative_and_commutative() {
        let data = stream(3_000, 7);
        // Whole-stream reference.
        let mut whole = LogHistogram::new();
        for &x in &data {
            whole.record(x);
        }
        for (pieces, seed) in [(2, 1), (3, 2), (7, 3), (16, 4)] {
            let parts: Vec<LogHistogram> = random_split(&data, pieces, seed)
                .into_iter()
                .map(|chunk| {
                    let mut h = LogHistogram::new();
                    for &x in chunk {
                        h.record(x);
                    }
                    h
                })
                .collect();
            // Left-to-right fold == whole stream, exactly.
            let mut fold = LogHistogram::new();
            for p in &parts {
                fold.merge(p);
            }
            assert_eq!(fold, whole, "{pieces}-way split must merge exactly");
            // Reverse order == same result (commutativity).
            let mut rev = LogHistogram::new();
            for p in parts.iter().rev() {
                rev.merge(p);
            }
            assert_eq!(rev, whole);
            // Arbitrary regrouping (associativity): pairwise tree merge.
            let mut tree = parts;
            while tree.len() > 1 {
                let mut next = Vec::new();
                for pair in tree.chunks(2) {
                    let mut m = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        m.merge(b);
                    }
                    next.push(m);
                }
                tree = next;
            }
            assert_eq!(tree[0], whole);
        }
    }

    #[test]
    fn stream_dist_matches_batch_summary() {
        let data = stream(5_000, 11);
        let mut d = StreamDist::new();
        for &x in &data {
            d.record(x);
        }
        let sum = s(&data);
        assert_eq!(d.count() as usize, sum.len());
        assert!((d.mean() - sum.mean_ms()).abs() < 1e-9);
        assert!((d.stddev() - sum.stddev_ms()).abs() < 1e-9);
        assert_eq!(d.min_ms(), sum.min_ms());
        assert_eq!(d.max_ms(), sum.max_ms());
        assert!((d.p50_ms() - sum.p50_ms()).abs() / sum.p50_ms() < 0.08);
        assert!((d.p99_ms() - sum.p99_ms()).abs() / sum.p99_ms() < 0.08);
        let empty = StreamDist::new();
        assert_eq!(empty.min_ms(), 0.0);
        assert_eq!(empty.max_ms(), 0.0);
        assert_eq!(empty.p50_ms(), 0.0);
    }

    #[test]
    fn stream_dist_canonical_fold_is_split_invariant() {
        // The fleet determinism contract: per-device partials merged in
        // device order give bit-identical results for ANY shard split,
        // because the merge sequence never changes — only which worker
        // computed each partial. Model that here: fixed per-device
        // partials, arbitrary contiguous shard groupings, canonical fold.
        let data = stream(2_000, 23);
        let devices: Vec<StreamDist> = data
            .chunks(40)
            .map(|chunk| {
                let mut d = StreamDist::new();
                for &x in chunk {
                    d.record(x);
                }
                d
            })
            .collect();
        let fold_all = |parts: &[StreamDist]| {
            let mut acc = StreamDist::new();
            for p in parts {
                acc.merge(p);
            }
            acc
        };
        let reference = fold_all(&devices);
        for shards in [1, 2, 3, 7, 13, devices.len()] {
            // Contiguous shard ranges, exactly how the fleet splits work.
            let per = devices.len().div_ceil(shards);
            let grouped: Vec<&[StreamDist]> = devices.chunks(per).collect();
            // The aggregator folds device partials in device order,
            // ignoring shard boundaries entirely.
            let mut acc = StreamDist::new();
            for shard in &grouped {
                for d in *shard {
                    acc.merge(d);
                }
            }
            assert_eq!(acc, reference, "{shards}-shard fold must be identical");
        }
    }

    #[test]
    fn stream_dist_merge_commutes_within_float_tolerance() {
        let data = stream(4_000, 31);
        let (a, b) = data.split_at(1_234);
        let build = |chunk: &[f64]| {
            let mut d = StreamDist::new();
            for &x in chunk {
                d.record(x);
            }
            d
        };
        let (da, db) = (build(a), build(b));
        let mut ab = da.clone();
        ab.merge(&db);
        let mut ba = db.clone();
        ba.merge(&da);
        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.histogram(), ba.histogram(), "histogram half is exact");
        assert_eq!(ab.min_ms(), ba.min_ms());
        assert_eq!(ab.max_ms(), ba.max_ms());
        assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        assert!((ab.stddev() - ba.stddev()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.7).sin() * 3.0 + 10.0)
            .collect();
        let mut whole = Welford::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &data[..17] {
            a.push(x);
        }
        for &x in &data[17..] {
            b.push(x);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert!((merged.variance() - whole.variance()).abs() < 1e-9);
        // Merging into an empty accumulator copies; merging empty is a no-op.
        let mut empty = Welford::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        let mut same = whole;
        same.merge(&Welford::new());
        assert_eq!(same, whole);
    }
}
