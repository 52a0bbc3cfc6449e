//! Seedable randomness for workload and noise models.
//!
//! [`SimRng`] is a self-contained deterministic PRNG (xoshiro256** seeded
//! via SplitMix64 — no external dependencies, so builds are reproducible
//! offline) plus the handful of distributions the simulator needs (normal,
//! log-normal, exponential, bounded jitter). The same seed always
//! reproduces the same simulation, which the integration tests rely on.

/// Deterministic random source for the simulator.
///
/// # Example
///
/// ```
/// use aitax_des::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

// High-level stream ids for `root.derive2(STREAM_*, k)`. They live in one
// table because two consumers passing the same id draw the same stream,
// silently correlating quantities the experiment design treats as
// independent. Values are part of every artifact: never renumber.

/// Device-spec sampling in a fleet population.
pub const STREAM_DEVICE: u64 = 1;
/// The main (latency) run of a fleet device.
pub const STREAM_RUN: u64 = 2;
/// The traced energy-probe run of a fleet device.
pub const STREAM_PROBE: u64 = 3;
/// Co-resident tenant sampling on a fleet device. A separate stream so
/// enabling multi-tenancy never perturbs the device fields the other
/// streams sample — artifacts at `multi_tenant_rate` 0 stay
/// byte-identical to populations sampled before the knob existed.
pub const STREAM_TENANT: u64 = 4;
/// Serve tenant arrival processes.
pub const STREAM_ARRIVAL: u64 = 11;

/// SplitMix64 step — used only to expand a 64-bit seed into state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// xoshiro256** core step.
    #[inline]
    fn next_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Splittable stream derivation: an independent child generator keyed
    /// by `stream_id`, computed **without mutating** `self`.
    ///
    /// `derive` is a pure function of `(parent state, stream_id)`, so
    /// children never depend on the order they were derived in. The parallel sweep
    /// engine relies on this: job *k* gets `root.derive(k)` and sees the
    /// same stream no matter which worker thread picks it up or when.
    pub fn derive(&self, stream_id: u64) -> SimRng {
        // Absorb the four state words and the stream id through a
        // SplitMix64 sponge (keeping the scrambled output each round),
        // then expand the digest into fresh state.
        let mut acc = 0x243F_6A88_85A3_08D3u64; // pi fractional bits
        for &w in &self.s {
            let mut t = acc ^ w;
            acc = splitmix64(&mut t);
        }
        let mut t = acc ^ stream_id.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let seed = splitmix64(&mut t);
        SimRng::seed_from(seed)
    }

    /// Two-level stream derivation: `derive2(hi, lo)` is
    /// `derive(hi).derive(lo)`, the canonical addressing for nested
    /// entity spaces such as device × request.
    ///
    /// Pure like [`SimRng::derive`] — a function of
    /// `(parent state, hi, lo)` only — so the fleet can address request
    /// *r* of device *d* as `root.derive2(d, r)` and obtain the same
    /// stream on any shard, thread, or re-run. The two levels are
    /// hierarchical, not interchangeable: `derive2(a, b)` and
    /// `derive2(b, a)` are unrelated streams.
    pub fn derive2(&self, hi: u64, lo: u64) -> SimRng {
        self.derive(hi).derive(lo)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        let x = lo + (hi - lo) * self.next_f64();
        // Guard the open upper bound against rounding.
        if x < hi {
            x
        } else {
            lo
        }
    }

    /// Uniform integer sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        let range = hi - lo;
        // Multiply-shift rejection-free mapping; bias is < 2^-64 × range,
        // far below anything a simulation distribution can observe.
        let wide = (self.next_raw() as u128) * (range as u128);
        lo + (wide >> 64) as u64
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal sample (Box–Muller).
    #[inline]
    pub(crate) fn standard_normal(&mut self) -> f64 {
        // Box–Muller transform; map u1 into (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Log-normal sample parameterized by the *median* and a multiplicative
    /// spread `sigma` (standard deviation of the underlying normal).
    ///
    /// Heavy-tailed delays (interrupt latency, scheduler wakeups) use this.
    #[inline]
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.standard_normal()).exp()
    }

    /// Exponential sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.next_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Multiplicative jitter factor in `[1 - frac, 1 + frac]`.
    ///
    /// `jitter(0.05)` returns a factor within ±5%. `frac == 0` returns 1.
    #[inline]
    pub fn jitter(&mut self, frac: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0,1)"
        );
        if frac == 0.0 {
            1.0
        } else {
            self.uniform(1.0 - frac, 1.0 + frac)
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        let i = self.uniform_u64(0, items.len() as u64) as usize;
        &items[i]
    }

    /// Raw 64-bit sample (for hashing/salting).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_distinct() {
        let ids = [
            STREAM_DEVICE,
            STREAM_RUN,
            STREAM_PROBE,
            STREAM_TENANT,
            STREAM_ARRIVAL,
        ];
        let distinct: std::collections::BTreeSet<u64> = ids.into_iter().collect();
        assert_eq!(distinct.len(), ids.len(), "stream ids collide: {ids:?}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_is_pure_and_order_independent() {
        let root = SimRng::seed_from(42);
        // Same id twice → identical stream; parent state untouched.
        let mut a = root.derive(7);
        let mut b = root.derive(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Deriving other ids in between changes nothing.
        let _ = root.derive(1);
        let _ = root.derive(1000);
        let mut c = root.derive(7);
        let mut a2 = root.derive(7);
        for _ in 0..64 {
            assert_eq!(a2.next_u64(), c.next_u64());
        }
    }

    #[test]
    fn derive_streams_are_statistically_independent() {
        let root = SimRng::seed_from(9);
        // First draw of 512 consecutive stream ids: all distinct, and
        // the bit density over the pool stays near 50%.
        let firsts: Vec<u64> = (0..512).map(|i| root.derive(i).next_u64()).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 512, "no first-draw collisions");
        let ones: u32 = firsts.iter().map(|x| x.count_ones()).sum();
        let density = f64::from(ones) / (512.0 * 64.0);
        assert!((density - 0.5).abs() < 0.02, "bit density {density}");
        // Adjacent streams never agree draw-for-draw.
        let mut s0 = root.derive(100);
        let mut s1 = root.derive(101);
        let same = (0..256).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert_eq!(same, 0);
        // Uniform samples from pooled streams have a sane mean (LCG-style
        // correlation across streams would drag this off-center).
        let n = 64;
        let mean: f64 = (0..n)
            .map(|i| {
                let mut r = root.derive(i + 2000);
                (0..32).map(|_| r.uniform(0.0, 1.0)).sum::<f64>() / 32.0
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "pooled mean {mean}");
    }

    #[test]
    fn derive2_is_pure_and_order_independent() {
        let root = SimRng::seed_from(42);
        // Same address twice → identical stream; parent state untouched.
        let mut a = root.derive2(7, 9);
        let mut b = root.derive2(7, 9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Deriving other addresses in between changes nothing.
        let _ = root.derive2(7, 10);
        let _ = root.derive2(1000, 9);
        let mut c = root.derive2(7, 9);
        let mut a2 = root.derive2(7, 9);
        for _ in 0..64 {
            assert_eq!(a2.next_u64(), c.next_u64());
        }
        // And it is exactly the nested derivation it documents.
        assert_eq!(
            root.derive2(7, 9).next_u64(),
            root.derive(7).derive(9).next_u64()
        );
    }

    #[test]
    fn derive2_addresses_are_distinct() {
        let root = SimRng::seed_from(3);
        // First draws over a 32×32 address grid: all distinct, and the
        // levels are hierarchical — swapping (hi, lo) changes the stream.
        let mut firsts: Vec<u64> = (0..32u64)
            .flat_map(|d| (0..32u64).map(move |r| (d, r)))
            .map(|(d, r)| root.derive2(d, r).next_u64())
            .collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 1024, "no first-draw collisions");
        assert_ne!(
            root.derive2(1, 2).next_u64(),
            root.derive2(2, 1).next_u64(),
            "levels must not commute"
        );
    }

    #[test]
    fn derive_differs_between_parents() {
        let root = SimRng::seed_from(5);
        let derived = root.derive(3).next_u64();
        let other = SimRng::seed_from(6).derive(3).next_u64();
        assert_ne!(derived, other, "derivation depends on parent state");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::seed_from(5);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn uniform_u64_covers_range() {
        let mut r = SimRng::seed_from(21);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let x = r.uniform_u64(8, 16);
            assert!((8..16).contains(&x));
            seen[(x - 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values should appear");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = SimRng::seed_from(9);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn lognormal_is_positive_with_right_median() {
        let mut r = SimRng::seed_from(11);
        let mut samples: Vec<f64> = (0..10_001).map(|_| r.lognormal(4.0, 0.5)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5000];
        assert!((median - 4.0).abs() < 0.2, "median {median}");
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut r = SimRng::seed_from(13);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn jitter_zero_is_identity() {
        let mut r = SimRng::seed_from(17);
        assert_eq!(r.jitter(0.0), 1.0);
        for _ in 0..100 {
            let j = r.jitter(0.1);
            assert!((0.9..=1.1).contains(&j));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(19);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
