//! Pure seeded arrival processes.
//!
//! A tenant's arrival stream is a pure function of `(root seed, tenant
//! index)` — *not* of which other tenants share the device or of any
//! simulation state. That purity is what makes the attribution pass
//! meaningful: the solo baseline and the multi-tenant run replay the
//! exact same offered load, so every latency difference is contention,
//! never traffic noise.

use aitax_des::rng::STREAM_ARRIVAL;
use aitax_des::{SimRng, SimSpan, SimTime};

/// Arrivals start this long into the run, leaving room for per-tenant
/// warmup requests (session setup, DSP mapping) to drain first. A fixed
/// epoch keeps arrival *absolute times* identical between solo and
/// multi-tenant runs even though warmup contention differs.
pub const ARRIVAL_EPOCH: SimSpan = SimSpan::from_ns(1_000_000_000);

/// The latest instant a tenant's last arrival may fall at: half of
/// [`SimTime`]'s range, which leaves the other half to serve it. Past it,
/// arrivals saturate at [`SimTime::MAX`] and the run cannot end.
pub const ARRIVAL_HORIZON: SimTime = SimTime::from_ns(u64::MAX / 2);

/// The gaps, in seconds, between tenant `k`'s successive arrivals.
fn gaps(root_seed: u64, k: u64, rate_hz: f64) -> impl Iterator<Item = f64> {
    let mut rng = SimRng::seed_from(root_seed).derive2(STREAM_ARRIVAL, k);
    let mean = 1.0 / rate_hz;
    std::iter::repeat_with(move || rng.exponential(mean))
}

/// The absolute arrival times of tenant `k`: a Poisson process of mean
/// rate `rate_hz` starting at [`ARRIVAL_EPOCH`].
pub fn arrival_times(root_seed: u64, k: u64, rate_hz: f64, n: usize) -> Vec<SimTime> {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    let mut at = SimTime::ZERO + ARRIVAL_EPOCH;
    gaps(root_seed, k, rate_hz)
        .take(n)
        .map(|gap| {
            at += SimSpan::from_secs(gap);
            at
        })
        .collect()
}

/// Checks that [`arrival_times`] can place tenant `k`'s `n` arrivals: the
/// mean gap must be finite, the expected last arrival must fall within
/// [`SimTime`]'s range (checked without drawing, so a huge `n` fails at
/// once), and the drawn last arrival no later than [`ARRIVAL_HORIZON`].
/// The error says which bound fails.
pub fn check_horizon(root_seed: u64, k: u64, rate_hz: f64, n: usize) -> Result<(), String> {
    let mean = 1.0 / rate_hz;
    if !mean.is_finite() || mean <= 0.0 {
        return Err(format!(
            "an arrival rate of {rate_hz:.3e} Hz has no finite mean gap"
        ));
    }
    let epoch = ARRIVAL_EPOCH.as_secs();
    let expected = epoch + n as f64 * mean;
    if expected > SimTime::MAX.as_secs() {
        return Err(format!(
            "{n} arrivals a mean {mean:.3e} s apart would end near {expected:.3e} s, \
             past the simulated clock's range"
        ));
    }
    let horizon = ARRIVAL_HORIZON.as_secs();
    let mut last = epoch;
    for gap in gaps(root_seed, k, rate_hz).take(n) {
        last += gap;
        if last > horizon {
            return Err(format!(
                "arrivals a mean {mean:.3e} s apart pass the {horizon:.3e} s horizon \
                 (half of the simulated clock's range)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pure_and_tenant_independent() {
        let a = arrival_times(7, 0, 20.0, 50);
        let b = arrival_times(7, 0, 20.0, 50);
        assert_eq!(a, b, "same (seed, k) must replay identically");
        let other = arrival_times(7, 1, 20.0, 50);
        assert_ne!(a, other, "tenants draw from distinct streams");
    }

    #[test]
    fn mean_interarrival_tracks_rate() {
        let times = arrival_times(3, 2, 50.0, 2000);
        let total = times.last().unwrap().since(times[0]).as_secs();
        let mean = total / (times.len() - 1) as f64;
        assert!(
            (mean - 0.02).abs() < 0.002,
            "50 Hz should average 20ms gaps, got {mean}s"
        );
    }

    #[test]
    fn arrivals_are_monotone_and_past_epoch() {
        let times = arrival_times(1, 0, 100.0, 100);
        assert!(times[0] >= SimTime::ZERO + ARRIVAL_EPOCH);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
