//! Thermal model with frequency throttling.
//!
//! Mobile SoCs are "particularly susceptible to thermal throttling"
//! (paper §III-D); the authors only start runs once the CPU has cooled to
//! its ~33 °C idle temperature. We model chip temperature as a first-order
//! system: heating proportional to dissipated power (the package power
//! the machine keeps from its per-rail power model), exponential cooling
//! toward ambient, and a piecewise frequency-multiplier curve — closing the
//! power → heat → throttle → performance loop.
//!
//! **Period rule.** Like a thermal governor polling its sensor, the state
//! steps only at the boundaries of a fixed [`ACCOUNTING_PERIOD`] of
//! 1,024 µs. Within a period [`ThermalState::accrue`] adds up the energy
//! drawn, in integer nanowatt-nanoseconds. At a boundary the temperature
//! takes one exact first-order step toward the equilibrium of that
//! period's mean power, using a per-period decay priced once per state.
//! Whole periods that pass at one power level fold into the same step in
//! closed form. The throttle curve is a step at the soft and hard limits
//! and the time constant is 20 s, so a throttle decision lags the heat by
//! at most one period. In exchange, accruing is an integer multiply-add,
//! and the state calls no libm at all.

use aitax_des::{SimSpan, SimTime};

/// The accounting period: 1,024 µs, the granularity at which Linux's PELT
/// accrues running time. Heat and CPU utilization are both folded per
/// period.
pub const ACCOUNTING_PERIOD: SimSpan = SimSpan::from_ns(1_024_000);

/// Static thermal parameters of a chipset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Idle / ambient-coupled temperature in °C (paper: ≈33 °C).
    pub idle_temp_c: f64,
    /// Steady-state temperature rise per watt of sustained dissipation,
    /// in °C/W — the junction-to-ambient thermal resistance of a
    /// passively cooled handset.
    pub rise_c_per_watt: f64,
    /// Thermal time constant (how fast the chip heats/cools).
    pub time_constant: SimSpan,
    /// Temperature at which light throttling begins.
    pub soft_limit_c: f64,
    /// Temperature at which aggressive throttling begins.
    pub hard_limit_c: f64,
}

impl ThermalModel {
    /// Frequency multiplier for a given temperature.
    ///
    /// `1.0` below the soft limit, `0.85` between soft and hard limits,
    /// `0.7` above the hard limit — a coarse but representative governor.
    #[inline]
    pub(crate) fn freq_multiplier(&self, temp_c: f64) -> f64 {
        if temp_c < self.soft_limit_c {
            1.0
        } else if temp_c < self.hard_limit_c {
            0.85
        } else {
            0.7
        }
    }

    /// Equilibrium temperature under a sustained power draw.
    #[inline]
    pub(crate) fn equilibrium_c(&self, watts: f64) -> f64 {
        self.idle_temp_c + watts * self.rise_c_per_watt
    }
}

/// Evolving thermal state of a running chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalState {
    model: ThermalModel,
    /// Temperature at the last period boundary (or forced instant).
    temp_c: f64,
    /// How much of the gap to equilibrium one period leaves:
    /// `e^(−period/τ)`, priced when the state is made.
    decay: f64,
    /// End of the current period.
    period_end: SimTime,
    /// Energy drawn in the current period up to `last_update`, in
    /// nanowatt-nanoseconds.
    energy: u64,
    last_update: SimTime,
}

impl ThermalState {
    /// Starts at the idle temperature (the paper's cool-down protocol).
    pub fn new(model: ThermalModel) -> Self {
        Self::with_temp(model, model.idle_temp_c)
    }

    /// Starts at an explicit temperature (for warm-start experiments).
    pub fn with_temp(model: ThermalModel, temp_c: f64) -> Self {
        let tau = model.time_constant.as_secs();
        let decay = if tau > 0.0 {
            exp_neg(ACCOUNTING_PERIOD.as_secs() / tau)
        } else {
            0.0
        };
        ThermalState {
            model,
            temp_c,
            decay,
            period_end: SimTime::ZERO + ACCOUNTING_PERIOD,
            energy: 0,
            last_update: SimTime::ZERO,
        }
    }

    /// Current temperature in °C: its value at the last period boundary.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Forces the temperature to `temp_c` at instant `now`, e.g. to model
    /// a skin-temperature emergency injected mid-run. Accrual restarts at
    /// the forced instant: the heat drawn earlier in the period is
    /// dropped, and the next period ends one [`ACCOUNTING_PERIOD`] after
    /// `now`.
    ///
    /// # Panics
    ///
    /// Panics if `temp_c` is not finite.
    pub fn force_temp(&mut self, now: SimTime, temp_c: f64) {
        assert!(temp_c.is_finite(), "temperature must be finite");
        self.temp_c = temp_c;
        self.period_end = now + ACCOUNTING_PERIOD;
        self.energy = 0;
        self.last_update = now;
    }

    /// Current frequency multiplier.
    #[inline]
    pub fn freq_multiplier(&self) -> f64 {
        self.model.freq_multiplier(self.temp_c)
    }

    /// Accrues the energy drawn since the last call at `power_nw`
    /// nanowatts, the package power over that whole stretch. Call it
    /// *before* the power changes.
    ///
    /// When `now` reaches the end of the current period, the temperature
    /// steps once: toward the equilibrium of the closed period's mean
    /// power, and then through the whole periods since at `power_nw`.
    /// Returns whether it stepped.
    #[inline]
    pub fn accrue(&mut self, now: SimTime, power_nw: u64) -> bool {
        if now < self.period_end {
            self.energy += power_nw * now.since(self.last_update).as_ns();
            self.last_update = now;
            return false;
        }
        let period = ACCOUNTING_PERIOD.as_ns();
        self.energy += power_nw * self.period_end.since(self.last_update).as_ns();
        let whole = now.since(self.period_end).as_ns() / period;
        // n periods close: the one that ended at `period_end`, at its mean
        // power, then `whole` more at `power_nw`. The second term is the
        // first period's departure from the held level, decayed through
        // the rest; it is exactly zero when the power never changed.
        let held = self.model.equilibrium_c(watts(power_nw));
        let first = self.model.equilibrium_c(watts(self.energy / period));
        let rest = powu(self.decay, whole);
        self.temp_c = held
            + (self.temp_c - held) * (rest * self.decay)
            + (first - held) * (1.0 - self.decay) * rest;
        self.period_end += SimSpan::from_ns((whole + 1) * period);
        let period_start = self.period_end - ACCOUNTING_PERIOD;
        self.energy = power_nw * now.since(period_start).as_ns();
        self.last_update = now;
        true
    }
}

/// Nanowatts as watts.
#[inline]
fn watts(nw: u64) -> f64 {
    nw as f64 * 1e-9
}

/// `e^(−x)` for finite `x ≥ 0`, in plain IEEE arithmetic: halve `x`
/// until it is at most 2⁻¹⁰, sum the Taylor series to `x⁶`, then square
/// back. It rounds the same way on every target and keeps libm out of
/// the thermal state: no libm code or table is touched to boot a
/// machine. Within 1e-14 of libm's `exp` for the per-period arguments
/// of time constants from 0.1 s up; bit-equal for the phone envelope's.
fn exp_neg(x: f64) -> f64 {
    let mut r = x;
    let mut halvings = 0;
    while r > 1.0 / 1024.0 {
        r *= 0.5;
        halvings += 1;
    }
    // 1 − r·(1 − r/2·(1 − r/3·(… (1 − r/6)))), innermost first.
    let mut e = 1.0;
    for k in (1..=6).rev() {
        e = 1.0 - r / f64::from(k) * e;
    }
    for _ in 0..halvings {
        e *= e;
    }
    e
}

/// `base^n` by binary exponentiation. Unlike `f64::powi`, whose rounding
/// the standard library leaves unspecified, this rounds the same way on
/// every target, and it calls no libm.
#[inline]
fn powu(mut base: f64, mut n: u64) -> f64 {
    let mut acc = 1.0;
    while n > 0 {
        if n & 1 == 1 {
            acc *= base;
        }
        base *= base;
        n >>= 1;
    }
    acc
}

/// A representative phone thermal envelope.
///
/// `rise_c_per_watt` is calibrated so a sustained four-big-core inference
/// loop on the SD845 (≈9 W package power) settles in the mid-50s °C —
/// warm but unthrottled — while adding GPU or full-chip load pushes past
/// the 65 °C soft limit, reproducing the §III-D throttling regime.
pub(crate) fn default_phone_thermals() -> ThermalModel {
    ThermalModel {
        idle_temp_c: 33.0,
        rise_c_per_watt: 2.5,
        time_constant: SimSpan::from_secs(20.0),
        soft_limit_c: 65.0,
        hard_limit_c: 78.0,
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    #[test]
    fn starts_at_idle_temperature() {
        let st = ThermalState::new(default_phone_thermals());
        assert_eq!(st.temp_c(), 33.0);
        assert_eq!(st.freq_multiplier(), 1.0);
    }

    const W: u64 = 1_000_000_000;

    fn at(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn heats_toward_power_equilibrium() {
        let mut st = ThermalState::new(default_phone_thermals());
        st.accrue(SimTime::ZERO + SimSpan::from_secs(200.0), 14 * W);
        // After 10 time constants, essentially at equilibrium 33 + 14 × 2.5 = 68.
        assert!((st.temp_c() - 68.0).abs() < 0.1, "temp {}", st.temp_c());
        assert!(st.freq_multiplier() < 1.0);
    }

    #[test]
    fn moderate_cpu_load_stays_unthrottled() {
        // A 4-big-core inference loop (~9 W) must not throttle: the paper's
        // benchmark-mode figures are measured unthrottled after cool-down.
        let m = default_phone_thermals();
        assert!(m.equilibrium_c(9.0) < m.soft_limit_c);
        assert!(m.equilibrium_c(14.0) > m.soft_limit_c);
    }

    #[test]
    fn cools_back_when_idle() {
        let model = default_phone_thermals();
        let mut st = ThermalState::with_temp(model, 70.0);
        st.accrue(SimTime::ZERO + SimSpan::from_secs(200.0), 0);
        assert!((st.temp_c() - 33.0).abs() < 0.1);
    }

    #[test]
    fn throttle_curve_is_monotone() {
        let m = default_phone_thermals();
        assert_eq!(m.freq_multiplier(40.0), 1.0);
        assert_eq!(m.freq_multiplier(70.0), 0.85);
        assert_eq!(m.freq_multiplier(90.0), 0.7);
    }

    #[test]
    fn the_per_period_decay_keeps_the_time_constant() {
        let st = ThermalState::new(default_phone_thermals());
        assert_eq!(st.decay, (-1.024e-3f64 / 20.0).exp());
        for tau_s in [0.1, 0.5, 2.0, 20.0, 600.0] {
            let x = ACCOUNTING_PERIOD.as_secs() / tau_s;
            let libm = (-x).exp();
            assert!((exp_neg(x) - libm).abs() <= 1e-14 * libm, "tau {tau_s} s");
        }
    }

    #[test]
    fn n_periods_at_constant_power_match_the_closed_form() {
        let model = default_phone_thermals();
        let period = ACCOUNTING_PERIOD.as_ns();
        let watts_held = 11 * W + 250_000_000;
        let eq = model.equilibrium_c(11.25);
        for n in [1u64, 2, 7, 64, 1_000, 20_000] {
            let mut st = ThermalState::with_temp(model, 40.0);
            // A call mid-period accrues but does not step.
            assert!(!st.accrue(at(period / 3), watts_held));
            assert_eq!(st.temp_c(), 40.0);
            assert!(st.accrue(at(n * period), watts_held));
            let d = st.decay;
            let expected = eq + (40.0 - eq) * (powu(d, n - 1) * d);
            assert_eq!(st.temp_c().to_bits(), expected.to_bits(), "n = {n}");
            // The same heat as n single-period steps, to rounding.
            let mut stepped = 40.0f64;
            for _ in 0..n {
                stepped += (eq - stepped) * (1.0 - d);
            }
            assert!((st.temp_c() - stepped).abs() < 1e-9, "n = {n}");
            // The next period starts empty at the boundary.
            assert_eq!(st.energy, 0);
            assert_eq!(st.period_end, at((n + 1) * period));
        }
    }

    #[test]
    fn a_period_steps_on_its_mean_power() {
        let model = default_phone_thermals();
        let period = ACCOUNTING_PERIOD.as_ns();
        let mut st = ThermalState::new(model);
        // 8 W for a quarter of the period, then 2 W: a 3.5 W mean.
        assert!(!st.accrue(at(period / 4), 8 * W));
        assert!(st.accrue(at(period), 2 * W));
        let eq = model.equilibrium_c(3.5);
        let expected = model.equilibrium_c(2.0)
            + (33.0 - model.equilibrium_c(2.0)) * st.decay
            + (eq - model.equilibrium_c(2.0)) * (1.0 - st.decay);
        assert_eq!(st.temp_c().to_bits(), expected.to_bits());
    }

    #[test]
    fn zero_length_accrual_is_noop() {
        let mut st = ThermalState::new(default_phone_thermals());
        let before = st.clone();
        assert!(!st.accrue(SimTime::ZERO, 5 * W));
        assert_eq!(st, before);
    }

    #[test]
    fn force_temp_mid_period_restarts_accrual() {
        let model = default_phone_thermals();
        let period = ACCOUNTING_PERIOD.as_ns();
        let mut st = ThermalState::new(model);
        let forced = at(period + period / 2);
        st.accrue(forced, 20 * W);
        st.force_temp(forced, 85.0);
        assert_eq!(st.temp_c(), 85.0);
        assert_eq!(st.freq_multiplier(), 0.7);
        // A zero-length accrual must not relax the forced temperature,
        // and the old period's boundary no longer closes anything.
        assert!(!st.accrue(forced, 0));
        assert!(!st.accrue(at(2 * period), 0));
        assert_eq!(st.temp_c(), 85.0);
        // The next period runs a full period from the forced instant, on
        // the energy drawn after it only: idle here, so one decay step.
        assert!(st.accrue(forced + ACCOUNTING_PERIOD, 0));
        let expected = 33.0 + (85.0 - 33.0) * st.decay;
        assert_eq!(st.temp_c().to_bits(), expected.to_bits());
        // Cooling proceeds normally from the forced point.
        st.accrue(forced + SimSpan::from_secs(200.0), 0);
        assert!((st.temp_c() - 33.0).abs() < 0.1);
    }

    #[test]
    fn powu_is_repeated_multiplication_for_small_powers() {
        let d = 0.99995f64;
        let mut p = 1.0f64;
        for n in 0..4u64 {
            assert_eq!(powu(d, n), p, "n = {n}");
            p *= d;
        }
        assert_eq!(powu(d, 1 << 40), 0.0);
    }
}
