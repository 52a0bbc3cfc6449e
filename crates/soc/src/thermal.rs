//! Thermal model with frequency throttling.
//!
//! Mobile SoCs are "particularly susceptible to thermal throttling"
//! (paper §III-D); the authors only start runs once the CPU has cooled to
//! its ~33 °C idle temperature. We model chip temperature as a first-order
//! system: heating proportional to dissipated power (watts metered from
//! the per-rail power model), exponential cooling toward ambient, and a
//! piecewise frequency-multiplier curve — closing the power → heat →
//! throttle → performance loop.

use aitax_des::{SimSpan, SimTime};

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
    pub(crate) fn equilibrium_c(&self, watts: f64) -> f64 {
        self.idle_temp_c + watts * self.rise_c_per_watt
    }
}

/// Evolving thermal state of a running chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalState {
    model: ThermalModel,
    temp_c: f64,
    last_update: SimTime,
}

impl ThermalState {
    /// Starts at the idle temperature (the paper's cool-down protocol).
    pub fn new(model: ThermalModel) -> Self {
        ThermalState {
            temp_c: model.idle_temp_c,
            model,
            last_update: SimTime::ZERO,
        }
    }

    /// Starts at an explicit temperature (for warm-start experiments).
    pub fn with_temp(model: ThermalModel, temp_c: f64) -> Self {
        ThermalState {
            temp_c,
            model,
            last_update: SimTime::ZERO,
        }
    }

    /// Current temperature in °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Forces the temperature to `temp_c` at instant `now`, e.g. to model
    /// a skin-temperature emergency injected mid-run. Unlike
    /// [`ThermalState::with_temp`] this keeps the integration clock
    /// consistent, so the next [`ThermalState::advance`] relaxes from the
    /// forced temperature rather than replaying the whole elapsed run.
    pub fn force_temp(&mut self, now: SimTime, temp_c: f64) {
        assert!(temp_c.is_finite(), "temperature must be finite");
        self.temp_c = temp_c;
        self.last_update = now;
    }

    /// The instant the state was last integrated to (by
    /// [`ThermalState::advance`] or [`ThermalState::force_temp`]).
    pub fn last_update(&self) -> SimTime {
        self.last_update
    }

    /// Current frequency multiplier.
    pub fn freq_multiplier(&self) -> f64 {
        self.model.freq_multiplier(self.temp_c)
    }

    /// Advances the thermal state to `now` given the average power
    /// dissipated (in watts) since the last update.
    ///
    /// Uses the exact first-order step toward the power-dependent
    /// equilibrium `idle + watts × rise_per_watt`.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn advance(&mut self, now: SimTime, watts: f64) {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be finite and non-negative, got {watts} W"
        );
        let dt = now.since(self.last_update);
        self.last_update = now;
        if dt.is_zero() {
            return;
        }
        let target = self.model.equilibrium_c(watts);
        let tau = self.model.time_constant.as_secs();
        let alpha = if tau > 0.0 {
            1.0 - (-dt.as_secs() / tau).exp()
        } else {
            1.0
        };
        self.temp_c += (target - self.temp_c) * alpha;
    }
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

    #[test]
    fn heats_toward_power_equilibrium() {
        let mut st = ThermalState::new(default_phone_thermals());
        st.advance(SimTime::from_ns(0), 14.0);
        st.advance(SimTime::ZERO + SimSpan::from_secs(200.0), 14.0);
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
        st.advance(SimTime::ZERO + SimSpan::from_secs(200.0), 0.0);
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
    fn zero_dt_is_noop() {
        let mut st = ThermalState::new(default_phone_thermals());
        let before = st.temp_c();
        st.advance(SimTime::ZERO, 5.0);
        assert_eq!(st.temp_c(), before);
    }

    #[test]
    fn force_temp_keeps_integration_clock() {
        let mut st = ThermalState::new(default_phone_thermals());
        st.advance(SimTime::ZERO + SimSpan::from_secs(10.0), 0.0);
        st.force_temp(SimTime::ZERO + SimSpan::from_secs(10.0), 85.0);
        assert_eq!(st.temp_c(), 85.0);
        assert_eq!(st.last_update(), SimTime::ZERO + SimSpan::from_secs(10.0));
        assert_eq!(st.freq_multiplier(), 0.7);
        // A zero-length advance must not relax the forced temperature.
        st.advance(SimTime::ZERO + SimSpan::from_secs(10.0), 0.0);
        assert_eq!(st.temp_c(), 85.0);
        // But cooling proceeds normally from the forced point.
        st.advance(SimTime::ZERO + SimSpan::from_secs(210.0), 0.0);
        assert!((st.temp_c() - 33.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "power must be finite")]
    fn negative_power_panics() {
        let mut st = ThermalState::new(default_phone_thermals());
        st.advance(SimTime::from_ns(1), -1.0);
    }
}
