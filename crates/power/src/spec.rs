//! Static power descriptions of SoC voltage rails.
//!
//! Follows the classic CMOS decomposition: dynamic power `C·V²·f` per
//! operating point plus a static leakage term that either disappears when
//! the rail is power-gated or burns continuously when it is not. Loosely
//! coupled accelerators (GPU, DSP, NPU) are modelled as two-state rails
//! (busy/idle) because their internal DVFS is invisible to the host-side
//! measurements the paper reports.

use std::fmt;

/// One DVFS operating point of a core rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Supply voltage in volts at this frequency.
    pub voltage_v: f64,
}

/// Power description of one CPU core's rail.
///
/// Catalog entries share a canonical five-step OPP ladder (see
/// [`CoreRailSpec::scaled`]); the voltage curve is what makes low
/// operating points disproportionately cheap (`P ∝ V²f`).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreRailSpec {
    /// Rail name, e.g. `"big"` / `"little"` / `"prime"`.
    pub name: &'static str,
    /// Operating points in ascending frequency order. Never empty.
    pub opps: Vec<OperatingPoint>,
    /// Effective switched capacitance in farads (`P_dyn = C·V²·f`).
    pub capacitance_f: f64,
    /// Static leakage in watts while the rail is up.
    pub leakage_w: f64,
    /// Whether the rail collapses to zero power when the core idles.
    ///
    /// Phone CPU rails stay up between scheduler ticks, so catalog entries
    /// set this `false` and pay leakage whenever the SoC is on.
    pub power_gated: bool,
}

/// Canonical OPP ladder: (fraction of nominal frequency, voltage in V).
///
/// Shaped after public Snapdragon frequency/voltage tables: roughly linear
/// voltage growth over the upper half of the frequency range with a flat
/// low-voltage floor underneath.
const OPP_LADDER: [(f64, f64); 5] = [
    (0.35, 0.62),
    (0.55, 0.70),
    (0.75, 0.79),
    (0.90, 0.88),
    (1.00, 0.95),
];

impl CoreRailSpec {
    /// Builds a rail with the canonical OPP ladder scaled to a nominal
    /// frequency, calibrated so the top operating point dissipates
    /// `peak_dynamic_w` of dynamic power.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive (except `leakage_w`, which
    /// may be zero).
    pub fn scaled(
        name: &'static str,
        nominal_freq_hz: f64,
        peak_dynamic_w: f64,
        leakage_w: f64,
        power_gated: bool,
    ) -> Self {
        assert!(nominal_freq_hz > 0.0, "nominal frequency must be positive");
        assert!(peak_dynamic_w > 0.0, "peak dynamic power must be positive");
        assert!(leakage_w >= 0.0, "leakage must be non-negative");
        let vmax = OPP_LADDER[4].1;
        let capacitance_f = peak_dynamic_w / (vmax * vmax * nominal_freq_hz);
        let opps = OPP_LADDER
            .iter()
            .map(|&(frac, v)| OperatingPoint {
                freq_hz: frac * nominal_freq_hz,
                voltage_v: v,
            })
            .collect();
        CoreRailSpec {
            name,
            opps,
            capacitance_f,
            leakage_w,
            power_gated,
        }
    }

    /// The nominal (highest) operating point.
    #[expect(
        clippy::expect_used,
        reason = "catalog rails always declare at least one operating point"
    )]
    pub fn nominal(&self) -> OperatingPoint {
        *self.opps.last().expect("rail has at least one OPP")
    }

    /// Supply voltage at a frequency, piecewise-linearly interpolated
    /// between operating points and clamped at the table ends.
    pub(crate) fn voltage_at(&self, freq_hz: f64) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "catalog rails always declare at least one operating point"
        )]
        let first = self.opps.first().expect("rail has at least one OPP");
        if freq_hz <= first.freq_hz {
            return first.voltage_v;
        }
        for pair in self.opps.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            if freq_hz <= hi.freq_hz {
                let t = (freq_hz - lo.freq_hz) / (hi.freq_hz - lo.freq_hz);
                return lo.voltage_v + t * (hi.voltage_v - lo.voltage_v);
            }
        }
        self.nominal().voltage_v
    }

    /// Dynamic (switching) power at a frequency: `C·V(f)²·f`.
    pub(crate) fn dynamic_power_w(&self, freq_hz: f64) -> f64 {
        let v = self.voltage_at(freq_hz);
        self.capacitance_f * v * v * freq_hz
    }

    /// Total power while executing at a frequency: dynamic + leakage.
    pub fn active_power_w(&self, freq_hz: f64) -> f64 {
        self.dynamic_power_w(freq_hz) + self.leakage_w
    }

    /// Power while the core idles: zero if the rail power-gates,
    /// otherwise the leakage floor (the branes-ai "without power gating"
    /// case — every allocated unit leaks).
    pub fn idle_power_w(&self) -> f64 {
        if self.power_gated {
            0.0
        } else {
            self.leakage_w
        }
    }

    /// Lowest operating point whose frequency covers `target_fraction` of
    /// nominal (schedutil's `f = 1.25·util·f_max` rounded up to a real OPP).
    ///
    /// Fractions above 1 clamp to the nominal point.
    pub fn opp_for_target(&self, target_fraction: f64) -> OperatingPoint {
        let want = target_fraction * self.nominal().freq_hz;
        for &opp in &self.opps {
            if opp.freq_hz >= want {
                return opp;
            }
        }
        self.nominal()
    }
}

/// Power description of a loosely coupled accelerator rail (GPU/DSP/NPU).
#[derive(Debug, Clone, PartialEq)]
pub struct AccelRailSpec {
    /// Rail name, e.g. `"adreno"` / `"hexagon"`.
    pub name: &'static str,
    /// Power while a job executes, in watts.
    pub busy_w: f64,
    /// Power while idle but not collapsed, in watts.
    pub idle_w: f64,
    /// Whether the block power-collapses when idle (phones gate these).
    pub power_gated: bool,
}

impl AccelRailSpec {
    /// Creates an accelerator rail spec.
    ///
    /// # Panics
    ///
    /// Panics if `busy_w <= 0` or `idle_w < 0`.
    pub fn new(name: &'static str, busy_w: f64, idle_w: f64, power_gated: bool) -> Self {
        assert!(busy_w > 0.0, "busy power must be positive");
        assert!(idle_w >= 0.0, "idle power must be non-negative");
        AccelRailSpec {
            name,
            busy_w,
            idle_w,
            power_gated,
        }
    }

    /// Effective idle power (zero when the block power-collapses).
    pub fn idle_power_w(&self) -> f64 {
        if self.power_gated {
            0.0
        } else {
            self.idle_w
        }
    }
}

/// Interconnect and always-on (uncore) power description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectPowerSpec {
    /// Energy per byte moved over AXI/DRAM, in joules (≈ tens of pJ/B).
    pub energy_per_byte_j: f64,
    /// Always-on floor in watts: memory controller, DRAM refresh, caches,
    /// rails — everything that cannot be gated while the SoC is awake.
    ///
    /// This term is why multi-threaded inference wins on energy: the same
    /// dynamic work finishes sooner, so the uncore floor is paid for less
    /// wall-clock time (race-to-idle).
    pub uncore_w: f64,
}

/// Full per-rail power description of an SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpec {
    /// One rail per CPU core, in the same flattened order as
    /// `SocSpec::cores()` (big cores first).
    pub core_rails: Vec<CoreRailSpec>,
    /// GPU rail.
    pub gpu: AccelRailSpec,
    /// Compute-DSP rail.
    pub dsp: AccelRailSpec,
    /// NPU rail, on chipsets that have one.
    pub npu: Option<AccelRailSpec>,
    /// Interconnect / uncore description.
    pub interconnect: InterconnectPowerSpec,
}

impl PowerSpec {
    /// Power draw with every core and accelerator idle, in watts.
    pub fn idle_floor_w(&self) -> f64 {
        let cores: f64 = self.core_rails.iter().map(|r| r.idle_power_w()).sum();
        let accels = self.gpu.idle_power_w()
            + self.dsp.idle_power_w()
            + self.npu.as_ref().map_or(0.0, |n| n.idle_power_w());
        cores + accels + self.interconnect.uncore_w
    }

    /// The rail spec for a core index.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_rail(&self, core: usize) -> &CoreRailSpec {
        &self.core_rails[core]
    }
}

/// A power rail for energy attribution. Mirrors
/// [`TraceResource`](aitax_des::trace::TraceResource), with two extra
/// bookkeeping rails: [`Rail::Axi`] carries per-byte data-movement energy
/// and [`Rail::Uncore`] the always-on floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rail {
    /// A CPU core's slice of its cluster rail.
    Cpu(u8),
    /// The GPU rail.
    Gpu,
    /// The compute-DSP rail.
    Dsp,
    /// The NPU rail.
    Npu,
    /// Data movement over the interconnect (energy per byte).
    Axi,
    /// Always-on uncore floor.
    Uncore,
}

impl fmt::Display for Rail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rail::Cpu(i) => write!(f, "cpu{i}"),
            Rail::Gpu => write!(f, "gpu"),
            Rail::Dsp => write!(f, "cdsp"),
            Rail::Npu => write!(f, "npu"),
            Rail::Axi => write!(f, "axi"),
            Rail::Uncore => write!(f, "uncore"),
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    fn big() -> CoreRailSpec {
        CoreRailSpec::scaled("big", 2.8e9, 1.9, 0.07, false)
    }

    #[test]
    fn peak_dynamic_power_matches_calibration() {
        let r = big();
        let p = r.dynamic_power_w(r.nominal().freq_hz);
        assert!((p - 1.9).abs() < 1e-9, "peak dynamic {p}");
    }

    #[test]
    fn dynamic_power_is_monotone_in_frequency() {
        let r = big();
        let mut prev = 0.0;
        for opp in &r.opps {
            let p = r.dynamic_power_w(opp.freq_hz);
            assert!(p > prev, "power must grow with frequency");
            prev = p;
        }
    }

    #[test]
    fn low_opp_is_disproportionately_cheap() {
        // Voltage scaling: the lowest OPP runs at 35% speed for well under
        // 35% of peak power.
        let r = big();
        let lo = r.dynamic_power_w(r.opps[0].freq_hz);
        assert!(lo < 0.35 * 1.9 * 0.6, "lowest OPP power {lo} too high");
    }

    #[test]
    fn voltage_interpolates_and_clamps() {
        let r = big();
        assert_eq!(r.voltage_at(0.0), r.opps[0].voltage_v);
        assert_eq!(r.voltage_at(1e12), r.nominal().voltage_v);
        let mid = r.voltage_at(0.5 * (r.opps[0].freq_hz + r.opps[1].freq_hz));
        assert!(mid > r.opps[0].voltage_v && mid < r.opps[1].voltage_v);
    }

    #[test]
    fn opp_for_target_rounds_up() {
        let r = big();
        let opp = r.opp_for_target(0.5);
        assert!((opp.freq_hz / r.nominal().freq_hz - 0.55).abs() < 1e-12);
        assert_eq!(r.opp_for_target(2.0).freq_hz, r.nominal().freq_hz);
        assert_eq!(r.opp_for_target(0.0).freq_hz, r.opps[0].freq_hz);
    }

    #[test]
    fn gating_zeroes_idle_power() {
        let gated = CoreRailSpec::scaled("x", 1e9, 0.5, 0.05, true);
        assert_eq!(gated.idle_power_w(), 0.0);
        assert_eq!(big().idle_power_w(), 0.07);
        let accel = AccelRailSpec::new("hexagon", 0.8, 0.05, true);
        assert_eq!(accel.idle_power_w(), 0.0);
    }

    #[test]
    fn idle_floor_sums_ungated_rails() {
        let spec = PowerSpec {
            core_rails: vec![big(), big()],
            gpu: AccelRailSpec::new("adreno", 2.5, 0.1, true),
            dsp: AccelRailSpec::new("hexagon", 0.8, 0.05, true),
            npu: None,
            interconnect: InterconnectPowerSpec {
                energy_per_byte_j: 80e-12,
                uncore_w: 0.9,
            },
        };
        assert!((spec.idle_floor_w() - (0.9 + 2.0 * 0.07)).abs() < 1e-12);
    }

    #[test]
    fn rail_display_names() {
        assert_eq!(Rail::Cpu(3).to_string(), "cpu3");
        assert_eq!(Rail::Dsp.to_string(), "cdsp");
        assert_eq!(Rail::Uncore.to_string(), "uncore");
    }
}
