//! A schedutil-flavoured per-core DVFS governor.
//!
//! Linux's `schedutil` picks a core's clock from its tracked utilization
//! (`f = 1.25 · util · f_max`, rounded up to a real operating point) and
//! boosts latency-sensitive work straight to the top — Android adds
//! uclamp floors for the foreground cgroup. This module reproduces that
//! shape: each core keeps an exponentially-weighted busy-fraction
//! estimate; foreground, kernel and NNAPI-fallback dispatches boost to
//! the nominal operating point, while background work runs at whatever
//! point covers its utilization (with the schedutil margin).
//!
//! The governor closes the power loop twice over: the chosen operating
//! point scales the task's retirement rate (time axis), and its
//! frequency is stamped into the trace as
//! [`TraceKind::Dvfs`](aitax_des::trace::TraceKind) so the energy meter
//! prices the interval at the right `C·V²·f` (energy axis). The thermal
//! multiplier caps the effective rate on top of the governor's choice.

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{SimSpan, SimTime};

use crate::machine::Machine;
use crate::task::TaskClass;

/// Tunables of the per-core governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPolicy {
    /// Master switch; disabled pins every core at its nominal clock.
    pub enabled: bool,
    /// Headroom multiplier on utilization (schedutil uses 1.25).
    pub margin: f64,
    /// Horizon of the per-core utilization EWMA.
    pub util_tau: SimSpan,
    /// Whether foreground/kernel/NNAPI dispatches boost straight to the
    /// nominal operating point (Android's uclamp-style floor).
    pub boost_foreground: bool,
}

impl Default for DvfsPolicy {
    fn default() -> Self {
        DvfsPolicy {
            enabled: true,
            margin: 1.25,
            util_tau: SimSpan::from_ms(16.0),
            boost_foreground: true,
        }
    }
}

impl DvfsPolicy {
    /// Whether a dispatch of `class` gets the uclamp-style max boost.
    fn boosts(&self, class: TaskClass) -> bool {
        self.boost_foreground
            && matches!(
                class,
                TaskClass::Foreground | TaskClass::KernelWork | TaskClass::NnapiFallback
            )
    }
}

/// Per-core governor state.
#[derive(Debug, Clone)]
pub(crate) struct CoreGov {
    /// EWMA busy-fraction estimate in `[0, 1]`.
    util: f64,
    /// Whether the core has been busy since `last_update`.
    busy: bool,
    last_update: SimTime,
    /// Current frequency as a fraction of nominal.
    pub mult: f64,
    /// Current frequency in Hz.
    pub freq_hz: f64,
}

impl CoreGov {
    pub(crate) fn new(nominal_hz: f64) -> Self {
        CoreGov {
            util: 0.0,
            busy: false,
            last_update: SimTime::ZERO,
            mult: 1.0,
            freq_hz: nominal_hz,
        }
    }
}

impl Machine {
    /// Replaces the DVFS policy (defaults to schedutil with boosting).
    pub fn set_dvfs_policy(&mut self, policy: DvfsPolicy) {
        self.dvfs = policy;
    }

    /// The core's current clock in Hz, as chosen by the governor.
    pub fn core_freq_hz(&self, core: usize) -> f64 {
        self.governor[core].freq_hz
    }

    /// Effective speed multiplier of a core: governor operating point
    /// capped by the thermal throttle.
    pub(crate) fn cpu_speed(&self, core: usize) -> f64 {
        self.governor[core].mult * self.thermal.freq_multiplier()
    }

    /// Folds the elapsed busy/idle stretch into the core's utilization
    /// estimate and records the state the core enters now.
    pub(crate) fn gov_observe(&mut self, core: usize, busy_next: bool) {
        let now = self.cal.now();
        let tau = self.dvfs.util_tau.as_secs();
        let gov = &mut self.governor[core];
        let dt = now.since(gov.last_update).as_secs();
        if dt > 0.0 && tau > 0.0 {
            let alpha = 1.0 - (-dt / tau).exp();
            let sample = if gov.busy { 1.0 } else { 0.0 };
            gov.util += (sample - gov.util) * alpha;
        }
        gov.last_update = now;
        gov.busy = busy_next;
    }

    /// Re-picks the core's operating point for a dispatch of `class`,
    /// stamping a [`TraceKind::Dvfs`] event when the clock changes.
    pub(crate) fn gov_retarget(&mut self, core: usize, class: TaskClass) {
        if !self.dvfs.enabled {
            return;
        }
        let target = if self.dvfs.boosts(class) {
            1.0
        } else {
            (self.governor[core].util * self.dvfs.margin).clamp(0.0, 1.0)
        };
        let rail = self.spec.power.core_rail(core);
        let opp = rail.opp_for_target(target);
        let nominal = rail.nominal().freq_hz;
        let gov = &mut self.governor[core];
        if (opp.freq_hz - gov.freq_hz).abs() < 0.5 {
            return;
        }
        gov.freq_hz = opp.freq_hz;
        gov.mult = opp.freq_hz / nominal;
        let now = self.cal.now();
        self.trace.record(
            now,
            TraceResource::CpuCore(core as u8),
            TraceKind::Dvfs {
                core: core as u8,
                freq_hz: opp.freq_hz as u64,
            },
        );
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use crate::task::{CoreMask, TaskSpec, Work};
    use aitax_soc::{SocCatalog, SocId};

    fn machine() -> Machine {
        Machine::new(SocCatalog::get(SocId::Sd845), 3)
    }

    #[test]
    fn foreground_dispatch_boosts_to_nominal() {
        let mut m = machine();
        m.set_tracing(true);
        m.submit_cpu(TaskSpec::foreground("fg", Work::Fp32Flops(1e8)), |_| {});
        m.run_until_idle();
        let nominal = m.spec().power.core_rail(0).nominal().freq_hz;
        assert_eq!(m.core_freq_hz(0), nominal);
    }

    #[test]
    fn background_on_a_cold_core_downclocks() {
        let mut m = machine();
        m.set_tracing(true);
        // Pin to one core so the placement is deterministic.
        m.submit_cpu(
            TaskSpec::background("bg", Work::Cycles(5e6)).with_affinity(CoreMask::of(&[5])),
            |_| {},
        );
        m.run_until_idle();
        let nominal = m.spec().power.core_rail(5).nominal().freq_hz;
        assert!(
            m.core_freq_hz(5) < nominal,
            "idle-history background dispatch should pick a low OPP"
        );
        let dvfs_events = m
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Dvfs { .. }))
            .count();
        assert!(dvfs_events >= 1, "clock change must be traced");
    }

    #[test]
    fn sustained_background_load_ramps_the_clock_up() {
        let mut m = machine();
        // Many sequential background bursts on one core: utilization
        // climbs, and schedutil follows it up the OPP ladder.
        for i in 0..40 {
            m.submit_cpu(
                TaskSpec::background(format!("bg{i}"), Work::Cycles(2e7))
                    .with_affinity(CoreMask::of(&[6])),
                |_| {},
            );
        }
        m.run_until_idle();
        let rail = m.spec().power.core_rail(6);
        assert!(
            m.core_freq_hz(6) > rail.opps[0].freq_hz,
            "sustained load must leave the bottom OPP, got {} Hz",
            m.core_freq_hz(6)
        );
    }

    #[test]
    fn disabled_governor_pins_nominal() {
        let mut m = machine();
        m.set_dvfs_policy(DvfsPolicy {
            enabled: false,
            ..DvfsPolicy::default()
        });
        m.submit_cpu(
            TaskSpec::background("bg", Work::Cycles(1e6)).with_affinity(CoreMask::of(&[4])),
            |_| {},
        );
        m.run_until_idle();
        let nominal = m.spec().power.core_rail(4).nominal().freq_hz;
        assert_eq!(m.core_freq_hz(4), nominal);
    }

    #[test]
    fn governor_slows_background_work_down() {
        // The same background burst takes longer with the governor on —
        // that is the latency price of the energy savings.
        let work = Work::Cycles(5e7);
        let run = |enabled: bool| {
            let mut m = machine();
            m.set_dvfs_policy(DvfsPolicy {
                enabled,
                ..DvfsPolicy::default()
            });
            m.submit_cpu(
                TaskSpec::background("bg", work).with_affinity(CoreMask::of(&[7])),
                |_| {},
            );
            m.run_until_idle();
            m.now()
        };
        assert!(run(true) > run(false));
    }
}
