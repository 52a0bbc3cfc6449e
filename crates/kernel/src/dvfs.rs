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
use aitax_soc::SocSpec;

use crate::machine::Machine;
use crate::task::TaskClass;

/// Headroom multiplier on utilization (schedutil uses 1.25).
const MARGIN: f64 = 1.25;

/// Horizon of the per-core utilization EWMA.
const UTIL_TAU: SimSpan = SimSpan::from_ns(16_000_000);

/// Whether a dispatch of `class` gets the uclamp-style max boost
/// (Android's floor for foreground, kernel and NNAPI-fallback work).
fn boosts(class: TaskClass) -> bool {
    matches!(
        class,
        TaskClass::Foreground | TaskClass::KernelWork | TaskClass::NnapiFallback
    )
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
    /// The core rail's active power at `freq_hz`, repriced whenever the
    /// clock changes so the thermal loop never re-interpolates the rail
    /// voltage per event.
    pub active_w: f64,
}

impl CoreGov {
    /// A governor for `core` at boot: idle history, nominal clock.
    pub(crate) fn new(spec: &SocSpec, core: usize) -> Self {
        let rail = spec.power.core_rail(core);
        let nominal_hz = rail.nominal().freq_hz;
        CoreGov {
            util: 0.0,
            busy: false,
            last_update: SimTime::ZERO,
            mult: 1.0,
            freq_hz: nominal_hz,
            active_w: rail.active_power_w(nominal_hz),
        }
    }
}

impl Machine {
    /// The core's current clock in Hz, as chosen by the governor.
    #[cfg(test)]
    fn core_freq_hz(&self, core: usize) -> f64 {
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
        let tau = UTIL_TAU.as_secs();
        let gov = &mut self.governor[core];
        let dt = now.since(gov.last_update).as_secs();
        if dt > 0.0 {
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
        let target = if boosts(class) {
            1.0
        } else {
            (self.governor[core].util * MARGIN).clamp(0.0, 1.0)
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
        gov.active_w = rail.active_power_w(opp.freq_hz);
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
    fn utilization_ewma_matches_its_closed_form_bit_for_bit() {
        let mut m = machine();
        let tau = UTIL_TAU.as_secs();
        // (busy over the stretch, stretch length in µs); the zero-length
        // stretch re-observes an instant and must change nothing.
        let stretches = [
            (true, 1_500.0),
            (false, 700.0),
            (true, 16_000.0),
            (true, 0.0),
            (false, 30_000.0),
            (true, 250.0),
            (false, 4_000.0),
        ];
        let core = 3;
        m.gov_observe(core, stretches[0].0);
        let mut now = SimTime::ZERO;
        let mut expected = 0.0f64;
        for (i, &(busy, us)) in stretches.iter().enumerate() {
            let dt = SimSpan::from_us(us);
            now += dt;
            m.run_until(now);
            let busy_next = stretches.get(i + 1).is_some_and(|s| s.0);
            m.gov_observe(core, busy_next);
            // Exact first-order step over the stretch toward its sample.
            if us > 0.0 {
                let sample = if busy { 1.0 } else { 0.0 };
                expected += (sample - expected) * (1.0 - (-dt.as_secs() / tau).exp());
            }
            assert_eq!(
                m.governor[core].util.to_bits(),
                expected.to_bits(),
                "stretch {i}: {} vs {expected}",
                m.governor[core].util
            );
        }
        // One busy stretch from idle: util = 1 - e^(-dt/tau).
        let mut fresh = machine();
        fresh.gov_observe(core, true);
        fresh.run_until(SimTime::ZERO + UTIL_TAU);
        fresh.gov_observe(core, false);
        assert_eq!(fresh.governor[core].util, 1.0 - (-1.0f64).exp());
    }

    /// Package power summed without the governor's cache: every busy
    /// core's rail re-interpolated at its current clock, in the order
    /// `current_power_w` sums.
    fn uncached_power_w(m: &Machine) -> f64 {
        let p = &m.spec().power;
        let mut w = p.interconnect.uncore_w;
        for (i, rail) in p.core_rails.iter().enumerate() {
            w += if m.cores[i].running.is_some() {
                rail.active_power_w(m.core_freq_hz(i))
            } else {
                rail.idle_power_w()
            };
        }
        w += if m.dsp.running.is_some() {
            p.dsp.busy_w
        } else {
            p.dsp.idle_power_w()
        };
        w += if m.gpu.running.is_some() {
            p.gpu.busy_w
        } else {
            p.gpu.idle_power_w()
        };
        if let Some(npu) = &p.npu {
            w += if m.npu.running.is_some() {
                npu.busy_w
            } else {
                npu.idle_power_w()
            };
        }
        w
    }

    /// One 64-bit FNV-1a digest per SoC, in catalog order, of what
    /// [`pinned_run`] leaves over seeds 0..32, without and with a thermal
    /// emergency. A change to the kernel's bookkeeping (when heat is
    /// priced, how rail watts are summed, where task and gang records
    /// live) must leave every one unchanged; only a change to the
    /// thermal, DVFS or scheduling model itself may re-pin them.
    const PINNED: [[u64; 2]; 4] = [
        [0xdc3bcab9deb36d73, 0xecf5802563d791a0],
        [0xe5642dbea5fa2873, 0x6a64709eccdf4984],
        [0x35c650ac73e9ea82, 0xfdcb8354c4143f2a],
        [0x16569842a9f110b0, 0x4f0c5c483ff79c66],
    ];

    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// Schedules eight waves of mixed work at seeded instants: fork-join
    /// foreground gangs whose joins feed the DSP, prioritized background
    /// work and wandering NNAPI-fallback threads.
    fn mixed_workload(m: &mut Machine, seed: u64) {
        let mut rng = aitax_des::SimRng::seed_from(seed);
        for _ in 0..8 {
            let at = SimSpan::from_us(rng.uniform(0.0, 8_000.0));
            let width = rng.uniform_u64(1, 5) as usize;
            let flops = rng.uniform(2e6, 4e7);
            let cycles = rng.uniform(1e6, 2e7);
            let dsp_us = rng.uniform(50.0, 2_000.0);
            let priority = rng.uniform_u64(0, 3) as i8;
            m.after(at, move |m| {
                let specs = vec![TaskSpec::foreground("fg", Work::Fp32Flops(flops)); width];
                m.submit_cpu_parallel(specs, move |m| {
                    m.submit_dsp_raw("dsp", SimSpan::from_us(dsp_us), |_| {});
                });
                m.submit_cpu(
                    TaskSpec::background("bg", Work::Cycles(cycles)).with_priority(priority),
                    |_| {},
                );
                m.submit_cpu(TaskSpec::nnapi_fallback("nn", Work::Int8Ops(flops)), |_| {});
            });
        }
    }

    /// Runs the mixed workload once, checking the cached package power
    /// against the uncached sum at every event, and folds the thermal,
    /// governor and counter state the run leaves into `digest`.
    fn pinned_run(spec: &'static SocSpec, seed: u64, emergency: bool, digest: &mut Fnv) {
        use aitax_des::{FaultKind, FaultPlan};
        let mut m = Machine::new(spec, seed);
        if emergency {
            let start = SimTime::from_ns(1_000_000 + seed * 97_000);
            let end = start + SimSpan::from_ms(1.0);
            m.install_fault_plan(FaultPlan::new(seed).window(
                FaultKind::ThermalEmergency,
                start,
                end,
            ));
        }
        mixed_workload(&mut m, seed);
        while m.step() {
            assert_eq!(
                m.current_power_w().to_bits(),
                uncached_power_w(&m).to_bits(),
                "{} seed {seed} at {}",
                spec.name,
                m.now()
            );
        }
        assert_eq!(m.degradation().thermal_emergencies, u64::from(emergency));

        digest.word(m.temp_c().to_bits());
        digest.word(m.freq_multiplier().to_bits());
        for core in 0..spec.cores().len() {
            digest.word(m.core_freq_hz(core).to_bits());
        }
        digest.word(m.now().as_ns());
        let s = m.stats();
        for w in [
            s.context_switches,
            s.migrations,
            s.preemptions,
            s.tasks_completed,
            s.dsp_jobs,
            s.dsp_busy.as_ns(),
            s.gpu_jobs,
            s.npu_jobs,
            s.axi_bytes,
            s.rpc_calls,
        ] {
            digest.word(w);
        }
    }

    #[test]
    fn thermal_and_governor_state_is_pinned_on_every_soc() {
        let mut got = [[0u64; 2]; 4];
        for (soc, spec) in aitax_soc::SocCatalog::all().iter().enumerate() {
            for (cfg, emergency) in [false, true].into_iter().enumerate() {
                let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
                for seed in 0..32 {
                    pinned_run(spec, seed, emergency, &mut digest);
                }
                got[soc][cfg] = digest.0;
            }
        }
        let rows: Vec<String> = got
            .iter()
            .map(|row| {
                let words: Vec<String> = row.iter().map(|w| format!("{w:#018x}")).collect();
                format!("[{}]", words.join(", "))
            })
            .collect();
        assert_eq!(got, PINNED, "digests now: [{}]", rows.join(", "));
    }
}
