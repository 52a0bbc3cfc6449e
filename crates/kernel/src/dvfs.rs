//! A schedutil-flavoured per-core DVFS governor.
//!
//! Linux's `schedutil` picks a core's clock from its tracked utilization
//! (`f = 1.25 · util · f_max`, rounded up to a real operating point) and
//! boosts latency-sensitive work straight to the top — Android adds
//! uclamp floors for the foreground cgroup. This module reproduces that
//! shape: each core tracks a PELT-style busy fraction; foreground, kernel
//! and NNAPI-fallback dispatches boost to the nominal operating point,
//! while background work runs at whatever point covers its utilization
//! (with the schedutil margin).
//!
//! **Period rule.** Like PELT, the tracker accrues a core's busy time in
//! [`ACCOUNTING_PERIOD`]s of 1,024 µs, by integer nanoseconds. When a
//! period closes, its busy share folds into the utilization, and every
//! whole period since decays it by a factor of `y` each, read from a
//! table of `yⁿ`. `y = e^(−1.024/16)` keeps a 16 ms time constant (a
//! half-life of about 11 ms; PELT's is 32 ms). The governor reads the
//! utilization as of the last closed period, so a clock choice lags the
//! load by at most one period, and no libm call runs per event.
//!
//! The governor closes the power loop twice over: the chosen operating
//! point scales the task's retirement rate (time axis), and its
//! frequency is stamped into the trace as
//! [`TraceKind::Dvfs`](aitax_des::trace::TraceKind) so the energy meter
//! prices the interval at the right `C·V²·f` (energy axis). The thermal
//! multiplier caps the effective rate on top of the governor's choice.

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_soc::{SocSpec, ACCOUNTING_PERIOD};

use crate::machine::{nanowatts, Machine};
use crate::task::TaskClass;

/// Headroom multiplier on utilization (schedutil uses 1.25).
const MARGIN: f64 = 1.25;

/// Per-period decay of the utilization, `e^(−1.024/16)`: one
/// [`ACCOUNTING_PERIOD`] over a 16 ms time constant.
const Y: f64 = 0.938_004_999_530_729_5;

/// Periods the `yⁿ` table covers. `y¹⁰²⁴ < 10⁻²⁸`, so a core idle that
/// long (about a second) has forgotten its history below any operating
/// point's step, and [`y_pow`] reads zero beyond the table.
const DECAY_LEN: usize = 1024;

/// `yⁿ` for `n < DECAY_LEN`, by repeated multiplication from [`Y`].
static DECAY: [f64; DECAY_LEN] = {
    let mut table = [1.0; DECAY_LEN];
    let mut n = 1;
    while n < DECAY_LEN {
        table[n] = table[n - 1] * Y;
        n += 1;
    }
    table
};

/// `yⁿ`, zero once the table runs out.
#[inline]
fn y_pow(n: u64) -> f64 {
    DECAY.get(n as usize).copied().unwrap_or(0.0)
}

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
    /// PELT-style busy fraction in `[0, 1]`, as of the start of the
    /// current period.
    util: f64,
    /// End of the current period, in nanoseconds.
    period_end: u64,
    /// Busy nanoseconds of the current period up to `last_ns`.
    busy_ns: u64,
    /// Whether the core has been busy since `last_ns`.
    busy: bool,
    last_ns: u64,
    /// Current frequency as a fraction of nominal.
    pub mult: f64,
    /// Current frequency in Hz.
    pub freq_hz: f64,
    /// The core rail's active draw at `freq_hz`, in whole nanowatts:
    /// priced when the clock changes, added to the package total when
    /// the core flips busy.
    pub active_nw: u64,
}

impl CoreGov {
    /// A governor for `core` at boot: idle history, nominal clock.
    pub(crate) fn new(spec: &SocSpec, core: usize) -> Self {
        let rail = spec.power.core_rail(core);
        let nominal_hz = rail.nominal().freq_hz;
        CoreGov {
            util: 0.0,
            period_end: ACCOUNTING_PERIOD.as_ns(),
            busy_ns: 0,
            busy: false,
            last_ns: 0,
            mult: 1.0,
            freq_hz: nominal_hz,
            active_nw: nanowatts(rail.active_power_w(nominal_hz)),
        }
    }

    /// Accrues the stretch since the last observation at the state it ran
    /// in, and records the state the core enters at `now_ns`. Returns
    /// whether a period closed.
    ///
    /// Closing folds `n` periods at once: the one that ended at
    /// `period_end` with its busy share `f`, then `n − 1` whole ones in
    /// the state `b` the core held throughout. The last term is the first
    /// period's departure from `b`, decayed through the rest; it is zero
    /// when the core never changed state.
    #[inline]
    fn observe(&mut self, now_ns: u64, busy_next: bool) -> bool {
        let closes = now_ns >= self.period_end;
        if closes {
            let period = ACCOUNTING_PERIOD.as_ns();
            if self.busy {
                self.busy_ns += self.period_end - self.last_ns;
            }
            let n = 1 + (now_ns - self.period_end) / period;
            let b = if self.busy { 1.0 } else { 0.0 };
            let f = self.busy_ns as f64 / period as f64;
            let yn = y_pow(n);
            self.util = self.util * yn + b * (1.0 - yn) + (f - b) * (1.0 - Y) * y_pow(n - 1);
            self.last_ns = self.period_end + (n - 1) * period;
            self.period_end = self.last_ns + period;
            self.busy_ns = 0;
        }
        if self.busy {
            self.busy_ns += now_ns - self.last_ns;
        }
        self.last_ns = now_ns;
        self.busy = busy_next;
        closes
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

    /// Accrues the elapsed busy or idle stretch into the core's current
    /// period, closing the periods that ended, and records the state the
    /// core enters now.
    #[inline]
    pub(crate) fn gov_observe(&mut self, core: usize, busy_next: bool) {
        let now = self.cal.now().as_ns();
        if self.governor[core].observe(now, busy_next) {
            self.stats_mut().gov_period_closes += 1;
        }
    }

    /// Re-picks the core's operating point for a dispatch of `class`,
    /// stamping a [`TraceKind::Dvfs`] event when the clock changes.
    ///
    /// Only an idle core is retargeted, so the new active draw reaches the
    /// package total when the core flips busy.
    pub(crate) fn gov_retarget(&mut self, core: usize, class: TaskClass) {
        debug_assert!(self.cores[core].running.is_none());
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
        gov.active_nw = nanowatts(rail.active_power_w(opp.freq_hz));
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
    use aitax_des::{SimSpan, SimTime};
    use aitax_soc::{SocCatalog, SocId};
    use std::rc::Rc;

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

    const P: u64 = 1_024_000;

    /// Observes `core` entering `busy` at `ns`.
    fn observe_at(m: &mut Machine, core: usize, ns: u64, busy: bool) {
        m.run_until(SimTime::from_ns(ns));
        m.gov_observe(core, busy);
    }

    /// `yⁿ` by repeated multiplication.
    fn y_to(n: u64) -> f64 {
        (0..n).fold(1.0, |acc, _| acc * Y)
    }

    #[test]
    fn the_decay_keeps_a_16_ms_time_constant() {
        let tau = 16e-3;
        let exact = (-ACCOUNTING_PERIOD.as_secs() / tau).exp();
        assert!((Y - exact).abs() <= f64::EPSILON, "{Y} vs {exact}");
        for n in 0..DECAY_LEN as u64 {
            assert_eq!(y_pow(n), y_to(n), "n = {n}");
        }
        assert_eq!(y_pow(DECAY_LEN as u64), 0.0);
    }

    #[test]
    fn n_busy_periods_from_idle_give_one_minus_y_to_the_n() {
        let core = 3;
        for n in [1u64, 2, 3, 16, 100, 1_023, 1_024, 5_000] {
            let mut m = machine();
            observe_at(&mut m, core, 0, true);
            observe_at(&mut m, core, n * P, false);
            let expected = 1.0 - y_to(n);
            assert_eq!(
                m.governor[core].util.to_bits(),
                expected.to_bits(),
                "n = {n}: {} vs {expected}",
                m.governor[core].util
            );
            assert_eq!(m.stats().gov_period_closes, 1, "one fold, n = {n}");
        }
    }

    #[test]
    fn n_idle_periods_multiply_by_y_to_the_n() {
        let core = 2;
        let mut m = machine();
        observe_at(&mut m, core, 0, true);
        observe_at(&mut m, core, 5 * P, false);
        let u = m.governor[core].util;
        let mut at = 5 * P;
        for n in [1u64, 4, 31] {
            at += n * P;
            let before = m.governor[core].util;
            observe_at(&mut m, core, at, false);
            assert_eq!(
                m.governor[core].util.to_bits(),
                (before * y_to(n)).to_bits(),
                "n = {n}"
            );
        }
        assert!(m.governor[core].util < u);
    }

    #[test]
    fn a_partial_period_accrues_only_its_busy_nanoseconds() {
        let core = 5;
        let mut m = machine();
        // Busy 100 µs and 250 µs inside period 0: the utilization does not
        // move until the period closes, then takes exactly that share.
        observe_at(&mut m, core, 200_000, true);
        observe_at(&mut m, core, 300_000, false);
        observe_at(&mut m, core, 500_000, true);
        observe_at(&mut m, core, 750_000, false);
        assert_eq!(m.governor[core].busy_ns, 350_000);
        assert_eq!(m.governor[core].util, 0.0);
        assert_eq!(m.stats().gov_period_closes, 0);
        // A busy stretch across the boundary: 100 µs of it land in period
        // 0, the rest accrue in period 1.
        observe_at(&mut m, core, 924_000, true);
        observe_at(&mut m, core, P + 40_000, false);
        let f = 450_000.0 / P as f64;
        assert_eq!(m.governor[core].util, f * (1.0 - Y));
        assert_eq!(m.governor[core].busy_ns, 40_000);
        assert_eq!(m.stats().gov_period_closes, 1);
        // An observation at the instant already accrued changes nothing.
        let before = m.governor[core].clone();
        m.gov_observe(core, false);
        assert_eq!(m.governor[core].util, before.util);
        assert_eq!(m.governor[core].busy_ns, before.busy_ns);
    }

    /// Package power re-derived without the running total: every rail
    /// priced afresh (each busy core's rail re-interpolated at its
    /// current clock) and rounded to the nanowatt, as the machine rounds
    /// it once.
    fn uncached_power_nw(m: &Machine) -> u64 {
        let p = &m.spec().power;
        let mut nw = nanowatts(p.interconnect.uncore_w);
        for (i, rail) in p.core_rails.iter().enumerate() {
            nw += nanowatts(if m.cores[i].running.is_some() {
                rail.active_power_w(m.core_freq_hz(i))
            } else {
                rail.idle_power_w()
            });
        }
        nw += nanowatts(if m.dsp.running.is_some() {
            p.dsp.busy_w
        } else {
            p.dsp.idle_power_w()
        });
        nw += nanowatts(if m.gpu.running.is_some() {
            p.gpu.busy_w
        } else {
            p.gpu.idle_power_w()
        });
        if let Some(npu) = &p.npu {
            nw += nanowatts(if m.npu.running.is_some() {
                npu.busy_w
            } else {
                npu.idle_power_w()
            });
        }
        nw
    }

    /// One 64-bit FNV-1a digest per SoC, in catalog order, of what
    /// [`pinned_run`] leaves over seeds 0..32, without and with a thermal
    /// emergency. A change to the kernel's bookkeeping (how rail draws
    /// are summed, where task and gang records live) must leave every one
    /// unchanged; only a change to the thermal, DVFS or scheduling model
    /// or to its accounting period may re-pin them.
    const PINNED: [[u64; 2]; 4] = [
        [0x3efd23cc4f2a03d2, 0xa7918d9723413287],
        [0x807c3fe87b98c999, 0xaa8bb42776c48b1f],
        [0x865bb3ba201a4b0f, 0xc21c957440e0054e],
        [0x2e809f2b1fc615d8, 0x14648f199b9afc5b],
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
                m.submit_gang(
                    width,
                    |_, _| TaskSpec::foreground("fg", Work::Fp32Flops(flops)),
                    Rc::new(move |m: &mut Machine| {
                        m.submit_dsp_raw("dsp", SimSpan::from_us(dsp_us), |_| {});
                    }),
                );
                m.submit_cpu(
                    TaskSpec::background("bg", Work::Cycles(cycles)).with_priority(priority),
                    |_| {},
                );
                m.submit_cpu(TaskSpec::nnapi_fallback("nn", Work::Int8Ops(flops)), |_| {});
            });
        }
    }

    /// Runs the mixed workload once, checking the running package total
    /// against the per-rail rounded sum at every event, and folds the thermal,
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
                m.power.total,
                uncached_power_nw(&m),
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
            s.thermal_period_closes,
            s.gov_period_closes,
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
