//! Background-activity generators.
//!
//! The paper attributes in-app run-to-run variability (up to ~30% deviation
//! from the median, Fig. 11) to "the Android operating system's scheduling
//! decisions, delays in the interrupt handling from sensor input streams,
//! etc." — i.e. to everything *around* the ML pipeline. This module models
//! that ambient activity: system daemons, binder traffic, UI housekeeping
//! and interrupt servicing that contend with the foreground application.

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::SimSpan;

use crate::machine::{Ev, Machine};
use crate::task::{TaskSpec, Work};

/// Parameters of the ambient background load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Mean time between background bursts (exponentially distributed).
    pub mean_interarrival: SimSpan,
    /// Median burst size in CPU cycles.
    pub median_burst_cycles: f64,
    /// Log-normal spread of burst sizes.
    pub burst_sigma: f64,
    /// Median extra latency injected into interrupt servicing.
    pub irq_jitter_median: SimSpan,
    /// Log-normal spread of interrupt jitter.
    pub irq_jitter_sigma: f64,
}

impl NoiseConfig {
    /// Ambient load of an interactive Android session: periodic daemon
    /// wakeups, binder chatter, UI housekeeping.
    pub fn android_app() -> Self {
        NoiseConfig {
            mean_interarrival: SimSpan::from_ms(2.2),
            median_burst_cycles: 2.4e6, // ≈0.9 ms on a big core
            burst_sigma: 1.05,
            irq_jitter_median: SimSpan::from_us(130.0),
            irq_jitter_sigma: 1.0,
        }
    }

    /// A nearly idle system, as when running a command-line benchmark on a
    /// freshly cooled, screen-off device (paper §III-D methodology).
    pub fn benchmark_quiet() -> Self {
        NoiseConfig {
            mean_interarrival: SimSpan::from_ms(40.0),
            median_burst_cycles: 3.0e5,
            burst_sigma: 0.4,
            irq_jitter_median: SimSpan::from_us(15.0),
            irq_jitter_sigma: 0.3,
        }
    }
}

impl Machine {
    /// Starts ambient background activity. Replaces any previous generator.
    ///
    /// The generator runs until [`Machine::stop_noise`] (or forever), so
    /// drive the machine with [`Machine::step`] rather than
    /// `run_until_idle` while noise is active.
    pub fn start_noise(&mut self, config: NoiseConfig) {
        self.noise = Some(config);
        self.noise_generation += 1;
        self.schedule_burst(config);
    }

    /// Stops the ambient background generator.
    pub fn stop_noise(&mut self) {
        self.noise = None;
        self.noise_generation += 1;
    }

    /// Draws the gap to the generator's next burst and schedules it as a
    /// machine event, so a burst costs no allocation.
    fn schedule_burst(&mut self, config: NoiseConfig) {
        let gap_us = self.rng.exponential(config.mean_interarrival.as_us());
        let token = self.cal.schedule_after(SimSpan::from_us(gap_us));
        let generation = self.noise_generation;
        self.set_event(token, Ev::Noise { generation });
    }

    /// Fires a burst: submits one background task and schedules the next
    /// burst, unless the generator was stopped or restarted since this
    /// burst was scheduled.
    pub(crate) fn on_noise_burst(&mut self, generation: u64) {
        let Some(config) = self.noise else {
            return;
        };
        if generation != self.noise_generation {
            return;
        }
        let cycles = self
            .rng
            .lognormal(config.median_burst_cycles, config.burst_sigma);
        self.submit_cpu(
            TaskSpec::background("sys-noise", Work::Cycles(cycles)),
            |_| {},
        );
        self.schedule_burst(config);
    }

    /// Samples the extra latency an interrupt experiences right now.
    ///
    /// Callers model sensor pipelines (camera frame delivery) with this;
    /// under the quiet profile it is tens of microseconds, under the app
    /// profile it has a heavy tail.
    pub fn sample_irq_jitter(&mut self, config: &NoiseConfig) -> SimSpan {
        let median = config.irq_jitter_median.as_us();
        let us = self.rng_mut().lognormal(median, config.irq_jitter_sigma);
        let now = self.now();
        let source = self.trace.intern("sensor");
        self.trace
            .record(now, TraceResource::CpuCore(0), TraceKind::Irq { source });
        SimSpan::from_us(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_des::SimTime;
    use aitax_soc::{SocCatalog, SocId};

    fn machine() -> Machine {
        Machine::new(SocCatalog::get(SocId::Sd845), 21)
    }

    #[test]
    fn noise_generates_background_tasks() {
        let mut m = machine();
        m.start_noise(NoiseConfig::android_app());
        m.run_until(SimTime::ZERO + SimSpan::from_ms(200.0));
        assert!(
            m.stats().tasks_completed > 30,
            "expected steady noise, got {} tasks",
            m.stats().tasks_completed
        );
    }

    #[test]
    fn quiet_profile_is_much_quieter() {
        let mut app = machine();
        app.start_noise(NoiseConfig::android_app());
        app.run_until(SimTime::ZERO + SimSpan::from_ms(500.0));
        let busy_app = app.stats().tasks_completed;

        let mut quiet = machine();
        quiet.start_noise(NoiseConfig::benchmark_quiet());
        quiet.run_until(SimTime::ZERO + SimSpan::from_ms(500.0));
        let busy_quiet = quiet.stats().tasks_completed;

        assert!(
            busy_app > busy_quiet * 5,
            "app noise {busy_app} should dwarf quiet noise {busy_quiet}"
        );
    }

    #[test]
    fn stop_noise_halts_generation() {
        let mut m = machine();
        m.start_noise(NoiseConfig::android_app());
        m.run_until(SimTime::ZERO + SimSpan::from_ms(50.0));
        m.stop_noise();
        m.run_until_idle();
        let after_stop = m.stats().tasks_completed;
        m.run_until(m.now() + SimSpan::from_ms(100.0));
        assert_eq!(m.stats().tasks_completed, after_stop);
    }

    #[test]
    fn irq_jitter_is_positive_and_seed_deterministic() {
        let cfg = NoiseConfig::android_app();
        let mut a = machine();
        let mut b = machine();
        for _ in 0..10 {
            let ja = a.sample_irq_jitter(&cfg);
            let jb = b.sample_irq_jitter(&cfg);
            assert_eq!(ja, jb);
            assert!(ja.as_ns() > 0);
        }
    }

    #[test]
    fn app_jitter_tail_heavier_than_quiet() {
        let mut m = machine();
        let app = NoiseConfig::android_app();
        let quiet = NoiseConfig::benchmark_quiet();
        let mut max_app = SimSpan::ZERO;
        let mut max_quiet = SimSpan::ZERO;
        for _ in 0..200 {
            max_app = max_app.max(m.sample_irq_jitter(&app));
            max_quiet = max_quiet.max(m.sample_irq_jitter(&quiet));
        }
        assert!(max_app > max_quiet * 3.0);
    }
}
