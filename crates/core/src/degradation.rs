//! Per-run graceful-degradation accounting.
//!
//! When a [`FaultPlan`](aitax_des::FaultPlan) is installed, the stack
//! responds the way the paper observes real phones responding: FastRPC
//! retries with backoff, the framework falls back to the CPU reference
//! path, thermal emergencies throttle the clocks. The
//! [`DegradationReport`] sits beside `TaxReport`/`EnergyReport` in the
//! [`E2eReport`](crate::pipeline::E2eReport) and attributes the *added*
//! AI tax those responses cost.

use aitax_kernel::DegradationStats;

/// How a run degraded under fault injection, with the added tax priced
/// in milliseconds (and millijoules when energy metering ran).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Raw fault/retry/fallback counters from the kernel.
    pub stats: DegradationStats,
    /// Milliseconds of added tax: RPC stall (timeouts + backoff) plus
    /// the extra wall time of CPU fallbacks over the planned
    /// accelerator execution.
    pub added_tax_ms: f64,
    /// The added tax priced at the run's mean package power, in mJ.
    /// `None` when the run had no energy metering (tracing off).
    pub added_energy_mj: Option<f64>,
}

impl DegradationReport {
    /// Builds a report from kernel counters, pricing the added tax at
    /// `mean_power_w` when available.
    pub fn new(stats: DegradationStats, mean_power_w: Option<f64>) -> Self {
        let added_tax_ms = stats.rpc_stall.as_ms() + stats.fallback_added.as_ms();
        let added_energy_mj = mean_power_w.map(|w| added_tax_ms * w);
        DegradationReport {
            stats,
            added_tax_ms,
            added_energy_mj,
        }
    }

    /// True when the run saw no faults and took no degradation action.
    pub fn is_clean(&self) -> bool {
        self.stats.is_clean()
    }

    /// Byte-deterministic TSV rendering (metric, value).
    pub fn render_tsv(&self) -> String {
        use std::fmt::Write as _;
        let s = &self.stats;
        let mut out = String::from("metric\tvalue\n");
        for (name, v) in [
            ("faults_injected", s.faults_injected),
            ("rpc_retries", s.rpc_retries),
            ("rpc_timeouts", s.rpc_timeouts),
            ("rpc_io_errors", s.rpc_io_errors),
            ("rpc_giveups", s.rpc_giveups),
            ("cpu_fallbacks", s.cpu_fallbacks),
            ("thermal_emergencies", s.thermal_emergencies),
            ("cache_storm_flushes", s.cache_storm_flushes),
            ("background_bursts", s.background_bursts),
        ] {
            let _ = writeln!(out, "{name}\t{v}");
        }
        let _ = writeln!(out, "rpc_stall_ms\t{:.6}", s.rpc_stall.as_ms());
        let _ = writeln!(out, "fallback_added_ms\t{:.6}", s.fallback_added.as_ms());
        let _ = writeln!(out, "added_tax_ms\t{:.6}", self.added_tax_ms);
        match self.added_energy_mj {
            Some(mj) => {
                let _ = writeln!(out, "added_energy_mj\t{mj:.6}");
            }
            None => {
                let _ = writeln!(out, "added_energy_mj\tn/a");
            }
        }
        out
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use aitax_des::SimSpan;

    #[test]
    fn clean_report_is_clean() {
        let r = DegradationReport::new(DegradationStats::default(), None);
        assert!(r.is_clean());
        assert_eq!(r.added_tax_ms, 0.0);
        assert_eq!(r.added_energy_mj, None);
    }

    #[test]
    fn added_tax_sums_stall_and_fallback() {
        let stats = DegradationStats {
            rpc_stall: SimSpan::from_ms(100.0),
            fallback_added: SimSpan::from_ms(50.0),
            ..Default::default()
        };
        let r = DegradationReport::new(stats, Some(2.0));
        assert!((r.added_tax_ms - 150.0).abs() < 1e-9);
        // 150 ms at 2 W = 0.3 J = 300 mJ.
        assert!((r.added_energy_mj.unwrap() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn tsv_is_deterministic_and_complete() {
        let stats = DegradationStats {
            faults_injected: 3,
            rpc_timeouts: 2,
            rpc_stall: SimSpan::from_ms(10.0),
            ..Default::default()
        };
        let a = DegradationReport::new(stats.clone(), None).render_tsv();
        let b = DegradationReport::new(stats, None).render_tsv();
        assert_eq!(a, b);
        assert!(a.contains("faults_injected\t3"));
        assert!(a.contains("rpc_stall_ms\t10.000000"));
        assert!(a.contains("added_energy_mj\tn/a"));
        assert_eq!(a.lines().count(), 14);
    }
}
