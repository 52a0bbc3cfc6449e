//! Presentation tables derived from aggregated sweeps.
//!
//! The figure/table binaries run a named grid through the engine and
//! render the aggregate with these helpers, so the numbers a human reads
//! and the numbers in the JSON/CSV artifacts are the same aggregate —
//! there is no second ad-hoc statistics path.

use aitax_core::report::{fmt_ms, fmt_pct, Table};
use aitax_core::Stage;

use crate::agg::{ScenarioStats, SweepReport};

/// The scenario's mean latency of `stage` (0 when the stage never ran).
fn stage_mean(s: &ScenarioStats, stage: Stage) -> f64 {
    s.stages
        .iter()
        .find(|(st, _)| *st == stage)
        .map_or(0.0, |(_, d)| d.mean)
}

/// Fig. 9/10-style multitenancy breakdown: one row per background count.
pub fn multitenancy_table(report: &SweepReport) -> Table {
    let mut t = Table::new(vec![
        "background_inferences",
        "capture_ms",
        "preproc_ms",
        "inference_ms",
        "postproc_ms",
        "e2e_ms",
    ]);
    for s in &report.scenarios {
        t.row(vec![
            s.label.clone(),
            fmt_ms(stage_mean(s, Stage::DataCapture)),
            fmt_ms(stage_mean(s, Stage::PreProcessing)),
            fmt_ms(stage_mean(s, Stage::Inference)),
            fmt_ms(stage_mean(s, Stage::PostProcessing)),
            fmt_ms(s.e2e.mean),
        ]);
    }
    t
}

/// Fig. 11-style distribution table: one row per mode, pooled over the
/// grid's seeded repeats.
pub fn distribution_table(report: &SweepReport) -> Table {
    let mut t = Table::new(vec![
        "mode",
        "jobs",
        "median_ms",
        "mean_ms",
        "p95_ms",
        "p99_ms",
        "cv",
        "max_dev_from_median",
    ]);
    for s in &report.scenarios {
        t.row(vec![
            s.label.clone(),
            s.jobs.to_string(),
            fmt_ms(s.e2e.p50),
            fmt_ms(s.e2e.mean),
            fmt_ms(s.e2e.p95),
            fmt_ms(s.e2e.p99),
            format!("{:.3}", s.e2e.cv),
            fmt_pct(s.e2e.max_dev_from_median),
        ]);
    }
    t
}

/// Table I companion: measured end-to-end latency per benchmark entry.
pub fn model_latency_table(report: &SweepReport) -> Table {
    let mut t = Table::new(vec![
        "benchmark",
        "e2e_mean_ms",
        "e2e_p95_ms",
        "init_ms",
        "tax_fraction",
    ]);
    for s in &report.scenarios {
        t.row(vec![
            s.label.clone(),
            fmt_ms(s.e2e.mean),
            fmt_ms(s.e2e.p95),
            fmt_ms(s.model_init_ms),
            fmt_pct(s.tax_fraction),
        ]);
    }
    t
}

/// Table II companion: measured stage latencies, AI tax and energy per
/// platform — the §III-C chipset sweep.
pub fn platform_table(report: &SweepReport) -> Table {
    let mut t = Table::new(vec![
        "platform",
        "capture_ms",
        "preproc_ms",
        "inference_ms",
        "e2e_mean_ms",
        "tax_fraction",
        "energy_mj",
        "energy_tax",
        "power_w",
    ]);
    for s in &report.scenarios {
        let (mj, tax, w) = match &s.energy {
            Some(e) => (
                format!("{:.2}", e.energy_mj),
                fmt_pct(e.energy_tax),
                format!("{:.2}", e.mean_power_w),
            ),
            None => ("n/a".into(), "n/a".into(), "n/a".into()),
        };
        t.row(vec![
            s.label.clone(),
            fmt_ms(stage_mean(s, Stage::DataCapture)),
            fmt_ms(stage_mean(s, Stage::PreProcessing)),
            fmt_ms(stage_mean(s, Stage::Inference)),
            fmt_ms(s.e2e.mean),
            fmt_pct(s.tax_fraction),
            mj,
            tax,
            w,
        ]);
    }
    t
}

/// Fault-sweep table: slowdown and degradation counters per fault kind,
/// relative to the grid's `"none"` baseline scenario (first row).
pub fn fault_table(report: &SweepReport) -> Table {
    let healthy_ms = report
        .scenario("none")
        .map(|s| s.e2e.mean)
        .unwrap_or(f64::NAN);
    let mut t = Table::new(vec![
        "fault",
        "e2e_ms",
        "slowdown",
        "retries",
        "giveups",
        "fallbacks",
        "added_tax_ms",
    ]);
    for s in &report.scenarios {
        let d = &s.degradation;
        t.row(vec![
            s.label.clone(),
            fmt_ms(s.e2e.mean),
            format!("{:.2}x", s.e2e.mean / healthy_ms),
            d.rpc_retries.to_string(),
            d.rpc_giveups.to_string(),
            d.cpu_fallbacks.to_string(),
            format!("{:.2}", d.added_tax_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_jobs;
    use crate::scenarios;

    fn report(name: &str) -> SweepReport {
        let grid = scenarios::by_name(name, 3, 1).unwrap().repeats(1);
        let results = run_jobs(grid.expand(), 1);
        SweepReport::aggregate(&grid, &results)
    }

    #[test]
    fn multitenancy_rows_match_grid() {
        let t = multitenancy_table(&report("fig10"));
        assert_eq!(t.len(), 6);
        assert_eq!(t.rows()[0][0], "0");
    }

    #[test]
    fn distribution_table_has_percentiles() {
        let t = distribution_table(&report("fig11"));
        assert_eq!(t.len(), 2);
        assert!(t.rows()[0][7].ends_with('%'));
    }

    #[test]
    fn fault_table_baseline_is_unity() {
        let t = fault_table(&report("faults"));
        assert_eq!(t.rows()[0][0], "none");
        assert_eq!(t.rows()[0][2], "1.00x");
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn platform_table_reports_energy() {
        let t = platform_table(&report("table2"));
        assert_eq!(t.len(), 4);
        assert_ne!(t.rows()[0][6], "n/a", "traced sweep must report energy");
    }
}
