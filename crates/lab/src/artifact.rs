//! Versioned machine-readable artifacts.
//!
//! Sweeps emit three files: `lab_<grid>.json` (the full aggregate,
//! schema `aitax-lab/v1`), `lab_<grid>.csv` (one headline row per
//! scenario) and `BENCH_lab.json` (schema `aitax-lab-bench/v1`, the
//! compact perf-trajectory file CI uploads and later PRs diff).
//!
//! All serialization is hand-rolled (the workspace is dependency-free)
//! and **canonical**: fixed field order, fixed float formatting, no
//! wall-clock or host data — so artifact bytes are identical for any
//! thread count and any machine. Wall-clock performance of the sweep
//! itself is reported on stderr by the `lab` binary, never in an
//! artifact.

use std::fmt::Write as _;

use aitax_core::artifact::{dist_json, json_escape, json_num, json_rows};

use crate::agg::{ScenarioStats, SweepReport};
use crate::cli::Artifacts;

fn scenario_json(out: &mut String, s: &ScenarioStats) {
    let _ = write!(
        out,
        "    {{\"label\":\"{}\",\"jobs\":{},\"iterations\":{},\"tax_fraction\":{},\
         \"model_init_ms\":{},\"e2e\":",
        json_escape(&s.label),
        s.jobs,
        s.iterations,
        json_num(s.tax_fraction),
        json_num(s.model_init_ms),
    );
    dist_json(out, &s.e2e);
    out.push_str(",\"stages\":{");
    for (i, (stage, d)) in s.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{stage}\":");
        dist_json(out, d);
    }
    let deg = &s.degradation;
    let _ = write!(
        out,
        "}},\"degradation\":{{\"faults_injected\":{},\"rpc_retries\":{},\"rpc_giveups\":{},\
         \"cpu_fallbacks\":{},\"added_tax_ms\":{}}}",
        deg.faults_injected,
        deg.rpc_retries,
        deg.rpc_giveups,
        deg.cpu_fallbacks,
        json_num(deg.added_tax_ms),
    );
    match &s.energy {
        Some(e) => {
            let _ = write!(
                out,
                ",\"energy\":{{\"energy_mj\":{},\"energy_tax\":{},\"mean_power_w\":{},\
                 \"edp_mj_ms\":{}}}}}",
                json_num(e.energy_mj),
                json_num(e.energy_tax),
                json_num(e.mean_power_w),
                json_num(e.edp_mj_ms),
            );
        }
        None => out.push_str(",\"energy\":null}"),
    }
}

/// Renders the full aggregate as versioned JSON (`aitax-lab/v1`).
pub fn sweep_json(report: &SweepReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{}\",\n  \"grid\": \"{}\",\n  \"base_seed\": {},\n  \
         \"repeats\": {},\n  \"jobs\": {},\n  \"scenarios\": [\n",
        report.schema,
        json_escape(&report.grid),
        report.base_seed,
        report.repeats,
        report.jobs,
    );
    json_rows(&mut out, &report.scenarios, scenario_json);
    out.push_str("  ]\n}\n");
    out
}

/// Renders one headline CSV row per scenario.
pub fn sweep_csv(report: &SweepReport) -> String {
    let mut out = String::from(
        "scenario,jobs,iterations,e2e_mean_ms,e2e_p50_ms,e2e_p95_ms,e2e_p99_ms,e2e_cv,\
         max_dev_from_median,tax_fraction,model_init_ms,faults_injected,rpc_retries,\
         cpu_fallbacks,added_tax_ms,energy_mj,energy_tax\n",
    );
    for s in &report.scenarios {
        let (energy_mj, energy_tax) = match &s.energy {
            Some(e) => (json_num(e.energy_mj), json_num(e.energy_tax)),
            None => (String::new(), String::new()),
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            s.label,
            s.jobs,
            s.iterations,
            json_num(s.e2e.mean),
            json_num(s.e2e.p50),
            json_num(s.e2e.p95),
            json_num(s.e2e.p99),
            json_num(s.e2e.cv),
            json_num(s.e2e.max_dev_from_median),
            json_num(s.tax_fraction),
            json_num(s.model_init_ms),
            s.degradation.faults_injected,
            s.degradation.rpc_retries,
            s.degradation.cpu_fallbacks,
            json_num(s.degradation.added_tax_ms),
            energy_mj,
            energy_tax,
        );
    }
    out
}

/// Renders the compact `BENCH_lab.json` perf-trajectory file
/// (`aitax-lab-bench/v1`): one headline block plus one trajectory point
/// per scenario. Deterministic — contains only simulated metrics.
pub fn bench_json(report: &SweepReport) -> String {
    let worst_p99 = report
        .scenarios
        .iter()
        .map(|s| s.e2e.p99)
        .fold(0.0_f64, f64::max);
    let worst_cv = report
        .scenarios
        .iter()
        .map(|s| s.e2e.cv)
        .fold(0.0_f64, f64::max);
    let mut tax = aitax_core::Welford::new();
    for s in &report.scenarios {
        tax.push(s.tax_fraction);
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"aitax-lab-bench/v1\",\n  \"grid\": \"{}\",\n  \
         \"base_seed\": {},\n  \"jobs\": {},\n  \"scenarios\": {},\n  \
         \"headline\": {{\"worst_e2e_p99_ms\": {}, \"worst_e2e_cv\": {}, \
         \"mean_tax_fraction\": {}}},\n  \"trajectory\": [\n",
        json_escape(&report.grid),
        report.base_seed,
        report.jobs,
        report.scenarios.len(),
        json_num(worst_p99),
        json_num(worst_cv),
        json_num(tax.mean()),
    );
    json_rows(&mut out, &report.scenarios, |out, s| {
        let _ = write!(
            out,
            "    {{\"scenario\": \"{}\", \"e2e_p50_ms\": {}, \"e2e_p95_ms\": {}, \
             \"e2e_p99_ms\": {}, \"e2e_cv\": {}, \"tax_fraction\": {}}}",
            json_escape(&s.label),
            json_num(s.e2e.p50),
            json_num(s.e2e.p95),
            json_num(s.e2e.p99),
            json_num(s.e2e.cv),
            json_num(s.tax_fraction),
        );
    });
    out.push_str("  ]\n}\n");
    out
}

/// The sweep's artifact set: `lab_<grid>.json`, `lab_<grid>.csv` and
/// the `BENCH_lab.json` bytes.
pub fn artifacts(report: &SweepReport) -> Artifacts {
    Artifacts {
        files: vec![
            (format!("lab_{}.json", report.grid), sweep_json(report)),
            (format!("lab_{}.csv", report.grid), sweep_csv(report)),
        ],
        bench: bench_json(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_jobs;
    use crate::scenario::{Grid, Scenario};
    use aitax_models::zoo::ModelId;
    use aitax_tensor::DType;

    fn report() -> SweepReport {
        let grid = Grid::new("artifact-test")
            .repeats(2)
            .push(Scenario::new("a", ModelId::MobileNetV1, DType::F32).iterations(3));
        let results = run_jobs(grid.expand(), 1);
        SweepReport::aggregate(&grid, &results)
    }

    #[test]
    fn sweep_json_has_schema_and_scenarios() {
        let j = sweep_json(&report());
        assert!(j.contains("\"schema\": \"aitax-lab/v1\""));
        assert!(j.contains("\"label\":\"a\""));
        assert!(j.contains("\"cdf\":["));
        assert!(j.contains("\"energy\":null"));
    }

    #[test]
    fn csv_row_per_scenario_with_header() {
        let c = sweep_csv(&report());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("scenario,jobs,"));
        assert!(lines[1].starts_with("a,2,3,"));
        let cols = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), cols);
    }

    #[test]
    fn bench_json_is_compact_and_versioned() {
        let b = bench_json(&report());
        assert!(b.contains("\"schema\": \"aitax-lab-bench/v1\""));
        assert!(b.contains("\"trajectory\": ["));
        assert!(b.contains("\"worst_e2e_p99_ms\""));
    }

    #[test]
    fn rendering_is_reproducible() {
        let a = report();
        let b = report();
        assert_eq!(sweep_json(&a), sweep_json(&b));
        assert_eq!(bench_json(&a), bench_json(&b));
        assert_eq!(sweep_csv(&a), sweep_csv(&b));
    }
}
