//! Versioned machine-readable fleet artifacts.
//!
//! A fleet run emits three files: `fleet_<population>.json` (the full
//! aggregate, schema `aitax-fleet/v1`), `fleet_<population>.csv` (one
//! headline row per cohort) and `BENCH_fleet.json` (schema
//! `aitax-fleet-bench/v1`, the compact population-trajectory file CI
//! uploads and later PRs diff).
//!
//! Rendering reuses the canonical primitives in [`aitax_core::artifact`]:
//! fixed field order, fixed float formatting, no wall-clock or host data
//! (and no `--shards` / `--threads` values — those must not influence a
//! single artifact byte). Wall-clock performance of the run itself is
//! reported on stderr by the `fleet` binary, never in an artifact.

use std::fmt::Write as _;

use aitax_core::artifact::{json_escape, json_num, json_rows, stream_dist_json};
use aitax_lab::cli::Artifacts;

use crate::agg::{Cohort, FleetReport};

fn cohort_json(out: &mut String, c: &Cohort) {
    let _ = write!(
        out,
        "{{\"devices\":{},\"requests\":{},\"latency\":",
        c.devices, c.requests,
    );
    stream_dist_json(out, &c.latency);
    let deg = &c.degradation;
    let _ = write!(
        out,
        ",\"tax_fraction\":{},\"model_init_ms\":{},\"energy_mj\":{},\"energy_tax\":{},\
         \"mean_power_w\":{},\"degradation\":{{\"faults_injected\":{},\"rpc_retries\":{},\
         \"rpc_giveups\":{},\"cpu_fallbacks\":{},\"added_tax_ms\":{}}}}}",
        json_num(c.tax.mean()),
        json_num(c.init.mean()),
        json_num(c.energy_mj.mean()),
        json_num(c.energy_tax.mean()),
        json_num(c.power.mean()),
        deg.faults_injected,
        deg.rpc_retries,
        deg.rpc_giveups,
        deg.cpu_fallbacks,
        json_num(deg.added_tax_ms),
    );
}

fn group_json(out: &mut String, name: &str, group: &[(String, Cohort)]) {
    let _ = writeln!(out, "  \"{name}\": [");
    json_rows(out, group, |out, (label, c)| {
        let _ = write!(out, "    {{\"label\":\"{}\",\"stats\":", json_escape(label));
        cohort_json(out, c);
        out.push('}');
    });
    out.push_str("  ]");
}

/// Renders the full aggregate as versioned JSON (`aitax-fleet/v1`).
pub fn fleet_json(report: &FleetReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{}\",\n  \"population\": \"{}\",\n  \"seed\": {},\n  \
         \"devices\": {},\n  \"requests\": {},\n  \"total\": ",
        report.schema,
        json_escape(&report.population),
        report.seed,
        report.devices,
        report.requests,
    );
    cohort_json(&mut out, &report.total);
    out.push_str(",\n");
    group_json(&mut out, "by_chipset", &report.by_chipset);
    out.push_str(",\n");
    group_json(&mut out, "by_thermal", &report.by_thermal);
    out.push_str(",\n");
    group_json(&mut out, "by_engine", &report.by_engine);
    out.push_str("\n}\n");
    out
}

fn csv_row(out: &mut String, group: &str, label: &str, c: &Cohort) {
    let _ = writeln!(
        out,
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        group,
        label,
        c.devices,
        c.requests,
        json_num(c.latency.mean()),
        json_num(c.latency.p50_ms()),
        json_num(c.latency.p95_ms()),
        json_num(c.latency.p99_ms()),
        json_num(c.latency.cv()),
        json_num(c.tax.mean()),
        json_num(c.energy_mj.mean()),
        json_num(c.energy_tax.mean()),
        json_num(c.power.mean()),
        c.degradation.faults_injected,
        c.degradation.cpu_fallbacks,
        json_num(c.degradation.added_tax_ms),
    );
}

/// Renders one headline CSV row per cohort (fleet total first).
pub fn fleet_csv(report: &FleetReport) -> String {
    let mut out = String::from(
        "group,label,devices,requests,lat_mean_ms,lat_p50_ms,lat_p95_ms,lat_p99_ms,lat_cv,\
         tax_fraction,energy_mj,energy_tax,mean_power_w,faults_injected,cpu_fallbacks,\
         added_tax_ms\n",
    );
    csv_row(&mut out, "total", "fleet", &report.total);
    for (group, cohorts) in [
        ("chipset", &report.by_chipset),
        ("thermal", &report.by_thermal),
        ("engine", &report.by_engine),
    ] {
        for (label, c) in cohorts {
            csv_row(&mut out, group, label, c);
        }
    }
    out
}

/// Renders the compact `BENCH_fleet.json` population-trajectory file
/// (`aitax-fleet-bench/v1`): one fleet headline plus one point per
/// chipset cohort. Deterministic — contains only simulated metrics.
pub fn bench_json(report: &FleetReport) -> String {
    let mut out = String::new();
    let t = &report.total;
    let _ = write!(
        out,
        "{{\n  \"schema\": \"aitax-fleet-bench/v1\",\n  \"population\": \"{}\",\n  \
         \"seed\": {},\n  \"devices\": {},\n  \"requests\": {},\n  \
         \"headline\": {{\"e2e_p50_ms\": {}, \"e2e_p95_ms\": {}, \"e2e_p99_ms\": {}, \
         \"mean_tax_fraction\": {}, \"mean_energy_mj\": {}, \"faults_injected\": {}}},\n  \
         \"chipsets\": [\n",
        json_escape(&report.population),
        report.seed,
        report.devices,
        report.requests,
        json_num(t.latency.p50_ms()),
        json_num(t.latency.p95_ms()),
        json_num(t.latency.p99_ms()),
        json_num(t.tax.mean()),
        json_num(t.energy_mj.mean()),
        t.degradation.faults_injected,
    );
    json_rows(&mut out, &report.by_chipset, |out, (label, c)| {
        let _ = write!(
            out,
            "    {{\"chipset\": \"{}\", \"devices\": {}, \"e2e_p50_ms\": {}, \
             \"e2e_p95_ms\": {}, \"e2e_p99_ms\": {}, \"tax_fraction\": {}, \
             \"energy_mj\": {}}}",
            json_escape(label),
            c.devices,
            json_num(c.latency.p50_ms()),
            json_num(c.latency.p95_ms()),
            json_num(c.latency.p99_ms()),
            json_num(c.tax.mean()),
            json_num(c.energy_mj.mean()),
        );
    });
    out.push_str("  ]\n}\n");
    out
}

/// The artifact set: `fleet_<population>.json`, `fleet_<population>.csv`
/// and the `BENCH_fleet.json` bytes.
pub fn artifacts(report: &FleetReport) -> Artifacts {
    let name = &report.population;
    Artifacts {
        files: vec![
            (format!("fleet_{name}.json"), fleet_json(report)),
            (format!("fleet_{name}.csv"), fleet_csv(report)),
        ],
        bench: bench_json(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationSpec;
    use crate::shard::run_fleet;

    fn report() -> FleetReport {
        let spec = PopulationSpec::new("artifact-test").devices(12).seed(6);
        let partials = run_fleet(&spec, 48, 3, 1);
        FleetReport::aggregate(&spec, &partials)
    }

    #[test]
    fn fleet_json_has_schema_and_cohorts() {
        let j = fleet_json(&report());
        assert!(j.contains("\"schema\": \"aitax-fleet/v1\""));
        assert!(j.contains("\"total\": {\"devices\":12,\"requests\":48"));
        assert!(j.contains("\"by_chipset\": ["));
        assert!(j.contains("\"by_thermal\": ["));
        assert!(j.contains("\"by_engine\": ["));
        assert!(j.contains("\"hist\":[["));
    }

    #[test]
    fn csv_covers_total_and_every_cohort() {
        let rep = report();
        let c = fleet_csv(&rep);
        let lines: Vec<&str> = c.lines().collect();
        let cohorts = rep.by_chipset.len() + rep.by_thermal.len() + rep.by_engine.len();
        assert_eq!(lines.len(), 2 + cohorts, "header + total + cohorts");
        assert!(lines[0].starts_with("group,label,"));
        assert!(lines[1].starts_with("total,fleet,12,48,"));
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols);
        }
    }

    #[test]
    fn bench_json_is_compact_and_versioned() {
        let b = bench_json(&report());
        assert!(b.contains("\"schema\": \"aitax-fleet-bench/v1\""));
        assert!(b.contains("\"headline\": {\"e2e_p50_ms\": "));
        assert!(b.contains("\"chipsets\": ["));
    }

    #[test]
    fn rendering_is_reproducible() {
        let a = report();
        let b = report();
        assert_eq!(fleet_json(&a), fleet_json(&b));
        assert_eq!(fleet_csv(&a), fleet_csv(&b));
        assert_eq!(bench_json(&a), bench_json(&b));
    }
}
