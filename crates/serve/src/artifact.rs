//! Canonical `aitax-serve/v1` artifacts (JSON + CSV) and the
//! `BENCH_serve.json` trajectory file.
//!
//! Same contract as the lab and fleet artifacts: fixed field order, fixed
//! float formatting ([`json_num`]), no wall-clock or host data — bytes
//! are identical for any `--threads`. Wall-clock performance of the run
//! itself goes to stderr in the binary, never into an artifact.

use std::fmt::Write as _;

use aitax_core::artifact::{dist_json, json_escape, json_num, json_rows};
use aitax_lab::cli::Artifacts;

use crate::attribution::{ServeReport, TenantReport};

fn tenant_json(out: &mut String, t: &TenantReport) {
    let _ = write!(
        out,
        "{{\"tenant\":\"{}\",\"qos\":\"{}\",\"model\":\"{}\",\"engine\":\"{}\",\
         \"rate_hz\":{},\"requests\":{},\"completed\":{},\"shed\":{},\
         \"burst_continuations\":{},\"tax_fraction\":{},\"suffered_ms\":{},\
         \"caused_ms\":{},\"self_ms\":{},\"solo\":",
        json_escape(&t.label),
        t.qos.label(),
        json_escape(&t.model),
        json_escape(&t.engine),
        json_num(t.rate_hz),
        t.requests,
        t.completed,
        t.shed,
        t.burst_continuations,
        json_num(t.tax_fraction),
        json_num(t.suffered_ms),
        json_num(t.caused_ms),
        json_num(t.self_ms),
    );
    dist_json(out, &t.solo);
    out.push_str(",\"multi\":");
    dist_json(out, &t.multi);
    out.push_str(",\"queue\":");
    dist_json(out, &t.queue);
    out.push('}');
}

/// The canonical `aitax-serve/v1` JSON artifact.
pub fn serve_json(report: &ServeReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"aitax-serve/v1\",\n");
    let _ = writeln!(
        out,
        "  \"scenario\": \"{}\",",
        json_escape(&report.scenario)
    );
    let _ = writeln!(out, "  \"soc\": \"{}\",", json_escape(&report.soc));
    let _ = writeln!(out, "  \"seed\": {},", report.seed);
    match report.queue_bound {
        Some(b) => {
            let _ = writeln!(out, "  \"queue_bound\": {b},");
        }
        None => out.push_str("  \"queue_bound\": null,\n"),
    }
    let _ = writeln!(out, "  \"added_ms\": {},", json_num(report.added_ms));
    let _ = writeln!(
        out,
        "  \"attributed_ms\": {},",
        json_num(report.attributed_ms)
    );
    let _ = writeln!(out, "  \"membw_queued\": {},", report.membw_queued);
    out.push_str("  \"tenants\": [\n");
    json_rows(&mut out, &report.tenants, |out, t| {
        out.push_str("    ");
        tenant_json(out, t);
    });
    out.push_str("  ]\n}\n");
    out
}

/// One CSV row per tenant (spreadsheet-side analysis).
pub fn serve_csv(report: &ServeReport) -> String {
    let mut out = String::from(
        "scenario,tenant,qos,model,engine,rate_hz,requests,completed,shed,\
         burst_continuations,solo_p50_ms,solo_p99_ms,multi_p50_ms,multi_p99_ms,\
         queue_p99_ms,tax_fraction,suffered_ms,caused_ms,self_ms\n",
    );
    for t in &report.tenants {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            report.scenario,
            t.label,
            t.qos.label(),
            t.model,
            t.engine,
            json_num(t.rate_hz),
            t.requests,
            t.completed,
            t.shed,
            t.burst_continuations,
            json_num(t.solo.p50),
            json_num(t.solo.p99),
            json_num(t.multi.p50),
            json_num(t.multi.p99),
            json_num(t.queue.p99),
            json_num(t.tax_fraction),
            json_num(t.suffered_ms),
            json_num(t.caused_ms),
            json_num(t.self_ms),
        );
    }
    out
}

/// The `BENCH_serve.json` trajectory file: a headline (interactive p99
/// protection ratio + total attributed tax) plus one point per tenant.
pub fn bench_json(report: &ServeReport) -> String {
    // Worst interactive-tenant p99 inflation over solo — the QoS
    // protection headline (1.0 = perfectly protected).
    let protection = report
        .tenants
        .iter()
        .filter(|t| t.qos == aitax_core::QosClass::Interactive && t.solo.p99 > 0.0)
        .map(|t| t.multi.p99 / t.solo.p99)
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"aitax-serve-bench/v1\",\n");
    let _ = writeln!(
        out,
        "  \"scenario\": \"{}\",",
        json_escape(&report.scenario)
    );
    let _ = writeln!(
        out,
        "  \"headline\": {{\"interactive_p99_inflation\": {}, \"added_ms\": {}}},",
        json_num(protection),
        json_num(report.added_ms)
    );
    out.push_str("  \"tenants\": [\n");
    json_rows(&mut out, &report.tenants, |out, t| {
        let _ = write!(
            out,
            "    {{\"tenant\":\"{}\",\"qos\":\"{}\",\"solo_p99_ms\":{},\"multi_p99_ms\":{},\
             \"suffered_ms\":{},\"caused_ms\":{}}}",
            json_escape(&t.label),
            t.qos.label(),
            json_num(t.solo.p99),
            json_num(t.multi.p99),
            json_num(t.suffered_ms),
            json_num(t.caused_ms),
        );
    });
    out.push_str("  ]\n}\n");
    out
}

/// The artifact set: `serve_<scenario>.json`, `serve_<scenario>.csv`
/// and the `BENCH_serve.json` bytes.
pub fn artifacts(report: &ServeReport) -> Artifacts {
    let name = &report.scenario;
    Artifacts {
        files: vec![
            (format!("serve_{name}.json"), serve_json(report)),
            (format!("serve_{name}.csv"), serve_csv(report)),
        ],
        bench: bench_json(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::run_report;
    use crate::scenarios;

    fn small_report() -> ServeReport {
        let cfg = scenarios::by_name("smoke").unwrap().seed(2);
        run_report(&cfg, 2).0
    }

    #[test]
    fn json_schema_and_fields() {
        let json = serve_json(&small_report());
        assert!(json.starts_with("{\n  \"schema\": \"aitax-serve/v1\""));
        assert!(json.contains("\"tenant\":\"viewfinder\""));
        assert!(json.contains("\"qos\":\"interactive\""));
        assert!(json.contains("\"suffered_ms\""));
        assert!(json.contains("\"multi\":{\"n\":"));
        aitax_testkit::assert_valid_json("serve_json", &json);
    }

    #[test]
    fn csv_column_count_is_stable() {
        let csv = serve_csv(&small_report());
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(header_cols, 19);
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), header_cols, "{line}");
        }
    }

    #[test]
    fn bench_json_headline() {
        let report = small_report();
        let bench = bench_json(&report);
        assert!(bench.contains("\"schema\": \"aitax-serve-bench/v1\""));
        assert!(bench.contains("interactive_p99_inflation"));
        aitax_testkit::assert_valid_json("bench_json", &bench);
    }

    #[test]
    fn artifacts_are_reproducible() {
        let a = serve_json(&small_report());
        let b = serve_json(&small_report());
        assert_eq!(a, b);
    }
}
