//! The aitax-fleet determinism contract, pinned end to end:
//!
//! * fleet aggregates and every artifact rendering (`fleet_<name>.json`,
//!   CSV, `BENCH_fleet.json`) are **byte-identical** across worker-thread
//!   counts 1/2/8 and shard splits 1/3/8/`devices`;
//! * every hand-rolled JSON emitter produces documents a strict RFC 8259
//!   validator accepts;
//! * per-chipset and per-thermal-band cohort distributions are present
//!   and internally consistent;
//! * the cohort table of a fixed small fleet is golden-pinned
//!   (`tests/goldens/fleet_smoke_cohorts.tsv`).

use std::fmt::Write as _;

use aitax::fleet::{artifact, FleetReport, PopulationSpec};
use aitax::lab::cli::write_files;
use aitax::testkit::{assert_valid_json, check_golden, Tolerance};

const REQUESTS: u64 = 600;

fn smoke_spec() -> PopulationSpec {
    PopulationSpec::new("smoke").devices(48).seed(7)
}

fn smoke_report(shards: usize, threads: usize) -> FleetReport {
    let spec = smoke_spec();
    let partials = aitax::fleet::run_fleet(&spec, REQUESTS, shards, threads);
    FleetReport::aggregate(&spec, &partials)
}

#[test]
fn artifacts_are_byte_identical_across_threads_and_shards() {
    let serial = smoke_report(1, 1);
    let json = artifact::fleet_json(&serial);
    let csv = artifact::fleet_csv(&serial);
    let bench = artifact::bench_json(&serial);
    for (shards, threads) in [(1, 2), (3, 2), (8, 8), (48, 2), (5, 1)] {
        let parallel = smoke_report(shards, threads);
        assert_eq!(
            serial, parallel,
            "{shards} shards × {threads} threads: aggregate drifted"
        );
        assert_eq!(
            json,
            artifact::fleet_json(&parallel),
            "{shards}×{threads}: fleet JSON must be byte-identical to serial"
        );
        assert_eq!(csv, artifact::fleet_csv(&parallel));
        assert_eq!(
            bench,
            artifact::bench_json(&parallel),
            "{shards}×{threads}: BENCH_fleet.json must be byte-identical to serial"
        );
    }
}

#[test]
fn emitted_artifacts_are_valid_json() {
    let report = smoke_report(4, 2);
    assert_valid_json("fleet_json", &artifact::fleet_json(&report));
    assert_valid_json("fleet_bench_json", &artifact::bench_json(&report));
}

#[test]
fn cohort_breakdowns_are_present_and_consistent() {
    let report = smoke_report(6, 2);
    assert!(
        report.by_chipset.len() >= 2,
        "48 devices must sample several chipsets"
    );
    assert!(
        report.by_thermal.len() >= 2,
        "48 devices must sample several thermal bands"
    );
    assert!(!report.by_engine.is_empty());
    for group in [&report.by_chipset, &report.by_thermal, &report.by_engine] {
        for (label, c) in group {
            assert!(c.devices > 0, "{label}: empty cohorts are filtered out");
            assert!(
                c.latency.p50_ms() <= c.latency.p95_ms()
                    && c.latency.p95_ms() <= c.latency.p99_ms(),
                "{label}: percentiles must be ordered"
            );
            if c.requests > 0 {
                assert!(c.latency.min_ms() > 0.0, "{label}: latencies are positive");
                assert!(
                    c.tax.mean() > 0.0 && c.tax.mean() < 1.0,
                    "{label}: tax fraction must be a proper fraction"
                );
                assert!(c.energy_mj.mean() > 0.0, "{label}: probe energy present");
            }
        }
    }
    // The artifact exposes the cohorts the acceptance criteria name.
    let json = artifact::fleet_json(&report);
    assert!(json.contains("\"by_chipset\""));
    assert!(json.contains("\"by_thermal\""));
    assert!(json.contains("\"p99_ms\""));
    assert!(json.contains("\"tax_fraction\""));
    assert!(json.contains("\"energy_mj\""));
}

#[test]
fn request_totals_reconcile_across_any_split() {
    let spec = smoke_spec();
    for total in [0u64, 1, 47, 48, 49, REQUESTS] {
        let sum: u64 = (0..spec.devices).map(|k| spec.requests_for(k, total)).sum();
        assert_eq!(sum, total, "request split must be exact for {total}");
    }
}

#[test]
fn fleet_smoke_cohorts_match_golden() {
    let report = smoke_report(4, 2);
    let mut tsv = String::from("group\tlabel\tdevices\trequests\tp50_ms\tp99_ms\ttax\tenergy_mj\n");
    let mut row = |group: &str, label: &str, c: &aitax::fleet::Cohort| {
        let _ = writeln!(
            tsv,
            "{group}\t{label}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
            c.devices,
            c.requests,
            c.latency.p50_ms(),
            c.latency.p99_ms(),
            c.tax.mean(),
            c.energy_mj.mean(),
        );
    };
    row("total", "fleet", &report.total);
    for (label, c) in &report.by_chipset {
        row("chipset", label, c);
    }
    for (label, c) in &report.by_thermal {
        row("thermal", label, c);
    }
    for (label, c) in &report.by_engine {
        row("engine", label, c);
    }
    check_golden("fleet_smoke_cohorts", &tsv, Tolerance::DEFAULT);
}

#[test]
fn artifacts_round_trip_through_disk() {
    let report = smoke_report(2, 2);
    let dir = std::env::temp_dir().join(format!("aitax-fleet-test-{}", std::process::id()));
    let bench_path = dir.join("BENCH_fleet.json");
    let files = artifact::artifacts(&report).at(&dir, &bench_path);
    write_files(&files).expect("write fleet artifacts and BENCH_fleet.json");
    assert_eq!(files.len(), 3);
    assert_eq!(files[0].1, artifact::fleet_json(&report));
    assert_eq!(files[2], (bench_path, artifact::bench_json(&report)));
    for (path, bytes) in &files {
        assert_eq!(&std::fs::read_to_string(path).expect("read back"), bytes);
    }
    std::fs::remove_dir_all(&dir).ok();
}
