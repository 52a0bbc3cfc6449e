//! The aitax-serve determinism and QoS contract, pinned end to end:
//!
//! * the attributed report and every artifact rendering
//!   (`serve_<scenario>.json`, CSV, `BENCH_serve.json`) are
//!   **byte-identical** across worker-thread counts 1/2/8;
//! * every hand-rolled JSON emitter produces documents a strict
//!   RFC 8259 validator accepts;
//! * the committed contention experiment shows the QoS policy working:
//!   interactive p99 under 2× solo while the lower classes absorb the
//!   attributed tax, with conservation holding on every scenario;
//! * the smoke scenario's per-tenant table is golden-pinned
//!   (`tests/goldens/serve_smoke_tenants.tsv`).

use std::fmt::Write as _;

use aitax::lab::cli::write_files;
use aitax::serve::{artifact, run_report, scenarios, ServeReport};
use aitax::testkit::{assert_valid_json, check_golden, Tolerance};

#[expect(clippy::expect_used, reason = "smoke is a committed scenario")]
fn smoke_report(threads: usize) -> ServeReport {
    let cfg = scenarios::by_name("smoke").expect("committed scenario");
    run_report(&cfg, threads).0
}

#[test]
fn artifacts_are_byte_identical_across_threads() {
    let serial = smoke_report(1);
    let json = artifact::serve_json(&serial);
    let csv = artifact::serve_csv(&serial);
    let bench = artifact::bench_json(&serial);
    for threads in [2, 8] {
        let parallel = smoke_report(threads);
        assert_eq!(
            json,
            artifact::serve_json(&parallel),
            "{threads} threads: serve JSON must be byte-identical to serial"
        );
        assert_eq!(csv, artifact::serve_csv(&parallel));
        assert_eq!(
            bench,
            artifact::bench_json(&parallel),
            "{threads} threads: BENCH_serve.json must be byte-identical to serial"
        );
    }
}

#[test]
fn emitted_artifacts_are_valid_json() {
    let report = smoke_report(2);
    assert_valid_json("serve_json", &artifact::serve_json(&report));
    assert_valid_json("serve_bench_json", &artifact::bench_json(&report));
}

#[test]
fn contention_protects_interactive_and_conserves_tax() {
    for name in scenarios::NAMES {
        let report = run_report(&scenarios::by_name(name).unwrap(), 2).0;
        let taxes = report.tenant_taxes();
        let violations = aitax::testkit::check_attribution_conservation(&taxes);
        assert!(violations.is_empty(), "scenario '{name}': {violations:?}");
    }
    let report = run_report(&scenarios::by_name("contention").unwrap(), 2).0;
    let by_qos = |label: &str| {
        report
            .tenants
            .iter()
            .find(|t| t.qos.label() == label)
            .expect("contention covers every class")
    };
    let interactive = by_qos("interactive");
    let best_effort = by_qos("best-effort");
    let background = by_qos("background");
    let inflation = interactive.multi.p99 / interactive.solo.p99;
    assert!(
        inflation < 2.0,
        "interactive p99 must stay under 2x solo, got {inflation:.2}x"
    );
    assert!(
        best_effort.caused_ms > background.suffered_ms * 0.5,
        "the best-effort tenant is the dominant aggressor"
    );
    assert!(
        background.suffered_ms > interactive.suffered_ms,
        "the background class absorbs the tax the interactive class is spared"
    );
}

#[test]
fn serve_smoke_tenants_match_golden() {
    let report = smoke_report(2);
    let mut tsv = String::from(
        "tenant\tqos\tengine\tcompleted\tshed\tsolo_p99_ms\tmulti_p99_ms\tsuffered_ms\tcaused_ms\n",
    );
    for t in &report.tenants {
        let _ = writeln!(
            tsv,
            "{}\t{}\t{}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
            t.label,
            t.qos.label(),
            t.engine,
            t.completed,
            t.shed,
            t.solo.p99,
            t.multi.p99,
            t.suffered_ms,
            t.caused_ms,
        );
    }
    check_golden("serve_smoke_tenants", &tsv, Tolerance::DEFAULT);
}

#[test]
fn artifacts_round_trip_through_disk() {
    let report = smoke_report(2);
    let dir = std::env::temp_dir().join(format!("aitax-serve-test-{}", std::process::id()));
    let bench_path = dir.join("BENCH_serve.json");
    let files = artifact::artifacts(&report).at(&dir, &bench_path);
    write_files(&files).expect("write serve artifacts and BENCH_serve.json");
    assert_eq!(files.len(), 3);
    assert_eq!(files[0].1, artifact::serve_json(&report));
    assert_eq!(files[2], (bench_path, artifact::bench_json(&report)));
    for (path, bytes) in &files {
        assert_eq!(&std::fs::read_to_string(path).expect("read back"), bytes);
    }
    std::fs::remove_dir_all(&dir).ok();
}
