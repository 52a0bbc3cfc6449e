//! The aitax-lab determinism contract, pinned end to end:
//!
//! * sweep aggregates and every artifact rendering (`lab_<grid>.json`,
//!   CSV, `BENCH_lab.json`) are **byte-identical** at 1, 2 and 8 worker
//!   threads;
//! * every hand-rolled JSON emitter produces documents a strict RFC 8259
//!   validator accepts;
//! * the Chrome-trace export of the Fig. 7 FastRPC flow is golden-pinned
//!   exactly (`tests/goldens/fig7_chrome_trace.tsv`).

use aitax::core::pipeline::E2eConfig;
use aitax::core::runmode::RunMode;
use aitax::framework::Engine;
use aitax::lab::cli::write_files;
use aitax::lab::{artifact, chrome_trace, run_jobs, scenarios, SweepReport};
use aitax::models::zoo::ModelId;
use aitax::tensor::DType;
use aitax::testkit::{assert_valid_json, check_golden, Tolerance};

fn smoke_report(threads: usize) -> SweepReport {
    let grid = scenarios::smoke(4, 7);
    let results = run_jobs(grid.expand(), threads);
    SweepReport::aggregate(&grid, &results)
}

#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    let serial = smoke_report(1);
    let json = artifact::sweep_json(&serial);
    let csv = artifact::sweep_csv(&serial);
    let bench = artifact::bench_json(&serial);
    for threads in [2, 8] {
        let parallel = smoke_report(threads);
        assert_eq!(serial, parallel, "{threads}-thread aggregate drifted");
        assert_eq!(
            json,
            artifact::sweep_json(&parallel),
            "{threads}-thread sweep JSON must be byte-identical to serial"
        );
        assert_eq!(csv, artifact::sweep_csv(&parallel));
        assert_eq!(
            bench,
            artifact::bench_json(&parallel),
            "{threads}-thread BENCH_lab.json must be byte-identical to serial"
        );
    }
}

#[test]
fn emitted_artifacts_are_valid_json() {
    let report = smoke_report(2);
    assert_valid_json("sweep_json", &artifact::sweep_json(&report));
    assert_valid_json("bench_json", &artifact::bench_json(&report));
}

#[test]
fn fig7_chrome_trace_matches_golden() {
    let (trace, _t0) = aitax_bench::fig7_trace();
    let json = chrome_trace(&trace, "fig7 · fastrpc invoke");
    assert_valid_json("fig7_chrome_trace", &json);
    check_golden("fig7_chrome_trace", &json, Tolerance::EXACT);
}

#[test]
fn nnapi_app_trace_export_is_valid_json() {
    let report = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
        .engine(Engine::nnapi())
        .run_mode(RunMode::AndroidApp)
        .iterations(3)
        .seed(11)
        .tracing(true)
        .run();
    let trace = report.trace.expect("tracing was enabled");
    let json = chrome_trace(&trace, "sd845 · nnapi app");
    assert_valid_json("nnapi_app_chrome_trace", &json);
    // The app trace exercises every event family the exporter handles.
    for needle in [
        "\"ph\":\"X\"",
        "\"ph\":\"C\"",
        "\"ph\":\"i\"",
        "\"ph\":\"M\"",
    ] {
        assert!(
            json.contains(needle),
            "trace export missing {needle} events"
        );
    }
}

#[test]
fn bench_file_round_trips_through_disk() {
    let report = smoke_report(2);
    let dir = std::env::temp_dir().join(format!("aitax-lab-test-{}", std::process::id()));
    let path = dir.join("BENCH_lab.json");
    let files = artifact::artifacts(&report).at(&dir, &path);
    write_files(&files).expect("write lab artifacts and BENCH_lab.json");
    let on_disk = std::fs::read_to_string(&path).expect("read back");
    assert_eq!(on_disk, artifact::bench_json(&report));
    let csv = std::fs::read_to_string(dir.join("lab_smoke.csv")).expect("read back");
    assert_eq!(csv, artifact::sweep_csv(&report));
    std::fs::remove_dir_all(&dir).ok();
}
