//! Every figure-binary scenario replayed with tracing enabled and
//! validated by the full `aitax-testkit` suite: structural trace
//! invariants, counter/trace agreement, per-rail energy sanity — plus
//! golden TSV signatures under fixed seeds.
//!
//! The figure-shape tests assert *what* each exhibit shows; this file
//! asserts that the execution histories behind every exhibit are
//! physically plausible, and that their rendered signatures only change
//! when someone deliberately blesses a new golden.

use aitax::core::pipeline::{E2eConfig, E2eReport};
use aitax::core::runmode::RunMode;
use aitax::des::fault::{FaultKind, FaultPlan};
use aitax::des::{SimSpan, SimTime};
use aitax::framework::Engine;
use aitax::kernel::{Machine, RpcDevice, RpcInvoke, TaskSpec, Work};
use aitax::lab::chrome_trace;
use aitax::models::zoo::ModelId;
use aitax::profiler::ProfileReport;
use aitax::soc::{SocCatalog, SocId};
use aitax::tensor::DType;
use aitax::testkit::invariant::{check_stats_agreement, check_trace};
use aitax::testkit::json::assert_valid_json;
use aitax::testkit::{assert_report_ok, check_golden, Tolerance};
use aitax_bench::Knobs;

fn traced(cfg: E2eConfig) -> E2eReport {
    cfg.iterations(8).seed(3).tracing(true).run()
}

/// Figs. 3 & 11 scenario: MobileNet fp32 on the CPU, across all three
/// run modes (CLI benchmark, benchmark app, real app).
#[test]
fn fig3_fig11_cpu_modes_satisfy_invariants() {
    for mode in RunMode::ALL {
        let r = traced(
            E2eConfig::new(ModelId::MobileNetV1, DType::F32)
                .engine(Engine::tflite_cpu(4))
                .run_mode(mode),
        );
        assert_report_ok(&r);
    }
}

/// Fig. 4 scenario: the NNAPI pipeline, benchmark vs application.
#[test]
fn fig4_nnapi_modes_satisfy_invariants() {
    for mode in [RunMode::CliBenchmark, RunMode::AndroidApp] {
        let r = traced(
            E2eConfig::new(ModelId::MobileNetV1, DType::I8)
                .engine(Engine::nnapi())
                .run_mode(mode),
        );
        assert_report_ok(&r);
    }
}

/// Figs. 5 & 6 scenario: quantized EfficientNet-Lite0 across all four
/// execution targets, including the pathological NNAPI driver fallback.
#[test]
fn fig5_fig6_engine_sweep_satisfies_invariants() {
    for engine in [
        Engine::TfLiteHexagon { threads: 4 },
        Engine::tflite_cpu(4),
        Engine::tflite_cpu(1),
        Engine::nnapi(),
    ] {
        let r = traced(E2eConfig::new(ModelId::EfficientNetLite0, DType::I8).engine(engine));
        assert_report_ok(&r);
    }
}

/// Fig. 7 scenario: a bare FastRPC round trip on the machine itself —
/// no pipeline on top — still yields a well-formed trace that agrees
/// with the machine's counters.
#[test]
fn fig7_bare_fastrpc_trace_is_well_formed() {
    let soc = SocCatalog::get(SocId::Sd845);
    let mut m = Machine::new(soc, 7);
    m.set_tracing(true);
    for i in 0..3 {
        m.fastrpc_invoke(
            RpcInvoke {
                label: format!("call-{i}").into(),
                in_bytes: 150_528,
                out_bytes: 1_001,
                dsp_work: SimSpan::from_ms(2.0),
                device: RpcDevice::Dsp,
                ..Default::default()
            },
            |_| {},
        );
        m.run_until_idle();
    }
    let violations = check_trace(&m.trace);
    assert!(violations.is_empty(), "{violations:?}");
    let agreement = check_stats_agreement(&m.trace, m.stats());
    assert!(agreement.is_empty(), "{agreement:?}");
}

/// Tracing switched on while untraced work is still queued: that work
/// carries no label, so it must export as `<untraced>` and pass through
/// the invariant checks without a panic. A FastRPC call issued untraced
/// is marked untraced whatever its label (static or formatted), so the
/// phases it submits after the switch export as `<untraced>` too, never
/// as a bare `ioctl-ret:`/`cacheflush:` prefix or an empty DSP label; a
/// call issued after the switch is labelled in full. (The tasks already
/// running at the switch close without a recorded start, which the
/// pairing check may report; only a panic fails this test.)
#[test]
fn tracing_turned_on_mid_queue_exports_untraced_labels() {
    let soc = SocCatalog::get(SocId::Sd845);
    let mut m = Machine::new(soc, 5);
    for _ in 0..12 {
        m.submit_cpu(TaskSpec::foreground("queued", Work::Cycles(2e6)), |_| {});
    }
    m.submit_dsp_raw("dsp-queued", SimSpan::from_ms(1.0), |_| {});
    m.submit_dsp_raw("dsp-queued", SimSpan::from_ms(1.0), |_| {});
    for i in 0..2 {
        let label = if i == 0 {
            "rpc".into()
        } else {
            m.trace.label(format_args!("rpc-{i}"))
        };
        m.fastrpc_invoke(
            RpcInvoke {
                label,
                in_bytes: 4096,
                out_bytes: 64,
                dsp_work: SimSpan::from_ms(1.0),
                ..Default::default()
            },
            |_| {},
        );
    }
    for _ in 0..3 {
        assert!(m.step());
    }
    m.set_tracing(true);
    m.submit_cpu(TaskSpec::foreground("traced", Work::Cycles(1e6)), |_| {});
    m.fastrpc_invoke(
        RpcInvoke {
            label: m.trace.label(format_args!("rpc-{}", "traced")),
            in_bytes: 4096,
            out_bytes: 64,
            dsp_work: SimSpan::from_ms(1.0),
            ..Default::default()
        },
        |_| {},
    );
    m.run_until_idle();
    assert!(
        !m.trace.symbols().is_empty(),
        "work after the switch is labelled"
    );

    let _ = check_trace(&m.trace);
    let _ = check_stats_agreement(&m.trace, m.stats());
    let json = chrome_trace(&m.trace, "sd845 · tracing on mid-queue");
    assert_valid_json("mid_queue_trace", &json);
    assert!(json.contains("\"name\":\"<untraced>\""), "{json}");
    assert!(json.contains("\"name\":\"traced\""), "{json}");
    for prefix in ["ioctl:", "cacheflush:", "ioctl-ret:"] {
        // The untraced calls' phases carry no bare or partial label ...
        for untraced in ["", "rpc", "rpc-1"] {
            let name = format!("\"name\":\"{prefix}{untraced}\"");
            assert!(!json.contains(&name), "{name} in {json}");
        }
        // ... while the call issued after the switch is labelled in full.
        let name = format!("\"name\":\"{prefix}rpc-traced\"");
        assert!(json.contains(&name), "{name} missing from {json}");
    }
    assert!(!json.contains("\"name\":\"\""), "empty label in {json}");
    assert!(!json.contains("\"name\":\"rpc\""), "{json}");
    assert!(json.contains("\"name\":\"rpc-traced\""), "{json}");
}

/// Fig. 8 scenario: offload amortization sweep on the Hexagon delegate.
#[test]
fn fig8_amortization_runs_satisfy_invariants() {
    for n in [1usize, 5, 20] {
        let r = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::TfLiteHexagon { threads: 4 })
            .iterations(n)
            .seed(4)
            .tracing(true)
            .run();
        assert_report_ok(&r);
    }
}

/// Figs. 9 & 10 scenario: multitenancy with background inferences on
/// the DSP and on the CPU.
#[test]
fn fig9_fig10_multitenancy_satisfies_invariants() {
    for background in [Engine::TfLiteHexagon { threads: 4 }, Engine::tflite_cpu(2)] {
        let r = traced(
            E2eConfig::new(ModelId::MobileNetV1, DType::I8)
                .engine(Engine::nnapi())
                .run_mode(RunMode::AndroidApp)
                .background(4, background),
        );
        assert_report_ok(&r);
    }
}

/// A faulted run must satisfy exactly the same structural invariants as
/// a clean one — degradation is graceful, not lawless.
#[test]
fn faulted_runs_satisfy_invariants() {
    let plan = FaultPlan::new(11)
        .sustained(FaultKind::DspSignalTimeout, SimTime::from_ns(20_000_000))
        .at(FaultKind::ThermalEmergency, SimTime::from_ns(50_000_000))
        .at(FaultKind::BackgroundBurst, SimTime::from_ns(80_000_000));
    let r = traced(
        E2eConfig::new(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::nnapi())
            .run_mode(RunMode::AndroidApp)
            .fault_plan(plan),
    );
    assert_report_ok(&r);
    assert!(!r.degradation.is_clean());
}

// --- golden signatures -------------------------------------------------

/// Tables I and II are static — their renderings are exact goldens.
#[test]
fn golden_table1_and_table2() {
    check_golden(
        "table1",
        &aitax_bench::table1().render_tsv(),
        Tolerance::EXACT,
    );
    check_golden(
        "table2",
        &aitax_bench::table2().render_tsv(),
        Tolerance::EXACT,
    );
}

/// Fig. 7 phase timeline under a fixed seed.
#[test]
fn golden_fig7_phase_timeline() {
    check_golden(
        "fig7_phases",
        &aitax_bench::fig7().render_tsv(),
        Tolerance::DEFAULT,
    );
}

fn signature_run() -> E2eReport {
    E2eConfig::new(ModelId::MobileNetV1, DType::I8)
        .engine(Engine::nnapi())
        .run_mode(RunMode::AndroidApp)
        .iterations(12)
        .seed(6)
        .tracing(true)
        .run()
}

/// Profiler, energy and degradation signatures of one fixed-seed NNAPI
/// app run — and the same signatures again from a second run in the
/// same process, proving seed stability before the golden even loads.
#[test]
fn golden_nnapi_app_signatures_are_seed_stable() {
    let a = signature_run();
    let b = signature_run();

    let profile = |r: &E2eReport| {
        ProfileReport::from_trace(r.trace.as_ref().unwrap(), SimSpan::from_ms(10.0)).render_tsv()
    };
    let energy = |r: &E2eReport| r.energy.as_ref().unwrap().render_tsv();

    assert_eq!(
        profile(&a),
        profile(&b),
        "profile signature must be seed-stable"
    );
    assert_eq!(
        energy(&a),
        energy(&b),
        "energy signature must be seed-stable"
    );
    assert_eq!(a.degradation.render_tsv(), b.degradation.render_tsv());

    check_golden("profile_nnapi_app_seed6", &profile(&a), Tolerance::DEFAULT);
    check_golden("energy_nnapi_app_seed6", &energy(&a), Tolerance::DEFAULT);
}

/// Degradation signature of the sustained-outage scenario.
#[test]
fn golden_degradation_dsp_outage() {
    let r = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
        .engine(Engine::nnapi())
        .iterations(6)
        .seed(6)
        .tracing(true)
        .fault_plan(FaultPlan::new(6).sustained(FaultKind::DspSignalTimeout, SimTime::ZERO))
        .run();
    check_golden(
        "degradation_dsp_outage_seed6",
        &r.degradation.render_tsv(),
        Tolerance::DEFAULT,
    );
}

/// The `aitax-bench` Fig. 5 exhibit emits stable ordering:
/// fig5's table rows keep the paper's target order under any seed.
#[test]
fn fig5_experiment_rows_keep_target_order() {
    let (table, _) = aitax_bench::fig5(Knobs {
        iterations: 6,
        seed: 2,
        threads: 2,
    });
    let targets: Vec<&str> = table.rows().iter().map(|row| row[0].as_str()).collect();
    assert_eq!(
        targets,
        ["hexagon-delegate", "cpu-4threads", "cpu-1thread", "nnapi"]
    );
}
