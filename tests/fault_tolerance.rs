//! Fault injection and graceful degradation, end to end.
//!
//! Three contracts: fault runs are exactly as deterministic as clean
//! runs; an *empty* fault plan is indistinguishable from no plan at all
//! (the zero-overhead guarantee); and a sustained DSP outage in the
//! paper's Fig. 6 streaming scenario reproduces the migration-storm
//! shape — NNAPI falls back to the CPU, end-to-end latency at least
//! doubles, and the added time is attributed in the DegradationReport.

use aitax::core::pipeline::{E2eConfig, E2eReport};
use aitax::core::runmode::RunMode;
use aitax::des::fault::{FaultKind, FaultPlan};
use aitax::des::{SimSpan, SimTime};
use aitax::framework::Engine;
use aitax::models::zoo::ModelId;
use aitax::profiler::ProfileReport;
use aitax::tensor::DType;
use aitax::testkit::{assert_ratio_within, assert_report_ok};

/// The Fig. 6 scenario: quantized MobileNet streaming through NNAPI,
/// which offloads to the Hexagon DSP when healthy.
fn fig6_config() -> E2eConfig {
    E2eConfig::new(ModelId::MobileNetV1, DType::I8)
        .engine(Engine::nnapi())
        .run_mode(RunMode::AndroidApp)
        .iterations(10)
        .seed(42)
        .tracing(true)
}

fn dsp_outage() -> FaultPlan {
    FaultPlan::new(42).sustained(FaultKind::DspSignalTimeout, SimTime::ZERO)
}

#[test]
fn same_seed_and_plan_give_byte_identical_degradation_reports() {
    let run = || fig6_config().fault_plan(dsp_outage()).run();
    let a = run();
    let b = run();
    assert_eq!(
        a.degradation.render_tsv(),
        b.degradation.render_tsv(),
        "degradation reports must be byte-identical under a fixed seed"
    );
    assert_eq!(a.degradation, b.degradation);
    assert_eq!(a.e2e_summary().samples_ms(), b.e2e_summary().samples_ms());
    assert_eq!(a.stats, b.stats);
    assert!(!a.degradation.is_clean(), "the outage must leave a mark");
}

#[test]
fn transient_faults_are_deterministic_too() {
    let plan = || {
        FaultPlan::new(7)
            .window(
                FaultKind::RpcIoctlError,
                SimTime::from_ns(1_000_000),
                SimTime::from_ns(60_000_000),
            )
            .at(FaultKind::BackgroundBurst, SimTime::from_ns(5_000_000))
            .window(
                FaultKind::CacheFlushStorm,
                SimTime::from_ns(100_000_000),
                SimTime::MAX,
            )
    };
    let run = || fig6_config().seed(7).fault_plan(plan()).run();
    let a = run();
    let b = run();
    assert_eq!(a.degradation, b.degradation);
    assert_eq!(a.e2e_summary().samples_ms(), b.e2e_summary().samples_ms());
    assert!(a.degradation.stats.background_bursts >= 1);
}

/// The zero-overhead guarantee: installing an empty plan changes nothing
/// — not one sample, not one counter, not one trace event.
#[test]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
fn empty_fault_plan_is_zero_overhead() {
    let bare = fig6_config().run();
    let planned = fig6_config().fault_plan(FaultPlan::new(42)).run();
    assert_eq!(
        bare.e2e_summary().samples_ms(),
        planned.e2e_summary().samples_ms()
    );
    assert_eq!(bare.stats, planned.stats);
    assert_eq!(bare.tax.ai_tax_fraction(), planned.tax.ai_tax_fraction());
    assert!(
        bare.trace
            .as_ref()
            .unwrap()
            .iter()
            .eq(planned.trace.as_ref().unwrap().iter()),
        "empty plan must leave the event stream untouched"
    );
    assert!(bare.degradation.is_clean());
    assert!(planned.degradation.is_clean());
    assert_eq!(planned.degradation.added_tax_ms, 0.0);
}

/// Sustained DSP unavailability reproduces the fallback shape: e2e at
/// least doubles, migrations spike as fallback work storms across the
/// CPU cores, and the lost time shows up as attributed degradation tax.
#[test]
fn sustained_dsp_outage_reproduces_fig6_fallback_shape() {
    let healthy = fig6_config().run();
    let broken = fig6_config().fault_plan(dsp_outage()).run();

    // Both runs still satisfy every trace invariant.
    assert_report_ok(&healthy);
    assert_report_ok(&broken);

    let h = healthy.e2e_summary().mean_ms();
    let b = broken.e2e_summary().mean_ms();
    assert_ratio_within("dsp-outage e2e slowdown", b, h, 2.0, f64::INFINITY);

    let profile = |r: &E2eReport| {
        ProfileReport::from_trace(r.trace.as_ref().unwrap(), SimSpan::from_ms(10.0))
    };
    let hp = profile(&healthy);
    let bp = profile(&broken);
    assert!(
        bp.migrations > hp.migrations,
        "fallback should storm migrations: healthy {} vs broken {}",
        hp.migrations,
        bp.migrations
    );

    let d = &broken.degradation;
    assert!(d.stats.rpc_timeouts >= 1, "timeouts must be counted");
    assert!(d.stats.rpc_retries >= 1, "retries must be counted");
    assert!(d.stats.rpc_giveups >= 1, "the call must eventually fail");
    assert!(d.stats.cpu_fallbacks >= 1, "work must land on the CPU");
    assert!(
        d.added_tax_ms > 0.0,
        "stall + fallback time must be attributed: {d:?}"
    );
    // The attributed tax is real time: it cannot exceed the whole gap
    // between the two runs' totals (per-iteration noise aside, it must
    // at least be a visible fraction of the slowdown).
    let gap_ms = (b - h) * broken.e2e_summary().samples_ms().len() as f64;
    assert!(
        d.added_tax_ms < gap_ms * 1.5,
        "attribution {} ms should not exceed observed gap {} ms",
        d.added_tax_ms,
        gap_ms
    );
}

/// Once the accelerator is marked dead, later inferences skip the
/// timeout dance entirely — the session memoizes the failure.
#[test]
fn dead_accelerator_is_not_probed_every_iteration() {
    let broken = fig6_config().fault_plan(dsp_outage()).run();
    let d = &broken.degradation.stats;
    assert!(
        d.cpu_fallbacks as usize >= 2,
        "every remaining iteration falls back: {d:?}"
    );
    assert_eq!(
        d.rpc_giveups, 1,
        "only the first invoke should pay the full retry chain: {d:?}"
    );
}
