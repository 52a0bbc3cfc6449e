//! Programmatic verification of the Figure 6 execution-profile
//! signatures: the per-resource utilization patterns the paper reads off
//! the Snapdragon Profiler to root-cause NNAPI's fallback behaviour.

use aitax::core::pipeline::E2eConfig;
use aitax::des::trace::TraceResource;
use aitax::des::SimSpan;
use aitax::framework::Engine;
use aitax::models::zoo::ModelId;
use aitax::profiler::ProfileReport;
use aitax::tensor::DType;
use aitax::testkit::{assert_ratio_within, assert_within};

#[expect(clippy::expect_used, reason = "the run is traced")]
fn profile(engine: Engine) -> (ProfileReport, u64) {
    let r = E2eConfig::new(ModelId::EfficientNetLite0, DType::I8)
        .engine(engine)
        .iterations(25)
        .seed(6)
        .tracing(true)
        .run();
    let migrations = r.stats.migrations;
    let trace = r.trace.expect("tracing enabled");
    (
        ProfileReport::from_trace(&trace, SimSpan::from_ms(10.0)),
        migrations,
    )
}

/// Annotation 1: "cores 4-7 are at 100% utilization for the benchmark" —
/// in our core numbering, the four big cores carry the four interpreter
/// threads.
#[test]
fn cpu_path_pegs_the_big_cores() {
    let (p, _) = profile(Engine::tflite_cpu(4));
    // The submitting thread's core runs ~100%; its three peers run the
    // remaining gang members plus idle gaps between fork-joins.
    let mut big: Vec<f64> = (0..4)
        .map(|c| p.mean_utilization(TraceResource::CpuCore(c)))
        .collect();
    big.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert_within("lead big-core utilization", big[0], 0.9, 1.0);
    assert_within("slowest big-core utilization", big[3], 0.3, 1.0);
    // Little cores stay essentially idle, and so does the DSP.
    for c in 4..8 {
        assert_within(
            &format!("little core {c} utilization"),
            p.mean_utilization(TraceResource::CpuCore(c)),
            0.0,
            0.1,
        );
    }
    assert_within(
        "cdsp utilization",
        p.mean_utilization(TraceResource::Dsp),
        0.0,
        0.01,
    );
}

/// Annotation 2: "execution through Hexagon shows 100% utilization of
/// the cDSP and increased AXI traffic".
#[test]
fn hexagon_path_lights_up_cdsp_and_axi() {
    let (p, _) = profile(Engine::TfLiteHexagon { threads: 4 });
    assert_within(
        "cdsp utilization",
        p.mean_utilization(TraceResource::Dsp),
        0.25,
        1.0,
    );
    assert!(
        p.axi_bytes > 1_000_000,
        "AXI traffic expected, got {}",
        p.axi_bytes
    );
    // CPU involvement drops to RPC shepherding.
    let big_mean: f64 = (0..4)
        .map(|c| p.mean_utilization(TraceResource::CpuCore(c)))
        .sum::<f64>()
        / 4.0;
    assert_within("big-cluster mean utilization", big_mean, 0.0, 0.5);
}

/// Annotations 3+4: NNAPI fallback shows sporadic utilization smeared
/// across all cores (including the little cluster) with far more
/// migrations than any other configuration — and an initial CDSP probe.
#[test]
fn nnapi_fallback_smears_across_cores_with_migrations() {
    let (p, migrations) = profile(Engine::nnapi());
    let (_, cpu_migrations) = profile(Engine::tflite_cpu(4));
    assert_ratio_within(
        "fallback vs CPU-path migrations",
        migrations as f64,
        (cpu_migrations + 1) as f64,
        50.0,
        f64::INFINITY,
    );
    // The single wandering thread never saturates any one core for long...
    for c in 0..8 {
        let u = p.mean_utilization(TraceResource::CpuCore(c));
        assert_within(&format!("core {c} utilization"), u, 0.0, 0.6);
    }
    // ...but does visit the little cluster.
    let little_total: f64 = (4..8)
        .map(|c| p.mean_utilization(TraceResource::CpuCore(c)))
        .sum();
    assert_within("little-cluster spillover", little_total, 0.05, 4.0);
    // Initial DSP probe appears at the start of the trace, then nothing.
    let dsp = p
        .timeline(TraceResource::Dsp)
        .expect("probe leaves a cdsp trace");
    let first_active = dsp.bins.iter().position(|&b| b > 0.0).unwrap();
    let last_active = dsp.bins.iter().rposition(|&b| b > 0.0).unwrap();
    assert!(
        last_active < dsp.bins.len() / 4,
        "cdsp activity is only the initial probe (bins {first_active}..{last_active} of {})",
        dsp.bins.len()
    );
}

/// The three profiles are mutually distinguishable by machine counters —
/// the basis of the paper's "identify the framework from the profile"
/// diagnosis.
#[test]
fn profiles_are_distinguishable() {
    let (cpu, cpu_mig) = profile(Engine::tflite_cpu(4));
    let (hex, hex_mig) = profile(Engine::TfLiteHexagon { threads: 4 });
    let (nnapi, nnapi_mig) = profile(Engine::nnapi());
    // DSP utilization separates hexagon from both others.
    assert_ratio_within(
        "hexagon vs cpu cdsp utilization",
        hex.mean_utilization(TraceResource::Dsp),
        cpu.mean_utilization(TraceResource::Dsp).max(1e-9),
        10.0,
        f64::INFINITY,
    );
    assert_ratio_within(
        "hexagon vs nnapi cdsp utilization",
        hex.mean_utilization(TraceResource::Dsp),
        nnapi.mean_utilization(TraceResource::Dsp).max(1e-4),
        10.0,
        f64::INFINITY,
    );
    // Migration counts separate NNAPI from both others.
    assert_ratio_within(
        "nnapi vs other-path migrations",
        nnapi_mig as f64,
        (cpu_mig + hex_mig + 1) as f64,
        10.0,
        f64::INFINITY,
    );
}
