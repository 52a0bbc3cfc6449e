//! End-to-end energy bit-identity: the `EnergyReport` of a traced run
//! equals the one the full-scan reference meter prices from the same
//! trace and stage windows, rail for rail and bit for bit. So do the
//! report priced from the meter-only subset of that trace and the report
//! of the same run metered (`E2eConfig::energy`) instead of traced.
//!
//! Covers several seeds, all four catalog SoCs, CPU, GPU, DSP and NNAPI
//! engines, background inference loops, fault plans and a trace
//! reservation small enough that the run outgrows it.

#[expect(dead_code, reason = "only the power crate's oracle bins timelines")]
#[path = "../../power/tests/oracle/mod.rs"]
mod oracle;

use aitax_core::energy::EnergyReport;
use aitax_core::pipeline::{E2eConfig, E2eReport};
use aitax_core::runmode::RunMode;
use aitax_core::stage::Stage;
use aitax_des::fault::{FaultKind, FaultPlan};
use aitax_des::SimTime;
use aitax_framework::Engine;
use aitax_models::zoo::ModelId;
use aitax_power::{Rail, RailEnergy};
use aitax_soc::catalog::{SocCatalog, SocId};
use aitax_tensor::DType;

const SEEDS: [u64; 3] = [1, 77, 9001];
const ITERATIONS: usize = 4;

/// Per-stage then whole-run joules, as exact bits.
fn energy_bits(e: &EnergyReport) -> Vec<Vec<(Rail, u64)>> {
    let mut out: Vec<_> = Stage::ALL.map(|s| oracle::bits(e.stage_energy(s))).into();
    out.push(oracle::bits(e.total()));
    out
}

/// The app-mode stage windows a run recorded, rebuilt from its
/// per-iteration breakdowns, plus the run's end.
fn stage_windows(r: &E2eReport) -> (Vec<(Stage, SimTime, SimTime)>, SimTime) {
    let mut t = SimTime::ZERO + r.model_init;
    let mut windows = Vec::new();
    for b in r.tax.breakdowns() {
        for stage in Stage::ALL {
            let end = t + b.stage(stage);
            windows.push((stage, t, end));
            t = end;
        }
    }
    (windows, t)
}

fn engines() -> [(Engine, DType); 4] {
    [
        (Engine::tflite_cpu(4), DType::F32),
        (Engine::TfLiteGpu { threads: 4 }, DType::F32),
        (Engine::TfLiteHexagon { threads: 4 }, DType::I8),
        (Engine::nnapi(), DType::I8),
    ]
}

fn config(seed: u64, soc: SocId, engine: Engine, dtype: DType, variant: usize) -> E2eConfig {
    let faults = [
        FaultKind::DspSignalTimeout,
        FaultKind::RpcIoctlError,
        FaultKind::ThermalEmergency,
    ];
    let mut cfg = E2eConfig::new(ModelId::MobileNetV1, dtype)
        .engine(engine)
        .run_mode(RunMode::AndroidApp)
        .soc(soc)
        .iterations(ITERATIONS)
        .seed(seed)
        .tracing(true)
        .background(1 + variant % 2, Engine::tflite_cpu(2))
        .fault_plan(
            FaultPlan::new(seed)
                .sustained(faults[variant % faults.len()], SimTime::from_ns(40_000_000)),
        );
    if variant % 4 == 3 {
        cfg = cfg.trace_bound(4_000);
    }
    cfg
}

#[test]
fn traced_energy_report_matches_the_full_scan_meter() {
    let mut variant = 0;
    for seed in SEEDS {
        for soc in SocId::ALL {
            for (engine, dtype) in engines() {
                let cfg = config(seed, soc, engine, dtype, variant);
                let r = cfg.clone().run();
                variant += 1;
                let label = format!("seed {seed} {soc} {engine}");
                let trace = r.trace.as_ref().expect("tracing keeps the trace");
                let energy = r.energy.as_ref().expect("tracing prices energy");

                let spec = &SocCatalog::get(soc).power;
                let (windows, end) = stage_windows(&r);
                let repriced =
                    EnergyReport::from_trace(spec, trace, &windows, r.tax.iterations(), end);
                assert_eq!(&repriced, energy, "{label}: windows rebuilt exactly");
                let meter = oracle::meter_only(trace);
                assert!(meter.len() < trace.len(), "{label}: meter mode drops kinds");
                let from_meter =
                    EnergyReport::from_trace(spec, &meter, &windows, r.tax.iterations(), end);
                assert_eq!(
                    energy_bits(&from_meter),
                    energy_bits(energy),
                    "{label}: meter-only trace"
                );
                let metered = cfg.energy().run();
                assert!(metered.trace.is_none(), "{label}: metering keeps no trace");
                let metered = metered.energy.as_ref().expect("metering prices energy");
                assert_eq!(
                    energy_bits(metered),
                    energy_bits(energy),
                    "{label}: metered run"
                );

                for stage in Stage::ALL {
                    let spans: Vec<(SimTime, SimTime)> = windows
                        .iter()
                        .filter(|(s, _, _)| *s == stage)
                        .map(|&(_, a, b)| (a, b))
                        .collect();
                    let mut want = RailEnergy::new();
                    for cell in oracle::attribute(spec, trace, &spans) {
                        want.merge(&cell);
                    }
                    assert_eq!(
                        oracle::bits(energy.stage_energy(stage)),
                        oracle::bits(&want),
                        "{label}: stage {stage}"
                    );
                }
                let total = oracle::attribute(spec, trace, &[(SimTime::ZERO, end)]);
                assert_eq!(
                    oracle::bits(energy.total()),
                    oracle::bits(&total[0]),
                    "{label}: whole-run total"
                );
            }
        }
    }
}
