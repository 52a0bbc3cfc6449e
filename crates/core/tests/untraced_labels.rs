//! Untraced runs never build trace labels: every label a run would
//! intern is formatted and interned only while tracing is on, so an
//! untraced `E2eConfig::run_in` leaves the machine's symbol table empty.
//!
//! The grid covers every label source in the pipeline: TFLite CPU
//! gangs, NNAPI (DSP offload, its CPU reference path and, on the SD865,
//! the NPU), the Hexagon delegate's FastRPC calls and the GPU delegate,
//! in CLI-benchmark and app mode, with and without a fault plan that
//! injects background bursts, a thermal emergency, RPC errors and a DSP
//! outage (retries, then CPU fallback).

use aitax_core::pipeline::E2eConfig;
use aitax_core::runmode::RunMode;
use aitax_core::SimContext;
use aitax_des::fault::{FaultKind, FaultPlan};
use aitax_des::SimTime;
use aitax_framework::Engine;
use aitax_models::zoo::ModelId;
use aitax_soc::SocId;
use aitax_tensor::DType;

fn fault_plan() -> FaultPlan {
    let ms = |t: u64| SimTime::from_ns(t * 1_000_000);
    FaultPlan::new(11)
        .at(FaultKind::BackgroundBurst, ms(2))
        .at(FaultKind::ThermalEmergency, ms(4))
        .window(FaultKind::RpcIoctlError, ms(1), ms(30))
        .window(FaultKind::CacheFlushStorm, ms(1), ms(60))
        .sustained(FaultKind::DspSignalTimeout, ms(80))
}

fn cases() -> Vec<(&'static str, E2eConfig)> {
    let cfg = |model, dtype, engine| E2eConfig::new(model, dtype).engine(engine);
    vec![
        (
            "tflite-cpu",
            cfg(ModelId::MobileNetV1, DType::F32, Engine::tflite_cpu(4)),
        ),
        (
            "nnapi-dsp",
            cfg(ModelId::MobileNetV1, DType::I8, Engine::nnapi()),
        ),
        (
            "nnapi-reference",
            cfg(ModelId::EfficientNetLite0, DType::I8, Engine::nnapi()),
        ),
        (
            "nnapi-npu",
            cfg(ModelId::MobileNetV1, DType::I8, Engine::nnapi()).soc(SocId::Sd865),
        ),
        (
            "hexagon",
            cfg(
                ModelId::MobileNetV1,
                DType::I8,
                Engine::TfLiteHexagon { threads: 4 },
            ),
        ),
        (
            "gpu",
            cfg(
                ModelId::MobileNetV1,
                DType::F32,
                Engine::TfLiteGpu { threads: 4 },
            ),
        ),
    ]
}

#[test]
fn untraced_runs_intern_no_labels() {
    let mut ctx = SimContext::new();
    for (name, base) in cases() {
        for mode in [RunMode::CliBenchmark, RunMode::AndroidApp] {
            for faults in [false, true] {
                let mut cfg = base.clone().run_mode(mode).iterations(4).seed(3);
                if faults {
                    cfg = cfg.fault_plan(fault_plan());
                }
                let case = format!("{name} {mode} faults={faults}");

                let traced = cfg.clone().tracing(true).run_in(&mut ctx);
                let symbols = traced.trace.as_ref().map_or(0, |t| t.symbols().len());
                assert!(symbols > 0, "{case}: a traced run must intern its labels");

                let untraced = cfg.run_in(&mut ctx);
                assert!(untraced.trace.is_none(), "{case}");
                let m = ctx.machine().expect("run_in leaves its machine cached");
                assert!(
                    m.trace.symbols().is_empty(),
                    "{case}: untraced run interned {} label(s)",
                    m.trace.symbols().len(),
                );
                assert_eq!(
                    untraced.stats, traced.stats,
                    "{case}: tracing changed the run"
                );
                assert_eq!(
                    faults,
                    untraced.degradation.stats.faults_injected > 0,
                    "{case}: the plan must fire, and only when installed"
                );
            }
        }
    }
}
