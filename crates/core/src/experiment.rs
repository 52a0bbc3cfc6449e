//! Pre-configured experiments: one per table/figure of the paper.
//!
//! Each function regenerates the rows/series of the corresponding exhibit
//! (see DESIGN.md §3 for the full index). The `aitax-bench` binaries are
//! thin wrappers around these, and the integration tests assert the
//! *shape* claims on their outputs.

use aitax_capture::StdlibFlavor;
use aitax_des::trace::TraceKind;
use aitax_des::SimSpan;
use aitax_framework::nnapi::driver_for;
use aitax_framework::{cost, Engine};
use aitax_kernel::{Machine, RpcDevice, RpcInvoke};
use aitax_models::zoo::{ModelId, Zoo};
use aitax_profiler::ProfileReport;
use aitax_soc::{SocCatalog, SocId};
use aitax_tensor::DType;

use crate::pipeline::E2eConfig;
use crate::report::{fmt_ms, fmt_pct, fmt_ratio, Table};
use crate::runmode::RunMode;
use crate::stage::Stage;

/// Common experiment knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentOpts {
    /// Iterations per configuration (the paper uses 500; smaller values
    /// keep exploratory runs fast).
    pub iterations: usize,
    /// Base random seed.
    pub seed: u64,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            iterations: 100,
            seed: 1,
        }
    }
}

impl ExperimentOpts {
    /// The paper's full methodology: 500 iterations.
    pub fn paper() -> Self {
        ExperimentOpts {
            iterations: 500,
            seed: 1,
        }
    }

    /// A quick variant for tests.
    pub fn quick() -> Self {
        ExperimentOpts {
            iterations: 25,
            seed: 1,
        }
    }
}

/// **Table I** — the benchmark list.
pub fn table1() -> Table {
    let mut t = Table::new(vec![
        "Task",
        "Model",
        "Resolution",
        "Pre-processing",
        "Post-processing",
        "NNAPI-fp32",
        "NNAPI-int8",
        "CPU-fp32",
        "CPU-int8",
    ]);
    let yn = |b: bool| if b { "Y" } else { "N" }.to_string();
    for e in Zoo::all() {
        let res = e
            .resolution
            .map(|(h, w)| format!("{h}x{w}"))
            .unwrap_or_else(|| "-".into());
        let pre = e
            .preprocess
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let post = e
            .postprocess
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        t.row(vec![
            e.task.to_string(),
            e.display_name.to_string(),
            res,
            pre,
            post,
            yn(e.support.nnapi_fp32),
            yn(e.support.nnapi_int8),
            yn(e.support.cpu_fp32),
            yn(e.support.cpu_int8),
        ]);
    }
    t
}

/// **Table II** — the hardware platforms.
pub fn table2() -> Table {
    let mut t = Table::new(vec!["System", "SoC", "Accelerators", "NNAPI driver"]);
    for id in SocId::ALL {
        let soc = SocCatalog::get(id);
        let mut accel = format!("{} GPU, {} DSP", soc.gpu.name, soc.dsp.name);
        if let Some(npu) = &soc.npu {
            accel.push_str(&format!(", {}", npu.name));
        }
        t.row(vec![
            soc.host_system.to_string(),
            soc.name.to_string(),
            accel,
            driver_for(soc).name.to_string(),
        ]);
    }
    t
}

/// The models Fig. 3 / Fig. 4 sweep, with the dtypes each supports.
fn fig_models(nnapi: bool) -> Vec<(ModelId, DType)> {
    let mut out = Vec::new();
    for e in Zoo::all() {
        for dtype in [DType::F32, DType::I8] {
            if e.support.supports(nnapi, dtype) {
                out.push((e.id, dtype));
            }
        }
    }
    out
}

/// **Figure 3** — end-to-end latency of CLI benchmark vs benchmark app vs
/// real application, per model, on the CPU.
pub fn fig3(opts: ExperimentOpts) -> Table {
    let mut t = Table::new(vec![
        "model",
        "dtype",
        "cli_e2e_ms",
        "benchapp_e2e_ms",
        "app_e2e_ms",
        "app_vs_cli",
    ]);
    for (model, dtype) in fig_models(false) {
        let mut e2e = Vec::new();
        for mode in RunMode::ALL {
            let r = E2eConfig::new(model, dtype)
                .engine(Engine::tflite_cpu(4))
                .run_mode(mode)
                .iterations(opts.iterations)
                .seed(opts.seed)
                .run();
            e2e.push(r.e2e_summary().mean_ms());
        }
        t.row(vec![
            model.to_string(),
            dtype.to_string(),
            fmt_ms(e2e[0]),
            fmt_ms(e2e[1]),
            fmt_ms(e2e[2]),
            fmt_ratio(e2e[2] / e2e[0]),
        ]);
    }
    t
}

/// **Figure 4** — data capture + pre-processing vs inference, benchmark
/// vs application, via NNAPI (4a absolute, 4b relative — both columns).
pub fn fig4(opts: ExperimentOpts) -> Table {
    let mut t = Table::new(vec![
        "model",
        "dtype",
        "mode",
        "capture_ms",
        "preproc_ms",
        "inference_ms",
        "(cap+pre)/inf",
    ]);
    for (model, dtype) in fig_models(true) {
        for mode in [RunMode::CliBenchmark, RunMode::AndroidApp] {
            let r = E2eConfig::new(model, dtype)
                .engine(Engine::nnapi())
                .run_mode(mode)
                .iterations(opts.iterations)
                .seed(opts.seed)
                .run();
            let cap = r.summary(Stage::DataCapture).mean_ms();
            let pre = r.summary(Stage::PreProcessing).mean_ms();
            let inf = r.summary(Stage::Inference).mean_ms();
            t.row(vec![
                model.to_string(),
                dtype.to_string(),
                mode.to_string(),
                fmt_ms(cap),
                fmt_ms(pre),
                fmt_ms(inf),
                fmt_ratio((cap + pre) / inf),
            ]);
        }
    }
    t
}

/// Result of the Fig. 5 experiment.
#[derive(Debug)]
pub struct Fig5Result {
    /// Per-target inference latencies.
    pub table: Table,
    /// NNAPI latency relative to single-threaded CPU — the paper's 7×.
    pub nnapi_vs_cpu1: f64,
}

/// **Figure 5** — quantized EfficientNet-Lite0 across Hexagon delegate,
/// CPU ×4, CPU ×1 and NNAPI (with CPU fallback).
pub fn fig5(opts: ExperimentOpts) -> Fig5Result {
    let configs: [(&str, Engine); 4] = [
        ("hexagon-delegate", Engine::TfLiteHexagon { threads: 4 }),
        ("cpu-4threads", Engine::tflite_cpu(4)),
        ("cpu-1thread", Engine::tflite_cpu(1)),
        ("nnapi", Engine::nnapi()),
    ];
    let mut lat = Vec::new();
    let mut t = Table::new(vec!["target", "inference_ms", "vs_cpu1"]);
    for (_, engine) in configs.iter() {
        let r = E2eConfig::new(ModelId::EfficientNetLite0, DType::I8)
            .engine(*engine)
            .iterations(opts.iterations)
            .seed(opts.seed)
            .run();
        lat.push(r.summary(Stage::Inference).mean_ms());
    }
    let cpu1 = lat[2];
    for ((name, _), l) in configs.iter().zip(&lat) {
        t.row(vec![name.to_string(), fmt_ms(*l), fmt_ratio(l / cpu1)]);
    }
    Fig5Result {
        table: t,
        nnapi_vs_cpu1: lat[3] / cpu1,
    }
}

/// **Figure 6** — Snapdragon-Profiler-style execution profiles of
/// EfficientNet-Lite0 (int8) under the three execution targets.
pub fn fig6(opts: ExperimentOpts) -> String {
    let mut out = String::new();
    let configs: [(&str, Engine); 3] = [
        ("cpu-4threads", Engine::tflite_cpu(4)),
        ("hexagon-delegate", Engine::TfLiteHexagon { threads: 4 }),
        ("nnapi (driver fallback)", Engine::nnapi()),
    ];
    for (name, engine) in configs {
        let r = E2eConfig::new(ModelId::EfficientNetLite0, DType::I8)
            .engine(engine)
            .iterations(opts.iterations.min(30))
            .seed(opts.seed)
            .tracing(true)
            .run();
        let inf_ms = fmt_ms(r.summary(Stage::Inference).mean_ms());
        let iters = r.tax.iterations();
        #[expect(
            clippy::expect_used,
            reason = "tracing(true) was set on this run; the trace is always present"
        )]
        let trace = r.trace.expect("tracing was enabled");
        let profile = ProfileReport::from_trace(&trace, SimSpan::from_ms(20.0));
        out.push_str(&format!("=== {name} ===\n"));
        out.push_str(&profile.render_ascii());
        out.push_str(&format!(
            "stage means: inference {inf_ms} ms over {iters} iterations\n\n"
        ));
    }
    out
}

/// The Fig. 7 reference trace: one steady-state FastRPC invocation of a
/// MobileNet-class kernel on the SD845 DSP, traced from `t0`.
///
/// The returned buffer carries the full event stream (RPC phases, cache
/// flush, DSP execution, interrupts); `fig7` condenses it into the
/// paper's phase table and the lab's Chrome-trace sink renders it
/// visually.
pub fn fig7_trace() -> (aitax_des::TraceBuffer, aitax_des::SimTime) {
    let soc = SocCatalog::get(SocId::Sd845);
    let mut m = Machine::new(soc, 7);
    m.set_tracing(true);
    // Warm the session so the timeline shows a steady-state call.
    m.fastrpc_invoke(
        RpcInvoke {
            label: "warmup".into(),
            in_bytes: 1024,
            out_bytes: 64,
            dsp_work: SimSpan::from_ms(1.0),
            device: RpcDevice::Dsp,
            ..Default::default()
        },
        |_| {},
    );
    m.run_until_idle();
    m.trace.clear();
    let t0 = m.now();
    m.fastrpc_invoke(
        RpcInvoke {
            label: "mobilenet-int8".into(),
            in_bytes: 150_528,
            out_bytes: 1_001,
            dsp_work: cost::dsp_exec_span(&m.spec().dsp, 569_000_000, cost::NNAPI_DSP_EFFICIENCY),
            device: RpcDevice::Dsp,
            ..Default::default()
        },
        |_| {},
    );
    m.run_until_idle();
    let trace = std::mem::replace(&mut m.trace, aitax_des::TraceBuffer::disabled());
    (trace, t0)
}

/// **Figure 7** — the FastRPC call flow with measured phase timestamps.
pub fn fig7() -> Table {
    let (trace, t0) = fig7_trace();
    let mut t = Table::new(vec!["phase", "t_ms", "delta_ms"]);
    let mut last = 0.0;
    for ev in trace.iter() {
        if let TraceKind::Rpc { phase } = ev.kind {
            let at = (ev.time - t0).as_ms();
            t.row(vec![phase.to_string(), fmt_ms(at), fmt_ms(at - last)]);
            last = at;
        }
    }
    t
}

/// **Figure 8** — offload overhead amortization over consecutive
/// inferences (MobileNet v1 int8 through the Hexagon delegate).
pub fn fig8(opts: ExperimentOpts) -> Table {
    let mut t = Table::new(vec![
        "inferences",
        "total_ms",
        "per_inference_ms",
        "steady_inference_ms",
        "offload_ms_per_inf",
        "offload_fraction",
    ]);
    let counts = [1usize, 2, 5, 10, 20, 50, 100, 200, 500];
    // Pure DSP execution time for the offloaded portion (analytic floor).
    let soc = SocCatalog::get(SocId::Sd845);
    for (i, &n) in counts.iter().enumerate() {
        if n > opts.iterations.max(1) * 20 {
            break;
        }
        let r = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::TfLiteHexagon { threads: 4 })
            .iterations(n)
            .seed(opts.seed + i as u64)
            .run();
        let inf = r.summary(Stage::Inference);
        let total = r.model_init.as_ms() + inf.total_ms();
        let per_inf = total / n as f64;
        let steady = inf.min_ms();
        let pure = cost::dsp_exec_span(
            &soc.dsp,
            (r.plan.offloaded_mac_fraction()
                * Zoo::entry(ModelId::MobileNetV1).build_graph().total_macs() as f64)
                as u64,
            cost::HEXAGON_DELEGATE_EFFICIENCY,
        )
        .as_ms();
        let offload = (per_inf - pure).max(0.0);
        t.row(vec![
            n.to_string(),
            fmt_ms(total),
            fmt_ms(per_inf),
            fmt_ms(steady),
            fmt_ms(offload),
            fmt_pct(offload / per_inf),
        ]);
    }
    t
}

fn multitenancy(opts: ExperimentOpts, background_engine: Engine) -> Table {
    let mut t = Table::new(vec![
        "background_inferences",
        "capture_ms",
        "preproc_ms",
        "inference_ms",
        "postproc_ms",
        "e2e_ms",
    ]);
    for &b in &[0usize, 1, 2, 4, 6, 8] {
        let mut cfg = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::nnapi())
            .run_mode(RunMode::AndroidApp)
            .iterations(opts.iterations)
            .seed(opts.seed);
        if b > 0 {
            cfg = cfg.background(b, background_engine);
        }
        let r = cfg.run();
        t.row(vec![
            b.to_string(),
            fmt_ms(r.summary(Stage::DataCapture).mean_ms()),
            fmt_ms(r.summary(Stage::PreProcessing).mean_ms()),
            fmt_ms(r.summary(Stage::Inference).mean_ms()),
            fmt_ms(r.summary(Stage::PostProcessing).mean_ms()),
            fmt_ms(r.e2e_summary().mean_ms()),
        ]);
    }
    t
}

/// **Figure 9** — latency breakdown of the classification app with
/// increasing background inferences on the **DSP** (inference stalls on
/// the single DSP; pre-processing stays flat).
pub fn fig9(opts: ExperimentOpts) -> Table {
    multitenancy(opts, Engine::TfLiteHexagon { threads: 4 })
}

/// **Figure 10** — same with background inferences on the **CPU**
/// (pre-processing and capture inflate; inference stays flat).
pub fn fig10(opts: ExperimentOpts) -> Table {
    multitenancy(opts, Engine::tflite_cpu(2))
}

/// Result of the Fig. 11 experiment.
#[derive(Debug)]
pub struct Fig11Result {
    /// Distribution statistics per mode.
    pub table: Table,
    /// Worst relative deviation from the median, benchmark mode.
    pub benchmark_deviation: f64,
    /// Worst relative deviation from the median, app mode.
    pub app_deviation: f64,
}

/// **Figure 11** — run-to-run latency distribution of MobileNet v1 on the
/// CPU: tight for the benchmark, up to ~30% from the median in an app.
pub fn fig11(opts: ExperimentOpts) -> Fig11Result {
    let mut t = Table::new(vec![
        "mode",
        "median_ms",
        "mean_ms",
        "p5_ms",
        "p95_ms",
        "stddev_ms",
        "max_dev_from_median",
    ]);
    let mut devs = Vec::new();
    for mode in [RunMode::CliBenchmark, RunMode::AndroidApp] {
        let r = E2eConfig::new(ModelId::MobileNetV1, DType::F32)
            .engine(Engine::tflite_cpu(4))
            .run_mode(mode)
            .iterations(opts.iterations)
            .seed(opts.seed)
            .run();
        let s = r.e2e_summary();
        devs.push(s.max_deviation_from_median());
        t.row(vec![
            mode.to_string(),
            fmt_ms(s.median_ms()),
            fmt_ms(s.mean_ms()),
            fmt_ms(s.percentile_ms(5.0)),
            fmt_ms(s.percentile_ms(95.0)),
            fmt_ms(s.stddev_ms()),
            fmt_pct(s.max_deviation_from_median()),
        ]);
    }
    Fig11Result {
        table: t,
        benchmark_deviation: devs[0],
        app_deviation: devs[1],
    }
}

/// The libc++/libstdc++ random-input-generation asymmetry (§IV-A) — an
/// auxiliary exhibit supporting the Fig. 4 discussion.
pub fn stdlib_asymmetry(opts: ExperimentOpts) -> Table {
    let mut t = Table::new(vec!["stdlib", "dtype", "capture_ms"]);
    for flavor in [StdlibFlavor::LibCxx, StdlibFlavor::LibStdCxx] {
        for dtype in [DType::F32, DType::I8] {
            let r = E2eConfig::new(ModelId::MobileNetV1, dtype)
                .engine(Engine::tflite_cpu(4))
                .stdlib(flavor)
                .iterations(opts.iterations)
                .seed(opts.seed)
                .run();
            let name = match flavor {
                StdlibFlavor::LibCxx => "libc++",
                StdlibFlavor::LibStdCxx => "libstdc++",
            };
            t.row(vec![
                name.to_string(),
                dtype.to_string(),
                fmt_ms(r.summary(Stage::DataCapture).mean_ms()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_shape() {
        let t = table1();
        assert_eq!(t.len(), 11);
        // Spot rows.
        let rows = t.rows();
        assert_eq!(rows[0][1], "MobileNet 1.0 v1");
        assert_eq!(rows[4][1], "AlexNet");
        assert_eq!(rows[4][5], "N"); // AlexNet NNAPI-fp32 = N
        assert_eq!(rows[10][2], "-"); // BERT has no resolution
    }

    #[test]
    fn table2_lists_four_platforms() {
        let t = table2();
        assert_eq!(t.len(), 4);
        assert!(t.rows()[1][0].contains("Pixel 3"));
        assert!(t.render_text().contains("Hexagon 685"));
    }

    #[test]
    fn fig7_phases_in_order_with_dsp_dominant() {
        let t = fig7();
        assert_eq!(t.len(), 6);
        let rows = t.rows();
        assert_eq!(rows[0][0], "ioctl-entry");
        assert_eq!(rows[5][0], "ioctl-return");
        // The dsp-execute → completion-signal delta dominates the call.
        let exec_delta: f64 = rows[4][2].parse().unwrap();
        let entry_delta: f64 = rows[1][2].parse().unwrap();
        assert!(exec_delta > entry_delta);
    }

    #[test]
    fn stdlib_flavors_invert_capture_cost() {
        let t = stdlib_asymmetry(ExperimentOpts::quick());
        let rows = t.rows();
        let get = |i: usize| rows[i][2].parse::<f64>().unwrap();
        // libc++: fp32 faster than int8; libstdc++: opposite.
        assert!(get(0) < get(1), "libc++ floats faster");
        assert!(get(3) < get(2), "libstdc++ ints faster");
    }
}
