//! Every table and figure of the paper, plus the extension studies, as
//! one static name → function table that the `figures` binary runs.
//!
//! Each exhibit returns the text `figures` prints. Sweep-shaped exhibits
//! (the measured Tables I/II, Figs. 9–11 and the fault sweep) run a
//! registered lab grid through [`Knobs::sweep`]; every other exhibit
//! builds its configurations and runs them through [`Knobs::run_all`] on
//! the same pool. Both merge results in input order, so the text is
//! byte-identical for any thread count.
//!
//! The extension studies go beyond the paper's numbered exhibits: the
//! §III-D thermal methodology, §IV-C cold start per engine, NNAPI
//! execution preferences, two ablations, the measured Fig. 1 taxonomy,
//! the energy shootout and the serving scenarios. The cross-chipset
//! sweep the paper says its trends generalize over (§III-C) is Table II
//! (measured).

use aitax_core::pipeline::{E2eConfig, E2eReport, StdlibFlavor};
use aitax_core::report::{fmt_ms, fmt_pct, fmt_ratio, Table};
use aitax_core::runmode::RunMode;
use aitax_core::stage::Stage;
use aitax_core::taxonomy::TaxonomyReport;
use aitax_core::SimContext;
use aitax_des::trace::TraceKind;
use aitax_des::{SimSpan, SimTime, TraceBuffer};
use aitax_framework::nnapi::{driver_for, ExecutionPreference};
use aitax_framework::{cost, Engine};
use aitax_kernel::{Machine, RpcDevice, RpcInvoke};
use aitax_lab::cli::{self, section};
use aitax_lab::{render, scenarios, SweepReport};
use aitax_models::zoo::{ModelId, Zoo};
use aitax_profiler::ProfileReport;
use aitax_serve::run_report;
use aitax_soc::{SocCatalog, SocId};
use aitax_tensor::DType;

/// What every exhibit runs with.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Iterations per configuration (the paper uses 500).
    pub iterations: usize,
    /// Seed of every configuration (Fig. 8 offsets it per point).
    pub seed: u64,
    /// Pool worker threads; no exhibit's text depends on it.
    pub threads: usize,
}

impl Knobs {
    /// `AITAX_ITERS` (default 100; the paper used 500), `AITAX_SEED`
    /// (default 1) and `AITAX_THREADS` (default: every core), each
    /// checked like the `lab` flag it mirrors. Like `lab --iters`, an
    /// iteration count is refused when a registered grid's scenarios at
    /// that count would run past the simulated clock's horizon
    /// ([`aitax_lab::Grid::check_horizon`]).
    pub fn from_env() -> Result<Self, String> {
        let knobs = Knobs {
            iterations: cli::iters_or_env(None, 100)?,
            seed: cli::seed_or_env(None)?,
            threads: cli::threads_or_env(None)?,
        };
        for name in scenarios::NAMES {
            if let Some(grid) = scenarios::by_name(name, knobs.iterations, knobs.seed) {
                grid.check_horizon()
                    .map_err(|e| format!("AITAX_ITERS {}: {e}", knobs.iterations))?;
            }
        }
        Ok(knobs)
    }

    /// Runs the registered lab grid `name` at these knobs.
    fn sweep(self, name: &str) -> SweepReport {
        let grid = scenarios::by_name(name, self.iterations, self.seed)
            .expect("exhibits only name registered grids");
        SweepReport::aggregate(&grid, &aitax_lab::run_jobs(grid.expand(), self.threads))
    }

    /// `model` in `dtype` at these knobs' iterations and seed.
    fn config(self, model: ModelId, dtype: DType) -> E2eConfig {
        E2eConfig::new(model, dtype)
            .iterations(self.iterations)
            .seed(self.seed)
    }

    /// Runs every configuration on the lab pool, one [`SimContext`] per
    /// worker, and returns the reports in input order.
    fn run_all(self, configs: impl IntoIterator<Item = E2eConfig>) -> Vec<E2eReport> {
        let configs: Vec<E2eConfig> = configs.into_iter().collect();
        aitax_lab::run_tasks_ctx(configs, self.threads, SimContext::new, |ctx, cfg| {
            cfg.clone().run_in(ctx)
        })
    }
}

/// One exhibit: its name and the function that renders it.
pub type Exhibit = (&'static str, fn(Knobs) -> String);

/// Every exhibit, in the order `figures` runs them with no names given.
pub const EXHIBITS: [Exhibit; 16] = [
    ("table1", |k| {
        section("Table I — Comprehensive list of benchmarks", &table1())
            + &section(
                "Table I (measured) — end-to-end latency per benchmark, CPU CLI",
                &render::model_latency_table(&k.sweep("table1")),
            )
    }),
    ("table2", |k| {
        section("Table II — Platforms used to conduct the study", &table2())
            + &section(
                "Table II (measured) — MobileNet v1 int8 via NNAPI app per platform",
                &render::platform_table(&k.sweep("table2")),
            )
    }),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", |k| {
        let (table, nnapi_vs_cpu1) = fig5(k);
        section(
            "Figure 5 — EfficientNet-Lite0 int8 target comparison",
            &table,
        ) + &format!("NNAPI vs single-thread CPU: {nnapi_vs_cpu1:.1}x (paper: ~7x)\n\n")
    }),
    ("fig6", |k| text("Figure 6 — execution profiles", &fig6(k))),
    ("fig7", |_| {
        section(
            "Figure 7 — FastRPC call flow (steady-state invocation)",
            &fig7(),
        )
    }),
    ("fig8", |k| {
        section(
            "Figure 8 — offload amortization (MobileNet v1 int8, Hexagon)",
            &fig8(k),
        )
    }),
    ("fig9", |k| {
        section(
            "Figure 9 — multi-tenancy, background inferences on the DSP",
            &render::multitenancy_table(&k.sweep("fig9")),
        )
    }),
    ("fig10", |k| {
        section(
            "Figure 10 — multi-tenancy, background inferences on the CPU",
            &render::multitenancy_table(&k.sweep("fig10")),
        )
    }),
    ("fig11", fig11),
    ("stdlib", |k| {
        section(
            "Extra — libc++/libstdc++ input-generation asymmetry (§IV-A)",
            &stdlib_asymmetry(k),
        )
    }),
    ("extras", extras),
    ("energy", energy),
    ("faults", |k| {
        section(
            "Fault sweep — MobileNet v1 int8 via NNAPI, app mode (Fig. 6 scenario)",
            &render::fault_table(&k.sweep("faults")),
        )
    }),
    ("serving", serving),
];

/// Pre-rendered text under a `## title` heading (no heading under
/// `AITAX_TSV=1`).
fn text(title: &str, body: &str) -> String {
    if cli::tsv() {
        body.to_string()
    } else {
        format!("## {title}\n\n{body}")
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
        let pre: Vec<String> = e.preprocess.iter().map(|p| p.to_string()).collect();
        let post: Vec<String> = e.postprocess.iter().map(|p| p.to_string()).collect();
        t.row(vec![
            e.task.to_string(),
            e.display_name.to_string(),
            res,
            pre.join(", "),
            post.join(", "),
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
    Zoo::all()
        .iter()
        .flat_map(|e| [DType::F32, DType::I8].map(|dtype| (e, dtype)))
        .filter(|(e, dtype)| e.support.supports(nnapi, *dtype))
        .map(|(e, dtype)| (e.id, dtype))
        .collect()
}

/// **Figure 3** — end-to-end latency of CLI benchmark vs benchmark app vs
/// real application, per model, on the CPU.
fn fig3(k: Knobs) -> String {
    let mut t = Table::new(vec![
        "model",
        "dtype",
        "cli_e2e_ms",
        "benchapp_e2e_ms",
        "app_e2e_ms",
        "app_vs_cli",
    ]);
    let models = fig_models(false);
    let reports = k.run_all(models.iter().flat_map(|&(model, dtype)| {
        RunMode::ALL.map(|mode| {
            k.config(model, dtype)
                .engine(Engine::tflite_cpu(4))
                .run_mode(mode)
        })
    }));
    for ((model, dtype), runs) in models.iter().zip(reports.chunks(RunMode::ALL.len())) {
        let e2e: Vec<f64> = runs.iter().map(|r| r.e2e_summary().mean_ms()).collect();
        t.row(vec![
            model.to_string(),
            dtype.to_string(),
            fmt_ms(e2e[0]),
            fmt_ms(e2e[1]),
            fmt_ms(e2e[2]),
            fmt_ratio(e2e[2] / e2e[0]),
        ]);
    }
    section("Figure 3 — benchmark vs app end-to-end latency (CPU)", &t)
}

/// **Figure 4** — data capture + pre-processing vs inference, benchmark
/// vs application, via NNAPI (4a absolute, 4b relative — both columns).
fn fig4(k: Knobs) -> String {
    let mut t = Table::new(vec![
        "model",
        "dtype",
        "mode",
        "capture_ms",
        "preproc_ms",
        "inference_ms",
        "(cap+pre)/inf",
    ]);
    let cases: Vec<(ModelId, DType, RunMode)> = fig_models(true)
        .into_iter()
        .flat_map(|(m, d)| [RunMode::CliBenchmark, RunMode::AndroidApp].map(|mode| (m, d, mode)))
        .collect();
    let reports = k.run_all(cases.iter().map(|&(model, dtype, mode)| {
        k.config(model, dtype)
            .engine(Engine::nnapi())
            .run_mode(mode)
    }));
    for ((model, dtype, mode), r) in cases.iter().zip(&reports) {
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
    section("Figure 4 — capture/pre-processing vs inference (NNAPI)", &t)
}

/// **Figure 5** — quantized EfficientNet-Lite0 across Hexagon delegate,
/// CPU ×4, CPU ×1 and NNAPI (with CPU fallback). Returns the per-target
/// table and NNAPI's latency relative to one CPU thread (the paper's 7×).
pub fn fig5(k: Knobs) -> (Table, f64) {
    let targets: [(&str, Engine); 4] = [
        ("hexagon-delegate", Engine::TfLiteHexagon { threads: 4 }),
        ("cpu-4threads", Engine::tflite_cpu(4)),
        ("cpu-1thread", Engine::tflite_cpu(1)),
        ("nnapi", Engine::nnapi()),
    ];
    let lat: Vec<f64> = k
        .run_all(targets.iter().map(|&(_, engine)| {
            k.config(ModelId::EfficientNetLite0, DType::I8)
                .engine(engine)
        }))
        .iter()
        .map(|r| r.summary(Stage::Inference).mean_ms())
        .collect();
    let cpu1 = lat[2];
    let mut t = Table::new(vec!["target", "inference_ms", "vs_cpu1"]);
    for ((name, _), l) in targets.iter().zip(&lat) {
        t.row(vec![name.to_string(), fmt_ms(*l), fmt_ratio(l / cpu1)]);
    }
    (t, lat[3] / cpu1)
}

/// **Figure 6** — Snapdragon-Profiler-style execution profiles of
/// EfficientNet-Lite0 (int8) under the three execution targets.
fn fig6(k: Knobs) -> String {
    let targets: [(&str, Engine); 3] = [
        ("cpu-4threads", Engine::tflite_cpu(4)),
        ("hexagon-delegate", Engine::TfLiteHexagon { threads: 4 }),
        ("nnapi (driver fallback)", Engine::nnapi()),
    ];
    let reports = k.run_all(targets.iter().map(|&(_, engine)| {
        k.config(ModelId::EfficientNetLite0, DType::I8)
            .engine(engine)
            .iterations(k.iterations.min(30))
            .tracing(true)
    }));
    let mut out = String::new();
    for ((name, _), r) in targets.iter().zip(&reports) {
        let trace = r.trace.as_ref().expect("tracing was enabled");
        let profile = ProfileReport::from_trace(trace, SimSpan::from_ms(20.0));
        out.push_str(&format!("=== {name} ===\n"));
        out.push_str(&profile.render_ascii());
        out.push_str(&format!(
            "stage means: inference {} ms over {} iterations\n\n",
            fmt_ms(r.summary(Stage::Inference).mean_ms()),
            r.tax.iterations()
        ));
    }
    out
}

/// The Fig. 7 reference trace: one steady-state FastRPC invocation of a
/// MobileNet-class kernel on the SD845 DSP, traced from `t0`.
///
/// The returned buffer carries the full event stream (RPC phases, cache
/// flush, DSP execution, interrupts); [`fig7`] condenses it into the
/// paper's phase table and the lab's Chrome-trace sink renders it
/// visually.
pub fn fig7_trace() -> (TraceBuffer, SimTime) {
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
    let trace = std::mem::replace(&mut m.trace, TraceBuffer::disabled());
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
/// inferences (MobileNet v1 int8 through the Hexagon delegate). Point `i`
/// runs `n` inferences at seed `k.seed + i`; counts above 20× the knobs'
/// iterations are skipped.
pub fn fig8(k: Knobs) -> Table {
    let mut t = Table::new(vec![
        "inferences",
        "total_ms",
        "per_inference_ms",
        "steady_inference_ms",
        "offload_ms_per_inf",
        "offload_fraction",
    ]);
    let counts: Vec<usize> = [1, 2, 5, 10, 20, 50, 100, 200, 500]
        .into_iter()
        .take_while(|&n| n <= k.iterations.max(1) * 20)
        .collect();
    let reports = k.run_all(counts.iter().zip(0u64..).map(|(&n, i)| {
        E2eConfig::new(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::TfLiteHexagon { threads: 4 })
            .iterations(n)
            .seed(k.seed + i)
    }));
    // Pure DSP execution time for the offloaded portion (analytic floor).
    let dsp = &SocCatalog::get(SocId::Sd845).dsp;
    let macs = Zoo::entry(ModelId::MobileNetV1).build_graph().total_macs() as f64;
    for (&n, r) in counts.iter().zip(&reports) {
        let inf = r.summary(Stage::Inference);
        let total = r.model_init.as_ms() + inf.total_ms();
        let per_inf = total / n as f64;
        let offloaded = (r.plan.offloaded_mac_fraction() * macs) as u64;
        let pure = cost::dsp_exec_span(dsp, offloaded, cost::HEXAGON_DELEGATE_EFFICIENCY).as_ms();
        let offload = (per_inf - pure).max(0.0);
        t.row(vec![
            n.to_string(),
            fmt_ms(total),
            fmt_ms(per_inf),
            fmt_ms(inf.min_ms()),
            fmt_ms(offload),
            fmt_pct(offload / per_inf),
        ]);
    }
    t
}

/// **Figure 11** — run-to-run variability: each mode repeated over
/// independent seeds and pooled into one distribution per mode.
fn fig11(k: Knobs) -> String {
    let report = k.sweep("fig11");
    let dev = |label: &str| {
        report
            .scenario(label)
            .map_or(f64::NAN, |s| s.e2e.max_dev_from_median)
    };
    section(
        "Figure 11 — run-to-run variability (MobileNet v1, CPU)",
        &render::distribution_table(&report),
    ) + &format!(
        "max deviation from median: benchmark {:.1}%, app {:.1}% (paper: app up to ~30%)\n\n",
        dev("cli-benchmark") * 100.0,
        dev("android-app") * 100.0
    )
}

/// The libc++/libstdc++ random-input-generation asymmetry (§IV-A) — an
/// auxiliary exhibit supporting the Fig. 4 discussion.
fn stdlib_asymmetry(k: Knobs) -> Table {
    let cases: Vec<(&str, StdlibFlavor, DType)> = [
        ("libc++", StdlibFlavor::LibCxx),
        ("libstdc++", StdlibFlavor::LibStdCxx),
    ]
    .into_iter()
    .flat_map(|(name, flavor)| [DType::F32, DType::I8].map(|dtype| (name, flavor, dtype)))
    .collect();
    let reports = k.run_all(cases.iter().map(|&(_, flavor, dtype)| {
        k.config(ModelId::MobileNetV1, dtype)
            .engine(Engine::tflite_cpu(4))
            .stdlib(flavor)
    }));
    let mut t = Table::new(vec!["stdlib", "dtype", "capture_ms"]);
    for ((name, _, dtype), r) in cases.iter().zip(&reports) {
        t.row(vec![
            name.to_string(),
            dtype.to_string(),
            fmt_ms(r.summary(Stage::DataCapture).mean_ms()),
        ]);
    }
    t
}

/// Thermal methodology (§III-D), cold start per engine (§IV-C), NNAPI
/// execution preferences (§II-D), the two ablations and the Figure 1
/// taxonomy, measured.
fn extras(k: Knobs) -> String {
    [
        section(
            "Thermal methodology — cooled vs pre-heated chip (§III-D)",
            &thermal_methodology(k),
        ),
        section(
            "Cold start — init + first inference per engine (§IV-C)",
            &cold_start(k),
        ),
        section("NNAPI execution preferences (§II-D)", &preference_sweep(k)),
        section(
            "Ablation — migration share of the Fig. 5 NNAPI slowdown",
            &migration_ablation(k),
        ),
        section(
            "Design study — FastCV-style DSP pre-processing (conclusion)",
            &preproc_offload_study(k),
        ),
        text("Figure 1 taxonomy, measured", &taxonomy_trees(k)),
    ]
    .concat()
}

/// §III-D — the cool-down methodology: the same benchmark on a cooled
/// (33 °C) vs pre-heated (throttling) chip.
///
/// "Since mobile SoCs are particularly susceptible to thermal throttling,
/// we make sure to run benchmarks once the CPU is cooled to its idle
/// temperature of around 33 °C."
fn thermal_methodology(k: Knobs) -> Table {
    let temps = [33.0f64, 60.0, 70.0, 85.0];
    let e2e: Vec<f64> = k
        .run_all(temps.map(|temp| {
            k.config(ModelId::MobileNetV1, DType::F32)
                .engine(Engine::tflite_cpu(4))
                .initial_temp(temp)
        }))
        .iter()
        .map(|r| r.e2e_summary().mean_ms())
        .collect();
    let mut t = Table::new(vec!["start_temp_c", "e2e_ms", "vs_cooled"]);
    for (temp, ms) in temps.iter().zip(&e2e) {
        t.row(vec![
            format!("{temp:.0}"),
            fmt_ms(*ms),
            fmt_ratio(ms / e2e[0]),
        ]);
    }
    t
}

/// §IV-C cold start — model initialization plus first-inference penalty
/// per engine ("the TFlite benchmark tool breaks down model
/// initialization time, which is good to measure if an application
/// switches between models or frequently reloads them").
fn cold_start(k: Knobs) -> Table {
    let mut t = Table::new(vec![
        "engine",
        "model_init_ms",
        "first_inference_ms",
        "steady_inference_ms",
        "cold_penalty",
    ]);
    let engines: [(Engine, DType); 4] = [
        (Engine::tflite_cpu(4), DType::I8),
        (Engine::TfLiteGpu { threads: 4 }, DType::F32),
        (Engine::TfLiteHexagon { threads: 4 }, DType::I8),
        (Engine::nnapi(), DType::I8),
    ];
    let reports = k.run_all(engines.map(|(engine, dtype)| {
        k.config(ModelId::MobileNetV1, dtype)
            .engine(engine)
            .iterations(k.iterations.max(5))
    }));
    for ((engine, _), r) in engines.iter().zip(&reports) {
        let inf = r.summary(Stage::Inference);
        let first = inf.samples_ms()[0];
        let steady = inf.median_ms();
        t.row(vec![
            engine.label(),
            fmt_ms(r.model_init.as_ms()),
            fmt_ms(first),
            fmt_ms(steady),
            fmt_ratio((r.model_init.as_ms() + first) / steady),
        ]);
    }
    t
}

/// NNAPI execution preferences (§II-D: "based on the application's
/// execution preference ... the framework will determine on which
/// processors and co-processors to run a model").
fn preference_sweep(k: Knobs) -> Table {
    let prefs = [
        ExecutionPreference::FastSingleAnswer,
        ExecutionPreference::SustainedSpeed,
        ExecutionPreference::LowPower,
    ];
    let reports = k.run_all(prefs.map(|preference| {
        k.config(ModelId::MobileNetV1, DType::F32)
            .engine(Engine::Nnapi {
                threads: 4,
                preference,
            })
    }));
    let mut t = Table::new(vec!["preference", "inference_ms", "e2e_ms"]);
    for (pref, r) in prefs.iter().zip(&reports) {
        t.row(vec![
            pref.to_string(),
            fmt_ms(r.summary(Stage::Inference).mean_ms()),
            fmt_ms(r.e2e_summary().mean_ms()),
        ]);
    }
    t
}

/// Ablation: how much of the Fig. 5 NNAPI slowdown comes from CPU
/// migrations (the scheduler bouncing the fallback thread) versus the
/// reference kernels themselves.
fn migration_ablation(k: Knobs) -> Table {
    let wander = [0.0f64, 0.15, 0.35, 0.6];
    let reports = k.run_all(wander.map(|p| {
        k.config(ModelId::EfficientNetLite0, DType::I8)
            .engine(Engine::nnapi())
            .iterations(k.iterations.min(40))
            .wander_probability(p)
    }));
    let mut t = Table::new(vec![
        "wander_probability",
        "nnapi_inference_ms",
        "migrations",
    ]);
    for (p, r) in wander.iter().zip(&reports) {
        t.row(vec![
            format!("{p:.2}"),
            fmt_ms(r.summary(Stage::Inference).mean_ms()),
            r.stats.migrations.to_string(),
        ]);
    }
    t
}

/// Design study from the paper's conclusion: offload pre-processing to
/// the DSP (FastCV-style) and see what happens to the end-to-end latency
/// — including the contention trap when the model *also* runs on the DSP.
fn preproc_offload_study(k: Knobs) -> Table {
    let cases: [(&str, Engine, bool); 4] = [
        ("cpu-preproc + dsp-model", Engine::nnapi(), false),
        ("dsp-preproc + dsp-model", Engine::nnapi(), true),
        ("cpu-preproc + cpu-model", Engine::tflite_cpu(4), false),
        ("dsp-preproc + cpu-model", Engine::tflite_cpu(4), true),
    ];
    let reports = k.run_all(cases.map(|(_, engine, on_dsp)| {
        k.config(ModelId::MobileNetV1, DType::I8)
            .engine(engine)
            .run_mode(RunMode::AndroidApp)
            .preproc_on_dsp(on_dsp)
    }));
    let mut t = Table::new(vec![
        "configuration",
        "preproc_ms",
        "inference_ms",
        "e2e_ms",
    ]);
    for ((name, _, _), r) in cases.iter().zip(&reports) {
        t.row(vec![
            name.to_string(),
            fmt_ms(r.summary(Stage::PreProcessing).mean_ms()),
            fmt_ms(r.summary(Stage::Inference).mean_ms()),
            fmt_ms(r.e2e_summary().mean_ms()),
        ]);
    }
    t
}

/// The Fig. 1 taxonomy tree, measured for a benchmark and an app.
fn taxonomy_trees(k: Knobs) -> String {
    let cases = [
        (
            "CLI benchmark, CPU",
            RunMode::CliBenchmark,
            Engine::tflite_cpu(4),
        ),
        ("Android app, NNAPI", RunMode::AndroidApp, Engine::nnapi()),
    ];
    let reports = k.run_all(cases.map(|(_, mode, engine)| {
        k.config(ModelId::MobileNetV1, DType::I8)
            .engine(engine)
            .run_mode(mode)
    }));
    let soc = SocCatalog::get(SocId::Sd845);
    let model = Zoo::entry(ModelId::MobileNetV1).display_name;
    let mut out = String::new();
    for ((name, _, _), r) in cases.iter().zip(&reports) {
        out.push_str(&format!("=== {name} ({model}) ===\n"));
        out.push_str(&TaxonomyReport::from_report(r, soc).render());
        out.push('\n');
    }
    out
}

/// A metered CLI-benchmark run of MobileNet v1 on the SD845 (the
/// configuration's defaults) through `engine`.
fn metered_bench(k: Knobs, engine: Engine, dtype: DType) -> E2eConfig {
    k.config(ModelId::MobileNetV1, dtype)
        .engine(engine)
        .energy()
}

/// The energy shootout: what latency numbers hide.
///
/// Per-backend energy per inference on the SD845 for quantized
/// MobileNet: the DSP wins energy outright (race-to-idle on a
/// power-gated rail), and CPU ×4 beats CPU ×1 despite burning more watts.
/// The energy tax across chipsets is a column of Table II (measured).
fn energy(k: Knobs) -> String {
    let k = Knobs {
        iterations: k.iterations.clamp(10, 60),
        ..k
    };
    let backends = [
        ("cpu-1thread", Engine::tflite_cpu(1), DType::I8),
        ("cpu-4threads", Engine::tflite_cpu(4), DType::I8),
        ("gpu", Engine::TfLiteGpu { threads: 4 }, DType::F32),
        ("hexagon", Engine::TfLiteHexagon { threads: 4 }, DType::I8),
        ("nnapi", Engine::nnapi(), DType::I8),
    ];
    let reports = k.run_all(backends.map(|(_, engine, dtype)| metered_bench(k, engine, dtype)));
    let mut t = Table::new(vec![
        "backend",
        "latency_ms",
        "energy_mj",
        "edp_mj_ms",
        "mean_w",
        "energy_tax",
    ]);
    for ((name, _, _), r) in backends.iter().zip(&reports) {
        let e = r.energy.as_ref().expect("metering enabled");
        let lat_ms = r.e2e_summary().mean_ms();
        let mj = e.energy_per_inference_j() * 1e3;
        // EDP in mJ·ms: energy per inference × mean e2e latency.
        let edp = mj * lat_ms;
        t.row(vec![
            name.to_string(),
            format!("{lat_ms:.2}"),
            format!("{mj:.2}"),
            format!("{edp:.1}"),
            format!("{:.2}", e.mean_power_w()),
            fmt_pct(e.energy_tax_fraction()),
        ]);
    }
    section(
        "Energy shootout — MobileNet v1 on SD845 (quantized where supported)",
        &t,
    )
}

/// Every committed serve scenario through the attribution pass (N solo
/// baselines plus the mix): per tenant, what multi-tenancy cost it and
/// who paid. The knobs' iterations cap per-tenant request counts.
fn serving(k: Knobs) -> String {
    let mut out = String::new();
    for name in aitax_serve::scenarios::NAMES {
        let mut cfg = aitax_serve::scenarios::by_name(name)
            .expect("committed scenario")
            .seed(k.seed);
        for t in &mut cfg.tenants {
            t.requests = t.requests.min(k.iterations);
        }
        let (report, _) = run_report(&cfg, k.threads);
        let mut table = Table::new(vec![
            "tenant", "qos", "engine", "done", "shed", "solo p99", "mix p99", "infl", "suffered",
            "caused", "self",
        ]);
        for t in &report.tenants {
            table.row(vec![
                t.label.clone(),
                t.qos.label().to_string(),
                t.engine.clone(),
                t.completed.to_string(),
                t.shed.to_string(),
                format!("{:.2}", t.solo.p99),
                format!("{:.2}", t.multi.p99),
                format!("{:.2}x", t.multi.p99 / t.solo.p99.max(1e-9)),
                format!("{:.1}", t.suffered_ms),
                format!("{:.1}", t.caused_ms),
                format!("{:.1}", t.self_ms),
            ]);
        }
        out.push_str(&section(
            &format!(
                "serving '{}' — mix added {:.1} ms over solo (all attributed)",
                report.scenario, report.added_ms
            ),
            &table,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The knobs at `iterations`, seed 1, on two pool workers.
    fn quick(iterations: usize) -> Knobs {
        Knobs {
            iterations,
            seed: 1,
            threads: 2,
        }
    }

    #[test]
    fn stdlib_flavors_invert_capture_cost() {
        let t = stdlib_asymmetry(quick(25));
        let rows = t.rows();
        let get = |i: usize| rows[i][2].parse::<f64>().unwrap();
        // libc++: fp32 faster than int8; libstdc++: opposite.
        assert!(get(0) < get(1), "libc++ floats faster");
        assert!(get(3) < get(2), "libstdc++ ints faster");
    }

    /// The fault sweep at `iterations`/`seed` on `threads` workers.
    fn faults(iterations: usize, seed: u64, threads: usize) -> SweepReport {
        Knobs {
            iterations,
            seed,
            threads,
        }
        .sweep("faults")
    }

    /// The sweep's headline: a sustained DSP outage at least doubles
    /// end-to-end latency and attributes the loss.
    #[test]
    fn dsp_outage_at_least_doubles_e2e() {
        let report = faults(6, 3, 1);
        let h = report.scenario("none").unwrap().e2e.mean;
        let broken = report.scenario("dsp-signal-timeout").unwrap();
        let b = broken.e2e.mean;
        assert!(
            b >= 2.0 * h,
            "expected >=2x slowdown, got {h:.2} -> {b:.2} ms"
        );
        assert!(broken.degradation.added_tax_ms > 0.0);
    }

    /// The whole sweep is reproducible — and independent of thread count.
    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let serial = faults(4, 5, 1);
        let parallel = faults(4, 5, 4);
        assert_eq!(serial, parallel, "aggregates must not depend on threads");
        for s in &serial.scenarios {
            if s.label != "none" {
                assert!(
                    s.degradation.faults_injected > 0,
                    "{}: fault plan must actually fire",
                    s.label
                );
            }
        }
    }

    #[test]
    fn exhibit_names_are_unique() {
        let mut names: Vec<_> = EXHIBITS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXHIBITS.len());
    }

    #[test]
    fn preheated_chip_is_slower() {
        let t = thermal_methodology(quick(15));
        let rows = t.rows();
        let cooled: f64 = rows[0][1].parse().unwrap();
        let hot: f64 = rows[3][1].parse().unwrap();
        assert!(
            hot > cooled * 1.1,
            "throttled run should be ≥10% slower: {cooled} vs {hot}"
        );
    }

    #[test]
    fn cold_start_penalty_largest_for_dsp_paths() {
        let t = cold_start(quick(15));
        let penalty = |label: &str| -> f64 {
            let row = t
                .rows()
                .iter()
                .find(|r| r[0] == label)
                .unwrap_or_else(|| panic!("row {label}"));
            row[4].trim_end_matches('x').parse().unwrap()
        };
        // Offload engines pay session setup + weight upload; plain CPU
        // pays far less.
        assert!(penalty("hexagon-delegate") > penalty("cpu-4t"));
        assert!(penalty("nnapi") > penalty("cpu-4t"));
    }

    #[test]
    fn low_power_preference_trades_latency() {
        let t = preference_sweep(quick(15));
        let inf = |i: usize| t.rows()[i][1].parse::<f64>().unwrap();
        assert!(inf(2) > inf(0), "LOW_POWER should be slower than FAST");
    }

    #[test]
    fn migrations_contribute_to_the_fallback_slowdown() {
        let t = migration_ablation(quick(10));
        let inf = |i: usize| t.rows()[i][1].parse::<f64>().unwrap();
        let mig = |i: usize| t.rows()[i][2].parse::<u64>().unwrap();
        assert_eq!(mig(0), 0, "pinned fallback must not migrate");
        assert!(mig(3) > mig(1), "more wandering, more migrations");
        assert!(
            inf(3) > inf(0) * 1.05,
            "migrations should cost measurable time: {} vs {}",
            inf(0),
            inf(3)
        );
    }

    #[test]
    fn dsp_preprocessing_helps_cpu_models_but_contends_with_dsp_models() {
        let t = preproc_offload_study(quick(15));
        let get = |i: usize, c: usize| t.rows()[i][c].parse::<f64>().unwrap();
        // With a CPU model, moving preproc to the idle DSP cuts preproc
        // time substantially.
        let cpu_pre = get(2, 1);
        let cpu_pre_dsp = get(3, 1);
        assert!(
            cpu_pre_dsp < cpu_pre * 0.6,
            "DSP preproc should be much faster: {cpu_pre} -> {cpu_pre_dsp}"
        );
        // Within one sequential pipeline the stages never overlap, so
        // inference stays roughly unchanged — the win is end-to-end.
        let dsp_inf_base = get(0, 2);
        let dsp_inf_offloaded = get(1, 2);
        assert!((dsp_inf_offloaded - dsp_inf_base).abs() < dsp_inf_base * 0.2);
        assert!(get(1, 3) < get(0, 3), "E2E should improve with DSP preproc");
        assert!(
            get(3, 3) < get(2, 3),
            "E2E should improve for CPU models too"
        );
    }

    #[test]
    fn taxonomy_trees_render() {
        let s = taxonomy_trees(quick(8));
        assert!(s.contains("AI Tax"));
        assert!(s.contains("CLI benchmark"));
        assert!(s.contains("Android app"));
    }

    /// The energy tests' runs: 12 iterations at seed 3.
    const ENERGY: Knobs = Knobs {
        iterations: 12,
        seed: 3,
        threads: 1,
    };

    /// The energy exhibit's headline: for quantized MobileNet-class work
    /// the DSP wins energy per inference, and four CPU threads beat one
    /// (race-to-idle under a shared static floor).
    #[test]
    fn dsp_beats_cpu4_beats_cpu1_on_energy() {
        let energy_mj = |engine: Engine, dtype: DType| {
            let r = metered_bench(ENERGY, engine, dtype).run();
            r.energy.unwrap().energy_per_inference_j() * 1e3
        };
        let cpu1 = energy_mj(Engine::tflite_cpu(1), DType::I8);
        let cpu4 = energy_mj(Engine::tflite_cpu(4), DType::I8);
        let dsp = energy_mj(Engine::TfLiteHexagon { threads: 4 }, DType::I8);
        assert!(
            dsp < cpu4 && cpu4 < cpu1,
            "expected dsp < cpu4 < cpu1, got dsp={dsp:.1} cpu4={cpu4:.1} cpu1={cpu1:.1} mJ"
        );
    }

    /// The DSP can lose the latency race to 4 big cores and still win
    /// on energy — the point latency-only comparisons miss.
    #[test]
    fn dsp_energy_win_does_not_require_latency_win() {
        let r_dsp = metered_bench(ENERGY, Engine::TfLiteHexagon { threads: 4 }, DType::I8).run();
        let r_cpu = metered_bench(ENERGY, Engine::tflite_cpu(4), DType::I8).run();
        let e_dsp = r_dsp.energy.as_ref().unwrap().energy_per_inference_j();
        let e_cpu = r_cpu.energy.as_ref().unwrap().energy_per_inference_j();
        assert!(
            e_dsp < e_cpu * 0.8,
            "DSP should win energy by a clear margin"
        );
        // Whatever the latency outcome, the inference stage itself must
        // be accounted in both runs.
        assert!(r_dsp.summary(Stage::Inference).mean_ms() > 0.0);
        assert!(r_cpu.summary(Stage::Inference).mean_ms() > 0.0);
    }
}
