//! Every table and figure of the paper, plus the extension studies, as
//! one static name → function table that the `figures` binary runs.
//!
//! Sweep-shaped exhibits (the measured Tables I/II, Figs. 10 and 11 and
//! the fault sweep) run through the aitax-lab engine in parallel, with
//! byte-identical aggregates for any thread count; the single-run
//! exhibits call their `experiment::` implementations directly.

use aitax_core::experiment::{self as exp, ExperimentOpts};
use aitax_core::extras;
use aitax_core::pipeline::{E2eConfig, E2eReport};
use aitax_core::report::{fmt_pct, Table};
use aitax_core::runmode::RunMode;
use aitax_framework::Engine;
use aitax_lab::cli::{self, emit};
use aitax_lab::{render, scenarios, SweepReport};
use aitax_models::zoo::ModelId;
use aitax_serve::run_report;
use aitax_soc::SocId;
use aitax_tensor::DType;

/// What every exhibit runs with.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Iterations per configuration and the base seed.
    pub opts: ExperimentOpts,
    /// Lab worker threads; no exhibit's numbers depend on it.
    pub threads: usize,
}

impl Knobs {
    /// `AITAX_ITERS` (default 100; the paper used 500), `AITAX_SEED`
    /// (default 1) and `AITAX_THREADS` (default: every core), each
    /// checked like the `lab` flag it mirrors.
    pub fn from_env() -> Result<Self, String> {
        let default = ExperimentOpts::default();
        Ok(Knobs {
            opts: ExperimentOpts {
                iterations: cli::iters_or_env(None, default.iterations)?,
                seed: cli::seed_or_env(None)?,
            },
            threads: cli::threads_or_env(None)?,
        })
    }

    /// Runs the registered lab grid `name` at these knobs.
    fn sweep(self, name: &str) -> SweepReport {
        let grid = scenarios::by_name(name, self.opts.iterations, self.opts.seed)
            .expect("exhibits only name registered grids");
        SweepReport::aggregate(&grid, &aitax_lab::run_jobs(grid.expand(), self.threads))
    }
}

/// One exhibit: its name and the function that prints it.
pub type Exhibit = (&'static str, fn(Knobs));

/// Every exhibit, in the order `figures` runs them with no names given.
pub const EXHIBITS: [Exhibit; 16] = [
    ("table1", table1),
    ("table2", table2),
    ("fig3", |k| {
        emit(
            "Figure 3 — benchmark vs app end-to-end latency (CPU)",
            &exp::fig3(k.opts),
        );
    }),
    ("fig4", |k| {
        emit(
            "Figure 4 — capture/pre-processing vs inference (NNAPI)",
            &exp::fig4(k.opts),
        );
    }),
    ("fig5", fig5),
    ("fig6", |k| {
        text("Figure 6 — execution profiles", &exp::fig6(k.opts));
    }),
    ("fig7", |_| {
        emit(
            "Figure 7 — FastRPC call flow (steady-state invocation)",
            &exp::fig7(),
        );
    }),
    ("fig8", |k| {
        emit(
            "Figure 8 — offload amortization (MobileNet v1 int8, Hexagon)",
            &exp::fig8(k.opts),
        );
    }),
    ("fig9", |k| {
        emit(
            "Figure 9 — multi-tenancy, background inferences on the DSP",
            &exp::fig9(k.opts),
        );
    }),
    ("fig10", |k| {
        emit(
            "Figure 10 — multi-tenancy, background inferences on the CPU",
            &render::multitenancy_table(&k.sweep("fig10")),
        );
    }),
    ("fig11", fig11),
    ("stdlib", |k| {
        emit(
            "Extra — libc++/libstdc++ input-generation asymmetry (§IV-A)",
            &exp::stdlib_asymmetry(k.opts),
        );
    }),
    ("extras", extras),
    ("energy", energy),
    ("faults", |k| {
        emit(
            "Fault sweep — MobileNet v1 int8 via NNAPI, app mode (Fig. 6 scenario)",
            &render::fault_table(&k.sweep("faults")),
        );
    }),
    ("serving", serving),
];

/// Prints pre-rendered text under a `## title` heading (no heading under
/// `AITAX_TSV=1`).
fn text(title: &str, body: &str) {
    if !cli::tsv() {
        println!("## {title}\n");
    }
    print!("{body}");
}

/// Table I and its measured companion: every listed benchmark swept end
/// to end.
fn table1(k: Knobs) {
    emit("Table I — Comprehensive list of benchmarks", &exp::table1());
    emit(
        "Table I (measured) — end-to-end latency per benchmark, CPU CLI",
        &render::model_latency_table(&k.sweep("table1")),
    );
}

/// Table II and its measured companion: quantized MobileNet through NNAPI
/// on each platform, traced for energy.
fn table2(k: Knobs) {
    emit(
        "Table II — Platforms used to conduct the study",
        &exp::table2(),
    );
    emit(
        "Table II (measured) — MobileNet v1 int8 via NNAPI app per platform",
        &render::platform_table(&k.sweep("table2")),
    );
}

/// Quantized EfficientNet-Lite0 across targets: the NNAPI CPU fallback.
fn fig5(k: Knobs) {
    let r = exp::fig5(k.opts);
    emit(
        "Figure 5 — EfficientNet-Lite0 int8 target comparison",
        &r.table,
    );
    println!(
        "NNAPI vs single-thread CPU: {:.1}x (paper: ~7x)\n",
        r.nnapi_vs_cpu1
    );
}

/// Run-to-run variability: each mode repeated over independent seeds and
/// pooled into one distribution per mode.
fn fig11(k: Knobs) {
    let report = k.sweep("fig11");
    emit(
        "Figure 11 — run-to-run variability (MobileNet v1, CPU)",
        &render::distribution_table(&report),
    );
    let dev = |label: &str| {
        report
            .scenario(label)
            .map_or(f64::NAN, |s| s.e2e.max_dev_from_median)
    };
    println!(
        "max deviation from median: benchmark {:.1}%, app {:.1}% (paper: app up to ~30%)\n",
        dev("cli-benchmark") * 100.0,
        dev("android-app") * 100.0
    );
}

/// Thermal methodology (§III-D), cold start per engine (§IV-C), NNAPI
/// execution preferences (§II-D), the cross-chipset sweep (§III-C) and
/// the Figure 1 taxonomy, measured.
fn extras(k: Knobs) {
    let o = k.opts;
    emit(
        "Thermal methodology — cooled vs pre-heated chip (§III-D)",
        &extras::thermal_methodology(o),
    );
    emit(
        "Cold start — init + first inference per engine (§IV-C)",
        &extras::cold_start(o),
    );
    emit(
        "NNAPI execution preferences (§II-D)",
        &extras::preference_sweep(o),
    );
    emit(
        "Chipset sweep — same app across Table II platforms (§III-C)",
        &extras::chipset_sweep(o),
    );
    emit(
        "Ablation — migration share of the Fig. 5 NNAPI slowdown",
        &extras::migration_ablation(o),
    );
    emit(
        "Design study — FastCV-style DSP pre-processing (conclusion)",
        &extras::preproc_offload_study(o),
    );
    text("Figure 1 taxonomy, measured", &extras::taxonomy_trees(o));
}

/// One traced run of MobileNet v1 on `soc` through `engine`.
fn traced_run(engine: Engine, dtype: DType, soc: SocId, iters: usize, seed: u64) -> E2eReport {
    E2eConfig::new(ModelId::MobileNetV1, dtype)
        .engine(engine)
        .soc(soc)
        .run_mode(RunMode::CliBenchmark)
        .iterations(iters)
        .seed(seed)
        .tracing(true)
        .run()
}

/// The energy shootout: what latency numbers hide.
///
/// First, per-backend energy per inference on the SD845 for quantized
/// MobileNet: the DSP wins energy outright (race-to-idle on a
/// power-gated rail), and CPU ×4 beats CPU ×1 despite burning more watts.
/// Then the §III-C chipset sweep: the energy tax grows alongside the
/// time tax as inference gets cheaper faster than the pipeline around it.
fn energy(k: Knobs) {
    let iters = k.opts.iterations.clamp(10, 60);
    let mut t = Table::new(vec![
        "backend",
        "latency_ms",
        "energy_mj",
        "edp_mj_ms",
        "mean_w",
        "energy_tax",
    ]);
    for (name, engine, dtype) in [
        ("cpu-1thread", Engine::tflite_cpu(1), DType::I8),
        ("cpu-4threads", Engine::tflite_cpu(4), DType::I8),
        ("gpu", Engine::TfLiteGpu { threads: 4 }, DType::F32),
        ("hexagon", Engine::TfLiteHexagon { threads: 4 }, DType::I8),
        ("nnapi", Engine::nnapi(), DType::I8),
    ] {
        let r = traced_run(engine, dtype, SocId::Sd845, iters, k.opts.seed);
        let e = r.energy.as_ref().expect("tracing enabled");
        let lat_ms = r.e2e_summary().mean_ms();
        let mj = e.energy_per_inference_j() * 1e3;
        // EDP in mJ·ms: energy per inference × mean e2e latency.
        let edp = mj * lat_ms;
        t.row(vec![
            name.into(),
            format!("{lat_ms:.2}"),
            format!("{mj:.2}"),
            format!("{edp:.1}"),
            format!("{:.2}", e.mean_power_w()),
            fmt_pct(e.energy_tax_fraction()),
        ]);
    }
    emit(
        "Energy shootout — MobileNet v1 on SD845 (quantized where supported)",
        &t,
    );

    let mut sweep = Table::new(vec![
        "soc",
        "latency_ms",
        "energy_mj",
        "time_tax",
        "energy_tax",
    ]);
    for soc in [SocId::Sd835, SocId::Sd845, SocId::Sd855, SocId::Sd865] {
        let r = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::nnapi())
            .soc(soc)
            .run_mode(RunMode::AndroidApp)
            .iterations(iters)
            .seed(k.opts.seed)
            .tracing(true)
            .run();
        let e = r.energy.as_ref().expect("tracing enabled");
        sweep.row(vec![
            format!("{soc:?}"),
            format!("{:.2}", r.e2e_summary().mean_ms()),
            format!("{:.2}", e.energy_per_inference_j() * 1e3),
            fmt_pct(r.ai_tax_fraction()),
            fmt_pct(e.energy_tax_fraction()),
        ]);
    }
    emit(
        "Chipset sweep — NNAPI app mode, time tax vs energy tax",
        &sweep,
    );
}

/// Every committed serve scenario through the attribution pass (N solo
/// baselines plus the mix): per tenant, what multi-tenancy cost it and
/// who paid. `AITAX_ITERS` caps per-tenant request counts.
fn serving(k: Knobs) {
    for name in aitax_serve::scenarios::NAMES {
        let mut cfg = aitax_serve::scenarios::by_name(name)
            .expect("committed scenario")
            .seed(k.opts.seed);
        for t in &mut cfg.tenants {
            t.requests = t.requests.min(k.opts.iterations);
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
        emit(
            &format!(
                "serving '{}' — mix added {:.1} ms over solo (all attributed)",
                report.scenario, report.added_ms
            ),
            &table,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_core::Stage;

    /// The fault sweep at `iters`/`seed` on `threads` workers.
    fn sweep(iters: usize, seed: u64, threads: usize) -> SweepReport {
        let opts = ExperimentOpts {
            iterations: iters,
            seed,
        };
        Knobs { opts, threads }.sweep("faults")
    }

    /// The sweep's headline: a sustained DSP outage at least doubles
    /// end-to-end latency and attributes the loss.
    #[test]
    fn dsp_outage_at_least_doubles_e2e() {
        let report = sweep(6, 3, 1);
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
        let serial = sweep(4, 5, 1);
        let parallel = sweep(4, 5, 4);
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

    /// The energy exhibit's headline: for quantized MobileNet-class work
    /// the DSP wins energy per inference, and four CPU threads beat one
    /// (race-to-idle under a shared static floor).
    #[test]
    fn dsp_beats_cpu4_beats_cpu1_on_energy() {
        let energy_mj = |engine: Engine, dtype: DType| {
            let r = traced_run(engine, dtype, SocId::Sd845, 12, 3);
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
        let r_dsp = traced_run(
            Engine::TfLiteHexagon { threads: 4 },
            DType::I8,
            SocId::Sd845,
            12,
            3,
        );
        let r_cpu = traced_run(Engine::tflite_cpu(4), DType::I8, SocId::Sd845, 12, 3);
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

    #[test]
    fn exhibit_names_are_unique() {
        let mut names: Vec<_> = EXHIBITS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXHIBITS.len());
    }
}
