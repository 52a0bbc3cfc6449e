//! The Figure 1 taxonomy: decomposing end-to-end latency into the
//! paper's three AI-tax categories.
//!
//! ```text
//!                   End-to-End (E2E) Performance
//!                      /                  \
//!                 AI Tax                 AI Model
//!          /        |        \
//!    Algorithms  Frameworks  Hardware
//!    (capture,   (drivers,   (offload, run-to-run
//!     pre/post)   scheduling)  variability, multitenancy)
//! ```
//!
//! [`TaxonomyReport`] attributes a measured [`E2eReport`] onto that tree:
//! algorithmic stages are measured directly; the framework share of
//! inference is the measured inference time minus the analytic
//! pure-compute floor of its execution plan; hardware overheads are the
//! offload round trips accounted by the machine.

use aitax_des::SimSpan;
use aitax_framework::{cost, ExecTarget};
use aitax_soc::SocSpec;

use crate::pipeline::E2eReport;
use crate::stage::Stage;

/// Attribution of mean per-iteration latency onto the Fig. 1 categories.
#[derive(Debug, Clone, PartialEq)]
pub struct TaxonomyReport {
    /// Mean time in algorithmic stages (capture, pre-/post-processing,
    /// UI) per iteration.
    pub algorithms_ms: f64,
    /// Mean framework overhead per iteration: inference latency above
    /// the pure-compute floor of the plan (dispatch, partition
    /// transitions, fallback inefficiency).
    pub frameworks_ms: f64,
    /// Mean hardware offload overhead per iteration (FastRPC round
    /// trips, cache maintenance, AXI transfers), analytically bounded.
    pub hardware_ms: f64,
    /// Mean pure model-compute floor per iteration.
    pub model_ms: f64,
    /// Mean measured end-to-end latency per iteration.
    pub e2e_ms: f64,
}

impl TaxonomyReport {
    /// Attributes an E2E report onto the taxonomy for the SoC it ran on.
    pub fn from_report(report: &E2eReport, soc: &SocSpec) -> TaxonomyReport {
        let n = report.tax.iterations().max(1) as f64;
        let algorithms_ms = [
            Stage::DataCapture,
            Stage::PreProcessing,
            Stage::PostProcessing,
            Stage::UiOverhead,
        ]
        .iter()
        .map(|&s| report.summary(s).mean_ms())
        .sum();

        // Pure-compute floor of the plan: each partition at its target's
        // delivered rate with no queueing/dispatch/offload overheads.
        let mut floor = SimSpan::ZERO;
        for p in &report.plan.partitions {
            floor += match p.target {
                ExecTarget::Dsp { efficiency } => cost::dsp_exec_span(&soc.dsp, p.macs, efficiency),
                ExecTarget::Gpu { efficiency } => cost::gpu_exec_span(&soc.gpu, p.macs, efficiency),
                ExecTarget::Npu { efficiency } => {
                    #[expect(
                        clippy::expect_used,
                        reason = "the planner emits Npu partitions only for chipsets that declare an NPU"
                    )]
                    let npu = soc.npu.expect("npu partition without npu");
                    SimSpan::from_secs(2.0 * p.macs as f64 / (npu.int8_ops * efficiency))
                }
                ExecTarget::TfLiteCpu { threads } => {
                    // Optimistic conv-class efficiency so the floor is a
                    // true lower bound on delivered kernel time.
                    let work = 2.0 * p.macs as f64 / 0.55;
                    let quantized = report.dtype.is_quantized();
                    let rate: f64 = soc
                        .cores()
                        .iter()
                        .take(threads.max(1))
                        .map(|c| {
                            if quantized {
                                c.peak_int8_ops()
                            } else {
                                c.peak_fp32_flops()
                            }
                        })
                        .sum();
                    SimSpan::from_secs(work / rate.max(1.0))
                }
                ExecTarget::NnapiRefCpu => {
                    let cycles = p.macs as f64 * cost::NNAPI_REFERENCE_CYCLES_PER_MAC;
                    SimSpan::from_secs(cycles / soc.cores()[0].freq_hz)
                }
            };
        }
        let model_ms = floor.as_ms();

        // Hardware: measured RPC round trips (per iteration share).
        let rpc_per_iter = report.stats.rpc_calls as f64 / n;
        let per_call_overhead_ms = 0.45; // calibrated FastRPC round trip
        let hardware_ms = rpc_per_iter * per_call_overhead_ms;

        let inf_ms = report.summary(Stage::Inference).mean_ms();
        let frameworks_ms = (inf_ms - model_ms - hardware_ms).max(0.0);
        TaxonomyReport {
            algorithms_ms,
            frameworks_ms,
            hardware_ms,
            model_ms,
            e2e_ms: report.e2e_summary().mean_ms(),
        }
    }

    /// Total AI tax per iteration (everything except the model floor).
    pub fn tax_ms(&self) -> f64 {
        self.algorithms_ms + self.frameworks_ms + self.hardware_ms
    }

    /// The tax as a fraction of end-to-end time.
    pub fn tax_fraction(&self) -> f64 {
        if self.e2e_ms <= 0.0 {
            0.0
        } else {
            (self.tax_ms() / self.e2e_ms).min(1.0)
        }
    }

    /// Renders the Fig. 1 tree with measured values.
    pub fn render(&self) -> String {
        format!(
            "End-to-End {:.1} ms\n\
             ├── AI Model      {:.1} ms\n\
             └── AI Tax        {:.1} ms ({:.0}%)\n\
             \u{20}   ├── Algorithms {:.1} ms  (capture, pre/post-processing)\n\
             \u{20}   ├── Frameworks {:.1} ms  (dispatch, partitions, fallback)\n\
             \u{20}   └── Hardware   {:.1} ms  (offload round trips)\n",
            self.e2e_ms,
            self.model_ms,
            self.tax_ms(),
            self.tax_fraction() * 100.0,
            self.algorithms_ms,
            self.frameworks_ms,
            self.hardware_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::E2eConfig;
    use crate::runmode::RunMode;
    use aitax_framework::Engine;
    use aitax_models::zoo::ModelId;
    use aitax_soc::{SocCatalog, SocId};
    use aitax_tensor::DType;

    fn report(engine: Engine, dtype: DType, mode: RunMode) -> TaxonomyReport {
        let r = E2eConfig::new(ModelId::MobileNetV1, dtype)
            .engine(engine)
            .run_mode(mode)
            .iterations(20)
            .seed(4)
            .run();
        TaxonomyReport::from_report(&r, SocCatalog::get(SocId::Sd845))
    }

    #[test]
    fn app_taxonomy_is_algorithm_heavy() {
        let t = report(Engine::nnapi(), DType::I8, RunMode::AndroidApp);
        assert!(t.algorithms_ms > t.model_ms, "{t:?}");
        assert!(t.tax_fraction() > 0.4, "{t:?}");
        // Components are non-negative and bounded by E2E.
        assert!(t.frameworks_ms >= 0.0 && t.hardware_ms >= 0.0);
        assert!(t.tax_ms() <= t.e2e_ms * 1.05);
    }

    #[test]
    fn benchmark_taxonomy_is_model_heavy() {
        let t = report(Engine::tflite_cpu(4), DType::F32, RunMode::CliBenchmark);
        assert!(
            t.model_ms > t.algorithms_ms,
            "benchmarks are dominated by the model: {t:?}"
        );
        assert!(t.tax_fraction() < 0.5, "{t:?}");
        // The analytic floor can never exceed the measured end-to-end.
        assert!(t.model_ms <= t.e2e_ms, "{t:?}");
    }

    #[test]
    fn offload_engines_show_hardware_tax() {
        let dsp = report(
            Engine::TfLiteHexagon { threads: 4 },
            DType::I8,
            RunMode::CliBenchmark,
        );
        let cpu = report(Engine::tflite_cpu(4), DType::I8, RunMode::CliBenchmark);
        assert!(dsp.hardware_ms > 0.1, "{dsp:?}");
        assert!(cpu.hardware_ms < 0.01, "{cpu:?}");
    }

    #[test]
    fn render_shows_the_tree() {
        let t = report(Engine::nnapi(), DType::I8, RunMode::AndroidApp);
        let s = t.render();
        assert!(s.contains("AI Tax"));
        assert!(s.contains("Algorithms"));
        assert!(s.contains("Hardware"));
    }
}
