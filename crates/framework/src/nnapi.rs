//! The NNAPI-like delegation runtime: vendor drivers, compilation /
//! partitioning, execution preferences, and the two-level fallback
//! behaviour behind Figures 5 and 6.
//!
//! NNAPI "is in large part an interface that relies on mobile vendors to
//! implement" (§IV-B); a model passes through two gates:
//!
//! 1. **Delegate-level**: TFLite's NNAPI delegate only hands over op
//!    kinds the ANN API can express — the rest run in TFLite's own fast
//!    CPU kernels.
//! 2. **Driver-level**: the vendor driver *accepted* the delegated
//!    partition, but may still be unable to place it on the DSP/GPU
//!    (e.g. per-channel quantized weights on SD835/845-era drivers). It
//!    then silently executes its single-threaded CPU *reference* path —
//!    the catastrophic case the paper measured at 7× slower than one
//!    TFLite CPU thread.

use aitax_des::SimSpan;
use aitax_models::{Graph, OpKind};
use aitax_soc::SocSpec;

use crate::cost;
use crate::session::{ExecTarget, Plan};
use crate::tflite;

/// The application's NNAPI execution preference
/// (`ANEURALNETWORKS_PREFER_*`). Benchmarks default to
/// `FAST_SINGLE_ANSWER` (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ExecutionPreference {
    /// Minimize single-inference latency.
    #[default]
    FastSingleAnswer,
    /// Maximize steady-state throughput.
    SustainedSpeed,
    /// Minimize power draw (prefers small cores / lower clocks).
    LowPower,
}

impl std::fmt::Display for ExecutionPreference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExecutionPreference::FastSingleAnswer => "FAST_SINGLE_ANSWER",
            ExecutionPreference::SustainedSpeed => "SUSTAINED_SPEED",
            ExecutionPreference::LowPower => "LOW_POWER",
        };
        f.write_str(s)
    }
}

/// A vendor's NNAPI driver capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorDriver {
    /// Driver name, e.g. `"qti-hexagon-nn v1.x"`.
    pub name: &'static str,
    /// Whether the DSP path can execute per-channel quantized weights.
    /// `false` on SD835/845-era drivers — the Fig. 5 root cause.
    pub per_channel_quant_on_dsp: bool,
}

impl VendorDriver {
    /// Op kinds the TFLite NNAPI *delegate* will hand to the driver at
    /// all (API-expressible ops).
    pub(crate) fn claims(&self, kind: OpKind) -> bool {
        !matches!(
            kind,
            // Custom / unsupported-by-ANN ops stay in TFLite.
            OpKind::DetectionPostProcess | OpKind::MatMul | OpKind::LayerNorm | OpKind::Embedding
        )
    }

    /// Op kinds the driver can place on the compute DSP (quantized).
    pub(crate) fn dsp_supports(&self, kind: OpKind) -> bool {
        matches!(
            kind,
            OpKind::Conv2d
                | OpKind::DepthwiseConv2d
                | OpKind::FullyConnected
                | OpKind::AvgPool
                | OpKind::MaxPool
                | OpKind::Add
                | OpKind::Concat
                | OpKind::Activation
                | OpKind::Reshape
                | OpKind::Softmax
                | OpKind::Mean
        )
    }
}

/// The vendor driver shipped with a given chipset.
pub fn driver_for(soc: &SocSpec) -> VendorDriver {
    match soc.dsp.name {
        "Hexagon 682" => VendorDriver {
            name: "qti-hexagon-nn v0.9 (SD835)",
            per_channel_quant_on_dsp: false,
        },
        "Hexagon 685" => VendorDriver {
            name: "qti-hexagon-nn v1.1 (SD845)",
            per_channel_quant_on_dsp: false,
        },
        "Hexagon 690" => VendorDriver {
            name: "qti-hexagon-nn v1.2 (SD855)",
            per_channel_quant_on_dsp: false,
        },
        _ => VendorDriver {
            name: "qti-hexagon-nn v1.3 (SD865)",
            per_channel_quant_on_dsp: true,
        },
    }
}

/// Compiles a graph through NNAPI on the given SoC.
pub(crate) fn plan_nnapi(
    graph: &Graph,
    soc: &SocSpec,
    preference: ExecutionPreference,
    threads: usize,
) -> Plan {
    let driver = driver_for(soc);
    let quantized = graph.dtype().is_quantized();

    // Driver-level placement decision for claimed (delegated) ops.
    let driver_rejects_dsp =
        quantized && graph.per_channel_quant() && !driver.per_channel_quant_on_dsp;
    let accel: ExecTarget = if quantized {
        if driver_rejects_dsp {
            ExecTarget::NnapiRefCpu
        } else if soc.npu.is_some() {
            // Chipsets with a dedicated tensor accelerator route supported
            // quantized partitions there (the SD865's HTA).
            ExecTarget::Npu {
                efficiency: cost::NNAPI_NPU_EFFICIENCY,
            }
        } else {
            ExecTarget::Dsp {
                efficiency: cost::NNAPI_DSP_EFFICIENCY,
            }
        }
    } else {
        // Float models go to the driver's GPU path; LOW_POWER trades
        // further efficiency for power.
        let base = cost::NNAPI_GPU_EFFICIENCY;
        let efficiency = match preference {
            ExecutionPreference::LowPower => base * 0.6,
            _ => base,
        };
        ExecTarget::Gpu { efficiency }
    };

    // Delegate-level split: claimed runs → driver; the rest stays in
    // TFLite CPU kernels. For quantized graphs, ops claimed by the API
    // but unsupported by the DSP still reach the driver — where they run
    // on the reference path (that is the trap: claiming ≠ accelerating).
    let partitions =
        tflite::partition_by(graph, accel, ExecTarget::TfLiteCpu { threads }, |kind| {
            driver.claims(kind) && (!quantized || driver_rejects_dsp || driver.dsp_supports(kind))
        });

    // NNAPI compilation: delegate handshake + driver model prepare
    // (+ DSP weight upload when the DSP will be used).
    let mut compile = tflite::base_compile_span(graph) + SimSpan::from_ms(9.0);
    if matches!(accel, ExecTarget::Dsp { .. } | ExecTarget::Npu { .. }) {
        compile += SimSpan::from_secs(graph.weight_bytes() as f64 / soc.memory.axi_bytes_per_sec);
    }
    Plan {
        partitions,
        compile_span: compile,
        dsp_probe: driver_rejects_dsp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_models::zoo::{ModelId, Zoo};
    use aitax_soc::{SocCatalog, SocId};
    use aitax_tensor::DType;

    fn soc845() -> &'static SocSpec {
        SocCatalog::get(SocId::Sd845)
    }

    fn graph(id: ModelId, dtype: DType) -> Graph {
        Zoo::entry(id).build_graph_with(dtype)
    }

    #[test]
    fn efficientnet_int8_falls_back_to_reference_cpu_on_sd845() {
        // The Fig. 5 pathology: accepted by the driver, rejected by the
        // DSP, executed on the single-threaded reference path.
        let g = graph(ModelId::EfficientNetLite0, DType::I8);
        let plan = plan_nnapi(&g, soc845(), ExecutionPreference::FastSingleAnswer, 4);
        assert!(plan.dsp_probe, "first invoke probes the DSP");
        let ref_macs: u64 = plan
            .partitions
            .iter()
            .filter(|p| p.target == ExecTarget::NnapiRefCpu)
            .map(|p| p.macs)
            .sum();
        assert!(
            ref_macs as f64 / g.total_macs() as f64 > 0.95,
            "nearly all MACs should hit the reference path"
        );
    }

    #[test]
    fn efficientnet_int8_runs_on_dsp_on_sd865() {
        let g = graph(ModelId::EfficientNetLite0, DType::I8);
        let plan = plan_nnapi(
            &g,
            SocCatalog::get(SocId::Sd865),
            ExecutionPreference::FastSingleAnswer,
            4,
        );
        assert!(!plan.dsp_probe);
        assert!(
            plan.offloaded_mac_fraction() > 0.9,
            "newer driver places per-channel weights on the DSP: {}",
            plan.offloaded_mac_fraction()
        );
    }

    #[test]
    fn mobilenet_int8_offloads_to_dsp_on_sd845() {
        let g = graph(ModelId::MobileNetV1, DType::I8);
        let plan = plan_nnapi(&g, soc845(), ExecutionPreference::FastSingleAnswer, 4);
        assert!(plan.offloaded_mac_fraction() > 0.9);
        assert!(!plan.dsp_probe);
    }

    #[test]
    fn inception_v3_fp32_is_only_partially_offloaded() {
        // §IV-A: Inception models "are only partially able to be
        // offloaded by NNAPI" — the factorized 7×7 ops stay on the CPU.
        let g = graph(ModelId::InceptionV3, DType::F32);
        let plan = plan_nnapi(&g, soc845(), ExecutionPreference::FastSingleAnswer, 4);
        let frac = plan.offloaded_mac_fraction();
        assert!(
            (0.3..0.95).contains(&frac),
            "expected partial offload, got {frac}"
        );
        assert!(plan.partitions.len() > 3, "partition churn expected");
    }

    #[test]
    fn ssd_detection_op_stays_in_tflite() {
        let g = graph(ModelId::SsdMobileNetV2, DType::I8);
        let plan = plan_nnapi(&g, soc845(), ExecutionPreference::FastSingleAnswer, 4);
        let last = plan.partitions.last().unwrap();
        assert!(matches!(last.target, ExecTarget::TfLiteCpu { .. }));
    }

    #[test]
    fn low_power_preference_degrades_gpu_efficiency() {
        let g = graph(ModelId::MobileNetV1, DType::F32);
        let fast = plan_nnapi(&g, soc845(), ExecutionPreference::FastSingleAnswer, 4);
        let low = plan_nnapi(&g, soc845(), ExecutionPreference::LowPower, 4);
        let eff = |p: &Plan| match p.partitions[0].target {
            ExecTarget::Gpu { efficiency } => efficiency,
            _ => panic!("expected GPU partition"),
        };
        assert!(eff(&low) < eff(&fast));
    }

    #[test]
    fn driver_catalog_matches_chipset_generations() {
        for id in SocId::ALL {
            let soc = SocCatalog::get(id);
            let d = driver_for(soc);
            assert_eq!(d.per_channel_quant_on_dsp, id == SocId::Sd865, "{id}");
        }
    }

    #[test]
    fn sd865_routes_quantized_models_to_the_npu() {
        let g = graph(ModelId::MobileNetV1, DType::I8);
        let plan = plan_nnapi(
            &g,
            SocCatalog::get(SocId::Sd865),
            ExecutionPreference::FastSingleAnswer,
            4,
        );
        assert!(plan
            .partitions
            .iter()
            .any(|p| matches!(p.target, ExecTarget::Npu { .. })));
        assert!(!plan
            .partitions
            .iter()
            .any(|p| matches!(p.target, ExecTarget::Dsp { .. })));
        // Chipsets without an NPU keep using the DSP.
        let plan845 = plan_nnapi(&g, soc845(), ExecutionPreference::FastSingleAnswer, 4);
        assert!(plan845
            .partitions
            .iter()
            .any(|p| matches!(p.target, ExecTarget::Dsp { .. })));
    }

    #[test]
    fn dsp_compile_includes_weight_upload() {
        let g = graph(ModelId::MobileNetV1, DType::I8);
        let with_dsp = plan_nnapi(&g, soc845(), ExecutionPreference::FastSingleAnswer, 4);
        let gf = graph(ModelId::MobileNetV1, DType::F32);
        let without = plan_nnapi(&gf, soc845(), ExecutionPreference::FastSingleAnswer, 4);
        // fp32 weights are 4× larger but skip the DSP upload; the int8
        // plan still pays a driver prepare that scales with DSP use.
        assert!(with_dsp.compile_span > SimSpan::from_ms(9.0));
        assert!(without.compile_span > SimSpan::from_ms(9.0));
    }
}
