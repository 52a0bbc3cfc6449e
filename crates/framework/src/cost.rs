//! Delivered-efficiency cost tables.
//!
//! Hardware specs (`aitax-soc`) carry *peak* throughputs; what a runtime
//! actually delivers depends on its kernels. This module centralizes
//! those calibration constants — the numbers that make an SD845 land at
//! the latencies the paper reports (Inception-v3 fp32 ≈ 250 ms on 4 CPU
//! threads, MobileNet-v1 int8 ≈ 10 ms on the DSP, NNAPI reference
//! fallback ≈ 7× slower than one TFLite CPU thread).

use aitax_des::SimSpan;
use aitax_models::{Op, OpKind};
use aitax_soc::{DspSpec, GpuSpec};
use aitax_tensor::DType;

/// Fraction of CPU peak throughput TFLite's optimized NEON kernels
/// deliver for an operator kind.
pub fn tflite_cpu_efficiency(kind: OpKind, quantized: bool) -> f64 {
    let fp = match kind {
        // GEMM-shaped work vectorizes well.
        OpKind::Conv2d | OpKind::FullyConnected | OpKind::MatMul => 0.55,
        // Depthwise convolutions are memory bound.
        OpKind::DepthwiseConv2d => 0.18,
        // Pools and elementwise work stream memory.
        OpKind::AvgPool | OpKind::MaxPool => 0.12,
        OpKind::Add | OpKind::Activation | OpKind::Concat | OpKind::Reshape => 0.08,
        OpKind::Softmax | OpKind::LayerNorm | OpKind::Mean => 0.10,
        OpKind::ResizeBilinear => 0.15,
        OpKind::Embedding => 0.25,
        OpKind::DetectionPostProcess => 0.05,
    };
    if quantized {
        // Quantized kernels lose a little arithmetic efficiency to
        // requantization but run on 4× wider datapaths (captured by the
        // int8 peak rate, not here).
        fp * 0.9
    } else {
        fp
    }
}

/// Cycles per MAC of the NNAPI *reference* CPU implementation — the
/// scalar, bounds-checked fallback path a vendor driver executes when it
/// accepted a model but cannot place it on an accelerator. Several times
/// worse per MAC than TFLite's NEON kernels; combined with single-threading and
/// core-wandering this produces the paper's Fig. 5 slowdown.
pub const NNAPI_REFERENCE_CYCLES_PER_MAC: f64 = 1.75;

/// Per-op interpreter dispatch overhead (tensor setup, kernel selection),
/// in CPU cycles.
pub const OP_DISPATCH_CYCLES: f64 = 9_000.0;

/// Per-thread fork/join overhead for a multi-threaded op, in CPU cycles.
pub const THREAD_FORK_JOIN_CYCLES: f64 = 6_000.0;

/// Fraction of DSP peak the open-source TFLite Hexagon delegate delivers.
pub const HEXAGON_DELEGATE_EFFICIENCY: f64 = 0.32;

/// Fraction of DSP peak the NNAPI vendor driver's DSP path delivers.
pub const NNAPI_DSP_EFFICIENCY: f64 = 0.32;

/// Fraction of DSP peak the vendor-tuned SNPE runtime delivers
/// ("the models' performance on the DSP outperforms the CPU (as one
/// would expect)", §IV-B).
pub const SNPE_DSP_EFFICIENCY: f64 = 0.45;

/// Fraction of NPU peak the NNAPI driver's tensor-accelerator path
/// delivers (SD865-class chipsets).
pub const NNAPI_NPU_EFFICIENCY: f64 = 0.40;

/// Fraction of GPU fp16 peak the TFLite GPU delegate delivers.
pub const GPU_DELEGATE_EFFICIENCY: f64 = 0.25;

/// Fraction of GPU fp16 peak the NNAPI driver's GPU path delivers (the
/// generic driver path is markedly less tuned than the GL-backend
/// delegate, keeping NNAPI-fp32 roughly at CPU speed as observed).
pub const NNAPI_GPU_EFFICIENCY: f64 = 0.065;

/// Effective FLOPs (work units) of one op on TFLite CPU kernels — the
/// operator's arithmetic inflated by its efficiency so that dividing by
/// the core's *peak* rate yields delivered time.
pub fn tflite_cpu_work_units(op: &Op, dtype: DType) -> f64 {
    let eff = tflite_cpu_efficiency(op.kind(), dtype.is_quantized());
    2.0 * op.macs() as f64 / eff
}

/// Execution span of `macs` on a DSP at a given delivered efficiency.
pub fn dsp_exec_span(dsp: &DspSpec, macs: u64, efficiency: f64) -> SimSpan {
    dsp.exec_span_int8(2.0 * macs as f64, efficiency)
}

/// Execution span of `macs` on a GPU at a given delivered efficiency
/// (fp16 math, as mobile GPU delegates run fp32 models in relaxed
/// precision).
pub fn gpu_exec_span(gpu: &GpuSpec, macs: u64, efficiency: f64) -> SimSpan {
    gpu.exec_span(2.0 * macs as f64, true, efficiency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_soc::{SocCatalog, SocId};

    #[test]
    fn conv_more_efficient_than_depthwise() {
        assert!(
            tflite_cpu_efficiency(OpKind::Conv2d, false)
                > tflite_cpu_efficiency(OpKind::DepthwiseConv2d, false) * 2.0
        );
    }

    #[test]
    fn quantized_efficiency_slightly_lower() {
        for kind in [OpKind::Conv2d, OpKind::Add, OpKind::Softmax] {
            assert!(tflite_cpu_efficiency(kind, true) < tflite_cpu_efficiency(kind, false));
        }
    }

    #[test]
    #[expect(
        clippy::assertions_on_constants,
        reason = "pins the ordering of the efficiency constants"
    )]
    fn snpe_beats_nnapi_beats_nothing() {
        assert!(SNPE_DSP_EFFICIENCY > NNAPI_DSP_EFFICIENCY);
        assert!(SNPE_DSP_EFFICIENCY > HEXAGON_DELEGATE_EFFICIENCY);
    }

    #[test]
    fn mobilenet_int8_dsp_calibration() {
        // MobileNet v1 ≈ 569 MMACs on the Hexagon 685 through SNPE should
        // land in the single-digit-millisecond range the paper shows.
        let soc = SocCatalog::get(SocId::Sd845);
        let span = dsp_exec_span(&soc.dsp, 569_000_000, SNPE_DSP_EFFICIENCY);
        assert!(
            (4.0..14.0).contains(&span.as_ms()),
            "MobileNet int8 DSP ≈ {} (want single-digit ms)",
            span
        );
    }

    #[test]
    fn reference_kernels_much_slower_than_tflite() {
        // TFLite conv: 2 MACs/unit at 0.55 eff over 8 FLOPs/cycle
        // ≈ 0.45 cycles/MAC — the reference path must be ≳3× that.
        let tflite_cycles_per_mac = 2.0 / (tflite_cpu_efficiency(OpKind::Conv2d, true) * 8.0);
        assert!(NNAPI_REFERENCE_CYCLES_PER_MAC > 3.0 * tflite_cycles_per_mac);
    }

    #[test]
    fn work_units_scale_with_macs() {
        let small = Op::Conv2d {
            in_h: 8,
            in_w: 8,
            in_c: 8,
            out_c: 8,
            k: 1,
            stride: 1,
        };
        let big = Op::Conv2d {
            in_h: 8,
            in_w: 8,
            in_c: 8,
            out_c: 80,
            k: 1,
            stride: 1,
        };
        let a = tflite_cpu_work_units(&small, DType::F32);
        let b = tflite_cpu_work_units(&big, DType::F32);
        assert!((b / a - 10.0).abs() < 1e-9);
    }
}
