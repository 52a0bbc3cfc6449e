//! Accelerator block specifications: GPU, compute DSP, NPU.

use aitax_des::SimSpan;

/// An Adreno-class mobile GPU.
///
/// GPUs execute fp16/fp32 graphs through a delegate; each delegated
/// invocation pays a kernel-launch/synchronization overhead on top of the
/// arithmetic time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"Adreno 630"`.
    pub name: &'static str,
    /// Peak fp16 throughput in FLOP/s.
    pub fp16_flops: f64,
    /// Peak fp32 throughput in FLOP/s (usually half of fp16).
    pub fp32_flops: f64,
    /// Per-invocation launch + synchronization overhead.
    pub launch_overhead: SimSpan,
}

impl GpuSpec {
    /// Arithmetic time for `flops` floating-point operations at the given
    /// delivered efficiency (0–1], excluding launch overhead.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    pub fn exec_span(&self, flops: f64, fp16: bool, efficiency: f64) -> SimSpan {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        let peak = if fp16 {
            self.fp16_flops
        } else {
            self.fp32_flops
        };
        SimSpan::from_secs(flops / (peak * efficiency))
    }
}

/// A Hexagon-class compute DSP with HVX vector extensions.
///
/// The paper describes it as "reminiscent of a VLIW vector processing
/// engine" commonly marketed as an NPU. It is *loosely coupled*: every
/// invocation is a FastRPC round trip through the kernel driver (Fig. 7),
/// whose costs live in `MemorySpec` and
/// `aitax-kernel::fastrpc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DspSpec {
    /// Marketing name, e.g. `"Hexagon 685"`.
    pub name: &'static str,
    /// Peak int8 throughput in op/s (HVX lanes × freq).
    pub int8_ops: f64,
    /// Peak fp32-equivalent throughput in FLOP/s. Small: HVX has no native
    /// float path on these generations, so fp32 graphs emulate or bounce
    /// back to the CPU.
    pub fp32_flops: f64,
    /// One-time cost of mapping the DSP process into an application
    /// (the "initial setup" of Fig. 8, paid at first use).
    pub session_setup: SimSpan,
    /// Fixed per-invocation processing overhead on the DSP side
    /// (argument unmarshalling, thread wake).
    pub invoke_overhead: SimSpan,
}

impl DspSpec {
    /// Arithmetic time for `ops` int8 operations at the given delivered
    /// efficiency (0–1], excluding RPC and invoke overheads.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    pub fn exec_span_int8(&self, ops: f64, efficiency: f64) -> SimSpan {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        SimSpan::from_secs(ops / (self.int8_ops * efficiency))
    }
}

/// A dedicated tensor accelerator (SD865-class chipsets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Peak int8 throughput in op/s.
    pub int8_ops: f64,
    /// Per-invocation overhead.
    pub invoke_overhead: SimSpan,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuSpec {
        GpuSpec {
            name: "test-gpu",
            fp16_flops: 1e12,
            fp32_flops: 5e11,
            launch_overhead: SimSpan::from_us(200.0),
        }
    }

    #[test]
    fn gpu_fp16_twice_as_fast() {
        let g = gpu();
        let h = g.exec_span(1e9, true, 0.5);
        let f = g.exec_span(1e9, false, 0.5);
        assert_eq!(f.as_ns(), h.as_ns() * 2);
    }

    #[test]
    fn dsp_int8_scaling() {
        let d = DspSpec {
            name: "test-dsp",
            int8_ops: 2e11,
            fp32_flops: 1e9,
            session_setup: SimSpan::from_ms(20.0),
            invoke_overhead: SimSpan::from_us(100.0),
        };
        let full = d.exec_span_int8(2e11, 1.0);
        assert!((full.as_secs() - 1.0).abs() < 1e-9);
        let half_eff = d.exec_span_int8(2e11, 0.5);
        assert!((half_eff.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn gpu_rejects_zero_efficiency() {
        gpu().exec_span(1.0, true, 0.0);
    }
}
