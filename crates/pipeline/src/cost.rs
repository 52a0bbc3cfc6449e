//! Calibrated cost model for pre-/post-processing work.
//!
//! The algorithms in this crate run for real, but experiment latencies are
//! measured on the *simulated* timeline, so each invocation also reports
//! how many CPU cycles it represents on the modelled chipset. Costs are
//! per-element cycle counts for optimized native (NEON) code, with a
//! multiplier for the managed Java/Bitmap/JNI path production Android apps
//! actually take — the reason the same model "encapsulated inside a real
//! application spends a significant amount of time ... pre-processing"
//! (paper Fig. 4) while the native command-line benchmark does not.

/// Which implementation path executes an algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Optimized native code (the TFLite benchmark utility path).
    Native,
    /// Java/Bitmap/JNI code with boxing, bounds checks and copies (the
    /// Android application path).
    Managed,
}

impl RuntimeKind {
    /// Cycle multiplier relative to native code.
    ///
    /// Calibrated so an SD845-class app spends ≈15 ms pre-processing a
    /// 640×480 camera frame for a 224×224 model — the Fig. 4 regime where
    /// capture + pre-processing ≈ 2× a quantized model's inference time.
    pub fn multiplier(self) -> f64 {
        match self {
            RuntimeKind::Native => 1.0,
            RuntimeKind::Managed => 8.0,
        }
    }
}

/// A costed pipeline operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelOp {
    /// YUV NV21 → ARGB8888 (per source pixel).
    Nv21ToArgb,
    /// Bilinear resize (per *output* pixel).
    ResizeBilinear,
    /// Center crop copy (per output pixel).
    CenterCrop,
    /// Normalization to float (per tensor element).
    Normalize,
    /// 90°-step rotation (per pixel; cache-hostile access pattern).
    Rotate,
    /// Float→int8 quantization or int8→float dequantization (per element).
    TypeConvert,
    /// Top-K selection over class scores (per score).
    TopK,
    /// Segmentation argmax mask flattening (per logit element).
    FlattenMask,
    /// PoseNet heatmap/offset decoding (per heatmap element).
    DecodeKeypoints,
    /// SSD box decode + NMS (per anchor).
    DecodeBoxesNms,
    /// WordPiece tokenization (per input character).
    Tokenize,
    /// Bulk memory copy (per byte).
    MemCopy,
    /// Camera frame extraction: plane-walking an `Image` into app-owned
    /// byte arrays (per frame byte). Disproportionately expensive on the
    /// managed path — per-byte `ByteBuffer` accessors dominate, which is
    /// why "the supporting code around data capture contributed to a
    /// large share of overall application latency" (§II-A).
    FrameExtract,
}

impl PixelOp {
    /// Native cycles per element, calibrated for NEON-class cores.
    pub fn native_cycles_per_element(self) -> f64 {
        match self {
            PixelOp::Nv21ToArgb => 10.0,
            PixelOp::ResizeBilinear => 25.0,
            PixelOp::CenterCrop => 2.0,
            PixelOp::Normalize => 6.0,
            PixelOp::Rotate => 8.0,
            PixelOp::TypeConvert => 5.0,
            PixelOp::TopK => 35.0,
            PixelOp::FlattenMask => 2.0,
            PixelOp::DecodeKeypoints => 3.0,
            PixelOp::DecodeBoxesNms => 90.0,
            PixelOp::Tokenize => 220.0,
            PixelOp::MemCopy => 0.4,
            PixelOp::FrameExtract => 8.0,
        }
    }
}

/// Maps pipeline operations to CPU cycles for a given runtime path.
///
/// # Example
///
/// ```
/// use aitax_pipeline::{CostModel, PixelOp, RuntimeKind};
/// let native = CostModel::new(RuntimeKind::Native);
/// let managed = CostModel::new(RuntimeKind::Managed);
/// let op = PixelOp::ResizeBilinear;
/// assert!(managed.cycles(op, 224 * 224) > native.cycles(op, 224 * 224));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    runtime: RuntimeKind,
}

impl CostModel {
    /// Creates a cost model for a runtime path.
    pub fn new(runtime: RuntimeKind) -> Self {
        CostModel { runtime }
    }

    /// The runtime path this model represents.
    pub fn runtime(&self) -> RuntimeKind {
        self.runtime
    }

    /// CPU cycles for applying `op` to `elements` elements.
    pub fn cycles(&self, op: PixelOp, elements: u64) -> f64 {
        op.native_cycles_per_element() * elements as f64 * self.runtime.multiplier()
    }

    /// Convenience: cycles for a whole chain of `(op, elements)` steps.
    pub fn chain_cycles(&self, steps: &[(PixelOp, u64)]) -> f64 {
        steps.iter().map(|&(op, n)| self.cycles(op, n)).sum()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    #[test]
    fn managed_is_uniformly_slower() {
        let native = CostModel::new(RuntimeKind::Native);
        let managed = CostModel::new(RuntimeKind::Managed);
        for op in [
            PixelOp::Nv21ToArgb,
            PixelOp::ResizeBilinear,
            PixelOp::Normalize,
            PixelOp::TopK,
        ] {
            assert_eq!(
                managed.cycles(op, 1000),
                native.cycles(op, 1000) * RuntimeKind::Managed.multiplier()
            );
        }
    }

    #[test]
    fn cycles_scale_linearly_with_elements() {
        let m = CostModel::new(RuntimeKind::Native);
        let one = m.cycles(PixelOp::Normalize, 1);
        assert_eq!(m.cycles(PixelOp::Normalize, 500), one * 500.0);
        assert_eq!(m.cycles(PixelOp::Normalize, 0), 0.0);
    }

    #[test]
    fn chain_sums_steps() {
        let m = CostModel::new(RuntimeKind::Native);
        let chain = m.chain_cycles(&[(PixelOp::Nv21ToArgb, 100), (PixelOp::ResizeBilinear, 50)]);
        assert_eq!(
            chain,
            m.cycles(PixelOp::Nv21ToArgb, 100) + m.cycles(PixelOp::ResizeBilinear, 50)
        );
    }

    #[test]
    fn app_preprocessing_calibration_anchor() {
        // 640×480 NV21 → ARGB → resize 256² → crop+normalize 224²,
        // managed path on a 2.8 GHz core, should land near 15 ms
        // (Fig. 4 calibration; see DESIGN.md §5).
        let m = CostModel::new(RuntimeKind::Managed);
        let cycles = m.chain_cycles(&[
            (PixelOp::Nv21ToArgb, 640 * 480),
            (PixelOp::ResizeBilinear, 256 * 256),
            (PixelOp::CenterCrop, 224 * 224),
            (PixelOp::Normalize, 224 * 224 * 3),
        ]);
        let ms = cycles / 2.8e9 * 1e3;
        assert!(
            (8.0..25.0).contains(&ms),
            "managed pre-processing ≈ {ms:.1} ms, expected 8-25 ms"
        );
        // The native benchmark path is an order of magnitude cheaper.
        let native_ms = ms / RuntimeKind::Managed.multiplier();
        assert!(native_ms < 3.0);
    }
}
