//! Affine quantization parameters, TFLite-style.
//!
//! A real value `r` maps to a quantized value `q` via
//! `q = round(r / scale) + zero_point`, clamped to the i8 range. The
//! paper's INT8 model configurations use exactly this scheme; here the
//! parameters only label the quantized tensors the random-input generator
//! builds.

/// Affine quantization parameters (scale and zero point).
///
/// # Example
///
/// ```
/// use aitax_tensor::QuantParams;
/// assert_eq!(QuantParams::from_range(0.0, 1.0), QuantParams::new(1.0 / 255.0, -128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
}

impl QuantParams {
    /// Creates quantization parameters.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new(scale: f32, zero_point: i32) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "quantization scale must be finite and positive, got {scale}"
        );
        QuantParams { scale, zero_point }
    }

    /// Parameters that map the real range `[lo, hi]` onto the full i8 range,
    /// the way TFLite's post-training quantizer does.
    ///
    /// As in TFLite, the range is first nudged to include zero so that
    /// real 0.0 is exactly representable (required for zero padding).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn from_range(lo: f32, hi: f32) -> Self {
        assert!(lo < hi, "quantization range must satisfy lo < hi");
        let lo = lo.min(0.0);
        let hi = hi.max(0.0);
        let scale = (hi - lo) / 255.0;
        let zero_point = (-128.0 - lo / scale).round().clamp(-128.0, 127.0) as i32;
        QuantParams::new(scale, zero_point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_range_nudges_the_range_to_include_zero() {
        assert_eq!(QuantParams::from_range(0.0, 1.0).zero_point, -128);
        // [-2, -1] widens to [-2, 0]: real zero is the top of the range.
        assert_eq!(QuantParams::from_range(-2.0, -1.0).zero_point, 127);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        QuantParams::new(0.0, 0);
    }
}
