//! Affine quantization, TFLite-style.
//!
//! A real value `r` maps to a quantized value `q` via
//! `q = round(r / scale) + zero_point`, clamped to the i8 range; the reverse
//! is `r = (q - zero_point) * scale`. The paper's INT8 model configurations
//! use exactly this scheme, and its §II-B "Type conversion" stage is the
//! pre-processing step that applies it to camera bytes.

/// Affine quantization parameters (scale and zero point).
///
/// # Example
///
/// ```
/// use aitax_tensor::QuantParams;
/// let q = QuantParams::new(0.1, 0);
/// assert_eq!(q.quantize(1.25), 13);
/// assert!((q.dequantize(13) - 1.3).abs() < 1e-6);
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

    /// The scale (real units per quantized step).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The zero point (quantized value representing real 0.0).
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Quantizes one real value, saturating to the i8 range.
    pub fn quantize(&self, real: f32) -> i8 {
        let q = (real / self.scale).round() as i64 + self.zero_point as i64;
        q.clamp(i8::MIN as i64, i8::MAX as i64) as i8
    }

    /// Dequantizes one value back to real units.
    pub fn dequantize(&self, q: i8) -> f32 {
        (q as i32 - self.zero_point) as f32 * self.scale
    }

    /// The largest absolute round-trip error this parameterization can
    /// introduce for in-range values (half a quantization step).
    pub fn max_round_trip_error(&self) -> f32 {
        self.scale / 2.0
    }
}

impl Default for QuantParams {
    /// Identity-ish parameters mapping `[-128, 127]` one-to-one.
    fn default() -> Self {
        QuantParams::new(1.0, 0)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_half_step() {
        let q = QuantParams::new(0.02, -3);
        for r in [-1.0f32, -0.37, 0.0, 0.5, 1.99] {
            let rt = q.dequantize(q.quantize(r));
            assert!(
                (rt - r).abs() <= q.max_round_trip_error() + 1e-6,
                "r={r} rt={rt}"
            );
        }
    }

    #[test]
    fn saturates_at_extremes() {
        let q = QuantParams::new(0.01, 0);
        assert_eq!(q.quantize(100.0), i8::MAX);
        assert_eq!(q.quantize(-100.0), i8::MIN);
    }

    #[test]
    fn zero_point_maps_zero() {
        let q = QuantParams::new(0.5, 7);
        assert_eq!(q.quantize(0.0), 7);
        assert_eq!(q.dequantize(7), 0.0);
    }

    #[test]
    fn from_range_covers_the_range() {
        let q = QuantParams::from_range(0.0, 1.0);
        // 0.0 should land near -128, 1.0 near 127.
        assert!(q.quantize(0.0) <= -126);
        assert!(q.quantize(1.0) >= 125);
        // Mid-range should round-trip within one step.
        let rt = q.dequantize(q.quantize(0.5));
        assert!((rt - 0.5).abs() <= q.scale());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        QuantParams::new(0.0, 0);
    }

    #[test]
    fn default_is_identity_like() {
        let q = QuantParams::default();
        assert_eq!(q.quantize(42.0), 42);
        assert_eq!(q.dequantize(42), 42.0);
    }
}
