//! Element types used across the mobile ML pipeline.

use std::fmt;

/// Element type of a [`Tensor`](crate::Tensor).
///
/// Matches the numerical formats the paper evaluates (§III-A): 32-bit floats
/// and 8-bit quantized integers, plus the auxiliary types that show up in
/// real graphs (FP16 on GPUs, UINT8 camera bytes, INT32 accumulators /
/// detection indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit IEEE float — the paper's "FP32" configurations.
    F32,
    /// 16-bit IEEE float — used by GPU delegates.
    F16,
    /// Unsigned 8-bit quantized — TFLite's classic quantized format and raw
    /// camera bytes.
    U8,
    /// Signed 8-bit quantized — the paper's "INT8" configurations.
    I8,
    /// 32-bit signed integer — bias / index tensors.
    I32,
}

impl DType {
    /// Size of one element in bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use aitax_tensor::DType;
    /// assert_eq!(DType::F32.size_bytes(), 4);
    /// assert_eq!(DType::I8.size_bytes(), 1);
    /// ```
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F16 => 2,
            DType::U8 | DType::I8 => 1,
        }
    }

    /// Whether this is one of the floating-point types.
    pub const fn is_float(self) -> bool {
        matches!(self, DType::F32 | DType::F16)
    }

    /// Whether this is an 8-bit quantized type.
    pub const fn is_quantized(self) -> bool {
        matches!(self, DType::U8 | DType::I8)
    }

    /// All element types, in declaration order.
    pub const ALL: [DType; 5] = [DType::F32, DType::F16, DType::U8, DType::I8, DType::I32];
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "fp32",
            DType::F16 => "fp16",
            DType::U8 => "uint8",
            DType::I8 => "int8",
            DType::I32 => "int32",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_layout() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::U8.size_bytes(), 1);
        assert_eq!(DType::I8.size_bytes(), 1);
        assert_eq!(DType::I32.size_bytes(), 4);
    }

    #[test]
    fn classification_predicates() {
        assert!(DType::F32.is_float());
        assert!(DType::F16.is_float());
        assert!(!DType::I8.is_float());
        assert!(DType::I8.is_quantized());
        assert!(DType::U8.is_quantized());
        assert!(!DType::I32.is_quantized());
    }

    #[test]
    fn display_uses_paper_spelling() {
        assert_eq!(DType::F32.to_string(), "fp32");
        assert_eq!(DType::I8.to_string(), "int8");
    }

    #[test]
    fn all_lists_every_variant_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in DType::ALL {
            assert!(seen.insert(d));
        }
        assert_eq!(seen.len(), 5);
    }
}
