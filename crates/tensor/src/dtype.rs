//! Element types used across the mobile ML pipeline.

use std::fmt;

/// Element type of a model's tensors.
///
/// Matches the numerical formats the paper evaluates (§III-A): 32-bit floats
/// and 8-bit quantized integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit IEEE float — the paper's "FP32" configurations.
    F32,
    /// Signed 8-bit quantized — the paper's "INT8" configurations.
    I8,
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
            DType::F32 => 4,
            DType::I8 => 1,
        }
    }

    /// Whether this is an 8-bit quantized type.
    pub const fn is_quantized(self) -> bool {
        matches!(self, DType::I8)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "fp32",
            DType::I8 => "int8",
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
        assert_eq!(DType::I8.size_bytes(), 1);
    }

    #[test]
    fn classification_predicates() {
        assert!(!DType::F32.is_quantized());
        assert!(DType::I8.is_quantized());
    }

    #[test]
    fn display_uses_paper_spelling() {
        assert_eq!(DType::F32.to_string(), "fp32");
        assert_eq!(DType::I8.to_string(), "int8");
    }
}
