//! The owned, dynamically-typed tensor.

use crate::quant::QuantParams;

#[derive(Debug, PartialEq)]
enum Storage {
    F32(Vec<f32>),
    I8(Vec<i8>, QuantParams),
}

/// An owned, dynamically-typed tensor.
///
/// # Example
///
/// ```
/// use aitax_tensor::Tensor;
/// let t = Tensor::from_f32(&[1, 2, 2, 3], vec![0.0; 12]);
/// assert_eq!(t.elements(), 12);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    dims: Vec<usize>,
    storage: Storage,
}

impl Tensor {
    fn new(dims: &[usize], len: usize, storage: Storage) -> Self {
        assert_eq!(
            dims.iter().product::<usize>(),
            len,
            "data length must match shape elements"
        );
        Tensor {
            dims: dims.to_vec(),
            storage,
        }
    }

    /// Builds an F32 tensor from data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` disagrees with the shape.
    pub fn from_f32(dims: &[usize], data: Vec<f32>) -> Self {
        Tensor::new(dims, data.len(), Storage::F32(data))
    }

    /// Builds an I8 tensor with quantization parameters.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` disagrees with the shape.
    pub fn from_i8(dims: &[usize], data: Vec<i8>, quant: QuantParams) -> Self {
        Tensor::new(dims, data.len(), Storage::I8(data, quant))
    }

    /// Number of elements.
    pub fn elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Borrows the data as `f32`, or `None` for an I8 tensor.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match &self.storage {
            Storage::F32(v) => Some(v),
            Storage::I8(..) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i8_tensor_has_no_f32_view() {
        let t = Tensor::from_i8(&[2, 3], vec![0; 6], QuantParams::from_range(-1.0, 1.0));
        assert_eq!(t.elements(), 6);
        assert!(t.as_f32().is_none());
    }

    #[test]
    #[should_panic(expected = "match shape")]
    fn mismatched_data_length_panics() {
        Tensor::from_f32(&[3], vec![1.0, 2.0]);
    }
}
