//! Element types, and the random-input tensors, of the `aitax` simulator.
//!
//! Mobile inference pipelines shuttle data between *raw sensor bytes*,
//! *float tensors* and *8-bit quantized tensors* (paper §II-B, "Type
//! conversion"). The simulator prices that data by element type and count
//! rather than holding it, so this crate is small:
//!
//! * [`DType`] — the two element types Table I's configurations run in
//!   (FP32 and INT8), which key the model zoo, the runtimes and the
//!   prices of every stage,
//! * [`Tensor`] and [`QuantParams`] — an owned F32 or affine-quantized
//!   I8 buffer, what `aitax-capture`'s random-input generator returns.
//!
//! # Example
//!
//! ```
//! use aitax_tensor::DType;
//!
//! assert_eq!(DType::F32.size_bytes(), 4);
//! assert!(DType::I8.is_quantized());
//! assert_eq!(DType::I8.to_string(), "int8");
//! ```

mod dtype;
mod quant;
mod tensor;

pub use dtype::DType;
pub use quant::QuantParams;
pub use tensor::Tensor;
