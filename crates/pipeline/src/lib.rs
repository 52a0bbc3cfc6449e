//! Prices of the pre- and post-processing stages of mobile ML pipelines.
//!
//! Section II of the paper walks through every algorithmic stage that wraps
//! model execution: bitmap formatting (YUV NV21 → ARGB8888), scale/crop,
//! normalization, rotation, type conversion, and the task-specific
//! post-processing (topK, dequantization, mask flattening, keypoint
//! decoding, box decoding, tokenization). The simulator does not run
//! these algorithms on pixels; it charges their work to the simulated
//! CPU. The `cost` model maps each stage and its element count onto
//! CPU cycles, on the native path or on the managed Java/JNI path real
//! Android apps take — the paper's "AI tax: Algorithms" category.
//!
//! # Example: pricing the classification pre-processing chain
//!
//! ```
//! use aitax_pipeline::{CostModel, PixelOp, RuntimeKind};
//!
//! // A 640×480 camera frame into a 224×224 model on the app path.
//! let cycles = CostModel::new(RuntimeKind::Managed).chain_cycles(&[
//!     (PixelOp::Nv21ToArgb, 640 * 480),
//!     (PixelOp::CenterCrop, 224 * 224),
//!     (PixelOp::ResizeBilinear, 224 * 224),
//!     (PixelOp::Normalize, 224 * 224 * 3),
//! ]);
//! assert!(cycles > 0.0);
//! ```

mod cost;

pub use cost::{CostModel, PixelOp, RuntimeKind};
