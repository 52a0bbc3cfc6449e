//! Operator-level model IR and the Table I mobile model zoo.
//!
//! The paper benchmarks eleven TFLite-hosted models (Table I) spanning
//! classification, face recognition, segmentation, detection, pose
//! estimation and language processing. This crate provides:
//!
//! * [`Op`] — an operator vocabulary with analytic MAC/parameter/activation
//!   accounting (what inference cost models and NNAPI partitioning consume),
//! * [`Graph`] — a validated, topologically-ordered operator list,
//! * `archs` — programmatic builders reconstructing each model's layer
//!   structure with MAC/parameter totals close to the published networks,
//! * [`zoo`] — the Table I registry: task, input resolution, pre-/post-
//!   processing chain and the NNAPI/CPU dtype support matrix.
//!
//! Weights are never materialized: latency shape depends on operator
//! structure, arithmetic volume and datatype, not on trained values.
//!
//! # Example
//!
//! ```
//! use aitax_models::zoo::{ModelId, Zoo};
//!
//! let entry = Zoo::entry(ModelId::MobileNetV1);
//! let graph = entry.build_graph();
//! // MobileNet v1 is a ~569 MMAC network.
//! let mmacs = graph.total_macs() as f64 / 1e6;
//! assert!((450.0..700.0).contains(&mmacs));
//! ```

mod archs;
pub mod cache;
pub mod graph;
mod op;
pub mod zoo;

pub use cache::cached_graph;
pub use graph::{Graph, GraphError};
pub use op::{Op, OpKind};
