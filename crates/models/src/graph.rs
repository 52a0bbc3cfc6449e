//! Validated operator graphs.

use std::error::Error;
use std::fmt;

use aitax_tensor::DType;

use crate::op::{Op, OpKind};

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no operators.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph contains no operators"),
        }
    }
}

impl Error for GraphError {}

/// One operator instance in a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Layer name (unique within the graph, e.g. `"conv2d_3"`).
    pub name: String,
    /// The operator.
    pub op: Op,
}

/// A topologically-ordered operator list for one model.
///
/// Mobile inference graphs are executed (and NNAPI-partitioned) in
/// topological order; the IR stores exactly that order, which is all the
/// cost and partitioning analyses need.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    dtype: DType,
    nodes: Vec<Node>,
    input_elements: u64,
    per_channel_quant: bool,
}

impl Graph {
    /// Builds a graph from ordered nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for an empty node list.
    pub(crate) fn new(
        name: impl Into<String>,
        dtype: DType,
        input_elements: u64,
        nodes: Vec<Node>,
    ) -> Result<Self, GraphError> {
        if nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        Ok(Graph {
            name: name.into(),
            dtype,
            nodes,
            input_elements,
            per_channel_quant: false,
        })
    }

    /// Marks this graph as using per-channel (per-axis) quantized weights.
    ///
    /// Newer TFLite post-training-quantized models (EfficientNet-Lite era)
    /// quantize weights per output channel; SD845-generation NNAPI vendor
    /// drivers cannot run that configuration on the DSP and silently fall
    /// back to their CPU reference path — the root cause of the paper's
    /// Figure 5 slowdown.
    pub fn with_per_channel_quant(mut self, per_channel: bool) -> Graph {
        self.per_channel_quant = per_channel;
        self
    }

    /// Whether weights are per-channel quantized.
    pub fn per_channel_quant(&self) -> bool {
        self.per_channel_quant
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Numeric format of weights and activations.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// A copy of this graph re-typed (e.g. the INT8 quantized variant).
    pub fn with_dtype(&self, dtype: DType) -> Graph {
        let mut g = self.clone();
        g.dtype = dtype;
        g
    }

    /// Input tensor element count.
    pub fn input_elements(&self) -> u64 {
        self.input_elements
    }

    /// Input tensor size in bytes for this graph's dtype.
    pub fn input_bytes(&self) -> u64 {
        self.input_elements * self.dtype.size_bytes() as u64
    }

    /// Output tensor size in bytes (last node's output).
    pub fn output_bytes(&self) -> u64 {
        self.nodes
            .last()
            .map(|n| n.op.output_elements() * self.dtype.size_bytes() as u64)
            .unwrap_or(0)
    }

    /// Ordered operators.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty (never true for a constructed graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total multiply-accumulates for one inference.
    pub fn total_macs(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.macs()).sum()
    }

    /// Total trained parameters.
    pub fn total_params(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.params()).sum()
    }

    /// Model file size in bytes for this dtype (parameters × width).
    pub fn weight_bytes(&self) -> u64 {
        self.total_params() * self.dtype.size_bytes() as u64
    }

    /// Histogram of operator kinds.
    #[cfg(test)]
    pub(crate) fn kind_histogram(&self) -> Vec<(OpKind, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for n in &self.nodes {
            *counts.entry(n.op.kind()).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }
}

/// Incremental builder for [`Graph`].
///
/// # Example
///
/// ```
/// use aitax_models::graph::GraphBuilder;
/// use aitax_models::Op;
/// use aitax_tensor::DType;
///
/// let g = GraphBuilder::new("tiny", DType::F32, 224 * 224 * 3)
///     .push(Op::Conv2d { in_h: 224, in_w: 224, in_c: 3, out_c: 8, k: 3, stride: 2 })
///     .push(Op::Softmax { n: 8 })
///     .finish()?;
/// assert_eq!(g.len(), 2);
/// # Ok::<(), aitax_models::GraphError>(())
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    dtype: DType,
    input_elements: u64,
    nodes: Vec<Node>,
    counters: std::collections::BTreeMap<&'static str, usize>,
}

impl GraphBuilder {
    /// Starts a builder.
    pub fn new(name: impl Into<String>, dtype: DType, input_elements: u64) -> Self {
        GraphBuilder {
            name: name.into(),
            dtype,
            input_elements,
            nodes: Vec::new(),
            counters: std::collections::BTreeMap::new(),
        }
    }

    /// Appends an operator with an auto-generated unique name.
    pub fn push(mut self, op: Op) -> Self {
        let stem = match op.kind() {
            OpKind::Conv2d => "conv2d",
            OpKind::DepthwiseConv2d => "dwconv",
            OpKind::FullyConnected => "fc",
            OpKind::AvgPool => "avgpool",
            OpKind::MaxPool => "maxpool",
            OpKind::Softmax => "softmax",
            OpKind::Add => "add",
            OpKind::Concat => "concat",
            OpKind::Activation => "act",
            OpKind::Reshape => "reshape",
            OpKind::ResizeBilinear => "resize",
            OpKind::MatMul => "matmul",
            OpKind::LayerNorm => "layernorm",
            OpKind::Embedding => "embedding",
            OpKind::DetectionPostProcess => "detect_pp",
            OpKind::Mean => "mean",
        };
        let n = self.counters.entry(stem).or_insert(0);
        let name = format!("{stem}_{n}");
        *n += 1;
        self.nodes.push(Node { name, op });
        self
    }

    /// Appends many operators.
    pub fn extend(mut self, ops: impl IntoIterator<Item = Op>) -> Self {
        for op in ops {
            self = self.push(op);
        }
        self
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] if no operators were pushed.
    pub fn finish(self) -> Result<Graph, GraphError> {
        Graph::new(self.name, self.dtype, self.input_elements, self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        GraphBuilder::new("tiny", DType::F32, 10)
            .push(Op::Conv2d {
                in_h: 8,
                in_w: 8,
                in_c: 3,
                out_c: 4,
                k: 3,
                stride: 1,
            })
            .push(Op::Conv2d {
                in_h: 8,
                in_w: 8,
                in_c: 4,
                out_c: 4,
                k: 1,
                stride: 1,
            })
            .push(Op::Softmax { n: 4 })
            .finish()
            .unwrap()
    }

    #[test]
    fn empty_graph_rejected() {
        let err = GraphBuilder::new("e", DType::F32, 1).finish().unwrap_err();
        assert_eq!(err, GraphError::Empty);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn names_are_unique_and_stable() {
        let g = tiny();
        assert_eq!(g.nodes()[0].name, "conv2d_0");
        assert_eq!(g.nodes()[1].name, "conv2d_1");
        assert_eq!(g.nodes()[2].name, "softmax_0");
    }

    #[test]
    fn totals_sum_over_nodes() {
        let g = tiny();
        let macs: u64 = g.nodes().iter().map(|n| n.op.macs()).sum();
        assert_eq!(g.total_macs(), macs);
        assert!(g.total_params() > 0);
    }

    #[test]
    fn dtype_affects_byte_sizes() {
        let g = tiny();
        let q = g.with_dtype(DType::I8);
        assert_eq!(q.weight_bytes() * 4, g.weight_bytes());
        assert_eq!(q.input_bytes() * 4, g.input_bytes());
        assert_eq!(q.total_macs(), g.total_macs());
    }

    #[test]
    fn output_bytes_from_last_node() {
        let g = tiny();
        assert_eq!(g.output_bytes(), 4 * 4); // softmax over 4 f32 values
    }
}
