//! MobileBERT — Table I's language-processing entry.
//!
//! 24 bottlenecked transformer blocks (intra-block hidden 128, inter-block
//! 512, 4 stacked FFNs) over a 128-token sequence, with a question-
//! answering span head. Published: ≈25.3 M params; ≈2.7 GMACs at this
//! sequence length.

use aitax_tensor::DType;

use crate::graph::{Graph, GraphBuilder};
use crate::op::Op;

/// Sequence length used by the TFLite MobileBERT benchmark.
pub(crate) const SEQ_LEN: usize = 128;

const HIDDEN: usize = 512;
const BOTTLENECK: usize = 128;
const VOCAB: usize = 30_522;
const BLOCKS: usize = 24;
const STACKED_FFNS: usize = 4;

fn dense(m: usize, k: usize, n: usize) -> Op {
    Op::MatMul {
        m,
        k,
        n,
        weights: true,
    }
}

/// MobileBERT for question answering.
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub(crate) fn mobile_bert(dtype: DType) -> Graph {
    let s = SEQ_LEN;
    let mut b = GraphBuilder::new("mobile_bert", dtype, s as u64).push(Op::Embedding {
        tokens: s,
        dim: BOTTLENECK,
        vocab: VOCAB,
    });
    // Embedding projection up to the inter-block width.
    b = b.push(dense(s, BOTTLENECK, HIDDEN));
    for _ in 0..BLOCKS {
        // Bottleneck down.
        b = b.push(dense(s, HIDDEN, BOTTLENECK));
        // Self-attention in the bottleneck width.
        b = b
            .push(dense(s, BOTTLENECK, BOTTLENECK)) // Q
            .push(dense(s, BOTTLENECK, BOTTLENECK)) // K
            .push(dense(s, BOTTLENECK, BOTTLENECK)) // V
            .push(Op::MatMul {
                m: s,
                k: BOTTLENECK,
                n: s,
                weights: false,
            }) // scores
            .push(Op::Softmax { n: s * s })
            .push(Op::MatMul {
                m: s,
                k: s,
                n: BOTTLENECK,
                weights: false,
            }) // context
            .push(dense(s, BOTTLENECK, BOTTLENECK)) // output proj
            .push(Op::Add {
                elements: s * BOTTLENECK,
            })
            .push(Op::LayerNorm {
                elements: s * BOTTLENECK,
            });
        // Stacked feed-forward networks.
        for _ in 0..STACKED_FFNS {
            b = b
                .push(dense(s, BOTTLENECK, HIDDEN))
                .push(Op::Activation {
                    elements: s * HIDDEN,
                })
                .push(dense(s, HIDDEN, BOTTLENECK))
                .push(Op::Add {
                    elements: s * BOTTLENECK,
                })
                .push(Op::LayerNorm {
                    elements: s * BOTTLENECK,
                });
        }
        // Bottleneck back up.
        b = b.push(dense(s, BOTTLENECK, HIDDEN)).push(Op::LayerNorm {
            elements: s * HIDDEN,
        });
    }
    // QA span head: start/end logits per token.
    b.push(dense(s, HIDDEN, 2))
        .push(Op::Reshape { elements: s * 2 })
        .finish()
        .expect("mobile bert graph is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn totals_near_published() {
        let g = mobile_bert(DType::F32);
        let gmacs = g.total_macs() as f64 / 1e9;
        let mparams = g.total_params() as f64 / 1e6;
        assert!((1.7..3.8).contains(&gmacs), "MACs {gmacs}G");
        assert!((15.0..33.0).contains(&mparams), "params {mparams}M");
    }

    #[test]
    fn embedding_holds_vocab_params() {
        let g = mobile_bert(DType::F32);
        let emb = g
            .nodes()
            .iter()
            .find(|n| n.op.kind() == OpKind::Embedding)
            .unwrap();
        assert_eq!(emb.op.params(), (VOCAB * BOTTLENECK) as u64);
    }

    #[test]
    fn has_24_attention_blocks() {
        let g = mobile_bert(DType::F32);
        let softmaxes = g
            .nodes()
            .iter()
            .filter(|n| n.op.kind() == OpKind::Softmax)
            .count();
        assert_eq!(softmaxes, BLOCKS);
    }

    #[test]
    fn no_spatial_ops_in_a_text_model() {
        let g = mobile_bert(DType::F32);
        assert!(!g
            .nodes()
            .iter()
            .any(|n| matches!(n.op.kind(), OpKind::Conv2d | OpKind::DepthwiseConv2d)));
    }
}
