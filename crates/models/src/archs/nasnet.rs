//! NasNet-Mobile (approximated).
//!
//! NasNet's searched cells are too irregular to transcribe exactly;
//! following DESIGN.md's substitution rule we emit a structurally similar
//! stack of separable-convolution cells (the dominant NasNet primitive)
//! with the real channel progression (44 → 88 → 176 → 352) and spatial
//! schedule, calibrated so total MACs/params land near the published
//! 564 MMACs / 5.3 M params.

use aitax_tensor::DType;

use crate::graph::{Graph, GraphBuilder};
use crate::op::Op;

use super::separable;

/// One NasNet-style cell.
///
/// Real NasNet cells concatenate their branch outputs, so the next cell
/// sees a widened input it first squeezes with a 1×1 "adjust" convolution
/// — that projection carries much of NasNet's parameter mass. `in_c` is
/// the (possibly widened) input width; the cell computes at width `c` and
/// concatenates back to `2c`.
fn cell(mut b: GraphBuilder, h: usize, in_c: usize, c: usize) -> GraphBuilder {
    if in_c != c {
        b = b.push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c,
            out_c: c,
            k: 1,
            stride: 1,
        });
    }
    for k in [5, 3] {
        let (ops, _, _) = separable(h, h, c, c, k, 1);
        b = b.extend(ops);
        b = b.push(Op::Add {
            elements: h * h * c,
        });
    }
    b.push(Op::Concat {
        elements: h * h * c * 2,
    })
}

/// A reduction cell: strided separables halving the spatial dims and
/// doubling channels.
fn reduction(mut b: GraphBuilder, h: usize, in_c: usize, out_c: usize) -> (GraphBuilder, usize) {
    let (ops, nh, _) = separable(h, h, in_c, out_c, 5, 2);
    b = b.extend(ops);
    let (ops2, _, _) = separable(nh, nh, out_c, out_c, 3, 1);
    b = b.extend(ops2);
    b = b.push(Op::Add {
        elements: nh * nh * out_c,
    });
    (b, nh)
}

/// NasNet-Mobile at 331×331 (published: 564 MMACs, 5.3 M params).
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub fn nasnet_mobile(dtype: DType) -> Graph {
    let mut b = GraphBuilder::new("nasnet_mobile", dtype, 331 * 331 * 3).push(Op::Conv2d {
        in_h: 331,
        in_w: 331,
        in_c: 3,
        out_c: 32,
        k: 3,
        stride: 2,
    });
    let mut h = 166;
    // Two stem reduction cells take 331 input down to 42×42 before the
    // first normal cells, as the real network does.
    let (nb, nh) = reduction(b, h, 32, 44);
    b = nb;
    h = nh;
    let (nb, nh) = reduction(b, h, 44, 88);
    b = nb;
    h = nh;
    // 3 normal cells at 42×42, width 88 (first sees the reduction output,
    // later ones the 2×-wide concat).
    b = cell(b, h, 88, 88);
    for _ in 0..2 {
        b = cell(b, h, 176, 88);
    }
    let (nb, nh) = reduction(b, h, 176, 176);
    b = nb;
    h = nh;
    // 3 normal cells at 21×21, width 176.
    b = cell(b, h, 176, 176);
    for _ in 0..2 {
        b = cell(b, h, 352, 176);
    }
    let (nb, nh) = reduction(b, h, 352, 352);
    b = nb;
    h = nh;
    // 3 normal cells at 11×11, width 352, then the 1056-wide head.
    b = cell(b, h, 352, 352);
    for _ in 0..2 {
        b = cell(b, h, 704, 352);
    }
    b.push(Op::Conv2d {
        in_h: h,
        in_w: h,
        in_c: 704,
        out_c: 1056,
        k: 1,
        stride: 1,
    })
    .push(Op::Mean {
        elements: h * h * 1056,
    })
    .push(Op::FullyConnected {
        in_features: 1056,
        out_features: 1001,
    })
    .push(Op::Softmax { n: 1001 })
    .finish()
    .expect("nasnet graph is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn totals_in_calibration_band() {
        let g = nasnet_mobile(DType::F32);
        let mmacs = g.total_macs() as f64 / 1e6;
        let mparams = g.total_params() as f64 / 1e6;
        assert!((350.0..820.0).contains(&mmacs), "MACs {mmacs}M");
        assert!((2.9..7.7).contains(&mparams), "params {mparams}M");
    }

    #[test]
    fn cell_stack_is_deep() {
        // NasNet has many more ops than MobileNet — its defining trait for
        // scheduling/partitioning purposes.
        let g = nasnet_mobile(DType::F32);
        assert!(g.len() > 60, "got {} ops", g.len());
        let dw = g
            .nodes()
            .iter()
            .filter(|n| n.op.kind() == OpKind::DepthwiseConv2d)
            .count();
        assert!(dw > 20, "got {dw} depthwise convs");
    }

    #[test]
    fn input_is_331() {
        assert_eq!(nasnet_mobile(DType::F32).input_elements(), 331 * 331 * 3);
    }
}
