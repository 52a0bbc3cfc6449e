//! Classification backbones: MobileNet v1, SqueezeNet, AlexNet,
//! EfficientNet-Lite0.

use aitax_tensor::DType;

use crate::graph::{Graph, GraphBuilder};
use crate::op::Op;

use super::{mbconv, separable};

/// MobileNet 1.0 v1 at 224×224 — the canonical mobile classifier
/// (published: 569 MMACs, 4.24 M params).
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub fn mobilenet_v1(dtype: DType) -> Graph {
    let mut b = GraphBuilder::new("mobilenet_v1_1.0_224", dtype, 224 * 224 * 3).push(Op::Conv2d {
        in_h: 224,
        in_w: 224,
        in_c: 3,
        out_c: 32,
        k: 3,
        stride: 2,
    });
    // (in_c, out_c, stride) for the 13 depthwise-separable blocks.
    let blocks = [
        (32, 64, 1),
        (64, 128, 2),
        (128, 128, 1),
        (128, 256, 2),
        (256, 256, 1),
        (256, 512, 2),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 1024, 2),
        (1024, 1024, 1),
    ];
    let (mut h, mut w) = (112, 112);
    for (in_c, out_c, stride) in blocks {
        let (ops, nh, nw) = separable(h, w, in_c, out_c, 3, stride);
        b = b.extend(ops);
        h = nh;
        w = nw;
    }
    b.push(Op::Mean {
        elements: h * w * 1024,
    })
    .push(Op::FullyConnected {
        in_features: 1024,
        out_features: 1001,
    })
    .push(Op::Softmax { n: 1001 })
    .finish()
    .expect("mobilenet v1 graph is non-empty")
}

/// SqueezeNet v1.0 at 227×227 (published: ≈837 MMACs, 1.25 M params).
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub fn squeezenet(dtype: DType) -> Graph {
    let mut b = GraphBuilder::new("squeezenet", dtype, 227 * 227 * 3).push(Op::Conv2d {
        in_h: 227,
        in_w: 227,
        in_c: 3,
        out_c: 96,
        k: 7,
        stride: 2,
    });
    let mut h = 114;
    b = b.push(Op::MaxPool {
        in_h: h,
        in_w: h,
        c: 96,
        k: 3,
        stride: 2,
    });
    h = 57;

    // fire(in, squeeze, expand): squeeze 1×1, expand 1×1 and 3×3, concat.
    fn fire(b: GraphBuilder, h: usize, in_c: usize, s: usize, e: usize) -> GraphBuilder {
        b.push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c,
            out_c: s,
            k: 1,
            stride: 1,
        })
        .push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c: s,
            out_c: e,
            k: 1,
            stride: 1,
        })
        .push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c: s,
            out_c: e,
            k: 3,
            stride: 1,
        })
        .push(Op::Concat {
            elements: h * h * 2 * e,
        })
    }

    b = fire(b, h, 96, 16, 64); // fire2
    b = fire(b, h, 128, 16, 64); // fire3
    b = fire(b, h, 128, 32, 128); // fire4
    b = b.push(Op::MaxPool {
        in_h: h,
        in_w: h,
        c: 256,
        k: 3,
        stride: 2,
    });
    h = 29;
    b = fire(b, h, 256, 32, 128); // fire5
    b = fire(b, h, 256, 48, 192); // fire6
    b = fire(b, h, 384, 48, 192); // fire7
    b = fire(b, h, 384, 64, 256); // fire8
    b = b.push(Op::MaxPool {
        in_h: h,
        in_w: h,
        c: 512,
        k: 3,
        stride: 2,
    });
    h = 15;
    b = fire(b, h, 512, 64, 256); // fire9
    b.push(Op::Conv2d {
        in_h: h,
        in_w: h,
        in_c: 512,
        out_c: 1000,
        k: 1,
        stride: 1,
    })
    .push(Op::Mean {
        elements: h * h * 1000,
    })
    .push(Op::Softmax { n: 1000 })
    .finish()
    .expect("squeezenet graph is non-empty")
}

/// AlexNet at 256×256 (published at 227: ≈727 MMACs, 61 M params; Table I
/// lists the 256×256 variant).
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub fn alexnet(dtype: DType) -> Graph {
    GraphBuilder::new("alexnet", dtype, 256 * 256 * 3)
        .push(Op::Conv2d {
            in_h: 256,
            in_w: 256,
            in_c: 3,
            out_c: 96,
            k: 11,
            stride: 4,
        })
        .push(Op::MaxPool {
            in_h: 64,
            in_w: 64,
            c: 96,
            k: 3,
            stride: 2,
        })
        // conv2 runs as two groups of 48→128; grouping halves the MACs,
        // modelled by halving the input channels.
        .push(Op::Conv2d {
            in_h: 32,
            in_w: 32,
            in_c: 48,
            out_c: 256,
            k: 5,
            stride: 1,
        })
        .push(Op::MaxPool {
            in_h: 32,
            in_w: 32,
            c: 256,
            k: 3,
            stride: 2,
        })
        .push(Op::Conv2d {
            in_h: 16,
            in_w: 16,
            in_c: 256,
            out_c: 384,
            k: 3,
            stride: 1,
        })
        // conv4 and conv5 are also 2-group convolutions.
        .push(Op::Conv2d {
            in_h: 16,
            in_w: 16,
            in_c: 192,
            out_c: 384,
            k: 3,
            stride: 1,
        })
        .push(Op::Conv2d {
            in_h: 16,
            in_w: 16,
            in_c: 192,
            out_c: 256,
            k: 3,
            stride: 1,
        })
        .push(Op::MaxPool {
            in_h: 16,
            in_w: 16,
            c: 256,
            k: 3,
            stride: 2,
        })
        // Adaptive pooling to the classic 6×6×256 = 9216 flatten (as the
        // Caffe/TFLite ports do for larger inputs).
        .push(Op::AvgPool {
            in_h: 8,
            in_w: 8,
            c: 256,
            k: 3,
            stride: 1,
        })
        .push(Op::Reshape {
            elements: 6 * 6 * 256,
        })
        .push(Op::FullyConnected {
            in_features: 6 * 6 * 256,
            out_features: 4096,
        })
        .push(Op::FullyConnected {
            in_features: 4096,
            out_features: 4096,
        })
        .push(Op::FullyConnected {
            in_features: 4096,
            out_features: 1000,
        })
        .push(Op::Softmax { n: 1000 })
        .finish()
        .expect("alexnet graph is non-empty")
}

/// EfficientNet-Lite0 at 224×224 (published: ≈407 MMACs, 4.7 M params).
///
/// The Lite variants drop squeeze-and-excite and swap swish for ReLU6 —
/// and, crucially for Fig. 5, their INT8 variants use operator
/// configurations with patchy NNAPI driver support on SD845-era phones.
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub fn efficientnet_lite0(dtype: DType) -> Graph {
    let mut b = GraphBuilder::new("efficientnet_lite0", dtype, 224 * 224 * 3).push(Op::Conv2d {
        in_h: 224,
        in_w: 224,
        in_c: 3,
        out_c: 32,
        k: 3,
        stride: 2,
    });
    // (expand, k, out_c, repeats, first_stride)
    let stages = [
        (1, 3, 16, 1, 1),
        (6, 3, 24, 2, 2),
        (6, 5, 40, 2, 2),
        (6, 3, 80, 3, 2),
        (6, 5, 112, 3, 1),
        (6, 5, 192, 4, 2),
        (6, 3, 320, 1, 1),
    ];
    let (mut h, mut w) = (112, 112);
    let mut in_c = 32;
    for (expand, k, out_c, repeats, first_stride) in stages {
        for r in 0..repeats {
            let stride = if r == 0 { first_stride } else { 1 };
            let (ops, nh, nw) = mbconv(h, w, in_c, out_c, expand, k, stride);
            b = b.extend(ops);
            h = nh;
            w = nw;
            in_c = out_c;
        }
    }
    b.push(Op::Conv2d {
        in_h: h,
        in_w: w,
        in_c,
        out_c: 1280,
        k: 1,
        stride: 1,
    })
    .push(Op::Mean {
        elements: h * w * 1280,
    })
    .push(Op::FullyConnected {
        in_features: 1280,
        out_features: 1000,
    })
    .push(Op::Softmax { n: 1000 })
    .finish()
    .expect("efficientnet-lite0 graph is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn mobilenet_v1_structure() {
        let g = mobilenet_v1(DType::F32);
        let hist = g.kind_histogram();
        let dw = hist
            .iter()
            .find(|(k, _)| *k == OpKind::DepthwiseConv2d)
            .unwrap()
            .1;
        assert_eq!(dw, 13, "13 depthwise blocks");
        // 1 stem + 13 pointwise convs.
        let conv = hist.iter().find(|(k, _)| *k == OpKind::Conv2d).unwrap().1;
        assert_eq!(conv, 14);
        assert_eq!(g.total_params(), {
            // Exact published structure → ≈4.2M params.
            g.total_params()
        });
        let mparams = g.total_params() as f64 / 1e6;
        assert!((4.0..4.5).contains(&mparams), "params {mparams}M");
    }

    #[test]
    fn mobilenet_v1_macs_match_paper_value() {
        let g = mobilenet_v1(DType::F32);
        let mmacs = g.total_macs() as f64 / 1e6;
        assert!((540.0..620.0).contains(&mmacs), "MACs {mmacs}M");
    }

    #[test]
    fn squeezenet_is_parameter_frugal() {
        let g = squeezenet(DType::F32);
        let mparams = g.total_params() as f64 / 1e6;
        assert!((1.0..1.7).contains(&mparams), "params {mparams}M");
    }

    #[test]
    fn alexnet_params_dominated_by_fc() {
        let g = alexnet(DType::F32);
        let fc_params: u64 = g
            .nodes()
            .iter()
            .filter(|n| n.op.kind() == OpKind::FullyConnected)
            .map(|n| n.op.params())
            .sum();
        assert!(fc_params as f64 / g.total_params() as f64 > 0.85);
    }

    #[test]
    fn efficientnet_has_residual_adds() {
        let g = efficientnet_lite0(DType::F32);
        let adds = g
            .nodes()
            .iter()
            .filter(|n| n.op.kind() == OpKind::Add)
            .count();
        assert!(adds >= 8, "expected inverted-residual adds, got {adds}");
    }

    #[test]
    fn input_sizes_match_table1() {
        assert_eq!(mobilenet_v1(DType::F32).input_elements(), 224 * 224 * 3);
        assert_eq!(squeezenet(DType::F32).input_elements(), 227 * 227 * 3);
        assert_eq!(alexnet(DType::F32).input_elements(), 256 * 256 * 3);
        assert_eq!(
            efficientnet_lite0(DType::F32).input_elements(),
            224 * 224 * 3
        );
    }
}
