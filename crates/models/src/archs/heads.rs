//! Task-specific architectures: SSD MobileNet v2 (detection), DeepLab-v3
//! MobileNet-v2 (segmentation) and PoseNet (pose estimation).

use aitax_tensor::DType;

use crate::graph::{Graph, GraphBuilder};
use crate::op::Op;

use super::{mbconv, separable};

/// Emits the MobileNet v2 backbone at the given input size, returning the
/// builder, final spatial size and channel count.
fn mobilenet_v2_backbone(
    mut b: GraphBuilder,
    input: usize,
    os16: bool,
) -> (GraphBuilder, usize, usize) {
    b = b.push(Op::Conv2d {
        in_h: input,
        in_w: input,
        in_c: 3,
        out_c: 32,
        k: 3,
        stride: 2,
    });
    let mut h = input.div_ceil(2);
    let mut in_c = 32;
    // (expand, out_c, repeats, first_stride) — the published v2 schedule.
    // With `os16` (DeepLab's output-stride-16 mode) the last stride-2
    // stage runs at stride 1 with atrous kernels, keeping 2× the spatial
    // resolution for dense prediction.
    let stages = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, if os16 { 1 } else { 2 }),
        (6, 320, 1, 1),
    ];
    for (expand, out_c, repeats, first_stride) in stages {
        for r in 0..repeats {
            let stride = if r == 0 { first_stride } else { 1 };
            let (ops, nh, _) = mbconv(h, h, in_c, out_c, expand, 3, stride);
            b = b.extend(ops);
            h = nh;
            in_c = out_c;
        }
    }
    (b, h, in_c)
}

/// SSD MobileNet v2 at 300×300 (published ≈0.8 GMACs, 4.3 M params),
/// ending in TFLite's fused `DetectionPostProcess` custom op — the op
/// whose CPU-only implementation forces partition splits under NNAPI.
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub fn ssd_mobilenet_v2(dtype: DType) -> Graph {
    let b = GraphBuilder::new("ssd_mobilenet_v2", dtype, 300 * 300 * 3);
    let (mut b, h, c) = mobilenet_v2_backbone(b, 300, false);
    // Feature pyramid: project + downsample extra feature maps.
    b = b.push(Op::Conv2d {
        in_h: h,
        in_w: h,
        in_c: c,
        out_c: 1280,
        k: 1,
        stride: 1,
    });
    let mut fh = h;
    let mut fc = 1280;
    let mut total_anchors = 0usize;
    for _ in 0..4 {
        // Box + class predictors on the current feature map (6 anchors).
        let anchors_here = fh * fh * 6;
        total_anchors += anchors_here;
        // SSDLite-style separable predictors (dw 3×3 + pointwise heads).
        b = b
            .push(Op::DepthwiseConv2d {
                in_h: fh,
                in_w: fh,
                c: fc,
                k: 3,
                stride: 1,
            })
            .push(Op::Conv2d {
                in_h: fh,
                in_w: fh,
                in_c: fc,
                out_c: 6 * 4,
                k: 1,
                stride: 1,
            })
            .push(Op::Conv2d {
                in_h: fh,
                in_w: fh,
                in_c: fc,
                out_c: 6 * 91,
                k: 1,
                stride: 1,
            });
        if fh > 1 {
            let (ops, nh, _) = separable(fh, fh, fc, 256, 3, 2);
            b = b.extend(ops);
            fh = nh;
            fc = 256;
        }
    }
    b.push(Op::DetectionPostProcess {
        anchors: total_anchors.min(1917),
        classes: 91,
    })
    .finish()
    .expect("ssd graph is non-empty")
}

/// DeepLab-v3 with MobileNet-v2 backbone at 513×513 (Table I).
///
/// Output stride 16: backbone to 33×33, ASPP with three atrous branches,
/// projection, and an in-graph bilinear resize back to 513×513×21 — the
/// resize is why DeepLab's *pre*-processing is tiny (≈1% per §IV-A) while
/// its in-graph and post work is large.
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub fn deeplab_v3_mnv2(dtype: DType) -> Graph {
    let b = GraphBuilder::new("deeplab_v3_mobilenet_v2", dtype, 513 * 513 * 3);
    let (mut b, h, c) = mobilenet_v2_backbone(b, 513, true);
    // ASPP at the backbone's output stride (33×33 for 513 input).
    let classes = 21;
    b = b
        .push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c: c,
            out_c: 256,
            k: 1,
            stride: 1,
        })
        .push(Op::DepthwiseConv2d {
            in_h: h,
            in_w: h,
            c,
            k: 3,
            stride: 1,
        })
        .push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c: c,
            out_c: 256,
            k: 1,
            stride: 1,
        })
        .push(Op::DepthwiseConv2d {
            in_h: h,
            in_w: h,
            c,
            k: 3,
            stride: 1,
        })
        .push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c: c,
            out_c: 256,
            k: 1,
            stride: 1,
        })
        .push(Op::Mean {
            elements: h * h * c,
        })
        .push(Op::Concat {
            elements: h * h * 256 * 3,
        })
        .push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c: 768,
            out_c: 256,
            k: 1,
            stride: 1,
        })
        .push(Op::Conv2d {
            in_h: h,
            in_w: h,
            in_c: 256,
            out_c: classes,
            k: 1,
            stride: 1,
        })
        .push(Op::ResizeBilinear {
            out_h: 513,
            out_w: 513,
            c: classes,
        });
    b.finish().expect("deeplab graph is non-empty")
}

/// PoseNet (MobileNet v1 backbone, output stride 16) at 224×224 with
/// heatmap + offset heads over 17 keypoints.
#[expect(
    clippy::expect_used,
    reason = "graph is statically non-empty by construction"
)]
pub fn posenet(dtype: DType) -> Graph {
    let mut b = GraphBuilder::new("posenet", dtype, 224 * 224 * 3).push(Op::Conv2d {
        in_h: 224,
        in_w: 224,
        in_c: 3,
        out_c: 32,
        k: 3,
        stride: 2,
    });
    // MobileNet v1 schedule but stopping the spatial shrink at stride 16
    // (the last stride-2 block becomes stride 1), as PoseNet does.
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
        (512, 1024, 1),
        (1024, 1024, 1),
    ];
    let (mut h, mut w) = (112, 112);
    for (in_c, out_c, stride) in blocks {
        let (ops, nh, nw) = separable(h, w, in_c, out_c, 3, stride);
        b = b.extend(ops);
        h = nh;
        w = nw;
    }
    // Heads: 17 heatmaps + 34 offsets + displacement maps.
    b.push(Op::Conv2d {
        in_h: h,
        in_w: w,
        in_c: 1024,
        out_c: 17,
        k: 1,
        stride: 1,
    })
    .push(Op::Conv2d {
        in_h: h,
        in_w: w,
        in_c: 1024,
        out_c: 34,
        k: 1,
        stride: 1,
    })
    .push(Op::Conv2d {
        in_h: h,
        in_w: w,
        in_c: 1024,
        out_c: 64,
        k: 1,
        stride: 1,
    })
    .push(Op::Activation {
        elements: h * w * 17,
    })
    .finish()
    .expect("posenet graph is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn ssd_ends_with_detection_post_process() {
        let g = ssd_mobilenet_v2(DType::F32);
        let last = g.nodes().last().unwrap();
        assert_eq!(last.op.kind(), OpKind::DetectionPostProcess);
        let gmacs = g.total_macs() as f64 / 1e9;
        assert!((0.45..1.3).contains(&gmacs), "MACs {gmacs}G");
    }

    #[test]
    fn deeplab_is_the_heaviest_mobile_graph() {
        let g = deeplab_v3_mnv2(DType::F32);
        let gmacs = g.total_macs() as f64 / 1e9;
        assert!((1.8..4.2).contains(&gmacs), "MACs {gmacs}G");
        // In-graph resize present.
        assert!(g
            .nodes()
            .iter()
            .any(|n| n.op.kind() == OpKind::ResizeBilinear));
        // Output covers 513×513×21 logits.
        assert_eq!(g.output_bytes(), 513 * 513 * 21 * 4);
    }

    #[test]
    fn posenet_keeps_stride16_resolution() {
        let g = posenet(DType::F32);
        // Heads operate on 14×14 for a 224 input.
        let heat = g
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Conv2d { out_c: 17, .. }))
            .expect("heatmap head");
        if let Op::Conv2d { in_h, .. } = heat.op {
            assert_eq!(in_h, 14);
        }
        let mmacs = g.total_macs() as f64 / 1e6;
        assert!((500.0..1_000.0).contains(&mmacs), "MACs {mmacs}M");
    }

    #[test]
    fn deeplab_output_dwarfs_classifier_output() {
        let dl = deeplab_v3_mnv2(DType::F32);
        let mb = super::super::mobilenet_v1(DType::F32);
        assert!(dl.output_bytes() > 1000 * mb.output_bytes());
    }
}
