//! Programmatic reconstructions of the Table I model architectures.
//!
//! Each builder reproduces the published layer structure closely enough
//! that total MACs and parameters land near the real networks (asserted by
//! tests). NasNet-Mobile is the one deliberate approximation: its cell
//! search result is intricate, so we emit a structurally similar
//! separable-conv cell stack calibrated to its published totals (see
//! DESIGN.md).

mod bert;
mod heads;
mod inception;
mod nasnet;
mod vision;

pub(crate) use bert::mobile_bert;
pub(crate) use heads::{deeplab_v3_mnv2, posenet, ssd_mobilenet_v2};
pub(crate) use inception::{inception_v3, inception_v4};
pub(crate) use nasnet::nasnet_mobile;
pub(crate) use vision::{alexnet, efficientnet_lite0, mobilenet_v1, squeezenet};

use crate::op::Op;

/// Emits a depthwise-separable block (depthwise k×k then pointwise 1×1),
/// returning the ops and the output spatial size.
pub(crate) fn separable(
    in_h: usize,
    in_w: usize,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
) -> (Vec<Op>, usize, usize) {
    let oh = in_h.div_ceil(stride);
    let ow = in_w.div_ceil(stride);
    let ops = vec![
        Op::DepthwiseConv2d {
            in_h,
            in_w,
            c: in_c,
            k,
            stride,
        },
        Op::Conv2d {
            in_h: oh,
            in_w: ow,
            in_c,
            out_c,
            k: 1,
            stride: 1,
        },
    ];
    (ops, oh, ow)
}

/// Emits an inverted-residual MBConv block (MobileNet v2 / EfficientNet),
/// returning the ops and the output spatial size.
pub(crate) fn mbconv(
    in_h: usize,
    in_w: usize,
    in_c: usize,
    out_c: usize,
    expand: usize,
    k: usize,
    stride: usize,
) -> (Vec<Op>, usize, usize) {
    let mid = in_c * expand;
    let mut ops = Vec::new();
    if expand != 1 {
        ops.push(Op::Conv2d {
            in_h,
            in_w,
            in_c,
            out_c: mid,
            k: 1,
            stride: 1,
        });
    }
    let oh = in_h.div_ceil(stride);
    let ow = in_w.div_ceil(stride);
    ops.push(Op::DepthwiseConv2d {
        in_h,
        in_w,
        c: mid,
        k,
        stride,
    });
    ops.push(Op::Conv2d {
        in_h: oh,
        in_w: ow,
        in_c: mid,
        out_c,
        k: 1,
        stride: 1,
    });
    if stride == 1 && in_c == out_c {
        ops.push(Op::Add {
            elements: oh * ow * out_c,
        });
    }
    (ops, oh, ow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{ModelId, Zoo};
    use aitax_tensor::DType;

    /// Published (MMACs, M params) and tolerance for each model.
    fn published(id: ModelId) -> (f64, f64, f64) {
        match id {
            ModelId::MobileNetV1 => (569.0, 4.24, 0.15),
            ModelId::NasNetMobile => (564.0, 5.3, 0.45),
            ModelId::SqueezeNet => (837.0, 1.25, 0.35),
            ModelId::EfficientNetLite0 => (407.0, 4.7, 0.30),
            ModelId::AlexNet => (1_100.0, 61.0, 0.40),
            ModelId::InceptionV3 => (5_700.0, 23.8, 0.30),
            ModelId::InceptionV4 => (12_300.0, 42.7, 0.35),
            ModelId::DeeplabV3MobileNetV2 => (2_750.0, 2.8, 0.45),
            ModelId::SsdMobileNetV2 => (800.0, 4.3, 0.50),
            ModelId::PoseNet => (820.0, 3.3, 0.45),
            ModelId::MobileBert => (2_700.0, 25.3, 0.40),
        }
    }

    #[test]
    fn totals_near_published_figures() {
        for id in ModelId::ALL {
            let g = Zoo::entry(id).build_graph();
            let (mmacs, mparams, tol) = published(id);
            let got_macs = g.total_macs() as f64 / 1e6;
            let got_params = g.total_params() as f64 / 1e6;
            assert!(
                (got_macs - mmacs).abs() / mmacs <= tol,
                "{id:?}: MACs {got_macs:.0}M vs published {mmacs:.0}M (tol {tol})"
            );
            assert!(
                (got_params - mparams).abs() / mparams <= tol,
                "{id:?}: params {got_params:.2}M vs published {mparams:.2}M (tol {tol})"
            );
        }
    }

    #[test]
    fn inception_v4_is_heavier_than_v3() {
        let v3 = inception_v3(DType::F32);
        let v4 = inception_v4(DType::F32);
        assert!(v4.total_macs() > v3.total_macs());
        assert!(v4.total_params() > v3.total_params());
        assert!(v4.len() > v3.len());
    }

    #[test]
    fn mobile_models_are_small() {
        for id in [
            ModelId::MobileNetV1,
            ModelId::EfficientNetLite0,
            ModelId::SqueezeNet,
        ] {
            let g = Zoo::entry(id).build_graph();
            assert!(
                g.total_params() < 10_000_000,
                "{id:?} should be mobile-sized"
            );
        }
    }

    #[test]
    fn separable_block_shapes() {
        let (ops, oh, ow) = separable(112, 112, 32, 64, 3, 2);
        assert_eq!(ops.len(), 2);
        assert_eq!((oh, ow), (56, 56));
    }

    #[test]
    fn mbconv_residual_only_when_shapes_match() {
        let (with_res, _, _) = mbconv(56, 56, 24, 24, 6, 3, 1);
        let (no_res_stride, _, _) = mbconv(56, 56, 24, 24, 6, 3, 2);
        let (no_res_chan, _, _) = mbconv(56, 56, 24, 40, 6, 3, 1);
        assert_eq!(with_res.len(), 4);
        assert_eq!(no_res_stride.len(), 3);
        assert_eq!(no_res_chan.len(), 3);
    }

    #[test]
    fn quantized_variants_share_structure() {
        let f = mobilenet_v1(DType::F32);
        let q = mobilenet_v1(DType::I8);
        assert_eq!(f.len(), q.len());
        assert_eq!(f.total_macs(), q.total_macs());
        assert_eq!(q.weight_bytes() * 4, f.weight_bytes());
    }
}
