//! Property tests over the model zoo and operator accounting. Randomized
//! cases are driven by the deterministic simulator RNG.

use aitax_des::SimRng;
use aitax_models::zoo::{ModelId, Zoo};
use aitax_models::Op;
use aitax_tensor::DType;

/// Conv MAC counts factor exactly as out_spatial × kernel × channels.
#[test]
fn conv_macs_factorization() {
    let mut rng = SimRng::seed_from(0x90DE_0001);
    for case in 0..48 {
        let in_hw = rng.uniform_u64(1, 128) as usize;
        let in_c = rng.uniform_u64(1, 64) as usize;
        let out_c = rng.uniform_u64(1, 64) as usize;
        let k = rng.uniform_u64(1, 7) as usize;
        let stride = rng.uniform_u64(1, 4) as usize;
        let op = Op::Conv2d {
            in_h: in_hw,
            in_w: in_hw,
            in_c,
            out_c,
            k,
            stride,
        };
        let o = in_hw.div_ceil(stride) as u64;
        assert_eq!(
            op.macs(),
            o * o * (out_c as u64) * (in_c as u64) * (k * k) as u64,
            "case {case}"
        );
        // A full conv is exactly `out_c` stacked depthwise passes over
        // the input channels: conv.macs = dw.macs × out_c.
        let dw = Op::DepthwiseConv2d {
            in_h: in_hw,
            in_w: in_hw,
            c: in_c,
            k,
            stride,
        };
        assert_eq!(dw.macs() * out_c as u64, op.macs(), "case {case}");
    }
}

/// Doubling stride never increases output size or MACs.
#[test]
fn stride_monotonicity() {
    let mut rng = SimRng::seed_from(0x90DE_0002);
    for case in 0..48 {
        let hw = rng.uniform_u64(2, 256) as usize;
        let c = rng.uniform_u64(1, 32) as usize;
        let k = rng.uniform_u64(1, 6) as usize;
        let m = |stride| {
            Op::Conv2d {
                in_h: hw,
                in_w: hw,
                in_c: c,
                out_c: c,
                k,
                stride,
            }
            .macs()
        };
        assert!(m(2) <= m(1), "case {case}");
        let e = |stride| {
            Op::Conv2d {
                in_h: hw,
                in_w: hw,
                in_c: c,
                out_c: c,
                k,
                stride,
            }
            .output_elements()
        };
        assert!(e(2) <= e(1), "case {case}");
    }
}

#[test]
fn quantization_preserves_structure_for_all_models() {
    for id in ModelId::ALL {
        let f = Zoo::entry(id).build_graph_with(DType::F32);
        let q = Zoo::entry(id).build_graph_with(DType::I8);
        assert_eq!(f.len(), q.len(), "{id:?}");
        assert_eq!(f.total_macs(), q.total_macs(), "{id:?}");
        assert_eq!(f.total_params(), q.total_params(), "{id:?}");
        assert_eq!(f.weight_bytes(), q.weight_bytes() * 4, "{id:?}");
        // Node-by-node identity.
        for (a, b) in f.nodes().iter().zip(q.nodes()) {
            assert_eq!(a.op.kind(), b.op.kind(), "{id:?}");
        }
    }
}

#[test]
fn zoo_graphs_have_consistent_io() {
    for id in ModelId::ALL {
        let g = Zoo::entry(id).build_graph();
        assert!(g.input_bytes() > 0, "{id:?}");
        assert!(g.output_bytes() > 0, "{id:?}");
        assert!(g.weight_bytes() > 100_000, "{id:?} params too small");
        // Every node accounts non-negative work.
        for n in g.nodes() {
            let _ = n.op.macs();
            let _ = n.op.params();
            assert!(n.op.output_elements() > 0, "{id:?}/{}", n.name);
        }
        // Names unique.
        let names: std::collections::BTreeSet<_> =
            g.nodes().iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names.len(), g.len(), "{id:?} duplicate node names");
    }
}

#[test]
fn macs_ordering_matches_model_classes() {
    let macs = |id: ModelId| Zoo::entry(id).build_graph().total_macs();
    // General-purpose face-recognition models dwarf the mobile-first ones.
    for small in [
        ModelId::MobileNetV1,
        ModelId::EfficientNetLite0,
        ModelId::NasNetMobile,
        ModelId::SqueezeNet,
    ] {
        assert!(macs(ModelId::InceptionV3) > 4 * macs(small), "{small:?}");
        assert!(macs(ModelId::InceptionV4) > 8 * macs(small), "{small:?}");
    }
}
