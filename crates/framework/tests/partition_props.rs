//! Property tests for compilation/partitioning soundness over randomly
//! generated operator graphs. Graphs are generated from the
//! deterministic simulator RNG so every case reproduces exactly.

use aitax_des::SimRng;
use aitax_framework::{Engine, ExecTarget, Session};
use aitax_models::graph::GraphBuilder;
use aitax_models::{Graph, Op};
use aitax_soc::{SocCatalog, SocId};
use aitax_tensor::DType;
use std::sync::Arc;

/// An arbitrary (but valid) operator.
fn arb_op(rng: &mut SimRng) -> Op {
    match rng.uniform_u64(0, 10) {
        0 => Op::Conv2d {
            in_h: rng.uniform_u64(1, 64) as usize,
            in_w: rng.uniform_u64(1, 64) as usize,
            in_c: rng.uniform_u64(1, 32) as usize,
            out_c: rng.uniform_u64(1, 32) as usize,
            k: rng.uniform_u64(1, 5) as usize,
            stride: rng.uniform_u64(1, 3) as usize,
        },
        1 => Op::DepthwiseConv2d {
            in_h: rng.uniform_u64(1, 64) as usize,
            in_w: rng.uniform_u64(1, 64) as usize,
            c: rng.uniform_u64(1, 64) as usize,
            k: rng.uniform_u64(1, 5) as usize,
            stride: 1,
        },
        2 => Op::FullyConnected {
            in_features: rng.uniform_u64(1, 2048) as usize,
            out_features: rng.uniform_u64(1, 2048) as usize,
        },
        3 => Op::Add {
            elements: rng.uniform_u64(1, 10_000) as usize,
        },
        4 => Op::Softmax {
            n: rng.uniform_u64(1, 10_000) as usize,
        },
        5 => Op::Reshape {
            elements: rng.uniform_u64(1, 10_000) as usize,
        },
        6 => Op::MatMul {
            m: rng.uniform_u64(1, 512) as usize,
            k: rng.uniform_u64(1, 512) as usize,
            n: rng.uniform_u64(1, 512) as usize,
            weights: true,
        },
        7 => Op::DetectionPostProcess {
            anchors: rng.uniform_u64(1, 100) as usize,
            classes: rng.uniform_u64(1, 50) as usize,
        },
        8 => Op::ResizeBilinear {
            out_h: rng.uniform_u64(1, 64) as usize,
            out_w: rng.uniform_u64(1, 64) as usize,
            c: rng.uniform_u64(1, 32) as usize,
        },
        _ => Op::Mean {
            elements: rng.uniform_u64(1, 100_000) as usize,
        },
    }
}

#[expect(clippy::expect_used, reason = "a random graph has at least one op")]
fn arb_graph(rng: &mut SimRng) -> Graph {
    let n = rng.uniform_u64(1, 60) as usize;
    let ops: Vec<Op> = (0..n).map(|_| arb_op(rng)).collect();
    let per_channel = rng.chance(0.5);
    GraphBuilder::new("random", DType::I8, 1000)
        .extend(ops)
        .finish()
        .expect("non-empty")
        .with_per_channel_quant(per_channel)
}

#[expect(clippy::expect_used, reason = "a compile failure fails the test")]
fn assert_plan_sound(graph: &Graph, engine: Engine) {
    let soc = SocCatalog::get(SocId::Sd845);
    let session = Session::compile(engine, Arc::new(graph.clone()), soc).expect("compiles");
    let plan = session.plan();
    // 1. Partitions tile the graph exactly: no gaps, overlaps or
    //    reordering.
    let mut cursor = 0usize;
    for p in &plan.partitions {
        assert_eq!(p.ops.0, cursor, "gap/overlap at {cursor}");
        assert!(p.ops.1 > p.ops.0, "empty partition");
        cursor = p.ops.1;
    }
    assert_eq!(cursor, graph.len(), "ops uncovered");
    // 2. MACs are conserved.
    let macs: u64 = plan.partitions.iter().map(|p| p.macs).sum();
    assert_eq!(macs, graph.total_macs());
    // 3. Adjacent partitions never share a target (maximal runs).
    for w in plan.partitions.windows(2) {
        assert_ne!(
            std::mem::discriminant(&w[0].target),
            std::mem::discriminant(&w[1].target)
        );
    }
    // 4. Custom ops never land on an accelerator.
    for p in &plan.partitions {
        if matches!(p.target, ExecTarget::Dsp { .. } | ExecTarget::Gpu { .. }) {
            for node in &graph.nodes()[p.ops.0..p.ops.1] {
                assert!(
                    !matches!(node.op.kind(), aitax_models::OpKind::DetectionPostProcess),
                    "DetectionPostProcess offloaded"
                );
            }
        }
    }
}

#[test]
fn nnapi_plans_are_sound() {
    let mut rng = SimRng::seed_from(0xF4A7_0001);
    for _ in 0..48 {
        assert_plan_sound(&arb_graph(&mut rng), Engine::nnapi());
    }
}

#[test]
fn hexagon_plans_are_sound() {
    let mut rng = SimRng::seed_from(0xF4A7_0002);
    for _ in 0..48 {
        assert_plan_sound(&arb_graph(&mut rng), Engine::TfLiteHexagon { threads: 4 });
    }
}

#[test]
fn gpu_plans_are_sound() {
    let mut rng = SimRng::seed_from(0xF4A7_0003);
    for _ in 0..48 {
        let g = arb_graph(&mut rng).with_dtype(DType::F32);
        assert_plan_sound(&g, Engine::TfLiteGpu { threads: 4 });
    }
}

/// Per-channel quantized graphs on SD845 NNAPI never reach the DSP.
#[test]
fn per_channel_never_reaches_dsp_on_sd845() {
    let mut rng = SimRng::seed_from(0xF4A7_0004);
    for case in 0..48 {
        let g = arb_graph(&mut rng).with_per_channel_quant(true);
        let soc = SocCatalog::get(SocId::Sd845);
        let session = Session::compile(Engine::nnapi(), Arc::new(g), soc).unwrap();
        for p in &session.plan().partitions {
            let on_dsp = matches!(p.target, ExecTarget::Dsp { .. });
            assert!(
                !on_dsp,
                "case {case}: per-channel partition reached the DSP"
            );
        }
    }
}

/// Every plan executes to completion on a machine (no deadlocks, no
/// lost callbacks), and takes strictly positive simulated time.
#[test]
fn plans_execute_to_completion() {
    use aitax_kernel::Machine;
    use std::cell::Cell;
    let mut rng = SimRng::seed_from(0xF4A7_0005);
    for case in 0..48 {
        let graph = arb_graph(&mut rng);
        let seed = rng.next_u64();
        let soc = SocCatalog::get(SocId::Sd845);
        let session = Session::compile(Engine::nnapi(), Arc::new(graph), soc).unwrap();
        let mut m = Machine::new(SocCatalog::get(SocId::Sd845), seed);
        let done = std::rc::Rc::new(Cell::new(false));
        let d = done.clone();
        session.invoke(&mut m, move |_| d.set(true));
        m.run_until_idle();
        assert!(done.get(), "case {case}: invoke never completed");
        assert!(m.now().as_ns() > 0, "case {case}");
        assert_eq!(m.cpu_load(), 0, "case {case}");
    }
}
