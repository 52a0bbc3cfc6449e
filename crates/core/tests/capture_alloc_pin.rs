//! Pins CLI-benchmark capture as **cost-only**: the driver prices the
//! random input tensor through `StdlibFlavor::input_cycles` and never
//! builds it. A counting global allocator records the largest single
//! allocation of each warm run; it must stay below `input_elements`
//! bytes, which is smaller than any input tensor of any dtype (an I8
//! tensor is exactly that size, an F32 one four times it).
//!
//! Runs go through one reused `SimContext` after a warm-up pass, so the
//! graph/plan caches and the machine are already built and the measured
//! window holds only per-run work.
//!
//! This file intentionally holds a single `#[test]`: the allocation
//! high-water mark is process-global, and a sibling test running on
//! another thread would bleed its allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use aitax_capture::StdlibFlavor;
use aitax_core::pipeline::E2eConfig;
use aitax_core::SimContext;
use aitax_framework::Engine;
use aitax_models::cache::cached_graph;
use aitax_models::zoo::ModelId;
use aitax_tensor::DType;

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

fn config(model: ModelId, dtype: DType, flavor: StdlibFlavor) -> E2eConfig {
    E2eConfig::new(model, dtype)
        .engine(Engine::tflite_cpu(4))
        .stdlib(flavor)
        .iterations(3)
        .seed(5)
}

#[test]
fn cli_capture_never_allocates_an_input_tensor() {
    let mut cells = Vec::new();
    for model in [ModelId::InceptionV3, ModelId::MobileNetV1] {
        for dtype in [DType::F32, DType::I8] {
            for flavor in [StdlibFlavor::LibCxx, StdlibFlavor::LibStdCxx] {
                cells.push((model, dtype, flavor));
            }
        }
    }

    let mut ctx = SimContext::new();
    for &(model, dtype, flavor) in &cells {
        config(model, dtype, flavor).run_in(&mut ctx);
    }

    for (model, dtype, flavor) in cells {
        let limit = cached_graph(model, dtype).input_elements() as usize;
        let cfg = config(model, dtype, flavor);
        LARGEST.store(0, Ordering::Relaxed);
        let report = cfg.run_in(&mut ctx);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert_eq!(report.tax.iterations(), 3);
        assert!(
            largest < limit,
            "{model} {dtype} {flavor:?}: a warm CLI-benchmark run made a \
             {largest} B allocation, not below the {limit}-element input; \
             capture must price the tensor, not build it"
        );
    }
}
