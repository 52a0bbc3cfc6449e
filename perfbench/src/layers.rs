//! Layer probes shared by the workloads: uncached setup builds, the
//! kernel and degradation counters of pipeline runs, and the stage
//! windows the energy meter prices.

use std::sync::Arc;

use aitax_core::{E2eReport, RunMode, Stage};
use aitax_des::SimTime;
use aitax_framework::{Engine, Session};
use aitax_models::zoo::{ModelId, Zoo};
use aitax_soc::{SocCatalog, SocId};
use aitax_tensor::DType;

use crate::measure::{add, Layers, Stopwatch};

/// One compiled-plan cache key: what `Session::compile_cached` memoizes.
pub type PlanKey = (Engine, ModelId, DType, SocId);

/// Adds `key` unless already present (keys are few; order is kept).
pub fn push_key(keys: &mut Vec<PlanKey>, key: PlanKey) {
    if !keys.contains(&key) {
        keys.push(key);
    }
}

/// Fills the process-wide graph and plan caches for `keys` — the cold
/// half of set-up.
pub fn warm(keys: &[PlanKey]) {
    for &(engine, model, dtype, soc) in keys {
        // aitax-allow(panic-path): every key is one the product compiles for this workload
        Session::compile_cached(engine, model, dtype, soc).expect("workload keys compile");
    }
}

/// Times what the caches hide: building every distinct graph and
/// compiling every plan of `keys` from scratch.
pub fn setup_builds(keys: &[PlanKey], layers: &mut Layers) {
    let mut graphs: Vec<(ModelId, DType)> = Vec::new();
    let mut graph_ms = 0.0;
    let mut plan_ms = 0.0;
    for &(engine, model, dtype, soc) in keys {
        let t = Stopwatch::start();
        let graph = Arc::new(Zoo::entry(model).build_graph_with(dtype));
        let built_ms = t.ms();
        if !graphs.contains(&(model, dtype)) {
            graphs.push((model, dtype));
            graph_ms += built_ms;
        }
        let t = Stopwatch::start();
        let session = Session::compile(engine, graph, SocCatalog::get(soc));
        plan_ms += t.ms();
        // aitax-allow(panic-path): every key is one the product compiles for this workload
        session.expect("workload keys compile");
    }
    layers.insert("setup.graph_build_ms", graph_ms);
    layers.insert("setup.plan_compile_ms", plan_ms);
    layers.insert("setup.plan_keys", keys.len() as f64);
}

/// Adds a pipeline run's machine and degradation counters.
pub fn add_counters(layers: &mut Layers, r: &E2eReport) {
    let s = &r.stats;
    for (name, v) in [
        ("kernel.tasks_completed", s.tasks_completed),
        ("kernel.context_switches", s.context_switches),
        ("kernel.migrations", s.migrations),
        ("kernel.preemptions", s.preemptions),
        ("kernel.rpc_calls", s.rpc_calls),
        ("kernel.dsp_jobs", s.dsp_jobs),
        ("kernel.gpu_jobs", s.gpu_jobs),
        ("kernel.npu_jobs", s.npu_jobs),
        ("kernel.axi_bytes", s.axi_bytes),
    ] {
        add(layers, name, v as f64);
    }
    let d = &r.degradation.stats;
    add(
        layers,
        "degradation.faults_injected",
        d.faults_injected as f64,
    );
    add(layers, "degradation.rpc_retries", d.rpc_retries as f64);
    add(layers, "degradation.cpu_fallbacks", d.cpu_fallbacks as f64);
}

/// The `(stage, start, end)` windows a traced run recorded, rebuilt from
/// its per-iteration breakdowns: stages run back to back from the end of
/// model initialization, and CLI mode records no UI stage. Returns the
/// windows and the run's end.
pub fn stage_windows(r: &E2eReport, mode: RunMode) -> (Vec<(Stage, SimTime, SimTime)>, SimTime) {
    let mut t = SimTime::ZERO + r.model_init;
    let mut windows = Vec::with_capacity(r.tax.iterations() * Stage::ALL.len());
    for b in r.tax.breakdowns() {
        for stage in Stage::ALL {
            if stage == Stage::UiOverhead && mode.ui_overhead_cycles() <= 0.0 {
                continue;
            }
            let end = t + b.stage(stage);
            windows.push((stage, t, end));
            t = end;
        }
    }
    (windows, t)
}
