//! `lab-table1`: the Table I grid through the sweep engine.
//!
//! Every zoo model × CPU dtype in CLI-benchmark mode, untraced, each
//! scenario repeated [`REPEATS`] times per round with short jobs of
//! [`ITERATIONS`] iterations. The grid runs at 1 thread, on the pool's
//! inline serial path, so one machine is reset between many short jobs
//! and every iteration fills a whole random input tensor. Every round
//! runs the same jobs, so every round must reproduce round 0 exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aitax_capture::{RandomTensorGen, StdlibFlavor};
use aitax_core::pipeline::E2eConfig;
use aitax_core::{SimContext, Stage};
use aitax_lab::{
    bench_json, run_jobs, run_tasks_ctx, scenarios, sweep_csv, sweep_json, Grid, JobResult,
    JobSpec, SweepReport,
};
use aitax_models::cache::cached_graph;

use crate::layers::{add_counters, push_key, setup_builds, warm, PlanKey};
use crate::measure::{
    add, digest_debug, digest_strs, median, span_ms, unit_digests, Layers, PoolUse, Round, Span,
    Stopwatch, Tracer,
};
use crate::Workload;

/// Pipeline iterations per job.
pub const ITERATIONS: usize = 6;
/// Seeded repeats of each scenario per round.
pub const REPEATS: usize = 3;
/// The inline serial path.
pub const THREADS: usize = 1;

pub struct LabTable1 {
    grid: Grid,
    jobs: Vec<JobSpec>,
    keys: Vec<PlanKey>,
}

/// Job `j` re-derived through the pipeline layer's public calls.
fn traced_job(
    ctx: &mut SimContext,
    tracer: &Tracer,
    spans: &mut Vec<Span>,
    layers: &mut Layers,
    j: &JobSpec,
) -> (JobResult, f64) {
    let s = &j.scenario;
    let unit = j.id as u64;
    let mut cfg = E2eConfig::new(s.model, s.dtype)
        .engine(s.engine)
        .run_mode(s.mode)
        .soc(s.soc)
        .iterations(s.iterations)
        .seed(j.seed)
        .preproc_on_dsp(s.preproc_on_dsp)
        .tracing(s.tracing);
    if let Some((count, engine)) = s.background {
        cfg = cfg.background(count, engine);
    }
    if let Some(fault) = &s.fault {
        cfg = cfg.fault_plan(fault.plan(j.seed));
    }
    let r = tracer.span(spans, "pipeline.run", "lab.job", unit, || cfg.run_in(ctx));
    add_counters(layers, &r);
    add(layers, "pipeline.requests", r.tax.iterations() as f64);
    let result = JobResult {
        id: j.id,
        scenario_idx: j.scenario_idx,
        seed: j.seed,
        e2e_ms: r.e2e_summary().samples_ms().to_vec(),
        stage_ms: Stage::ALL.map(|stage| r.summary(stage).samples_ms().to_vec()),
        tax_fraction: r.ai_tax_fraction(),
        model_init_ms: r.model_init.as_ms(),
        degradation: r.degradation.stats.clone(),
        added_tax_ms: r.degradation.added_tax_ms,
        energy_mj: r.energy.as_ref().map(|e| e.energy_per_inference_j() * 1e3),
        energy_tax: r.energy.as_ref().map(|e| e.energy_tax_fraction()),
        mean_power_w: r.energy.as_ref().map(|e| e.mean_power_w()),
    };
    // The next job starts from a warm reset of the machine this one
    // dirtied.
    let t = Stopwatch::start();
    ctx.checkout(s.soc, j.seed);
    (result, t.ms() * 1e3)
}

/// A traced job's result, its warm-reset time (µs) and its counters.
type TracedJob = (JobResult, f64, Layers);

fn render(report: &SweepReport) -> [String; 3] {
    [sweep_json(report), sweep_csv(report), bench_json(report)]
}

impl Workload for LabTable1 {
    const SAME_INPUTS_EVERY_ROUND: bool = true;

    fn setup(seed: u64) -> LabTable1 {
        let grid = scenarios::table1(ITERATIONS, seed).repeats(REPEATS);
        let jobs = grid.expand();
        let mut keys = Vec::new();
        for s in grid.scenarios() {
            push_key(&mut keys, (s.engine, s.model, s.dtype, s.soc));
        }
        warm(&keys);
        let mut ctx = SimContext::new();
        for s in grid.scenarios() {
            ctx.checkout(s.soc, seed);
        }
        LabTable1 { grid, jobs, keys }
    }

    fn round(&self, _r: usize) -> Round {
        let t0 = Stopwatch::start();
        let units: Vec<(f64, Option<JobResult>)> =
            run_tasks_ctx(self.jobs.clone(), THREADS, SimContext::new, |ctx, job| {
                let t = Stopwatch::start();
                let run = catch_unwind(AssertUnwindSafe(|| job.run_in(ctx)));
                if run.is_err() {
                    *ctx = SimContext::new();
                }
                (t.ms(), run.ok())
            });
        let (unit_ms, outputs): (Vec<f64>, Vec<Option<JobResult>>) = units.into_iter().unzip();
        let panicked: Vec<bool> = outputs.iter().map(Option::is_none).collect();
        let results: Vec<JobResult> = outputs.into_iter().flatten().collect();
        let report = SweepReport::aggregate(&self.grid, &results);
        let artifacts = render(&report);
        let wall_s = t0.secs();
        Round {
            unit_ms,
            unit_digest: unit_digests(&panicked, &results),
            requests: results.iter().map(|r| r.e2e_ms.len() as u64).sum(),
            wall_s,
            artifact_digest: digest_strs(&artifacts.each_ref().map(String::as_str)),
            failed: panicked.len() - results.len(),
        }
    }

    fn entry_point(&self, _r: usize) -> Vec<u64> {
        run_jobs(self.jobs.clone(), THREADS)
            .iter()
            .map(digest_debug)
            .collect()
    }

    fn traced(&self, tracer: &Tracer, reference: &Round) -> (Round, Layers) {
        let t0 = Stopwatch::start();
        let pool_start = tracer.now_ns();
        let units: Vec<(f64, Option<TracedJob>)> =
            run_tasks_ctx(self.jobs.clone(), THREADS, SimContext::new, |ctx, job| {
                let t = Stopwatch::start();
                let start = tracer.now_ns();
                let mut spans = Vec::new();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut layers = Layers::new();
                    let (result, checkout_us) =
                        traced_job(ctx, tracer, &mut spans, &mut layers, job);
                    (result, checkout_us, layers)
                }));
                if run.is_err() {
                    *ctx = SimContext::new();
                }
                tracer.close(&mut spans, "lab.job", "", job.id as u64, start);
                tracer.flush(&mut spans);
                (t.ms(), run.ok())
            });
        let pool_end = tracer.now_ns();
        let results: Vec<JobResult> = units
            .iter()
            .filter_map(|(_, u)| u.as_ref().map(|(r, _, _)| r.clone()))
            .collect();
        let mut spans = Vec::new();
        let report = tracer.span(&mut spans, "agg.fold", "", 0, || {
            SweepReport::aggregate(&self.grid, &results)
        });
        let artifacts = tracer.span(&mut spans, "agg.render", "", 0, || render(&report));
        let wall_s = t0.secs();
        tracer.flush(&mut spans);

        let round = Round {
            unit_ms: units.iter().map(|(ms, _)| *ms).collect(),
            unit_digest: units
                .iter()
                .map(|(_, u)| u.as_ref().map_or(0, |(r, _, _)| digest_debug(r)))
                .collect(),
            requests: results.iter().map(|r| r.e2e_ms.len() as u64).sum(),
            wall_s,
            artifact_digest: digest_strs(&artifacts.each_ref().map(String::as_str)),
            failed: units.iter().filter(|(_, u)| u.is_none()).count(),
        };
        let mut layers = Layers::new();
        let mut checkouts = Vec::new();
        for (_, checkout_us, unit_layers) in units.iter().filter_map(|(_, u)| u.as_ref()) {
            checkouts.push(*checkout_us);
            for (&name, &v) in unit_layers {
                add(&mut layers, name, v);
            }
        }
        layers.insert("setup.checkout_us_p50", median(&checkouts));
        let recorded = tracer.snapshot();
        PoolUse::from_spans(&recorded, &["lab.job"], THREADS, pool_start, pool_end)
            .record(&mut layers);
        layers.insert("pipeline.run_ms", span_ms(&recorded, "pipeline.run"));
        layers.insert("agg.fold_ms", span_ms(&recorded, "agg.fold"));
        layers.insert("agg.render_ms", span_ms(&recorded, "agg.render"));
        layers.insert(
            "agg.artifact_bytes",
            artifacts.iter().map(String::len).sum::<usize>() as f64,
        );
        let failed = round.failed + round.mismatches(&reference.unit_digest);
        (Round { failed, ..round }, layers)
    }

    fn probes(&self, layers: &mut Layers) -> usize {
        setup_builds(&self.keys, layers);
        // Replay of the runner's random-tensor capture: one whole input
        // tensor per iteration, seeded as the runner seeds it.
        let t = Stopwatch::start();
        let mut elements = 0u64;
        for j in &self.jobs {
            let s = &j.scenario;
            let n = cached_graph(s.model, s.dtype).input_elements().max(1) as usize;
            let mut gen = RandomTensorGen::new(StdlibFlavor::LibCxx, j.seed ^ 0x5eed);
            for _ in 0..s.iterations {
                let (tensor, _cycles) = if s.dtype.is_quantized() {
                    gen.gen_i8(&[n])
                } else {
                    gen.gen_f32(&[n])
                };
                elements += tensor.elements() as u64;
            }
        }
        layers.insert("capture.randgen_ms", t.ms());
        layers.insert("capture.elements", elements as f64);
        // Jobs run untraced: no energy probe.
        layers.insert("trace.record_overhead", 0.0);
        layers.insert("energy.meter_ms", 0.0);
        0
    }
}
