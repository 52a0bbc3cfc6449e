//! `serve-contention`: the contention tenant mix through solo-vs-mix
//! attribution.
//!
//! Round `r` attributes [`SEEDS_PER_ROUND`] seeds derived from
//! `(workload seed, r)`. Each seed runs the `contention` mix with every
//! tenant's request count multiplied by [`REQUEST_SCALE`]: its N solo
//! baselines and the mix are 4 very uneven tasks on a 2-worker pool,
//! exactly as `run_report` schedules them, followed by attribution and
//! artifact rendering to memory. Every simulation boots its own machine.
//!
//! A unit is one seed: the scenario wall time a `serve` user waits for.
//! Single simulations come in four fixed size classes (one per task), so
//! their median would sit in the gap between two classes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aitax_des::SimRng;
use aitax_lab::run_tasks;
use aitax_serve::artifact::{bench_json, serve_csv, serve_json};
use aitax_serve::{
    attribute, run_report, run_scenario, scenarios, ScenarioRun, ServeConfig, ServeReport,
};

use crate::layers::{push_key, setup_builds, warm, PlanKey};
use crate::measure::{
    add, digest_debug, maybe_span, span_ms, Fnv, Layers, PoolUse, Round, Span, Stopwatch, Tracer,
};
use crate::Workload;

/// Seeds attributed per round.
pub const SEEDS_PER_ROUND: usize = 8;
/// Factor on every tenant's request count.
pub const REQUEST_SCALE: usize = 4;
/// Pool workers.
pub const THREADS: usize = 2;

pub struct ServeContention {
    seed: u64,
    round0: Vec<ServeConfig>,
    keys: Vec<PlanKey>,
}

fn configs(seed: u64, r: usize) -> Vec<ServeConfig> {
    let root = SimRng::seed_from(seed);
    (0..SEEDS_PER_ROUND)
        .map(|i| {
            let mut cfg = scenarios::contention()
                .seed(root.derive((r * SEEDS_PER_ROUND + i) as u64).next_u64());
            for t in &mut cfg.tenants {
                t.requests *= REQUEST_SCALE;
            }
            cfg
        })
        .collect()
}

/// The N solo baselines, then the mix: `run_report`'s task list.
fn tasks(cfg: &ServeConfig) -> Vec<Option<usize>> {
    (0..cfg.tenants.len())
        .map(Some)
        .chain(std::iter::once(None))
        .collect()
}

/// Requests the runs completed, solos and mix together.
fn completed(runs: &[ScenarioRun]) -> u64 {
    runs.iter()
        .flat_map(|r| &r.tenants)
        .map(|t| t.completed.len() as u64)
        .sum()
}

/// Whether attribution conserved the added latency:
/// Σ caused + Σ self == added.
fn conserves(report: &ServeReport) -> bool {
    let attributed: f64 = report.tenants.iter().map(|t| t.caused_ms + t.self_ms).sum();
    (attributed - report.added_ms).abs() <= 1e-9 * report.added_ms.abs().max(1.0)
}

/// Runs round `r`'s seeds, one unit each. With a tracer, spans go around
/// the simulations, attribution and rendering, and the serve-layer
/// counters of the mix runs are collected.
fn run_round(cfgs: &[ServeConfig], tracer: Option<&Tracer>) -> (Round, Layers, PoolUse) {
    let t0 = Stopwatch::start();
    let mut round = Round::default();
    let mut artifacts = Fnv::new();
    let mut layers = Layers::new();
    let mut pool = PoolUse::default();
    let mut spans: Vec<Span> = Vec::new();
    for (i, cfg) in cfgs.iter().enumerate() {
        let unit = i as u64;
        let t = Stopwatch::start();
        let pool_start = tracer.map_or(0, Tracer::now_ns);
        let sims: Vec<Option<ScenarioRun>> = run_tasks(tasks(cfg), THREADS, |only| {
            let mut local = Vec::new();
            let name = if only.is_some() {
                "serve.solo"
            } else {
                "serve.mix"
            };
            let run = maybe_span(tracer, &mut local, name, "serve.seed", unit, || {
                catch_unwind(AssertUnwindSafe(|| run_scenario(cfg, *only))).ok()
            });
            if let Some(tr) = tracer {
                tr.flush(&mut local);
            }
            run
        });
        if let Some(tr) = tracer {
            let now = tr.now_ns();
            let tasks = ["serve.solo", "serve.mix"];
            pool.merge(PoolUse::from_spans(
                &tr.snapshot(),
                &tasks,
                THREADS,
                pool_start,
                now,
            ));
        }
        let runs: Vec<ScenarioRun> = sims.into_iter().flatten().collect();
        let ok = runs.len() == cfg.tenants.len() + 1;
        if ok {
            let report = maybe_span(tracer, &mut spans, "agg.fold", "serve.seed", unit, || {
                attribute(cfg, &runs)
            });
            let rendered = maybe_span(tracer, &mut spans, "agg.render", "serve.seed", unit, || {
                [serve_json(&report), serve_csv(&report), bench_json(&report)]
            });
            for a in &rendered {
                artifacts.write(a.as_bytes());
                add(&mut layers, "agg.artifact_bytes", a.len() as f64);
            }
            if !conserves(&report) {
                round.failed += 1;
            }
            round.requests += completed(&runs);
        } else {
            round.failed += 1;
        }
        round.unit_ms.push(t.ms());
        round
            .unit_digest
            .push(if ok { digest_debug(&runs) } else { 0 });
        if let (Some(mix), true) = (runs.last(), ok) {
            let tenants = &mix.tenants;
            let mix_completed = tenants
                .iter()
                .map(|t| t.completed.len() as u64)
                .sum::<u64>();
            add(&mut layers, "serve.completed", mix_completed as f64);
            add(
                &mut layers,
                "serve.shed",
                tenants.iter().map(|t| t.shed).sum::<u64>() as f64,
            );
            let bursts = tenants.iter().map(|t| t.burst_continuations).sum::<u64>();
            add(&mut layers, "serve.burst_continuations", bursts as f64);
            add(&mut layers, "serve.membw_queued", mix.membw_queued as f64);
            add(&mut layers, "serve.blame_pairs", mix.blame_ms.len() as f64);
        }
    }
    round.wall_s = t0.secs();
    round.artifact_digest = artifacts.finish();
    if let Some(tr) = tracer {
        tr.flush(&mut spans);
    }
    (round, layers, pool)
}

impl Workload for ServeContention {
    const SAME_INPUTS_EVERY_ROUND: bool = false;

    fn setup(seed: u64) -> ServeContention {
        let round0 = configs(seed, 0);
        let mut keys = Vec::new();
        for t in &round0[0].tenants {
            push_key(&mut keys, (t.engine, t.model, t.dtype, round0[0].soc));
        }
        warm(&keys);
        ServeContention { seed, round0, keys }
    }

    fn round(&self, r: usize) -> Round {
        if r == 0 {
            run_round(&self.round0, None).0
        } else {
            run_round(&configs(self.seed, r), None).0
        }
    }

    fn entry_point(&self, r: usize) -> Vec<u64> {
        configs(self.seed, r)
            .iter()
            .map(|cfg| digest_debug(&run_report(cfg, THREADS).1))
            .collect()
    }

    fn traced(&self, tracer: &Tracer, reference: &Round) -> (Round, Layers) {
        let (round, mut layers, pool) = run_round(&self.round0, Some(tracer));
        let recorded = tracer.snapshot();
        pool.record(&mut layers);
        let mix_ms = span_ms(&recorded, "serve.mix");
        let mix_completed = layers.get("serve.completed").copied().unwrap_or(0.0);
        layers.insert("serve.solo_ms", span_ms(&recorded, "serve.solo"));
        layers.insert("serve.mix_ms", mix_ms);
        layers.insert("serve.mix_us_per_request", mix_ms * 1e3 / mix_completed);
        layers.insert("agg.fold_ms", span_ms(&recorded, "agg.fold"));
        layers.insert("agg.render_ms", span_ms(&recorded, "agg.render"));
        let failed = round.failed + round.mismatches(&reference.unit_digest);
        (Round { failed, ..round }, layers)
    }

    fn probes(&self, layers: &mut Layers) -> usize {
        setup_builds(&self.keys, layers);
        // Serving inputs arrive model-shaped and runs are untraced.
        layers.insert("capture.randgen_ms", 0.0);
        layers.insert("capture.elements", 0.0);
        layers.insert("trace.record_overhead", 0.0);
        layers.insert("energy.meter_ms", 0.0);
        0
    }
}
