//! `fleet-mix`: sampled device populations through the fleet runner.
//!
//! Round `r` is one whole fleet run: a population of [`DEVICES`] devices
//! drawn with the headline mixes (3% faulty) under a seed derived from
//! `(workload seed, r)`, one device per pool task on 2 workers, then
//! aggregation and artifact rendering to memory. Every device runs in
//! app mode: camera capture, Android noise, background loops, injected
//! faults and a traced energy probe.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aitax_core::pipeline::E2eConfig;
use aitax_core::{EnergyReport, RunMode, SimContext, StreamDist};
use aitax_des::fault::FaultPlan;
use aitax_des::{SimRng, SimTime};
use aitax_fleet::device::{BACKGROUND_ENGINE, PROBE_TRACE_EVENTS};
use aitax_fleet::population::{ExecPath, CHIPSET_MIX, WORKLOADS};
use aitax_fleet::{
    bench_json, fleet_csv, fleet_json, run_device_in, run_fleet, DevicePartial, DeviceSpec,
    FleetReport, PopulationSpec, ShardPlan, PROBE_ITERS,
};
use aitax_lab::agg::DegradationTotals;
use aitax_lab::run_tasks_ctx;
use aitax_soc::SocCatalog;

use crate::layers::{add_counters, push_key, setup_builds, stage_windows, warm, PlanKey};
use crate::measure::{
    add, digest_debug, digest_strs, median, span_ms, unit_digests, Layers, PoolUse, Round, Span,
    Stopwatch, Tracer,
};
use crate::Workload;

/// Devices per round.
pub const DEVICES: usize = 128;
/// Requests each device serves.
pub const REQUESTS_PER_DEVICE: u64 = 30;
/// Share of devices carrying a sustained fault (the headline rate).
pub const FAULT_RATE: f64 = 0.03;
/// Pool workers.
pub const THREADS: usize = 2;

pub struct FleetMix {
    seed: u64,
    round0: PopulationSpec,
    keys: Vec<PlanKey>,
}

fn population(seed: u64, r: usize) -> PopulationSpec {
    PopulationSpec::new(format!("fleet-mix-{r}"))
        .devices(DEVICES)
        .seed(SimRng::seed_from(seed).derive(r as u64).next_u64())
        .fault_rate(FAULT_RATE)
}

fn total_requests() -> u64 {
    DEVICES as u64 * REQUESTS_PER_DEVICE
}

/// Every plan a device of the mix can compile: each workload on each
/// chipset, its battery-saver CPU variant, and the background engine.
fn plan_keys() -> Vec<PlanKey> {
    let mut keys = Vec::new();
    for (soc, _) in CHIPSET_MIX {
        for w in WORKLOADS {
            push_key(&mut keys, (w.path.engine_for(soc), w.model, w.dtype, soc));
            if let ExecPath::Cpu(threads) = w.path {
                let saver = ExecPath::Cpu(threads.min(2));
                push_key(&mut keys, (saver.engine_for(soc), w.model, w.dtype, soc));
            }
            push_key(&mut keys, (BACKGROUND_ENGINE, w.model, w.dtype, soc));
        }
    }
    keys
}

/// The device's run configuration, as the fleet runner builds it.
fn device_config(d: &DeviceSpec, iterations: usize, seed: u64) -> E2eConfig {
    let mut cfg = E2eConfig::new(d.model, d.dtype)
        .engine(d.engine)
        .run_mode(RunMode::AndroidApp)
        .soc(d.soc)
        .iterations(iterations)
        .seed(seed)
        .initial_temp(d.ambient_c);
    if let Some(co) = d.co_tenant {
        cfg = cfg.background(d.background_loops + 1, co.engine);
    } else if d.background_loops > 0 {
        cfg = cfg.background(d.background_loops, BACKGROUND_ENGINE);
    }
    if let Some((kind, start_ns)) = d.fault {
        cfg = cfg.fault_plan(FaultPlan::new(seed).sustained(kind, SimTime::from_ns(start_ns)));
    }
    cfg
}

fn probe_config(d: &DeviceSpec) -> E2eConfig {
    device_config(d, PROBE_ITERS, d.probe_seed)
        .tracing(true)
        .trace_bound(PROBE_TRACE_EVENTS)
}

/// What a traced device hands back besides its partial.
struct TracedUnit {
    partial: Option<DevicePartial>,
    layers: Layers,
    checkout_us: f64,
    spans: Vec<Span>,
}

impl FleetMix {
    /// Device `k` re-derived through the population, pipeline and trace
    /// layers' public calls, with a span around each.
    fn traced_device(&self, ctx: &mut SimContext, tracer: &Tracer, k: usize) -> TracedUnit {
        let spec = &self.round0;
        let unit = k as u64;
        let mut spans = Vec::new();
        let mut layers = Layers::new();
        let start = tracer.now_ns();
        let d = tracer.span(
            &mut spans,
            "population.sample",
            "fleet.device",
            unit,
            || spec.device(k),
        );
        let requests = spec.requests_for(k, total_requests());
        let mut p = DevicePartial {
            device_id: k,
            soc: d.soc,
            band: d.band,
            engine_label: d.engine.label(),
            requests,
            latency: StreamDist::new(),
            tax_fraction: 0.0,
            model_init_ms: 0.0,
            energy_mj: 0.0,
            energy_tax: 0.0,
            mean_power_w: 0.0,
            degradation: DegradationTotals::default(),
        };
        if requests > 0 {
            let main = tracer.span(&mut spans, "pipeline.run", "fleet.device", unit, || {
                device_config(&d, requests as usize, d.run_seed).run_in(ctx)
            });
            for &ms in main.e2e_summary().samples_ms() {
                p.latency.record(ms);
            }
            p.tax_fraction = main.ai_tax_fraction();
            p.model_init_ms = main.model_init.as_ms();
            let stats = &main.degradation.stats;
            p.degradation = DegradationTotals {
                faults_injected: stats.faults_injected,
                rpc_retries: stats.rpc_retries,
                rpc_giveups: stats.rpc_giveups,
                cpu_fallbacks: stats.cpu_fallbacks,
                added_tax_ms: main.degradation.added_tax_ms,
            };
            add_counters(&mut layers, &main);
            add(&mut layers, "pipeline.requests", requests as f64);

            let probe = tracer.span(&mut spans, "trace.probe", "fleet.device", unit, || {
                probe_config(&d).run_in(ctx)
            });
            if let Some(e) = probe.energy.as_ref() {
                p.energy_mj = e.energy_per_inference_j() * 1e3;
                p.energy_tax = e.energy_tax_fraction();
                p.mean_power_w = e.mean_power_w();
            }
            let events = probe.trace.as_ref().map_or(0, |t| t.len());
            add(&mut layers, "trace.events", events as f64);
        }
        // The next unit on this worker starts from a warm reset of the
        // machine this device dirtied.
        let t = Stopwatch::start();
        ctx.checkout(d.soc, d.run_seed);
        let checkout_us = t.ms() * 1e3;
        tracer.close(&mut spans, "fleet.device", "", unit, start);
        TracedUnit {
            partial: Some(p),
            layers,
            checkout_us,
            spans,
        }
    }
}

impl Workload for FleetMix {
    const SAME_INPUTS_EVERY_ROUND: bool = false;

    fn setup(seed: u64) -> FleetMix {
        let round0 = population(seed, 0);
        let keys = plan_keys();
        warm(&keys);
        let mut ctx = SimContext::new();
        for (soc, _) in CHIPSET_MIX {
            ctx.checkout(soc, seed);
        }
        FleetMix { seed, round0, keys }
    }

    fn round(&self, r: usize) -> Round {
        let spec = if r == 0 {
            self.round0.clone()
        } else {
            population(self.seed, r)
        };
        let total = total_requests();
        let t0 = Stopwatch::start();
        let ranges = ShardPlan::new(spec.devices, spec.devices).ranges();
        let per_task: Vec<Vec<(f64, Option<DevicePartial>)>> =
            run_tasks_ctx(ranges, THREADS, SimContext::new, |ctx, range| {
                range
                    .clone()
                    .map(|k| {
                        let t = Stopwatch::start();
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            run_device_in(ctx, &spec.device(k), spec.requests_for(k, total))
                        }));
                        if run.is_err() {
                            *ctx = SimContext::new();
                        }
                        (t.ms(), run.ok())
                    })
                    .collect()
            });
        let (unit_ms, outputs): (Vec<f64>, Vec<Option<DevicePartial>>) =
            per_task.into_iter().flatten().unzip();
        let panicked: Vec<bool> = outputs.iter().map(Option::is_none).collect();
        let partials: Vec<DevicePartial> = outputs.into_iter().flatten().collect();
        let report = FleetReport::aggregate(&spec, &partials);
        let artifacts = [fleet_json(&report), fleet_csv(&report), bench_json(&report)];
        let wall_s = t0.secs();
        Round {
            unit_ms,
            unit_digest: unit_digests(&panicked, &partials),
            requests: report.requests,
            wall_s,
            artifact_digest: digest_strs(&artifacts.each_ref().map(String::as_str)),
            failed: panicked.len() - partials.len(),
        }
    }

    fn entry_point(&self, r: usize) -> Vec<u64> {
        let spec = population(self.seed, r);
        run_fleet(&spec, total_requests(), spec.devices, THREADS)
            .iter()
            .map(digest_debug)
            .collect()
    }

    fn traced(&self, tracer: &Tracer, reference: &Round) -> (Round, Layers) {
        let spec = &self.round0;
        let t0 = Stopwatch::start();
        let pool_start = tracer.now_ns();
        let ranges = ShardPlan::new(spec.devices, spec.devices).ranges();
        let per_task: Vec<Vec<(f64, TracedUnit)>> =
            run_tasks_ctx(ranges, THREADS, SimContext::new, |ctx, range| {
                range
                    .clone()
                    .map(|k| {
                        let t = Stopwatch::start();
                        let unit =
                            catch_unwind(AssertUnwindSafe(|| self.traced_device(ctx, tracer, k)));
                        let mut unit = unit.unwrap_or_else(|_| {
                            *ctx = SimContext::new();
                            TracedUnit {
                                partial: None,
                                layers: Layers::new(),
                                checkout_us: 0.0,
                                spans: Vec::new(),
                            }
                        });
                        tracer.flush(&mut unit.spans);
                        (t.ms(), unit)
                    })
                    .collect()
            });
        let pool_end = tracer.now_ns();
        let units: Vec<(f64, TracedUnit)> = per_task.into_iter().flatten().collect();
        let partials: Vec<DevicePartial> = units
            .iter()
            .filter_map(|(_, u)| u.partial.clone())
            .collect();
        let mut spans = Vec::new();
        let report = tracer.span(&mut spans, "agg.fold", "", 0, || {
            FleetReport::aggregate(spec, &partials)
        });
        let artifacts = tracer.span(&mut spans, "agg.render", "", 0, || {
            [fleet_json(&report), fleet_csv(&report), bench_json(&report)]
        });
        let wall_s = t0.secs();
        tracer.flush(&mut spans);

        let unit_digest: Vec<u64> = units
            .iter()
            .map(|(_, u)| u.partial.as_ref().map_or(0, digest_debug))
            .collect();
        let round = Round {
            unit_ms: units.iter().map(|(ms, _)| *ms).collect(),
            failed: units.iter().filter(|(_, u)| u.partial.is_none()).count(),
            unit_digest,
            requests: report.requests,
            wall_s,
            artifact_digest: digest_strs(&artifacts.each_ref().map(String::as_str)),
        };

        let mut layers = Layers::new();
        for (_, u) in &units {
            for (&name, &v) in &u.layers {
                add(&mut layers, name, v);
            }
        }
        let checkouts: Vec<f64> = units.iter().map(|(_, u)| u.checkout_us).collect();
        layers.insert("setup.checkout_us_p50", median(&checkouts));
        let recorded = tracer.snapshot();
        let pool = PoolUse::from_spans(&recorded, &["fleet.device"], THREADS, pool_start, pool_end);
        pool.record(&mut layers);
        let device_ms = span_ms(&recorded, "fleet.device");
        let probe_ms = span_ms(&recorded, "trace.probe");
        layers.insert("pipeline.run_ms", span_ms(&recorded, "pipeline.run"));
        layers.insert("trace.probe_ms", probe_ms);
        layers.insert("trace.probe_share", probe_ms / device_ms);
        layers.insert(
            "population.sample_us",
            span_ms(&recorded, "population.sample") * 1e3 / DEVICES as f64,
        );
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
        // App mode captures from the camera: no random-tensor generation.
        layers.insert("capture.randgen_ms", 0.0);
        layers.insert("capture.elements", 0.0);

        // The energy probe of every round-0 device, untraced and traced,
        // then its trace re-priced by the energy meter.
        let mut failed = 0;
        let (mut plain_ms, mut traced_ms, mut meter_ms) = (0.0, 0.0, 0.0);
        let mut ctx = SimContext::new();
        for k in 0..DEVICES {
            if self.round0.requests_for(k, total_requests()) == 0 {
                continue;
            }
            let d = self.round0.device(k);
            let t = Stopwatch::start();
            let plain = device_config(&d, PROBE_ITERS, d.probe_seed).run_in(&mut ctx);
            plain_ms += t.ms();
            let t = Stopwatch::start();
            let traced = probe_config(&d).run_in(&mut ctx);
            traced_ms += t.ms();
            // Tracing must not perturb the simulation.
            if plain.tax != traced.tax {
                failed += 1;
            }
            let (Some(trace), Some(energy)) = (traced.trace.as_ref(), traced.energy.as_ref())
            else {
                failed += 1;
                continue;
            };
            let (windows, end) = stage_windows(&traced, RunMode::AndroidApp);
            let t = Stopwatch::start();
            let repriced = EnergyReport::from_trace(
                &SocCatalog::get(d.soc).power,
                trace,
                &windows,
                traced.tax.iterations(),
                end,
            );
            meter_ms += t.ms();
            if &repriced != energy {
                failed += 1;
            }
        }
        layers.insert("trace.record_overhead", traced_ms / plain_ms - 1.0);
        layers.insert("energy.meter_ms", meter_ms);
        failed
    }
}
