//! Per-device execution: one latency run plus one metered energy probe.
//!
//! A device's share of the fleet's requests runs as a single
//! [`E2eConfig`] invocation in `AndroidApp` mode (the packaging real
//! fleets ship, and the only one whose frame pacing keeps million-request
//! populations CI-runnable). Metering is off for the main run — metered
//! runs record events per iteration and would make large request counts
//! memory-bound — so energy metrics come from a second, tiny probe run
//! ([`PROBE_ITERS`] iterations) under an independent derived seed. The
//! probe is metered ([`E2eConfig::energy`]): it records only the events
//! the energy meter reads and no labels, and its joules are bit-identical
//! to a fully traced probe's.

use aitax_core::pipeline::E2eConfig;
use aitax_core::{RunMode, SimContext, StreamDist};
use aitax_des::fault::FaultPlan;
use aitax_des::SimTime;
use aitax_framework::Engine;
use aitax_lab::agg::DegradationTotals;
use aitax_soc::SocId;

use crate::population::{DeviceSpec, PopulationSpec, ThermalBand};

/// Iterations of the energy-probe run.
pub const PROBE_ITERS: usize = 5;

/// Most trace events the probe reserves up front. A metered probe
/// reserves about a thousand per iteration, far below it; a fully traced
/// re-derivation of the probe reserves 8,192 per iteration. It only caps
/// the reservation: a probe that records more grows its trace, so the
/// energy report never depends on it (asserted by
/// `trace_bound_only_caps_the_reservation`).
pub const PROBE_TRACE_EVENTS: usize = 1 << 20;

/// Background inference loops run the light CPU engine.
pub const BACKGROUND_ENGINE: Engine = Engine::TfLiteCpu { threads: 2 };

/// Everything one device contributes to the aggregation — plain owned
/// data (`Send`), **never pre-merged across devices** so the aggregator
/// can fold partials in canonical device order.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePartial {
    /// Population index of the device.
    pub device_id: usize,
    /// Chipset cohort key.
    pub soc: SocId,
    /// Thermal cohort key.
    pub band: ThermalBand,
    /// Engine cohort key.
    pub engine_label: String,
    /// Requests this device served.
    pub requests: u64,
    /// Per-request end-to-end latency distribution.
    pub latency: StreamDist,
    /// Mean AI-tax fraction of the main run.
    pub tax_fraction: f64,
    /// One-time model-initialization latency (ms).
    pub model_init_ms: f64,
    /// Energy per inference from the probe run (mJ).
    pub energy_mj: f64,
    /// Non-inference share of the probe run's energy.
    pub energy_tax: f64,
    /// Mean power draw of the probe run (W).
    pub mean_power_w: f64,
    /// Fault/retry/fallback counters of the main run.
    pub degradation: DegradationTotals,
}

fn base_config(spec: &DeviceSpec, iterations: usize, seed: u64) -> E2eConfig {
    let mut cfg = E2eConfig::new(spec.model, spec.dtype)
        .engine(spec.engine)
        .run_mode(RunMode::AndroidApp)
        .soc(spec.soc)
        .iterations(iterations)
        .seed(seed)
        .initial_temp(spec.ambient_c);
    if let Some(co) = spec.co_tenant {
        // The co-resident tenant contends for the whole run: one loop
        // for the tenant itself, on its own routed engine, absorbing the
        // sampled background pressure.
        cfg = cfg.background(spec.background_loops + 1, co.engine);
    } else if spec.background_loops > 0 {
        cfg = cfg.background(spec.background_loops, BACKGROUND_ENGINE);
    }
    if let Some((kind, start_ns)) = spec.fault {
        cfg = cfg.fault_plan(FaultPlan::new(seed).sustained(kind, SimTime::from_ns(start_ns)));
    }
    cfg
}

/// Checks that `total` requests over `population` fit the simulated
/// clock. Each request consumes a distinct camera frame, so the busiest
/// device's requests times the frame interval are a floor on its
/// simulated end; that floor must not pass half of [`SimTime`]'s range,
/// the horizon `serve` holds its arrivals to. Checked without simulating,
/// so a count that could never finish fails at once.
pub fn check_requests(population: &PopulationSpec, total: u64) -> Result<(), String> {
    let busiest = population.requests_for(0, total);
    let floor = RunMode::AndroidApp.frame_floor_secs(busiest);
    let horizon = SimTime::from_ns(u64::MAX / 2).as_secs();
    if floor > horizon {
        return Err(format!(
            "{busiest} requests on one device take at least {floor:.3e} simulated s of \
             camera frames, past the {horizon:.3e} s horizon (half of the simulated \
             clock's range)"
        ));
    }
    Ok(())
}

/// Runs device `spec` for `requests` requests in a throwaway
/// [`SimContext`].
///
/// Deterministic: the partial depends only on the spec and request
/// count, never on the thread, shard, or time it ran. Devices with zero
/// requests (populations larger than the request budget) return an empty
/// partial without simulating anything.
pub fn run_device(spec: &DeviceSpec, requests: u64) -> DevicePartial {
    run_device_in(&mut SimContext::new(), spec, requests)
}

/// Runs device `spec` in `ctx`, reusing its machine when possible.
///
/// The main run and the metered energy probe share the context, so the
/// probe's machine is a reset of the main run's rather than a second
/// allocation; shard workers thread one context through every device
/// they execute. Byte-identical to [`run_device`] — context reuse only
/// skips setup work (`tests/determinism.rs` pins the fleet artifact).
pub fn run_device_in(ctx: &mut SimContext, spec: &DeviceSpec, requests: u64) -> DevicePartial {
    let mut latency = StreamDist::new();
    let mut tax_fraction = 0.0;
    let mut model_init_ms = 0.0;
    let mut degradation = DegradationTotals::default();
    let mut energy_mj = 0.0;
    let mut energy_tax = 0.0;
    let mut mean_power_w = 0.0;

    if requests > 0 {
        let main = base_config(spec, requests as usize, spec.run_seed).run_in(ctx);
        for &ms in main.e2e_summary().samples_ms() {
            latency.record(ms);
        }
        tax_fraction = main.ai_tax_fraction();
        model_init_ms = main.model_init.as_ms();
        let stats = &main.degradation.stats;
        degradation.faults_injected = stats.faults_injected;
        degradation.rpc_retries = stats.rpc_retries;
        degradation.rpc_giveups = stats.rpc_giveups;
        degradation.cpu_fallbacks = stats.cpu_fallbacks;
        degradation.added_tax_ms = main.degradation.added_tax_ms;

        let probe = base_config(spec, PROBE_ITERS, spec.probe_seed)
            .energy()
            .trace_bound(PROBE_TRACE_EVENTS)
            .run_in(ctx);
        if let Some(e) = probe.energy.as_ref() {
            energy_mj = e.energy_per_inference_j() * 1e3;
            energy_tax = e.energy_tax_fraction();
            mean_power_w = e.mean_power_w();
        }
    }

    DevicePartial {
        device_id: spec.id,
        soc: spec.soc,
        band: spec.band,
        engine_label: spec.engine.label(),
        requests,
        latency,
        tax_fraction,
        model_init_ms,
        energy_mj,
        energy_tax,
        mean_power_w,
        degradation,
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use crate::population::PopulationSpec;

    fn any_device() -> DeviceSpec {
        PopulationSpec::new("t").devices(8).seed(4).device(3)
    }

    #[test]
    fn device_run_is_deterministic() {
        let spec = any_device();
        let a = run_device(&spec, 12);
        let b = run_device(&spec, 12);
        assert_eq!(a, b, "same spec must produce identical partials");
        assert_eq!(a.latency.count(), 12);
        assert!(a.latency.min_ms() > 0.0);
        assert!(a.tax_fraction > 0.0 && a.tax_fraction < 1.0);
        assert!(a.model_init_ms > 0.0);
    }

    #[test]
    fn probe_supplies_energy_metrics() {
        let p = run_device(&any_device(), 6);
        assert!(p.energy_mj > 0.0, "probe run must meter energy");
        assert!(p.mean_power_w > 0.0);
        assert!((0.0..=1.0).contains(&p.energy_tax));
    }

    #[test]
    fn trace_bound_only_caps_the_reservation() {
        // The probe's bound sizes the up-front reservation and nothing
        // else: with it, with a bound the trace far outgrows, and without
        // one, the probe records the same events and meters the same
        // energy, traced or metered.
        let spec = any_device();
        let probe = |bound: Option<usize>| {
            let cfg = base_config(&spec, PROBE_ITERS, spec.probe_seed).tracing(true);
            match bound {
                Some(cap) => cfg.trace_bound(cap),
                None => cfg,
            }
            .run()
        };
        let unbounded = probe(None);
        let ut = unbounded.trace.as_ref().expect("probe trace present");
        let ue = unbounded.energy.as_ref().expect("probe energy present");
        for cap in [PROBE_TRACE_EVENTS, 16] {
            let bounded = probe(Some(cap));
            let bt = bounded.trace.as_ref().expect("probe trace present");
            assert!(bt.len() > 16, "the small bound must be outgrown");
            assert!(bt.iter().eq(ut.iter()), "bound {cap} changed the trace");
            let be = bounded.energy.as_ref().expect("probe energy present");
            assert_eq!(
                be.energy_per_inference_j().to_bits(),
                ue.energy_per_inference_j().to_bits(),
                "bound {cap} changed the probe energy"
            );
            assert_eq!(be.mean_power_w().to_bits(), ue.mean_power_w().to_bits());
            let metered = base_config(&spec, PROBE_ITERS, spec.probe_seed)
                .energy()
                .trace_bound(cap)
                .run();
            assert!(metered.trace.is_none(), "a metered probe keeps no trace");
            let me = metered.energy.as_ref().expect("probe energy present");
            assert_eq!(
                me.energy_per_inference_j().to_bits(),
                ue.energy_per_inference_j().to_bits(),
                "bound {cap} changed the metered probe energy"
            );
            assert_eq!(me.mean_power_w().to_bits(), ue.mean_power_w().to_bits());
        }
    }

    #[test]
    fn metered_probe_partials_match_full_trace_probes() {
        // Faulty devices with and without co-tenants, at two seeds: the
        // metered probe must hand the aggregation the same partial, bit
        // for bit, as the fully traced probe the fleet ran before.
        let mut ctx = SimContext::new();
        let mut co_tenants = 0;
        for seed in [1, 9001] {
            let pop = PopulationSpec::new("t")
                .devices(12)
                .seed(seed)
                .fault_rate(1.0)
                .multi_tenant_rate(0.5);
            for k in 0..pop.devices {
                let spec = pop.device(k);
                co_tenants += usize::from(spec.co_tenant.is_some());
                let metered = run_device_in(&mut ctx, &spec, 3);
                let full = base_config(&spec, PROBE_ITERS, spec.probe_seed)
                    .tracing(true)
                    .trace_bound(PROBE_TRACE_EVENTS)
                    .run_in(&mut ctx);
                let e = full.energy.as_ref().expect("a traced probe meters");
                let want = DevicePartial {
                    energy_mj: e.energy_per_inference_j() * 1e3,
                    energy_tax: e.energy_tax_fraction(),
                    mean_power_w: e.mean_power_w(),
                    ..metered.clone()
                };
                let bits = |p: &DevicePartial| {
                    [p.energy_mj, p.energy_tax, p.mean_power_w].map(f64::to_bits)
                };
                assert_eq!(bits(&metered), bits(&want), "seed {seed} device {k}");
                assert_eq!(metered, want, "seed {seed} device {k}");
            }
        }
        assert!(co_tenants > 0, "the sample never drew a co-tenant");
    }

    #[test]
    fn requests_past_half_the_clock_are_refused() {
        let one = PopulationSpec::new("t").devices(1);
        // 30 fps: about 2.77e11 frames fit in half of the clock's range.
        assert!(check_requests(&one, 270_000_000_000).is_ok());
        assert!(check_requests(&one, 280_000_000_000).is_err());
        assert!(check_requests(&one, u64::MAX).is_err());
        // Spread over enough devices, the same total fits.
        let many = PopulationSpec::new("t").devices(1 << 27);
        assert!(check_requests(&many, u64::MAX).is_ok());
    }

    #[test]
    fn co_tenant_contention_slows_the_main_workload() {
        use crate::population::CoTenant;
        let solo = any_device();
        let shared = DeviceSpec {
            co_tenant: Some(CoTenant {
                workload: "classifier-inc3-cpu",
                engine: Engine::tflite_cpu(4),
            }),
            ..solo.clone()
        };
        let a = run_device(&solo, 8);
        let b = run_device(&shared, 8);
        assert!(
            b.latency.mean() > a.latency.mean(),
            "a co-resident CPU tenant must contend: {} vs {} ms",
            b.latency.mean(),
            a.latency.mean()
        );
    }

    #[test]
    fn every_sampled_co_tenant_engine_runs_the_host_graph() {
        use aitax_framework::Session;
        use aitax_models::zoo::Zoo;
        use aitax_soc::SocCatalog;
        use std::sync::Arc;
        // At rate 1.0 the mix crosses float hosts with accelerator
        // co-tenant draws; the sampler must route those to an engine the
        // host graph compiles on (quant-only DSP delegates reject fp32),
        // or the fleet run panics mid-population.
        let pop = PopulationSpec::new("t")
            .devices(256)
            .seed(11)
            .multi_tenant_rate(1.0);
        let mut float_accel_crossings = 0;
        for k in 0..pop.devices {
            let d = pop.device(k);
            let Some(co) = d.co_tenant else { continue };
            let graph = Arc::new(Zoo::entry(d.model).build_graph_with(d.dtype));
            assert!(
                Session::compile(co.engine, graph, SocCatalog::get(d.soc)).is_ok(),
                "device {k}: co-tenant engine {} cannot run the {:?} host graph",
                co.engine.label(),
                d.dtype
            );
            if !d.dtype.is_quantized() && co.workload.ends_with("-accel") {
                float_accel_crossings += 1;
            }
        }
        assert!(
            float_accel_crossings > 0,
            "the sample never crossed a float host with an accelerator co-tenant"
        );
        // And one such device runs end to end.
        let spec = (0..pop.devices)
            .map(|k| pop.device(k))
            .find(|d| {
                !d.dtype.is_quantized()
                    && d.co_tenant.is_some_and(|c| c.workload.ends_with("-accel"))
            })
            .expect("crossing exists per the count above");
        let p = run_device(&spec, 2);
        assert_eq!(p.latency.count(), 2);
    }

    #[test]
    fn zero_requests_is_an_empty_partial() {
        let p = run_device(&any_device(), 0);
        assert_eq!(p.requests, 0);
        assert_eq!(p.latency.count(), 0);
        assert_eq!(p.energy_mj, 0.0);
        assert_eq!(p.degradation, DegradationTotals::default());
    }

    #[test]
    fn faulty_device_records_degradation() {
        // Find a sampled device that carries a fault and runs on an
        // accelerated path (where DSP faults actually bite), then check
        // its counters move.
        let pop = PopulationSpec::new("t")
            .devices(512)
            .seed(9)
            .fault_rate(1.0);
        let spec = (0..pop.devices)
            .map(|k| pop.device(k))
            .find(|d| d.fault.is_some())
            .expect("fault_rate 1.0 must fault every device");
        let p = run_device(&spec, 8);
        assert!(p.degradation.faults_injected > 0);
    }
}
