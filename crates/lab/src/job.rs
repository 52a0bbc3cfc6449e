//! Independent sweep jobs and their extracted results.
//!
//! A [`JobSpec`] is one `(scenario, seed)` pair; running it drives the
//! end-to-end pipeline via [`E2eConfig`] and distills the report into a
//! [`JobResult`] — plain owned data (`Send`), so jobs can execute on any
//! worker thread and ship their results back without sharing state.

use aitax_core::pipeline::E2eConfig;
use aitax_core::{SimContext, Stage};
use aitax_kernel::DegradationStats;

use crate::scenario::Scenario;

/// One unit of sweep work: a scenario under a specific derived seed.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Position in the grid expansion (also the result ordering key).
    pub id: usize,
    /// Index of the scenario within the grid.
    pub scenario_idx: usize,
    /// Repeat number within the scenario (0-based).
    pub repeat: usize,
    /// Derived seed — a pure function of `(base_seed, id)`.
    pub seed: u64,
    /// The configuration to run.
    pub scenario: Scenario,
}

impl JobSpec {
    /// The end-to-end configuration this job runs: the scenario under
    /// the job's seed.
    pub fn config(&self) -> E2eConfig {
        let s = &self.scenario;
        let mut cfg = E2eConfig::new(s.model, s.dtype)
            .engine(s.engine)
            .run_mode(s.mode)
            .soc(s.soc)
            .iterations(s.iterations)
            .seed(self.seed)
            .preproc_on_dsp(s.preproc_on_dsp)
            .tracing(s.tracing);
        if let Some((count, engine)) = s.background {
            cfg = cfg.background(count, engine);
        }
        if let Some(fault) = &s.fault {
            cfg = cfg.fault_plan(fault.plan(self.seed));
        }
        cfg
    }

    /// Runs the job to completion in a throwaway [`SimContext`].
    ///
    /// Deterministic: the result depends only on the spec, never on the
    /// thread or time it ran.
    pub fn run(&self) -> JobResult {
        self.run_in(&mut SimContext::new())
    }

    /// Runs the job in `ctx`, reusing its machine when possible.
    ///
    /// Byte-identical to [`JobSpec::run`] — reuse only skips setup work
    /// (see [`E2eConfig::run_in`]) — so pool workers can thread one
    /// context through every job they execute without perturbing
    /// results.
    pub fn run_in(&self, ctx: &mut SimContext) -> JobResult {
        let r = self.config().run_in(ctx);
        let stage_ms = Stage::ALL.map(|stage| r.summary(stage).samples_ms().to_vec());
        JobResult {
            id: self.id,
            scenario_idx: self.scenario_idx,
            seed: self.seed,
            e2e_ms: r.e2e_summary().samples_ms().to_vec(),
            stage_ms,
            tax_fraction: r.ai_tax_fraction(),
            model_init_ms: r.model_init.as_ms(),
            degradation: r.degradation.stats.clone(),
            added_tax_ms: r.degradation.added_tax_ms,
            energy_mj: r.energy.as_ref().map(|e| e.energy_per_inference_j() * 1e3),
            energy_tax: r.energy.as_ref().map(|e| e.energy_tax_fraction()),
            mean_power_w: r.energy.as_ref().map(|e| e.mean_power_w()),
        }
    }
}

/// The distilled outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Grid-expansion position (results are aggregated in this order).
    pub id: usize,
    /// Scenario the job belongs to.
    pub scenario_idx: usize,
    /// Seed the job ran under.
    pub seed: u64,
    /// Per-iteration end-to-end latencies.
    pub e2e_ms: Vec<f64>,
    /// Per-iteration latencies of each pipeline stage, `Stage::ALL` order.
    pub stage_ms: [Vec<f64>; 5],
    /// Mean AI-tax fraction of the run.
    pub tax_fraction: f64,
    /// One-time model initialization latency.
    pub model_init_ms: f64,
    /// Fault/retry/fallback counters.
    pub degradation: DegradationStats,
    /// Wall time attributed to degradation handling.
    pub added_tax_ms: f64,
    /// Energy per inference in mJ (tracing-enabled scenarios only).
    pub energy_mj: Option<f64>,
    /// Non-inference share of total energy.
    pub energy_tax: Option<f64>,
    /// Mean power draw over the run in watts.
    pub mean_power_w: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultSpec, Grid};
    use aitax_des::fault::FaultKind;
    use aitax_models::zoo::ModelId;
    use aitax_tensor::DType;

    fn spec() -> JobSpec {
        Grid::new("t")
            .push(Scenario::new("a", ModelId::MobileNetV1, DType::F32).iterations(6))
            .expand()
            .remove(0)
    }

    #[test]
    fn job_runs_and_is_deterministic() {
        let j = spec();
        let a = j.run();
        let b = j.run();
        assert_eq!(a, b, "same spec must produce identical results");
        assert_eq!(a.e2e_ms.len(), 6);
        assert!(a.e2e_ms.iter().all(|&x| x > 0.0));
        assert_eq!(a.stage_ms[2].len(), 6, "inference samples per iteration");
        assert!(a.energy_mj.is_none(), "tracing off → no energy");
    }

    #[test]
    fn traced_job_reports_energy() {
        let mut j = spec();
        j.scenario = j.scenario.tracing(true).iterations(4);
        let r = j.run();
        assert!(r.energy_mj.unwrap() > 0.0);
        assert!(r.mean_power_w.unwrap() > 0.0);
    }

    #[test]
    fn faulted_job_records_degradation() {
        let mut j = spec();
        j.scenario = Scenario::new("f", ModelId::MobileNetV1, DType::I8)
            .engine(aitax_framework::Engine::nnapi())
            .mode(aitax_core::RunMode::AndroidApp)
            .iterations(4)
            .fault(FaultSpec::Sustained(FaultKind::DspSignalTimeout));
        let r = j.run();
        assert!(r.degradation.faults_injected > 0);
        assert!(r.added_tax_ms > 0.0);
    }
}
