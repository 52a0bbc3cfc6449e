//! Declarative sweep specifications.
//!
//! A [`Scenario`] is one configuration point — chipset × runtime/delegate
//! × model × packaging × fault plan — and a [`Grid`] is an ordered set of
//! scenarios repeated over independent seeds. [`Grid::expand`] flattens
//! the grid into [`JobSpec`]s whose seeds come from
//! [`SimRng::derive`], so every job's random stream is a pure function of
//! `(base_seed, job_id)` — independent of thread count, scheduling order,
//! or which other jobs exist.

use aitax_core::pipeline::E2eConfig;
use aitax_core::RunMode;
use aitax_des::fault::{FaultKind, FaultPlan};
use aitax_des::{SimRng, SimTime};
use aitax_framework::Engine;
use aitax_models::zoo::ModelId;
use aitax_soc::SocId;
use aitax_tensor::DType;

use crate::job::JobSpec;

/// When each job's fault window opens (times are per-job, from t = 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// A window that never closes, opening at t = 0.
    Sustained(FaultKind),
    /// A one-shot fault at the given simulated nanosecond.
    At(FaultKind, u64),
}

impl FaultSpec {
    /// Materializes the per-job [`FaultPlan`] under the job's seed.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        match self {
            FaultSpec::Sustained(k) => FaultPlan::new(seed).sustained(*k, SimTime::ZERO),
            FaultSpec::At(k, ns) => FaultPlan::new(seed).at(*k, SimTime::from_ns(*ns)),
        }
    }
}

/// One configuration point of a sweep.
///
/// Mirrors the knobs of [`aitax_core::pipeline::E2eConfig`], minus the
/// seed (supplied per job by the grid expansion).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable human-readable key, unique within a grid.
    pub label: String,
    /// Platform the run executes on.
    pub soc: SocId,
    /// The model.
    pub model: ModelId,
    /// Numeric format the model runs in.
    pub dtype: DType,
    /// Inference engine / delegate.
    pub engine: Engine,
    /// Packaging mode (CLI benchmark, benchmark app, real app).
    pub mode: RunMode,
    /// Pipeline iterations per job.
    pub iterations: usize,
    /// Concurrent background inference loops (count, engine).
    pub background: Option<(usize, Engine)>,
    /// Deterministic fault injection for each job.
    pub fault: Option<FaultSpec>,
    /// Route pre-processing through the DSP.
    pub preproc_on_dsp: bool,
    /// Meter energy per job (records what the energy meter reads; a job
    /// keeps no trace).
    pub tracing: bool,
}

impl Scenario {
    /// A scenario with the runner's defaults: SD845, TFLite CPU ×4, CLI
    /// benchmark, 30 iterations, no background load, no faults.
    pub fn new(label: impl Into<String>, model: ModelId, dtype: DType) -> Self {
        Scenario {
            label: label.into(),
            soc: SocId::Sd845,
            model,
            dtype,
            engine: Engine::tflite_cpu(4),
            mode: RunMode::CliBenchmark,
            iterations: 30,
            background: None,
            fault: None,
            preproc_on_dsp: false,
            tracing: false,
        }
    }

    /// Sets the inference engine.
    pub(crate) fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the packaging mode.
    pub(crate) fn mode(mut self, mode: RunMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the platform.
    pub(crate) fn soc(mut self, soc: SocId) -> Self {
        self.soc = soc;
        self
    }

    /// Sets iterations per job.
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n.max(1);
        self
    }

    /// Adds background inference loops.
    pub(crate) fn background(mut self, count: usize, engine: Engine) -> Self {
        self.background = Some((count, engine));
        self
    }

    /// Installs a fault specification.
    pub(crate) fn fault(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    /// Enables energy metering per job.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// The end-to-end configuration of this scenario under `seed`,
    /// metered when the scenario asks for energy (a job result keeps
    /// energy only, so no job keeps a trace).
    pub(crate) fn config(&self, seed: u64) -> E2eConfig {
        let mut cfg = E2eConfig::new(self.model, self.dtype)
            .engine(self.engine)
            .run_mode(self.mode)
            .soc(self.soc)
            .iterations(self.iterations)
            .seed(seed)
            .preproc_on_dsp(self.preproc_on_dsp);
        if self.tracing {
            cfg = cfg.energy();
        }
        if let Some((count, engine)) = self.background {
            cfg = cfg.background(count, engine);
        }
        if let Some(fault) = &self.fault {
            cfg = cfg.fault_plan(fault.plan(seed));
        }
        cfg
    }
}

/// A named, ordered sweep: scenarios × independent repeats.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Grid name (artifact file names derive from it).
    pub name: String,
    /// Base seed all job seeds are derived from.
    pub base_seed: u64,
    /// Independent seeded repeats per scenario.
    pub repeats: usize,
    scenarios: Vec<Scenario>,
}

impl Grid {
    /// An empty grid with base seed 1 and one repeat per scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Grid {
            name: name.into(),
            base_seed: 1,
            repeats: 1,
            scenarios: Vec::new(),
        }
    }

    /// Sets the base seed.
    pub(crate) fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the number of seeded repeats per scenario.
    pub fn repeats(mut self, n: usize) -> Self {
        self.repeats = n.max(1);
        self
    }

    /// Appends a scenario.
    ///
    /// # Panics
    ///
    /// Panics if a scenario with the same label is already present —
    /// labels key the aggregation.
    pub fn push(mut self, scenario: Scenario) -> Self {
        assert!(
            self.scenarios.iter().all(|s| s.label != scenario.label),
            "duplicate scenario label '{}'",
            scenario.label
        );
        self.scenarios.push(scenario);
        self
    }

    /// The scenarios in declaration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Total number of jobs (`scenarios × repeats`).
    pub fn job_count(&self) -> usize {
        self.scenarios.len() * self.repeats
    }

    /// Checks, without simulating, that every scenario fits the
    /// simulated clock: its floor ([`E2eConfig::sim_floor_secs`]) must
    /// not pass half of [`SimTime`]'s range, the horizon `serve` and
    /// `fleet` hold their runs to. The error names the first scenario
    /// that does not fit.
    pub fn check_horizon(&self) -> Result<(), String> {
        let horizon = SimTime::from_ns(u64::MAX / 2).as_secs();
        for s in &self.scenarios {
            let floor = s.config(self.base_seed).sim_floor_secs();
            if floor > horizon {
                return Err(format!(
                    "scenario '{}' needs at least {floor:.3e} simulated s for {} iterations, \
                     past the {horizon:.3e} s horizon (half of the simulated clock's range)",
                    s.label, s.iterations
                ));
            }
        }
        Ok(())
    }

    /// Flattens the grid into independent jobs, scenario-major.
    ///
    /// Job *k*'s seed is `SimRng::seed_from(base_seed).derive(k)` — a
    /// pure function of the base seed and the job's position, so the
    /// same grid always expands to the same jobs regardless of how (or
    /// in what order) they later execute.
    pub fn expand(&self) -> Vec<JobSpec> {
        let root = SimRng::seed_from(self.base_seed);
        let mut jobs = Vec::with_capacity(self.job_count());
        for (si, scenario) in self.scenarios.iter().enumerate() {
            for repeat in 0..self.repeats {
                let id = jobs.len();
                let seed = root.derive(id as u64).next_u64();
                jobs.push(JobSpec {
                    id,
                    scenario_idx: si,
                    repeat,
                    seed,
                    scenario: scenario.clone(),
                });
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2x3() -> Grid {
        Grid::new("t")
            .repeats(3)
            .push(Scenario::new("a", ModelId::MobileNetV1, DType::F32))
            .push(Scenario::new("b", ModelId::SqueezeNet, DType::F32))
    }

    #[test]
    fn expansion_is_scenario_major_and_stable() {
        let jobs = grid2x3().expand();
        assert_eq!(jobs.len(), 6);
        assert_eq!(
            jobs.iter().map(|j| j.scenario_idx).collect::<Vec<_>>(),
            [0, 0, 0, 1, 1, 1]
        );
        assert_eq!(
            jobs.iter().map(|j| j.repeat).collect::<Vec<_>>(),
            [0, 1, 2, 0, 1, 2]
        );
        let again = grid2x3().expand();
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.seed, b.seed, "expansion must be reproducible");
        }
    }

    #[test]
    fn job_seeds_are_distinct_and_seed_dependent() {
        let jobs = grid2x3().expand();
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 6, "per-job seeds must not collide");
        let other = grid2x3().base_seed(99).expand();
        assert_ne!(jobs[0].seed, other[0].seed);
    }

    #[test]
    #[should_panic(expected = "duplicate scenario label")]
    fn duplicate_labels_rejected() {
        let _ = Grid::new("t")
            .push(Scenario::new("a", ModelId::MobileNetV1, DType::F32))
            .push(Scenario::new("a", ModelId::SqueezeNet, DType::F32));
    }

    #[test]
    fn horizon_check_refuses_runs_past_half_the_clock() {
        let horizon = SimTime::from_ns(u64::MAX / 2).as_secs();
        for mode in [RunMode::CliBenchmark, RunMode::AndroidApp] {
            let scenario = Scenario::new("b", ModelId::MobileNetV1, DType::I8).mode(mode);
            let per_iteration = scenario.clone().iterations(1).config(1).sim_floor_secs();
            let fits = (horizon / per_iteration) as usize;
            let grid = |n| Grid::new("t").push(scenario.clone().iterations(n));
            assert!(grid(fits).check_horizon().is_ok(), "{mode}: {fits} fit");
            for n in [fits * 2, usize::MAX] {
                let e = grid(n).check_horizon().unwrap_err();
                assert!(e.starts_with("scenario 'b' "), "{mode}: {e}");
            }
        }
    }

    #[test]
    fn fault_specs_build_non_empty_plans() {
        let s = FaultSpec::Sustained(FaultKind::DspSignalTimeout);
        assert!(!s.plan(1).is_empty());
        let a = FaultSpec::At(FaultKind::ThermalEmergency, 10_000_000);
        assert!(!a.plan(1).is_empty());
    }
}
