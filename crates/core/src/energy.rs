//! Energy accounting for end-to-end runs — the [`TaxReport`] mirrored
//! onto the energy axis.
//!
//! The paper's latency decomposition asks *where the time goes*; this
//! module asks *where the joules go*. When tracing or metering
//! ([`E2eConfig::energy`]) is enabled, the runner records a
//! `(stage, start, end)` window for every pipeline stage of every
//! iteration, and [`EnergyReport::from_trace`] prices those windows
//! with the per-rail energy meter ([`MeterIndex`]): C·V²·f dynamic CPU
//! power at the DVFS-chosen operating point, gated accelerator rails,
//! AXI transfer energy and the always-on idle floor.
//! The result supports the paper-adjacent questions latency alone
//! cannot answer — most importantly that DSP offload wins on energy per
//! inference even where it loses on latency (race-to-idle plus a
//! power-gated rail).
//!
//! [`TaxReport`]: crate::stage::TaxReport
//! [`E2eConfig::energy`]: crate::pipeline::E2eConfig::energy

use std::collections::BTreeMap;

use aitax_des::{SimSpan, SimTime, TraceBuffer};
use aitax_power::{MeterIndex, PowerSpec, RailEnergy};

use crate::stage::Stage;

/// Per-stage and whole-run energy totals for one end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Energy attributed to each stage's execution windows, summed over
    /// all iterations.
    per_stage: BTreeMap<Stage, RailEnergy>,
    /// Energy of the whole run window, including inter-stage gaps and
    /// the idle floor outside any stage.
    total: RailEnergy,
    iterations: usize,
    wall: SimSpan,
}

impl EnergyReport {
    /// Prices every stage window of a traced or metered run with
    /// `spec`'s power model. `end` bounds the whole-run total (idle floor
    /// included).
    pub fn from_trace(
        spec: &PowerSpec,
        trace: &TraceBuffer,
        windows: &[(Stage, SimTime, SimTime)],
        iterations: usize,
        end: SimTime,
    ) -> Self {
        // One index prices every stage window and the whole-run total.
        let index = MeterIndex::new(spec, trace);
        let mut per_stage: BTreeMap<Stage, RailEnergy> = BTreeMap::new();
        for stage in Stage::ALL {
            let mut sum = RailEnergy::new();
            for &(_, from, to) in windows.iter().filter(|(s, _, _)| *s == stage) {
                sum.merge(&index.energy_between(from, to));
            }
            per_stage.insert(stage, sum);
        }
        let total = index.energy_between(SimTime::ZERO, end);
        EnergyReport {
            per_stage,
            total,
            iterations,
            wall: end - SimTime::ZERO,
        }
    }

    /// Per-rail energy attributed to one stage across all iterations.
    pub fn stage_energy(&self, stage: Stage) -> &RailEnergy {
        &self.per_stage[&stage]
    }

    /// Joules attributed to one stage across all iterations.
    pub fn stage_j(&self, stage: Stage) -> f64 {
        self.per_stage[&stage].total_j()
    }

    /// Per-rail energy of the whole run window.
    pub fn total(&self) -> &RailEnergy {
        &self.total
    }

    /// Joules of the whole run window (idle floor included).
    pub fn total_j(&self) -> f64 {
        self.total.total_j()
    }

    /// Joules attributed to stage windows (excludes inter-stage idle).
    pub fn staged_j(&self) -> f64 {
        Stage::ALL.iter().map(|&s| self.stage_j(s)).sum()
    }

    /// Energy-axis AI tax: the fraction of staged energy spent outside
    /// inference (the energy mirror of
    /// [`TaxReport::ai_tax_fraction`](crate::stage::TaxReport::ai_tax_fraction)).
    pub fn energy_tax_fraction(&self) -> f64 {
        let staged = self.staged_j();
        if staged <= 0.0 {
            return 0.0;
        }
        let tax: f64 = Stage::ALL
            .iter()
            .filter(|s| s.is_tax())
            .map(|&s| self.stage_j(s))
            .sum();
        tax / staged
    }

    /// Mean energy per inference over the whole run, in joules.
    pub fn energy_per_inference_j(&self) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        self.total_j() / self.iterations as f64
    }

    /// Mean power draw over the whole run, in watts.
    pub fn mean_power_w(&self) -> f64 {
        let secs = self.wall.as_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_j() / secs
    }

    /// Deterministic TSV rendering: one row per stage plus totals. Two
    /// runs with the same seed produce byte-identical output.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("stage\tenergy_mj\tfraction\n");
        let staged = self.staged_j();
        for stage in Stage::ALL {
            let j = self.stage_j(stage);
            let frac = if staged > 0.0 { j / staged } else { 0.0 };
            out.push_str(&format!("{stage}\t{:.6}\t{:.6}\n", j * 1e3, frac));
        }
        out.push_str(&format!("total\t{:.6}\t1.000000\n", self.total_j() * 1e3));
        out.push_str(&format!(
            "per-inference\t{:.6}\t-\n",
            self.energy_per_inference_j() * 1e3
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::E2eConfig;
    use crate::runmode::RunMode;
    use aitax_models::zoo::ModelId;
    use aitax_tensor::DType;

    fn traced_run(seed: u64) -> crate::pipeline::E2eReport {
        E2eConfig::new(ModelId::MobileNetV1, DType::F32)
            .run_mode(RunMode::AndroidApp)
            .iterations(8)
            .seed(seed)
            .tracing(true)
            .run()
    }

    #[test]
    fn energy_report_is_populated_and_consistent() {
        let r = traced_run(11);
        let e = r.energy.as_ref().expect("tracing enables energy");
        assert_eq!(e.iterations, 8);
        // Non-negative per-stage cells, and staged energy within total.
        for stage in Stage::ALL {
            assert!(e.stage_j(stage) >= 0.0, "{stage}");
            for (_, j) in e.stage_energy(stage).iter() {
                assert!(j >= 0.0, "{stage} has a negative rail cell");
            }
        }
        assert!(e.staged_j() > 0.0);
        assert!(
            e.staged_j() <= e.total_j() + 1e-9,
            "stage windows are a subset of the run"
        );
        assert!(e.energy_tax_fraction() > 0.0 && e.energy_tax_fraction() < 1.0);
        assert!(e.energy_per_inference_j() > 0.0);
        assert!(e.mean_power_w() > 0.5, "idle floor alone is ~1 W");
    }

    #[test]
    fn same_seed_gives_identical_tsv() {
        let a = traced_run(5);
        let b = traced_run(5);
        assert_eq!(
            a.energy.unwrap().render_tsv(),
            b.energy.unwrap().render_tsv(),
            "energy accounting must be deterministic"
        );
    }

    #[test]
    fn no_tracing_means_no_energy_report() {
        let r = E2eConfig::new(ModelId::MobileNetV1, DType::F32)
            .iterations(3)
            .run();
        assert!(r.energy.is_none());
    }
}
