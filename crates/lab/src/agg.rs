//! Distribution aggregation over sweep results.
//!
//! Pools every repeat of a scenario into the distribution-first report
//! the paper's §IV-C asks for: percentiles, coefficient of variation,
//! CDF buckets (Fig. 11), per-stage tax breakdown (Fig. 4), degradation
//! counters and energy/EDP. Aggregation walks results in job-id order
//! only, so its output is independent of execution interleaving.

use aitax_core::stats::Welford;
use aitax_core::Stage;

use crate::job::JobResult;
use crate::scenario::Grid;

// `DistStats` moved to aitax-core so the fleet aggregator shares it;
// re-exported here for API (and artifact byte) compatibility.
pub use aitax_core::stats::{DistStats, CDF_BUCKETS};

/// Summed fault/degradation counters over a scenario's jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradationTotals {
    /// Faults realized across all jobs.
    pub faults_injected: u64,
    /// FastRPC retries.
    pub rpc_retries: u64,
    /// FastRPC invocations abandoned after exhausting retries.
    pub rpc_giveups: u64,
    /// Accelerator partitions re-run on the CPU.
    pub cpu_fallbacks: u64,
    /// Wall time attributed to degradation handling, summed (ms).
    pub added_tax_ms: f64,
}

/// Mean energy metrics over a scenario's traced jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyStats {
    /// Energy per inference (mJ).
    pub energy_mj: f64,
    /// Non-inference share of total energy.
    pub energy_tax: f64,
    /// Mean power draw (W).
    pub mean_power_w: f64,
    /// Energy-delay product: energy per inference × mean e2e (mJ·ms).
    pub edp_mj_ms: f64,
}

/// Aggregated statistics of one scenario across its seeded repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// Scenario label (the grid key).
    pub label: String,
    /// Number of jobs pooled.
    pub jobs: usize,
    /// Iterations per job.
    pub iterations: usize,
    /// End-to-end latency distribution (pooled over repeats).
    pub e2e: DistStats,
    /// Per-stage latency distributions, `Stage::ALL` order.
    pub stages: Vec<(Stage, DistStats)>,
    /// Mean AI-tax fraction over jobs.
    pub tax_fraction: f64,
    /// Mean model-initialization latency over jobs (ms).
    pub model_init_ms: f64,
    /// Summed degradation counters.
    pub degradation: DegradationTotals,
    /// Mean energy metrics (present when the scenario traced).
    pub energy: Option<EnergyStats>,
}

/// A complete aggregated sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Artifact schema version.
    pub schema: &'static str,
    /// Grid name.
    pub grid: String,
    /// Base seed of the expansion.
    pub base_seed: u64,
    /// Repeats per scenario.
    pub repeats: usize,
    /// Total jobs aggregated.
    pub jobs: usize,
    /// Per-scenario statistics, grid declaration order.
    pub scenarios: Vec<ScenarioStats>,
}

impl SweepReport {
    /// Aggregates `results` (job-id order) for `grid`.
    ///
    /// # Panics
    ///
    /// Panics if the result count does not match the grid expansion.
    pub fn aggregate(grid: &Grid, results: &[JobResult]) -> SweepReport {
        assert_eq!(
            results.len(),
            grid.job_count(),
            "result count must match grid expansion"
        );
        let mut scenarios = Vec::with_capacity(grid.scenarios().len());
        for (si, scenario) in grid.scenarios().iter().enumerate() {
            // Job ids are scenario-major, so a scenario's repeats are a
            // contiguous, ordered slice — pooling in id order keeps the
            // aggregate bit-identical for any execution interleaving.
            let slice = &results[si * grid.repeats..(si + 1) * grid.repeats];
            debug_assert!(slice.iter().all(|r| r.scenario_idx == si));

            let e2e: Vec<f64> = slice
                .iter()
                .flat_map(|r| r.e2e_ms.iter().copied())
                .collect();
            let stages = Stage::ALL
                .iter()
                .enumerate()
                .map(|(i, &stage)| {
                    let pooled: Vec<f64> = slice
                        .iter()
                        .flat_map(|r| r.stage_ms[i].iter().copied())
                        .collect();
                    (stage, DistStats::from_ms(&pooled))
                })
                .collect();

            let mut tax = Welford::new();
            let mut init = Welford::new();
            let mut deg = DegradationTotals::default();
            let mut energy_mj = Welford::new();
            let mut energy_tax = Welford::new();
            let mut power = Welford::new();
            for r in slice {
                tax.push(r.tax_fraction);
                init.push(r.model_init_ms);
                deg.faults_injected += r.degradation.faults_injected;
                deg.rpc_retries += r.degradation.rpc_retries;
                deg.rpc_giveups += r.degradation.rpc_giveups;
                deg.cpu_fallbacks += r.degradation.cpu_fallbacks;
                deg.added_tax_ms += r.added_tax_ms;
                if let Some(mj) = r.energy_mj {
                    energy_mj.push(mj);
                }
                if let Some(t) = r.energy_tax {
                    energy_tax.push(t);
                }
                if let Some(w) = r.mean_power_w {
                    power.push(w);
                }
            }
            let e2e = DistStats::from_ms(&e2e);
            let energy = (energy_mj.count() > 0).then(|| EnergyStats {
                energy_mj: energy_mj.mean(),
                energy_tax: energy_tax.mean(),
                mean_power_w: power.mean(),
                edp_mj_ms: energy_mj.mean() * e2e.mean,
            });
            scenarios.push(ScenarioStats {
                label: scenario.label.clone(),
                jobs: slice.len(),
                iterations: scenario.iterations,
                e2e,
                stages,
                tax_fraction: tax.mean(),
                model_init_ms: init.mean(),
                degradation: deg,
                energy,
            });
        }
        SweepReport {
            schema: "aitax-lab/v1",
            grid: grid.name.clone(),
            base_seed: grid.base_seed,
            repeats: grid.repeats,
            jobs: results.len(),
            scenarios,
        }
    }

    /// Statistics of the scenario with the given label.
    pub fn scenario(&self, label: &str) -> Option<&ScenarioStats> {
        self.scenarios.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use crate::pool::run_jobs;
    use crate::scenario::Scenario;
    use aitax_models::zoo::ModelId;
    use aitax_tensor::DType;

    fn sweep() -> (Grid, Vec<JobResult>) {
        let grid = Grid::new("agg-test")
            .repeats(2)
            .push(Scenario::new("plain", ModelId::MobileNetV1, DType::F32).iterations(5))
            .push(
                Scenario::new("traced", ModelId::MobileNetV1, DType::F32)
                    .iterations(5)
                    .tracing(true),
            );
        let results = run_jobs(grid.expand(), 1);
        (grid, results)
    }

    #[test]
    fn aggregate_pools_repeats() {
        let (grid, results) = sweep();
        let rep = SweepReport::aggregate(&grid, &results);
        assert_eq!(rep.schema, "aitax-lab/v1");
        assert_eq!(rep.jobs, 4);
        assert_eq!(rep.scenarios.len(), 2);
        let s = rep.scenario("plain").unwrap();
        assert_eq!(s.e2e.n, 10, "2 repeats × 5 iterations");
        assert!(s.e2e.p50 > 0.0 && s.e2e.p50 <= s.e2e.p95);
        assert!(s.e2e.p95 <= s.e2e.p99 && s.e2e.p99 <= s.e2e.max);
        assert_eq!(s.e2e.cdf.len(), CDF_BUCKETS);
        assert_eq!(s.e2e.cdf.last().unwrap().1, 1.0);
        assert!(s.energy.is_none());
        assert!(rep.scenario("traced").unwrap().energy.unwrap().energy_mj > 0.0);
    }

    #[test]
    fn distinct_seeds_actually_vary_between_repeats() {
        let (grid, results) = sweep();
        assert_ne!(results[0].e2e_ms, results[1].e2e_ms);
        let rep = SweepReport::aggregate(&grid, &results);
        // Pooled stddev reflects run-to-run variation, not just zero.
        assert!(rep.scenario("plain").unwrap().e2e.stddev > 0.0);
    }

    #[test]
    #[should_panic(expected = "result count")]
    fn mismatched_results_panic() {
        let (grid, mut results) = sweep();
        results.pop();
        let _ = SweepReport::aggregate(&grid, &results);
    }
}
