//! # aitax-lab — the parallel deterministic sweep engine
//!
//! The paper's evaluation is a *grid*: chipset × runtime/delegate × model
//! × packaging × fault plan, each point repeated over independent seeds.
//! This crate turns such grids into embarrassingly-parallel job lists,
//! executes them on a shared-stack thread pool, and aggregates the
//! results into distribution statistics (percentiles, CV, CDF buckets,
//! per-stage tax breakdown, energy/EDP) plus versioned JSON/CSV
//! artifacts and Chrome-trace exports.
//!
//! ## Determinism contract
//!
//! The aggregate output is **byte-identical for any worker-thread
//! count**, because:
//!
//! 1. every job's seed is a pure function of `(base_seed, job_id)`
//!    ([`SimRng::derive`]), so no job's randomness depends on execution
//!    order;
//! 2. the pool writes results into slots indexed by job id and the
//!    aggregator walks them in id order ([`pool::run_jobs`]);
//! 3. artifacts use canonical formatting and contain only simulated
//!    metrics — wall-clock and host data never enter them.
//!
//! `tests/lab_determinism.rs` pins the property at 1, 2 and 8 threads.
//!
//! ## Example
//!
//! ```
//! use aitax_lab::{Grid, Scenario, SweepReport};
//! use aitax_models::zoo::ModelId;
//! use aitax_tensor::DType;
//!
//! let grid = Grid::new("example")
//!     .repeats(2)
//!     .push(Scenario::new("cpu", ModelId::MobileNetV1, DType::F32).iterations(5));
//! let results = aitax_lab::run_jobs(grid.expand(), 2);
//! let report = SweepReport::aggregate(&grid, &results);
//! assert_eq!(report.scenario("cpu").unwrap().e2e.n, 10);
//! ```
//!
//! [`SimRng::derive`]: aitax_des::SimRng::derive

pub mod agg;
pub mod artifact;
pub mod chrome;
pub mod cli;
mod job;
mod pool;
pub mod render;
mod scenario;
pub mod scenarios;

pub use agg::SweepReport;
pub use artifact::{bench_json, sweep_csv, sweep_json};
pub use chrome::chrome_trace;
pub use job::{JobResult, JobSpec};
pub use pool::{run_jobs, run_tasks, run_tasks_ctx};
pub use scenario::{Grid, Scenario};
