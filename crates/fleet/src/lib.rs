//! # aitax-fleet — the population-scale device simulator
//!
//! The paper measures AI tax on a handful of phones; its conclusion —
//! that tax varies wildly with chipset, thermal state and co-running
//! load — only becomes actionable at population scale, the way MLPerf
//! Mobile and AI Benchmark report cross-device distributions over
//! thousands of handsets. This crate drives ~1M simulated inference
//! requests through a sampled device fleet and emits population-level
//! tax/latency/energy distributions with cohort breakdowns.
//!
//! Pipeline:
//!
//! 1. [`population`] — a [`PopulationSpec`] samples device *k* from
//!    weighted distributions (chipset mix, ambient thermal profile,
//!    battery state, background pressure, fault rate, workload mix)
//!    via the pure stream `root.derive2(STREAM, k)`;
//! 2. `shard` — contiguous device ranges become tasks for the lab's
//!    shared-stack pool; each task lazily samples and runs its devices
//!    and returns raw per-device partials, never pre-merging;
//! 3. [`device`] — one `AndroidApp`-mode latency run per device plus a
//!    tiny metered energy probe;
//! 4. `agg` — partials fold in canonical device order into streaming
//!    cohorts ([`StreamDist`] + [`Welford`], constant memory);
//! 5. [`artifact`] — canonical `aitax-fleet/v1` JSON/CSV and the
//!    `BENCH_fleet.json` trajectory file.
//!
//! ## Determinism contract
//!
//! Artifact bytes are identical for any `--shards` × `--threads`
//! combination because (a) every device is a pure function of
//! `(population seed, k)`, (b) partials come back in device order
//! regardless of scheduling, and (c) the aggregation folds in that
//! canonical order — the float moments never see a different merge
//! sequence, and the histogram half is exactly order-independent
//! anyway. `tests/fleet_determinism.rs` pins the property across
//! thread counts 1/2/8 and several shard splits.
//!
//! ## Example
//!
//! ```
//! use aitax_fleet::{FleetReport, PopulationSpec};
//!
//! let spec = PopulationSpec::new("example").devices(8).seed(7);
//! let partials = aitax_fleet::run_fleet(&spec, 64, 4, 2);
//! let report = FleetReport::aggregate(&spec, &partials);
//! assert_eq!(report.requests, 64);
//! assert_eq!(report.total.latency.count(), 64);
//! ```
//!
//! [`PopulationSpec`]: population::PopulationSpec
//! [`StreamDist`]: aitax_core::StreamDist
//! [`Welford`]: aitax_core::Welford

mod agg;
pub mod artifact;
pub mod device;
pub mod population;
mod shard;

pub use agg::{Cohort, FleetReport};
pub use artifact::{bench_json, fleet_csv, fleet_json};
pub use device::{run_device, run_device_in, DevicePartial, PROBE_ITERS};
pub use population::{DeviceSpec, PopulationSpec};
pub use shard::{run_fleet, ShardPlan};
