//! # aitax-serve — multi-tenant on-device inference serving
//!
//! Phones do not run one model at a time: a camera viewfinder, a photo
//! enhancer and a background indexer all share the same cores, the same
//! accelerator queue and the same DRAM controller. This crate serves
//! *concurrent* tenant pipelines on the deterministic simulator and
//! answers the multi-tenant question the single-pipeline harness cannot:
//! **who pays whose AI tax?**
//!
//! The pieces:
//!
//! - `tenant` — tenant specs (model, engine, QoS class, offered load),
//!   admission policies, scenario configs.
//! - [`arrival`] — pure seeded Poisson arrival streams; each tenant's
//!   traffic is a function of `(seed, tenant)` only, so solo and mixed
//!   runs replay identical offered load.
//! - `exec` — the serving executor: per-tenant request pipelines with
//!   QoS-priority scheduling, preemption, NNAPI burst execution across
//!   back-to-back requests, a shared memory-bandwidth arbiter
//!   ([`aitax_des::Arbiter`]), and queue-bound admission control.
//! - [`scenarios`] — the named serve grid (`smoke`, `contention`,
//!   `saturation`).
//! - [`attribution`] — N solo baselines + the mix, diffed per request and
//!   redistributed via the arbiter's victim→culprit ledger, conserving
//!   `Σ caused + Σ self == Σ suffered` exactly.
//! - [`artifact`] — canonical `aitax-serve/v1` JSON/CSV artifacts,
//!   byte-identical across thread counts.
//!
//! ```
//! use aitax_serve::{run_report, scenarios};
//!
//! let cfg = scenarios::smoke().seed(7);
//! let (report, _runs) = run_report(&cfg, 2);
//! let attributed: f64 = report.tenants.iter().map(|t| t.caused_ms + t.self_ms).sum();
//! assert!((attributed - report.added_ms).abs() < 1e-9 * report.added_ms.abs().max(1.0));
//! ```

pub mod arrival;
pub mod artifact;
pub mod attribution;
mod exec;
pub mod scenarios;
mod tenant;

pub use attribution::{attribute, run_report, ServeReport};
pub use exec::{run_scenario, ScenarioRun};
pub use tenant::{AdmissionPolicy, ServeConfig, TenantSpec};
