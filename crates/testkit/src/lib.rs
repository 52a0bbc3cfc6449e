//! `aitax-testkit` — validation infrastructure for aitax simulations.
//!
//! Three layers, each usable on its own:
//!
//! * [`invariant`] — scenario-agnostic `TraceInvariant` checks every
//!   well-formed trace must satisfy (single occupancy, monotone time,
//!   paired exec events, migration evidence), plus agreement checks
//!   between [`MachineStats`](aitax_kernel::MachineStats) counters and
//!   trace evidence, and per-rail energy sanity. The one-call entry
//!   point is [`assert_report_ok`].
//! * `assert` — statistical helpers
//!   ([`assert_ratio_within`], [`assert_monotone`]) shared by the
//!   figure-shape integration tests so every figure asserts bands the
//!   same way with the same failure messages.
//! * `golden` — golden-signature snapshots: TSV report renderings
//!   under fixed seeds committed to `tests/goldens/` and diffed with
//!   numeric [`Tolerance`]; rewrite intentionally with `AITAX_BLESS=1`.
//! * [`json`] — a strict, dependency-free JSON syntax validator
//!   ([`assert_valid_json`]) for the hand-rolled artifact and
//!   Chrome-trace emitters.
//! * `serving` — multi-tenant invariants: attribution conservation
//!   (`Σ caused + Σ self == Σ suffered`) over
//!   [`TenantTax`](aitax_core::tenant::TenantTax) ledgers, and
//!   admission queue-bound checks reconstructed from request wait
//!   intervals.
//!
//! # Example
//!
//! ```
//! use aitax_core::pipeline::E2eConfig;
//! use aitax_framework::Engine;
//! use aitax_models::zoo::ModelId;
//! use aitax_tensor::DType;
//!
//! let report = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
//!     .engine(Engine::tflite_cpu(4))
//!     .iterations(3)
//!     .seed(11)
//!     .tracing(true)
//!     .run();
//! aitax_testkit::assert_report_ok(&report);
//! ```

mod assert;
mod golden;
pub mod invariant;
pub mod json;
mod serving;

pub use assert::{assert_monotone, assert_ratio_within, assert_within, Direction};
pub use golden::{check_golden, Tolerance};
pub use invariant::assert_report_ok;
pub use json::assert_valid_json;
pub use serving::{check_attribution_conservation, check_queue_bound};
