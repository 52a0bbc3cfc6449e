//! `aitax-core` — end-to-end AI-tax analysis of ML pipelines on simulated
//! mobile SoCs.
//!
//! This is the paper's primary contribution turned into a library: run a
//! complete ML pipeline (data capture → pre-processing → model execution →
//! post-processing) on a simulated phone and decompose its latency into
//! the **AI tax** — "the time a system spends on tasks that enable the
//! execution of a machine learning model; ... the combined latency of all
//! non-inference ML pipeline stages" (§IV).
//!
//! * [`stage`] — the stage vocabulary and [`TaxReport`](stage::TaxReport)
//!   breakdowns over the Fig. 1 taxonomy (Algorithms / Frameworks /
//!   Hardware),
//! * [`stats`] — distribution summaries (the paper's Fig. 11 argues a
//!   single number misrepresents mobile AI performance) plus mergeable
//!   streaming accumulators ([`StreamDist`], `LogHistogram`) for
//!   population-scale aggregation,
//! * [`artifact`] — canonical JSON rendering primitives shared by every
//!   artifact writer in the workspace,
//! * [`runmode`] — CLI benchmark vs benchmark app vs real Android app,
//!   the three packagings whose divergence Fig. 3 demonstrates,
//! * [`pipeline`] — the end-to-end runner driving a
//!   [`Machine`](aitax_kernel::Machine) through N iterations,
//! * [`energy`] — per-rail energy attribution of traced runs: the AI
//!   tax mirrored onto the energy axis (joules per stage, energy per
//!   inference, EDP),
//! * [`tenant`] — QoS classes and per-tenant tax attribution for the
//!   multi-tenant serving layer (`aitax-serve`),
//! * [`report`] — plain-text / TSV rendering.
//!
//! # Example
//!
//! ```
//! use aitax_core::pipeline::E2eConfig;
//! use aitax_core::runmode::RunMode;
//! use aitax_core::stage::Stage;
//! use aitax_framework::Engine;
//! use aitax_models::zoo::ModelId;
//! use aitax_tensor::DType;
//!
//! let report = E2eConfig::new(ModelId::MobileNetV1, DType::F32)
//!     .engine(Engine::tflite_cpu(4))
//!     .run_mode(RunMode::AndroidApp)
//!     .iterations(20)
//!     .seed(7)
//!     .run();
//! // In a real app, a meaningful share of time is AI tax.
//! assert!(report.ai_tax_fraction() > 0.2);
//! assert!(report.summary(Stage::Inference).mean_ms() > 1.0);
//! ```

pub mod artifact;
mod context;
mod degradation;
pub mod energy;
pub mod pipeline;
pub mod report;
pub mod runmode;
pub mod stage;
pub mod stats;
pub mod taxonomy;
pub mod tenant;

pub use context::SimContext;
pub use energy::EnergyReport;
pub use pipeline::E2eReport;
pub use runmode::RunMode;
pub use stage::Stage;
pub use stats::{StreamDist, Welford};
pub use tenant::QosClass;
