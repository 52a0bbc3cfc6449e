//! # aitax — AI Tax in Mobile SoCs, reproduced in Rust
//!
//! A full reproduction of *"AI Tax in Mobile SoCs: End-to-end Performance
//! Analysis of Machine Learning in Smartphones"* (ISPASS 2021) as a Rust
//! library: a discrete-event simulated Snapdragon-class phone, TFLite-/
//! NNAPI-/SNPE-like inference runtimes, calibrated prices for data
//! capture and pre-/post-processing, and an end-to-end measurement harness
//! that decomposes ML pipeline latency into the **AI tax** — everything a
//! system does around the model itself.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | provides |
//! |---|---|---|
//! | [`des`] | `aitax-des` | discrete-event simulation kernel |
//! | [`tensor`] | `aitax-tensor` | element types, random-input tensors |
//! | [`soc`] | `aitax-soc` | CPU/GPU/DSP/memory/thermal models, Table II catalog |
//! | [`kernel`] | `aitax-kernel` | scheduler, FastRPC offload, noise |
//! | [`models`] | `aitax-models` | operator IR + the Table I model zoo |
//! | [`pipeline`] | `aitax-pipeline` | pre-/post-processing cost models |
//! | [`capture`] | `aitax-capture` | camera cadence, random-input capture cost |
//! | [`framework`] | `aitax-framework` | TFLite/NNAPI/SNPE-like runtimes |
//! | [`core`] | `aitax-core` | AI-tax taxonomy, E2E runner, statistics, energy attribution |
//! | [`profiler`] | `aitax-profiler` | utilization timelines, Fig. 6 profiles |
//! | [`power`] | `aitax-power` | per-rail power specs, energy metering, battery |
//! | [`lab`] | `aitax-lab` | parallel deterministic sweeps, distribution stats, Chrome traces |
//! | [`fleet`] | `aitax-fleet` | population-scale fleets, streaming cohort aggregation |
//! | [`serve`] | `aitax-serve` | multi-tenant QoS serving, admission control, tax attribution |
//! | [`testkit`] | `aitax-testkit` | trace invariants, shape asserts, golden snapshots |
//!
//! # Quickstart
//!
//! ```
//! use aitax::core::pipeline::E2eConfig;
//! use aitax::core::runmode::RunMode;
//! use aitax::core::stage::Stage;
//! use aitax::framework::Engine;
//! use aitax::models::zoo::ModelId;
//! use aitax::tensor::DType;
//!
//! // Run MobileNet v1 inside a simulated Android app on a Pixel 3.
//! let report = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
//!     .engine(Engine::nnapi())
//!     .run_mode(RunMode::AndroidApp)
//!     .iterations(25)
//!     .run();
//! println!(
//!     "inference {:.1} ms, AI tax {:.0}%",
//!     report.summary(Stage::Inference).mean_ms(),
//!     report.ai_tax_fraction() * 100.0
//! );
//! assert!(report.ai_tax_fraction() > 0.0);
//! ```

pub use aitax_capture as capture;
pub use aitax_core as core;
pub use aitax_des as des;
pub use aitax_fleet as fleet;
pub use aitax_framework as framework;
pub use aitax_kernel as kernel;
pub use aitax_lab as lab;
pub use aitax_models as models;
pub use aitax_pipeline as pipeline;
pub use aitax_power as power;
pub use aitax_profiler as profiler;
pub use aitax_serve as serve;
pub use aitax_soc as soc;
pub use aitax_tensor as tensor;
pub use aitax_testkit as testkit;
