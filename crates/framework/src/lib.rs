//! ML inference runtimes for the simulated phone: a TFLite-like
//! interpreter with delegates, an NNAPI-like delegation runtime with
//! vendor drivers, and an SNPE-like vendor SDK.
//!
//! §II-C/§II-D of the paper: "Most of the ML pipeline is determined by the
//! framework(s)" — and §IV-B's headline finding is that *"not all
//! frameworks are created equal"*: the same model on the same silicon can
//! differ by 7× depending on which runtime drives it. This crate models
//! exactly the mechanisms behind that finding:
//!
//! * [`cost`] — delivered-efficiency tables per operator kind, datatype
//!   and execution target (TFLite NEON kernels, NNAPI reference kernels,
//!   Hexagon HVX, Adreno),
//! * `tflite` — the interpreter: multi-threaded CPU execution with
//!   fork-join op dispatch, plus GPU and Hexagon delegates,
//! * [`nnapi`] — model *compilation* (API-level delegation, driver
//!   placement, partitioning), execution preferences, and the two-level
//!   fallback behaviour (delegate-level → fast TFLite kernels;
//!   driver-level → slow single-threaded reference kernels that wander
//!   across cores, Fig. 6),
//! * `snpe` — the vendor-tuned runtime whose DSP path actually delivers
//!   the accelerator's performance (§IV-B).
//!
//! The entry point is [`Session`]: pick an [`Engine`], compile a
//! [`Graph`](aitax_models::Graph) against an
//! [`SocSpec`](aitax_soc::SocSpec), and invoke it on a
//! [`Machine`](aitax_kernel::Machine).
//!
//! # Example
//!
//! ```
//! use aitax_framework::{Engine, Session};
//! use aitax_kernel::Machine;
//! use aitax_models::zoo::{ModelId, Zoo};
//! use aitax_soc::{SocCatalog, SocId};
//! use std::sync::Arc;
//!
//! let soc = SocCatalog::get(SocId::Sd845);
//! let graph = Arc::new(Zoo::entry(ModelId::MobileNetV1).build_graph());
//! let session = Session::compile(Engine::tflite_cpu(4), graph, &soc)?;
//! let mut m = Machine::new(soc, 1);
//! session.invoke(&mut m, |_m| {});
//! m.run_until_idle();
//! assert!(m.now().as_ms() > 1.0, "inference takes real simulated time");
//! # Ok::<(), aitax_framework::CompileError>(())
//! ```

pub mod cost;
pub mod nnapi;
mod session;
mod snpe;
mod tflite;

pub use session::{CompileError, Engine, ExecTarget, Plan, Session};
