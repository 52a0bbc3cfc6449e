//! Operating-system model for the `aitax` simulator.
//!
//! This crate provides [`Machine`]: a discrete-event simulated phone — a
//! [`SocSpec`](aitax_soc::SocSpec) brought to life with:
//!
//! * a CFS-flavoured CPU scheduler (per-core run queues, weighted
//!   round-robin time slices, context-switch costs, idle stealing with
//!   cache-warmup migration penalties),
//! * serial FIFO queues for the loosely-coupled accelerators (DSP, GPU) —
//!   the source of the multi-tenancy stalls in Figure 9,
//! * a `fastrpc` driver reproducing the Figure 7 offload call flow
//!   (ioctl entry → cache flush → doorbell → DSP execute → completion
//!   signal → ioctl return) with one-time session setup (Figure 8),
//! * interrupt jitter and `noise` generators that model the Android
//!   background activity responsible for in-app run-to-run variability
//!   (Figure 11),
//! * power/thermal coupling: a schedutil-style `dvfs` governor picks
//!   per-core clocks, the per-rail power model turns execution into watts,
//!   watts heat the chip, and heat throttles frequency (paper §III-D).
//!
//! Work is submitted as [`TaskSpec`]s and sequenced with completion
//! callbacks; `aitax-framework` and `aitax-core` build the ML execution
//! pipeline on top of this interface.
//!
//! # Example
//!
//! ```
//! use aitax_kernel::{Machine, TaskSpec, Work};
//! use aitax_soc::{SocCatalog, SocId};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 42);
//! let done = Rc::new(Cell::new(false));
//! let flag = done.clone();
//! m.submit_cpu(
//!     TaskSpec::foreground("hello", Work::Fp32Flops(1e6)),
//!     move |_m| flag.set(true),
//! );
//! m.run_until_idle();
//! assert!(done.get());
//! ```

mod dvfs;
mod fastrpc;
mod machine;
mod noise;
mod sched;
mod task;

pub use fastrpc::{RpcDevice, RpcInvoke, RpcOutcome};
pub use machine::{DegradationStats, GangJoin, GpuJob, Machine, MachineStats};
pub use noise::NoiseConfig;
pub use task::{CoreMask, TaskSpec, Work};
