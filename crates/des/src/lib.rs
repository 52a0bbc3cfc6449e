//! Deterministic discrete-event simulation (DES) kernel for the `aitax`
//! mobile-SoC simulator.
//!
//! This crate provides the foundational machinery that every other `aitax`
//! crate builds on:
//!
//! * [`SimTime`] / [`SimSpan`] — a nanosecond-resolution virtual clock,
//! * [`Calendar`] — a cancellable, deterministically ordered event calendar,
//! * [`SimRng`] — a seedable random source with the distributions used by the
//!   workload and noise models,
//! * [`trace`] — a compact structured trace vocabulary (execution intervals,
//!   context switches, RPC phases, AXI bursts) consumed by `aitax-profiler`.
//!
//! The calendar is intentionally *payload-free*: it hands out opaque
//! [`Token`]s and lets the embedding simulator (see `aitax-kernel`) map
//! tokens to domain events. This keeps the kernel monomorphic and easy to
//! test in isolation.
//!
//! # Example
//!
//! ```
//! use aitax_des::{Calendar, SimSpan};
//!
//! let mut cal = Calendar::new();
//! let a = cal.schedule_after(SimSpan::from_ms(2.0));
//! let b = cal.schedule_after(SimSpan::from_ms(1.0));
//! let (t, tok) = cal.next().expect("an event is pending");
//! assert_eq!(tok, b);
//! assert_eq!(t.as_ms(), 1.0);
//! # let _ = a;
//! ```

mod arbiter;
mod calendar;
pub mod fault;
pub mod rng;
mod symbol;
mod time;
pub mod trace;

pub use arbiter::{Acquired, Arbiter, HoldId, Ticket};
pub use calendar::{Calendar, Token};
pub use fault::{FaultKind, FaultPlan};
pub use rng::SimRng;
pub use symbol::Symbol;
pub use time::{SimSpan, SimTime};
pub use trace::{TraceBuffer, TraceEvent, TraceMode};
