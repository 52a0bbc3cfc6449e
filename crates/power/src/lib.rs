//! Per-rail power, energy and battery models for the `aitax` simulator.
//!
//! The paper's AI-tax analysis is a *time* decomposition; this crate adds
//! the matching *energy* axis:
//!
//! * [`PowerSpec`] — static description of an SoC's voltage rails:
//!   per-core `C·V²·f` dynamic power over a DVFS operating-point ladder,
//!   static leakage with optional power gating, two-state accelerator
//!   rails (GPU/DSP/NPU), and interconnect energy-per-byte plus an
//!   always-on uncore floor.
//! * [`MeterIndex`] — digests an execution trace
//!   ([`TraceBuffer`](aitax_des::TraceBuffer)) once against a
//!   [`PowerSpec`], then attributes joules per rail to arbitrary time
//!   windows (pipeline stages, iterations), touching only what overlaps
//!   each, and bins per-rail power timelines. CPU intervals are priced at
//!   the frequency the DVFS governor had set (`TraceKind::Dvfs`
//!   changepoints).
//! * [`Battery`] — joule bookkeeping that turns per-inference energy into
//!   state-of-charge and runtime estimates.
//!
//! `aitax-soc` attaches a `PowerSpec` to every catalog chipset;
//! `aitax-kernel` closes the loop by heating the thermal model from
//! metered watts and throttling/retargeting clocks in response.
//!
//! # Example
//!
//! ```
//! use aitax_power::{AccelRailSpec, CoreRailSpec, InterconnectPowerSpec, MeterIndex,
//!                   PowerSpec, Rail};
//! use aitax_des::trace::{TraceKind, TraceResource};
//! use aitax_des::{SimTime, TraceBuffer};
//!
//! let spec = PowerSpec {
//!     core_rails: vec![CoreRailSpec::scaled("big", 2.8e9, 1.9, 0.07, false)],
//!     gpu: AccelRailSpec::new("adreno", 2.5, 0.1, true),
//!     dsp: AccelRailSpec::new("hexagon", 0.8, 0.05, true),
//!     npu: None,
//!     interconnect: InterconnectPowerSpec { energy_per_byte_j: 80e-12, uncore_w: 0.9 },
//! };
//! let mut trace = TraceBuffer::enabled();
//! let label = trace.intern("inference");
//! trace.record(SimTime::from_ns(0), TraceResource::CpuCore(0),
//!              TraceKind::ExecStart { task: 1, label });
//! trace.record(SimTime::from_ns(10_000_000), TraceResource::CpuCore(0),
//!              TraceKind::ExecEnd { task: 1 });
//! let energy = MeterIndex::new(&spec, &trace)
//!     .energy_between(SimTime::ZERO, SimTime::from_ns(10_000_000));
//! assert!(energy.joules(Rail::Cpu(0)) > 0.0);
//! ```

mod battery;
mod meter;
mod spec;

pub use battery::{typical_phone_battery, Battery};
pub use meter::{MeterIndex, PowerTimeline, RailEnergy};
pub use spec::{AccelRailSpec, CoreRailSpec, InterconnectPowerSpec, PowerSpec, Rail};
