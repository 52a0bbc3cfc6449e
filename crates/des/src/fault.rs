//! Deterministic fault injection for the simulated SoC.
//!
//! A [`FaultPlan`] is a seeded schedule of [`FaultKind`]s, each active
//! over a half-open `[start, end)` window of simulated time. The plan is
//! pure data: it never schedules anything by itself. Subsystems query
//! [`FaultPlan::active`] at their own decision points (the FastRPC ioctl
//! boundary, the DSP doorbell, the cache-maintenance step, ...), which
//! keeps the fault-free path byte-identical to a run with no plan
//! installed — the zero-overhead guarantee that
//! `tests/fault_tolerance.rs` pins.

use crate::time::SimTime;

/// The failure modes the paper's measurement chapters run into, each
/// mapped to the stack layer where the real phone exhibits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `ioctl(FASTRPC_INVOKE)` returns an error before reaching the DSP
    /// (driver rejects the call at the kernel boundary).
    RpcIoctlError,
    /// The DSP never raises its completion signal: the invocation hangs
    /// until the caller's timeout fires.
    DspSignalTimeout,
    /// The DSP runs the job but the completion response is lost, so the
    /// work is visibly done in the trace yet the caller still times out.
    DspResponseDropped,
    /// Skin-temperature emergency: the thermal state jumps past the hard
    /// limit and the governor clamps frequency until the SoC cools.
    ThermalEmergency,
    /// Memory pressure multiplies the cache-maintenance cost of every
    /// FastRPC call (the Fig. 7 flush/invalidate step) while active.
    CacheFlushStorm,
    /// A burst of background tasks lands on the CPU cores, contending
    /// with the foreground pipeline like the Fig. 10 scenario.
    BackgroundBurst,
}

impl FaultKind {
    /// Every fault kind, in a fixed order (for sweeps and reports).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::RpcIoctlError,
        FaultKind::DspSignalTimeout,
        FaultKind::DspResponseDropped,
        FaultKind::ThermalEmergency,
        FaultKind::CacheFlushStorm,
        FaultKind::BackgroundBurst,
    ];
}

/// One scheduled fault: `kind` is active for `start <= t < end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    pub kind: FaultKind,
    pub start: SimTime,
    pub end: SimTime,
}

impl FaultWindow {
    /// Whether this window covers instant `t`.
    pub(crate) fn covers(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A seeded, ordered schedule of fault windows.
///
/// The seed does not drive the windows themselves (those are explicit);
/// it seeds whatever randomness a consumer needs when *realizing* a
/// fault — e.g. the sizes of a background burst — so that the same plan
/// always unfolds identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan: no faults, and — by construction of the query-based
    /// injection points — no effect on the simulation whatsoever.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            windows: Vec::new(),
        }
    }

    /// Add a fault active over `[start, end)`.
    pub fn window(mut self, kind: FaultKind, start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "fault window must not be inverted");
        self.windows.push(FaultWindow { kind, start, end });
        self
    }

    /// Add a fault that starts at `from` and never clears.
    pub fn sustained(self, kind: FaultKind, from: SimTime) -> Self {
        self.window(kind, from, SimTime::MAX)
    }

    /// Add an instantaneous fault at `t` (relevant for one-shot kinds
    /// like [`FaultKind::ThermalEmergency`] and
    /// [`FaultKind::BackgroundBurst`]).
    pub fn at(self, kind: FaultKind, t: SimTime) -> Self {
        self.window(kind, t, SimTime::from_ns(t.as_ns().saturating_add(1)))
    }

    /// The seed consumers should use for fault-realization randomness.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any window of `kind` covers instant `t`.
    pub fn active(&self, kind: FaultKind, t: SimTime) -> bool {
        self.windows.iter().any(|w| w.kind == kind && w.covers(t))
    }

    /// All scheduled windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new(1).window(
            FaultKind::RpcIoctlError,
            SimTime::from_ns(100),
            SimTime::from_ns(200),
        );
        assert!(!plan.active(FaultKind::RpcIoctlError, SimTime::from_ns(99)));
        assert!(plan.active(FaultKind::RpcIoctlError, SimTime::from_ns(100)));
        assert!(plan.active(FaultKind::RpcIoctlError, SimTime::from_ns(199)));
        assert!(!plan.active(FaultKind::RpcIoctlError, SimTime::from_ns(200)));
        // Other kinds are unaffected.
        assert!(!plan.active(FaultKind::DspSignalTimeout, SimTime::from_ns(150)));
    }

    #[test]
    fn sustained_never_clears() {
        let plan = FaultPlan::new(1).sustained(FaultKind::DspSignalTimeout, SimTime::ZERO);
        assert!(plan.active(FaultKind::DspSignalTimeout, SimTime::ZERO));
        assert!(plan.active(FaultKind::DspSignalTimeout, SimTime::from_ns(u64::MAX - 1)));
    }

    #[test]
    fn point_faults_cover_exactly_one_instant() {
        let plan = FaultPlan::new(7).at(FaultKind::ThermalEmergency, SimTime::from_ns(500));
        assert!(plan.active(FaultKind::ThermalEmergency, SimTime::from_ns(500)));
        assert!(!plan.active(FaultKind::ThermalEmergency, SimTime::from_ns(501)));
        assert_eq!(plan.windows().len(), 1);
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new(0).is_empty());
        assert!(!FaultPlan::new(0)
            .sustained(FaultKind::CacheFlushStorm, SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn plans_compare_by_value() {
        let a = FaultPlan::new(3).sustained(FaultKind::RpcIoctlError, SimTime::ZERO);
        let b = FaultPlan::new(3).sustained(FaultKind::RpcIoctlError, SimTime::ZERO);
        assert_eq!(a, b);
        assert_ne!(
            a,
            FaultPlan::new(4).sustained(FaultKind::RpcIoctlError, SimTime::ZERO)
        );
    }
}
