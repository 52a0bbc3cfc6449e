//! Schedulable CPU work.

use std::borrow::Cow;

use aitax_soc::CpuCoreSpec;

/// Identifier of a submitted CPU task: its object id, the number trace
/// records carry. Object ids are never reused within a run (until
/// [`Machine::reset`](crate::Machine::reset)); the slot the task's record
/// occupies while it is alive is recycled and is not the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

impl TaskId {
    /// Raw object id (unique within a run of the
    /// [`Machine`](crate::Machine)).
    #[cfg(test)]
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

/// The amount and kind of work a task performs.
///
/// Rates are taken from the core the task currently occupies, so the same
/// task slows down when it lands on a little core — exactly the behaviour
/// behind the paper's NNAPI-fallback pathology (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// Floating-point arithmetic, in *effective* FLOPs (the submitter folds
    /// its kernel efficiency into the count).
    Fp32Flops(f64),
    /// 8-bit integer arithmetic, in effective ops.
    Int8Ops(f64),
    /// Scalar/branchy work, in core cycles (drivers, glue, managed code).
    Cycles(f64),
    /// Work of a known wall-clock duration regardless of core speed
    /// (cache-maintenance walks, DMA waits). Still subject to thermal
    /// throttling and scheduling delays.
    Span(aitax_des::SimSpan),
}

impl Work {
    /// The raw magnitude of the work, in its own units (seconds for
    /// [`Work::Span`]).
    pub(crate) fn amount(self) -> f64 {
        match self {
            Work::Fp32Flops(x) | Work::Int8Ops(x) | Work::Cycles(x) => x,
            Work::Span(s) => s.as_secs(),
        }
    }

    /// Units of this work a given core retires per second at nominal
    /// frequency.
    pub(crate) fn rate_on(self, core: &CpuCoreSpec) -> f64 {
        match self {
            Work::Fp32Flops(_) => core.peak_fp32_flops(),
            Work::Int8Ops(_) => core.peak_int8_ops(),
            Work::Cycles(_) => core.freq_hz,
            Work::Span(_) => 1.0,
        }
    }
}

/// Scheduling class of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// Interactive/foreground work: prefers big cores.
    Foreground,
    /// Background daemons and batch work: may run anywhere, lower weight.
    Background,
    /// Short kernel/driver work (ioctl handling, IRQ bottom halves).
    KernelWork,
    /// NNAPI CPU-fallback execution: single-threaded, unpinned, and prone
    /// to wandering between cores (paper Fig. 6, annotation 4).
    NnapiFallback,
}

impl TaskClass {
    /// Relative scheduler weight (bigger = more CPU share).
    pub(crate) fn weight(self) -> f64 {
        match self {
            TaskClass::Foreground => 1.0,
            TaskClass::Background => 0.4,
            TaskClass::KernelWork => 1.5,
            TaskClass::NnapiFallback => 0.8,
        }
    }

    /// Whether the scheduler should periodically rebalance (wander) this
    /// task across eligible cores even without load imbalance.
    pub(crate) fn wanders(self) -> bool {
        matches!(self, TaskClass::NnapiFallback)
    }
}

/// Which cores a task may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreMask(u32);

impl CoreMask {
    /// Builds a mask from explicit core indices.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or an index exceeds 31.
    pub fn of(cores: &[usize]) -> Self {
        assert!(!cores.is_empty(), "core mask cannot be empty");
        let mut bits = 0u32;
        for &c in cores {
            assert!(c < 32, "core index {c} out of range");
            bits |= 1 << c;
        }
        CoreMask(bits)
    }

    /// Whether the mask allows a core index.
    pub(crate) fn allows(self, core: usize) -> bool {
        core < 32 && self.0 & (1 << core) != 0
    }

    /// Number of allowed cores (capped at 32).
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// Everything needed to submit one CPU task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Human-readable label (appears in traces). Static labels borrow;
    /// dynamic ones come from [`TraceBuffer::label`](aitax_des::TraceBuffer::label),
    /// which leaves them empty while tracing is off.
    pub name: Cow<'static, str>,
    /// The work to perform.
    pub work: Work,
    /// Scheduling class.
    pub class: TaskClass,
    /// Core affinity. `None` lets the class decide (foreground → big
    /// cores, others → all cores).
    pub affinity: Option<CoreMask>,
    /// QoS priority. Zero is the default band every pre-existing workload
    /// runs in; positive priorities order ahead of it in run queues and
    /// may preempt a strictly-lower-priority running task. All-zero
    /// priorities reproduce the plain weighted-round-robin schedule
    /// byte-for-byte.
    pub priority: i8,
}

impl TaskSpec {
    /// A foreground task (big-core affine by default).
    pub fn foreground(name: impl Into<Cow<'static, str>>, work: Work) -> Self {
        TaskSpec {
            name: name.into(),
            work,
            class: TaskClass::Foreground,
            affinity: None,
            priority: 0,
        }
    }

    /// A background task (runs anywhere).
    pub fn background(name: impl Into<Cow<'static, str>>, work: Work) -> Self {
        TaskSpec {
            name: name.into(),
            work,
            class: TaskClass::Background,
            affinity: None,
            priority: 0,
        }
    }

    /// A kernel/driver work item.
    pub fn kernel(name: impl Into<Cow<'static, str>>, work: Work) -> Self {
        TaskSpec {
            name: name.into(),
            work,
            class: TaskClass::KernelWork,
            affinity: None,
            priority: 0,
        }
    }

    /// An NNAPI CPU-fallback execution slice.
    pub fn nnapi_fallback(name: impl Into<Cow<'static, str>>, work: Work) -> Self {
        TaskSpec {
            name: name.into(),
            work,
            class: TaskClass::NnapiFallback,
            affinity: None,
            priority: 0,
        }
    }

    /// Overrides the affinity.
    pub fn with_affinity(mut self, mask: CoreMask) -> Self {
        self.affinity = Some(mask);
        self
    }

    /// Overrides the QoS priority (see [`TaskSpec::priority`]).
    pub fn with_priority(mut self, priority: i8) -> Self {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use aitax_des::SimSpan;
    use aitax_soc::{ClusterKind, CpuCoreSpec};

    fn core() -> CpuCoreSpec {
        CpuCoreSpec {
            kind: ClusterKind::Big,
            freq_hz: 2e9,
            fp32_flops_per_cycle: 8.0,
            int8_ops_per_cycle: 16.0,
            migration_penalty: SimSpan::from_us(50.0),
        }
    }

    #[test]
    fn work_rates_differ_by_kind() {
        let c = core();
        assert_eq!(Work::Fp32Flops(1.0).rate_on(&c), 16e9);
        assert_eq!(Work::Int8Ops(1.0).rate_on(&c), 32e9);
        assert_eq!(Work::Cycles(1.0).rate_on(&c), 2e9);
    }

    #[test]
    fn mask_membership() {
        let m = CoreMask::of(&[0, 3, 7]);
        assert!(m.allows(0));
        assert!(!m.allows(1));
        assert!(m.allows(7));
        assert_eq!(m.count(), 3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_mask_panics() {
        CoreMask::of(&[]);
    }

    #[test]
    fn class_weights_ordering() {
        assert!(TaskClass::KernelWork.weight() > TaskClass::Foreground.weight());
        assert!(TaskClass::Foreground.weight() > TaskClass::Background.weight());
        assert!(TaskClass::NnapiFallback.wanders());
        assert!(!TaskClass::Foreground.wanders());
    }

    #[test]
    fn spec_builders_set_class() {
        let s = TaskSpec::background("b", Work::Cycles(10.0));
        assert_eq!(s.class, TaskClass::Background);
        let s = s.with_affinity(CoreMask::of(&[2]));
        assert_eq!(s.affinity, Some(CoreMask::of(&[2])));
    }
}
