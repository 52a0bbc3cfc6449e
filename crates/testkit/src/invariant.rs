//! Trace invariants: structural properties every well-formed simulation
//! trace must satisfy, regardless of scenario, seed or fault plan.
//!
//! The checks are deliberately scenario-agnostic — they encode what it
//! *means* for a trace to be a plausible execution history (one task per
//! resource at a time, monotone time, paired start/end events, migration
//! events backed by evidence) rather than what any particular figure of
//! the paper expects. Figure-shape expectations live in the integration
//! tests; these invariants are the safety net underneath them.

use std::collections::HashMap;
use std::fmt;

use aitax_core::energy::EnergyReport;
use aitax_core::pipeline::E2eReport;
use aitax_core::stage::Stage;
use aitax_des::trace::{TraceBuffer, TraceKind, TraceResource};
use aitax_kernel::MachineStats;

/// A single invariant violation, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant that failed.
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.message)
    }
}

/// The trace invariants checked by [`check_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceInvariant {
    /// No resource executes two tasks at once.
    SingleOccupancy,
    /// Event timestamps never decrease in emission order.
    MonotoneTime,
    /// Every `ExecEnd` matches an open `ExecStart` for the same task on
    /// the same resource (unclosed starts at trace end are allowed — the
    /// run may simply have been cut off).
    ExecPairing,
    /// Every `Migration` moves between distinct cores, and the migrated
    /// task's next `ExecStart` on a CPU core lands on the destination.
    MigrationEvidence,
}

impl TraceInvariant {
    /// All invariants, in the order [`check_trace`] runs them.
    pub(crate) const ALL: [TraceInvariant; 4] = [
        TraceInvariant::SingleOccupancy,
        TraceInvariant::MonotoneTime,
        TraceInvariant::ExecPairing,
        TraceInvariant::MigrationEvidence,
    ];

    /// Stable name used in violation reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceInvariant::SingleOccupancy => "single-occupancy",
            TraceInvariant::MonotoneTime => "monotone-time",
            TraceInvariant::ExecPairing => "exec-pairing",
            TraceInvariant::MigrationEvidence => "migration-evidence",
        }
    }

    /// Checks this invariant alone against a trace.
    pub(crate) fn check(self, trace: &TraceBuffer) -> Vec<Violation> {
        match self {
            TraceInvariant::SingleOccupancy => check_single_occupancy(trace),
            TraceInvariant::MonotoneTime => check_monotone_time(trace),
            TraceInvariant::ExecPairing => check_exec_pairing(trace),
            TraceInvariant::MigrationEvidence => check_migration_evidence(trace),
        }
    }
}

/// Runs every `TraceInvariant` against a trace, collecting all
/// violations instead of stopping at the first.
pub fn check_trace(trace: &TraceBuffer) -> Vec<Violation> {
    TraceInvariant::ALL
        .iter()
        .flat_map(|inv| inv.check(trace))
        .collect()
}

fn violation(inv: TraceInvariant, message: String) -> Violation {
    Violation {
        invariant: inv.name(),
        message,
    }
}

fn check_single_occupancy(trace: &TraceBuffer) -> Vec<Violation> {
    let mut out = Vec::new();
    // resource -> currently executing task (id, label symbol).
    let mut open: HashMap<TraceResource, (u64, aitax_des::Symbol)> = HashMap::new();
    for ev in trace.iter() {
        match &ev.kind {
            TraceKind::ExecStart { task, label } => {
                if let Some((other, other_label)) = open.get(&ev.resource) {
                    out.push(violation(
                        TraceInvariant::SingleOccupancy,
                        format!(
                            "{} starts task {task} ({}) at {} while task \
                             {other} ({}) is still executing",
                            ev.resource,
                            trace.resolve(*label),
                            ev.time,
                            trace.resolve(*other_label),
                        ),
                    ));
                }
                open.insert(ev.resource, (*task, *label));
            }
            TraceKind::ExecEnd { task }
                if open.get(&ev.resource).is_some_and(|(t, _)| t == task) =>
            {
                open.remove(&ev.resource);
            }
            _ => {}
        }
    }
    out
}

fn check_monotone_time(trace: &TraceBuffer) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut prev: Option<aitax_des::TraceEvent> = None;
    for ev in trace.iter() {
        if let Some(p) = prev {
            if ev.time < p.time {
                out.push(violation(
                    TraceInvariant::MonotoneTime,
                    format!(
                        "event on {} at {} emitted after event on {} at {}",
                        ev.resource, ev.time, p.resource, p.time
                    ),
                ));
            }
        }
        prev = Some(ev);
    }
    out
}

fn check_exec_pairing(trace: &TraceBuffer) -> Vec<Violation> {
    let mut out = Vec::new();
    // (resource, task) -> number of currently open starts.
    let mut open: HashMap<(TraceResource, u64), u64> = HashMap::new();
    for ev in trace.iter() {
        match &ev.kind {
            TraceKind::ExecStart { task, .. } => {
                *open.entry((ev.resource, *task)).or_insert(0) += 1;
            }
            TraceKind::ExecEnd { task } => {
                let key = (ev.resource, *task);
                match open.get_mut(&key) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => out.push(violation(
                        TraceInvariant::ExecPairing,
                        format!(
                            "orphan ExecEnd for task {task} on {} at {} \
                             (no matching ExecStart)",
                            ev.resource, ev.time
                        ),
                    )),
                }
            }
            _ => {}
        }
    }
    for ((resource, task), n) in open {
        if n > 1 {
            out.push(violation(
                TraceInvariant::ExecPairing,
                format!("task {task} on {resource} left {n} starts unclosed"),
            ));
        }
    }
    out
}

fn check_migration_evidence(trace: &TraceBuffer) -> Vec<Violation> {
    let mut out = Vec::new();
    // task -> destination core of its most recent (unconsumed) migration.
    let mut pending: HashMap<u64, u8> = HashMap::new();
    for ev in trace.iter() {
        match &ev.kind {
            TraceKind::Migration { task, from, to } => {
                if from == to {
                    out.push(violation(
                        TraceInvariant::MigrationEvidence,
                        format!(
                            "task {task} at {} migrates from cpu{from} to itself",
                            ev.time
                        ),
                    ));
                }
                // A newer migration for the same task supersedes the old
                // destination before the task runs again.
                pending.insert(*task, *to);
            }
            TraceKind::ExecStart { task, .. } => {
                if let (Some(dest), TraceResource::CpuCore(core)) =
                    (pending.get(task).copied(), ev.resource)
                {
                    if core != dest {
                        out.push(violation(
                            TraceInvariant::MigrationEvidence,
                            format!(
                                "task {task} migrated to cpu{dest} but next \
                                 ran on cpu{core} at {}",
                                ev.time
                            ),
                        ));
                    }
                    pending.remove(task);
                }
            }
            _ => {}
        }
    }
    out
}

/// Checks that scheduler counters agree with trace evidence: the machine
/// counted exactly as many context switches and migrations as the trace
/// recorded. Valid only when tracing was enabled for the machine's whole
/// lifetime (as `E2eConfig::tracing(true)` guarantees).
pub fn check_stats_agreement(trace: &TraceBuffer, stats: &MachineStats) -> Vec<Violation> {
    let mut switches = 0u64;
    let mut migrations = 0u64;
    for ev in trace.iter() {
        match ev.kind {
            TraceKind::ContextSwitch => switches += 1,
            TraceKind::Migration { .. } => migrations += 1,
            _ => {}
        }
    }
    let mut out = Vec::new();
    if switches != stats.context_switches {
        out.push(Violation {
            invariant: "stats-agreement",
            message: format!(
                "trace shows {switches} context switches, MachineStats counted {}",
                stats.context_switches
            ),
        });
    }
    if migrations != stats.migrations {
        out.push(Violation {
            invariant: "stats-agreement",
            message: format!(
                "trace shows {migrations} migrations, MachineStats counted {}",
                stats.migrations
            ),
        });
    }
    out
}

/// Checks that metered energy is physically plausible: every per-rail
/// cell is finite and non-negative, and the staged (per-stage attributed)
/// total never exceeds the run total.
pub(crate) fn check_energy(energy: &EnergyReport) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut check_rail = |scope: String, rail: String, joules: f64| {
        if !joules.is_finite() || joules < 0.0 {
            out.push(Violation {
                invariant: "energy-sanity",
                message: format!("{scope}: rail {rail} metered {joules} J"),
            });
        }
    };
    for (rail, joules) in energy.total().iter() {
        check_rail("total".to_string(), format!("{rail:?}"), joules);
    }
    for stage in Stage::ALL {
        for (rail, joules) in energy.stage_energy(stage).iter() {
            check_rail(format!("stage {stage:?}"), format!("{rail:?}"), joules);
        }
    }
    let staged = energy.staged_j();
    let total = energy.total_j();
    if staged > total * (1.0 + 1e-9) + 1e-12 {
        out.push(Violation {
            invariant: "energy-sanity",
            message: format!("staged energy {staged} J exceeds run total {total} J"),
        });
    }
    out
}

/// Runs every applicable check against an [`E2eReport`] and panics with
/// the full violation list if any fail.
///
/// Requires the report to carry a trace (`E2eConfig::tracing(true)`);
/// energy checks run only when metering was enabled.
pub fn assert_report_ok(report: &E2eReport) {
    let trace = report
        .trace
        .as_ref()
        .expect("assert_report_ok needs a traced run (E2eConfig::tracing(true))");
    let mut violations = check_trace(trace);
    violations.extend(check_stats_agreement(trace, &report.stats));
    if let Some(energy) = &report.energy {
        violations.extend(check_energy(energy));
    }
    if !violations.is_empty() {
        let list: Vec<String> = violations.iter().map(Violation::to_string).collect();
        panic!(
            "{} trace invariant violation(s):\n  {}",
            list.len(),
            list.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_des::SimTime;

    fn start(buf: &mut TraceBuffer, task: u64, label: &str) -> TraceKind {
        TraceKind::ExecStart {
            task,
            label: buf.intern(label),
        }
    }

    #[test]
    fn clean_trace_passes_all_invariants() {
        let mut buf = TraceBuffer::enabled();
        let c0 = TraceResource::CpuCore(0);
        let a = start(&mut buf, 1, "a");
        buf.record(SimTime::from_ns(0), c0, a);
        buf.record(SimTime::from_ns(10), c0, TraceKind::ExecEnd { task: 1 });
        buf.record(SimTime::from_ns(10), c0, TraceKind::ContextSwitch);
        let b = start(&mut buf, 2, "b");
        buf.record(SimTime::from_ns(10), c0, b);
        buf.record(SimTime::from_ns(25), c0, TraceKind::ExecEnd { task: 2 });
        assert!(check_trace(&buf).is_empty());
    }

    #[test]
    fn overlapping_tasks_violate_single_occupancy() {
        let mut buf = TraceBuffer::enabled();
        let c0 = TraceResource::CpuCore(0);
        let a = start(&mut buf, 1, "a");
        buf.record(SimTime::from_ns(0), c0, a);
        let b = start(&mut buf, 2, "b");
        buf.record(SimTime::from_ns(5), c0, b);
        let v = TraceInvariant::SingleOccupancy.check(&buf);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "single-occupancy");
    }

    #[test]
    fn time_travel_is_flagged() {
        let mut buf = TraceBuffer::enabled();
        buf.record(
            SimTime::from_ns(10),
            TraceResource::Dsp,
            TraceKind::ContextSwitch,
        );
        buf.record(
            SimTime::from_ns(5),
            TraceResource::Dsp,
            TraceKind::ContextSwitch,
        );
        assert_eq!(TraceInvariant::MonotoneTime.check(&buf).len(), 1);
    }

    #[test]
    fn orphan_end_is_flagged_but_dangling_start_is_not() {
        let mut buf = TraceBuffer::enabled();
        let c1 = TraceResource::CpuCore(1);
        buf.record(SimTime::from_ns(0), c1, TraceKind::ExecEnd { task: 9 });
        let hung = start(&mut buf, 3, "hung");
        buf.record(SimTime::from_ns(5), c1, hung);
        let v = TraceInvariant::ExecPairing.check(&buf);
        assert_eq!(v.len(), 1, "only the orphan end: {v:?}");
        assert!(v[0].message.contains("orphan"));
    }

    #[test]
    fn migration_must_land_on_destination() {
        let mut buf = TraceBuffer::enabled();
        buf.record(
            SimTime::from_ns(0),
            TraceResource::CpuCore(2),
            TraceKind::Migration {
                task: 4,
                from: 1,
                to: 2,
            },
        );
        let t = start(&mut buf, 4, "t");
        buf.record(SimTime::from_ns(5), TraceResource::CpuCore(3), t);
        let v = TraceInvariant::MigrationEvidence.check(&buf);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("cpu2"));
    }

    #[test]
    fn self_migration_is_flagged() {
        let mut buf = TraceBuffer::enabled();
        buf.record(
            SimTime::from_ns(0),
            TraceResource::CpuCore(1),
            TraceKind::Migration {
                task: 4,
                from: 1,
                to: 1,
            },
        );
        assert_eq!(TraceInvariant::MigrationEvidence.check(&buf).len(), 1);
    }

    #[test]
    fn superseding_migration_forgives_old_destination() {
        let mut buf = TraceBuffer::enabled();
        let mig = |from, to| TraceKind::Migration { task: 4, from, to };
        buf.record(SimTime::from_ns(0), TraceResource::CpuCore(2), mig(1, 2));
        buf.record(SimTime::from_ns(3), TraceResource::CpuCore(3), mig(2, 3));
        let t = start(&mut buf, 4, "t");
        buf.record(SimTime::from_ns(5), TraceResource::CpuCore(3), t);
        assert!(TraceInvariant::MigrationEvidence.check(&buf).is_empty());
    }

    #[test]
    fn stats_agreement_counts_events() {
        let mut buf = TraceBuffer::enabled();
        buf.record(
            SimTime::ZERO,
            TraceResource::CpuCore(0),
            TraceKind::ContextSwitch,
        );
        let stats = MachineStats {
            context_switches: 1,
            ..MachineStats::default()
        };
        assert!(check_stats_agreement(&buf, &stats).is_empty());
        let skewed = MachineStats {
            migrations: 2,
            ..stats
        };
        let v = check_stats_agreement(&buf, &skewed);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("migrations"));
    }
}
