//! Snapdragon-Profiler-style analysis of simulation traces.
//!
//! The paper's Figure 6 reads an execution profile — per-core utilization
//! strips, CDSP activity, AXI traffic and context-switch/migration
//! markers — to root-cause NNAPI's fallback behaviour. This crate turns an
//! [`aitax_des::TraceBuffer`] into that view:
//!
//! * [`UtilizationTimeline`] — busy-fraction per resource per time bin,
//! * [`ProfileReport`] — the full report with counters, rendered as an
//!   ASCII heat strip (for terminals) or TSV (for plotting).
//!
//! # Example
//!
//! ```
//! use aitax_des::trace::{TraceBuffer, TraceKind, TraceResource};
//! use aitax_des::{SimSpan, SimTime};
//! use aitax_profiler::ProfileReport;
//!
//! let mut buf = TraceBuffer::enabled();
//! let r = TraceResource::CpuCore(0);
//! let label = buf.intern("job");
//! buf.record(SimTime::from_ns(0), r, TraceKind::ExecStart { task: 1, label });
//! buf.record(SimTime::from_ns(1_000_000), r, TraceKind::ExecEnd { task: 1 });
//! let report = ProfileReport::from_trace(&buf, SimSpan::from_ms(0.5));
//! assert!(report.utilization_of(r, 0) > 0.99);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use aitax_des::trace::{TraceBuffer, TraceKind, TraceResource};
use aitax_des::{SimSpan, SimTime};

/// Busy fraction per time bin for one resource.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTimeline {
    /// The resource this timeline describes.
    pub resource: TraceResource,
    /// Busy fraction (0–1) per bin.
    pub bins: Vec<f64>,
}

impl UtilizationTimeline {
    /// Mean utilization across the whole timeline.
    pub fn mean(&self) -> f64 {
        if self.bins.is_empty() {
            0.0
        } else {
            self.bins.iter().sum::<f64>() / self.bins.len() as f64
        }
    }

    /// Peak bin utilization.
    pub fn peak(&self) -> f64 {
        self.bins.iter().cloned().fold(0.0, f64::max)
    }

    /// Renders the timeline as a unicode heat strip.
    pub fn heat_strip(&self) -> String {
        const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        self.bins
            .iter()
            .map(|&u| {
                let idx = (u.clamp(0.0, 1.0) * 8.0).round() as usize;
                LEVELS[idx]
            })
            .collect()
    }
}

/// A complete profile extracted from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Bin width used for the timelines.
    pub bin_width: SimSpan,
    /// End of the profiled window.
    pub span_end: SimTime,
    /// One timeline per resource that appeared in the trace, ordered.
    pub timelines: Vec<UtilizationTimeline>,
    /// Context switches observed.
    pub context_switches: u64,
    /// Task migrations observed.
    pub migrations: u64,
    /// Interrupts observed.
    pub irqs: u64,
    /// Total AXI bytes moved.
    pub axi_bytes: u64,
    /// AXI bytes per time bin.
    pub axi_per_bin: Vec<u64>,
}

impl ProfileReport {
    /// Builds a report from a trace with the given bin width. The window
    /// ends at the trace's last event.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn from_trace(trace: &TraceBuffer, bin_width: SimSpan) -> Self {
        let end = trace.iter().map(|e| e.time).max().unwrap_or(SimTime::ZERO);
        Self::from_trace_until(trace, bin_width, end)
    }

    /// Builds a report over the explicit window `[0, end]`.
    ///
    /// Two edge cases are handled deliberately:
    ///
    /// * a task with an `ExecStart` but no `ExecEnd` counts as busy up to
    ///   `end` (a hung or still-running task is real utilization), and
    /// * events landing exactly on the window end (or beyond it, if the
    ///   caller chose an `end` before the last event) are clamped into
    ///   the final bin instead of indexing past the timeline.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn from_trace_until(trace: &TraceBuffer, bin_width: SimSpan, end: SimTime) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        let nbins = (end.as_ns() as f64 / bin_width.as_ns() as f64).ceil() as usize;
        let nbins = nbins.max(1);

        let mut busy: BTreeMap<TraceResource, Vec<f64>> = BTreeMap::new();
        for iv in trace.exec_intervals_until(end) {
            let bins = busy.entry(iv.resource).or_insert_with(|| vec![0.0; nbins]);
            let (s, e) = (iv.start.as_ns(), iv.end.as_ns().min(end.as_ns()));
            let bw = bin_width.as_ns();
            let first = (s / bw) as usize;
            let last = ((e.saturating_sub(1)) / bw) as usize;
            for (b, bin) in bins
                .iter_mut()
                .enumerate()
                .take(last.min(nbins - 1) + 1)
                .skip(first)
            {
                let bin_start = b as u64 * bw;
                let bin_end = bin_start + bw;
                let overlap = e.min(bin_end).saturating_sub(s.max(bin_start));
                *bin += overlap as f64 / bw as f64;
            }
        }

        let mut context_switches = 0;
        let mut migrations = 0;
        let mut irqs = 0;
        let mut axi_bytes = 0;
        let mut axi_per_bin = vec![0u64; nbins];
        for ev in trace.iter() {
            if ev.time > end {
                continue;
            }
            match &ev.kind {
                TraceKind::ContextSwitch => context_switches += 1,
                TraceKind::Migration { .. } => migrations += 1,
                TraceKind::Irq { .. } => irqs += 1,
                TraceKind::AxiBurst { bytes } => {
                    axi_bytes += bytes;
                    let b = (ev.time.as_ns() / bin_width.as_ns()) as usize;
                    axi_per_bin[b.min(nbins - 1)] += bytes;
                }
                _ => {}
            }
        }

        let timelines = busy
            .into_iter()
            .map(|(resource, mut bins)| {
                for b in &mut bins {
                    *b = b.min(1.0);
                }
                UtilizationTimeline { resource, bins }
            })
            .collect();
        ProfileReport {
            bin_width,
            span_end: end,
            timelines,
            context_switches,
            migrations,
            irqs,
            axi_bytes,
            axi_per_bin,
        }
    }

    /// The timeline for one resource, if it appeared.
    pub fn timeline(&self, resource: TraceResource) -> Option<&UtilizationTimeline> {
        self.timelines.iter().find(|t| t.resource == resource)
    }

    /// Utilization of a resource in one bin (0 if absent).
    pub fn utilization_of(&self, resource: TraceResource, bin: usize) -> f64 {
        self.timeline(resource)
            .and_then(|t| t.bins.get(bin))
            .copied()
            .unwrap_or(0.0)
    }

    /// Mean utilization of a resource over the whole window.
    pub fn mean_utilization(&self, resource: TraceResource) -> f64 {
        self.timeline(resource).map(|t| t.mean()).unwrap_or(0.0)
    }

    /// Renders the Fig. 6-style profile view: one heat strip per
    /// resource plus the counters.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} bins x {} (window {})",
            self.timelines.first().map(|t| t.bins.len()).unwrap_or(0),
            self.bin_width,
            self.span_end
        );
        for t in &self.timelines {
            let _ = writeln!(
                out,
                "{:>5} |{}| mean {:>5.1}%",
                t.resource.to_string(),
                t.heat_strip(),
                t.mean() * 100.0
            );
        }
        if self.axi_bytes > 0 {
            let peak = self.axi_per_bin.iter().copied().max().unwrap_or(1).max(1);
            const LEVELS: [char; 9] = [
                ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}',
                '\u{2587}', '\u{2588}',
            ];
            let strip: String = self
                .axi_per_bin
                .iter()
                .map(|&b| LEVELS[(b as f64 / peak as f64 * 8.0).round() as usize])
                .collect();
            let _ = writeln!(out, "{:>5} |{}| traffic", "axi", strip);
        }
        let _ = writeln!(
            out,
            "ctx-switches {}  migrations {}  irqs {}  axi {:.2} MB",
            self.context_switches,
            self.migrations,
            self.irqs,
            self.axi_bytes as f64 / 1e6
        );
        out
    }

    /// Renders the timelines as TSV (`bin<TAB>resource<TAB>utilization`).
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("bin\tresource\tutilization\n");
        for t in &self.timelines {
            for (i, u) in t.bins.iter().enumerate() {
                let _ = writeln!(out, "{i}\t{}\t{u:.4}", t.resource);
            }
        }
        out
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    fn record_interval(
        buf: &mut TraceBuffer,
        r: TraceResource,
        task: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let label = buf.intern("t");
        buf.record(
            SimTime::from_ns(start_ns),
            r,
            TraceKind::ExecStart { task, label },
        );
        buf.record(SimTime::from_ns(end_ns), r, TraceKind::ExecEnd { task });
    }

    #[test]
    fn full_bin_is_fully_utilized() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::CpuCore(1);
        record_interval(&mut buf, r, 1, 0, 1000);
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(1000));
        assert_eq!(rep.utilization_of(r, 0), 1.0);
        assert_eq!(rep.mean_utilization(r), 1.0);
    }

    #[test]
    fn half_bin_overlap() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::Dsp;
        record_interval(&mut buf, r, 1, 500, 1500);
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(1000));
        assert!((rep.utilization_of(r, 0) - 0.5).abs() < 1e-9);
        assert!((rep.utilization_of(r, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn counters_tally_events() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::CpuCore(0);
        buf.record(SimTime::from_ns(10), r, TraceKind::ContextSwitch);
        buf.record(SimTime::from_ns(20), r, TraceKind::ContextSwitch);
        buf.record(
            SimTime::from_ns(30),
            r,
            TraceKind::Migration {
                task: 1,
                from: 0,
                to: 2,
            },
        );
        buf.record(
            SimTime::from_ns(40),
            TraceResource::Axi,
            TraceKind::AxiBurst { bytes: 512 },
        );
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(100));
        assert_eq!(rep.context_switches, 2);
        assert_eq!(rep.migrations, 1);
        assert_eq!(rep.axi_bytes, 512);
        assert_eq!(rep.axi_per_bin[0], 512);
    }

    #[test]
    fn absent_resource_reads_zero() {
        let buf = TraceBuffer::enabled();
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(10));
        assert_eq!(rep.utilization_of(TraceResource::Gpu, 0), 0.0);
        assert!(rep.timeline(TraceResource::Gpu).is_none());
    }

    #[test]
    fn heat_strip_levels() {
        let t = UtilizationTimeline {
            resource: TraceResource::CpuCore(0),
            bins: vec![0.0, 0.5, 1.0],
        };
        let strip = t.heat_strip();
        let chars: Vec<char> = strip.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], ' ');
        assert_eq!(chars[2], '█');
        assert!((t.peak() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_render_contains_resources_and_counters() {
        let mut buf = TraceBuffer::enabled();
        record_interval(&mut buf, TraceResource::Dsp, 1, 0, 500);
        buf.record(
            SimTime::from_ns(100),
            TraceResource::CpuCore(0),
            TraceKind::ContextSwitch,
        );
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(100));
        let text = rep.render_ascii();
        assert!(text.contains("cdsp"));
        assert!(text.contains("ctx-switches 1"));
    }

    #[test]
    fn tsv_has_row_per_bin() {
        let mut buf = TraceBuffer::enabled();
        record_interval(&mut buf, TraceResource::Gpu, 3, 0, 1000);
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(250));
        let tsv = rep.render_tsv();
        assert_eq!(tsv.lines().count(), 1 + 4);
    }

    #[test]
    fn multiple_tasks_cap_at_one() {
        // Two overlapping tasks on the same resource (preempt/restart
        // bookkeeping) must not exceed 100%.
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::CpuCore(2);
        record_interval(&mut buf, r, 1, 0, 800);
        record_interval(&mut buf, r, 2, 200, 1000);
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(1000));
        assert_eq!(rep.utilization_of(r, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_panics() {
        ProfileReport::from_trace(&TraceBuffer::enabled(), SimSpan::ZERO);
    }

    // ------------------------------------------------- edge-case fixes
    // Regression tests for two historical `from_trace` bugs: events on
    // the exact window boundary indexing past `axi_per_bin`, and
    // dangling ExecStarts silently vanishing from busy accounting.

    #[test]
    fn axi_burst_exactly_at_window_end_lands_in_last_bin() {
        let mut buf = TraceBuffer::enabled();
        // The burst is the last event, at an exact bin-boundary multiple:
        // end = 2000, nbins = 2, naive bin index = 2 → out of bounds.
        buf.record(
            SimTime::from_ns(0),
            TraceResource::CpuCore(0),
            TraceKind::ContextSwitch,
        );
        buf.record(
            SimTime::from_ns(2000),
            TraceResource::Axi,
            TraceKind::AxiBurst { bytes: 64 },
        );
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(1000));
        assert_eq!(rep.axi_per_bin.len(), 2);
        assert_eq!(rep.axi_per_bin[1], 64);
        assert_eq!(rep.axi_bytes, 64);

        // Same trace through an explicit window that ends *before* the
        // burst: the event is outside the window and must not count.
        let windowed =
            ProfileReport::from_trace_until(&buf, SimSpan::from_ns(1000), SimTime::from_ns(1000));
        assert_eq!(windowed.axi_bytes, 0);
        assert_eq!(windowed.axi_per_bin.len(), 1);
    }

    #[test]
    fn dangling_exec_start_counts_busy_to_window_end() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::CpuCore(3);
        // A closed interval fixes the trace end at 4000 ns; the dangling
        // task starts at 1000 ns and never ends.
        record_interval(&mut buf, TraceResource::Dsp, 9, 3800, 4000);
        let hung = buf.intern("hung");
        buf.record(
            SimTime::from_ns(1000),
            r,
            TraceKind::ExecStart {
                task: 1,
                label: hung,
            },
        );
        let rep = ProfileReport::from_trace(&buf, SimSpan::from_ns(1000));
        // Busy from 1000 to 4000 of a 4000 ns window: bins 1..3 full.
        assert_eq!(rep.utilization_of(r, 0), 0.0);
        assert_eq!(rep.utilization_of(r, 1), 1.0);
        assert_eq!(rep.utilization_of(r, 3), 1.0);
        assert!((rep.mean_utilization(r) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn explicit_window_clamps_closed_intervals() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::Gpu;
        record_interval(&mut buf, r, 1, 0, 4000);
        // Profile only the first half: utilization is full over the
        // truncated window, not smeared or out of range.
        let rep =
            ProfileReport::from_trace_until(&buf, SimSpan::from_ns(1000), SimTime::from_ns(2000));
        assert_eq!(rep.axi_per_bin.len(), 2);
        assert_eq!(rep.mean_utilization(r), 1.0);
    }
}
