//! Trace-driven energy metering.
//!
//! [`MeterIndex`] replays a [`TraceBuffer`] against a [`PowerSpec`],
//! integrating per-rail power over time. CPU execution intervals are
//! priced at the frequency the DVFS governor had set at interval start
//! (`TraceKind::Dvfs` events; the governor only retargets clocks at
//! dispatch boundaries, so the frequency is constant within an interval).
//! Accelerator intervals are priced at their two-state busy power, AXI
//! bursts at energy-per-byte, and every rail pays its idle/uncore floor
//! for the full window.

use std::collections::BTreeMap;

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{SimSpan, SimTime, TraceBuffer};

use crate::spec::{AccelRailSpec, CoreRailSpec, PowerSpec, Rail};

/// Energy attributed per rail, in joules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RailEnergy {
    cells: BTreeMap<Rail, f64>,
}

impl RailEnergy {
    /// An empty ledger.
    pub fn new() -> Self {
        RailEnergy::default()
    }

    /// Adds joules to a rail.
    pub fn add(&mut self, rail: Rail, joules: f64) {
        if joules != 0.0 {
            *self.cells.entry(rail).or_insert(0.0) += joules;
        }
    }

    /// Joules attributed to one rail (zero if absent).
    pub fn joules(&self, rail: Rail) -> f64 {
        self.cells.get(&rail).copied().unwrap_or(0.0)
    }

    /// Total joules across all rails.
    pub fn total_j(&self) -> f64 {
        self.cells.values().sum()
    }

    /// Iterates rails in deterministic (ordinal) order.
    pub fn iter(&self) -> impl Iterator<Item = (Rail, f64)> + '_ {
        self.cells.iter().map(|(&r, &j)| (r, j))
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &RailEnergy) {
        for (rail, j) in other.iter() {
            self.add(rail, j);
        }
    }
}

/// Per-rail average power over fixed-width bins, for timeline plots.
#[derive(Debug, Clone)]
pub struct PowerTimeline {
    /// Nominal bin width.
    pub bin_width: SimSpan,
    /// End of the metered range (the last bin may be shorter).
    pub end: SimTime,
    /// Joules per bin, per rail, rails in ordinal order.
    pub rails: Vec<(Rail, Vec<f64>)>,
}

impl PowerTimeline {
    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.rails.first().map_or(0, |(_, v)| v.len())
    }

    /// Actual length of a bin in seconds (the final bin may be partial).
    pub(crate) fn bin_secs(&self, bin: usize) -> f64 {
        let w = self.bin_width.as_ns();
        let start = bin as u64 * w;
        let end = ((bin as u64 + 1) * w).min(self.end.as_ns());
        (end.saturating_sub(start)) as f64 * 1e-9
    }

    /// Average total watts in a bin.
    pub fn total_watts(&self, bin: usize) -> f64 {
        let secs = self.bin_secs(bin);
        if secs == 0.0 {
            return 0.0;
        }
        self.rails.iter().map(|(_, v)| v[bin]).sum::<f64>() / secs
    }

    /// Peak of the binned total power, in watts.
    pub fn peak_total_watts(&self) -> f64 {
        (0..self.bins())
            .map(|b| self.total_watts(b))
            .fold(0.0, f64::max)
    }
}

/// The value in force at time `t` on a step track of `(time, value)`
/// changepoints in trace order, starting value first (the last change
/// at or before `t`).
fn step_at(track: &[(SimTime, f64)], t: SimTime) -> f64 {
    match track.partition_point(|&(when, _)| when <= t) {
        0 => track[0].1,
        i => track[i - 1].1,
    }
}

/// Overlap of `[s, e)` with `[a, b)` in seconds.
fn overlap_secs(s: SimTime, e: SimTime, a: SimTime, b: SimTime) -> f64 {
    let lo = s.max(a);
    let hi = e.min(b);
    if hi > lo {
        (hi - lo).as_secs()
    } else {
        0.0
    }
}

/// An execution interval priced once: the slot of the rail it draws on
/// and its busy increment (active minus idle watts, so the floor isn't
/// double-paid).
#[derive(Debug, Clone, Copy)]
struct BusySpan {
    start: SimTime,
    end: SimTime,
    slot: usize,
    watts: f64,
}

/// A trace digested once for repeated metering.
///
/// Holds the priced execution intervals in [`TraceBuffer::exec_intervals`]
/// order (by start) with a running maximum of their ends, and the AXI
/// bursts in trace order. A window `[from, to)` then visits only the
/// intervals that can overlap it — from the first whose running-max end
/// passes `from` to the first that starts at or after `to` — and, when
/// burst times are nondecreasing, only the bursts inside it. Both walks
/// keep the full scan's order of [`RailEnergy::add`] calls, so every
/// ledger is bit-identical to metering each window against the whole
/// trace, at O(log I + overlaps) per window instead of O(I + E).
#[derive(Debug, Clone)]
pub struct MeterIndex {
    /// Every rail a window can charge: the floor rails in the order
    /// their floor is paid, then [`Rail::Axi`].
    rails: Vec<Rail>,
    /// Idle/uncore floor watts of each floor rail (`rails` minus AXI).
    floor_w: Vec<f64>,
    busy: Vec<BusySpan>,
    /// `reach[i]` is the latest end among `busy[..=i]`.
    reach: Vec<SimTime>,
    /// AXI bursts as `(time, joules)`, in trace order.
    axi: Vec<(SimTime, f64)>,
    /// Whether `axi` times are nondecreasing (binary-searchable).
    axi_sorted: bool,
}

impl MeterIndex {
    /// Indexes `trace` for metering against `spec` in one pass over its
    /// columns ([`TraceBuffer::scan`]): the DVFS steps and AXI bursts in
    /// trace order, and the closed execution intervals in
    /// [`TraceBuffer::exec_intervals`] order. Reads only the four kinds a
    /// meter-mode trace keeps, so it prices a meter-mode trace exactly as
    /// the full trace of the same run.
    pub fn new(spec: &PowerSpec, trace: &TraceBuffer) -> Self {
        let cores = spec.core_rails.len();
        let mut rails: Vec<Rail> = (0..cores).map(|i| Rail::Cpu(i as u8)).collect();
        let mut floor_w: Vec<f64> = spec.core_rails.iter().map(|r| r.idle_power_w()).collect();
        let mut accel = |rail: Rail, r: &AccelRailSpec| {
            rails.push(rail);
            floor_w.push(r.idle_power_w());
            (rails.len() - 1, r.busy_w - r.idle_power_w())
        };
        let gpu = accel(Rail::Gpu, &spec.gpu);
        let dsp = accel(Rail::Dsp, &spec.dsp);
        let npu = spec.npu.as_ref().map(|r| accel(Rail::Npu, r));
        rails.extend([Rail::Uncore, Rail::Axi]);
        floor_w.push(spec.interconnect.uncore_w);

        // Per-core busy increments at each DVFS step (nominal clock until
        // the first change) and the AXI bursts, beside the intervals.
        let busy_w = |r: &CoreRailSpec, freq_hz: f64| r.active_power_w(freq_hz) - r.idle_power_w();
        let mut steps: Vec<Vec<(SimTime, f64)>> = spec
            .core_rails
            .iter()
            .map(|r| vec![(SimTime::ZERO, busy_w(r, r.nominal().freq_hz))])
            .collect();
        let epb = spec.interconnect.energy_per_byte_j;
        let mut axi: Vec<(SimTime, f64)> = Vec::new();
        let intervals = trace.scan(|time, kind| match kind {
            TraceKind::Dvfs { core, freq_hz } => {
                if let Some(track) = steps.get_mut(core as usize) {
                    let r = &spec.core_rails[core as usize];
                    track.push((time, busy_w(r, freq_hz as f64)));
                }
            }
            TraceKind::AxiBurst { bytes } => axi.push((time, bytes as f64 * epb)),
            _ => {}
        });
        let axi_sorted = axi.windows(2).all(|w| w[0].0 <= w[1].0);

        let busy: Vec<BusySpan> = intervals
            .into_iter()
            .filter_map(|iv| {
                let (slot, watts) = match iv.resource {
                    TraceResource::CpuCore(c) => {
                        (c as usize, step_at(steps.get(c as usize)?, iv.start))
                    }
                    TraceResource::Gpu => gpu,
                    TraceResource::Dsp => dsp,
                    TraceResource::Npu => npu?,
                    // AXI busy time carries no rate term; bursts are
                    // priced per byte.
                    TraceResource::Axi => return None,
                };
                Some(BusySpan {
                    start: iv.start,
                    end: iv.end,
                    slot,
                    watts,
                })
            })
            .collect();
        let reach = busy
            .iter()
            .scan(SimTime::ZERO, |latest, span| {
                *latest = (*latest).max(span.end);
                Some(*latest)
            })
            .collect();
        MeterIndex {
            rails,
            floor_w,
            busy,
            reach,
            axi,
            axi_sorted,
        }
    }

    /// Energy per rail over one window `[from, to)`: the idle/uncore
    /// floor for its full length, the busy increment of each execution
    /// interval overlapping it, and every AXI burst inside it. Empty and
    /// inverted windows meter to an empty ledger.
    pub fn energy_between(&self, from: SimTime, to: SimTime) -> RailEnergy {
        if to <= from {
            return RailEnergy::new();
        }
        // One cell per rail slot, charged exactly as `RailEnergy::add`
        // charges its map (same zero skip, same order per rail).
        let mut cells: Vec<Option<f64>> = vec![None; self.rails.len()];
        let mut add = |slot: usize, joules: f64| {
            if joules != 0.0 {
                *cells[slot].get_or_insert(0.0) += joules;
            }
        };
        let window_secs = (to - from).as_secs();
        for (slot, &watts) in self.floor_w.iter().enumerate() {
            add(slot, watts * window_secs);
        }

        // Spans before `first` all end at or before `from`; spans are
        // sorted by start, so the first starting at or after `to` ends
        // the walk.
        let first = self.reach.partition_point(|&end| end <= from);
        for span in &self.busy[first..] {
            if span.start >= to {
                break;
            }
            let secs = overlap_secs(span.start, span.end, from, to);
            if secs != 0.0 {
                add(span.slot, span.watts * secs);
            }
        }

        let (lo, hi) = if self.axi_sorted {
            (
                self.axi.partition_point(|&(t, _)| t < from),
                self.axi.partition_point(|&(t, _)| t < to),
            )
        } else {
            (0, self.axi.len())
        };
        let axi = self.rails.len() - 1;
        for &(t, joules) in &self.axi[lo..hi] {
            if t >= from && t < to {
                add(axi, joules);
            }
        }
        RailEnergy {
            cells: self
                .rails
                .iter()
                .zip(cells)
                .filter_map(|(&rail, cell)| Some((rail, cell?)))
                .collect(),
        }
    }

    /// Bins the range `[0, end)` into a per-rail power timeline.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn power_timeline(&self, bin_width: SimSpan, end: SimTime) -> PowerTimeline {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        let w = bin_width.as_ns();
        let n = (end.as_ns().div_ceil(w)) as usize;
        let mut timeline = PowerTimeline {
            bin_width,
            end,
            rails: Vec::new(),
        };
        if n == 0 {
            return timeline;
        }

        let bin_bounds = |b: usize| {
            let a = SimTime::from_ns(b as u64 * w);
            let z = SimTime::from_ns(((b as u64 + 1) * w).min(end.as_ns()));
            (a, z)
        };

        let mut rails: BTreeMap<Rail, Vec<f64>> = BTreeMap::new();
        let mut deposit = |rail: Rail, bin: usize, joules: f64| {
            if joules != 0.0 {
                rails.entry(rail).or_insert_with(|| vec![0.0; n])[bin] += joules;
            }
        };

        // Idle/uncore floor per bin.
        for b in 0..n {
            let (a, z) = bin_bounds(b);
            let secs = (z - a).as_secs();
            for (&rail, &watts) in self.rails.iter().zip(&self.floor_w) {
                deposit(rail, b, watts * secs);
            }
        }

        // Busy increments, spread over the bins each interval touches.
        for span in &self.busy {
            if span.start >= end {
                continue;
            }
            let first = (span.start.as_ns() / w) as usize;
            let last = ((span.end.as_ns().saturating_sub(1)) / w).min(n as u64 - 1) as usize;
            for b in first..=last {
                let (a, z) = bin_bounds(b);
                deposit(
                    self.rails[span.slot],
                    b,
                    span.watts * overlap_secs(span.start, span.end, a, z),
                );
            }
        }

        // AXI bursts land in the bin containing their timestamp.
        for &(t, joules) in &self.axi {
            if t < end {
                deposit(Rail::Axi, (t.as_ns() / w) as usize, joules);
            }
        }

        timeline.rails = rails.into_iter().collect();
        timeline
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use crate::spec::{AccelRailSpec, CoreRailSpec, InterconnectPowerSpec};
    use aitax_des::trace::TraceResource;

    fn spec() -> PowerSpec {
        PowerSpec {
            core_rails: vec![
                CoreRailSpec::scaled("big", 2.0e9, 2.0, 0.1, false),
                CoreRailSpec::scaled("big", 2.0e9, 2.0, 0.1, false),
            ],
            gpu: AccelRailSpec::new("gpu", 2.5, 0.1, true),
            dsp: AccelRailSpec::new("dsp", 0.8, 0.05, true),
            npu: None,
            interconnect: InterconnectPowerSpec {
                energy_per_byte_j: 100e-12,
                uncore_w: 1.0,
            },
        }
    }

    fn exec(buf: &mut TraceBuffer, r: TraceResource, task: u64, s_ms: u64, e_ms: u64) {
        let label = buf.intern("t");
        buf.record(
            SimTime::from_ns(s_ms * 1_000_000),
            r,
            TraceKind::ExecStart { task, label },
        );
        buf.record(
            SimTime::from_ns(e_ms * 1_000_000),
            r,
            TraceKind::ExecEnd { task },
        );
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_ns(ms * 1_000_000)
    }

    #[test]
    fn idle_window_pays_exactly_the_floor() {
        let s = spec();
        let trace = TraceBuffer::enabled();
        let e = MeterIndex::new(&s, &trace).energy_between(SimTime::ZERO, at_ms(1000));
        // 1 s × (uncore 1.0 + 2 × leak 0.1); gated accels are free.
        assert!(
            (e.total_j() - 1.2).abs() < 1e-9,
            "idle joules {}",
            e.total_j()
        );
        assert_eq!(e.joules(Rail::Gpu), 0.0);
    }

    #[test]
    fn busy_core_adds_active_minus_idle() {
        let s = spec();
        let mut trace = TraceBuffer::enabled();
        exec(&mut trace, TraceResource::CpuCore(0), 1, 0, 100);
        let e = MeterIndex::new(&s, &trace).energy_between(SimTime::ZERO, at_ms(100));
        let rail = &s.core_rails[0];
        let expect = rail.active_power_w(rail.nominal().freq_hz) * 0.1;
        assert!((e.joules(Rail::Cpu(0)) - expect).abs() < 1e-9);
    }

    #[test]
    fn dvfs_event_reprices_following_intervals() {
        let s = spec();
        let mut trace = TraceBuffer::enabled();
        exec(&mut trace, TraceResource::CpuCore(0), 1, 0, 100);
        let half = s.core_rails[0].opps[0].freq_hz as u64;
        trace.record(
            at_ms(100),
            TraceResource::CpuCore(0),
            TraceKind::Dvfs {
                core: 0,
                freq_hz: half,
            },
        );
        exec(&mut trace, TraceResource::CpuCore(0), 2, 100, 200);
        let m = MeterIndex::new(&s, &trace);
        let fast = m.energy_between(SimTime::ZERO, at_ms(100));
        let slow = m.energy_between(at_ms(100), at_ms(200));
        assert!(
            slow.joules(Rail::Cpu(0)) < 0.5 * fast.joules(Rail::Cpu(0)),
            "downclocked interval should be far cheaper: {} vs {}",
            slow.joules(Rail::Cpu(0)),
            fast.joules(Rail::Cpu(0))
        );
    }

    #[test]
    fn accel_and_axi_are_attributed() {
        let s = spec();
        let mut trace = TraceBuffer::enabled();
        exec(&mut trace, TraceResource::Dsp, 5, 10, 60);
        trace.record(
            at_ms(5),
            TraceResource::Axi,
            TraceKind::AxiBurst { bytes: 1_000_000 },
        );
        let e = MeterIndex::new(&s, &trace).energy_between(SimTime::ZERO, at_ms(100));
        assert!((e.joules(Rail::Dsp) - 0.8 * 0.05).abs() < 1e-9);
        assert!((e.joules(Rail::Axi) - 1e6 * 100e-12).abs() < 1e-15);
    }

    #[test]
    fn windows_partition_energy() {
        // Two adjacent windows sum to one covering window.
        let s = spec();
        let mut trace = TraceBuffer::enabled();
        exec(&mut trace, TraceResource::CpuCore(0), 1, 20, 180);
        exec(&mut trace, TraceResource::Gpu, 2, 50, 150);
        let m = MeterIndex::new(&s, &trace);
        let first = m.energy_between(SimTime::ZERO, at_ms(100));
        let second = m.energy_between(at_ms(100), at_ms(200));
        let whole = m.energy_between(SimTime::ZERO, at_ms(200));
        let sum = first.total_j() + second.total_j();
        assert!((sum - whole.total_j()).abs() < 1e-9);
    }

    #[test]
    fn empty_or_inverted_window_is_zero() {
        let s = spec();
        let trace = TraceBuffer::enabled();
        let m = MeterIndex::new(&s, &trace);
        assert_eq!(m.energy_between(at_ms(5), at_ms(5)).total_j(), 0.0);
        assert_eq!(m.energy_between(at_ms(9), at_ms(5)).total_j(), 0.0);
    }

    #[test]
    fn timeline_integrates_to_window_energy() {
        let s = spec();
        let mut trace = TraceBuffer::enabled();
        exec(&mut trace, TraceResource::CpuCore(1), 1, 3, 47);
        exec(&mut trace, TraceResource::Dsp, 2, 10, 35);
        trace.record(
            at_ms(7),
            TraceResource::Axi,
            TraceKind::AxiBurst { bytes: 4096 },
        );
        let m = MeterIndex::new(&s, &trace);
        let tl = m.power_timeline(SimSpan::from_ms(7.0), at_ms(50));
        let whole = m.energy_between(SimTime::ZERO, at_ms(50));
        let binned: f64 = tl.rails.iter().flat_map(|(_, bins)| bins).sum();
        assert!((binned - whole.total_j()).abs() < 1e-9);
        assert!(tl.peak_total_watts() > tl.total_watts(0));
    }
}
