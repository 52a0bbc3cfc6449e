//! The full-scan reference meter: every window walks every execution
//! interval and decodes every trace event. It is the meter as it stood
//! before [`aitax_power::MeterIndex`], kept here only as the oracle the
//! indexed meter must match bit for bit.

use std::collections::BTreeMap;

use aitax_des::trace::{ExecInterval, TraceKind, TraceMode, TraceResource};
use aitax_des::{SimSpan, SimTime, Symbol, TraceBuffer};
use aitax_power::{PowerSpec, PowerTimeline, Rail, RailEnergy};

/// Per-core `(time, freq)` DVFS changepoints in trace order.
struct FreqTimeline {
    steps: Vec<Vec<(SimTime, f64)>>,
}

impl FreqTimeline {
    fn build(spec: &PowerSpec, trace: &TraceBuffer) -> Self {
        let mut steps: Vec<Vec<(SimTime, f64)>> = spec
            .core_rails
            .iter()
            .map(|r| vec![(SimTime::ZERO, r.nominal().freq_hz)])
            .collect();
        for ev in trace.iter() {
            if let TraceKind::Dvfs { core, freq_hz } = ev.kind {
                if let Some(track) = steps.get_mut(core as usize) {
                    track.push((ev.time, freq_hz as f64));
                }
            }
        }
        FreqTimeline { steps }
    }

    fn freq_at(&self, core: usize, t: SimTime) -> f64 {
        let track = &self.steps[core];
        match track.partition_point(|&(when, _)| when <= t) {
            0 => track[0].1,
            i => track[i - 1].1,
        }
    }
}

fn overlap_secs(s: SimTime, e: SimTime, a: SimTime, b: SimTime) -> f64 {
    let lo = s.max(a);
    let hi = e.min(b);
    if hi > lo {
        (hi - lo).as_secs()
    } else {
        0.0
    }
}

/// Busy increment (active minus idle watts) of one interval, or `None`
/// when its resource has no rate-priced rail.
fn increment(spec: &PowerSpec, freqs: &FreqTimeline, iv: &ExecInterval) -> Option<(Rail, f64)> {
    match iv.resource {
        TraceResource::CpuCore(c) => {
            let rail = spec.core_rails.get(c as usize)?;
            let f = freqs.freq_at(c as usize, iv.start);
            Some((Rail::Cpu(c), rail.active_power_w(f) - rail.idle_power_w()))
        }
        TraceResource::Gpu => Some((Rail::Gpu, spec.gpu.busy_w - spec.gpu.idle_power_w())),
        TraceResource::Dsp => Some((Rail::Dsp, spec.dsp.busy_w - spec.dsp.idle_power_w())),
        TraceResource::Npu => {
            let npu = spec.npu.as_ref()?;
            Some((Rail::Npu, npu.busy_w - npu.idle_power_w()))
        }
        TraceResource::Axi => None,
    }
}

fn floor(spec: &PowerSpec, secs: f64, mut add: impl FnMut(Rail, f64)) {
    for (i, rail) in spec.core_rails.iter().enumerate() {
        add(Rail::Cpu(i as u8), rail.idle_power_w() * secs);
    }
    add(Rail::Gpu, spec.gpu.idle_power_w() * secs);
    add(Rail::Dsp, spec.dsp.idle_power_w() * secs);
    if let Some(npu) = &spec.npu {
        add(Rail::Npu, npu.idle_power_w() * secs);
    }
    add(Rail::Uncore, spec.interconnect.uncore_w * secs);
}

/// Each window `[from, to)` metered by a full scan of the trace.
pub fn attribute(
    spec: &PowerSpec,
    trace: &TraceBuffer,
    windows: &[(SimTime, SimTime)],
) -> Vec<RailEnergy> {
    let intervals = trace.exec_intervals();
    let freqs = FreqTimeline::build(spec, trace);
    windows
        .iter()
        .map(|&(from, to)| {
            let mut out = RailEnergy::new();
            if to <= from {
                return out;
            }
            floor(spec, (to - from).as_secs(), |r, j| out.add(r, j));
            for iv in &intervals {
                let secs = overlap_secs(iv.start, iv.end, from, to);
                if secs == 0.0 {
                    continue;
                }
                if let Some((rail, inc)) = increment(spec, &freqs, iv) {
                    out.add(rail, inc * secs);
                }
            }
            let epb = spec.interconnect.energy_per_byte_j;
            for ev in trace.iter() {
                if let TraceKind::AxiBurst { bytes } = ev.kind {
                    if ev.time >= from && ev.time < to {
                        out.add(Rail::Axi, bytes as f64 * epb);
                    }
                }
            }
            out
        })
        .collect()
}

/// The trace range `[0, end)` binned by a full scan of the trace.
pub fn power_timeline(
    spec: &PowerSpec,
    trace: &TraceBuffer,
    bin_width: SimSpan,
    end: SimTime,
) -> PowerTimeline {
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
    for b in 0..n {
        let (a, z) = bin_bounds(b);
        floor(spec, (z - a).as_secs(), |r, j| deposit(r, b, j));
    }
    let freqs = FreqTimeline::build(spec, trace);
    for iv in trace.exec_intervals() {
        let Some((rail, inc_w)) = increment(spec, &freqs, &iv) else {
            continue;
        };
        if iv.start >= end {
            continue;
        }
        let first = (iv.start.as_ns() / w) as usize;
        let last = ((iv.end.as_ns().saturating_sub(1)) / w).min(n as u64 - 1) as usize;
        for b in first..=last {
            let (a, z) = bin_bounds(b);
            deposit(rail, b, inc_w * overlap_secs(iv.start, iv.end, a, z));
        }
    }
    let epb = spec.interconnect.energy_per_byte_j;
    for ev in trace.iter() {
        if let TraceKind::AxiBurst { bytes } = ev.kind {
            if ev.time < end {
                deposit(
                    Rail::Axi,
                    (ev.time.as_ns() / w) as usize,
                    bytes as f64 * epb,
                );
            }
        }
    }
    timeline.rails = rails.into_iter().collect();
    timeline
}

/// A ledger as `(rail, f64 bits)` pairs: equal iff the rail key sets
/// match and every cell is bit-identical.
pub fn bits(e: &RailEnergy) -> Vec<(Rail, u64)> {
    e.iter().map(|(r, j)| (r, j.to_bits())).collect()
}

/// What a meter-mode run records of `trace`: its events re-recorded into
/// a meter-mode buffer, exec starts unlabelled as a metered run leaves
/// them.
pub fn meter_only(trace: &TraceBuffer) -> TraceBuffer {
    let mut meter = TraceBuffer::with_mode(TraceMode::Meter);
    for ev in trace {
        let kind = match ev.kind {
            TraceKind::ExecStart { task, .. } => TraceKind::ExecStart {
                task,
                label: Symbol::UNTRACED,
            },
            kind => kind,
        };
        meter.record(ev.time, ev.resource, kind);
    }
    meter
}
