//! Differential oracle: the indexed meter ([`MeterIndex`]) against the
//! full-scan reference meter, bit for bit.
//!
//! Hundreds of `SimRng`-seeded synthetic traces cover what the index's
//! two searches must get right: out-of-order timestamps (so the AXI
//! bursts take the linear path), intervals spanning many windows, empty,
//! inverted and overlapping windows, bursts exactly on window edges,
//! DVFS changes mid-window and `ExecEnd`s with no matching open start.
//! Every ledger must have the reference's rail key set and the same
//! `f64::to_bits` per rail.

mod oracle;

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{SimRng, SimSpan, SimTime, TraceBuffer};
use aitax_power::{
    AccelRailSpec, CoreRailSpec, InterconnectPowerSpec, MeterIndex, PowerSpec, PowerTimeline, Rail,
    RailEnergy,
};

const TRACES: u64 = 400;

fn random_spec(rng: &mut SimRng) -> PowerSpec {
    let cores = rng.uniform_u64(1, 9);
    let accel = |rng: &mut SimRng, name| {
        AccelRailSpec::new(
            name,
            rng.uniform(0.3, 4.0),
            rng.uniform(0.0, 0.3),
            rng.chance(0.5),
        )
    };
    PowerSpec {
        core_rails: (0..cores)
            .map(|_| {
                CoreRailSpec::scaled(
                    "core",
                    rng.uniform(0.8e9, 3.0e9),
                    rng.uniform(0.2, 3.0),
                    rng.uniform(0.0, 0.2),
                    rng.chance(0.5),
                )
            })
            .collect(),
        gpu: accel(rng, "gpu"),
        dsp: accel(rng, "dsp"),
        npu: rng.chance(0.5).then(|| accel(rng, "npu")),
        interconnect: InterconnectPowerSpec {
            energy_per_byte_j: rng.uniform(20e-12, 200e-12),
            uncore_w: rng.uniform(0.2, 1.5),
        },
    }
}

/// A synthetic trace over `cores + 1` CPU slots (one past the spec's
/// rails) and every accelerator, plus its horizon. Half the traces step
/// time backwards now and then.
fn random_trace(rng: &mut SimRng, cores: usize) -> (TraceBuffer, SimTime) {
    let ordered = rng.chance(0.5);
    let events = rng.uniform_u64(0, 300);
    let mut buf = TraceBuffer::enabled();
    let label = buf.intern("task");
    let mut resources: Vec<TraceResource> = (0..=cores as u8).map(TraceResource::CpuCore).collect();
    resources.extend([
        TraceResource::Gpu,
        TraceResource::Dsp,
        TraceResource::Npu,
        TraceResource::Axi,
    ]);
    let mut open: Vec<(TraceResource, u64)> = Vec::new();
    let mut next_task = 1;
    let mut t = 0u64;
    for _ in 0..events {
        t += match rng.uniform_u64(0, 4) {
            0 => 0,
            1 | 2 => rng.uniform_u64(1, 2_000_000),
            _ => rng.uniform_u64(1, 50_000_000),
        };
        let when = if !ordered && rng.chance(0.15) {
            t.saturating_sub(rng.uniform_u64(0, 20_000_000))
        } else {
            t
        };
        let at = SimTime::from_ns(when);
        match rng.uniform_u64(0, 10) {
            0..=2 => {
                let r = *rng.pick(&resources);
                open.push((r, next_task));
                buf.record(
                    at,
                    r,
                    TraceKind::ExecStart {
                        task: next_task,
                        label,
                    },
                );
                next_task += 1;
            }
            3 | 4 => {
                let (r, task) = if open.is_empty() {
                    // An end whose start never happened.
                    (*rng.pick(&resources), next_task + 1_000_000)
                } else {
                    let i = rng.uniform_u64(0, open.len() as u64) as usize;
                    open.swap_remove(i)
                };
                buf.record(at, r, TraceKind::ExecEnd { task });
            }
            5 => {
                let core = rng.uniform_u64(0, cores as u64 + 1) as u8;
                buf.record(
                    at,
                    TraceResource::CpuCore(core),
                    TraceKind::Dvfs {
                        core,
                        freq_hz: rng.uniform_u64(300_000_000, 3_000_000_000),
                    },
                );
            }
            6 | 7 => buf.record(
                at,
                TraceResource::Axi,
                TraceKind::AxiBurst {
                    bytes: rng.uniform_u64(0, 1 << 20),
                },
            ),
            8 => buf.record(at, TraceResource::CpuCore(0), TraceKind::ContextSwitch),
            _ => buf.record(at, TraceResource::CpuCore(0), TraceKind::Marker { label }),
        }
    }
    (buf, SimTime::from_ns(t + rng.uniform_u64(1, 10_000_000)))
}

/// Windows whose edges are often event timestamps (so bursts and
/// interval ends sit exactly on them): arbitrary, empty, inverted and
/// overlapping ones, the whole run, and a stage-like partition of it.
fn random_windows(
    rng: &mut SimRng,
    trace: &TraceBuffer,
    horizon: SimTime,
) -> Vec<(SimTime, SimTime)> {
    let mut edges: Vec<SimTime> = trace.iter().map(|ev| ev.time).collect();
    edges.extend([SimTime::ZERO, horizon]);
    let edge = |rng: &mut SimRng| {
        if rng.chance(0.6) {
            *rng.pick(&edges)
        } else {
            SimTime::from_ns(rng.uniform_u64(0, horizon.as_ns() + 1))
        }
    };
    let mut windows = vec![(SimTime::ZERO, horizon)];
    for _ in 0..rng.uniform_u64(0, 30) {
        let (a, b) = (edge(rng), edge(rng));
        windows.push(match rng.uniform_u64(0, 4) {
            0 => (a, a),
            1 => (a.max(b), a.min(b)),
            _ => (a.min(b), a.max(b)),
        });
    }
    let mut cuts: Vec<SimTime> = (0..rng.uniform_u64(0, 12)).map(|_| edge(rng)).collect();
    cuts.extend([SimTime::ZERO, horizon]);
    cuts.sort();
    windows.extend(cuts.windows(2).map(|w| (w[0], w[1])));
    windows
}

fn timeline_bits(t: &PowerTimeline) -> Vec<(Rail, Vec<u64>)> {
    t.rails
        .iter()
        .map(|(r, bins)| (*r, bins.iter().map(|j| j.to_bits()).collect()))
        .collect()
}

/// Whether `trace` holds an `ExecEnd` with no open `ExecStart` for its
/// task on its resource.
fn has_orphan_end(trace: &TraceBuffer) -> bool {
    let mut open = Vec::new();
    trace.iter().any(|ev| match ev.kind {
        TraceKind::ExecStart { task, .. } => {
            open.push((ev.resource, task));
            false
        }
        TraceKind::ExecEnd { task } => match open.iter().position(|&o| o == (ev.resource, task)) {
            Some(i) => {
                open.swap_remove(i);
                false
            }
            None => true,
        },
        _ => false,
    })
}

/// What the generated cases exercised, so a generator change cannot
/// quietly stop covering one of them.
#[derive(Default)]
struct Coverage {
    orphan_end: usize,
    unsorted_axi: usize,
    empty_or_inverted: usize,
    burst_on_edge: usize,
    dvfs_mid_window: usize,
}

#[test]
fn indexed_meter_matches_full_scan_bit_for_bit() {
    let root = SimRng::seed_from(0x0e1e_c7a1);
    let mut seen = Coverage::default();
    for case in 0..TRACES {
        let mut rng = root.derive(case);
        let spec = random_spec(&mut rng);
        let (trace, horizon) = random_trace(&mut rng, spec.core_rails.len());
        let windows = random_windows(&mut rng, &trace, horizon);

        let index = MeterIndex::new(&spec, &trace);
        let reference = oracle::attribute(&spec, &trace, &windows);
        for (&(from, to), want) in windows.iter().zip(&reference) {
            assert_eq!(
                oracle::bits(&index.energy_between(from, to)),
                oracle::bits(want),
                "case {case}: window [{from}, {to})"
            );
        }
        let attributed: Vec<RailEnergy> = windows
            .iter()
            .map(|&(from, to)| index.energy_between(from, to))
            .collect();
        assert_eq!(attributed, reference, "case {case}: ledgers per window");
        assert_eq!(
            oracle::bits(&index.energy_between(SimTime::ZERO, horizon)),
            oracle::bits(&reference[0]),
            "case {case}: whole-trace window"
        );

        let axi: Vec<SimTime> = trace
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::AxiBurst { .. }))
            .map(|ev| ev.time)
            .collect();
        let dvfs: Vec<SimTime> = trace
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::Dvfs { .. }))
            .map(|ev| ev.time)
            .collect();
        seen.orphan_end += usize::from(has_orphan_end(&trace));
        seen.unsorted_axi += usize::from(axi.windows(2).any(|w| w[0] > w[1]));
        for &(from, to) in &windows {
            seen.empty_or_inverted += usize::from(to <= from);
            seen.burst_on_edge +=
                usize::from(from < to && axi.iter().any(|&t| t == from || t == to));
            seen.dvfs_mid_window += usize::from(dvfs.iter().any(|&t| from < t && t < to));
        }
    }
    assert!(seen.orphan_end > 0, "no ExecEnd without an open start");
    assert!(
        seen.unsorted_axi > 0,
        "no out-of-order AXI bursts generated"
    );
    assert!(seen.empty_or_inverted > 0, "no empty or inverted window");
    assert!(seen.burst_on_edge > 0, "no AXI burst on a window edge");
    assert!(seen.dvfs_mid_window > 0, "no DVFS change inside a window");
}

#[test]
fn indexed_timeline_matches_full_scan_bit_for_bit() {
    let root = SimRng::seed_from(0x7135_e11e);
    for case in 0..TRACES {
        let mut rng = root.derive(case);
        let spec = random_spec(&mut rng);
        let (trace, horizon) = random_trace(&mut rng, spec.core_rails.len());
        let index = MeterIndex::new(&spec, &trace);
        let ends = [
            SimTime::ZERO,
            horizon,
            SimTime::from_ns(rng.uniform_u64(0, horizon.as_ns() + 1)),
        ];
        for end in ends {
            let bins = rng.uniform_u64(1, 64);
            let width = SimSpan::from_ns(end.as_ns().div_ceil(bins).max(1));
            assert_eq!(
                timeline_bits(&index.power_timeline(width, end)),
                timeline_bits(&oracle::power_timeline(&spec, &trace, width, end)),
                "case {case}: end {end}, width {width:?}"
            );
        }
    }
}

#[test]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
fn burst_on_a_window_edge_belongs_to_the_window_it_opens() {
    let mut rng = SimRng::seed_from(3);
    let spec = random_spec(&mut rng);
    let mut trace = TraceBuffer::enabled();
    let at = SimTime::from_ns(10_000_000);
    trace.record(at, TraceResource::Axi, TraceKind::AxiBurst { bytes: 4096 });
    let index = MeterIndex::new(&spec, &trace);
    let before = index.energy_between(SimTime::ZERO, at);
    let after = index.energy_between(at, SimTime::from_ns(20_000_000));
    assert_eq!(before.joules(Rail::Axi), 0.0);
    assert!(after.joules(Rail::Axi) > 0.0);
    let windows = [(SimTime::ZERO, at), (at, SimTime::from_ns(20_000_000))];
    let reference = oracle::attribute(&spec, &trace, &windows);
    assert_eq!(oracle::bits(&before), oracle::bits(&reference[0]));
    assert_eq!(oracle::bits(&after), oracle::bits(&reference[1]));
}
