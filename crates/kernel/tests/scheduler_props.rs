//! Property tests for the machine: scheduler conservation, FastRPC
//! structure and timing monotonicity. Randomized cases are driven by the
//! deterministic simulator RNG.

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{SimRng, SimSpan, SimTime};
use aitax_kernel::{CoreMask, Machine, RpcDevice, RpcInvoke, TaskSpec, Work};
use aitax_soc::{SocCatalog, SocId};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

fn machine(seed: u64) -> Machine {
    Machine::new(SocCatalog::get(SocId::Sd845), seed)
}

/// No task is lost or duplicated, no core is left running, and the
/// clock advances whenever work was submitted.
#[test]
fn no_lost_work() {
    let mut rng = SimRng::seed_from(0x5C4E_0001);
    for case in 0..32 {
        let seed = rng.next_u64();
        let njobs = rng.uniform_u64(1, 40) as usize;
        let jobs: Vec<(u64, u8)> = (0..njobs)
            .map(|_| (rng.uniform_u64(1, 100), rng.uniform_u64(0, 4) as u8))
            .collect();
        let mut m = machine(seed);
        let done = Rc::new(Cell::new(0usize));
        for (units, class) in &jobs {
            let work = match class % 2 {
                0 => Work::Fp32Flops(*units as f64 * 1e6),
                _ => Work::Cycles(*units as f64 * 1e5),
            };
            let spec = match class {
                0 => TaskSpec::foreground("t", work),
                1 => TaskSpec::background("t", work),
                2 => TaskSpec::kernel("t", work),
                _ => TaskSpec::nnapi_fallback("t", work),
            };
            let d = done.clone();
            m.submit_cpu(spec, move |_| d.set(d.get() + 1));
        }
        m.run_until_idle();
        assert_eq!(done.get(), jobs.len(), "case {case}");
        assert_eq!(m.cpu_load(), 0, "case {case}");
        assert!(m.now().as_ns() > 0, "case {case}");
    }
}

/// Fork-join gangs complete exactly once, regardless of shape.
#[test]
fn parallel_join_fires_once() {
    let mut rng = SimRng::seed_from(0x5C4E_0002);
    for case in 0..32 {
        let seed = rng.next_u64();
        let width = rng.uniform_u64(1, 12) as usize;
        let units = rng.uniform_u64(1, 50);
        let mut m = machine(seed);
        let joined = Rc::new(Cell::new(0usize));
        let j = joined.clone();
        m.submit_gang(
            width,
            |_, i| TaskSpec::foreground(format!("g{i}"), Work::Fp32Flops(units as f64 * 1e6)),
            Rc::new(move |_: &mut Machine| j.set(j.get() + 1)),
        );
        m.run_until_idle();
        assert_eq!(joined.get(), 1, "case {case}");
    }
}

/// More work on a pinned core never finishes sooner (monotonicity).
#[test]
fn pinned_work_is_monotone() {
    let time_for = |mflops: u64| {
        let mut m = machine(7);
        m.submit_cpu(
            TaskSpec::foreground("t", Work::Fp32Flops(mflops as f64 * 1e6))
                .with_affinity(CoreMask::of(&[0])),
            |_| {},
        );
        m.run_until_idle();
        m.now()
    };
    let mut rng = SimRng::seed_from(0x5C4E_0003);
    for case in 0..16 {
        let base = rng.uniform_u64(1, 60);
        assert!(time_for(base * 2) > time_for(base), "case {case}");
    }
}

/// FastRPC latency grows with payload size and DSP work, and the
/// session is mapped exactly once.
#[test]
fn rpc_monotone_in_inputs() {
    let run = |bytes: u64, work_us: f64| {
        let mut m = machine(3);
        // Warm the session first.
        m.fastrpc_invoke(
            RpcInvoke {
                label: "warm".into(),
                in_bytes: 16,
                out_bytes: 16,
                dsp_work: SimSpan::from_us(1.0),
                device: RpcDevice::Dsp,
                ..Default::default()
            },
            |_| {},
        );
        m.run_until_idle();
        let t0 = m.now();
        let done = Rc::new(Cell::new(SimSpan::ZERO));
        let d = done.clone();
        m.fastrpc_invoke(
            RpcInvoke {
                label: "x".into(),
                in_bytes: bytes,
                out_bytes: 64,
                dsp_work: SimSpan::from_us(work_us),
                device: RpcDevice::Dsp,
                ..Default::default()
            },
            move |mm| d.set(mm.now() - t0),
        );
        m.run_until_idle();
        assert!(m.dsp_session_mapped(), "session must stay mapped");
        done.get()
    };
    let mut rng = SimRng::seed_from(0x5C4E_0004);
    for case in 0..8 {
        let bytes = rng.uniform_u64(1, 4_000_000);
        let work_us = rng.uniform(1.0, 20_000.0);
        let small = run(bytes, work_us);
        let bigger_payload = run(bytes * 2, work_us);
        let more_work = run(bytes, work_us * 2.0);
        assert!(bigger_payload >= small, "case {case}");
        assert!(more_work > small, "case {case}");
        // Total latency always exceeds the pure DSP work.
        assert!(small > SimSpan::from_us(work_us), "case {case}");
    }
}

/// Timers fire at exactly the requested instants, in order.
#[test]
fn timers_are_exact() {
    let mut rng = SimRng::seed_from(0x5C4E_0005);
    for case in 0..32 {
        let n = rng.uniform_u64(1, 30) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, 10_000_000)).collect();
        let mut m = machine(1);
        let fired: Rc<std::cell::RefCell<Vec<u64>>> = Rc::default();
        for &d in &delays {
            let f = fired.clone();
            m.after(SimSpan::from_ns(d), move |mm| {
                f.borrow_mut().push(mm.now().as_ns());
            });
        }
        m.run_until_idle();
        let mut expect = delays.clone();
        expect.sort_unstable();
        assert_eq!(&*fired.borrow(), &expect, "case {case}");
    }
}

/// The kernel's context-switch cost and smallest slice, mirrored here;
/// `residue_test_constants_match_the_kernel` ties them to its behaviour.
const SWITCH_COST: SimSpan = SimSpan::from_ns(8_000);
const MIN_SLICE: SimSpan = SimSpan::from_ns(1);

/// A task with no work runs one `MIN_SLICE` after the switch cost.
#[test]
fn residue_test_constants_match_the_kernel() {
    let mut m = machine(5);
    m.set_tracing(true);
    m.submit_cpu(TaskSpec::foreground("empty", Work::Fp32Flops(0.0)), |_| {});
    m.run_until_idle();
    assert_eq!(m.now().as_ns(), (SWITCH_COST + MIN_SLICE).as_ns());
}

/// Seeded waves of fork-join gangs, background work, wandering
/// NNAPI-fallback threads and high-priority arrivals that preempt them.
fn mixed_waves(m: &mut Machine, rng: &mut SimRng) {
    for _ in 0..24 {
        let at = SimSpan::from_us(rng.uniform(0.0, 40_000.0));
        let width = rng.uniform_u64(1, 5) as usize;
        let gang = rng.uniform(1e5, 2e8);
        let bg = rng.uniform(1e4, 2e7);
        let fallback = rng.uniform(1e6, 3e8);
        let urgent = rng.uniform(1e5, 2e7);
        m.after(at, move |m| {
            m.submit_gang(
                width,
                |_, _| TaskSpec::foreground("gang", Work::Fp32Flops(gang)),
                Rc::new(|_: &mut Machine| {}),
            );
            m.submit_cpu(TaskSpec::background("bg", Work::Cycles(bg)), |_| {});
            m.submit_cpu(
                TaskSpec::nnapi_fallback("fallback", Work::Int8Ops(fallback)),
                |_| {},
            );
            m.submit_cpu(
                TaskSpec::foreground("urgent", Work::Fp32Flops(urgent)).with_priority(2),
                |_| {},
            );
        });
    }
}

/// Per task, in slice order, the useful time of each CPU slice: its
/// traced interval less the switch cost (a `ContextSwitch` record just
/// before its start) and the migration penalties the task collected
/// since its previous slice.
#[expect(
    clippy::expect_used,
    reason = "the kernel records every ExecEnd after its ExecStart"
)]
fn useful_slices(m: &Machine) -> BTreeMap<u64, Vec<SimSpan>> {
    let penalty: Vec<SimSpan> = m
        .spec()
        .cores()
        .iter()
        .map(|c| c.migration_penalty)
        .collect();
    let mut pending: BTreeMap<u64, SimSpan> = BTreeMap::new();
    let mut open: BTreeMap<u64, (SimTime, SimSpan)> = BTreeMap::new();
    let mut slices: BTreeMap<u64, Vec<SimSpan>> = BTreeMap::new();
    let mut switched_at = None;
    for e in m.trace.iter() {
        let TraceResource::CpuCore(core) = e.resource else {
            continue;
        };
        match e.kind {
            TraceKind::ContextSwitch => {
                switched_at = Some((core, e.time));
                continue;
            }
            TraceKind::Migration { task, to, .. } => {
                *pending.entry(task).or_insert(SimSpan::ZERO) += penalty[usize::from(to)];
            }
            TraceKind::ExecStart { task, .. } => {
                let switch = if switched_at == Some((core, e.time)) {
                    SWITCH_COST
                } else {
                    SimSpan::ZERO
                };
                let overhead = switch + pending.remove(&task).unwrap_or(SimSpan::ZERO);
                open.insert(task, (e.time, overhead));
            }
            TraceKind::ExecEnd { task } => {
                let (start, overhead) = open.remove(&task).expect("an exec end follows its start");
                let interval = e.time.since(start);
                let useful = SimSpan::from_ns(interval.as_ns().saturating_sub(overhead.as_ns()));
                slices.entry(task).or_default().push(useful);
            }
            _ => {}
        }
        switched_at = None;
    }
    slices
}

/// A slice sized by a task's remaining work completes it, so no task
/// with work ends on a residue slice: a `MIN_SLICE` that follows its own
/// earlier slice and only finishes the rounding's leftover.
#[test]
fn no_task_ends_on_a_residue_slice() {
    let mut rng = SimRng::seed_from(0x5C4E_0006);
    let (mut multi_slice, mut preemptions, mut migrations) = (0, 0, 0);
    for case in 0..16 {
        let mut m = machine(rng.next_u64());
        m.set_tracing(true);
        mixed_waves(&mut m, &mut rng);
        m.run_until_idle();
        assert_eq!(m.cpu_load(), 0, "case {case}");
        preemptions += m.stats().preemptions;
        migrations += m.stats().migrations;
        for (task, useful) in useful_slices(&m) {
            let [.., before, last] = useful[..] else {
                continue;
            };
            multi_slice += 1;
            assert!(
                last > MIN_SLICE,
                "case {case}: task {task} ended on a residue slice after a {before} one"
            );
        }
    }
    assert!(multi_slice > 100, "only {multi_slice} multi-slice tasks");
    assert!(
        preemptions > 0 && migrations > 0,
        "{preemptions} preemptions, {migrations} migrations"
    );
}
