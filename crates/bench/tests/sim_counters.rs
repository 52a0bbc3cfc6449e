//! Pins the simulator's deterministic counters exactly, at two sizes.
//!
//! Ten seeded scenarios exercise the layers every experiment runs on:
//!
//! * `calendar-churn` — schedule/fire/cancel churn through [`Calendar`]
//!   with a rolling population of pending events,
//! * `far-timer-churn` — the same churn with ~10% far-future timers,
//!   which wait in the heap behind many later-scheduled near ones,
//! * `trace-record` — [`TraceBuffer`] appends plus one `exec_intervals`
//!   extraction,
//! * `machine-hot` — the steady-state `Machine::step` loop (time-sliced
//!   foreground tasks, tracing on), whose measured window must not
//!   allocate (`steady_allocs`),
//! * `machine-mixed` — noise timers, DSP ping-pong and wandering
//!   NNAPI-fallback tasks,
//! * `machine-drain` — seeded waves of fork-join gangs and background
//!   tasks run until the machine idles; `events` over `tasks_completed`
//!   is the scheduler's calendar cost per CPU task, and the thermal and
//!   governor period closes are the only points where heat and
//!   utilization are folded (no per-event `exp`),
//! * `init-tax-fresh` / `init-tax-reused` — repeated short runs that pay
//!   graph build, plan compile and machine boot every run, against the
//!   same runs through the compiled-artifact caches and one reset
//!   [`SimContext`],
//! * `init-tax-fleet-fresh` / `init-tax-fleet-reused` — the same split on
//!   the fleet's per-device path.
//!
//! Each init-tax pair asserts in process that both arms simulate the same
//! history. Nothing here is timed: host-time performance is measured A/B
//! by `perfbench`. When a table drifts, the failure prints the whole
//! actual table in the syntax of the constants below, so it can be
//! reviewed as a diff against them.
//!
//! Run with `cargo test --release -p aitax-bench --test sim_counters`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use aitax_core::SimContext;
use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{Calendar, SimRng, SimSpan, SimTime, TraceBuffer, TraceEvent};
use aitax_fleet::{run_device_in, DevicePartial, PopulationSpec};
use aitax_framework::{Engine, Session};
use aitax_kernel::{Machine, NoiseConfig, TaskSpec, Work};
use aitax_models::zoo::{ModelId, Zoo};
use aitax_soc::{SocCatalog, SocId};
use aitax_tensor::DType;

// ------------------------------------------------------- counting allocator

/// Counts allocations per thread, so the two sizes, which the harness
/// runs in parallel, cannot leak allocations into each other's windows.
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ------------------------------------------------------------------ tables

/// One scenario's counters, as stable (key, value) pairs.
type Counters = Vec<(&'static str, u64)>;

/// Every scenario's counters, in run order.
type Table<'a> = &'a [(&'a str, &'a [(&'a str, u64)])];

#[rustfmt::skip]
const QUICK_EXPECTED: Table = &[
    ("calendar-churn", &[("scheduled", 400064), ("fired", 300000), ("cancelled", 89584), ("pending_after", 10480)]),
    ("far-timer-churn", &[("scheduled", 266731), ("fired", 200000), ("cancelled", 46846), ("pending_after", 19885)]),
    ("trace-record", &[("recorded", 425000), ("intervals", 200000), ("bytes_traced", 13600000)]),
    ("machine-hot", &[("events", 96000), ("steady_allocs", 0), ("context_switches", 120004), ("trace_events", 360008)]),
    ("machine-mixed", &[("events", 80000), ("migrations", 6990), ("dsp_jobs", 26384), ("trace_events", 172018)]),
    ("machine-drain", &[("events", 16689), ("tasks_completed", 6955), ("thermal_period_closes", 3760), ("gov_period_closes", 14433)]),
    ("init-tax-fresh", &[("runs", 2000), ("digest", 4064989676571707945)]),
    ("init-tax-reused", &[("runs", 2000), ("digest", 4064989676571707945)]),
    ("init-tax-fleet-fresh", &[("devices", 6), ("digest", 9525735366519928489)]),
    ("init-tax-fleet-reused", &[("devices", 6), ("digest", 9525735366519928489)]),
];

#[rustfmt::skip]
const FULL_EXPECTED: Table = &[
    ("calendar-churn", &[("scheduled", 4000064), ("fired", 3000000), ("cancelled", 896945), ("pending_after", 103119)]),
    ("far-timer-churn", &[("scheduled", 2666731), ("fired", 2000000), ("cancelled", 509612), ("pending_after", 157119)]),
    ("trace-record", &[("recorded", 4250000), ("intervals", 2000000), ("bytes_traced", 136000000)]),
    ("machine-hot", &[("events", 800000), ("steady_allocs", 0), ("context_switches", 1000004), ("trace_events", 3000008)]),
    ("machine-mixed", &[("events", 600000), ("migrations", 52636), ("dsp_jobs", 196836), ("trace_events", 1289745)]),
    ("machine-drain", &[("events", 166765), ("tasks_completed", 69578), ("thermal_period_closes", 37796), ("gov_period_closes", 145699)]),
    ("init-tax-fresh", &[("runs", 20000), ("digest", 11158070960313227722)]),
    ("init-tax-reused", &[("runs", 20000), ("digest", 11158070960313227722)]),
    ("init-tax-fleet-fresh", &[("devices", 32), ("digest", 16400556643090968643)]),
    ("init-tax-fleet-reused", &[("devices", 32), ("digest", 16400556643090968643)]),
];

// ------------------------------------------------------------------ sizing

struct Sizes {
    calendar_iters: u64,
    far_timer_iters: u64,
    trace_events: u64,
    hot_events: u64,
    mixed_events: u64,
    drain_waves: u64,
    init_runs: u64,
    fleet_devices: usize,
}

const QUICK: Sizes = Sizes {
    calendar_iters: 300_000,
    far_timer_iters: 200_000,
    trace_events: 400_000,
    hot_events: 120_000,
    mixed_events: 80_000,
    drain_waves: 2_000,
    init_runs: 2_000,
    fleet_devices: 6,
};

const FULL: Sizes = Sizes {
    calendar_iters: 3_000_000,
    far_timer_iters: 2_000_000,
    trace_events: 4_000_000,
    hot_events: 1_000_000,
    mixed_events: 600_000,
    drain_waves: 20_000,
    init_runs: 20_000,
    fleet_devices: 32,
};

// -------------------------------------------------------------- scenarios

/// Schedule/fire/cancel churn through the raw calendar: 64 events seeded
/// up front, one fire and one schedule per iteration, and an extra
/// schedule and cancel attempt every third iteration. `pick` draws each
/// new event's delay.
fn churn(seed: u64, iters: u64, pick: fn(&mut SimRng) -> SimSpan) -> Counters {
    let mut cal = Calendar::new();
    let mut rng = SimRng::seed_from(seed);
    let mut ring = [None; 32];
    let (mut scheduled, mut fired, mut cancelled) = (0u64, 0u64, 0u64);
    for _ in 0..64 {
        ring[(scheduled % 32) as usize] = Some(cal.schedule_after(pick(&mut rng)));
        scheduled += 1;
    }
    for i in 0..iters {
        cal.next().expect("population never drains");
        fired += 1;
        ring[(scheduled % 32) as usize] = Some(cal.schedule_after(pick(&mut rng)));
        scheduled += 1;
        if i % 3 == 0 {
            ring[(scheduled % 32) as usize] = Some(cal.schedule_after(pick(&mut rng)));
            scheduled += 1;
            if let Some(victim) = ring[rng.uniform_u64(0, 32) as usize] {
                if cal.cancel(victim) {
                    cancelled += 1;
                }
            }
        }
    }
    vec![
        ("scheduled", scheduled),
        ("fired", fired),
        ("cancelled", cancelled),
        ("pending_after", cal.pending() as u64),
    ]
}

fn near(rng: &mut SimRng) -> SimSpan {
    SimSpan::from_ns(rng.uniform_u64(1, 5_000))
}

/// A near delay nine times in ten; otherwise a far one that fires only
/// after many near-term events.
fn near_or_far(rng: &mut SimRng) -> SimSpan {
    if rng.chance(0.1) {
        SimSpan::from_ns(rng.uniform_u64(1 << 16, 1 << 28))
    } else {
        near(rng)
    }
}

/// Records `n` steps of paired ExecStart/ExecEnd across ten resources,
/// with an AXI burst every 16th step, cycling through `labels` (interned
/// once up front, as the kernel does at task submission).
fn record_trace(buf: &mut TraceBuffer, labels: &[&str], n: u64) {
    const RESOURCES: [TraceResource; 10] = [
        TraceResource::CpuCore(0),
        TraceResource::CpuCore(1),
        TraceResource::CpuCore(2),
        TraceResource::CpuCore(3),
        TraceResource::CpuCore(4),
        TraceResource::CpuCore(5),
        TraceResource::CpuCore(6),
        TraceResource::CpuCore(7),
        TraceResource::Dsp,
        TraceResource::Gpu,
    ];
    let symbols: Vec<_> = labels.iter().map(|l| buf.intern(l)).collect();
    let mut open = [None::<u64>; 10];
    let mut next_task = 1u64;
    for i in 0..n {
        let t = SimTime::from_ns(100 * i);
        let slot = (i % 10) as usize;
        let kind = match open[slot].take() {
            Some(task) => TraceKind::ExecEnd { task },
            None => {
                let task = next_task;
                next_task += 1;
                open[slot] = Some(task);
                TraceKind::ExecStart {
                    task,
                    label: symbols[(i % symbols.len() as u64) as usize],
                }
            }
        };
        buf.record(t, RESOURCES[slot], kind);
        if i % 16 == 0 {
            buf.record(t, TraceResource::Axi, TraceKind::AxiBurst { bytes: 4096 });
        }
    }
}

const EVENT_BYTES: u64 = std::mem::size_of::<TraceEvent>() as u64;

fn trace_record(n: u64) -> Counters {
    let mut buf = TraceBuffer::enabled();
    let labels = [
        "inference",
        "preprocess",
        "postprocess",
        "dma-wait",
        "glue",
        "conv2d",
        "pooling",
        "fully-connected",
    ];
    record_trace(&mut buf, &labels, n);
    let total = buf.len() as u64;
    vec![
        ("recorded", total),
        ("intervals", buf.exec_intervals().len() as u64),
        ("bytes_traced", total * EVENT_BYTES),
    ]
}

/// Eight long foreground tasks time-slicing over the big cores with
/// tracing on. After a warmup fifth, every allocation on this thread is
/// counted: the hot loop must stay allocation-free.
fn machine_hot(n: u64) -> Counters {
    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 42);
    m.set_tracing(true);
    // ~3 trace events per step: sized once so recording never doubles.
    m.trace.reserve_events(3 * n as usize + 64);
    for i in 0..8 {
        // Work far larger than the run: no task completes mid-measurement.
        m.submit_cpu(
            TaskSpec::foreground(format!("fg{i}"), Work::Fp32Flops(1e18)),
            |_| {},
        );
    }
    let warmup = n / 5;
    let mut events = 0u64;
    while events < warmup && m.step() {
        events += 1;
    }
    let before = allocs();
    while events < n && m.step() {
        events += 1;
    }
    // Read before building the result, whose own allocation must not count.
    let steady_allocs = allocs() - before;
    vec![
        ("events", n - warmup),
        ("steady_allocs", steady_allocs),
        ("context_switches", m.stats().context_switches),
        ("trace_events", m.trace.len() as u64),
    ]
}

fn dsp_pump(m: &mut Machine) {
    m.submit_dsp_raw("dsp-pump", SimSpan::from_us(700.0), dsp_pump);
}

/// Ambient Android noise (timer churn), a DSP ping-pong stream, wandering
/// NNAPI-fallback threads and foreground work.
fn machine_mixed(n: u64) -> Counters {
    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 77);
    m.set_tracing(true);
    m.start_noise(NoiseConfig::android_app());
    for i in 0..4 {
        m.submit_cpu(
            TaskSpec::foreground(format!("fg{i}"), Work::Fp32Flops(1e18)),
            |_| {},
        );
    }
    for i in 0..2 {
        m.submit_cpu(
            TaskSpec::nnapi_fallback(format!("nn{i}"), Work::Int8Ops(1e18)),
            |_| {},
        );
    }
    dsp_pump(&mut m);
    let mut events = 0u64;
    while events < n && m.step() {
        events += 1;
    }
    vec![
        ("events", events),
        ("migrations", m.stats().migrations),
        ("dsp_jobs", m.stats().dsp_jobs),
        ("trace_events", m.trace.len() as u64),
    ]
}

/// `waves` seeded arrivals, 2 ms apart on average, each a fork-join gang
/// of one to four foreground members plus one background task, with
/// work from a few microseconds to past a quantum. Runs until the
/// machine idles and counts every event it fired.
fn machine_drain(waves: u64) -> Counters {
    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 91);
    let mut rng = SimRng::seed_from(0xD7A1_0005);
    for _ in 0..waves {
        let at = SimSpan::from_us(rng.uniform(0.0, 2_000.0 * waves as f64));
        let width = rng.uniform_u64(1, 5) as usize;
        let flops = rng.uniform(1e5, 1.2e8);
        let cycles = rng.uniform(1e4, 2e7);
        m.after(at, move |m| {
            m.submit_gang(
                width,
                |_, _| TaskSpec::foreground("drain-gang", Work::Fp32Flops(flops)),
                std::rc::Rc::new(|_: &mut Machine| {}),
            );
            m.submit_cpu(
                TaskSpec::background("drain-bg", Work::Cycles(cycles)),
                |_| {},
            );
        });
    }
    let mut events = 0u64;
    while m.step() {
        events += 1;
    }
    vec![
        ("events", events),
        ("tasks_completed", m.stats().tasks_completed),
        ("thermal_period_closes", m.stats().thermal_period_closes),
        ("gov_period_closes", m.stats().gov_period_closes),
    ]
}

/// Folds one 64-bit observation into an order-sensitive digest.
fn fold(digest: &mut u64, bits: u64) {
    *digest = digest.rotate_left(7) ^ bits;
}

/// Two small foreground tasks drained to quiescence (at most 64 events),
/// the simulated history folded into `digest`.
fn short_run(m: &mut Machine, digest: &mut u64) {
    for i in 0..2 {
        m.submit_cpu(
            TaskSpec::foreground(format!("short{i}"), Work::Fp32Flops(2e7)),
            |_| {},
        );
    }
    let mut steps = 0u64;
    while steps < 64 && m.step() {
        steps += 1;
    }
    fold(digest, steps);
    fold(digest, m.now().as_ns());
    fold(digest, m.stats().context_switches);
}

/// `runs` short runs that rebuild the graph, recompile the plan and boot
/// a machine every run, against the same runs through the caches and one
/// reused [`SimContext`]. The digests fold the session shape and every
/// run's history, so a reset that diverges from a fresh boot by one event
/// or one nanosecond fails here.
fn init_tax(runs: u64) -> [Counters; 2] {
    let mut fresh = 0u64;
    for k in 0..runs {
        let graph =
            std::sync::Arc::new(Zoo::entry(ModelId::MobileNetV1).build_graph_with(DType::F32));
        let session = Session::compile(Engine::tflite_cpu(4), graph, SocCatalog::get(SocId::Sd845))
            .expect("supported combo");
        fold(&mut fresh, session.graph().input_elements());
        short_run(SimContext::new().checkout(SocId::Sd845, k + 1), &mut fresh);
    }

    let mut reused = 0u64;
    let mut ctx = SimContext::new();
    for k in 0..runs {
        let session = Session::compile_cached(
            Engine::tflite_cpu(4),
            ModelId::MobileNetV1,
            DType::F32,
            SocId::Sd845,
        )
        .expect("supported combo");
        fold(&mut reused, session.graph().input_elements());
        short_run(ctx.checkout(SocId::Sd845, k + 1), &mut reused);
    }
    assert_eq!(fresh, reused, "context reuse changed simulated results");
    [fresh, reused].map(|digest| vec![("runs", runs), ("digest", digest)])
}

/// Digest of one device's fleet contribution.
fn partial_digest(digest: &mut u64, p: &DevicePartial) {
    fold(digest, p.requests);
    fold(digest, p.latency.mean().to_bits());
    fold(digest, p.tax_fraction.to_bits());
    fold(digest, p.energy_mj.to_bits());
}

/// The same split on the fleet path: a throwaway context per device
/// against one context shared by all devices.
fn init_tax_fleet(devices: usize) -> [Counters; 2] {
    let pop = PopulationSpec::new("init-tax").devices(devices).seed(13);
    let requests = 4 * devices as u64;
    let mut fresh = 0u64;
    for k in 0..devices {
        let p = run_device_in(
            &mut SimContext::new(),
            &pop.device(k),
            pop.requests_for(k, requests),
        );
        partial_digest(&mut fresh, &p);
    }
    let mut reused = 0u64;
    let mut ctx = SimContext::new();
    for k in 0..devices {
        let p = run_device_in(&mut ctx, &pop.device(k), pop.requests_for(k, requests));
        partial_digest(&mut reused, &p);
    }
    assert_eq!(fresh, reused, "context reuse changed fleet partials");
    [fresh, reused].map(|digest| vec![("devices", devices as u64), ("digest", digest)])
}

// ------------------------------------------------------------------- gate

fn run_all(s: &Sizes) -> Vec<(&'static str, Counters)> {
    let [init_fresh, init_reused] = init_tax(s.init_runs);
    let [fleet_fresh, fleet_reused] = init_tax_fleet(s.fleet_devices);
    vec![
        ("calendar-churn", churn(0xCA1E_17DA, s.calendar_iters, near)),
        (
            "far-timer-churn",
            churn(0x57EE_1CDA, s.far_timer_iters, near_or_far),
        ),
        ("trace-record", trace_record(s.trace_events)),
        ("machine-hot", machine_hot(s.hot_events)),
        ("machine-mixed", machine_mixed(s.mixed_events)),
        ("machine-drain", machine_drain(s.drain_waves)),
        ("init-tax-fresh", init_fresh),
        ("init-tax-reused", init_reused),
        ("init-tax-fleet-fresh", fleet_fresh),
        ("init-tax-fleet-reused", fleet_reused),
    ]
}

/// Runs every scenario at `sizes` and fails, printing the whole actual
/// table, unless it equals `expected` exactly.
fn check(size: &str, sizes: &Sizes, expected: Table) {
    let actual = run_all(sizes);
    let matches = actual
        .iter()
        .map(|(name, counters)| (*name, counters.as_slice()))
        .eq(expected.iter().copied());
    if !matches {
        let mut table = String::new();
        for (name, counters) in &actual {
            let pairs: Vec<String> = counters
                .iter()
                .map(|(k, v)| format!("(\"{k}\", {v})"))
                .collect();
            let _ = writeln!(table, "    (\"{name}\", &[{}]),", pairs.join(", "));
        }
        panic!("{size} counters drifted from the expected table; actual:\n{table}");
    }
}

#[test]
fn quick_counters_are_pinned() {
    check("quick", &QUICK, QUICK_EXPECTED);
}

#[test]
fn full_counters_are_pinned() {
    check("full", &FULL, FULL_EXPECTED);
}
