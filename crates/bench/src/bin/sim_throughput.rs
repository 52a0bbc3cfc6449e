//! Simulator-throughput benchmark: how fast is the DES engine itself?
//!
//! The paper's §III-D warns that measurement must not perturb the system
//! under test; for us the "measurement apparatus" is the simulator, and
//! its own overhead bounds how many repeated end-to-end runs a sweep can
//! afford. This bin measures the event loop in isolation and emits
//! `BENCH_sim.json` (schema `aitax-sim-bench/v1`) so the perf trajectory
//! is tracked in version control.
//!
//! Ten scenarios, all seeded and deterministic:
//!
//! * `calendar-churn` — schedule/fire/cancel churn through [`Calendar`]
//!   with a rolling population of pending events,
//! * `wheel-churn`   — the same churn with ~10% far-future timers, which
//!   wait in the heap behind many later-scheduled near ones (the key
//!   is named for the timing wheel the calendar once was),
//! * `trace-record`  — [`TraceBuffer`] append throughput plus one
//!   `exec_intervals` extraction,
//! * `trace-stream`  — the same append loop through a bounded ring
//!   (streaming mode): constant memory, oldest events overwritten,
//! * `machine-hot`   — the steady-state `Machine::step` loop (time-sliced
//!   foreground tasks, tracing on): the loop that must stay
//!   allocation-free,
//! * `machine-mixed` — a realistic mix: noise timers, DSP ping-pong,
//!   wandering NNAPI-fallback tasks,
//! * `init-tax-fresh` / `init-tax-reused` — the simulator's **own** init
//!   tax: N repeated short runs (the probe/sweep/CI-smoke shape) paying
//!   the pre-cache setup — graph build, plan compile, machine boot —
//!   every run, vs the same N runs resolving the compiled-artifact
//!   caches and resetting one reused [`SimContext`]. The payload is
//!   deliberately tiny so the setup share dominates, exactly as it does
//!   in short probe runs. The gated digests pin that both arms simulate
//!   identical histories; the wall ratio is the amortization,
//! * `init-tax-fleet-fresh` / `init-tax-fleet-reused` — the end-to-end
//!   version of the same split on the fleet's per-device path
//!   (a throwaway context per device vs `run_device_in` with a shared
//!   context, full inference payloads).
//!
//! Wall-clock events/sec is **informational** (it varies with the host);
//! the deterministic counters (events scheduled/fired/cancelled, trace
//! bytes, steady-state allocation count) are the **gated** values: CI
//! runs `sim_throughput --quick --check` and fails on any drift.
//!
//! Usage: `sim_throughput [--quick] [--check]`
//!
//! * default: full-size run, rewrites `BENCH_sim.json` in the CWD,
//! * `--quick`: CI-sized run (~10× smaller),
//! * `--check`: do not rewrite; verify this mode's counter block is
//!   byte-identical to the committed `BENCH_sim.json` (exit 1 on drift).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use aitax_core::SimContext;
use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{Calendar, SimRng, SimSpan, TraceBuffer};
use aitax_fleet::{run_device_in, DevicePartial, PopulationSpec};
use aitax_framework::{Engine, Session};
use aitax_kernel::{Machine, NoiseConfig, TaskSpec, Work};
use aitax_models::zoo::{ModelId, Zoo};
use aitax_soc::{SocCatalog, SocId};
use aitax_tensor::DType;

// ------------------------------------------------------- counting allocator

/// Global allocator wrapper that counts heap operations, so the benchmark
/// can report *allocations per event* — the probe-effect number the
/// steady-state hot loop pins at zero.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// ------------------------------------------------------------------ sizing

#[derive(Clone, Copy)]
struct Sizes {
    mode: &'static str,
    calendar_iters: u64,
    wheel_iters: u64,
    trace_events: u64,
    stream_events: u64,
    hot_events: u64,
    mixed_events: u64,
    init_runs: u64,
    fleet_devices: usize,
}

const FULL: Sizes = Sizes {
    mode: "full",
    calendar_iters: 3_000_000,
    wheel_iters: 2_000_000,
    trace_events: 4_000_000,
    stream_events: 4_000_000,
    hot_events: 1_000_000,
    mixed_events: 600_000,
    init_runs: 20_000,
    fleet_devices: 32,
};

const QUICK: Sizes = Sizes {
    mode: "quick",
    calendar_iters: 300_000,
    wheel_iters: 200_000,
    trace_events: 400_000,
    stream_events: 400_000,
    hot_events: 120_000,
    mixed_events: 80_000,
    init_runs: 2_000,
    fleet_devices: 6,
};

/// Ring capacity for the `trace-stream` scenario — same in both modes so
/// the window mechanics (wraparound, eviction accounting) are identical.
const STREAM_RING_CAP: usize = 65_536;

// --------------------------------------------------------------- baseline

/// Pre-refactor full-mode wall numbers, measured in this same container
/// immediately before the interner/tombstone-calendar rework (commit
/// a51bc96, boxed-label `TraceBuffer` + `BinaryHeap`+`HashSet` calendar).
/// Informational denominators for the speedup column; never gated.
const BASELINE_FULL_WALL: [(&str, f64); 4] = [
    ("calendar-churn", 3_410_996.0),
    ("trace-record", 1_229_831.0),
    ("machine-hot", 2_815_641.0),
    ("machine-mixed", 2_121_045.0),
];

fn baseline_for(name: &str) -> Option<f64> {
    BASELINE_FULL_WALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, eps)| *eps)
}

// -------------------------------------------------------------- scenarios

struct ScenarioResult {
    name: &'static str,
    /// Events processed by the scenario's main loop.
    events: u64,
    /// Wall-clock events per second (informational).
    events_per_sec: f64,
    /// Deterministic counters, as stable (key, value) pairs.
    counters: Vec<(&'static str, u64)>,
}

/// Schedule/fire/cancel churn through the raw calendar: a rolling window
/// of ~64 pending events, one fire + one schedule per iteration, and an
/// extra schedule + cancel attempt every third iteration.
fn calendar_churn(iters: u64) -> ScenarioResult {
    let mut cal = Calendar::new();
    let mut rng = SimRng::seed_from(0xCA1E_17DA);
    let mut ring = [None; 32];
    let mut scheduled = 0u64;
    let mut fired = 0u64;
    let mut cancelled = 0u64;
    for _ in 0..64 {
        let tok = cal.schedule_after(SimSpan::from_ns(rng.uniform_u64(1, 5_000)));
        ring[(scheduled % 32) as usize] = Some(tok);
        scheduled += 1;
    }
    let start = Instant::now();
    for i in 0..iters {
        let (_, _tok) = cal.next().expect("population never drains");
        fired += 1;
        let tok = cal.schedule_after(SimSpan::from_ns(rng.uniform_u64(1, 5_000)));
        ring[(scheduled % 32) as usize] = Some(tok);
        scheduled += 1;
        if i % 3 == 0 {
            let extra = cal.schedule_after(SimSpan::from_ns(rng.uniform_u64(1, 5_000)));
            ring[(scheduled % 32) as usize] = Some(extra);
            scheduled += 1;
            let victim = ring[rng.uniform_u64(0, 32) as usize];
            if let Some(v) = victim {
                if cal.cancel(v) {
                    cancelled += 1;
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    ScenarioResult {
        name: "calendar-churn",
        events: fired,
        events_per_sec: fired as f64 / secs,
        counters: vec![
            ("scheduled", scheduled),
            ("fired", fired),
            ("cancelled", cancelled),
            ("pending_after", cal.pending() as u64),
        ],
    }
}

/// Calendar churn with ~10% far-future timers. Far events sit deep in the
/// heap while near-term fires drag the clock toward them; cancels hit the
/// far population too, leaving tombstones that wait for the head.
fn wheel_churn(iters: u64) -> ScenarioResult {
    let mut cal = Calendar::new();
    let mut rng = SimRng::seed_from(0x57EE_1CDA);
    let mut ring = [None; 32];
    let mut scheduled = 0u64;
    let mut fired = 0u64;
    let mut cancelled = 0u64;
    let pick = |rng: &mut SimRng| {
        if rng.chance(0.1) {
            // Far future: fires only after many near-term events.
            SimSpan::from_ns(rng.uniform_u64(1 << 16, 1 << 28))
        } else {
            SimSpan::from_ns(rng.uniform_u64(1, 5_000))
        }
    };
    for _ in 0..64 {
        let tok = cal.schedule_after(pick(&mut rng));
        ring[(scheduled % 32) as usize] = Some(tok);
        scheduled += 1;
    }
    let start = Instant::now();
    for i in 0..iters {
        let (_, _tok) = cal.next().expect("population never drains");
        fired += 1;
        let tok = cal.schedule_after(pick(&mut rng));
        ring[(scheduled % 32) as usize] = Some(tok);
        scheduled += 1;
        if i % 3 == 0 {
            let extra = cal.schedule_after(pick(&mut rng));
            ring[(scheduled % 32) as usize] = Some(extra);
            scheduled += 1;
            let victim = ring[rng.uniform_u64(0, 32) as usize];
            if let Some(v) = victim {
                if cal.cancel(v) {
                    cancelled += 1;
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    ScenarioResult {
        name: "wheel-churn",
        events: fired,
        events_per_sec: fired as f64 / secs,
        counters: vec![
            ("scheduled", scheduled),
            ("fired", fired),
            ("cancelled", cancelled),
            ("pending_after", cal.pending() as u64),
        ],
    }
}

/// Trace-append throughput: paired ExecStart/ExecEnd across ten resources
/// with periodic AXI bursts and IRQs, then one `exec_intervals` pass.
fn trace_record(n: u64) -> ScenarioResult {
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
    const LABELS: [&str; 8] = [
        "inference",
        "preprocess",
        "postprocess",
        "dma-wait",
        "glue",
        "conv2d",
        "pooling",
        "fully-connected",
    ];
    let mut buf = TraceBuffer::enabled();
    // Labels are interned once up front, as the kernel does at task
    // submission; the recording loop then never touches strings.
    let symbols: Vec<aitax_des::Symbol> = LABELS.iter().map(|l| buf.intern(l)).collect();
    let mut open = [None::<u64>; 10];
    let mut next_task = 1u64;
    let start = Instant::now();
    for i in 0..n {
        let t = aitax_des::SimTime::from_ns(100 * i);
        let slot = (i % 10) as usize;
        match open[slot] {
            Some(task) => {
                buf.record(t, RESOURCES[slot], TraceKind::ExecEnd { task });
                open[slot] = None;
            }
            None => {
                buf.record(
                    t,
                    RESOURCES[slot],
                    TraceKind::ExecStart {
                        task: next_task,
                        label: symbols[(i % 8) as usize],
                    },
                );
                open[slot] = Some(next_task);
                next_task += 1;
            }
        }
        if i % 16 == 0 {
            buf.record(t, TraceResource::Axi, TraceKind::AxiBurst { bytes: 4096 });
        }
    }
    let record_secs = start.elapsed().as_secs_f64();
    let intervals = buf.exec_intervals();
    let total = buf.len() as u64;
    ScenarioResult {
        name: "trace-record",
        events: total,
        events_per_sec: total as f64 / record_secs,
        counters: vec![
            ("recorded", total),
            ("intervals", intervals.len() as u64),
            (
                "bytes_traced",
                total * std::mem::size_of::<aitax_des::TraceEvent>() as u64,
            ),
        ],
    }
}

/// Streaming-mode trace append: the same event mix as `trace-record`,
/// but through a bounded ring ([`STREAM_RING_CAP`] events). Memory stays
/// constant no matter how long the recording runs; the oldest events are
/// overwritten in place and interval extraction sees only the window.
fn trace_stream(n: u64) -> ScenarioResult {
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
    let mut buf = TraceBuffer::enabled_ring(STREAM_RING_CAP);
    let label = buf.intern("inference");
    let mut open = [None::<u64>; 10];
    let mut next_task = 1u64;
    let start = Instant::now();
    for i in 0..n {
        let t = aitax_des::SimTime::from_ns(100 * i);
        let slot = (i % 10) as usize;
        match open[slot] {
            Some(task) => {
                buf.record(t, RESOURCES[slot], TraceKind::ExecEnd { task });
                open[slot] = None;
            }
            None => {
                buf.record(
                    t,
                    RESOURCES[slot],
                    TraceKind::ExecStart {
                        task: next_task,
                        label,
                    },
                );
                open[slot] = Some(next_task);
                next_task += 1;
            }
        }
        if i % 16 == 0 {
            buf.record(t, TraceResource::Axi, TraceKind::AxiBurst { bytes: 4096 });
        }
    }
    let record_secs = start.elapsed().as_secs_f64();
    let intervals = buf.exec_intervals();
    let total = buf.len() as u64 + buf.dropped();
    ScenarioResult {
        name: "trace-stream",
        events: total,
        events_per_sec: total as f64 / record_secs,
        counters: vec![
            ("recorded", total),
            ("window", buf.len() as u64),
            ("dropped", buf.dropped()),
            ("window_intervals", intervals.len() as u64),
            (
                "window_bytes",
                buf.len() as u64 * std::mem::size_of::<aitax_des::TraceEvent>() as u64,
            ),
        ],
    }
}

/// The steady-state machine hot loop: eight long foreground tasks
/// time-slicing over the big cores with tracing enabled. After a warmup
/// fifth, every heap allocation in the loop is counted — the number the
/// refactored simulator pins at zero.
fn machine_hot(n: u64) -> ScenarioResult {
    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 42);
    m.set_tracing(true);
    // Pre-size the trace storage (~3 trace events per step) so the
    // measured window never pays a Vec doubling — the same idiom the
    // e2e pipeline uses before its iteration loop.
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
    let alloc_before = allocs_now();
    let start = Instant::now();
    while events < n && m.step() {
        events += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let steady_allocs = allocs_now() - alloc_before;
    let measured = n - warmup;
    ScenarioResult {
        name: "machine-hot",
        events: measured,
        events_per_sec: measured as f64 / secs,
        counters: vec![
            ("events", measured),
            ("steady_allocs", steady_allocs),
            ("context_switches", m.stats().context_switches),
            ("trace_events", m.trace.len() as u64),
        ],
    }
}

fn dsp_pump(m: &mut Machine) {
    m.submit_dsp_raw("dsp-pump", SimSpan::from_us(700.0), dsp_pump);
}

/// A realistic mixed load: ambient Android noise (timer churn), a DSP
/// ping-pong stream, wandering NNAPI-fallback threads and background
/// work. Informational — timers and task churn allocate by design.
fn machine_mixed(n: u64) -> ScenarioResult {
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
    let start = Instant::now();
    while events < n && m.step() {
        events += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    ScenarioResult {
        name: "machine-mixed",
        events,
        events_per_sec: events as f64 / secs,
        counters: vec![
            ("events", events),
            ("migrations", m.stats().migrations),
            ("dsp_jobs", m.stats().dsp_jobs),
            ("trace_events", m.trace.len() as u64),
        ],
    }
}

// ---------------------------------------------------------------- init tax

/// Folds one 64-bit observation into an order-sensitive digest.
fn fold(digest: &mut u64, bits: u64) {
    *digest = digest.rotate_left(7) ^ bits;
}

/// One short run's worth of simulated work on a checked-out machine: two
/// small foreground tasks drained to quiescence (bounded at 64 events).
/// The payload is deliberately tiny so the per-run setup share dominates
/// — the shape of probe runs, grid sweeps and CI smokes, where the init
/// tax hurts most. The simulated history is folded into `digest`.
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

/// The simulator's own init tax: `runs` repeated short runs, each paying
/// the full pre-cache setup — graph rebuilt, plan recompiled, machine
/// booted from nothing (the workspace's per-run behavior before the
/// compiled-artifact caches and `Machine::reset`) — vs the same `runs`
/// resolving the caches and resetting one reused [`SimContext`].
///
/// The digests are gated: they fold the session shape and every run's
/// simulated history, so a reset that diverges from a fresh boot by even
/// one event or one nanosecond drifts the counter block and fails CI.
/// The wall ratio between the two arms is the amortization headline
/// (informational — it varies with the host).
fn init_tax(runs: u64) -> (ScenarioResult, ScenarioResult) {
    let mut fresh_digest = 0u64;
    let start = Instant::now();
    for k in 0..runs {
        // The pre-cache setup path: build + compile from scratch, boot a
        // brand-new machine via a throwaway context.
        let graph =
            std::sync::Arc::new(Zoo::entry(ModelId::MobileNetV1).build_graph_with(DType::F32));
        let session = Session::compile(Engine::tflite_cpu(4), graph, SocCatalog::get(SocId::Sd845))
            .expect("supported combo");
        fold(&mut fresh_digest, session.graph().input_elements());
        let mut ctx = SimContext::new();
        let m = ctx.checkout(SocId::Sd845, k + 1);
        short_run(m, &mut fresh_digest);
    }
    let fresh_secs = start.elapsed().as_secs_f64();

    let mut reused_digest = 0u64;
    let mut ctx = SimContext::new();
    let start = Instant::now();
    for k in 0..runs {
        let session = Session::compile_cached(
            Engine::tflite_cpu(4),
            ModelId::MobileNetV1,
            DType::F32,
            SocId::Sd845,
        )
        .expect("supported combo");
        fold(&mut reused_digest, session.graph().input_elements());
        let m = ctx.checkout(SocId::Sd845, k + 1);
        short_run(m, &mut reused_digest);
    }
    let reused_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        fresh_digest, reused_digest,
        "context reuse changed simulated results"
    );

    let result = |name, secs, digest| ScenarioResult {
        name,
        events: runs,
        events_per_sec: runs as f64 / secs,
        counters: vec![("runs", runs), ("digest", digest)],
    };
    (
        result("init-tax-fresh", fresh_secs, fresh_digest),
        result("init-tax-reused", reused_secs, reused_digest),
    )
}

/// Digest of one device's fleet contribution.
fn partial_digest(digest: &mut u64, p: &DevicePartial) {
    fold(digest, p.requests);
    fold(digest, p.latency.mean().to_bits());
    fold(digest, p.tax_fraction.to_bits());
    fold(digest, p.energy_mj.to_bits());
}

/// The same split on the fleet path: every device through a throwaway
/// context (one machine boot per device — the shard behavior before
/// worker-held contexts) vs all devices through one shared context.
fn init_tax_fleet(devices: usize) -> (ScenarioResult, ScenarioResult) {
    let pop = PopulationSpec::new("init-tax").devices(devices).seed(13);
    let requests = 4 * devices as u64;

    let mut fresh_digest = 0u64;
    let start = Instant::now();
    for k in 0..devices {
        let mut ctx = SimContext::new();
        let p = run_device_in(&mut ctx, &pop.device(k), pop.requests_for(k, requests));
        partial_digest(&mut fresh_digest, &p);
    }
    let fresh_secs = start.elapsed().as_secs_f64();

    let mut reused_digest = 0u64;
    let mut ctx = SimContext::new();
    let start = Instant::now();
    for k in 0..devices {
        let p = run_device_in(&mut ctx, &pop.device(k), pop.requests_for(k, requests));
        partial_digest(&mut reused_digest, &p);
    }
    let reused_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        fresh_digest, reused_digest,
        "context reuse changed fleet partials"
    );

    let result = |name, secs, digest| ScenarioResult {
        name,
        events: devices as u64,
        events_per_sec: devices as f64 / secs,
        counters: vec![("devices", devices as u64), ("digest", digest)],
    };
    (
        result("init-tax-fleet-fresh", fresh_secs, fresh_digest),
        result("init-tax-fleet-reused", reused_secs, reused_digest),
    )
}

// ------------------------------------------------------------------ output

fn run_all(sizes: Sizes) -> Vec<ScenarioResult> {
    let (init_fresh, init_reused) = init_tax(sizes.init_runs);
    let (fleet_fresh, fleet_reused) = init_tax_fleet(sizes.fleet_devices);
    vec![
        calendar_churn(sizes.calendar_iters),
        wheel_churn(sizes.wheel_iters),
        trace_record(sizes.trace_events),
        trace_stream(sizes.stream_events),
        machine_hot(sizes.hot_events),
        machine_mixed(sizes.mixed_events),
        init_fresh,
        init_reused,
        fleet_fresh,
        fleet_reused,
    ]
}

/// Renders one mode's gated counter block. Byte-stable: `--check`
/// compares this exact string against the committed `BENCH_sim.json`.
fn counters_block(mode: &str, results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "    \"{mode}\": {{");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(out, "      \"{}\": {{", r.name);
        for (j, (k, v)) in r.counters.iter().enumerate() {
            let _ = write!(out, "\"{k}\": {v}");
            if j + 1 < r.counters.len() {
                out.push_str(", ");
            }
        }
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("    }");
    out
}

fn wall_block(results: &[ScenarioResult], with_baseline: bool) -> String {
    let mut out = String::new();
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"scenario\": \"{}\", \"events\": {}, \"events_per_sec\": {:.0}",
            r.name, r.events, r.events_per_sec
        );
        if with_baseline {
            if let Some(base) = baseline_for(r.name) {
                let _ = write!(
                    out,
                    ", \"baseline_events_per_sec\": {:.0}, \"speedup\": {:.2}",
                    base,
                    r.events_per_sec / base
                );
            }
        }
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out
}

/// Aggregate DES-layer throughput (calendar-churn + trace-record): total
/// events over total wall time, against the same aggregate of the
/// pre-refactor baseline. This is the headline >=3x number.
fn des_composite(results: &[ScenarioResult]) -> String {
    let des: Vec<&ScenarioResult> = results
        .iter()
        .filter(|r| r.name == "calendar-churn" || r.name == "trace-record")
        .collect();
    let events: f64 = des.iter().map(|r| r.events as f64).sum();
    let secs: f64 = des.iter().map(|r| r.events as f64 / r.events_per_sec).sum();
    let base_secs: f64 = des
        .iter()
        .filter_map(|r| baseline_for(r.name).map(|b| r.events as f64 / b))
        .sum();
    let eps = events / secs;
    let base_eps = events / base_secs;
    format!(
        "    \"des_composite\": {{\"events\": {:.0}, \"events_per_sec\": {:.0}, \
         \"baseline_events_per_sec\": {:.0}, \"speedup\": {:.2}}}",
        events,
        eps,
        base_eps,
        eps / base_eps
    )
}

/// The setup-amortization ratios: reused-arm throughput over fresh-arm
/// throughput for the short-run and fleet init-tax pairs. Informational
/// — these are wall-clock ratios; the digests inside the pairs are what
/// CI gates.
fn init_tax_composite(results: &[ScenarioResult]) -> String {
    let eps = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.events_per_sec)
            .unwrap_or(f64::NAN)
    };
    format!(
        "    \"init_tax_amortization\": {{\"short_run_speedup\": {:.2}, \
         \"fleet_speedup\": {:.2}}}",
        eps("init-tax-reused") / eps("init-tax-fresh"),
        eps("init-tax-fleet-reused") / eps("init-tax-fleet-fresh")
    )
}

fn print_human(sizes: Sizes, results: &[ScenarioResult]) {
    println!("## Simulator throughput ({} mode)\n", sizes.mode);
    for r in results {
        println!(
            "{:<16} {:>12} events   {:>12.0} events/sec",
            r.name, r.events, r.events_per_sec
        );
        for (k, v) in &r.counters {
            println!("    {k:<22} {v}");
        }
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let sizes = if quick { QUICK } else { FULL };

    let results = run_all(sizes);
    print_human(sizes, &results);

    let block = counters_block(sizes.mode, &results);
    if check {
        let committed = std::fs::read_to_string("BENCH_sim.json").unwrap_or_else(|e| {
            eprintln!("cannot read BENCH_sim.json: {e}");
            std::process::exit(2);
        });
        if committed.contains(&block) {
            println!("OK: {} counters match committed BENCH_sim.json", sizes.mode);
        } else {
            eprintln!(
                "DRIFT: deterministic {} counters differ from committed \
                 BENCH_sim.json.\nExpected block:\n{block}\n\nRegenerate with \
                 `cargo run --release -p aitax-bench --bin sim_throughput` and \
                 review the diff.",
                sizes.mode
            );
            std::process::exit(1);
        }
        return;
    }

    // Full (non-check) runs rewrite BENCH_sim.json with counters for both
    // modes; wall numbers are informational and refreshed from this run.
    let other = if quick { FULL } else { QUICK };
    let other_results = run_all(other);
    let (quick_block, full_block) = if quick {
        (
            counters_block("quick", &results),
            counters_block("full", &other_results),
        )
    } else {
        (
            counters_block("quick", &other_results),
            counters_block("full", &results),
        )
    };
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"aitax-sim-bench/v1\",\n");
    let _ = writeln!(json, "  \"measured_mode\": \"{}\",", sizes.mode);
    json.push_str("  \"gated_counters\": {\n");
    json.push_str(&quick_block);
    json.push_str(",\n");
    json.push_str(&full_block);
    json.push_str("\n  },\n");
    json.push_str("  \"informational_wall\": {\n");
    json.push_str("    \"note\": \"host-dependent; never gated\",\n");
    json.push_str(
        "    \"baseline\": \"pre-refactor (commit a51bc96), full mode, same container\",\n",
    );
    let full_results = if quick { &other_results } else { &results };
    json.push_str(&des_composite(full_results));
    json.push_str(",\n");
    json.push_str(&init_tax_composite(full_results));
    json.push_str(",\n");
    json.push_str("    \"scenarios\": [\n");
    json.push_str(&wall_block(full_results, true));
    json.push_str("    ]\n  }\n}\n");
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");
}
