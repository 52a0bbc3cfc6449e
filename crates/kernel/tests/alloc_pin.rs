//! Pins the steady-state event loop at **zero heap allocations per
//! event** with a counting global allocator — the probe-effect guarantee
//! that `crates/bench/tests/sim_counters.rs` also pins as `steady_allocs`
//! — and pins [`Machine::reset`], the context-reuse path, at zero
//! allocations too.
//!
//! The step scenario mirrors that test's `machine-hot`: long
//! foreground tasks time-slicing over the big cores with tracing enabled.
//! After warmup every structure has reached steady capacity — the
//! calendar's slot slab and heap, the per-slot event table, the
//! pre-reserved trace buffer — so `Machine::step` must never touch the
//! allocator again. The offload scenario does the same for the DSP wait
//! queue (priority-ordered enqueue, dispatch, completion) and for timers
//! that are armed and cancelled every event.
//!
//! Scenarios that complete and resubmit tasks are pinned on a *warm*
//! machine: one full pass sizes every table (task and gang slots grow to
//! the peak number alive at once), `Machine::reset` keeps that storage, and
//! the identical second pass must not allocate. Such pins cover the
//! untraced submit path (a static label is neither formatted nor
//! interned), QoS preemption (`preempt_running`), fork-join gangs
//! (`submit_gang`, whose members are built in place and whose shared join
//! lives in a recycled slot), ambient noise bursts (a machine event, not
//! a boxed timer) and a whole TFLite CPU inference, whose cost per op is
//! zero: a warm `Session::invoke` allocates the same on models of very
//! different op counts.
//!
//! The calendar is pinned on its own as well: on a warm calendar that
//! `Calendar::reset` has cleared, a schedule/cancel/`next` churn at the
//! warm pass's high-water mark must not allocate.
//!
//! The simulator is single-threaded, so the counter is per thread: the
//! test harness and sibling tests allocate on other threads and cannot
//! bleed into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::rc::Rc;

use aitax_des::{Calendar, SimRng, SimSpan, Token};
use aitax_framework::{Engine, Session};
use aitax_kernel::{CoreMask, GangJoin, Machine, NoiseConfig, TaskSpec, Work};
use aitax_models::zoo::ModelId;
use aitax_soc::{SocCatalog, SocId};
use aitax_tensor::DType;

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

#[test]
fn steady_state_step_loop_never_allocates() {
    const WARMUP: u64 = 20_000;
    const MEASURED: u64 = 100_000;

    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 42);
    m.set_tracing(true);
    // ~3 trace events per step; size once so recording never reallocates.
    m.trace.reserve_events(4 * (WARMUP + MEASURED) as usize);
    for i in 0..8 {
        // Work far larger than the run: no task completes mid-measurement,
        // so the loop is pure SliceEnd dispatch — the hot path.
        m.submit_cpu(
            TaskSpec::foreground(format!("fg{i}"), Work::Fp32Flops(1e18)),
            |_| {},
        );
    }
    for _ in 0..WARMUP {
        assert!(m.step(), "workload drained during warmup");
    }

    let before = allocs();
    for _ in 0..MEASURED {
        assert!(m.step(), "workload drained during measurement");
    }
    let steady = allocs() - before;

    assert_eq!(
        steady, 0,
        "steady-state Machine::step allocated {steady} time(s) over \
         {MEASURED} events; the hot path must be allocation-free"
    );
    assert!(
        m.stats().context_switches > 0,
        "scenario must actually exercise the dispatcher"
    );
}

#[test]
fn reset_after_a_run_never_allocates() {
    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 42);
    m.set_tracing(true);
    for i in 0..8 {
        m.submit_cpu(
            TaskSpec::foreground(format!("fg{i}"), Work::Cycles(5e7)),
            |_| {},
        );
    }
    m.run_until_idle();
    assert_eq!(m.stats().tasks_completed, 8, "warm run must drain");

    let before = allocs();
    m.reset(7);
    let during = allocs() - before;

    assert_eq!(
        during, 0,
        "Machine::reset allocated {during} time(s); reuse must keep the \
         previous run's storage instead of rebuilding it"
    );
}

/// Resubmits itself on completion: a fn item is zero-sized, so boxing
/// it as the completion callback does not allocate.
fn dsp_chain(m: &mut Machine) {
    m.submit_dsp_prio("dsp", SimSpan::from_us(50.0), 1, dsp_chain);
}

fn dsp_chain_low(m: &mut Machine) {
    m.submit_dsp_raw("dsp-low", SimSpan::from_us(80.0), dsp_chain_low);
}

/// Re-arms itself after scheduling and cancelling a decoy timer.
fn timer_chain(m: &mut Machine) {
    let decoy = m.after(SimSpan::from_us(60.0), timer_chain);
    assert!(m.cancel_timer(decoy));
    m.after(SimSpan::from_us(40.0), timer_chain);
}

#[test]
fn steady_state_dsp_queue_and_timers_never_allocate() {
    const WARMUP: u64 = 2_000;
    const MEASURED: u64 = 20_000;

    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 42);
    m.set_tracing(true);
    m.trace.reserve_events(8 * (WARMUP + MEASURED) as usize);
    // Two chains per priority band keep waiters queued, so enqueues take
    // both the priority-insert and the FIFO-append path.
    for _ in 0..2 {
        dsp_chain(&mut m);
        dsp_chain_low(&mut m);
    }
    timer_chain(&mut m);
    for _ in 0..WARMUP {
        assert!(m.step(), "chains drained during warmup");
    }

    let before = allocs();
    for _ in 0..MEASURED {
        assert!(m.step(), "chains drained during measurement");
    }
    let steady = allocs() - before;

    assert_eq!(
        steady, 0,
        "steady-state DSP queue and timers allocated {steady} time(s) over {MEASURED} events"
    );
    assert!(m.stats().dsp_jobs > MEASURED / 4, "the DSP must stay busy");
}

/// Runs `scenario` for `events` events to size every table, resets the
/// machine, then returns the machine and the allocations of an identical
/// second pass (its set-up excluded).
fn warm_rerun_allocs(scenario: fn(&mut Machine), events: u64) -> (Machine, u64) {
    let steps = |m: &mut Machine| {
        for _ in 0..events {
            assert!(m.step(), "scenario drained");
        }
    };
    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 42);
    scenario(&mut m);
    steps(&mut m);
    m.reset(42);
    scenario(&mut m);
    let before = allocs();
    steps(&mut m);
    let during = allocs() - before;
    (m, during)
}

/// Short and long foreground chains that resubmit themselves on
/// completion: every task is dispatched, time-sliced or completed, and
/// replaced by a fresh one, all with a static label and a zero-sized fn
/// item as the callback.
fn short_chain(m: &mut Machine) {
    m.submit_cpu(
        TaskSpec::foreground("short", Work::Cycles(4e5)),
        short_chain,
    );
}

fn long_chain(m: &mut Machine) {
    m.submit_cpu(TaskSpec::foreground("long", Work::Cycles(3e7)), long_chain);
}

fn untraced_chains(m: &mut Machine) {
    for _ in 0..3 {
        short_chain(m);
        long_chain(m);
    }
}

#[test]
fn untraced_submit_cpu_never_allocates_on_a_warm_machine() {
    let (m, during) = warm_rerun_allocs(untraced_chains, 30_000);
    assert!(!m.trace.is_enabled());
    assert_eq!(
        during, 0,
        "untraced submit/dispatch/slice-end/completion allocated {during} time(s)"
    );
    assert!(
        m.trace.symbols().is_empty(),
        "untraced work interned a label"
    );
    assert!(
        m.stats().tasks_completed > 5_000,
        "chains must keep completing"
    );
}

/// A priority-1 arrival every 500 us whose completion re-arms the next;
/// it finds every big core busy with a priority-0 hog and preempts one.
fn urgent_arrival(m: &mut Machine) {
    let task = TaskSpec::foreground("urgent", Work::Cycles(3e5)).with_priority(1);
    m.submit_cpu(task, urgent_done);
}

fn urgent_done(m: &mut Machine) {
    m.after(SimSpan::from_us(500.0), urgent_arrival);
}

fn hogs_and_urgent_arrivals(m: &mut Machine) {
    m.set_tracing(true);
    m.trace.reserve_events(1 << 16);
    let big = CoreMask::of(&m.spec().big_core_ids());
    for _ in 0..big.count() {
        m.submit_cpu(
            TaskSpec::foreground("hog", Work::Fp32Flops(1e18)).with_affinity(big),
            |_| {},
        );
    }
    urgent_arrival(m);
}

#[test]
fn steady_state_preemption_never_allocates() {
    let (m, during) = warm_rerun_allocs(hogs_and_urgent_arrivals, 15_000);
    assert_eq!(
        during, 0,
        "steady-state preemption allocated {during} time(s)"
    );
    assert!(
        m.stats().preemptions > 1_000,
        "every urgent arrival must preempt a hog, got {}",
        m.stats().preemptions
    );
}

thread_local! {
    /// Gangs submitted on this thread.
    static GANGS: Cell<u64> = const { Cell::new(0) };
}

fn gangs() -> u64 {
    GANGS.with(Cell::get)
}

/// A chain of 4-wide fork-join gangs whose join submits the next gang
/// with itself as that gang's join, as a multi-threaded TFLite op chain
/// does: one join serves the whole chain.
struct GangChain;

impl GangJoin for GangChain {
    fn joined(self: Rc<Self>, m: &mut Machine) {
        GANGS.with(|n| n.set(n.get() + 1));
        m.submit_gang(
            4,
            |_, _| TaskSpec::foreground("gang", Work::Cycles(2e6)),
            self,
        );
    }
}

fn two_gang_chains(m: &mut Machine) {
    Rc::new(GangChain).joined(m);
    Rc::new(GangChain).joined(m);
}

#[test]
fn steady_state_gangs_never_allocate() {
    let before = gangs();
    let (_, during) = warm_rerun_allocs(two_gang_chains, 20_000);
    let measured_gangs = gangs() - before;
    assert!(measured_gangs > 2_000, "gangs must keep completing");
    assert_eq!(
        during, 0,
        "steady-state gangs allocated {during} time(s); a gang's members \
         are built in place and its join is shared"
    );
}

fn app_noise(m: &mut Machine) {
    m.start_noise(NoiseConfig::android_app());
}

#[test]
fn steady_state_noise_bursts_never_allocate() {
    let (m, during) = warm_rerun_allocs(app_noise, 20_000);
    assert_eq!(
        during, 0,
        "app-mode noise allocated {during} time(s) over 20000 events"
    );
    assert!(
        m.stats().tasks_completed > 5_000,
        "every burst must submit a background task"
    );
}

/// Allocations of a warm `Session::invoke` of `model` (fp32) on
/// `tflite_cpu(4)`, and the model's op count: a first invoke sizes every
/// table, `Machine::reset` keeps them, and an identical second invoke is
/// counted from submission to completion.
#[expect(clippy::expect_used, reason = "a compile failure fails the test")]
fn warm_invoke_allocs(model: ModelId) -> (u64, usize) {
    let session = Session::compile_cached(Engine::tflite_cpu(4), model, DType::F32, SocId::Sd845)
        .expect("TFLite CPU runs every fp32 model");
    let done = Rc::new(Cell::new(0u32));
    let invoke = |m: &mut Machine| {
        let d = done.clone();
        session.invoke(m, move |_| d.set(d.get() + 1));
        m.run_until_idle();
    };
    let mut m = Machine::new(SocCatalog::get(SocId::Sd845), 42);
    invoke(&mut m);
    m.reset(42);
    let before = allocs();
    invoke(&mut m);
    let during = allocs() - before;
    assert_eq!(done.get(), 2, "both invokes must complete");
    assert_eq!(m.stats().tasks_completed, 4 * session.graph().len() as u64);
    (during, session.graph().len())
}

#[test]
fn warm_cpu_invoke_allocates_nothing_per_op() {
    let (mobilenet, mobilenet_ops) = warm_invoke_allocs(ModelId::MobileNetV1);
    let (inception, inception_ops) = warm_invoke_allocs(ModelId::InceptionV3);
    assert!(
        inception_ops > 3 * mobilenet_ops,
        "the two models must differ in op count: {mobilenet_ops} vs {inception_ops}"
    );
    assert_eq!(
        mobilenet, inception,
        "a warm invoke allocated {mobilenet} time(s) for {mobilenet_ops} ops and \
         {inception} for {inception_ops}: an op must cost no allocation"
    );
    assert!(
        mobilenet < 8,
        "a warm invoke allocated {mobilenet} time(s); only per-invoke set-up may allocate"
    );
}

/// One deterministic calendar script: every cycle schedules a near and a
/// far event, cancels one of the last `RECENT` tokens (already fired or
/// cancelled ones are refused) and pops the next event. Recent tokens
/// live in a fixed array, so the script itself never allocates.
fn calendar_churn(cal: &mut Calendar, cycles: u64) -> u64 {
    const RECENT: usize = 32;
    let mut rng = SimRng::seed_from(0xCA1E_A110);
    let mut recent = [None::<Token>; RECENT];
    let mut fired = 0;
    for i in 0..cycles as usize {
        let near = cal.schedule_after(SimSpan::from_ns(rng.uniform_u64(0, 2_000)));
        let far = cal.schedule_after(SimSpan::from_ns(rng.uniform_u64(0, 1 << 40)));
        recent[(2 * i) % RECENT] = Some(near);
        recent[(2 * i + 1) % RECENT] = Some(far);
        if let Some(tok) = recent[rng.uniform_u64(0, RECENT as u64) as usize] {
            cal.cancel(tok);
        }
        if cal.next().is_some() {
            fired += 1;
        }
    }
    fired
}

#[test]
fn warm_calendar_churn_never_allocates() {
    const CYCLES: u64 = 10_000;
    // The warm pass grows the heap, slot slab and free list to the
    // script's high-water mark; `reset` must keep all three.
    let mut cal = Calendar::new();
    calendar_churn(&mut cal, CYCLES);
    cal.reset();

    let before = allocs();
    let fired = calendar_churn(&mut cal, CYCLES);
    let during = allocs() - before;

    assert_eq!(
        during, 0,
        "{CYCLES} schedule/cancel/next cycles on a warm, reset calendar \
         allocated {during} time(s)"
    );
    assert_eq!(fired, CYCLES, "every cycle must fire an event");
    assert!(
        cal.cancelled_total() > CYCLES / 4,
        "the script must cancel live events"
    );
}
