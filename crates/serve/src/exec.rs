//! The serving executor: one deterministic simulation of a tenant mix.
//!
//! Each tenant runs a serial request pipeline (pre-process → inference →
//! post-process) driven by its arrival stream. QoS classes become
//! scheduler priorities on every CPU task and FastRPC invocation, so the
//! kernel's preemption and accelerator-queue ordering arbitrate CPU and
//! offload contention; a [`des::Arbiter`](aitax_des::Arbiter) gates the
//! DRAM/AXI-heavy inference phase behind a small number of memory-channel
//! slots and keeps the victim→culprit blame ledger the attribution pass
//! consumes. Back-to-back requests of one tenant ride an NNAPI-style
//! burst that amortizes FastRPC ioctl setup.
//!
//! Requests are *serial within a tenant* (one app pipeline each): an
//! arrival that finds the tenant busy waits in its admission queue, and
//! arrivals beyond the queue bound are shed.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use aitax_core::stage::{Stage, StageBreakdown, StageClock};
use aitax_core::SimContext;
use aitax_des::{Acquired, Arbiter, HoldId, SimSpan, SimTime, Ticket};
use aitax_framework::Session;
use aitax_kernel::{Machine, TaskSpec, Work};
use aitax_pipeline::{CostModel, PixelOp, RuntimeKind};

use crate::arrival::arrival_times;
use crate::tenant::ServeConfig;

/// Memory-channel slots the inference phase contends for: a mobile SoC
/// has two DRAM channels' worth of sustained AI bandwidth before
/// pipelines start queueing on each other.
pub(crate) const MEMBW_SLOTS: usize = 2;

/// Slots reserved for interactive-priority requests (memguard-style
/// bandwidth reservation): best-effort and background holds can saturate
/// only `MEMBW_SLOTS - MEMBW_RESERVED` slots, so an interactive pipeline
/// never queues behind two long low-priority bus holds.
pub(crate) const MEMBW_RESERVED: usize = 1;

/// One completed request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Arrival-stream index of the request within its tenant.
    pub index: usize,
    /// Arrival time (ms since run start).
    pub arrival_ms: f64,
    /// Admission-queue + executor wait before processing began.
    pub queue_ms: f64,
    /// End-to-end latency (arrival → outputs delivered).
    pub latency_ms: f64,
    /// Execution-stage spans (`e2e() == latency - queue`).
    pub breakdown: StageBreakdown,
}

/// One tenant's outcomes in a scenario run.
#[derive(Debug, Clone, Default)]
pub struct TenantRun {
    /// Completed requests in completion (= arrival-index) order.
    pub completed: Vec<RequestRecord>,
    /// Arrivals dropped by admission control.
    pub shed: u64,
    /// Requests that rode a warm burst (amortized FastRPC setup).
    pub burst_continuations: u64,
}

/// A finished scenario simulation.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Per-tenant outcomes, indexed like `cfg.tenants`; tenants excluded
    /// from a solo run are empty.
    pub tenants: Vec<TenantRun>,
    /// Memory-bandwidth blame ledger: `(victim, culprit) → ms` of
    /// inference-phase wait the culprit's holds imposed.
    pub blame_ms: BTreeMap<(u32, u32), f64>,
    /// Per-tenant self-contention (waiting behind its own holds), ms.
    pub self_wait_ms: BTreeMap<u32, f64>,
    /// Requests that had to queue for a memory slot.
    pub membw_queued: u64,
}

/// One active tenant's serving state.
struct Tenant {
    /// Position in `cfg.tenants`: the tenant's arbiter id and result slot.
    id: usize,
    session: Session,
    priority: i8,
    label: String,
    pre_cycles: f64,
    post_cycles: f64,
    arrivals: Vec<SimTime>,
    queue: VecDeque<usize>,
    busy: bool,
    burst_open: bool,
    run: TenantRun,
}

/// A request in flight. It travels through its stage continuations by
/// value and is parked by [`Ticket`] while the memory arbiter queues it.
struct Request {
    /// Position of its tenant in [`World::tenants`].
    tenant: usize,
    index: usize,
    arrival: SimTime,
    clock: StageClock,
}

struct World {
    /// The tenants this run serves, in scenario order.
    tenants: Vec<Tenant>,
    membw: Arbiter,
    parked: BTreeMap<Ticket, Request>,
    membw_queued: u64,
    queue_bound: usize,
}

type WorldRef = Rc<RefCell<World>>;

/// Runs one scenario simulation on a freshly booted machine: the full
/// mix when `only` is `None`, or the solo baseline of tenant
/// `only = Some(k)` (same arrival stream, unbounded admission).
///
/// # Panics
///
/// Panics if a tenant's engine cannot compile its model (scenario
/// construction bugs, e.g. a DSP engine with a float model).
pub fn run_scenario(cfg: &ServeConfig, only: Option<usize>) -> ScenarioRun {
    run_scenario_in(cfg, only, &mut SimContext::new())
}

/// [`run_scenario`] on a machine checked out of `ctx`.
pub(crate) fn run_scenario_in(
    cfg: &ServeConfig,
    only: Option<usize>,
    ctx: &mut SimContext,
) -> ScenarioRun {
    let m = ctx.checkout(cfg.soc, cfg.seed);
    let cost = CostModel::new(RuntimeKind::Native);

    let tenants: Vec<Tenant> = cfg
        .tenants
        .iter()
        .enumerate()
        .filter(|&(k, _)| only.is_none_or(|o| o == k))
        .map(|(k, spec)| {
            #[expect(
                clippy::expect_used,
                reason = "scenario builders pair engines with supported dtypes"
            )]
            let session = Session::compile_cached(spec.engine, spec.model, spec.dtype, cfg.soc)
                .expect("tenant engine/dtype mismatch");
            let elements = session.graph().input_elements().max(1);
            session.set_priority(spec.qos.priority());
            Tenant {
                id: k,
                session,
                priority: spec.qos.priority(),
                label: spec.label.clone(),
                // Serving inputs arrive model-shaped: type conversion in,
                // top-K out — the paper's "negligible pre-processing"
                // benchmark regime, kept non-zero so the stages exist.
                pre_cycles: cost.cycles(PixelOp::TypeConvert, elements),
                post_cycles: cost.cycles(PixelOp::TopK, 1001).max(1.0),
                arrivals: arrival_times(cfg.seed, k as u64, spec.rate_hz, spec.requests),
                queue: VecDeque::new(),
                busy: false,
                burst_open: false,
                run: TenantRun::default(),
            }
        })
        .collect();

    let world: WorldRef = Rc::new(RefCell::new(World {
        tenants,
        membw: Arbiter::with_reservation(
            MEMBW_SLOTS,
            MEMBW_RESERVED,
            aitax_core::QosClass::Interactive.priority(),
        ),
        parked: BTreeMap::new(),
        membw_queued: 0,
        queue_bound: if only.is_some() {
            usize::MAX
        } else {
            cfg.admission.queue_bound()
        },
    }));

    // Warmup: one unrecorded invocation per tenant at t=0 pays the DSP
    // session mapping, driver probes and model residency, so recorded
    // requests (which start at ARRIVAL_EPOCH) measure steady-state
    // serving. Arrival times are fixed constants, so solo and multi runs
    // replay identical offered load regardless of warmup contention.
    {
        let w = world.borrow();
        for t in &w.tenants {
            t.session.invoke(m, |_| {});
        }
        for (slot, t) in w.tenants.iter().enumerate() {
            for (i, &at) in t.arrivals.iter().enumerate() {
                let w = world.clone();
                m.after(at.since(SimTime::ZERO), move |m| on_arrival(&w, m, slot, i));
            }
        }
    }
    m.run_until_idle();

    let mut w = world.borrow_mut();
    let mut runs = vec![TenantRun::default(); cfg.tenants.len()];
    for t in &mut w.tenants {
        runs[t.id] = std::mem::take(&mut t.run);
    }
    ScenarioRun {
        tenants: runs,
        blame_ms: ms_by_key(w.membw.blame()),
        self_wait_ms: ms_by_key(w.membw.self_wait()),
        membw_queued: w.membw_queued,
    }
}

fn ms_by_key<K: Ord + Copy>(spans: &BTreeMap<K, SimSpan>) -> BTreeMap<K, f64> {
    spans.iter().map(|(&k, &s)| (k, s.as_ms())).collect()
}

fn on_arrival(w: &WorldRef, m: &mut Machine, slot: usize, i: usize) {
    let busy = {
        let mut world = w.borrow_mut();
        let bound = world.queue_bound;
        let t = &mut world.tenants[slot];
        if t.busy && t.queue.len() < bound {
            t.queue.push_back(i);
        } else if t.busy {
            t.run.shed += 1;
        }
        t.busy
    };
    if !busy {
        start_request(w, m, slot, i);
    }
}

fn start_request(w: &WorldRef, m: &mut Machine, slot: usize, i: usize) {
    let (task, req) = {
        let mut world = w.borrow_mut();
        let t = &mut world.tenants[slot];
        t.busy = true;
        if t.burst_open {
            // The burst stayed warm from the previous back-to-back
            // request: this one amortizes its FastRPC setup.
            t.run.burst_continuations += 1;
        } else {
            t.session.begin_burst();
            t.burst_open = true;
        }
        let req = Request {
            tenant: slot,
            index: i,
            arrival: t.arrivals[i],
            clock: StageClock::start(m.now()),
        };
        let label = m.trace.label(format_args!("{}:pre", t.label));
        let task =
            TaskSpec::foreground(label, Work::Cycles(t.pre_cycles)).with_priority(t.priority);
        (task, req)
    };
    let w2 = w.clone();
    m.submit_cpu(task, move |m| on_pre_done(&w2, m, req));
}

fn on_pre_done(w: &WorldRef, m: &mut Machine, mut req: Request) {
    let now = m.now();
    req.clock.stamp(Stage::PreProcessing, now);
    let granted = {
        let mut world = w.borrow_mut();
        let t = &world.tenants[req.tenant];
        let (id, prio) = (t.id as u32, t.priority);
        match world.membw.acquire(now, id, prio) {
            Acquired::Granted(hold) => Some((req, hold)),
            Acquired::Queued(ticket) => {
                world.membw_queued += 1;
                world.parked.insert(ticket, req);
                None
            }
        }
    };
    if let Some((req, hold)) = granted {
        begin_inference(w, m, req, hold);
    }
}

fn begin_inference(w: &WorldRef, m: &mut Machine, req: Request, hold: HoldId) {
    let session = w.borrow().tenants[req.tenant].session.clone();
    let w2 = w.clone();
    session.invoke(m, move |m| on_inf_done(&w2, m, req, hold));
}

fn on_inf_done(w: &WorldRef, m: &mut Machine, mut req: Request, hold: HoldId) {
    let now = m.now();
    req.clock.stamp(Stage::Inference, now);
    let (task, resumed) = {
        let mut world = w.borrow_mut();
        let resumed = world.membw.release(now, hold).map(|(ticket, hold)| {
            #[expect(
                clippy::expect_used,
                reason = "every queued ticket is parked before the next event fires"
            )]
            let parked = world
                .parked
                .remove(&ticket)
                .expect("granted ticket has no parked request");
            (parked, hold)
        });
        let t = &world.tenants[req.tenant];
        let label = m.trace.label(format_args!("{}:post", t.label));
        let task =
            TaskSpec::foreground(label, Work::Cycles(t.post_cycles)).with_priority(t.priority);
        (task, resumed)
    };
    if let Some((parked, hold)) = resumed {
        begin_inference(w, m, parked, hold);
    }
    let w2 = w.clone();
    m.submit_cpu(task, move |m| on_post_done(&w2, m, req));
}

fn on_post_done(w: &WorldRef, m: &mut Machine, mut req: Request) {
    let now = m.now();
    req.clock.stamp(Stage::PostProcessing, now);
    let next = {
        let mut world = w.borrow_mut();
        let t = &mut world.tenants[req.tenant];
        t.run.completed.push(RequestRecord {
            index: req.index,
            arrival_ms: req.arrival.since(SimTime::ZERO).as_ms(),
            queue_ms: req.clock.started().since(req.arrival).as_ms(),
            latency_ms: now.since(req.arrival).as_ms(),
            breakdown: req.clock.breakdown(),
        });
        t.busy = false;
        let next = t.queue.pop_front();
        if next.is_none() {
            t.session.end_burst();
            t.burst_open = false;
        }
        next
    };
    if let Some(i) = next {
        start_request(w, m, req.tenant, i);
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn smoke_scenario_completes_all_requests_without_admission() {
        let cfg = scenarios::by_name("smoke").unwrap().seed(3);
        let cfg = ServeConfig {
            admission: crate::tenant::AdmissionPolicy::Unbounded,
            ..cfg
        };
        let run = run_scenario(&cfg, None);
        for (t, spec) in run.tenants.iter().zip(&cfg.tenants) {
            assert_eq!(t.completed.len(), spec.requests, "{}", spec.label);
            assert_eq!(t.shed, 0);
            for r in &t.completed {
                assert!(r.latency_ms > 0.0);
                assert!(r.queue_ms >= 0.0);
                // The stage spans add up to the service time.
                let service = r.latency_ms - r.queue_ms;
                assert!((r.breakdown.e2e().as_ms() - service).abs() < 1e-6, "{r:?}");
            }
        }
    }

    #[test]
    fn solo_run_touches_only_its_tenant() {
        let cfg = scenarios::by_name("smoke").unwrap().seed(3);
        let run = run_scenario(&cfg, Some(1));
        assert!(run.tenants[0].completed.is_empty());
        assert_eq!(run.tenants[1].completed.len(), cfg.tenants[1].requests);
        assert!(run.tenants[2].completed.is_empty());
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = scenarios::by_name("smoke").unwrap().seed(9);
        let a = run_scenario(&cfg, None);
        let b = run_scenario(&cfg, None);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.completed.len(), tb.completed.len());
            for (ra, rb) in ta.completed.iter().zip(&tb.completed) {
                assert_eq!(ra.latency_ms, rb.latency_ms);
                assert_eq!(ra.queue_ms, rb.queue_ms);
            }
        }
        assert_eq!(a.blame_ms, b.blame_ms);
    }

    #[test]
    fn untraced_scenario_interns_nothing() {
        let cfg = scenarios::by_name("contention").unwrap().seed(4);
        let mut ctx = SimContext::new();
        let run = run_scenario_in(&cfg, None, &mut ctx);
        let m = ctx.machine().unwrap();
        assert!(m.stats().rpc_calls > 0, "the mix must offload");
        assert!(run.tenants.iter().all(|t| !t.completed.is_empty()));
        assert!(
            m.trace.symbols().is_empty(),
            "untraced serving interned {} label(s)",
            m.trace.symbols().len()
        );
    }

    #[test]
    fn admission_bound_sheds_overflow() {
        // Saturation scenario: rates far above capacity with a small
        // queue bound must shed without deadlocking.
        let cfg = scenarios::by_name("saturation").unwrap().seed(5);
        let run = run_scenario(&cfg, None);
        let shed: u64 = run.tenants.iter().map(|t| t.shed).sum();
        assert!(shed > 0, "saturation must trigger admission control");
        let done: usize = run.tenants.iter().map(|t| t.completed.len()).sum();
        assert!(done > 0);
    }
}
