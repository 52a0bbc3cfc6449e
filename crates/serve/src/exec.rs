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

use aitax_core::stage::StageBreakdown;
use aitax_des::{Acquired, Arbiter, HoldId, SimTime, Ticket};
use aitax_framework::Session;
use aitax_kernel::{Machine, TaskSpec, Work};
use aitax_pipeline::{CostModel, PixelOp, RuntimeKind};
use aitax_soc::SocCatalog;

use crate::arrival::arrival_times;
use crate::tenant::ServeConfig;

/// Memory-channel slots the inference phase contends for: a mobile SoC
/// has two DRAM channels' worth of sustained AI bandwidth before
/// pipelines start queueing on each other.
pub const MEMBW_SLOTS: usize = 2;

/// Slots reserved for interactive-priority requests (memguard-style
/// bandwidth reservation): best-effort and background holds can saturate
/// only `MEMBW_SLOTS - MEMBW_RESERVED` slots, so an interactive pipeline
/// never queues behind two long low-priority bus holds.
pub const MEMBW_RESERVED: usize = 1;

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

struct CurReq {
    index: usize,
    arrival: SimTime,
    start: SimTime,
    pre_done: SimTime,
    inf_done: SimTime,
    hold: Option<HoldId>,
}

struct TenantState {
    session: Session,
    priority: i8,
    label: String,
    pre_cycles: f64,
    post_cycles: f64,
    arrivals: Vec<SimTime>,
    queue: VecDeque<usize>,
    busy: bool,
    burst_open: bool,
    cur: Option<CurReq>,
    run: TenantRun,
}

struct World {
    tenants: Vec<Option<TenantState>>,
    membw: Arbiter,
    parked: BTreeMap<Ticket, usize>,
    membw_queued: u64,
    queue_bound: usize,
}

impl World {
    /// Tenant `k`'s live state. Every event handler is scheduled against
    /// an active tenant, and tenant slots are never vacated mid-run.
    #[expect(
        clippy::expect_used,
        reason = "handlers are only scheduled for active tenants"
    )]
    fn tenant_mut(&mut self, k: usize) -> &mut TenantState {
        self.tenants[k]
            .as_mut()
            .expect("handler targets an inactive tenant")
    }
}

impl TenantState {
    /// The request this handler chain belongs to.
    #[expect(
        clippy::expect_used,
        reason = "a handler chain runs only while its request is in flight"
    )]
    fn cur_mut(&mut self) -> &mut CurReq {
        self.cur
            .as_mut()
            .expect("handler fired with no request in flight")
    }
}

type WorldRef = Rc<RefCell<World>>;

/// Runs one scenario simulation: the full mix when `only` is `None`, or
/// the solo baseline of tenant `only = Some(k)` (same arrival stream,
/// unbounded admission).
///
/// # Panics
///
/// Panics if a tenant's engine cannot compile its model (scenario
/// construction bugs, e.g. a DSP engine with a float model).
pub fn run_scenario(cfg: &ServeConfig, only: Option<usize>) -> ScenarioRun {
    let mut m = Machine::new(SocCatalog::get(cfg.soc), cfg.seed);
    simulate(cfg, only, &mut m)
}

/// [`run_scenario`] on a caller-provided, freshly booted machine.
fn simulate(cfg: &ServeConfig, only: Option<usize>, m: &mut Machine) -> ScenarioRun {
    let cost = CostModel::new(RuntimeKind::Native);

    let tenants: Vec<Option<TenantState>> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(k, spec)| {
            if only.is_some_and(|o| o != k) {
                return None;
            }
            #[expect(
                clippy::expect_used,
                reason = "scenario builders pair engines with supported dtypes"
            )]
            let session = Session::compile_cached(spec.engine, spec.model, spec.dtype, cfg.soc)
                .expect("tenant engine/dtype mismatch");
            let elements = session.graph().input_elements().max(1);
            session.set_priority(spec.qos.priority());
            Some(TenantState {
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
                cur: None,
                run: TenantRun::default(),
            })
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
    let active: Vec<usize> = (0..cfg.tenants.len())
        .filter(|&k| world.borrow().tenants[k].is_some())
        .collect();
    for &k in &active {
        #[expect(clippy::unwrap_used, reason = "k was filtered on is_some above")]
        let session = world.borrow().tenants[k]
            .as_ref()
            .map(|t| t.session.clone())
            .unwrap();
        session.invoke(m, |_| {});
    }
    for &k in &active {
        #[expect(clippy::unwrap_used, reason = "k was filtered on is_some above")]
        let arrivals = world.borrow().tenants[k]
            .as_ref()
            .map(|t| t.arrivals.clone())
            .unwrap();
        for (i, &at) in arrivals.iter().enumerate() {
            let w = world.clone();
            m.after(at.since(SimTime::ZERO), move |m| on_arrival(&w, m, k, i));
        }
    }
    m.run_until_idle();

    let mut w = world.borrow_mut();
    let blame_ms = w
        .membw
        .blame()
        .iter()
        .map(|(&k, &s)| (k, s.as_ms()))
        .collect();
    let self_wait_ms = w
        .membw
        .self_wait()
        .iter()
        .map(|(&k, &s)| (k, s.as_ms()))
        .collect();
    ScenarioRun {
        tenants: w
            .tenants
            .iter_mut()
            .map(|t| {
                t.as_mut()
                    .map(|t| std::mem::take(&mut t.run))
                    .unwrap_or_default()
            })
            .collect(),
        blame_ms,
        self_wait_ms,
        membw_queued: w.membw_queued,
    }
}

fn on_arrival(w: &WorldRef, m: &mut Machine, k: usize, i: usize) {
    let start_now = {
        let mut world = w.borrow_mut();
        let bound = world.queue_bound;
        #[expect(
            clippy::expect_used,
            reason = "arrivals are only scheduled for active tenants"
        )]
        let ts = world.tenants[k]
            .as_mut()
            .expect("arrival for inactive tenant");
        if ts.busy {
            if ts.queue.len() < bound {
                ts.queue.push_back(i);
            } else {
                ts.run.shed += 1;
            }
            false
        } else {
            true
        }
    };
    if start_now {
        start_request(w, m, k, i);
    }
}

fn start_request(w: &WorldRef, m: &mut Machine, k: usize, i: usize) {
    let now = m.now();
    let task = {
        let mut world = w.borrow_mut();
        let ts = world.tenant_mut(k);
        ts.busy = true;
        if ts.burst_open {
            // The burst stayed warm from the previous back-to-back
            // request: this one amortizes its FastRPC setup.
            ts.run.burst_continuations += 1;
        } else {
            ts.session.begin_burst();
            ts.burst_open = true;
        }
        ts.cur = Some(CurReq {
            index: i,
            arrival: ts.arrivals[i],
            start: now,
            pre_done: now,
            inf_done: now,
            hold: None,
        });
        let label = m.trace.label(format_args!("{}:pre", ts.label));
        TaskSpec::foreground(label, Work::Cycles(ts.pre_cycles)).with_priority(ts.priority)
    };
    let w2 = w.clone();
    m.submit_cpu(task, move |m| on_pre_done(&w2, m, k));
}

fn on_pre_done(w: &WorldRef, m: &mut Machine, k: usize) {
    let now = m.now();
    let granted = {
        let mut world = w.borrow_mut();
        let prio = world.tenant_mut(k).priority;
        match world.membw.acquire(now, k as u32, prio) {
            Acquired::Granted(h) => {
                let cur = world.tenant_mut(k).cur_mut();
                cur.pre_done = now;
                cur.hold = Some(h);
                true
            }
            Acquired::Queued(ticket) => {
                world.tenant_mut(k).cur_mut().pre_done = now;
                world.membw_queued += 1;
                world.parked.insert(ticket, k);
                false
            }
        }
    };
    if granted {
        begin_inference(w, m, k);
    }
}

fn begin_inference(w: &WorldRef, m: &mut Machine, k: usize) {
    let session = w.borrow_mut().tenant_mut(k).session.clone();
    let w2 = w.clone();
    session.invoke(m, move |m| on_inf_done(&w2, m, k));
}

fn on_inf_done(w: &WorldRef, m: &mut Machine, k: usize) {
    let now = m.now();
    let (task, resumed) = {
        let mut world = w.borrow_mut();
        #[expect(clippy::expect_used, reason = "inference only starts after a grant")]
        let hold = {
            let cur = world.tenant_mut(k).cur_mut();
            cur.inf_done = now;
            cur.hold
                .take()
                .expect("inference finished without a memory hold")
        };
        let resumed = world.membw.release(now, hold).map(|(ticket, new_hold)| {
            #[expect(
                clippy::expect_used,
                reason = "every queued ticket is parked before the next event fires"
            )]
            let owner = world
                .parked
                .remove(&ticket)
                .expect("granted ticket has no parked owner");
            world.tenant_mut(owner).cur_mut().hold = Some(new_hold);
            owner
        });
        let ts = world.tenant_mut(k);
        let label = m.trace.label(format_args!("{}:post", ts.label));
        let task =
            TaskSpec::foreground(label, Work::Cycles(ts.post_cycles)).with_priority(ts.priority);
        (task, resumed)
    };
    if let Some(owner) = resumed {
        begin_inference(w, m, owner);
    }
    let w2 = w.clone();
    m.submit_cpu(task, move |m| on_post_done(&w2, m, k));
}

fn on_post_done(w: &WorldRef, m: &mut Machine, k: usize) {
    let now = m.now();
    let next = {
        let mut world = w.borrow_mut();
        let ts = world.tenant_mut(k);
        #[expect(
            clippy::expect_used,
            reason = "post-processing only runs for the in-flight request"
        )]
        let cur = ts
            .cur
            .take()
            .expect("completion without an in-flight request");
        let breakdown = StageBreakdown {
            pre_processing: cur.pre_done.since(cur.start),
            inference: cur.inf_done.since(cur.pre_done),
            post_processing: now.since(cur.inf_done),
            ..StageBreakdown::default()
        };
        ts.run.completed.push(RequestRecord {
            index: cur.index,
            arrival_ms: cur.arrival.since(SimTime::ZERO).as_ms(),
            queue_ms: cur.start.since(cur.arrival).as_ms(),
            latency_ms: now.since(cur.arrival).as_ms(),
            breakdown,
        });
        ts.busy = false;
        let next = ts.queue.pop_front();
        if next.is_none() {
            ts.session.end_burst();
            ts.burst_open = false;
        }
        next
    };
    if let Some(i) = next {
        start_request(w, m, k, i);
    }
}

/// Zero-span guard used by tests: a request's stage spans must add up to
/// its service time.
pub fn breakdown_consistent(r: &RequestRecord) -> bool {
    let service = r.latency_ms - r.queue_ms;
    (r.breakdown.e2e().as_ms() - service).abs() < 1e-6
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
                assert!(breakdown_consistent(r), "{r:?}");
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
        let mut m = Machine::new(SocCatalog::get(cfg.soc), cfg.seed);
        let run = simulate(&cfg, None, &mut m);
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
