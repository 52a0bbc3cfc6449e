//! The simulated phone: SoC + OS state + event loop.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::rc::Rc;

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{
    Calendar, FaultKind, FaultPlan, SimRng, SimSpan, SimTime, Symbol, Token, TraceBuffer,
};
use aitax_soc::{SocSpec, ThermalState};

use crate::dvfs::CoreGov;
use crate::fastrpc::FastRpcCosts;
use crate::noise::NoiseConfig;
use crate::task::{CoreMask, TaskClass, TaskId, Work};

/// A completion callback fired by the machine.
pub(crate) type Callback = Box<dyn FnOnce(&mut Machine)>;

/// Counters the machine accumulates while running.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MachineStats {
    /// Context switches charged across all cores.
    pub context_switches: u64,
    /// Task migrations between cores (idle steals + wandering).
    pub migrations: u64,
    /// Running tasks displaced mid-slice by a higher-priority arrival.
    pub preemptions: u64,
    /// CPU tasks completed.
    pub tasks_completed: u64,
    /// DSP jobs completed.
    pub dsp_jobs: u64,
    /// Total DSP busy time.
    pub dsp_busy: SimSpan,
    /// GPU jobs completed.
    pub gpu_jobs: u64,
    /// Total GPU busy time.
    pub gpu_busy: SimSpan,
    /// NPU jobs completed.
    pub npu_jobs: u64,
    /// Total NPU busy time.
    pub npu_busy: SimSpan,
    /// Bytes that crossed the AXI fabric for offloads.
    pub axi_bytes: u64,
    /// FastRPC invocations issued.
    pub rpc_calls: u64,
    /// Thermal accounting periods closed: times the temperature stepped
    /// (one step may fold several whole periods).
    pub thermal_period_closes: u64,
    /// Governor accounting periods closed, summed over cores: times a
    /// core's utilization folded (one fold may cover several periods).
    pub gov_period_closes: u64,
}

/// Counters describing how a run degraded under an installed
/// [`FaultPlan`]: every fault the machine realized, every retry and
/// fallback the stack took in response, and the simulated time those
/// responses cost. All-zero (see [`DegradationStats::is_clean`]) when no
/// plan is installed or the plan never fired.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DegradationStats {
    /// Faults realized at an injection point (any kind).
    pub faults_injected: u64,
    /// FastRPC attempts re-issued after a failure (bounded backoff).
    pub rpc_retries: u64,
    /// FastRPC attempts that timed out waiting on the DSP signal.
    pub rpc_timeouts: u64,
    /// FastRPC attempts rejected at the ioctl boundary.
    pub rpc_io_errors: u64,
    /// FastRPC invocations abandoned after exhausting retries.
    pub rpc_giveups: u64,
    /// Simulated time spent stalled in timeouts and retry backoff.
    pub rpc_stall: SimSpan,
    /// Accelerator partitions re-run on the CPU after RPC give-up.
    pub cpu_fallbacks: u64,
    /// Extra wall time the CPU fallbacks cost over the planned
    /// accelerator execution.
    pub fallback_added: SimSpan,
    /// Thermal emergencies injected.
    pub thermal_emergencies: u64,
    /// Cache flushes amplified by a memory-pressure storm.
    pub cache_storm_flushes: u64,
    /// Background task bursts injected.
    pub background_bursts: u64,
}

impl DegradationStats {
    /// True when the run saw no faults and took no degradation action.
    pub fn is_clean(&self) -> bool {
        *self == DegradationStats::default()
    }
}

pub(crate) struct Task {
    /// Object id: what traces and the context-switch check know the task
    /// by. The slot the record lives in is recycled; the id never is.
    pub id: TaskId,
    /// Trace label, interned at submission time so slice dispatch never
    /// touches the heap; [`Symbol::UNTRACED`] when submitted untraced.
    pub label: Symbol,
    pub work_kind: Work,
    /// Remaining work, in the units of `work_kind`.
    pub remaining: f64,
    pub class: TaskClass,
    pub affinity: CoreMask,
    /// QoS priority band (zero = legacy default; see
    /// [`TaskSpec::priority`](crate::TaskSpec::priority)).
    pub priority: i8,
    pub on_done: OnDone,
    /// Extra delay to pay before the next slice (migration penalty).
    pub pending_penalty: SimSpan,
}

/// What a task's completion fires.
pub(crate) enum OnDone {
    /// The submitter's own callback.
    Callback(Callback),
    /// Membership in a fork-join gang: the join's slot in
    /// [`Machine::gangs`].
    Gang(usize),
}

/// What a fork-join gang fires when its last member completes.
///
/// The join is shared rather than consumed, so a submitter that runs gang
/// after gang (a multi-threaded op chain) builds one join and hands the
/// same `Rc` to every gang: a gang costs no allocation. Any
/// `Fn(&mut Machine)` is a join.
pub trait GangJoin {
    /// Fires once per gang, after its last member completes.
    fn joined(self: Rc<Self>, m: &mut Machine);
}

impl<F: Fn(&mut Machine)> GangJoin for F {
    fn joined(self: Rc<Self>, m: &mut Machine) {
        (*self)(m);
    }
}

/// The join of a fork-join gang: members still running, and the join the
/// last of them fires.
pub(crate) struct Gang {
    pub remaining: usize,
    pub join: Rc<dyn GangJoin>,
}

/// A table whose slots are recycled through a free list, so it grows with
/// the peak number of live entries rather than with every insert.
pub(crate) struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value` in a vacant slot (the most recently freed first)
    /// and returns the slot.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = Some(value);
                slot
            }
            None => {
                self.entries.push(Some(value));
                self.entries.len() - 1
            }
        }
    }

    /// Vacates `slot` for reuse and returns what it held.
    #[expect(
        clippy::expect_used,
        reason = "a slot is removed once, by the owner that inserted it"
    )]
    pub(crate) fn remove(&mut self, slot: usize) -> T {
        let value = self.entries[slot].take().expect("removing a vacant slot");
        self.free.push(slot);
        value
    }

    /// Vacates every slot, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.free.clear();
    }

    /// Slots ever in use at once: the table's length, live or vacant.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

impl<T> std::ops::Index<usize> for Slab<T> {
    type Output = T;

    #[expect(
        clippy::expect_used,
        reason = "callers index only slots they inserted and have not removed"
    )]
    fn index(&self, slot: usize) -> &T {
        self.entries[slot].as_ref().expect("vacant slot")
    }
}

impl<T> std::ops::IndexMut<usize> for Slab<T> {
    #[expect(
        clippy::expect_used,
        reason = "callers index only slots they inserted and have not removed"
    )]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        self.entries[slot].as_mut().expect("vacant slot")
    }
}

pub(crate) struct Running {
    /// Slot of the running task in [`Machine::tasks`].
    pub task: usize,
    /// When useful work starts (after switch cost + penalties).
    pub work_start: SimTime,
    /// Work units retired per second during this slice.
    pub rate: f64,
    /// The slice was sized by the task's remaining work, not capped at
    /// the quantum: its natural end completes the task.
    pub finishes: bool,
    /// Calendar token of the pending `SliceEnd`, so a preemption can
    /// cancel it without disturbing any other scheduled event.
    pub slice_token: Token,
}

#[derive(Default)]
pub(crate) struct CoreState {
    pub running: Option<Running>,
    /// Slots of the waiting tasks in [`Machine::tasks`].
    pub runq: VecDeque<usize>,
    /// Object id (not slot) of the task that last ran here, so a task
    /// that reuses a finished task's slot still pays a context switch.
    pub last_task: Option<TaskId>,
}

impl CoreState {
    pub(crate) fn load(&self) -> usize {
        self.runq.len() + usize::from(self.running.is_some())
    }
}

/// A job for a serial FIFO accelerator (DSP or GPU).
pub(crate) struct AccelJob {
    pub label: Symbol,
    pub exec: SimSpan,
    pub on_done: Callback,
    pub trace_id: u64,
    /// QoS priority: higher values order ahead in the wait queue. The
    /// running job is never preempted — the device is non-preemptible —
    /// so priority governs grant order only. Zero (the default) keeps
    /// plain FIFO order byte-identical.
    pub priority: i8,
}

#[derive(Default)]
pub(crate) struct AccelState {
    pub queue: VecDeque<AccelJob>,
    pub running: Option<AccelJob>,
}

/// A GPU compute job.
///
/// The submitter (a GPU delegate) computes the execution span from the
/// [`GpuSpec`](aitax_soc::GpuSpec); the machine provides queueing and
/// launch-overhead semantics.
#[derive(Debug, Clone)]
pub struct GpuJob {
    /// Label for traces (see [`TaskSpec::name`](crate::TaskSpec::name)).
    pub label: Cow<'static, str>,
    /// Pure execution time on the GPU (excluding launch overhead).
    pub exec: SimSpan,
}

pub(crate) enum Ev {
    SliceEnd { core: usize },
    DspDone,
    GpuDone,
    NpuDone,
    Noise { generation: u64 },
    Timer(Callback),
}

/// A discrete-event simulated phone.
///
/// See the [crate-level docs](crate) for an overview and example.
pub struct Machine {
    pub(crate) spec: &'static SocSpec,
    pub(crate) core_specs: Vec<aitax_soc::CpuCoreSpec>,
    /// Default affinity of foreground tasks: the big cores.
    pub(crate) big_cores: CoreMask,
    /// Default affinity of every other class: all cores.
    pub(crate) all_cores: CoreMask,
    pub(crate) cal: Calendar,
    pub(crate) rng: SimRng,
    /// Structured trace buffer (disabled by default; enable for profiling).
    pub trace: TraceBuffer,
    pub(crate) cores: Vec<CoreState>,
    /// Live CPU tasks, in slots recycled as tasks complete.
    pub(crate) tasks: Slab<Task>,
    /// Joins of the live fork-join gangs.
    pub(crate) gangs: Slab<Gang>,
    /// Pending calendar payloads, indexed by [`Token::slot`]. The calendar
    /// recycles slots only after their heap entry pops, so a slot holds at
    /// most one live payload at a time and the table stays dense.
    pub(crate) events: Vec<Option<Ev>>,
    pub(crate) dsp: AccelState,
    pub(crate) dsp_session_mapped: bool,
    pub(crate) gpu: AccelState,
    pub(crate) npu: AccelState,
    pub(crate) thermal: ThermalState,
    pub(crate) governor: Vec<CoreGov>,
    pub(crate) power: PackagePower,
    pub(crate) rpc_costs: FastRpcCosts,
    /// The ambient-load generator's parameters while one runs.
    pub(crate) noise: Option<NoiseConfig>,
    /// Bumped by every start and stop of the generator; a burst of an
    /// older generation is dropped when it fires.
    pub(crate) noise_generation: u64,
    pub(crate) next_obj_id: u64,
    pub(crate) wander_probability: f64,
    pub(crate) fault_plan: Option<FaultPlan>,
    stats: MachineStats,
    degradation: DegradationStats,
}

impl Machine {
    /// Boots a machine from an SoC spec with a deterministic seed.
    ///
    /// The spec is borrowed for the life of the process (specs come from
    /// the static [`SocCatalog`](aitax_soc::SocCatalog)), so booting — and
    /// resetting — a machine never copies Table II data.
    ///
    /// # Panics
    ///
    /// Panics if the spec's power description does not have one core rail
    /// per CPU core.
    pub fn new(spec: &'static SocSpec, seed: u64) -> Self {
        let core_specs = spec.cores();
        assert_eq!(
            spec.power.core_rails.len(),
            core_specs.len(),
            "{}: power spec needs one core rail per CPU core",
            spec.name
        );
        let cores = core_specs.iter().map(|_| CoreState::default()).collect();
        let governor = (0..core_specs.len())
            .map(|core| CoreGov::new(spec, core))
            .collect();
        let thermal = ThermalState::new(spec.thermal);
        Machine {
            big_cores: CoreMask::of(&spec.big_core_ids()),
            all_cores: CoreMask::of(&(0..core_specs.len()).collect::<Vec<_>>()),
            core_specs,
            cores,
            thermal,
            governor,
            power: PackagePower::new(spec),
            cal: Calendar::new(),
            rng: SimRng::seed_from(seed),
            trace: TraceBuffer::disabled(),
            tasks: Slab::default(),
            gangs: Slab::default(),
            events: Vec::new(),
            dsp: AccelState::default(),
            dsp_session_mapped: false,
            gpu: AccelState::default(),
            npu: AccelState::default(),
            rpc_costs: FastRpcCosts::default(),
            noise: None,
            noise_generation: 0,
            next_obj_id: 1,
            wander_probability: crate::sched::DEFAULT_WANDER_PROBABILITY,
            fault_plan: None,
            stats: MachineStats::default(),
            degradation: DegradationStats::default(),
            spec,
        }
    }

    /// Resets the machine to the state [`Machine::new`]`(spec, seed)`
    /// would produce, in place — every observable field (clock, RNG
    /// stream, scheduler/accelerator queues, thermal/DVFS state, trace,
    /// counters, object numbering) matches a fresh boot, so a run on a
    /// reset machine is byte-identical to a run on a new one. What
    /// survives is invisible to the simulation: heap capacity in the
    /// calendar slab, run queues, task/event tables and trace columns,
    /// which is what makes repeated short runs allocation-free after the
    /// first.
    pub fn reset(&mut self, seed: u64) {
        self.cal.reset();
        self.rng = SimRng::seed_from(seed);
        self.trace.reset();
        for core in &mut self.cores {
            core.running = None;
            core.runq.clear();
            core.last_task = None;
        }
        self.tasks.clear();
        self.gangs.clear();
        self.events.clear();
        for accel in [&mut self.dsp, &mut self.gpu, &mut self.npu] {
            accel.queue.clear();
            accel.running = None;
        }
        self.dsp_session_mapped = false;
        self.thermal = ThermalState::new(self.spec.thermal);
        for (core, gov) in self.governor.iter_mut().enumerate() {
            *gov = CoreGov::new(self.spec, core);
        }
        self.power.total = self.power.idle;
        self.rpc_costs = FastRpcCosts::default();
        self.noise = None;
        self.noise_generation = 0;
        self.next_obj_id = 1;
        self.wander_probability = crate::sched::DEFAULT_WANDER_PROBABILITY;
        self.fault_plan = None;
        self.stats = MachineStats::default();
        self.degradation = DegradationStats::default();
    }

    /// Overrides the per-slice probability that wandering-class tasks
    /// (NNAPI fallback threads) migrate between cores. Zero pins them —
    /// the ablation knob for quantifying how much of the Fig. 5/6
    /// slowdown comes from migrations versus the reference kernels.
    pub fn set_wander_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.wander_probability = p;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.cal.now()
    }

    /// The SoC this machine models.
    pub fn spec(&self) -> &'static SocSpec {
        self.spec
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut MachineStats {
        &mut self.stats
    }

    /// Degradation counters accumulated under the installed fault plan.
    pub fn degradation(&self) -> &DegradationStats {
        &self.degradation
    }

    /// Mutable access for the layers above the kernel (framework
    /// fallback accounting happens outside this crate).
    pub fn degradation_mut(&mut self) -> &mut DegradationStats {
        &mut self.degradation
    }

    /// Installs a fault plan. Point-in-time faults (thermal emergencies,
    /// background bursts) are realized as timers at their window starts;
    /// window faults (RPC errors, DSP timeouts, cache storms) are pure
    /// queries evaluated at the affected subsystem's decision points, so
    /// an empty plan leaves the event sequence byte-identical to no plan
    /// at all.
    ///
    /// Burst sizes come from a dedicated stream seeded by the plan — not
    /// the machine's RNG — so installing a plan never perturbs workload
    /// randomness.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let mut fault_rng = SimRng::seed_from(plan.seed() ^ 0x5fa1_7b1a_57ed_c0de);
        let now = self.now();
        for w in plan.windows() {
            if w.start == SimTime::MAX {
                continue;
            }
            let delay = if w.start > now {
                w.start - now
            } else {
                SimSpan::ZERO
            };
            match w.kind {
                FaultKind::ThermalEmergency => {
                    self.after(delay, Machine::inject_thermal_emergency);
                }
                FaultKind::BackgroundBurst => {
                    let count = fault_rng.uniform_u64(3, 8) as usize;
                    let cycles: Vec<f64> = (0..count)
                        .map(|_| fault_rng.uniform(20.0e6, 120.0e6))
                        .collect();
                    self.after(delay, move |m| m.inject_background_burst(&cycles));
                }
                _ => {}
            }
        }
        self.fault_plan = Some(plan);
    }

    /// Whether `kind` is active at the current instant under the
    /// installed plan (always false with no plan).
    pub(crate) fn fault_active(&self, kind: FaultKind) -> bool {
        self.fault_plan
            .as_ref()
            .is_some_and(|p| p.active(kind, self.cal.now()))
    }

    /// Realizes a thermal emergency: the skin sensor jumps past the hard
    /// limit and the throttle curve clamps frequency until the chip
    /// cools back down.
    pub(crate) fn inject_thermal_emergency(&mut self) {
        self.touch_thermal();
        let now = self.cal.now();
        let emergency_c = self.spec.thermal.hard_limit_c + 7.0;
        self.thermal.force_temp(now, emergency_c);
        self.degradation.thermal_emergencies += 1;
        self.degradation.faults_injected += 1;
    }

    fn inject_background_burst(&mut self, cycles: &[f64]) {
        use crate::task::TaskSpec;
        for (i, &c) in cycles.iter().enumerate() {
            let label = self.trace.label(format_args!("fault-burst-{i}"));
            let spec = TaskSpec::background(label, Work::Cycles(c));
            self.submit_cpu(spec, |_| {});
        }
        self.degradation.background_bursts += 1;
        self.degradation.faults_injected += 1;
    }

    /// Current chip temperature in °C.
    pub fn temp_c(&self) -> f64 {
        self.thermal.temp_c()
    }

    /// Overrides the starting chip temperature (the paper cools devices
    /// to ≈33 °C before measuring, §III-D; use this to study what
    /// happens when a benchmark skips that step).
    pub fn set_initial_temp(&mut self, temp_c: f64) {
        self.thermal = aitax_soc::ThermalState::with_temp(self.spec.thermal, temp_c);
    }

    /// Enables or disables structured tracing. Disabling drops recorded
    /// events; interned labels stay valid either way.
    ///
    /// Labels exist only for work submitted after tracing turns on: work
    /// submitted while it was off carries [`Symbol::UNTRACED`] and shows
    /// up as `"<untraced>"` in a trace that starts while it is queued or
    /// running. A FastRPC call issued while tracing was off is marked
    /// untraced as a whole, so the driver tasks and DSP job it submits
    /// after the switch show up as `"<untraced>"` too.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// The machine's random stream (for drivers layered on top).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Whether the DSP process mapping has been established
    /// (the Fig. 8 one-time setup).
    pub fn dsp_session_mapped(&self) -> bool {
        self.dsp_session_mapped
    }

    /// Number of jobs waiting on (or running on) the DSP.
    #[cfg(test)]
    fn dsp_depth(&self) -> usize {
        self.dsp.queue.len() + usize::from(self.dsp.running.is_some())
    }

    pub(crate) fn fresh_obj_id(&mut self) -> u64 {
        let id = self.next_obj_id;
        self.next_obj_id += 1;
        id
    }

    // ---------------------------------------------------------------- time

    /// Registers the payload for a freshly scheduled calendar token.
    pub(crate) fn set_event(&mut self, token: Token, ev: Ev) {
        let slot = token.slot() as usize;
        if self.events.len() <= slot {
            self.events.resize_with(slot + 1, || None);
        }
        self.events[slot] = Some(ev);
    }

    pub(crate) fn take_event(&mut self, token: Token) -> Option<Ev> {
        self.events
            .get_mut(token.slot() as usize)
            .and_then(Option::take)
    }

    /// Runs one event. Returns `false` when the calendar is empty.
    pub fn step(&mut self) -> bool {
        match self.cal.next() {
            None => false,
            Some((_, token)) => {
                if let Some(ev) = self.take_event(token) {
                    self.dispatch(ev);
                }
                true
            }
        }
    }

    /// Runs until no events remain.
    ///
    /// Note: with a noise generator or a free-running camera active the
    /// machine never idles; drive it with [`Machine::step`] and stop on a
    /// condition of your own instead.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs all events up to and including `t`, then advances the clock
    /// to exactly `t`.
    #[cfg(test)]
    pub(crate) fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.cal.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        if self.cal.now() < t {
            self.cal.advance_to(t);
        }
    }

    /// Schedules `cb` to run after `delay`.
    pub fn after(&mut self, delay: SimSpan, cb: impl FnOnce(&mut Machine) + 'static) -> Token {
        let token = self.cal.schedule_after(delay);
        self.set_event(token, Ev::Timer(Box::new(cb)));
        token
    }

    /// Cancels a timer scheduled with [`Machine::after`].
    pub fn cancel_timer(&mut self, token: Token) -> bool {
        if self.cal.cancel(token) {
            self.take_event(token);
            true
        } else {
            false
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::SliceEnd { core } => self.on_slice_end(core),
            Ev::DspDone => self.on_accel_done(AccelKind::Dsp),
            Ev::GpuDone => self.on_accel_done(AccelKind::Gpu),
            Ev::NpuDone => self.on_accel_done(AccelKind::Npu),
            Ev::Noise { generation } => self.on_noise_burst(generation),
            Ev::Timer(cb) => cb(self),
        }
    }

    // ------------------------------------------------- thermal and power

    /// Accrues heat up to now at the package power drawn since the last
    /// touch. Call *before* changing busy state so the elapsed stretch is
    /// priced at the state it actually ran in. O(1): the package total is
    /// kept by the busy flips, and the temperature steps only when an
    /// accounting period has closed.
    #[inline]
    pub(crate) fn touch_thermal(&mut self) {
        let now = self.cal.now();
        if self.thermal.accrue(now, self.power.total) {
            self.stats.thermal_period_closes += 1;
        }
    }

    /// Moves core `core` between its idle floor and its active draw at
    /// the current clock in the package total: to busy, or back to idle.
    #[inline]
    pub(crate) fn flip_core_power(&mut self, core: usize, busy: bool) {
        let idle = self.power.core_idle[core];
        self.power.flip(idle, self.governor[core].active_nw, busy);
    }

    /// Current frequency multiplier (thermal throttling).
    #[cfg(test)]
    pub(crate) fn freq_multiplier(&self) -> f64 {
        self.thermal.freq_multiplier()
    }

    // -------------------------------------------------------- accelerators

    /// Submits a job to the compute DSP queue (serial FIFO — the paper's
    /// "only one DSP available" multi-tenancy bottleneck, Fig. 9).
    pub fn submit_dsp_raw(
        &mut self,
        label: impl AsRef<str>,
        exec: SimSpan,
        on_done: impl FnOnce(&mut Machine) + 'static,
    ) {
        self.submit_dsp_prio(label, exec, 0, on_done);
    }

    /// Like [`Machine::submit_dsp_raw`], but with a QoS priority: the job
    /// is inserted ahead of every strictly-lower-priority waiter (FIFO
    /// within a band). Priority zero is exactly `submit_dsp_raw`.
    pub fn submit_dsp_prio(
        &mut self,
        label: impl AsRef<str>,
        exec: SimSpan,
        priority: i8,
        on_done: impl FnOnce(&mut Machine) + 'static,
    ) {
        let label = self.trace.intern(label.as_ref());
        self.submit_accel(AccelKind::Dsp, label, exec, priority, Box::new(on_done));
    }

    /// Queues a job, labelled `label`, on an accelerator under a fresh
    /// object id, starting it if the block is idle.
    pub(crate) fn submit_accel(
        &mut self,
        kind: AccelKind,
        label: Symbol,
        exec: SimSpan,
        priority: i8,
        on_done: Callback,
    ) {
        let trace_id = self.fresh_obj_id();
        let job = AccelJob {
            label,
            exec,
            on_done,
            trace_id,
            priority,
        };
        Self::accel_enqueue(self.accel_mut(kind), job);
        self.maybe_start_accel(kind);
    }

    fn accel_mut(&mut self, kind: AccelKind) -> &mut AccelState {
        match kind {
            AccelKind::Dsp => &mut self.dsp,
            AccelKind::Gpu => &mut self.gpu,
            AccelKind::Npu => &mut self.npu,
        }
    }

    /// Priority-ordered insertion into an accelerator wait queue: ahead
    /// of the first strictly-lower-priority waiter, FIFO within a band.
    /// A zero-priority job on an all-zero queue lands at the back — the
    /// legacy FIFO byte-for-byte.
    fn accel_enqueue(state: &mut AccelState, job: AccelJob) {
        if job.priority != 0 {
            if let Some(pos) = state.queue.iter().position(|q| q.priority < job.priority) {
                state.queue.insert(pos, job);
                return;
            }
        }
        state.queue.push_back(job);
    }

    /// Marks the DSP process mapping as established.
    pub(crate) fn set_dsp_session_mapped(&mut self) {
        self.dsp_session_mapped = true;
    }

    /// Submits a job to the GPU queue, charging the launch overhead.
    pub fn submit_gpu(&mut self, job: GpuJob, on_done: impl FnOnce(&mut Machine) + 'static) {
        let exec = self.spec.gpu.launch_overhead + job.exec;
        let label = self.trace.intern(&job.label);
        self.submit_accel(AccelKind::Gpu, label, exec, 0, Box::new(on_done));
    }

    fn accel_resource(kind: AccelKind) -> TraceResource {
        match kind {
            AccelKind::Dsp => TraceResource::Dsp,
            AccelKind::Gpu => TraceResource::Gpu,
            AccelKind::Npu => TraceResource::Npu,
        }
    }

    fn maybe_start_accel(&mut self, kind: AccelKind) {
        let state = self.accel_mut(kind);
        if state.running.is_some() {
            return;
        }
        if state.queue.is_empty() {
            return;
        }
        // The accelerator flips to busy: integrate heat up to this instant
        // at the old power level first.
        self.touch_thermal();
        let state = self.accel_mut(kind);
        let Some(job) = state.queue.pop_front() else {
            return;
        };
        let exec = job.exec;
        let trace_id = job.trace_id;
        let label = job.label;
        state.running = Some(job);
        self.power.accel_flip(kind, true);
        let token = self.cal.schedule_after(exec);
        self.set_event(
            token,
            match kind {
                AccelKind::Dsp => Ev::DspDone,
                AccelKind::Gpu => Ev::GpuDone,
                AccelKind::Npu => Ev::NpuDone,
            },
        );
        let now = self.cal.now();
        self.trace.record(
            now,
            Self::accel_resource(kind),
            TraceKind::ExecStart {
                task: trace_id,
                label,
            },
        );
    }

    fn on_accel_done(&mut self, kind: AccelKind) {
        // Price the elapsed busy stretch before the block goes idle.
        self.touch_thermal();
        let state = self.accel_mut(kind);
        #[expect(
            clippy::expect_used,
            reason = "accelerator completion events are only scheduled while a job is running"
        )]
        let job = state
            .running
            .take()
            .expect("accelerator completion without a running job");
        self.power.accel_flip(kind, false);
        let now = self.cal.now();
        self.trace.record(
            now,
            Self::accel_resource(kind),
            TraceKind::ExecEnd { task: job.trace_id },
        );
        match kind {
            AccelKind::Dsp => {
                self.stats.dsp_jobs += 1;
                self.stats.dsp_busy += job.exec;
            }
            AccelKind::Gpu => {
                self.stats.gpu_jobs += 1;
                self.stats.gpu_busy += job.exec;
            }
            AccelKind::Npu => {
                self.stats.npu_jobs += 1;
                self.stats.npu_busy += job.exec;
            }
        }
        (job.on_done)(self);
        self.maybe_start_accel(kind);
    }
}

/// Watts rounded to whole nanowatts (power is never negative).
#[inline]
pub(crate) fn nanowatts(w: f64) -> u64 {
    (w * 1e9 + 0.5) as u64
}

/// Package power in whole nanowatts, kept as a running total.
///
/// Each rail's draw is rounded to the nanowatt once, when it is priced:
/// idle floors and accelerator draws at boot, a core's active draw when
/// the governor sets its clock ([`CoreGov::active_nw`]). The total then
/// moves by integer adds at each core busy/idle flip and accelerator
/// start/end, so it always equals the sum of the rounded rails exactly,
/// and reading it never walks the rails.
pub(crate) struct PackagePower {
    /// Idle floor of each core rail.
    core_idle: Vec<u64>,
    /// `[idle, busy]` draw of each accelerator rail, by [`AccelKind`].
    accel: [[u64; 2]; 3],
    /// The package with every rail idle: the total at boot.
    idle: u64,
    /// The package now.
    pub total: u64,
}

impl PackagePower {
    fn new(spec: &SocSpec) -> Self {
        let p = &spec.power;
        let core_idle: Vec<u64> = p
            .core_rails
            .iter()
            .map(|rail| nanowatts(rail.idle_power_w()))
            .collect();
        let rail = |idle_w: f64, busy_w: f64| [nanowatts(idle_w), nanowatts(busy_w)];
        let accel = [
            rail(p.dsp.idle_power_w(), p.dsp.busy_w),
            rail(p.gpu.idle_power_w(), p.gpu.busy_w),
            p.npu
                .as_ref()
                .map_or([0, 0], |npu| rail(npu.idle_power_w(), npu.busy_w)),
        ];
        let idle = nanowatts(p.interconnect.uncore_w)
            + core_idle.iter().sum::<u64>()
            + accel.iter().map(|[idle, _]| idle).sum::<u64>();
        PackagePower {
            core_idle,
            accel,
            idle,
            total: idle,
        }
    }

    /// Accelerator `kind` starts (`busy`) or finishes a job.
    #[inline]
    fn accel_flip(&mut self, kind: AccelKind, busy: bool) {
        let [idle, active] = self.accel[kind as usize];
        self.flip(idle, active, busy);
    }

    /// A rail moves between its `idle` and `active` draws. Adds before
    /// it subtracts, so the total never passes below zero.
    #[inline]
    fn flip(&mut self, idle: u64, active: u64, busy: bool) {
        self.total = if busy {
            self.total + active - idle
        } else {
            self.total + idle - active
        };
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccelKind {
    Dsp,
    Gpu,
    Npu,
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use aitax_soc::{SocCatalog, SocId};
    use std::cell::Cell;
    use std::rc::Rc;

    fn machine() -> Machine {
        Machine::new(SocCatalog::get(SocId::Sd845), 7)
    }

    #[test]
    fn timers_fire_in_order() {
        let mut m = machine();
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        for (i, ms) in [30.0, 10.0, 20.0].iter().enumerate() {
            let log = log.clone();
            m.after(SimSpan::from_ms(*ms), move |_| log.borrow_mut().push(i));
        }
        m.run_until_idle();
        assert_eq!(*log.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut m = machine();
        let hit = Rc::new(Cell::new(false));
        let h = hit.clone();
        let tok = m.after(SimSpan::from_ms(1.0), move |_| h.set(true));
        assert!(m.cancel_timer(tok));
        m.run_until_idle();
        assert!(!hit.get());
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut m = machine();
        m.after(SimSpan::from_ms(5.0), |_| {});
        m.run_until(SimTime::ZERO + SimSpan::from_ms(2.0));
        assert_eq!(m.now().as_ms(), 2.0);
        m.run_until_idle();
        assert_eq!(m.now().as_ms(), 5.0);
    }

    #[test]
    fn dsp_jobs_serialize_fifo() {
        let mut m = machine();
        let done: Rc<std::cell::RefCell<Vec<(u32, f64)>>> = Rc::default();
        for i in 0..3u32 {
            let done = done.clone();
            m.submit_dsp_raw(format!("job{i}"), SimSpan::from_ms(10.0), move |mm| {
                done.borrow_mut().push((i, mm.now().as_ms()));
            });
        }
        assert_eq!(m.dsp_depth(), 3);
        m.run_until_idle();
        let d = done.borrow();
        assert_eq!(d.len(), 3);
        // Serial FIFO: completions at 10, 20, 30 ms.
        assert_eq!(d[0], (0, 10.0));
        assert_eq!(d[1], (1, 20.0));
        assert_eq!(d[2], (2, 30.0));
        assert_eq!(m.stats().dsp_jobs, 3);
    }

    #[test]
    fn gpu_charges_launch_overhead() {
        let mut m = machine();
        let t = Rc::new(Cell::new(0.0));
        let tc = t.clone();
        m.submit_gpu(
            GpuJob {
                label: "kernel".into(),
                exec: SimSpan::from_ms(2.0),
            },
            move |mm| tc.set(mm.now().as_ms()),
        );
        m.run_until_idle();
        let overhead = SocCatalog::get(SocId::Sd845).gpu.launch_overhead.as_ms();
        assert!((t.get() - (2.0 + overhead)).abs() < 1e-9);
    }

    #[test]
    fn npu_queue_works_on_sd865() {
        let mut m = Machine::new(SocCatalog::get(SocId::Sd865), 5);
        let done = Rc::new(Cell::new(0.0));
        let d = done.clone();
        let exec = SimSpan::from_ms(3.0);
        let on_done = Box::new(move |mm: &mut Machine| d.set(mm.now().as_ms()));
        m.submit_accel(AccelKind::Npu, Symbol::UNTRACED, exec, 0, on_done);
        m.run_until_idle();
        assert_eq!(done.get(), 3.0);
        assert_eq!(m.stats().npu_jobs, 1);
    }

    #[test]
    fn npu_and_dsp_run_concurrently() {
        // Unlike two DSP jobs, a DSP job and an NPU job overlap.
        let mut m = Machine::new(SocCatalog::get(SocId::Sd865), 5);
        m.submit_dsp_raw("dsp", SimSpan::from_ms(10.0), |_| {});
        let exec = SimSpan::from_ms(10.0);
        m.submit_accel(AccelKind::Npu, Symbol::UNTRACED, exec, 0, Box::new(|_| {}));
        m.run_until_idle();
        assert_eq!(m.now().as_ms(), 10.0, "parallel blocks overlap");
    }

    #[test]
    fn accel_trace_records_intervals() {
        let mut m = machine();
        m.set_tracing(true);
        m.submit_dsp_raw("traced", SimSpan::from_ms(1.0), |_| {});
        m.run_until_idle();
        let ivs = m.trace.exec_intervals();
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].resource, TraceResource::Dsp);
        assert_eq!(m.trace.resolve(ivs[0].label), "traced");
    }
}
