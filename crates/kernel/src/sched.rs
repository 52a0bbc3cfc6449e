//! The CPU scheduler: placement, time slices, preemption, migration.
//!
//! A deliberately CFS-flavoured model: per-core run queues with weighted
//! round-robin slices, context-switch costs, idle stealing with a
//! cache-warmup migration penalty, and the "wandering" behaviour of NNAPI
//! CPU-fallback threads that Figure 6 of the paper captures (annotation 4:
//! "frequent CPU migrations ... and the core utilization pattern").

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{SimSpan, Symbol};

use crate::machine::{Ev, Gang, Machine, OnDone, Running, Task};
use crate::task::{CoreMask, TaskClass, TaskId, TaskSpec};

/// Base scheduling quantum; actual slices scale with task weight.
pub(crate) const BASE_QUANTUM: SimSpan = SimSpan::from_ns(4_000_000);

/// Direct cost of a context switch (register save/restore, runqueue work).
pub(crate) const CONTEXT_SWITCH_COST: SimSpan = SimSpan::from_ns(8_000);

/// Default probability that a wandering-class task is rebalanced to
/// another core at a slice boundary.
pub(crate) const DEFAULT_WANDER_PROBABILITY: f64 = 0.35;

/// Remaining-work threshold below which a task is complete.
const WORK_EPSILON: f64 = 1e-6;

/// Smallest schedulable slice. Guarantees forward progress: without it, a
/// residue of work smaller than half a nanosecond at the current rate
/// would round to a zero-length slice and loop forever at one timestamp.
const MIN_SLICE: SimSpan = SimSpan::from_ns(1);

impl Machine {
    /// Submits one CPU task; `on_done` fires when it completes.
    ///
    /// Foreground tasks default to big-core affinity; other classes may run
    /// anywhere. Returns the task's object id, which its trace records
    /// carry.
    pub fn submit_cpu(
        &mut self,
        spec: TaskSpec,
        on_done: impl FnOnce(&mut Machine) + 'static,
    ) -> TaskId {
        let label = self.trace.intern(&spec.name);
        self.submit_task(spec, label, OnDone::Callback(Box::new(on_done)))
    }

    /// Submits a gang of CPU tasks; `on_all_done` fires when the last one
    /// completes (fork-join, as a multi-threaded TFLite op does).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn submit_cpu_parallel(
        &mut self,
        specs: Vec<TaskSpec>,
        on_all_done: impl FnOnce(&mut Machine) + 'static,
    ) -> Vec<TaskId> {
        assert!(
            !specs.is_empty(),
            "parallel submission needs at least one task"
        );
        let gang = self.gangs.insert(Gang {
            remaining: specs.len(),
            on_done: Box::new(on_all_done),
        });
        specs
            .into_iter()
            .map(|spec| {
                let label = self.trace.intern(&spec.name);
                self.submit_task(spec, label, OnDone::Gang(gang))
            })
            .collect()
    }

    /// Records a task under a fresh object id in a recycled slot, labelled
    /// `label`, and queues it on the least-loaded eligible core.
    pub(crate) fn submit_task(&mut self, spec: TaskSpec, label: Symbol, on_done: OnDone) -> TaskId {
        let affinity = spec
            .affinity
            .unwrap_or_else(|| self.default_affinity(spec.class));
        let id = TaskId(self.fresh_obj_id());
        let slot = self.tasks.insert(Task {
            id,
            label,
            work_kind: spec.work,
            remaining: spec.work.amount().max(0.0),
            class: spec.class,
            affinity,
            priority: spec.priority,
            on_done,
            pending_penalty: SimSpan::ZERO,
        });
        let core = self.place(affinity);
        self.enqueue(core, slot);
        id
    }

    /// Fires a completed task's callback, or counts a gang member in and
    /// fires the join once the last member is done.
    fn complete(&mut self, on_done: OnDone) {
        match on_done {
            OnDone::Callback(cb) => cb(self),
            OnDone::Gang(gang) => {
                let join = &mut self.gangs[gang];
                join.remaining -= 1;
                if join.remaining == 0 {
                    let join = self.gangs.remove(gang);
                    (join.on_done)(self);
                }
            }
        }
    }

    /// Total runnable + running CPU tasks.
    pub fn cpu_load(&self) -> usize {
        self.cores.iter().map(|c| c.load()).sum()
    }

    fn default_affinity(&self, class: TaskClass) -> CoreMask {
        match class {
            TaskClass::Foreground => self.big_cores,
            _ => self.all_cores,
        }
    }

    /// Least-loaded eligible core, lowest index on ties.
    #[expect(
        clippy::expect_used,
        reason = "spawn validates affinity masks against the core count"
    )]
    fn place(&self, affinity: CoreMask) -> usize {
        let mut best = None;
        let mut best_load = usize::MAX;
        for (i, core) in self.cores.iter().enumerate() {
            if !affinity.allows(i) {
                continue;
            }
            let load = core.load();
            if load < best_load {
                best_load = load;
                best = Some(i);
            }
        }
        best.expect("affinity mask excludes every core on this SoC")
    }

    /// Inserts the task in `slot` into a core's run queue honoring QoS
    /// priority: ahead of the first strictly-lower-priority waiter, FIFO
    /// within a band. A zero-priority task on an all-zero queue lands at
    /// the back — the legacy order byte-for-byte.
    fn runq_insert(&mut self, core: usize, slot: usize) {
        let prio = self.tasks[slot].priority;
        if prio != 0 {
            let pos = self.cores[core]
                .runq
                .iter()
                .position(|&q| self.tasks[q].priority < prio);
            if let Some(pos) = pos {
                self.cores[core].runq.insert(pos, slot);
                return;
            }
        }
        self.cores[core].runq.push_back(slot);
    }

    fn enqueue(&mut self, core: usize, slot: usize) {
        // Kernel/driver work (ioctl handling, cache maintenance) jumps the
        // queue, as softirq-style work does on a real kernel — this keeps
        // offload round trips responsive even under CPU contention.
        // Within the driver path a QoS priority orders the queue-jumpers
        // among themselves.
        let task = &self.tasks[slot];
        let prio = task.priority;
        if task.class == TaskClass::KernelWork {
            self.cores[core].runq.push_front(slot);
        } else {
            self.runq_insert(core, slot);
        }
        match &self.cores[core].running {
            None => self.dispatch_next(core),
            // A strictly-higher-priority arrival displaces the running
            // task mid-slice; equal priority waits out the slice.
            Some(running) if prio > self.tasks[running.task].priority => {
                self.preempt_running(core);
                self.dispatch_next(core);
            }
            Some(_) => {}
        }
    }

    /// Displaces the running task: cancels its pending slice end, banks
    /// the work it retired so far, and requeues it by its own priority.
    /// The caller dispatches next.
    fn preempt_running(&mut self, core: usize) {
        // Price the truncated busy slice exactly as a natural slice end
        // would, so thermal/DVFS accounting cannot tell the difference.
        self.touch_thermal();
        self.gov_observe(core, false);
        #[expect(
            clippy::expect_used,
            reason = "preemption is only triggered while a task is running"
        )]
        let running = self.cores[core]
            .running
            .take()
            .expect("preempting an idle core");
        let cancelled = self.cal.cancel(running.slice_token);
        debug_assert!(cancelled, "running task must have a live slice end");
        self.take_event(running.slice_token);
        let now = self.cal.now();
        let slot = running.task;
        let task = &mut self.tasks[slot];
        // The preemption may land inside the switch-cost/penalty window,
        // before useful work resumed.
        if now > running.work_start {
            task.remaining -= now.since(running.work_start).as_secs() * running.rate;
        }
        let id = task.id;
        self.trace.record(
            now,
            TraceResource::CpuCore(core as u8),
            TraceKind::ExecEnd { task: id.0 },
        );
        self.stats_mut().preemptions += 1;
        self.runq_insert(core, slot);
    }

    pub(crate) fn dispatch_next(&mut self, core: usize) {
        debug_assert!(self.cores[core].running.is_none());
        let Some(slot) = self.cores[core].runq.pop_front() else {
            return;
        };
        let now = self.cal.now();
        self.touch_thermal();
        let (id, class) = {
            let task = &self.tasks[slot];
            (task.id, task.class)
        };
        // The core flips busy: fold the elapsed idle stretch into its
        // utilization estimate, then let the governor pick the clock this
        // slice will run (and be energy-priced) at.
        self.gov_observe(core, true);
        self.gov_retarget(core, class);
        let speed = self.cpu_speed(core);

        // Costs before useful work resumes. The check compares object ids:
        // a task that took over a finished task's slot is still a switch.
        let mut overhead = SimSpan::ZERO;
        let switching = self.cores[core].last_task != Some(id);
        if switching {
            overhead += CONTEXT_SWITCH_COST;
            self.stats_mut().context_switches += 1;
            self.trace.record(
                now,
                TraceResource::CpuCore(core as u8),
                TraceKind::ContextSwitch,
            );
        }

        let (rate, slice, label, penalty) = {
            let task = &mut self.tasks[slot];
            let penalty = std::mem::replace(&mut task.pending_penalty, SimSpan::ZERO);
            let spec = &self.core_specs[core];
            // Small per-slice rate jitter: DVFS settling, cache state,
            // memory interference — the residual variability even quiet
            // benchmarks exhibit (Fig. 11's tight-but-nonzero spread).
            let rate = task.work_kind.rate_on(spec) * speed * self.rng.jitter(0.01);
            let quantum = BASE_QUANTUM * task.class.weight();
            let run_secs = (task.remaining / rate).max(0.0);
            let slice = SimSpan::from_secs(run_secs).min(quantum).max(MIN_SLICE);
            (rate, slice, task.label, penalty)
        };
        overhead += penalty;

        let work_start = now + overhead;
        let token = self.cal.schedule_at(work_start + slice);
        self.set_event(token, Ev::SliceEnd { core });
        self.cores[core].running = Some(Running {
            task: slot,
            work_start,
            rate,
            slice_token: token,
        });
        self.cores[core].last_task = Some(id);
        self.trace.record(
            now,
            TraceResource::CpuCore(core as u8),
            TraceKind::ExecStart { task: id.0, label },
        );
    }

    pub(crate) fn on_slice_end(&mut self, core: usize) {
        // Price the elapsed busy slice (heat + utilization) before the
        // core's state flips to idle.
        self.touch_thermal();
        self.gov_observe(core, false);
        #[expect(
            clippy::expect_used,
            reason = "slice-end events are cancelled when their core goes idle"
        )]
        let running = self.cores[core]
            .running
            .take()
            .expect("slice end on an idle core");
        let now = self.cal.now();
        let slot = running.task;
        let task = &mut self.tasks[slot];
        task.remaining -= now.since(running.work_start).as_secs() * running.rate;
        let (id, finished, wanders) = (
            task.id,
            task.remaining <= WORK_EPSILON,
            task.class.wanders(),
        );
        self.trace.record(
            now,
            TraceResource::CpuCore(core as u8),
            TraceKind::ExecEnd { task: id.0 },
        );

        if finished {
            // Free the slot before the callback runs, so work it submits
            // can take it over.
            let task = self.tasks.remove(slot);
            self.stats_mut().tasks_completed += 1;
            self.complete(task.on_done);
            if self.cores[core].running.is_none() {
                self.dispatch_next(core);
            }
            self.steal_if_idle(core);
            return;
        }

        // Not finished: wander, yield to waiting work, or keep running.
        if wanders && self.try_wander(core, slot) {
            if self.cores[core].running.is_none() {
                self.dispatch_next(core);
            }
            return;
        }
        self.runq_insert(core, slot);
        self.dispatch_next(core);
    }

    /// Rebalances a wandering task to a random other eligible core.
    fn try_wander(&mut self, from: usize, slot: usize) -> bool {
        let p = self.wander_probability;
        if p <= 0.0 || !self.rng.chance(p) {
            return false;
        }
        let affinity = self.tasks[slot].affinity;
        let n = self.cores.len();
        let eligible = |c: usize| c != from && affinity.allows(c);
        let count = (0..n).filter(|&c| eligible(c)).count();
        if count == 0 {
            return false;
        }
        // Same draw `SimRng::pick` would make on the materialized candidate
        // list (uniform index, then select), without building the list —
        // the RNG stream, and therefore the event sequence, is unchanged.
        let k = self.rng.uniform_u64(0, count as u64) as usize;
        #[expect(
            clippy::expect_used,
            reason = "k < count over the same predicate by construction"
        )]
        let to = (0..n)
            .filter(|&c| eligible(c))
            .nth(k)
            .expect("k-th eligible core exists");
        self.migrate(slot, from, to);
        true
    }

    fn migrate(&mut self, slot: usize, from: usize, to: usize) {
        let task = &mut self.tasks[slot];
        task.pending_penalty += self.core_specs[to].migration_penalty;
        let id = task.id;
        self.stats_mut().migrations += 1;
        let now = self.cal.now();
        self.trace.record(
            now,
            TraceResource::CpuCore(to as u8),
            TraceKind::Migration {
                task: id.0,
                from: from as u8,
                to: to as u8,
            },
        );
        self.runq_insert(to, slot);
        if self.cores[to].running.is_none() {
            self.dispatch_next(to);
        }
    }

    /// When `core` idles, pull a waiting task from the most loaded core.
    fn steal_if_idle(&mut self, core: usize) {
        if self.cores[core].running.is_some() || !self.cores[core].runq.is_empty() {
            return;
        }
        let mut victim: Option<(usize, usize)> = None; // (core, queue pos)
        let mut victim_qlen = 0usize;
        for (vc, state) in self.cores.iter().enumerate() {
            if vc == core || state.runq.len() <= victim_qlen {
                continue;
            }
            // Steal the first queued task whose affinity allows this core.
            if let Some(pos) = state
                .runq
                .iter()
                .position(|&slot| self.tasks[slot].affinity.allows(core))
            {
                victim = Some((vc, pos));
                victim_qlen = state.runq.len();
            }
        }
        if let Some((vc, pos)) = victim {
            #[expect(
                clippy::expect_used,
                reason = "the victim position was computed from the same runq this event"
            )]
            let slot = self.cores[vc]
                .runq
                .remove(pos)
                .expect("victim position valid");
            self.migrate(slot, vc, core);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Work;
    use aitax_soc::{SocCatalog, SocId};
    use std::cell::Cell;
    use std::rc::Rc;

    fn machine() -> Machine {
        Machine::new(SocCatalog::get(SocId::Sd845), 11)
    }

    /// SD845 big core peak fp32 rate.
    const BIG_FLOPS: f64 = 2.8e9 * 8.0;

    #[test]
    fn single_task_latency_matches_rate() {
        let mut m = machine();
        let done = Rc::new(Cell::new(0.0));
        let d = done.clone();
        // 22.4 GFLOP/s → 224 MFLOP in 10 ms.
        m.submit_cpu(
            TaskSpec::foreground("t", Work::Fp32Flops(BIG_FLOPS * 0.01)),
            move |mm| d.set(mm.now().as_ms()),
        );
        m.run_until_idle();
        // One context switch plus slice rounding.
        assert!((done.get() - 10.0).abs() < 0.1, "latency {}", done.get());
    }

    #[test]
    fn four_tasks_fill_four_big_cores() {
        let mut m = machine();
        let done = Rc::new(Cell::new(0usize));
        for i in 0..4 {
            let d = done.clone();
            m.submit_cpu(
                TaskSpec::foreground(format!("t{i}"), Work::Fp32Flops(BIG_FLOPS * 0.01)),
                move |_| d.set(d.get() + 1),
            );
        }
        m.run_until_idle();
        assert_eq!(done.get(), 4);
        // Perfectly parallel: total ≈ 10 ms, not 40 ms.
        assert!(m.now().as_ms() < 11.0, "end {}", m.now());
    }

    #[test]
    fn oversubscription_time_slices_fairly() {
        let mut m = machine();
        // 8 foreground tasks on 4 big cores → ~2× the solo time each.
        let times: Rc<std::cell::RefCell<Vec<f64>>> = Rc::default();
        for i in 0..8 {
            let t = times.clone();
            m.submit_cpu(
                TaskSpec::foreground(format!("t{i}"), Work::Fp32Flops(BIG_FLOPS * 0.02)),
                move |mm| t.borrow_mut().push(mm.now().as_ms()),
            );
        }
        m.run_until_idle();
        let times = times.borrow();
        let last = times.iter().cloned().fold(0.0, f64::max);
        assert!(
            (38.0..46.0).contains(&last),
            "8×20ms of work on 4 cores should finish near 40ms, got {last}"
        );
        // Fairness: all completions within ~1 quantum of each other.
        let first = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(last - first < 12.0, "spread {}", last - first);
        assert!(m.stats().context_switches > 8);
    }

    #[test]
    fn parallel_gang_joins_once() {
        let mut m = machine();
        let joined = Rc::new(Cell::new(0));
        let j = joined.clone();
        let specs = (0..4)
            .map(|i| TaskSpec::foreground(format!("g{i}"), Work::Fp32Flops(1e6)))
            .collect();
        m.submit_cpu_parallel(specs, move |_| j.set(j.get() + 1));
        m.run_until_idle();
        assert_eq!(joined.get(), 1);
    }

    /// Submits the successor of a finishing task from its completion
    /// callback, pinned to the core it ran on.
    fn successor(m: &mut Machine) {
        m.submit_cpu(
            TaskSpec::foreground("b", Work::Fp32Flops(1e6)).with_affinity(CoreMask::of(&[0])),
            |_| {},
        );
    }

    #[test]
    fn reused_slot_is_a_new_task_to_the_scheduler() {
        let mut m = machine();
        m.set_tracing(true);
        let a = m.submit_cpu(
            TaskSpec::foreground("a", Work::Fp32Flops(1e6)).with_affinity(CoreMask::of(&[0])),
            successor,
        );
        m.run_until_idle();
        // "b" took over the slot "a" freed, on the core "a" ran on.
        assert_eq!(m.tasks.len(), 1, "the successor reuses the freed slot");
        assert_eq!(m.stats().tasks_completed, 2);
        assert_eq!(
            m.stats().context_switches,
            2,
            "a task in a reused slot must still be charged a context switch"
        );
        let mut ids: Vec<u64> = m
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::ExecStart { task, .. } | TraceKind::ExecEnd { task } => Some(task),
                _ => None,
            })
            .collect();
        ids.dedup();
        assert_eq!(ids.len(), 2, "one id per task: {ids:?}");
        assert_eq!(ids[0], a.raw());
        assert!(ids[1] > a.raw(), "the successor's records carry a new id");
    }

    /// Submits a 4-wide gang whose join submits the next one, until
    /// `GANGS_LEFT` runs out.
    fn gang_chain(m: &mut Machine) {
        thread_local! {
            static GANGS_LEFT: Cell<u32> = const { Cell::new(1_000) };
        }
        if GANGS_LEFT.with(|n| n.replace(n.get().saturating_sub(1))) == 0 {
            return;
        }
        let specs = vec![TaskSpec::foreground("gang", Work::Fp32Flops(1e6)); 4];
        m.submit_cpu_parallel(specs, gang_chain);
    }

    #[test]
    fn task_table_is_sized_to_live_tasks() {
        let mut m = machine();
        gang_chain(&mut m);
        let mut peak_live = m.cpu_load();
        while m.step() {
            peak_live = peak_live.max(m.cpu_load());
        }
        assert_eq!(m.stats().tasks_completed, 4_000);
        assert_eq!(peak_live, 4, "one gang of four is alive at a time");
        assert!(
            m.tasks.len() <= peak_live,
            "{} task slots for at most {peak_live} live tasks",
            m.tasks.len()
        );
        assert_eq!(m.gangs.len(), 1, "one join slot serves every gang");
    }

    #[test]
    fn background_tasks_may_use_little_cores() {
        let mut m = machine();
        m.set_tracing(true);
        for i in 0..8 {
            m.submit_cpu(
                TaskSpec::background(format!("bg{i}"), Work::Cycles(1e6)),
                |_| {},
            );
        }
        m.run_until_idle();
        let used: std::collections::BTreeSet<_> = m
            .trace
            .exec_intervals()
            .iter()
            .map(|iv| iv.resource)
            .collect();
        assert!(used.len() >= 8, "8 tasks spread over all 8 cores: {used:?}");
    }

    #[test]
    fn foreground_sticks_to_big_cores() {
        let mut m = machine();
        m.set_tracing(true);
        for i in 0..4 {
            m.submit_cpu(
                TaskSpec::foreground(format!("fg{i}"), Work::Fp32Flops(1e8)),
                |_| {},
            );
        }
        m.run_until_idle();
        for iv in m.trace.exec_intervals() {
            if let aitax_des::trace::TraceResource::CpuCore(c) = iv.resource {
                assert!(c < 4, "foreground task ran on little core {c}");
            }
        }
    }

    #[test]
    fn wandering_tasks_migrate() {
        let mut m = machine();
        // A long NNAPI-fallback task with plenty of slice boundaries.
        m.submit_cpu(
            TaskSpec::nnapi_fallback("fallback", Work::Fp32Flops(BIG_FLOPS * 0.5)),
            |_| {},
        );
        m.run_until_idle();
        assert!(
            m.stats().migrations > 3,
            "wandering task should migrate, saw {}",
            m.stats().migrations
        );
    }

    #[test]
    fn migrations_slow_the_wanderer_down() {
        // Same work as foreground vs NNAPI-fallback class.
        let work = Work::Fp32Flops(BIG_FLOPS * 0.1);
        let mut fg = machine();
        fg.submit_cpu(TaskSpec::foreground("fg", work), |_| {});
        fg.run_until_idle();
        let fg_time = fg.now();

        let mut nn = machine();
        nn.submit_cpu(TaskSpec::nnapi_fallback("nn", work), |_| {});
        nn.run_until_idle();
        let nn_time = nn.now();
        assert!(
            nn_time > fg_time,
            "fallback ({nn_time}) should be slower than pinned foreground ({fg_time})"
        );
    }

    #[test]
    fn idle_steal_balances_queues() {
        let mut m = machine();
        // Pin 3 tasks to core 0; other cores should steal.
        for i in 0..3 {
            m.submit_cpu(
                TaskSpec::foreground(format!("p{i}"), Work::Fp32Flops(BIG_FLOPS * 0.01))
                    .with_affinity(CoreMask::of(&[0, 1])),
                |_| {},
            );
        }
        m.run_until_idle();
        // With stealing, 3×10ms over 2 cores ≲ 21ms; without, 30ms.
        assert!(m.now().as_ms() < 25.0, "end {}", m.now());
        assert!(m.stats().migrations >= 1);
    }

    #[test]
    fn high_priority_arrival_preempts_running_task() {
        let mut m = machine();
        let order: Rc<std::cell::RefCell<Vec<&'static str>>> = Rc::default();
        let mask = CoreMask::of(&[0]);
        let o = order.clone();
        m.submit_cpu(
            TaskSpec::foreground("lo", Work::Fp32Flops(BIG_FLOPS * 0.02)).with_affinity(mask),
            move |_| o.borrow_mut().push("lo"),
        );
        let o = order.clone();
        // Arrives while "lo" occupies the only eligible core.
        m.submit_cpu(
            TaskSpec::foreground("hi", Work::Fp32Flops(BIG_FLOPS * 0.005))
                .with_affinity(mask)
                .with_priority(2),
            move |_| o.borrow_mut().push("hi"),
        );
        m.run_until_idle();
        assert_eq!(*order.borrow(), vec!["hi", "lo"]);
        assert!(m.stats().preemptions >= 1, "{:?}", m.stats());
    }

    #[test]
    fn equal_priority_waits_out_the_slice() {
        let mut m = machine();
        let mask = CoreMask::of(&[0]);
        m.submit_cpu(
            TaskSpec::foreground("a", Work::Fp32Flops(BIG_FLOPS * 0.02)).with_affinity(mask),
            |_| {},
        );
        m.submit_cpu(
            TaskSpec::foreground("b", Work::Fp32Flops(BIG_FLOPS * 0.02)).with_affinity(mask),
            |_| {},
        );
        m.run_until_idle();
        assert_eq!(m.stats().preemptions, 0);
    }

    #[test]
    fn priority_orders_waiters_within_one_runq() {
        let mut m = machine();
        let order: Rc<std::cell::RefCell<Vec<u32>>> = Rc::default();
        let mask = CoreMask::of(&[0]);
        // Occupy the core, then queue prio 0, 1, 2 behind it: the queue
        // must drain 2, 1, 0 regardless of arrival order.
        m.submit_cpu(
            TaskSpec::foreground("busy", Work::Fp32Flops(BIG_FLOPS * 0.001)).with_affinity(mask),
            |_| {},
        );
        for prio in [0i8, 1, 2] {
            let o = order.clone();
            m.submit_cpu(
                TaskSpec::background(format!("p{prio}"), Work::Cycles(1e5))
                    .with_affinity(mask)
                    .with_priority(prio),
                move |_| o.borrow_mut().push(prio as u32),
            );
        }
        m.run_until_idle();
        assert_eq!(*order.borrow(), vec![2, 1, 0]);
    }

    #[test]
    fn accel_queue_grants_by_priority() {
        use aitax_des::SimSpan;
        let mut m = machine();
        let order: Rc<std::cell::RefCell<Vec<&'static str>>> = Rc::default();
        let o = order.clone();
        // First job starts immediately; the rest queue and must drain in
        // priority order (FIFO within a band), never preempting a runner.
        m.submit_dsp_prio("first", SimSpan::from_us(100.0), 0, move |_| {
            o.borrow_mut().push("first")
        });
        let o = order.clone();
        m.submit_dsp_prio("lo", SimSpan::from_us(10.0), 0, move |_| {
            o.borrow_mut().push("lo")
        });
        let o = order.clone();
        m.submit_dsp_prio("hi", SimSpan::from_us(10.0), 2, move |_| {
            o.borrow_mut().push("hi")
        });
        let o = order.clone();
        m.submit_dsp_prio("mid", SimSpan::from_us(10.0), 1, move |_| {
            o.borrow_mut().push("mid")
        });
        m.run_until_idle();
        assert_eq!(*order.borrow(), vec!["first", "hi", "mid", "lo"]);
    }

    #[test]
    fn work_conservation_no_lost_tasks() {
        let mut m = machine();
        let count = Rc::new(Cell::new(0));
        for i in 0..50 {
            let c = count.clone();
            let spec = match i % 3 {
                0 => TaskSpec::foreground(format!("t{i}"), Work::Fp32Flops(1e7)),
                1 => TaskSpec::background(format!("t{i}"), Work::Cycles(1e6)),
                _ => TaskSpec::nnapi_fallback(format!("t{i}"), Work::Int8Ops(1e7)),
            };
            m.submit_cpu(spec, move |_| c.set(c.get() + 1));
        }
        m.run_until_idle();
        assert_eq!(count.get(), 50);
        assert_eq!(m.stats().tasks_completed, 50);
        assert_eq!(m.cpu_load(), 0);
    }
}
