//! The FastRPC offload driver (paper Figure 7).
//!
//! Offloading to the loosely-coupled compute DSP requires "two trips
//! through the OS kernel with the FastRPC drivers signaling the other side
//! upon receipt/transmission" plus a cache flush "to maintain coherency"
//! (§IV-C). We reproduce the full call flow:
//!
//! ```text
//! user stub ──ioctl──▶ kernel driver ──cache flush──▶ doorbell ──▶ DSP
//!     ▲                                                            │
//!     └──ioctl return ◀── kernel driver ◀── completion signal ◀────┘
//! ```
//!
//! The first invocation of a session additionally pays the DSP
//! process-mapping setup, which is "done once, and we can perform multiple
//! inferences using the same setup" — the amortization curve of Figure 8.

use std::borrow::Cow;
use std::fmt;

use aitax_des::trace::{RpcPhase, TraceKind, TraceResource};
use aitax_des::{FaultKind, SimSpan, Symbol, TraceBuffer};

use crate::machine::{AccelKind, Machine, OnDone};
use crate::task::{TaskSpec, Work};

/// How much a memory-pressure storm multiplies the cache-maintenance
/// cost of an RPC while [`FaultKind::CacheFlushStorm`] is active.
const CACHE_STORM_MULTIPLIER: f64 = 8.0;

/// CPU-side costs of one FastRPC round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FastRpcCosts {
    /// Cycles to marshal arguments and enter the kernel (user → kernel).
    pub ioctl_entry_cycles: f64,
    /// Cycles to unmarshal results and return to user space.
    pub ioctl_return_cycles: f64,
    /// Latency of ringing the DSP doorbell and waking its dispatcher.
    pub doorbell: SimSpan,
    /// Latency of the DSP-side completion signal reaching the kernel.
    pub completion_signal: SimSpan,
    /// How long the caller waits on the DSP completion signal before
    /// declaring the invocation lost.
    pub rpc_timeout: SimSpan,
    /// How many times a failed invocation is re-issued before the error
    /// is surfaced to the caller.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt up to `backoff_cap`.
    pub backoff_base: SimSpan,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: SimSpan,
}

impl Default for FastRpcCosts {
    fn default() -> Self {
        FastRpcCosts {
            // ≈105 µs / ≈90 µs at 2.8 GHz: syscall + marshalling +
            // scatter-gather pinning.
            ioctl_entry_cycles: 295_000.0,
            ioctl_return_cycles: 250_000.0,
            doorbell: SimSpan::from_us(15.0),
            completion_signal: SimSpan::from_us(30.0),
            rpc_timeout: SimSpan::from_ms(50.0),
            max_retries: 3,
            backoff_base: SimSpan::from_ms(1.0),
            backoff_cap: SimSpan::from_ms(16.0),
        }
    }
}

/// Why a FastRPC invocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The kernel driver rejected the `ioctl` before reaching the DSP.
    IoctlError,
    /// The DSP completion signal never arrived within the timeout.
    SignalTimeout,
}

/// Result of a FastRPC invocation, delivered to the completion callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcOutcome {
    /// The call returned to user space with results.
    Ok,
    /// The call failed after exhausting its retry budget.
    Failed(RpcError),
}

impl RpcOutcome {
    /// True for [`RpcOutcome::Ok`].
    pub fn is_ok(self) -> bool {
        self == RpcOutcome::Ok
    }
}

/// Completion callback carrying the invocation outcome.
type RpcCallback = Box<dyn FnOnce(&mut Machine, RpcOutcome)>;

/// One invocation in flight through the driver's phases.
struct RpcCall {
    invoke: RpcInvoke,
    /// Retries issued so far.
    attempt: u32,
    /// Whether trace labels were on (full tracing) when the call was
    /// issued. A call issued untraced or metered never formatted its
    /// label, so it is marked: every phase it submits carries
    /// [`Symbol::UNTRACED`], also once full tracing turns on mid-call,
    /// instead of a bare `ioctl:`/`cacheflush:` prefix or an empty label.
    traced: bool,
    on_done: RpcCallback,
}

impl RpcCall {
    /// Trace label of one of the call's driver tasks: `args` formatted
    /// (a static label is interned as is) for a traced call,
    /// [`Symbol::UNTRACED`] for an untraced one.
    fn label(&self, trace: &mut TraceBuffer, args: fmt::Arguments<'_>) -> Symbol {
        match (self.traced, args.as_str()) {
            (false, _) => Symbol::UNTRACED,
            (true, Some(label)) => trace.intern(label),
            (true, None) => trace.intern(&trace.label(args)),
        }
    }
}

/// Which compute block behind the FastRPC interface executes the call.
///
/// The SD865's tensor accelerator (HTA) lives in the same cDSP subsystem
/// and is reached through the same driver stack, but executes on its own
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RpcDevice {
    /// The HVX compute DSP.
    #[default]
    Dsp,
    /// The dedicated tensor accelerator (SD865-class).
    Npu,
}

/// Fraction of the ioctl marshalling cost a burst-continuation call
/// pays: with buffers pre-pinned and the method handle cached by the
/// preceding call of the burst, the scatter-gather registration and most
/// of the argument marshalling drop out (the NNAPI
/// `ANeuralNetworksBurst` amortization).
pub(crate) const BURST_IOCTL_FACTOR: f64 = 0.25;

/// One FastRPC method invocation.
#[derive(Debug, Clone)]
pub struct RpcInvoke {
    /// Label for traces (e.g. the delegated partition name); see
    /// [`TaskSpec::name`] for when it is empty. A call issued while
    /// tracing is off never uses it (see [`Machine::set_tracing`]).
    pub label: Cow<'static, str>,
    /// Bytes shared CPU→DSP (inputs, first-call weights).
    pub in_bytes: u64,
    /// Bytes shared DSP→CPU (outputs).
    pub out_bytes: u64,
    /// Pure method execution time on the device.
    pub dsp_work: SimSpan,
    /// Which block behind the driver executes the call.
    pub device: RpcDevice,
    /// QoS priority carried through the whole offload path: the ioctl
    /// and cache-maintenance kernel tasks order by it on the CPU, and
    /// the device-side job orders by it in the accelerator wait queue.
    /// Zero reproduces the legacy path byte-for-byte.
    pub priority: i8,
    /// Burst continuation: this call re-uses the buffers and method
    /// handle of an immediately preceding call in the same burst, paying
    /// `BURST_IOCTL_FACTOR` of the ioctl marshalling cycles. The cache
    /// maintenance, doorbell and signal latencies are physical and stay.
    pub burst: bool,
}

impl Default for RpcInvoke {
    fn default() -> Self {
        RpcInvoke {
            label: Cow::Borrowed(""),
            in_bytes: 0,
            out_bytes: 0,
            dsp_work: SimSpan::ZERO,
            device: RpcDevice::Dsp,
            priority: 0,
            burst: false,
        }
    }
}

impl Machine {
    /// Performs a FastRPC invocation, firing `on_done` when the call
    /// returns to user space.
    ///
    /// The first call on a machine also performs the one-time DSP session
    /// setup (process mapping), serialized through the DSP queue.
    pub fn fastrpc_invoke(
        &mut self,
        invoke: RpcInvoke,
        on_done: impl FnOnce(&mut Machine) + 'static,
    ) {
        self.fastrpc_invoke_result(invoke, move |m, _outcome| on_done(m));
    }

    /// Like [`Machine::fastrpc_invoke`], but delivers the [`RpcOutcome`]
    /// so callers can react to failure — the hook `aitax-framework` uses
    /// to fall back to the CPU when an installed
    /// [`FaultPlan`](aitax_des::FaultPlan) breaks the accelerator path.
    ///
    /// Failed attempts are retried with exponential backoff up to
    /// `FastRpcCosts::max_retries` times before
    /// [`RpcOutcome::Failed`] is surfaced.
    pub fn fastrpc_invoke_result(
        &mut self,
        invoke: RpcInvoke,
        on_done: impl FnOnce(&mut Machine, RpcOutcome) + 'static,
    ) {
        self.stats_mut().rpc_calls += 1;
        if !self.dsp_session_mapped() {
            let setup = self.spec().dsp.session_setup;
            self.submit_dsp_raw(
                "fastrpc-session-setup",
                setup,
                Machine::set_dsp_session_mapped,
            );
        }
        let call = RpcCall {
            invoke,
            attempt: 0,
            traced: self.trace.labels_on(),
            on_done: Box::new(on_done),
        };
        self.rpc_attempt(call);
    }

    /// Submits one driver-side kernel task of a call, at the call's
    /// priority, under its already interned `label`.
    fn rpc_kernel_task(
        &mut self,
        label: Symbol,
        work: Work,
        priority: i8,
        on_done: impl FnOnce(&mut Machine) + 'static,
    ) {
        let spec = TaskSpec::kernel("", work).with_priority(priority);
        self.submit_task(spec, label, OnDone::Callback(Box::new(on_done)));
    }

    fn rpc_attempt(&mut self, call: RpcCall) {
        self.rpc_phase(RpcPhase::IoctlEntry);
        let mut cycles = self.rpc_costs.ioctl_entry_cycles;
        if call.invoke.burst {
            cycles *= BURST_IOCTL_FACTOR;
        }
        let label = call.label(&mut self.trace, format_args!("ioctl:{}", call.invoke.label));
        let prio = call.invoke.priority;
        self.rpc_kernel_task(label, Work::Cycles(cycles), prio, move |m| {
            // Decision point: the driver can reject the call right at the
            // user→kernel boundary.
            if m.fault_active(FaultKind::RpcIoctlError) {
                let d = m.degradation_mut();
                d.rpc_io_errors += 1;
                d.faults_injected += 1;
                m.rpc_fail(call, RpcError::IoctlError);
            } else {
                m.rpc_cache_flush(call);
            }
        });
    }

    fn rpc_cache_flush(&mut self, call: RpcCall) {
        self.rpc_phase(RpcPhase::CacheFlush);
        let now = self.now();
        let in_bytes = call.invoke.in_bytes;
        self.trace.record(
            now,
            TraceResource::Axi,
            TraceKind::AxiBurst { bytes: in_bytes },
        );
        self.stats_mut().axi_bytes += in_bytes;
        let mut flush = self.spec().memory.cache_flush_span(in_bytes);
        if self.fault_active(FaultKind::CacheFlushStorm) {
            flush = flush * CACHE_STORM_MULTIPLIER;
            let d = self.degradation_mut();
            d.cache_storm_flushes += 1;
            d.faults_injected += 1;
        }
        let label = call.label(
            &mut self.trace,
            format_args!("cacheflush:{}", call.invoke.label),
        );
        let prio = call.invoke.priority;
        self.rpc_kernel_task(label, Work::Span(flush), prio, move |m| {
            m.rpc_doorbell(call)
        });
    }

    fn rpc_doorbell(&mut self, call: RpcCall) {
        self.rpc_phase(RpcPhase::DoorbellRing);
        let delay = self.rpc_costs.doorbell;
        self.after(delay, move |m| m.rpc_execute(call));
    }

    fn rpc_execute(&mut self, call: RpcCall) {
        self.rpc_phase(RpcPhase::DspExecute);
        // Decision point: does the DSP-side signal path work right now?
        if self.fault_active(FaultKind::DspSignalTimeout) {
            // The doorbell rings into silence: nothing executes and the
            // caller blocks until its timeout expires.
            self.rpc_timeout_then_fail(call);
            return;
        }
        let dropped = self.fault_active(FaultKind::DspResponseDropped);
        let mem = self.spec().memory;
        let invoke = &call.invoke;
        let (kind, overhead) = match invoke.device {
            RpcDevice::Dsp => (AccelKind::Dsp, self.spec().dsp.invoke_overhead),
            #[expect(
                clippy::expect_used,
                reason = "NPU invokes are only issued on chipsets that declare an NPU"
            )]
            RpcDevice::Npu => (
                AccelKind::Npu,
                self.spec()
                    .npu
                    .expect("NPU invoke on a chipset without an NPU")
                    .invoke_overhead,
            ),
        };
        let exec = overhead
            + mem.transfer_span(invoke.in_bytes)
            + invoke.dsp_work
            + mem.transfer_span(invoke.out_bytes);
        let label = if call.traced {
            self.trace.intern(&invoke.label)
        } else {
            Symbol::UNTRACED
        };
        let prio = invoke.priority;
        if dropped {
            // The job runs (and is visible in the trace) but its
            // completion response is lost: the caller still times out.
            self.submit_accel(kind, label, exec, prio, Box::new(|_| {}));
            self.rpc_timeout_then_fail(call);
            return;
        }
        self.submit_accel(
            kind,
            label,
            exec,
            prio,
            Box::new(move |m| m.rpc_complete(call)),
        );
    }

    /// The caller's watchdog: wait out the RPC timeout, then treat the
    /// invocation as lost.
    fn rpc_timeout_then_fail(&mut self, call: RpcCall) {
        let timeout = self.rpc_costs.rpc_timeout;
        self.after(timeout, move |m| {
            let d = m.degradation_mut();
            d.rpc_timeouts += 1;
            d.faults_injected += 1;
            d.rpc_stall += timeout;
            m.rpc_fail(call, RpcError::SignalTimeout);
        });
    }

    /// Retry with exponential backoff, or surface the error once the
    /// retry budget is spent.
    fn rpc_fail(&mut self, mut call: RpcCall, err: RpcError) {
        let costs = self.rpc_costs;
        let attempt = call.attempt;
        if attempt < costs.max_retries {
            let backoff =
                (costs.backoff_base * f64::from(1u32 << attempt.min(16))).min(costs.backoff_cap);
            let d = self.degradation_mut();
            d.rpc_retries += 1;
            d.rpc_stall += backoff;
            call.attempt += 1;
            self.after(backoff, move |m| m.rpc_attempt(call));
        } else {
            self.degradation_mut().rpc_giveups += 1;
            (call.on_done)(self, RpcOutcome::Failed(err));
        }
    }

    fn rpc_complete(&mut self, call: RpcCall) {
        self.rpc_phase(RpcPhase::CompletionSignal);
        let delay = self.rpc_costs.completion_signal;
        self.after(delay, move |m| m.rpc_return(call));
    }

    fn rpc_return(&mut self, call: RpcCall) {
        self.rpc_phase(RpcPhase::IoctlReturn);
        let now = self.now();
        let out_bytes = call.invoke.out_bytes;
        self.trace.record(
            now,
            TraceResource::Axi,
            TraceKind::AxiBurst { bytes: out_bytes },
        );
        self.stats_mut().axi_bytes += out_bytes;
        // Return path: invalidate output buffer caches + unmarshal.
        let invalidate = self.spec().memory.cache_flush_span(out_bytes);
        let mut cycles = self.rpc_costs.ioctl_return_cycles;
        if call.invoke.burst {
            cycles *= BURST_IOCTL_FACTOR;
        }
        let label = call.label(
            &mut self.trace,
            format_args!("ioctl-ret:{}", call.invoke.label),
        );
        let prio = call.invoke.priority;
        self.rpc_kernel_task(label, Work::Cycles(cycles), prio, move |m| {
            let label = call.label(&mut m.trace, format_args!("cache-invalidate"));
            m.rpc_kernel_task(label, Work::Span(invalidate), prio, move |m| {
                (call.on_done)(m, RpcOutcome::Ok)
            });
        });
    }

    fn rpc_phase(&mut self, phase: RpcPhase) {
        let now = self.now();
        self.trace
            .record(now, TraceResource::Dsp, TraceKind::Rpc { phase });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_des::SimTime;
    use aitax_soc::{SocCatalog, SocId};
    use std::cell::Cell;
    use std::rc::Rc;

    fn machine() -> Machine {
        Machine::new(SocCatalog::get(SocId::Sd845), 3)
    }

    fn invoke(label: impl Into<Cow<'static, str>>, work_ms: f64) -> RpcInvoke {
        RpcInvoke {
            label: label.into(),
            in_bytes: 150_528,
            out_bytes: 4_004,
            dsp_work: SimSpan::from_ms(work_ms),
            device: RpcDevice::Dsp,
            ..Default::default()
        }
    }

    fn run_one(m: &mut Machine, inv: RpcInvoke) -> f64 {
        let done = Rc::new(Cell::new(f64::NAN));
        let d = done.clone();
        let start = m.now();
        m.fastrpc_invoke(inv, move |mm| d.set((mm.now() - start).as_ms()));
        m.run_until_idle();
        done.get()
    }

    #[test]
    fn first_call_pays_session_setup() {
        let mut m = machine();
        let first = run_one(&mut m, invoke("a", 10.0));
        let second = run_one(&mut m, invoke("b", 10.0));
        let setup = SocCatalog::get(SocId::Sd845).dsp.session_setup.as_ms();
        assert!(
            first > second + setup * 0.9,
            "first {first}ms should include ≈{setup}ms setup over second {second}ms"
        );
        assert!(m.dsp_session_mapped());
    }

    #[test]
    fn warm_call_overhead_is_sub_millisecond() {
        let mut m = machine();
        run_one(&mut m, invoke("warmup", 1.0));
        let total = run_one(&mut m, invoke("steady", 10.0));
        let overhead = total - 10.0;
        assert!(
            (0.1..1.5).contains(&overhead),
            "per-call overhead should be a fraction of a millisecond, got {overhead}ms"
        );
    }

    #[test]
    fn phases_appear_in_fig7_order() {
        let mut m = machine();
        m.set_tracing(true);
        run_one(&mut m, invoke("traced", 2.0));
        let phases: Vec<RpcPhase> = m
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Rpc { phase } => Some(phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, RpcPhase::ALL.to_vec());
    }

    #[test]
    fn concurrent_invokes_serialize_on_dsp() {
        let mut m = machine();
        run_one(&mut m, invoke("warmup", 0.1));
        let done: Rc<std::cell::RefCell<Vec<f64>>> = Rc::default();
        let start = m.now();
        for i in 0..3 {
            let d = done.clone();
            m.fastrpc_invoke(invoke(format!("c{i}"), 10.0), move |mm| {
                d.borrow_mut().push((mm.now() - start).as_ms());
            });
        }
        m.run_until_idle();
        let d = done.borrow();
        assert_eq!(d.len(), 3);
        // Each successive call waits for the previous DSP execution.
        assert!(d[1] - d[0] > 9.0, "{d:?}");
        assert!(d[2] - d[1] > 9.0, "{d:?}");
    }

    #[test]
    fn burst_continuation_amortizes_ioctl_setup() {
        let mut m = machine();
        run_one(&mut m, invoke("warmup", 1.0));
        let full = run_one(&mut m, invoke("full", 10.0));
        let burst = run_one(
            &mut m,
            RpcInvoke {
                burst: true,
                ..invoke("burst", 10.0)
            },
        );
        // The burst continuation skips (1 - BURST_IOCTL_FACTOR) of the
        // entry+return marshalling: ≈0.15 ms at 2.8 GHz.
        let saved = full - burst;
        assert!(
            (0.05..0.5).contains(&saved),
            "burst call should shave ≈0.15ms of ioctl cost, saved {saved}ms"
        );
    }

    #[test]
    fn axi_traffic_is_accounted() {
        let mut m = machine();
        run_one(&mut m, invoke("t", 1.0));
        assert_eq!(m.stats().axi_bytes, 150_528 + 4_004);
        assert_eq!(m.stats().rpc_calls, 1);
    }

    #[test]
    fn sustained_dsp_timeout_fails_after_retries() {
        use aitax_des::FaultPlan;
        let mut m = machine();
        m.install_fault_plan(
            FaultPlan::new(1).sustained(FaultKind::DspSignalTimeout, SimTime::ZERO),
        );
        let outcome = Rc::new(Cell::new(None));
        let o = outcome.clone();
        m.fastrpc_invoke_result(invoke("doomed", 5.0), move |_, out| o.set(Some(out)));
        m.run_until_idle();
        assert_eq!(
            outcome.get(),
            Some(RpcOutcome::Failed(RpcError::SignalTimeout))
        );
        let costs = FastRpcCosts::default();
        let d = m.degradation().clone();
        // One initial attempt plus max_retries re-issues, all timing out.
        assert_eq!(d.rpc_timeouts, u64::from(costs.max_retries) + 1);
        assert_eq!(d.rpc_retries, u64::from(costs.max_retries));
        assert_eq!(d.rpc_giveups, 1);
        // Stall = every timeout plus every backoff interval.
        let backoffs: SimSpan = (0..costs.max_retries)
            .map(|a| (costs.backoff_base * f64::from(1u32 << a)).min(costs.backoff_cap))
            .fold(SimSpan::ZERO, |acc, b| acc + b);
        let expected = costs.rpc_timeout * f64::from(costs.max_retries + 1) + backoffs;
        assert_eq!(d.rpc_stall, expected);
        // The logical invocation counts once despite the retries.
        assert_eq!(m.stats().rpc_calls, 1);
    }

    #[test]
    fn transient_ioctl_error_recovers_via_retry() {
        use aitax_des::FaultPlan;
        let mut m = machine();
        // The driver rejects calls only during the first 200 µs; the
        // first backoff retry lands after the window clears.
        m.install_fault_plan(FaultPlan::new(1).window(
            FaultKind::RpcIoctlError,
            SimTime::ZERO,
            SimTime::ZERO + SimSpan::from_us(200.0),
        ));
        let outcome = Rc::new(Cell::new(None));
        let o = outcome.clone();
        m.fastrpc_invoke_result(invoke("flaky", 2.0), move |_, out| o.set(Some(out)));
        m.run_until_idle();
        assert_eq!(outcome.get(), Some(RpcOutcome::Ok));
        let d = m.degradation();
        assert!(d.rpc_io_errors >= 1, "at least one rejection: {d:?}");
        assert!(d.rpc_retries >= 1);
        assert_eq!(d.rpc_giveups, 0);
    }

    #[test]
    fn dropped_response_still_occupies_dsp() {
        use aitax_des::FaultPlan;
        let mut m = machine();
        m.set_tracing(true);
        m.install_fault_plan(
            FaultPlan::new(1).sustained(FaultKind::DspResponseDropped, SimTime::ZERO),
        );
        let outcome = Rc::new(Cell::new(None));
        let o = outcome.clone();
        m.fastrpc_invoke_result(invoke("lost", 5.0), move |_, out| o.set(Some(out)));
        m.run_until_idle();
        assert_eq!(
            outcome.get(),
            Some(RpcOutcome::Failed(RpcError::SignalTimeout))
        );
        // The work itself ran on the DSP every attempt (visible busy time),
        // even though every response was lost.
        let dsp_execs = m
            .trace
            .exec_intervals()
            .iter()
            .filter(|iv| iv.resource == TraceResource::Dsp && m.trace.resolve(iv.label) == "lost")
            .count();
        assert_eq!(dsp_execs as u64, m.degradation().rpc_timeouts);
    }

    #[test]
    fn cache_storm_inflates_flush_cost() {
        use aitax_des::FaultPlan;
        let mut healthy = machine();
        run_one(&mut healthy, invoke("w", 0.1));
        let clean = run_one(&mut healthy, invoke("probe", 1.0));

        let mut stormy = machine();
        run_one(&mut stormy, invoke("w", 0.1));
        stormy.install_fault_plan(
            FaultPlan::new(1).sustained(FaultKind::CacheFlushStorm, SimTime::ZERO),
        );
        let slow = run_one(&mut stormy, invoke("probe", 1.0));
        assert!(slow > clean, "storm {slow}ms vs clean {clean}ms");
        assert!(stormy.degradation().cache_storm_flushes >= 1);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        use aitax_des::FaultPlan;
        let run = || {
            let mut m = machine();
            m.install_fault_plan(FaultPlan::new(9).window(
                FaultKind::DspSignalTimeout,
                SimTime::ZERO,
                SimTime::ZERO + SimSpan::from_ms(80.0),
            ));
            let outcome = Rc::new(Cell::new(None));
            let o = outcome.clone();
            m.fastrpc_invoke_result(invoke("det", 3.0), move |_, out| o.set(Some(out)));
            m.run_until_idle();
            (outcome.get(), m.degradation().clone(), m.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn larger_buffers_cost_more() {
        let mut m1 = machine();
        run_one(&mut m1, invoke("w", 0.1));
        let small = run_one(&mut m1, invoke("small", 5.0));
        let mut m2 = machine();
        run_one(&mut m2, invoke("w", 0.1));
        let big = run_one(
            &mut m2,
            RpcInvoke {
                label: "big".into(),
                in_bytes: 8_000_000,
                out_bytes: 1_000_000,
                dsp_work: SimSpan::from_ms(5.0),
                device: RpcDevice::Dsp,
                ..Default::default()
            },
        );
        assert!(big > small + 0.5, "big {big} vs small {small}");
    }
}
