//! Structured trace vocabulary and the columnar trace store.
//!
//! The simulated kernel and frameworks emit these events while running;
//! `aitax-profiler` consumes them to build Snapdragon-Profiler-style views
//! (per-core utilization strips, context-switch counts, CDSP activity, AXI
//! traffic — Figure 6 of the paper), and `aitax-power` prices them.
//!
//! A [`TraceBuffer`] records in one of three [`TraceMode`]s, keeping the
//! probe effect of the *simulator itself* no larger than its caller needs,
//! in the spirit of the paper's §III-D probe-effect discussion:
//!
//! - **Off** drops events with a single branch, and work submitted while
//!   it is off neither formats nor interns a label ([`TraceBuffer::label`],
//!   [`TraceBuffer::intern`]).
//! - **Meter** keeps only the four kinds the energy meter reads —
//!   `ExecStart`, `ExecEnd`, `Dvfs` and `AxiBurst` — and formats and
//!   interns no label, like off. A run that wants energy but no trace
//!   records this.
//! - **Full** records every event. The probe effect is one append per
//!   event: labels are interned [`Symbol`]s, so recording never touches
//!   the heap once the event storage is warm (see [`TraceBuffer::intern`]
//!   and [`TraceBuffer::reserve_events`]).
//!
//! # Columnar storage
//!
//! Events are stored struct-of-arrays: one dense column each for the
//! timestamp, resource code, kind tag, and two payload words, rather than a
//! `Vec` of [`TraceEvent`] structs. Columns pack to 23 bytes per event
//! (versus 32 for the array-of-structs layout) and keep each field
//! sequentially prefetchable for the O(n) scans the profiler and interval
//! extractor run. [`TraceEvent`] survives as the *view* type: recording
//! takes its fields apart, iteration reassembles them, and nothing outside
//! this module sees the encoding.

use std::borrow::Cow;
use std::fmt;

use crate::symbol::{Symbol, SymbolTable};
use crate::time::SimTime;

/// A hardware execution resource appearing in traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceResource {
    /// A CPU core, by index.
    CpuCore(u8),
    /// The compute DSP (Hexagon-class).
    Dsp,
    /// The GPU.
    Gpu,
    /// The dedicated NPU block, when present.
    Npu,
    /// The AXI interconnect.
    Axi,
}

impl fmt::Display for TraceResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceResource::CpuCore(i) => write!(f, "cpu{i}"),
            TraceResource::Dsp => write!(f, "cdsp"),
            TraceResource::Gpu => write!(f, "gpu"),
            TraceResource::Npu => write!(f, "npu"),
            TraceResource::Axi => write!(f, "axi"),
        }
    }
}

/// Dense slot for a resource in per-resource scratch tables: CPU cores map
/// to their own index, accelerators and the interconnect to fixed slots
/// past the 8-bit core space. Doubles as the trace column encoding.
#[inline]
fn res_slot(r: TraceResource) -> usize {
    match r {
        TraceResource::CpuCore(i) => i as usize,
        TraceResource::Dsp => 256,
        TraceResource::Gpu => 257,
        TraceResource::Npu => 258,
        TraceResource::Axi => 259,
    }
}

/// Inverse of [`res_slot`] for decoding the resource column.
fn res_unslot(code: u16) -> TraceResource {
    match code {
        0..=255 => TraceResource::CpuCore(code as u8),
        256 => TraceResource::Dsp,
        257 => TraceResource::Gpu,
        258 => TraceResource::Npu,
        259 => TraceResource::Axi,
        #[expect(
            clippy::panic,
            reason = "only res_slot writes this column; other codes are memory corruption"
        )]
        _ => panic!("corrupt trace resource code {code}"),
    }
}

/// Phases of a FastRPC offload round trip (Figure 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcPhase {
    /// User-space stub marshals arguments and enters the kernel (ioctl).
    IoctlEntry,
    /// Kernel driver flushes CPU caches for shared buffers.
    CacheFlush,
    /// Kernel signals the DSP (doorbell).
    DoorbellRing,
    /// Method executes on the DSP.
    DspExecute,
    /// DSP signals completion back to the kernel.
    CompletionSignal,
    /// Kernel returns to user space.
    IoctlReturn,
}

impl RpcPhase {
    /// All phases in call order.
    pub const ALL: [RpcPhase; 6] = [
        RpcPhase::IoctlEntry,
        RpcPhase::CacheFlush,
        RpcPhase::DoorbellRing,
        RpcPhase::DspExecute,
        RpcPhase::CompletionSignal,
        RpcPhase::IoctlReturn,
    ];
}

impl fmt::Display for RpcPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RpcPhase::IoctlEntry => "ioctl-entry",
            RpcPhase::CacheFlush => "cache-flush",
            RpcPhase::DoorbellRing => "doorbell",
            RpcPhase::DspExecute => "dsp-execute",
            RpcPhase::CompletionSignal => "completion-signal",
            RpcPhase::IoctlReturn => "ioctl-return",
        };
        f.write_str(s)
    }
}

/// What happened.
///
/// Label-carrying variants hold interned [`Symbol`]s minted by the
/// [`TraceBuffer`] that records them; resolve via [`TraceBuffer::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A task began executing on a resource.
    ExecStart {
        /// Simulator-wide task id.
        task: u64,
        /// Interned task label.
        label: Symbol,
    },
    /// The task currently on the resource stopped executing (completed or
    /// was preempted).
    ExecEnd {
        /// Simulator-wide task id.
        task: u64,
    },
    /// The scheduler switched tasks on a core.
    ContextSwitch,
    /// A task moved between cores.
    Migration {
        /// Simulator-wide task id.
        task: u64,
        /// Core the task left.
        from: u8,
        /// Core the task landed on.
        to: u8,
    },
    /// An interrupt was serviced.
    Irq {
        /// Interned interrupt source label.
        source: Symbol,
    },
    /// A FastRPC phase boundary.
    Rpc {
        /// Which phase began at this instant.
        phase: RpcPhase,
    },
    /// A burst of traffic on the interconnect.
    AxiBurst {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// The DVFS governor retargeted a core's clock.
    ///
    /// Emitted on the core's own resource; the frequency holds until the
    /// next `Dvfs` event for the same core. Energy accounting assumes the
    /// clock only changes at these boundaries.
    Dvfs {
        /// Core whose clock changed.
        core: u8,
        /// New frequency in Hz.
        freq_hz: u64,
    },
    /// Free-form marker (pipeline stage boundaries etc.).
    Marker {
        /// Interned marker label.
        label: Symbol,
    },
}

/// Kind tags of the two events interval extraction reads straight from
/// the columns.
const TAG_EXEC_START: u8 = 0;
const TAG_EXEC_END: u8 = 1;

/// Column encoding of a [`TraceKind`]: a 1-byte tag plus a wide (`u64`)
/// and a narrow (`u32`) payload word. Unused payloads encode as zero.
#[inline]
fn encode_kind(kind: TraceKind) -> (u8, u64, u32) {
    match kind {
        TraceKind::ExecStart { task, label } => (TAG_EXEC_START, task, label.index()),
        TraceKind::ExecEnd { task } => (TAG_EXEC_END, task, 0),
        TraceKind::ContextSwitch => (2, 0, 0),
        TraceKind::Migration { task, from, to } => {
            (3, task, (u32::from(from) << 8) | u32::from(to))
        }
        TraceKind::Irq { source } => (4, 0, source.index()),
        TraceKind::Rpc { phase } => {
            #[expect(clippy::expect_used, reason = "ALL is exhaustive by definition")]
            let idx = RpcPhase::ALL
                .iter()
                .position(|&p| p == phase)
                .expect("RpcPhase missing from ALL") as u32;
            (5, 0, idx)
        }
        TraceKind::AxiBurst { bytes } => (6, bytes, 0),
        TraceKind::Dvfs { core, freq_hz } => (7, freq_hz, u32::from(core)),
        TraceKind::Marker { label } => (8, 0, label.index()),
    }
}

/// Inverse of [`encode_kind`].
fn decode_kind(tag: u8, pa: u64, pb: u32) -> TraceKind {
    match tag {
        TAG_EXEC_START => TraceKind::ExecStart {
            task: pa,
            label: Symbol::from_index(pb),
        },
        TAG_EXEC_END => TraceKind::ExecEnd { task: pa },
        2 => TraceKind::ContextSwitch,
        3 => TraceKind::Migration {
            task: pa,
            from: (pb >> 8) as u8,
            to: pb as u8,
        },
        4 => TraceKind::Irq {
            source: Symbol::from_index(pb),
        },
        5 => TraceKind::Rpc {
            phase: RpcPhase::ALL[pb as usize],
        },
        6 => TraceKind::AxiBurst { bytes: pa },
        7 => TraceKind::Dvfs {
            core: pb as u8,
            freq_hz: pa,
        },
        8 => TraceKind::Marker {
            label: Symbol::from_index(pb),
        },
        #[expect(
            clippy::panic,
            reason = "only encode_kind writes this column; other tags are memory corruption"
        )]
        _ => panic!("corrupt trace kind tag {tag}"),
    }
}

/// A single trace record — the *view* type assembled from the columnar
/// store on iteration (events are not stored as this struct).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Where it happened.
    pub resource: TraceResource,
    /// What happened.
    pub kind: TraceKind,
}

/// What a [`TraceBuffer`] records (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Nothing, and no label is formatted or interned.
    #[default]
    Off,
    /// Only the events the energy meter reads (`ExecStart`, `ExecEnd`,
    /// `Dvfs`, `AxiBurst`), and no label: exec starts carry
    /// [`Symbol::UNTRACED`].
    Meter,
    /// Every event, with interned labels.
    Full,
}

/// Whether a meter-mode buffer keeps `kind`.
#[inline]
fn metered(kind: &TraceKind) -> bool {
    matches!(
        kind,
        TraceKind::ExecStart { .. }
            | TraceKind::ExecEnd { .. }
            | TraceKind::Dvfs { .. }
            | TraceKind::AxiBurst { .. }
    )
}

/// A columnar buffer of trace events plus the symbol table their labels
/// are interned into.
///
/// # Example
///
/// ```
/// use aitax_des::trace::{TraceBuffer, TraceKind, TraceResource};
/// use aitax_des::SimTime;
///
/// let mut buf = TraceBuffer::enabled();
/// buf.record(SimTime::from_ns(10), TraceResource::Dsp, TraceKind::ContextSwitch);
/// let label = buf.intern("inference");
/// buf.record(
///     SimTime::from_ns(20),
///     TraceResource::Dsp,
///     TraceKind::ExecStart { task: 1, label },
/// );
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.resolve(label), "inference");
/// ```
#[derive(Default)]
pub struct TraceBuffer {
    mode: TraceMode,
    times: Vec<u64>,
    res: Vec<u16>,
    tags: Vec<u8>,
    pa: Vec<u64>,
    pb: Vec<u32>,
    symbols: SymbolTable,
}

impl TraceBuffer {
    /// Creates a buffer that drops all events (zero probe effect).
    pub fn disabled() -> Self {
        TraceBuffer::default()
    }

    /// Creates an unbounded buffer that records every event.
    pub fn enabled() -> Self {
        TraceBuffer::with_mode(TraceMode::Full)
    }

    /// Creates an empty buffer recording in `mode`.
    pub fn with_mode(mode: TraceMode) -> Self {
        TraceBuffer {
            mode,
            ..TraceBuffer::default()
        }
    }

    /// Whether any events are being recorded (meter or full mode).
    pub fn is_enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// Whether labels are formatted and interned (full mode only).
    #[inline]
    pub fn labels_on(&self) -> bool {
        self.mode == TraceMode::Full
    }

    /// Switches the recording mode in place.
    ///
    /// Turning recording off drops any recorded events; the symbol table
    /// (and thus every previously minted [`Symbol`]) survives, so labels
    /// interned before the switch stay valid when full tracing resumes.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
        if mode == TraceMode::Off {
            self.clear();
        }
    }

    /// Turns full recording on or off in place (see
    /// [`TraceBuffer::set_mode`]).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.set_mode(if enabled {
            TraceMode::Full
        } else {
            TraceMode::Off
        });
    }

    /// Interns `label` while labels are on, returning a [`Symbol`] valid
    /// for this buffer; otherwise returns [`Symbol::UNTRACED`] without
    /// touching the table, so untraced and metered runs never pay for
    /// labels.
    ///
    /// Callers intern once at submission time and record cheap symbols
    /// thereafter.
    #[inline]
    pub fn intern(&mut self, label: &str) -> Symbol {
        if self.labels_on() {
            self.symbols.intern(label)
        } else {
            Symbol::UNTRACED
        }
    }

    /// Formats a dynamic work label while labels are on; otherwise yields
    /// an empty label without formatting or allocating. Paired with
    /// [`TraceBuffer::intern`], untraced and metered runs never build a
    /// label string nobody reads.
    #[inline]
    pub fn label(&self, args: fmt::Arguments<'_>) -> Cow<'static, str> {
        if self.labels_on() {
            Cow::Owned(fmt::format(args))
        } else {
            Cow::Borrowed("")
        }
    }

    /// The string a symbol minted by this buffer stands for.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.symbols.resolve(sym)
    }

    /// The buffer's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Pre-sizes event storage so steady-state recording never
    /// reallocates.
    pub fn reserve_events(&mut self, additional: usize) {
        self.times.reserve(additional);
        self.res.reserve(additional);
        self.tags.reserve(additional);
        self.pa.reserve(additional);
        self.pb.reserve(additional);
    }

    /// Records one event: every event in full mode, the metered kinds
    /// in meter mode, none when off.
    #[inline]
    pub fn record(&mut self, time: SimTime, resource: TraceResource, kind: TraceKind) {
        let keep = match self.mode {
            TraceMode::Off => false,
            TraceMode::Meter => metered(&kind),
            TraceMode::Full => true,
        };
        if !keep {
            return;
        }
        let (tag, pa, pb) = encode_kind(kind);
        self.times.push(time.as_ns());
        self.res.push(res_slot(resource) as u16);
        self.tags.push(tag);
        self.pa.push(pa);
        self.pb.push(pb);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Reassembles event `i` (0 = oldest) from the columns.
    fn get(&self, i: usize) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_ns(self.times[i]),
            resource: res_unslot(self.res[i]),
            kind: decode_kind(self.tags[i], self.pa[i], self.pb[i]),
        }
    }

    /// Iterates recorded events oldest → newest.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            buf: self,
            next: 0,
            len: self.len(),
        }
    }

    /// The most recently recorded event, if any.
    pub fn last(&self) -> Option<TraceEvent> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Drops all recorded events, keeping the mode, symbol table, and
    /// column capacity (so a reused buffer records its next
    /// run allocation-free).
    pub fn clear(&mut self) {
        self.times.clear();
        self.res.clear();
        self.tags.clear();
        self.pa.clear();
        self.pb.clear();
    }

    /// Resets the buffer to the [`TraceBuffer::disabled`] starting state
    /// — recording off, no events, symbol table emptied —
    /// while retaining the event columns' and symbol vector's heap
    /// capacity. A machine reusing this buffer starts its next run
    /// exactly where a fresh one would (symbol numbering restarts at 0,
    /// so reused-run trace bytes match fresh-run bytes) without paying
    /// the allocations again.
    pub fn reset(&mut self) {
        self.clear();
        self.mode = TraceMode::Off;
        self.symbols.clear();
    }

    /// Extracts closed execution intervals per resource.
    ///
    /// Pairs each `ExecStart` with the next `ExecEnd` for the same task on
    /// the same resource. Unclosed intervals (still running at trace end)
    /// are dropped, as are `ExecEnd`s with no matching open start.
    pub fn exec_intervals(&self) -> Vec<ExecInterval> {
        self.scan(|_, _| {})
    }

    /// [`TraceBuffer::exec_intervals`], visiting every other event in the
    /// same pass: `visit` gets each non-exec event's time and kind, oldest
    /// first. The energy meter reads a trace this way, in one pass over
    /// the columns.
    pub fn scan(&self, visit: impl FnMut(SimTime, TraceKind)) -> Vec<ExecInterval> {
        let (out, _open) = self.collect_intervals(visit);
        sort_intervals(out)
    }

    /// Like [`TraceBuffer::exec_intervals`], but treats tasks still
    /// running at `end` as busy up to `end` instead of dropping them —
    /// the accounting a profiler window needs (an `ExecStart` with no
    /// `ExecEnd` is real utilization, not noise).
    ///
    /// Open intervals that start after `end` are clamped to zero length
    /// at their own start.
    pub fn exec_intervals_until(&self, end: SimTime) -> Vec<ExecInterval> {
        let (mut out, open) = self.collect_intervals(|_, _| {});
        for per_resource in open {
            for (resource, task, start, label) in per_resource {
                out.push(ExecInterval {
                    resource,
                    task,
                    label,
                    start,
                    end: end.max(start),
                });
            }
        }
        sort_intervals(out)
    }

    /// Single O(n) pass pairing starts with ends via per-resource open
    /// lists. Reads the exec events straight from the columns and decodes
    /// every other one for `visit`. Returns the closed intervals in
    /// `ExecEnd` encounter order plus whatever remained open, grouped by
    /// resource slot.
    #[expect(
        clippy::type_complexity,
        reason = "private helper; both callers destructure the pair immediately"
    )]
    fn collect_intervals(
        &self,
        mut visit: impl FnMut(SimTime, TraceKind),
    ) -> (
        Vec<ExecInterval>,
        Vec<Vec<(TraceResource, u64, SimTime, Symbol)>>,
    ) {
        let mut open: Vec<Vec<(TraceResource, u64, SimTime, Symbol)>> = Vec::new();
        let mut out = Vec::new();
        for p in 0..self.len() {
            let slot = usize::from(self.res[p]);
            let task = self.pa[p];
            match self.tags[p] {
                TAG_EXEC_START => {
                    if open.len() <= slot {
                        open.resize_with(slot + 1, Vec::new);
                    }
                    let start = SimTime::from_ns(self.times[p]);
                    let label = Symbol::from_index(self.pb[p]);
                    open[slot].push((res_unslot(self.res[p]), task, start, label));
                }
                TAG_EXEC_END => {
                    if let Some(per_resource) = open.get_mut(slot) {
                        if let Some(pos) = per_resource.iter().rposition(|&(_, t, _, _)| t == task)
                        {
                            let (resource, task, start, label) = per_resource.swap_remove(pos);
                            out.push(ExecInterval {
                                resource,
                                task,
                                label,
                                start,
                                end: SimTime::from_ns(self.times[p]),
                            });
                        }
                    }
                }
                tag => visit(
                    SimTime::from_ns(self.times[p]),
                    decode_kind(tag, task, self.pb[p]),
                ),
            }
        }
        (out, open)
    }
}

/// Renders an off or full buffer as the two-state `enabled` flag did, so
/// report fingerprints of traced and untraced runs keep their bytes.
impl fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("TraceBuffer");
        match self.mode {
            TraceMode::Meter => d.field("mode", &self.mode),
            mode => d.field("enabled", &(mode == TraceMode::Full)),
        };
        d.field("times", &self.times)
            .field("res", &self.res)
            .field("tags", &self.tags)
            .field("pa", &self.pa)
            .field("pb", &self.pb)
            .field("symbols", &self.symbols)
            .finish()
    }
}

impl<'a> IntoIterator for &'a TraceBuffer {
    type Item = TraceEvent;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`TraceBuffer`]'s recorded events, oldest → newest.
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    buf: &'a TraceBuffer,
    next: usize,
    len: usize,
}

impl Iterator for TraceIter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.next == self.len {
            return None;
        }
        let ev = self.buf.get(self.next);
        self.next += 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

/// The public interval ordering: by start time, resources breaking
/// ties, and same-(start, resource) intervals in emission order.
///
/// Sorts `(start, resource slot, index)` keys packed into one `u128`
/// each: the index makes every key distinct, so an unstable sort of the
/// keys yields exactly the stable order, and [`res_slot`] orders
/// resources as [`TraceResource`]'s `Ord` does.
fn sort_intervals(out: Vec<ExecInterval>) -> Vec<ExecInterval> {
    // 2^48 intervals would need 8 PiB, so an index always fits.
    const INDEX_BITS: u32 = 48;
    debug_assert!(out.len() < 1 << INDEX_BITS);
    let mut keys: Vec<u128> = out
        .iter()
        .enumerate()
        .map(|(i, iv)| {
            (u128::from(iv.start.as_ns()) << 64)
                | ((res_slot(iv.resource) as u128) << INDEX_BITS)
                | i as u128
        })
        .collect();
    keys.sort_unstable();
    let index_mask = (1u128 << INDEX_BITS) - 1;
    keys.iter()
        .map(|&k| out[(k & index_mask) as usize])
        .collect()
}

/// A closed execution interval extracted from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecInterval {
    /// Resource the task ran on.
    pub resource: TraceResource,
    /// Simulator-wide task id.
    pub task: u64,
    /// Interned task label captured at start (resolve against the buffer
    /// that produced this interval).
    pub label: Symbol,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSpan;

    fn start(buf: &mut TraceBuffer, task: u64, label: &str) -> TraceKind {
        TraceKind::ExecStart {
            task,
            label: buf.intern(label),
        }
    }

    #[test]
    fn interval_sort_matches_the_stable_sort() {
        // Few distinct starts and resources, so most keys tie and only
        // emission order (the task id here) tells them apart.
        let mut rng = crate::SimRng::seed_from(5);
        let resources = [
            TraceResource::Axi,
            TraceResource::CpuCore(7),
            TraceResource::Dsp,
            TraceResource::CpuCore(0),
            TraceResource::Npu,
            TraceResource::Gpu,
        ];
        let intervals: Vec<ExecInterval> = (0..2_000)
            .map(|task| {
                let start = SimTime::from_ns(rng.uniform_u64(0, 8));
                ExecInterval {
                    resource: *rng.pick(&resources),
                    task,
                    label: Symbol::UNTRACED,
                    start,
                    end: start,
                }
            })
            .collect();
        let mut stable = intervals.clone();
        stable.sort_by_key(|iv| (iv.start, iv.resource));
        assert_eq!(sort_intervals(intervals), stable);
    }

    #[test]
    fn disabled_buffer_drops_events() {
        let mut buf = TraceBuffer::disabled();
        buf.record(SimTime::ZERO, TraceResource::Dsp, TraceKind::ContextSwitch);
        assert!(buf.is_empty());
        assert!(!buf.is_enabled());
    }

    #[test]
    fn intervals_pair_start_end() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::CpuCore(0);
        let k = start(&mut buf, 1, "job");
        buf.record(SimTime::from_ns(10), r, k);
        buf.record(SimTime::from_ns(30), r, TraceKind::ExecEnd { task: 1 });
        let ivs = buf.exec_intervals();
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].end - ivs[0].start, SimSpan::from_ns(20));
        assert_eq!(buf.resolve(ivs[0].label), "job");
    }

    #[test]
    fn unclosed_intervals_are_dropped() {
        let mut buf = TraceBuffer::enabled();
        let k = start(&mut buf, 7, "dangling");
        buf.record(SimTime::from_ns(5), TraceResource::Gpu, k);
        assert!(buf.exec_intervals().is_empty());
    }

    #[test]
    fn intervals_until_closes_dangling_starts() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::CpuCore(1);
        let closed = start(&mut buf, 1, "closed");
        buf.record(SimTime::from_ns(10), r, closed);
        buf.record(SimTime::from_ns(20), r, TraceKind::ExecEnd { task: 1 });
        let open = start(&mut buf, 2, "open");
        buf.record(SimTime::from_ns(40), TraceResource::Gpu, open);
        let ivs = buf.exec_intervals_until(SimTime::from_ns(100));
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].end - ivs[0].start, SimSpan::from_ns(10));
        assert_eq!(ivs[1].start, SimTime::from_ns(40));
        assert_eq!(ivs[1].end, SimTime::from_ns(100), "busy to window end");
        // A start after the window clamps to zero length, never negative.
        let clamped = buf.exec_intervals_until(SimTime::from_ns(30));
        assert_eq!(clamped[1].start, clamped[1].end);
    }

    #[test]
    fn interleaved_resources_pair_correctly() {
        let mut buf = TraceBuffer::enabled();
        let c0 = TraceResource::CpuCore(0);
        let c1 = TraceResource::CpuCore(1);
        let a = start(&mut buf, 1, "a");
        buf.record(SimTime::from_ns(0), c0, a);
        let b = start(&mut buf, 2, "b");
        buf.record(SimTime::from_ns(1), c1, b);
        buf.record(SimTime::from_ns(4), c1, TraceKind::ExecEnd { task: 2 });
        buf.record(SimTime::from_ns(9), c0, TraceKind::ExecEnd { task: 1 });
        let ivs = buf.exec_intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].resource, c0);
        assert_eq!(ivs[0].end - ivs[0].start, SimSpan::from_ns(9));
        assert_eq!(ivs[1].resource, c1);
        assert_eq!(ivs[1].end - ivs[1].start, SimSpan::from_ns(3));
    }

    #[test]
    fn same_task_reexecution_pairs_nested() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::CpuCore(2);
        // Task runs twice (preemption produces two intervals).
        let x = start(&mut buf, 3, "x");
        buf.record(SimTime::from_ns(0), r, x);
        buf.record(SimTime::from_ns(2), r, TraceKind::ExecEnd { task: 3 });
        buf.record(SimTime::from_ns(5), r, x);
        buf.record(SimTime::from_ns(6), r, TraceKind::ExecEnd { task: 3 });
        let ivs = buf.exec_intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].start, SimTime::from_ns(0));
        assert_eq!(ivs[1].start, SimTime::from_ns(5));
    }

    #[test]
    fn same_task_on_accelerator_slots_pairs_correctly() {
        // Exercise the non-CPU resource slots of the per-resource tables.
        let mut buf = TraceBuffer::enabled();
        for (i, r) in [
            TraceResource::Dsp,
            TraceResource::Gpu,
            TraceResource::Npu,
            TraceResource::Axi,
        ]
        .into_iter()
        .enumerate()
        {
            let k = start(&mut buf, i as u64, "accel");
            buf.record(SimTime::from_ns(i as u64), r, k);
        }
        for (i, r) in [
            TraceResource::Dsp,
            TraceResource::Gpu,
            TraceResource::Npu,
            TraceResource::Axi,
        ]
        .into_iter()
        .enumerate()
        {
            buf.record(
                SimTime::from_ns(10 + i as u64),
                r,
                TraceKind::ExecEnd { task: i as u64 },
            );
        }
        let ivs = buf.exec_intervals();
        assert_eq!(ivs.len(), 4);
        assert!(ivs.iter().all(|iv| buf.resolve(iv.label) == "accel"));
    }

    #[test]
    fn resource_display_names() {
        assert_eq!(TraceResource::CpuCore(4).to_string(), "cpu4");
        assert_eq!(TraceResource::Dsp.to_string(), "cdsp");
        assert_eq!(TraceResource::Axi.to_string(), "axi");
    }

    #[test]
    fn rpc_phases_cover_fig7_flow() {
        // The Fig. 7 call flow has six phases; keep order stable.
        assert_eq!(RpcPhase::ALL.len(), 6);
        assert_eq!(RpcPhase::ALL[0], RpcPhase::IoctlEntry);
        assert_eq!(RpcPhase::ALL[5], RpcPhase::IoctlReturn);
    }

    #[test]
    fn reset_matches_disabled_starting_state() {
        let mut buf = TraceBuffer::enabled();
        let s = buf.intern("old-label");
        for i in 0..9 {
            buf.record(
                SimTime::from_ns(i),
                TraceResource::Dsp,
                TraceKind::ExecStart { task: i, label: s },
            );
        }
        buf.reset();
        assert!(!buf.is_enabled());
        assert_eq!(buf.len(), 0);
        assert!(buf.symbols().is_empty());
        // Re-enabled, the buffer numbers symbols like a fresh one.
        buf.set_enabled(true);
        assert_eq!(buf.intern("first-of-next-run").index(), 0);
    }

    #[test]
    fn clear_retains_enabled_flag_and_symbols() {
        let mut buf = TraceBuffer::enabled();
        let label = buf.intern("stage");
        buf.record(
            SimTime::ZERO,
            TraceResource::Axi,
            TraceKind::AxiBurst { bytes: 64 },
        );
        buf.clear();
        assert!(buf.is_empty());
        assert!(buf.is_enabled());
        assert_eq!(buf.resolve(label), "stage");
    }

    #[test]
    fn set_enabled_drops_events_but_keeps_symbols() {
        let mut buf = TraceBuffer::enabled();
        let label = buf.intern("kept");
        buf.record(SimTime::ZERO, TraceResource::Dsp, TraceKind::ContextSwitch);
        buf.set_enabled(false);
        assert!(buf.is_empty());
        assert!(!buf.is_enabled());
        buf.set_enabled(true);
        assert!(buf.is_enabled());
        assert_eq!(buf.resolve(label), "kept", "symbols survive the toggle");
    }

    #[test]
    fn untraced_labels_skip_formatting_and_the_table() {
        let mut buf = TraceBuffer::disabled();
        assert_eq!(buf.label(format_args!("op#{}", 3)), "");
        assert_eq!(buf.intern("op#3"), Symbol::UNTRACED);
        assert!(buf.symbols().is_empty());
        buf.set_enabled(true);
        assert_eq!(buf.label(format_args!("op#{}", 3)), "op#3");
        let s = buf.intern("op#3");
        assert_eq!(buf.resolve(s), "op#3");
        assert_eq!(buf.resolve(Symbol::UNTRACED), "<untraced>");
    }

    #[test]
    fn meter_mode_keeps_only_metered_kinds_and_no_labels() {
        let mut full = TraceBuffer::enabled();
        let mut meter = TraceBuffer::with_mode(TraceMode::Meter);
        assert!(meter.is_enabled() && !meter.labels_on());
        assert_eq!(meter.label(format_args!("op#{}", 3)), "");
        assert_eq!(meter.intern("op#3"), Symbol::UNTRACED);
        let label = full.intern("op#3");
        let kinds = [
            TraceKind::ExecStart { task: 1, label },
            TraceKind::ContextSwitch,
            TraceKind::Dvfs {
                core: 0,
                freq_hz: 1_000,
            },
            TraceKind::Rpc {
                phase: RpcPhase::DoorbellRing,
            },
            TraceKind::AxiBurst { bytes: 64 },
            TraceKind::Marker { label },
            TraceKind::ExecEnd { task: 1 },
        ];
        for (i, &kind) in kinds.iter().enumerate() {
            let at = SimTime::from_ns(i as u64);
            full.record(at, TraceResource::CpuCore(0), kind);
            meter.record(at, TraceResource::CpuCore(0), kind);
        }
        assert!(meter.symbols().is_empty());
        let kept: Vec<TraceEvent> = full.iter().filter(|ev| metered(&ev.kind)).collect();
        assert_eq!(meter.iter().collect::<Vec<_>>(), kept);
        assert_eq!(meter.len(), 4);
        assert_eq!(meter.exec_intervals().len(), 1);
    }

    #[test]
    fn scan_visits_every_other_event_in_order() {
        let mut buf = TraceBuffer::enabled();
        let r = TraceResource::CpuCore(0);
        let k = start(&mut buf, 1, "job");
        buf.record(SimTime::from_ns(1), r, TraceKind::ContextSwitch);
        buf.record(SimTime::from_ns(2), r, k);
        buf.record(SimTime::from_ns(3), r, TraceKind::AxiBurst { bytes: 8 });
        buf.record(SimTime::from_ns(4), r, TraceKind::ExecEnd { task: 1 });
        let mut seen = Vec::new();
        let ivs = buf.scan(|t, kind| seen.push((t.as_ns(), kind)));
        assert_eq!(ivs, buf.exec_intervals());
        assert_eq!(
            seen,
            [
                (1, TraceKind::ContextSwitch),
                (3, TraceKind::AxiBurst { bytes: 8 })
            ]
        );
    }

    #[test]
    fn debug_renders_off_and_full_as_the_enabled_flag() {
        let off = format!("{:?}", TraceBuffer::disabled());
        assert!(
            off.starts_with("TraceBuffer { enabled: false, times: []"),
            "{off}"
        );
        let full = format!("{:?}", TraceBuffer::enabled());
        assert!(
            full.starts_with("TraceBuffer { enabled: true, times: []"),
            "{full}"
        );
        let meter = format!("{:?}", TraceBuffer::with_mode(TraceMode::Meter));
        assert!(
            meter.starts_with("TraceBuffer { mode: Meter, times: []"),
            "{meter}"
        );
    }

    #[test]
    fn reserved_buffer_records_without_reallocating() {
        // Each column's address and capacity: a reallocation moves one.
        fn columns(buf: &TraceBuffer) -> [(usize, usize); 5] {
            [
                (buf.times.as_ptr() as usize, buf.times.capacity()),
                (buf.res.as_ptr() as usize, buf.res.capacity()),
                (buf.tags.as_ptr() as usize, buf.tags.capacity()),
                (buf.pa.as_ptr() as usize, buf.pa.capacity()),
                (buf.pb.as_ptr() as usize, buf.pb.capacity()),
            ]
        }
        let mut buf = TraceBuffer::enabled();
        buf.reserve_events(128);
        let reserved = columns(&buf);
        assert!(reserved.iter().all(|&(_, cap)| cap >= 128), "{reserved:?}");
        let label = buf.intern("warm");
        for i in 0..128u64 {
            buf.record(
                SimTime::from_ns(i),
                TraceResource::CpuCore(0),
                TraceKind::ExecStart { task: i, label },
            );
        }
        assert_eq!(buf.len(), 128);
        assert_eq!(columns(&buf), reserved, "recording reallocated a column");
    }

    #[test]
    fn every_kind_roundtrips_through_the_columns() {
        let mut buf = TraceBuffer::enabled();
        let label = buf.intern("k");
        let source = buf.intern("irq0");
        let kinds = [
            TraceKind::ExecStart { task: 7, label },
            TraceKind::ExecEnd { task: u64::MAX },
            TraceKind::ContextSwitch,
            TraceKind::Migration {
                task: 3,
                from: 255,
                to: 1,
            },
            TraceKind::Irq { source },
            TraceKind::Rpc {
                phase: RpcPhase::CompletionSignal,
            },
            TraceKind::AxiBurst { bytes: u64::MAX },
            TraceKind::Dvfs {
                core: 7,
                freq_hz: 2_841_600_000,
            },
            TraceKind::Marker { label },
        ];
        let resources = [
            TraceResource::CpuCore(0),
            TraceResource::CpuCore(255),
            TraceResource::Dsp,
            TraceResource::Gpu,
            TraceResource::Npu,
            TraceResource::Axi,
        ];
        for (i, &kind) in kinds.iter().enumerate() {
            buf.record(
                SimTime::from_ns(i as u64),
                resources[i % resources.len()],
                kind,
            );
        }
        let back: Vec<TraceEvent> = buf.iter().collect();
        assert_eq!(back.len(), kinds.len());
        for (i, ev) in back.iter().enumerate() {
            assert_eq!(ev.time, SimTime::from_ns(i as u64));
            assert_eq!(ev.resource, resources[i % resources.len()]);
            assert_eq!(ev.kind, kinds[i], "kind {i} did not round-trip");
        }
    }
}
