//! Measurement plumbing shared by the workloads: rounds, per-layer
//! metric maps, output digests, quantiles, peak memory and spans.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
// aitax-allow(wall-clock): the benchmark measures host time; no simulated result reads it
use std::time::Instant;

/// What one round of a workload produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Host milliseconds of each unit (device, job or serve seed), in
    /// unit order.
    pub unit_ms: Vec<f64>,
    /// Digest of each unit's simulated output, in unit order.
    pub unit_digest: Vec<u64>,
    /// Simulated requests the round completed.
    pub requests: u64,
    /// Host seconds of the whole round: units, aggregation and rendering.
    pub wall_s: f64,
    /// Digest of the round's aggregated artifacts.
    pub artifact_digest: u64,
    /// Units that panicked or failed an output check.
    pub failed: usize,
}

impl Round {
    /// One digest over every unit output and the artifacts.
    pub fn sim_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for d in &self.unit_digest {
            h.write(&d.to_le_bytes());
        }
        h.write(&self.artifact_digest.to_le_bytes());
        h.finish()
    }

    /// Counts units whose output differs from `reference`'s (same unit
    /// order); a missing unit counts as different.
    pub fn mismatches(&self, reference: &[u64]) -> usize {
        let differ = self
            .unit_digest
            .iter()
            .zip(reference)
            .filter(|(a, b)| a != b)
            .count();
        differ + self.unit_digest.len().abs_diff(reference.len())
    }
}

/// Per-layer metrics of one traced round, by `<module>.<metric>` name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to layer metric `name`.
pub fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// 64-bit FNV-1a, enough to tell two simulated histories apart. Unlike
/// `DefaultHasher`, its output is fixed, so digests printed by two
/// commits or toolchains compare.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a value's `Debug` rendering. `Debug` prints every float in
/// its shortest round-trip form, so equal digests mean bit-identical
/// simulated results.
pub fn digest_debug<T: Debug + ?Sized>(v: &T) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{v:?}").as_bytes());
    h.finish()
}

/// Per-unit digests of the units that ran: `outputs` holds the outputs
/// of the units that did not panic, in unit order; a panicked unit
/// digests to 0.
pub fn unit_digests<T: Debug>(panicked: &[bool], outputs: &[T]) -> Vec<u64> {
    let mut outputs = outputs.iter();
    panicked
        .iter()
        .map(|&p| {
            if p {
                0
            } else {
                outputs.next().map_or(0, digest_debug)
            }
        })
        .collect()
}

/// Digest of rendered artifacts.
pub fn digest_strs(parts: &[&str]) -> u64 {
    let mut h = Fnv::new();
    for p in parts {
        h.write(p.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

/// Host wall-clock time since a start point. All host timing goes
/// through this type; simulated results never see it.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(
    // aitax-allow(wall-clock): the benchmark measures host time; no simulated result reads it
    Instant,
);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        // aitax-allow(wall-clock): the benchmark measures host time; no simulated result reads it
        Stopwatch(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Percentiles the tail is read at, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The highest ladder percentile with at least ten samples beyond it,
/// and its value. Falls back to the median for tiny samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    for p in TAIL_LADDER {
        if n * (1.0 - p / 100.0) >= 10.0 {
            return (p, quantile(&v, p / 100.0));
        }
    }
    (50.0, quantile(&v, 0.5))
}

/// Peak live heap of this process in MiB, as counted by [`CountingAlloc`].
pub fn peak_heap_mb() -> f64 {
    PEAK_HEAP.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Restarts peak tracking from the heap live now.
pub fn reset_peak_heap() {
    PEAK_HEAP.store(LIVE_HEAP.load(Ordering::Relaxed), Ordering::Relaxed);
}

static LIVE_HEAP: AtomicUsize = AtomicUsize::new(0);
static PEAK_HEAP: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_HEAP.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_HEAP.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_HEAP.fetch_sub(bytes, Ordering::Relaxed);
}

/// The system allocator, counting live and peak heap bytes. Live bytes
/// are a statistic that publishes no other data, hence `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller, who upholds `dealloc`'s
        // contract (`ptr` came from this allocator with `layout`).
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `realloc`'s
        // contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static WORKER: usize = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
}

/// A small index identifying the calling thread.
pub fn worker_id() -> usize {
    WORKER.with(|w| *w)
}

/// One recorded span: a call into a layer, made from the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The span this call was made from (`""` at the top).
    pub parent: &'static str,
    /// Unit the span belongs to (device, job or serve seed index).
    pub unit: u64,
    pub worker: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store for one traced round. Workers record into a
/// local buffer and hand it over once per unit.
pub struct Tracer {
    epoch: Stopwatch,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Stopwatch::start(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.ns()
    }

    /// Closes a span opened at `start_ns` (from [`Tracer::now_ns`]); for
    /// spans that enclose other spans.
    pub fn close(
        &self,
        local: &mut Vec<Span>,
        name: &'static str,
        parent: &'static str,
        unit: u64,
        start_ns: u64,
    ) {
        local.push(Span {
            name,
            parent,
            unit,
            worker: worker_id(),
            start_ns,
            end_ns: self.now_ns(),
        });
    }

    /// Runs `f` inside a span recorded into `local`.
    pub fn span<R>(
        &self,
        local: &mut Vec<Span>,
        name: &'static str,
        parent: &'static str,
        unit: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let r = f();
        local.push(Span {
            name,
            parent,
            unit,
            worker: worker_id(),
            start_ns,
            end_ns: self.now_ns(),
        });
        r
    }

    /// Moves a worker's local spans into the store.
    pub fn flush(&self, local: &mut Vec<Span>) {
        self.spans
            .lock()
            // aitax-allow(panic-path): poisoned only if a span writer panicked, which already failed the run
            .expect("a span writer panicked")
            .append(local);
    }

    /// Every span recorded so far, in start order.
    pub fn snapshot(&self) -> Vec<Span> {
        // aitax-allow(panic-path): poisoned only if a span writer panicked, which already failed the run
        let mut spans = self.spans.lock().expect("a span writer panicked").clone();
        spans.sort_by_key(|s| (s.start_ns, s.worker));
        spans
    }
}

/// Runs `f`, inside a span recorded into `local` when a tracer is given.
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    local: &mut Vec<Span>,
    name: &'static str,
    parent: &'static str,
    unit: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(tr) => tr.span(local, name, parent, unit, f),
        None => f(),
    }
}

/// Total milliseconds of the spans called `name`.
pub fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Occupancy of one pool invocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolUse {
    /// Summed task time over all workers.
    pub busy_ms: f64,
    /// Workers × pool wall time.
    pub capacity_ms: f64,
    /// From the first worker going idle to the last task's end.
    pub drain_ms: f64,
}

impl PoolUse {
    /// Occupancy from the task spans (named any of `tasks`) of one pool
    /// invocation that ran on `threads` workers over `[start_ns, end_ns]`.
    pub fn from_spans(
        spans: &[Span],
        tasks: &[&str],
        threads: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> PoolUse {
        let tasks: Vec<&Span> = spans
            .iter()
            .filter(|s| tasks.contains(&s.name) && s.start_ns >= start_ns && s.end_ns <= end_ns)
            .collect();
        let mut last_end: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &tasks {
            let e = last_end.entry(s.worker).or_insert(0);
            *e = (*e).max(s.end_ns);
        }
        let drain_ms = match (last_end.values().min(), last_end.values().max()) {
            (Some(first_idle), Some(last)) if last_end.len() == threads => {
                (last - first_idle) as f64 / 1e6
            }
            // A worker that never got a task idled from the start.
            (Some(_), Some(last)) => (last - start_ns) as f64 / 1e6,
            _ => 0.0,
        };
        PoolUse {
            busy_ms: tasks.iter().map(|s| s.ms()).sum(),
            capacity_ms: threads as f64 * (end_ns - start_ns) as f64 / 1e6,
            drain_ms,
        }
    }

    pub fn merge(&mut self, other: PoolUse) {
        self.busy_ms += other.busy_ms;
        self.capacity_ms += other.capacity_ms;
        self.drain_ms += other.drain_ms;
    }

    /// Records `pool.busy_frac` and `pool.drain_ms`.
    pub fn record(&self, layers: &mut Layers) {
        let busy_frac = if self.capacity_ms > 0.0 {
            self.busy_ms / self.capacity_ms
        } else {
            0.0
        };
        layers.insert("pool.busy_frac", busy_frac);
        layers.insert("pool.drain_ms", self.drain_ms);
    }
}
