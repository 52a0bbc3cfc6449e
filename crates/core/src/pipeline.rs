//! The end-to-end pipeline runner.
//!
//! Drives a [`Machine`] through N iterations of the §II pipeline —
//! data capture → pre-processing → inference → post-processing (+ UI) —
//! and records a [`StageBreakdown`] per iteration. This is the
//! measurement harness every figure-level experiment builds on.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use aitax_capture::CameraConfig;
/// The C++ standard library flavor [`E2eConfig::stdlib`] selects.
pub use aitax_capture::StdlibFlavor;
use aitax_des::{FaultPlan, SimSpan, SimTime, TraceBuffer, TraceMode};
use aitax_framework::{Engine, Plan, Session};
use aitax_kernel::{Machine, MachineStats, NoiseConfig, TaskSpec, Work};
use aitax_models::zoo::{MlTask, ModelId, PostTask, PreTask, Zoo, ZooEntry};
use aitax_models::Graph;
use aitax_pipeline::{CostModel, PixelOp};
use aitax_soc::{SocCatalog, SocId};
use aitax_tensor::DType;

use crate::context::SimContext;
use crate::degradation::DegradationReport;
use crate::energy::EnergyReport;
use crate::runmode::RunMode;
use crate::stage::{Stage, StageBreakdown, StageClock, TaxReport};

/// Configuration of one end-to-end run.
#[derive(Debug, Clone)]
pub struct E2eConfig {
    model: ModelId,
    dtype: DType,
    engine: Engine,
    run_mode: RunMode,
    soc: SocId,
    iterations: usize,
    seed: u64,
    background: Option<(usize, Engine)>,
    tracing: TraceMode,
    trace_bound: usize,
    stdlib: StdlibFlavor,
    initial_temp_c: Option<f64>,
    wander_probability: Option<f64>,
    preproc_on_dsp: bool,
    fault_plan: Option<FaultPlan>,
}

impl E2eConfig {
    /// Starts a configuration with the paper's defaults: CLI benchmark on
    /// the SD845 (Pixel 3), TFLite CPU ×4, 500 iterations (§III-D).
    pub fn new(model: ModelId, dtype: DType) -> Self {
        E2eConfig {
            model,
            dtype,
            engine: Engine::tflite_cpu(4),
            run_mode: RunMode::CliBenchmark,
            soc: SocId::Sd845,
            iterations: 500,
            seed: 1,
            background: None,
            tracing: TraceMode::Off,
            trace_bound: TRACE_PRESIZE_CAP,
            stdlib: StdlibFlavor::LibCxx,
            initial_temp_c: None,
            wander_probability: None,
            preproc_on_dsp: false,
            fault_plan: None,
        }
    }

    /// Sets the inference engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the packaging mode.
    pub fn run_mode(mut self, mode: RunMode) -> Self {
        self.run_mode = mode;
        self
    }

    /// Sets the platform.
    pub fn soc(mut self, soc: SocId) -> Self {
        self.soc = soc;
        self
    }

    /// Sets the iteration count.
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Sets the random seed (same seed → identical report).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds `count` concurrent background inference loops running the
    /// same model through `engine` — the Fig. 9/10 multi-tenancy setup.
    pub fn background(mut self, count: usize, engine: Engine) -> Self {
        self.background = Some((count, engine));
        self
    }

    /// Enables structured tracing (for profiler views): the report
    /// carries the full trace and the energy priced from it.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = if on { TraceMode::Full } else { TraceMode::Off };
        self
    }

    /// Meters energy without keeping a trace: the run records only what
    /// the energy meter reads ([`TraceMode::Meter`]), interns no label,
    /// and reports `energy` bit-identical to a traced run's with `trace`
    /// left `None`.
    pub fn energy(mut self) -> Self {
        self.tracing = TraceMode::Meter;
        self
    }

    /// Caps the trace events a traced or metered run reserves up front
    /// (default 2^20). The trace itself is never truncated: a run that
    /// outgrows the reservation keeps recording, growing amortized.
    pub fn trace_bound(mut self, cap: usize) -> Self {
        self.trace_bound = cap;
        self
    }

    /// Selects the C++ standard library flavor of the benchmark binary
    /// (the §IV-A random-generation fallacy).
    pub fn stdlib(mut self, flavor: StdlibFlavor) -> Self {
        self.stdlib = flavor;
        self
    }

    /// Starts the chip at a given temperature instead of the cooled-down
    /// idle temperature (the §III-D methodology study).
    pub fn initial_temp(mut self, temp_c: f64) -> Self {
        self.initial_temp_c = Some(temp_c);
        self
    }

    /// Overrides the scheduler's wander probability for NNAPI-fallback
    /// threads (ablation: set 0 to pin the fallback thread).
    pub fn wander_probability(mut self, p: f64) -> Self {
        self.wander_probability = Some(p);
        self
    }

    /// Installs a seeded fault plan for the run. An empty plan is
    /// guaranteed to leave results byte-identical to no plan at all;
    /// `tests/fault_tolerance.rs` pins this.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Routes pre-processing through the DSP (a FastCV-style image
    /// pipeline) instead of CPU code — the design direction the paper's
    /// conclusion floats: "consider dropping an expensive tensor
    /// accelerator in favor of a cheaper DSP that can also do
    /// pre-processing".
    pub fn preproc_on_dsp(mut self, on: bool) -> Self {
        self.preproc_on_dsp = on;
        self
    }

    /// A floor on the simulated seconds the run's iterations take,
    /// computed without simulating. In app mode each iteration consumes a
    /// distinct camera frame ([`RunMode::frame_floor_secs`]). In the
    /// benchmark modes each one first generates its random input: one CPU
    /// task of [`StdlibFlavor::input_cycles`] cycles, which no core runs
    /// faster than the SoC's fastest clock plus the scheduler's ±1% rate
    /// jitter. In seconds, so no count overflows it.
    pub fn sim_floor_secs(&self) -> f64 {
        let iterations = self.iterations as u64;
        if self.run_mode.uses_camera() {
            return self.run_mode.frame_floor_secs(iterations);
        }
        let elements = aitax_models::cached_graph(self.model, self.dtype).input_elements();
        let cycles = self
            .stdlib
            .input_cycles(self.dtype, (elements as usize).max(1));
        let fastest_hz = SocCatalog::get(self.soc)
            .cores()
            .iter()
            .map(|c| c.freq_hz)
            .fold(0.0, f64::max);
        iterations as f64 * cycles / (fastest_hz * 1.01)
    }

    /// Runs the experiment in a throwaway [`SimContext`].
    ///
    /// # Panics
    ///
    /// Panics if the engine cannot run the model's datatype (e.g. the
    /// Hexagon delegate with an FP32 graph) — check Table I first.
    pub fn run(self) -> E2eReport {
        self.run_in(&mut SimContext::new())
    }

    /// Runs the experiment in `ctx`, reusing its machine when possible.
    ///
    /// Results are byte-identical to [`E2eConfig::run`]: the reused
    /// machine is reset to a fresh boot's state, and the graph/plan come
    /// from caches of pure functions. What reuse buys is setup cost —
    /// repeated runs skip the machine allocation, graph build and
    /// session compile (the simulator's own "model initialization" tax).
    ///
    /// # Panics
    ///
    /// Panics if the engine cannot run the model's datatype (e.g. the
    /// Hexagon delegate with an FP32 graph) — check Table I first.
    pub fn run_in(mut self, ctx: &mut SimContext) -> E2eReport {
        // The one catalog lookup of the run: compile paths key off
        // `self.soc` and the machine checkout resolves its own spec only
        // when it actually boots a machine.
        let spec = SocCatalog::get(self.soc);
        let entry = Zoo::entry(self.model);
        #[expect(
            clippy::panic,
            reason = "user-facing runner: an unsupported engine/model pairing is a usage error worth aborting"
        )]
        let session = Session::compile_cached(self.engine, self.model, self.dtype, self.soc)
            .unwrap_or_else(|e| panic!("cannot run {}: {e}", entry.display_name));
        let graph = session.graph_shared();
        let plan = session.plan().clone();

        let m = ctx.checkout(self.soc, self.seed);
        if let Some(t) = self.initial_temp_c {
            m.set_initial_temp(t);
        }
        if let Some(p) = self.wander_probability {
            m.set_wander_probability(p);
        }
        let per_iteration = match self.tracing {
            TraceMode::Off => 0,
            TraceMode::Meter => METER_EVENTS_PER_ITERATION,
            TraceMode::Full => TRACE_EVENTS_PER_ITERATION,
        };
        m.trace.set_mode(self.tracing);
        // Size the event storage once, up front, so steady-state
        // recording never reallocates mid-run; capacity is reused across
        // iterations because the buffer is never dropped.
        m.trace.reserve_events(presize(
            self.iterations.max(1),
            per_iteration,
            self.trace_bound,
        ));
        if let Some(plan) = self.fault_plan.take().filter(|plan| !plan.is_empty()) {
            m.install_fault_plan(plan);
        }
        let noise = self.run_mode.noise();
        m.start_noise(noise);

        // Background inference loops (multi-tenancy).
        if let Some((count, bg_engine)) = self.background.filter(|&(count, _)| count > 0) {
            #[expect(
                clippy::panic,
                reason = "user-facing runner: an unusable background engine is a usage error worth aborting"
            )]
            let bg_session = Session::compile_cached(bg_engine, self.model, self.dtype, self.soc)
                .unwrap_or_else(|e| panic!("background engine unusable: {e}"));
            for _ in 0..count {
                spawn_background_loop(m, bg_session.clone());
            }
        }

        let state = RefCell::new(RunState {
            breakdowns: Vec::with_capacity(presize(self.iterations, 1, BREAKDOWN_PRESIZE_CAP)),
            iteration: 0,
            done: false,
            model_init: SimSpan::ZERO,
            last_frame: SimTime::ZERO,
            stage_windows: Vec::new(),
        });
        let driver = Rc::new(Driver {
            entry,
            graph,
            session,
            config: self,
            noise,
            state,
        });

        // Model initialization happens once, before the iteration loop.
        let d = driver.clone();
        let init_start = m.now();
        driver.session.initialize(m, move |m| {
            d.state.borrow_mut().model_init = m.now() - init_start;
            d.begin_capture(m);
        });

        while !driver.state.borrow().done {
            if !m.step() {
                break;
            }
        }

        let config = &driver.config;
        let trace = (config.tracing == TraceMode::Full)
            .then(|| std::mem::replace(&mut m.trace, TraceBuffer::disabled()));
        let (breakdowns, model_init) = {
            let mut st = driver.state.borrow_mut();
            // Move the per-iteration breakdowns out rather than cloning
            // them; the run is over and the state cell is about to drop.
            (std::mem::take(&mut st.breakdowns), st.model_init)
        };
        let energy = (config.tracing != TraceMode::Off).then(|| {
            // A metered run is priced in place, so a reused machine keeps
            // its event columns' capacity for the next one.
            let st = driver.state.borrow();
            EnergyReport::from_trace(
                &spec.power,
                trace.as_ref().unwrap_or(&m.trace),
                &st.stage_windows,
                breakdowns.len(),
                m.now(),
            )
        });
        let degradation = DegradationReport::new(
            m.degradation().clone(),
            energy.as_ref().map(|e| e.mean_power_w()),
        );
        E2eReport {
            dtype: config.dtype,
            tax: TaxReport::new(breakdowns),
            model_init,
            stats: m.stats().clone(),
            plan,
            trace,
            energy,
            degradation,
        }
    }
}

struct RunState {
    breakdowns: Vec<StageBreakdown>,
    iteration: usize,
    done: bool,
    model_init: SimSpan,
    /// Timestamp of the camera frame consumed last.
    last_frame: SimTime,
    /// Per-stage execution windows, recorded when tracing or metering so
    /// the energy meter can price each stage.
    stage_windows: Vec<(Stage, SimTime, SimTime)>,
}

/// The run's shared half: every stage continuation holds an `Rc` of it,
/// while the iteration's [`StageClock`] travels through them by value.
struct Driver {
    entry: ZooEntry,
    graph: Arc<Graph>,
    session: Session,
    config: E2eConfig,
    noise: NoiseConfig,
    state: RefCell<RunState>,
}

impl Driver {
    /// Stamps the end of `stage`, keeping its window for the energy
    /// meter when tracing or metering.
    fn stamp(&self, clock: &mut StageClock, m: &Machine, stage: Stage) {
        let window = clock.stamp(stage, m.now());
        if self.config.tracing != TraceMode::Off {
            self.state.borrow_mut().stage_windows.push(window);
        }
    }

    // ------------------------------------------------------ data capture

    fn begin_capture(self: Rc<Self>, m: &mut Machine) {
        let clock = StageClock::start(m.now());
        if self.config.run_mode.uses_camera() {
            // The camera free-runs into a buffer queue; the app consumes
            // the most recent frame. If one arrived since the last
            // iteration it is handed over immediately (plus delivery
            // jitter); otherwise the app blocks until the next sensor
            // boundary. Extraction (plane-walking the Image into app
            // byte arrays) is the expensive managed-code part.
            let camera = CameraConfig::vga_preview();
            let interval = camera.frame_interval().as_ns().max(1);
            let readout = camera.readout;
            let now = m.now();
            let latest = if now > SimTime::ZERO + readout {
                let k = now.since(SimTime::ZERO + readout).as_ns() / interval;
                Some(SimTime::from_ns(k * interval) + readout)
            } else {
                None
            };
            let ready = {
                let st = self.state.borrow();
                latest.map(|b| b > st.last_frame).unwrap_or(false)
            };
            let deliver_at = if ready {
                now
            } else {
                let k = now.since(SimTime::ZERO + readout).as_ns() / interval + 1;
                SimTime::from_ns(k * interval) + readout
            };
            {
                let mut st = self.state.borrow_mut();
                st.last_frame = deliver_at;
            }
            let jitter = m.sample_irq_jitter(&self.noise);
            let frame_bytes = camera.frame_bytes();
            let cost = CostModel::new(self.config.run_mode.runtime_kind());
            m.after(deliver_at + jitter - now, move |m| {
                let cycles = cost.cycles(PixelOp::FrameExtract, frame_bytes);
                let task = TaskSpec::foreground("frame-extract", Work::Cycles(cycles));
                m.submit_cpu(task, move |m| self.end_capture(m, clock));
            });
        } else {
            // Benchmark methodology: generate a random input tensor. Only
            // its cost reaches the simulated CPU, so price it without
            // materialising the bytes.
            let elements = (self.graph.input_elements() as usize).max(1);
            let cycles = self.config.stdlib.input_cycles(self.config.dtype, elements);
            let task = TaskSpec::foreground("random-input", Work::Cycles(cycles));
            m.submit_cpu(task, move |m| self.end_capture(m, clock));
        }
    }

    fn end_capture(self: Rc<Self>, m: &mut Machine, mut clock: StageClock) {
        self.stamp(&mut clock, m, Stage::DataCapture);
        self.begin_preprocess(m, clock);
    }

    // ----------------------------------------------------- preprocessing

    fn preprocess_cycles(&self) -> f64 {
        let cost = CostModel::new(self.config.run_mode.runtime_kind());
        let mut steps: Vec<(PixelOp, u64)> = Vec::new();
        if let Some((h, w)) = self.entry.resolution {
            let (out_px, elems) = ((h * w) as u64, (h * w * 3) as u64);
            if self.config.run_mode.uses_camera() {
                let camera = CameraConfig::vga_preview();
                let cam_px = (camera.width * camera.height) as u64;
                steps.push((PixelOp::Nv21ToArgb, cam_px));
                for task in self.entry.preprocess {
                    match task {
                        PreTask::Scale => steps.push((PixelOp::ResizeBilinear, out_px)),
                        PreTask::Crop => steps.push((PixelOp::CenterCrop, out_px)),
                        PreTask::Normalize => {
                            if self.config.dtype.is_quantized() {
                                steps.push((PixelOp::TypeConvert, elems));
                            } else {
                                steps.push((PixelOp::Normalize, elems));
                            }
                        }
                        PreTask::Rotate => steps.push((PixelOp::Rotate, out_px)),
                        PreTask::Tokenize => steps.push((PixelOp::Tokenize, 240)),
                    }
                }
            } else {
                // Random tensors arrive model-shaped: only type conversion
                // remains ("negligible pre-processing", §IV).
                steps.push((PixelOp::TypeConvert, elems));
            }
        } else {
            // Text model.
            if self.config.run_mode.uses_camera() {
                steps.push((PixelOp::Tokenize, 240));
            } else {
                steps.push((PixelOp::TypeConvert, 128));
            }
        }
        cost.chain_cycles(&steps)
    }

    fn begin_preprocess(self: Rc<Self>, m: &mut Machine, mut clock: StageClock) {
        let cycles = self.preprocess_cycles();
        let task = TaskSpec::foreground("pre-processing", Work::Cycles(cycles));
        // FastCV-style offload: the HVX DSP chews per-pixel work at
        // several times the scalar-CPU rate, but the frame pays a
        // FastRPC round trip.
        let offload = self.config.preproc_on_dsp.then(|| {
            let dsp_speedup = 6.0;
            let native_cycles = cycles / self.config.run_mode.runtime_kind().multiplier();
            let span = aitax_des::SimSpan::from_secs(native_cycles / (2.8e9 * dsp_speedup));
            let frame_bytes = if self.config.run_mode.uses_camera() {
                CameraConfig::vga_preview().frame_bytes()
            } else {
                self.graph.input_bytes()
            };
            aitax_kernel::RpcInvoke {
                label: "fastcv-preprocess".into(),
                in_bytes: frame_bytes,
                out_bytes: self.graph.input_bytes(),
                dsp_work: span,
                device: aitax_kernel::RpcDevice::Dsp,
                ..Default::default()
            }
        });
        let done = move |m: &mut Machine| {
            self.stamp(&mut clock, m, Stage::PreProcessing);
            self.begin_inference(m, clock);
        };
        if let Some(invoke) = offload {
            m.fastrpc_invoke_result(invoke, move |m, outcome| {
                if outcome.is_ok() {
                    done(m);
                } else {
                    // DSP unusable: redo the frame on the CPU path.
                    m.degradation_mut().cpu_fallbacks += 1;
                    m.submit_cpu(task, done);
                }
            });
        } else {
            m.submit_cpu(task, done);
        }
    }

    // --------------------------------------------------------- inference

    fn begin_inference(self: Rc<Self>, m: &mut Machine, mut clock: StageClock) {
        let d = self.clone();
        self.session.invoke(m, move |m| {
            d.stamp(&mut clock, m, Stage::Inference);
            d.begin_postprocess(m, clock);
        });
    }

    // ---------------------------------------------------- postprocessing

    fn postprocess_cycles(&self) -> f64 {
        let cost = CostModel::new(self.config.run_mode.runtime_kind());
        let mut steps: Vec<(PixelOp, u64)> = Vec::new();
        for task in self.entry.postprocess {
            match task {
                PostTask::TopK => steps.push((PixelOp::TopK, 1001)),
                PostTask::Dequantize => {
                    if self.config.dtype.is_quantized() {
                        steps.push((PixelOp::TypeConvert, 1001));
                    }
                }
                PostTask::MaskFlattening => {
                    steps.push((PixelOp::FlattenMask, 513 * 513 * 21));
                }
                PostTask::CalculateKeypoints => {
                    steps.push((PixelOp::DecodeKeypoints, 14 * 14 * 51));
                }
                PostTask::ComputeLogits => steps.push((PixelOp::TopK, 2 * 128)),
            }
        }
        // Detection apps also track boxes frame-to-frame (§IV-A).
        if self.entry.task == MlTask::ObjectDetection && self.config.run_mode.uses_camera() {
            steps.push((PixelOp::DecodeBoxesNms, 100));
        }
        cost.chain_cycles(&steps)
    }

    fn begin_postprocess(self: Rc<Self>, m: &mut Machine, mut clock: StageClock) {
        let cycles = self.postprocess_cycles().max(1.0);
        let task = TaskSpec::foreground("post-processing", Work::Cycles(cycles));
        m.submit_cpu(task, move |m| {
            self.stamp(&mut clock, m, Stage::PostProcessing);
            self.begin_ui(m, clock);
        });
    }

    // ---------------------------------------------------------------- ui

    fn begin_ui(self: Rc<Self>, m: &mut Machine, mut clock: StageClock) {
        let mut cycles = self.config.run_mode.ui_overhead_cycles();
        if cycles <= 0.0 {
            self.finish_iteration(m, clock);
            return;
        }
        // Managed-runtime housekeeping: the ART garbage collector
        // occasionally pauses the app for several milliseconds — one of
        // the in-app variability sources behind Fig. 11.
        if self.config.run_mode.uses_camera() && m.rng_mut().chance(0.035) {
            let pause_ms = m.rng_mut().lognormal(5.0, 0.45);
            cycles += pause_ms * 2.8e6;
        }
        let task = TaskSpec::foreground("ui-render", Work::Cycles(cycles));
        m.submit_cpu(task, move |m| {
            self.stamp(&mut clock, m, Stage::UiOverhead);
            self.finish_iteration(m, clock);
        });
    }

    fn finish_iteration(self: Rc<Self>, m: &mut Machine, clock: StageClock) {
        let next = {
            let mut st = self.state.borrow_mut();
            st.breakdowns.push(clock.breakdown());
            st.iteration += 1;
            if st.iteration >= self.config.iterations {
                st.done = true;
                false
            } else {
                true
            }
        };
        if next {
            self.begin_capture(m);
        } else {
            m.stop_noise();
        }
    }
}

/// Trace events reserved per pipeline iteration of a traced run.
const TRACE_EVENTS_PER_ITERATION: usize = 8192;

/// Trace events reserved per pipeline iteration of a metered run. A fleet
/// probe iteration records 500–720 on average (its exec, DVFS and AXI
/// events, over perfbench fleet-mix rounds at seeds 1 and 9001); a loaded
/// device's iterations record up to several thousand and grow amortized.
const METER_EVENTS_PER_ITERATION: usize = 1024;

/// Most trace events a run reserves up front unless
/// [`E2eConfig::trace_bound`] says otherwise; a longer trace grows
/// amortized.
const TRACE_PRESIZE_CAP: usize = 1 << 20;

/// Most per-iteration breakdowns a run reserves up front.
const BREAKDOWN_PRESIZE_CAP: usize = 64 * 1024;

/// Up-front capacity for `count` items of `per_item` slots each: their
/// product, saturated and capped at `cap`. A run trusts its iteration
/// count for pre-sizing only up to the cap and grows amortized past it,
/// so no count can overflow a reservation.
fn presize(count: usize, per_item: usize, cap: usize) -> usize {
    count.saturating_mul(per_item).min(cap)
}

/// An endless background inference loop (the paper's "inference
/// benchmarks [scheduled] in the background").
fn spawn_background_loop(m: &mut Machine, session: Session) {
    fn again(m: &mut Machine, session: Session) {
        let s2 = session.clone();
        session.invoke(m, move |m| again(m, s2));
    }
    again(m, session);
}

/// Results of one end-to-end run.
#[derive(Debug)]
pub struct E2eReport {
    /// Numeric format the model ran in.
    pub dtype: DType,
    /// Per-iteration stage breakdowns.
    pub tax: TaxReport,
    /// One-time model initialization latency.
    pub model_init: SimSpan,
    /// Machine counters accumulated over the run.
    pub stats: MachineStats,
    /// The compiled execution plan (partitioning inspection).
    pub plan: Plan,
    /// The structured trace, when tracing was enabled.
    pub trace: Option<TraceBuffer>,
    /// Per-rail energy attribution, when tracing or metering was enabled.
    pub energy: Option<EnergyReport>,
    /// Fault/retry/fallback accounting (all-clean without a fault plan).
    pub degradation: DegradationReport,
}

impl E2eReport {
    /// Distribution of one stage across iterations.
    pub fn summary(&self, stage: crate::stage::Stage) -> crate::stats::Summary {
        self.tax.summary(stage)
    }

    /// Distribution of end-to-end latency.
    pub fn e2e_summary(&self) -> crate::stats::Summary {
        self.tax.e2e_summary()
    }

    /// Mean AI-tax fraction.
    pub fn ai_tax_fraction(&self) -> f64 {
        self.tax.ai_tax_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;

    fn quick(model: ModelId, dtype: DType) -> E2eConfig {
        E2eConfig::new(model, dtype).iterations(15).seed(42)
    }

    #[test]
    fn presize_saturates_and_caps() {
        assert_eq!(presize(0, 1, BREAKDOWN_PRESIZE_CAP), 0);
        assert_eq!(presize(0, 8192, TRACE_PRESIZE_CAP), 0);
        assert_eq!(presize(500, 1, BREAKDOWN_PRESIZE_CAP), 500);
        assert_eq!(presize(30, 8192, TRACE_PRESIZE_CAP), 30 * 8192);
        assert_eq!(presize(usize::MAX, 1, BREAKDOWN_PRESIZE_CAP), 64 * 1024);
        assert_eq!(presize(usize::MAX, 8192, TRACE_PRESIZE_CAP), 1 << 20);
    }

    /// The floor is one: random-input generation alone takes at least
    /// as long in the benchmark modes, the whole run in app mode.
    #[test]
    fn sim_floor_bounds_the_simulated_run() {
        for (mode, dtype, flavor) in [
            (RunMode::CliBenchmark, DType::F32, StdlibFlavor::LibCxx),
            (RunMode::CliBenchmark, DType::I8, StdlibFlavor::LibStdCxx),
            (RunMode::BenchmarkApp, DType::I8, StdlibFlavor::LibCxx),
            (RunMode::AndroidApp, DType::I8, StdlibFlavor::LibCxx),
        ] {
            let cfg = quick(ModelId::MobileNetV1, dtype)
                .run_mode(mode)
                .stdlib(flavor);
            let floor_ms = cfg.sim_floor_secs() * 1e3;
            let r = cfg.run();
            let bound_ms = if mode.uses_camera() {
                r.e2e_summary().total_ms()
            } else {
                r.summary(Stage::DataCapture).total_ms()
            };
            assert!(
                floor_ms > 0.0 && floor_ms <= bound_ms,
                "{mode} {dtype}: floor {floor_ms} ms vs {bound_ms} ms"
            );
        }
    }

    #[test]
    fn cli_benchmark_has_negligible_preprocessing() {
        let r = quick(ModelId::MobileNetV1, DType::F32).run();
        let pre = r.summary(Stage::PreProcessing).mean_ms();
        let inf = r.summary(Stage::Inference).mean_ms();
        assert!(
            pre < inf * 0.1,
            "benchmark pre-processing {pre}ms vs inference {inf}ms"
        );
        assert_eq!(r.tax.iterations(), 15);
    }

    #[test]
    fn app_mode_pays_capture_and_preprocessing() {
        let r = quick(ModelId::MobileNetV1, DType::F32)
            .run_mode(RunMode::AndroidApp)
            .run();
        let cap = r.summary(Stage::DataCapture).mean_ms();
        let pre = r.summary(Stage::PreProcessing).mean_ms();
        assert!(cap > 1.0, "capture {cap}ms");
        assert!(pre > 5.0, "pre-processing {pre}ms");
        assert!(r.ai_tax_fraction() > 0.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(ModelId::SqueezeNet, DType::F32).run();
        let b = quick(ModelId::SqueezeNet, DType::F32).run();
        assert_eq!(
            a.e2e_summary().samples_ms(),
            b.e2e_summary().samples_ms(),
            "same seed must reproduce exactly"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(ModelId::MobileNetV1, DType::F32)
            .run_mode(RunMode::AndroidApp)
            .run();
        let b = quick(ModelId::MobileNetV1, DType::F32)
            .run_mode(RunMode::AndroidApp)
            .seed(77)
            .run();
        assert_ne!(a.e2e_summary().samples_ms(), b.e2e_summary().samples_ms());
    }

    #[test]
    fn model_init_is_recorded() {
        let r = quick(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::TfLiteHexagon { threads: 4 })
            .run();
        assert!(r.model_init.as_ms() > 1.0);
    }

    #[test]
    fn background_dsp_loops_slow_main_dsp_inference() {
        let base = quick(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::nnapi())
            .run_mode(RunMode::AndroidApp)
            .run();
        let contended = quick(ModelId::MobileNetV1, DType::I8)
            .engine(Engine::nnapi())
            .run_mode(RunMode::AndroidApp)
            .background(2, Engine::TfLiteHexagon { threads: 4 })
            .run();
        let b = base.summary(Stage::Inference).mean_ms();
        let c = contended.summary(Stage::Inference).mean_ms();
        assert!(c > b * 1.5, "contended {c}ms vs base {b}ms");
    }

    #[test]
    fn tracing_returns_a_trace() {
        let r = quick(ModelId::MobileNetV1, DType::F32)
            .iterations(3)
            .tracing(true)
            .run();
        let trace = r.trace.expect("trace present");
        assert!(!trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot run")]
    fn dtype_engine_mismatch_panics() {
        quick(ModelId::MobileNetV1, DType::F32)
            .engine(Engine::TfLiteHexagon { threads: 4 })
            .run();
    }
}
