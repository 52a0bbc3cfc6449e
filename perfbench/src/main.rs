//! Product benchmark for aitax: fleet, lab and serve host throughput,
//! end to end first and per layer second.
//!
//! ```text
//! perfbench --workload <fleet-mix|lab-table1|serve-contention>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times closed-loop rounds of the workload with tracing off
//! and prints the end-to-end metrics. `--trace 1` alternates untraced and
//! traced rounds on the same inputs, re-derives every unit through the
//! public calls of each layer with spans around them, and prints the
//! per-layer metrics. Either way the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod fleet_mix;
mod lab_table1;
mod layers;
mod measure;
mod serve_contention;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, Stdio};

use fleet_mix::FleetMix;
use lab_table1::LabTable1;
use measure::{
    median, peak_heap_mb, reset_peak_heap, tail, CountingAlloc, Layers, Round, Stopwatch, Tracer,
};
use serve_contention::ServeContention;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

/// One workload: how to set it up, run a round, and re-derive a round
/// with spans.
pub trait Workload: Sized {
    /// Whether every round runs the same inputs (then every round must
    /// reproduce round 0 unit for unit).
    const SAME_INPUTS_EVERY_ROUND: bool;

    /// Builds round 0's inputs from the seed and fills every cache the
    /// units use: graphs, plans and a first machine boot per chipset.
    fn setup(seed: u64) -> Self;

    /// One untraced round on round `r`'s inputs, each unit timed.
    fn round(&self, r: usize) -> Round;

    /// Per-unit output digests of round `r` run through the product's own
    /// entry point (`run_fleet`, `run_jobs`, `run_report`).
    fn entry_point(&self, r: usize) -> Vec<u64>;

    /// Round 0 again, every unit re-derived through the public calls of
    /// its layers with spans around them and checked against `reference`.
    fn traced(&self, tracer: &Tracer, reference: &Round) -> (Round, Layers);

    /// Layer probes made outside the traced round: uncached set-up
    /// builds, capture replay, probe tracing cost, energy re-metering.
    /// Returns the number of failed checks.
    fn probes(&self, layers: &mut Layers) -> usize;
}

const USAGE: &str = "usage: perfbench --workload <fleet-mix|lab-table1|serve-contention> \
--seed <n> --seconds <s> --trace <0|1>";

/// Least set-up samples per timed run: this process plus fresh child
/// processes, since the graph and plan caches live for the life of a
/// process. One child also sets up after every round, so the samples
/// spread over the whole run.
const SETUP_SAMPLES: usize = 11;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_tail", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`: name, unit, and whether
/// it is an exact count that must repeat across rounds at one seed.
const PER_LAYER: [(&str, &str, bool); 42] = [
    ("setup.graph_build_ms", "ms", false),
    ("setup.plan_compile_ms", "ms", false),
    ("setup.plan_keys", "count", true),
    ("setup.checkout_us_p50", "us", false),
    ("pipeline.run_ms", "ms", false),
    ("pipeline.us_per_request", "us", false),
    ("kernel.tasks_completed", "count", true),
    ("kernel.context_switches", "count", true),
    ("kernel.migrations", "count", true),
    ("kernel.preemptions", "count", true),
    ("kernel.rpc_calls", "count", true),
    ("kernel.dsp_jobs", "count", true),
    ("kernel.gpu_jobs", "count", true),
    ("kernel.npu_jobs", "count", true),
    ("kernel.axi_bytes", "bytes", true),
    ("kernel.ns_per_task", "ns", false),
    ("degradation.faults_injected", "count", true),
    ("degradation.rpc_retries", "count", true),
    ("degradation.cpu_fallbacks", "count", true),
    ("capture.randgen_ms", "ms", false),
    ("capture.randgen_share", "frac", false),
    ("capture.elements", "count", true),
    ("trace.probe_ms", "ms", false),
    ("trace.probe_share", "frac", false),
    ("trace.events", "count", true),
    ("trace.record_overhead", "frac", false),
    ("energy.meter_ms", "ms", false),
    ("pool.busy_frac", "frac", false),
    ("pool.drain_ms", "ms", false),
    ("population.sample_us", "us", false),
    ("agg.fold_ms", "ms", false),
    ("agg.render_ms", "ms", false),
    ("agg.artifact_bytes", "bytes", true),
    ("serve.solo_ms", "ms", false),
    ("serve.mix_ms", "ms", false),
    ("serve.mix_us_per_request", "us", false),
    ("serve.completed", "count", true),
    ("serve.shed", "count", true),
    ("serve.membw_queued", "count", true),
    ("serve.burst_continuations", "count", true),
    ("serve.blame_pairs", "count", true),
    ("bench.trace_overhead_frac", "frac", false),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    // aitax-allow(env-read): the benchmark's own command line
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "fleet-mix" => run::<FleetMix>(&args),
        "lab-table1" => run::<LabTable1>(&args),
        "serve-contention" => run::<ServeContention>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run<W: Workload>(args: &Args) -> i32 {
    if args.setup_only {
        let t = Stopwatch::start();
        let _ = W::setup(args.seed);
        println!("{}", t.secs());
        return 0;
    }
    match if args.trace {
        traced::<W>(args)
    } else {
        timed::<W>(args)
    } {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// Set-up seconds measured in `n` fresh child processes, one at a time.
fn setup_in_children(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seed = args.seed.to_string();
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--setup-only",
                    "--workload",
                    &args.workload,
                    "--seed",
                    &seed,
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up child failed to start: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up child exited with {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|l| l.trim().parse().ok())
                .ok_or_else(|| "set-up child printed no time".to_string())
        })
        .collect()
}

/// Units of `round` that differ from the product's own entry point.
fn entry_point_mismatches<W: Workload>(w: &W, round: &Round) -> usize {
    round.mismatches(&w.entry_point(0))
}

fn timed<W: Workload>(args: &Args) -> Result<i32, String> {
    let t = Stopwatch::start();
    let w = W::setup(args.seed);
    let mut setup_s = vec![t.secs()];

    // Closed loop: each round starts when the previous one finished.
    let mut rounds: Vec<Round> = Vec::new();
    let mut heap_mb = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds {
        reset_peak_heap();
        let round = w.round(rounds.len());
        heap_mb.push(peak_heap_mb());
        measured += round.wall_s;
        rounds.push(round);
        setup_s.extend(setup_in_children(args, 1)?);
    }
    let missing = SETUP_SAMPLES.saturating_sub(setup_s.len());
    setup_s.extend(setup_in_children(args, missing)?);

    let mut failed: usize = rounds.iter().map(|r| r.failed).sum();
    if W::SAME_INPUTS_EVERY_ROUND {
        failed += rounds[1..]
            .iter()
            .map(|r| r.mismatches(&rounds[0].unit_digest))
            .sum::<usize>();
    }
    failed += entry_point_mismatches(&w, &rounds[0]);

    let unit_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.unit_ms.iter().copied())
        .collect();
    let attempted = unit_ms.len();
    let failed = failed.min(attempted);
    let requests: u64 = rounds.iter().map(|r| r.requests).sum();
    let (tail_pct, tail_ms) = tail(&unit_ms);
    let values = [
        median(&setup_s),
        requests as f64 / measured,
        median(&unit_ms),
        tail_ms,
        median(&heap_mb),
    ];
    println!(
        "perfbench {} seed={} mode=timed rounds={} units={} requests={} \
         unit_ms_tail=p{tail_pct} error_rate={}",
        args.workload,
        args.seed,
        rounds.len(),
        attempted,
        requests,
        failed as f64 / attempted as f64,
    );
    println!(
        "sim_digest {} seed={} {:016x}",
        args.workload,
        args.seed,
        rounds[0].sim_digest()
    );
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    Ok(report(failed == 0, attempted, failed, &metrics))
}

fn traced<W: Workload>(args: &Args) -> Result<i32, String> {
    let w = W::setup(args.seed);
    let reference = w.round(0);
    let mut attempted = reference.unit_ms.len();
    let mut failed = reference.failed + entry_point_mismatches(&w, &reference);

    // Untraced and traced rounds alternate on round 0's inputs.
    let start = Stopwatch::start();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut per_round: Vec<Layers> = Vec::new();
    let mut last = None;
    while per_round.len() < 2 || start.secs() < args.seconds {
        let plain = w.round(0);
        attempted += plain.unit_ms.len();
        failed += plain.failed + plain.mismatches(&reference.unit_digest);
        plain_s.push(plain.wall_s);

        let tracer = Tracer::new();
        let (round, layers) = w.traced(&tracer, &reference);
        attempted += round.unit_ms.len();
        failed += round.failed;
        traced_s.push(round.wall_s);
        per_round.push(layers);
        last = Some(tracer);
    }
    let mut probes = [Layers::new(), Layers::new()];
    for p in &mut probes {
        failed += w.probes(p);
    }

    // Exact counters must repeat across rounds at one seed.
    let mut errors = Vec::new();
    for &(name, _, exact) in &PER_LAYER {
        if !exact {
            continue;
        }
        let mut seen: Vec<f64> = per_round
            .iter()
            .filter_map(|l| l.get(name).copied())
            .collect();
        seen.extend(probes.iter().filter_map(|l| l.get(name).copied()));
        if seen.windows(2).any(|p| p[0].to_bits() != p[1].to_bits()) {
            errors.push(format!(
                "exact counter {name} differs between rounds: {seen:?}"
            ));
        }
    }

    let mut layers = Layers::new();
    for &(name, _, exact) in &PER_LAYER {
        let values: Vec<f64> = per_round
            .iter()
            .filter_map(|l| l.get(name).copied())
            .collect();
        if !values.is_empty() {
            layers.insert(name, if exact { values[0] } else { median(&values) });
        }
    }
    let requests: Vec<f64> = per_round
        .iter()
        .filter_map(|l| l.get("pipeline.requests").copied())
        .collect();
    layers.extend(probes[0].iter().map(|(&k, &v)| (k, v)));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let run_ms = get_or_zero(&layers, "pipeline.run_ms");
    let derived = [
        (
            "pipeline.us_per_request",
            ratio(run_ms * 1e3, requests.first().copied().unwrap_or(0.0)),
        ),
        (
            "kernel.ns_per_task",
            ratio(run_ms * 1e6, get_or_zero(&layers, "kernel.tasks_completed")),
        ),
        (
            "capture.randgen_share",
            ratio(get_or_zero(&layers, "capture.randgen_ms"), run_ms),
        ),
        (
            "bench.trace_overhead_frac",
            ratio(median(&traced_s), median(&plain_s)) - 1.0,
        ),
    ];
    layers.extend(derived);
    let get = |name: &str| get_or_zero(&layers, name);

    if let Some(tracer) = last {
        write_spans(args, &tracer)?;
    }
    let agg_share = ratio(
        get("agg.fold_ms") + get("agg.render_ms"),
        median(&traced_s) * 1e3,
    );
    println!(
        "perfbench {} seed={} mode=traced rounds={} units={} error_rate={}",
        args.workload,
        args.seed,
        per_round.len(),
        attempted,
        failed as f64 / attempted as f64,
    );
    println!(
        "hypothesis capture.randgen_share={} (random-tensor capture, of pipeline.run_ms; lab-table1)",
        get("capture.randgen_share")
    );
    println!(
        "hypothesis trace.probe_share={} (traced energy probe, of per-device host time; fleet-mix)",
        get("trace.probe_share")
    );
    println!("hypothesis agg.share={agg_share} (aggregation and rendering, of traced round wall)");
    println!(
        "hypothesis untested: per-event thermal exp() and governor math, and the per-run \
         plan().clone() and stats().clone() calls, need spans inside the program"
    );
    println!(
        "sim_digest {} seed={} {:016x}",
        args.workload,
        args.seed,
        reference.sim_digest()
    );
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit, get_or_zero(&layers, name)))
        .collect();
    let failed = failed.min(attempted);
    Ok(report(
        failed == 0 && errors.is_empty(),
        attempted,
        failed,
        &metrics,
    ))
}

fn get_or_zero(layers: &Layers, name: &str) -> f64 {
    layers.get(name).copied().unwrap_or(0.0)
}

/// Writes the last traced round's spans next to the executable, inside
/// the build directory.
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let path = dir.join(format!(
        "perfbench-spans-{}-{}.tsv",
        args.workload, args.seed
    ));
    let mut out = String::from("name\tparent\tunit\tworker\tstart_ns\tend_ns\n");
    for s in tracer.snapshot() {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.parent, s.unit, s.worker, s.start_ns, s.end_ns
        );
    }
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints the result line and returns the exit code: 0 when every
/// output check passed, 1 otherwise.
fn report(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) -> i32 {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{line}");
    let _ = stdout.flush();
    if correct {
        0
    } else {
        1
    }
}
