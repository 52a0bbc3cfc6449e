//! `serve` — multi-tenant on-device inference serving on the simulator.
//!
//! ```text
//! cargo run --release --bin serve -- --scenario contention --threads 2
//! ```
//!
//! Runs a named scenario (or a custom tenant mix via `--tenants`),
//! prints the per-tenant QoS/attribution summary, writes
//! `serve_<scenario>.json` / `serve_<scenario>.csv` under `--out` and
//! the `BENCH_serve.json` trajectory file. Artifacts contain only
//! simulated metrics, so their bytes are identical for any `--threads`;
//! wall-clock timing of the run itself goes to stderr.
//! `--verify-determinism` proves that on the spot by re-running serially
//! and comparing bytes (it roughly doubles the runtime).
//!
//! Environment: `AITAX_SEED` (default for `--seed`), `AITAX_THREADS`
//! (default for `--threads`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use aitax_core::QosClass;
use aitax_serve::{artifact, attribution, scenarios, AdmissionPolicy, ServeConfig, ServeReport};

struct Opts {
    scenario: String,
    tenants: Option<usize>,
    qos: Vec<QosClass>,
    rate_scale: f64,
    requests: Option<usize>,
    admission: Option<AdmissionPolicy>,
    threads: usize,
    seed: u64,
    out: PathBuf,
    bench: PathBuf,
    verify: bool,
}

#[expect(
    clippy::disallowed_methods,
    reason = "AITAX_* knobs only supply CLI defaults; the parsed options define the run"
)]
fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn usage() -> &'static str {
    "usage: serve [--scenario NAME] [--list] [--tenants N] [--qos CLASS[,CLASS...]]\n\
     \x20            [--arrival-rate F] [--requests N] [--admission N|unbounded]\n\
     \x20            [--threads N] [--seed N] [--out DIR] [--bench PATH]\n\
     \x20            [--verify-determinism] [--help]\n\
     \n\
     options:\n\
     \x20 --scenario NAME       named scenario: smoke | contention | saturation (default smoke)\n\
     \x20 --list                print the scenario names and exit\n\
     \x20 --tenants N           resize the mix to N tenants, cycling the scenario's specs\n\
     \x20 --qos CLASS,...       override QoS classes, cycled over the tenants\n\
     \x20                       (interactive | best-effort | background)\n\
     \x20 --arrival-rate F      scale every tenant's arrival rate by F (default 1.0)\n\
     \x20 --requests N          override every tenant's request count\n\
     \x20 --admission N         shed arrivals beyond N queued per tenant ('unbounded' lifts it)\n\
     \x20 --threads N           lab worker threads (default: AITAX_THREADS or all cores);\n\
     \x20                       artifact bytes do not depend on this\n\
     \x20 --seed N              root seed for arrivals and machine noise (default: AITAX_SEED or 1)\n\
     \x20 --out DIR             artifact directory (default target/serve)\n\
     \x20 --bench PATH          trajectory file (default BENCH_serve.json)\n\
     \x20 --verify-determinism  re-run serially and byte-compare artifacts (~2x runtime)\n\
     \x20 --help, -h            print this help"
}

fn parse(args: &[String]) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        scenario: "smoke".into(),
        tenants: None,
        qos: Vec::new(),
        rate_scale: 1.0,
        requests: None,
        admission: None,
        threads: env_parse("AITAX_THREADS", aitax_lab::default_threads()),
        seed: env_parse("AITAX_SEED", 1),
        out: PathBuf::from("target/serve"),
        bench: PathBuf::from("BENCH_serve.json"),
        verify: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            "--list" => {
                for name in scenarios::NAMES {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--scenario" => opts.scenario = value("--scenario")?,
            "--tenants" => {
                opts.tenants = Some(
                    value("--tenants")?
                        .parse()
                        .map_err(|_| "--tenants must be a positive integer".to_string())?,
                );
                if opts.tenants == Some(0) {
                    return Err("--tenants must be >= 1".into());
                }
            }
            "--qos" => {
                let raw = value("--qos")?;
                opts.qos = raw
                    .split(',')
                    .map(|s| {
                        QosClass::parse(s.trim()).ok_or_else(|| format!("unknown QoS class '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
                if opts.qos.is_empty() {
                    return Err("--qos needs at least one class".into());
                }
            }
            "--arrival-rate" => {
                opts.rate_scale = value("--arrival-rate")?
                    .parse()
                    .map_err(|_| "--arrival-rate must be a positive number".to_string())?;
                if opts.rate_scale <= 0.0 || !opts.rate_scale.is_finite() {
                    return Err("--arrival-rate must be positive and finite".into());
                }
            }
            "--requests" => {
                let n: usize = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests must be a positive integer".to_string())?;
                if n == 0 {
                    return Err("--requests must be >= 1".into());
                }
                opts.requests = Some(n);
            }
            "--admission" => {
                let raw = value("--admission")?;
                opts.admission = Some(if raw == "unbounded" {
                    AdmissionPolicy::Unbounded
                } else {
                    let bound: usize = raw
                        .parse()
                        .map_err(|_| "--admission must be an integer or 'unbounded'".to_string())?;
                    AdmissionPolicy::Shed { queue_bound: bound }
                });
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_string())?;
                if opts.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--bench" => opts.bench = PathBuf::from(value("--bench")?),
            "--verify-determinism" => opts.verify = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(opts))
}

/// Builds the scenario config the options describe.
fn build_config(opts: &Opts) -> Result<ServeConfig, String> {
    let mut cfg = scenarios::by_name(&opts.scenario).ok_or_else(|| {
        format!(
            "unknown scenario '{}' (try: {})",
            opts.scenario,
            scenarios::NAMES.join(", ")
        )
    })?;
    if let Some(n) = opts.tenants {
        // Cycle the scenario's tenant specs out to N, relabeling clones.
        let base = cfg.tenants.clone();
        cfg.tenants = (0..n)
            .map(|i| {
                let mut t = base[i % base.len()].clone();
                if i >= base.len() {
                    t.label = format!("{}-{}", t.label, i / base.len() + 1);
                }
                t
            })
            .collect();
    }
    if !opts.qos.is_empty() {
        for (i, t) in cfg.tenants.iter_mut().enumerate() {
            t.qos = opts.qos[i % opts.qos.len()];
        }
    }
    if let Some(n) = opts.requests {
        for t in &mut cfg.tenants {
            t.requests = n;
        }
    }
    #[expect(
        clippy::float_cmp,
        reason = "1.0 is the exact no-op default, not a computed value"
    )]
    if opts.rate_scale != 1.0 {
        cfg = cfg.scale_rates(opts.rate_scale);
    }
    if let Some(admission) = opts.admission {
        cfg = cfg.admission(admission);
    }
    Ok(cfg.seed(opts.seed))
}

fn print_summary(report: &ServeReport) {
    println!(
        "## serve '{}' on {} — {} tenants, seed {}\n",
        report.scenario,
        report.soc,
        report.tenants.len(),
        report.seed
    );
    println!(
        "{:<12} {:<12} {:<18} {:>5} {:>5} {:>9} {:>9} {:>7} {:>10} {:>10} {:>10}",
        "tenant",
        "qos",
        "model",
        "done",
        "shed",
        "solo p99",
        "mix p99",
        "infl",
        "suffered",
        "caused",
        "self"
    );
    for t in &report.tenants {
        let inflation = if t.solo.p99 > 0.0 {
            t.multi.p99 / t.solo.p99
        } else {
            0.0
        };
        println!(
            "{:<12} {:<12} {:<18} {:>5} {:>5} {:>9.3} {:>9.3} {:>6.2}x {:>10.3} {:>10.3} {:>10.3}",
            t.label,
            t.qos.label(),
            t.model,
            t.completed,
            t.shed,
            t.solo.p99,
            t.multi.p99,
            inflation,
            t.suffered_ms,
            t.caused_ms,
            t.self_ms,
        );
    }
    println!(
        "\ncontention added {:.3} ms over solo; attributed {:.3} ms \
         ({} membw queue events)\n",
        report.added_ms, report.attributed_ms, report.membw_queued
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cfg = match build_config(&opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "serve wall time goes to stderr only, never into an artifact"
    )]
    let start = Instant::now();
    let (report, _runs) = attribution::run_report(&cfg, opts.threads);
    let secs = start.elapsed().as_secs_f64();
    let total_requests: usize = report.tenants.iter().map(|t| t.completed).sum();
    eprintln!(
        "serve: scenario '{}' — {} tenants / {} completed requests ({} solo runs + mix) \
         on {} thread(s) in {:.2}s wall",
        cfg.name,
        cfg.tenants.len(),
        total_requests,
        cfg.tenants.len(),
        opts.threads,
        secs,
    );

    if opts.verify {
        #[expect(
            clippy::disallowed_methods,
            reason = "serve wall time goes to stderr only, never into an artifact"
        )]
        let serial_start = Instant::now();
        let (serial, _) = attribution::run_report(&cfg, 1);
        let serial_secs = serial_start.elapsed().as_secs_f64();
        if artifact::serve_json(&serial) != artifact::serve_json(&report)
            || artifact::serve_csv(&serial) != artifact::serve_csv(&report)
            || artifact::bench_json(&serial) != artifact::bench_json(&report)
        {
            eprintln!("serve: DETERMINISM VIOLATION — parallel artifacts differ from serial");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "serve: determinism verified ({} thread(s) vs 1, byte-identical); \
             speedup {:.2}x ({:.2}s -> {:.2}s)",
            opts.threads,
            serial_secs / secs.max(1e-9),
            serial_secs,
            secs
        );
    }

    print_summary(&report);

    match artifact::write_artifacts(&report, &opts.out) {
        Ok(paths) => {
            for p in paths {
                eprintln!("serve: wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("serve: failed to write artifacts: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = artifact::write_bench_json(&report, &opts.bench) {
        eprintln!("serve: failed to write {}: {e}", opts.bench.display());
        return ExitCode::FAILURE;
    }
    eprintln!("serve: wrote {}", opts.bench.display());
    ExitCode::SUCCESS
}
