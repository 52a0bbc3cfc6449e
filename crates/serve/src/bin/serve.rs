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

use aitax_core::QosClass;
use aitax_lab::cli::{self, Args, CliError};
use aitax_serve::arrival::check_horizon;
use aitax_serve::{artifact, attribution, scenarios, AdmissionPolicy, ServeReport};

const USAGE: &str = "usage: serve [--scenario NAME] [--list] [--tenants N] [--qos CLASS[,CLASS...]]\n\
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
     \x20 --help, -h            print this help";

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

fn serve(mut args: Args) -> Result<(), CliError> {
    let mut scenario = "smoke".to_string();
    let (mut tenants, mut requests, mut rate_scale, mut admission) = (None, None, None, None);
    let mut qos: Vec<QosClass> = Vec::new();
    let (mut threads, mut seed, mut verify) = (None, None, false);
    let mut out = PathBuf::from("target/serve");
    let mut bench = PathBuf::from("BENCH_serve.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--list" => {
                for name in scenarios::NAMES {
                    println!("{name}");
                }
                return Ok(());
            }
            "--scenario" => scenario = args.value("--scenario")?,
            "--tenants" => tenants = Some(args.parsed("--tenants", cli::count)?),
            "--qos" => {
                qos = args
                    .value("--qos")?
                    .split(',')
                    .map(|s| {
                        QosClass::parse(s.trim()).ok_or_else(|| format!("unknown QoS class '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--arrival-rate" => {
                let raw = args.value("--arrival-rate")?;
                match raw.parse::<f64>() {
                    Ok(r) if r > 0.0 && r.is_finite() => rate_scale = Some(r),
                    _ => {
                        return Err(format!(
                            "--arrival-rate must be positive and finite, got '{raw}'"
                        )
                        .into())
                    }
                }
            }
            "--requests" => requests = Some(args.parsed("--requests", cli::count)?),
            "--admission" => {
                let raw = args.value("--admission")?;
                admission = Some(if raw == "unbounded" {
                    AdmissionPolicy::Unbounded
                } else {
                    let queue_bound = raw
                        .parse()
                        .map_err(|_| "--admission must be an integer or 'unbounded'".to_string())?;
                    AdmissionPolicy::Shed { queue_bound }
                });
            }
            "--threads" => threads = Some(args.parsed("--threads", cli::count)?),
            "--seed" => seed = Some(args.parsed("--seed", cli::seed)?),
            "--out" => out = args.value("--out")?.into(),
            "--bench" => bench = args.value("--bench")?.into(),
            "--verify-determinism" => verify = true,
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }

    let mut cfg = scenarios::by_name(&scenario).ok_or_else(|| {
        format!(
            "unknown scenario '{scenario}' (try: {})",
            scenarios::NAMES.join(", ")
        )
    })?;
    if let Some(n) = tenants {
        // The memory arbiter names tenants by `u32` id.
        if u32::try_from(n - 1).is_err() {
            return Err(format!("--tenants {n} does not fit the u32 tenant ids").into());
        }
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
    for (i, t) in cfg.tenants.iter_mut().enumerate() {
        if !qos.is_empty() {
            t.qos = qos[i % qos.len()];
        }
        if let Some(n) = requests {
            t.requests = n;
        }
    }
    if let Some(factor) = rate_scale {
        cfg = cfg.scale_rates(factor);
    }
    if let Some(admission) = admission {
        cfg = cfg.admission(admission);
    }
    let cfg = cfg.seed(cli::seed_or_env(seed)?);
    for (k, t) in cfg.tenants.iter().enumerate() {
        check_horizon(cfg.seed, k as u64, t.rate_hz, t.requests)
            .map_err(|e| format!("tenant '{}': {e}", t.label))?;
    }
    let threads = cli::threads_or_env(threads)?;

    let (report, secs) = cli::run_product(
        "serve",
        verify,
        |serial| attribution::run_report(&cfg, if serial { 1 } else { threads }).0,
        |report| Ok(artifact::artifacts(report).at(&out, &bench)),
    )?;
    let completed: usize = report.tenants.iter().map(|t| t.completed).sum();
    eprintln!(
        "serve: scenario '{}' — {} tenants / {completed} completed requests ({} solo runs + mix) \
         on {threads} thread(s) in {secs:.2}s wall",
        cfg.name,
        cfg.tenants.len(),
        cfg.tenants.len(),
    );
    print_summary(&report);
    Ok(())
}

fn main() -> ExitCode {
    cli::exit("serve", USAGE, serve(Args::from_env()))
}
