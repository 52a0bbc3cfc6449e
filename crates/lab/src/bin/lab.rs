//! `lab` — run a named scenario grid through the sweep engine.
//!
//! ```text
//! cargo run --release --bin lab -- --grid fig11 --threads 4
//! ```
//!
//! Prints the grid's presentation table, writes `lab_<grid>.json` /
//! `lab_<grid>.csv` under `--out` and the `BENCH_lab.json`
//! perf-trajectory file. Artifacts contain only simulated metrics, so
//! their bytes are identical for any `--threads`; wall-clock timing of
//! the sweep itself goes to stderr. `--verify-determinism` proves the
//! property on the spot by re-running serially and comparing bytes.
//!
//! Environment: `AITAX_ITERS`, `AITAX_SEED` (defaults for `--iters` /
//! `--seed`), `AITAX_THREADS` (default for `--threads`), `AITAX_TSV=1`
//! (TSV table output).

use std::path::PathBuf;
use std::process::ExitCode;

use aitax_lab::cli::{self, Args, CliError};
use aitax_lab::{artifact, chrome, render, scenarios, Grid, SweepReport};

const USAGE: &str = "usage: lab --grid NAME [--threads N] [--repeats N] [--iters N] [--seed N]\n\
     \x20          [--out DIR] [--bench PATH] [--trace PATH] [--verify-determinism]\n\
     \x20      lab --list\n\
     \n\
     options:\n\
     \x20 --grid NAME           the sweep grid to run (see --list)\n\
     \x20 --list                print the grid names and sizes and exit\n\
     \x20 --threads N           worker threads (default: all cores); artifact bytes\n\
     \x20                       do not depend on this\n\
     \x20 --repeats N           override the grid's repeat count\n\
     \x20 --iters N             iterations per scenario (default: AITAX_ITERS or 30)\n\
     \x20 --seed N              root seed (default: AITAX_SEED or 1)\n\
     \x20 --out DIR             artifact directory (default target/lab)\n\
     \x20 --bench PATH          trajectory file (default BENCH_lab.json)\n\
     \x20 --trace PATH          export a Chrome trace of the grid's first job\n\
     \x20 --verify-determinism  re-run serially and byte-compare artifacts (~2x runtime)\n\
     \x20 --help, -h            print this help";

/// The Chrome trace of the grid's first job, run with full tracing.
fn first_job_trace(grid: &Grid) -> Result<String, String> {
    let Some(job) = grid.expand().into_iter().next() else {
        return Err(format!("grid '{}' has no jobs", grid.name));
    };
    let Some(trace) = job.config().tracing(true).run().trace else {
        return Err("the traced run recorded no trace".into());
    };
    Ok(chrome::chrome_trace(
        &trace,
        &format!("{} · {}", grid.name, job.scenario.label),
    ))
}

fn lab(mut args: Args) -> Result<(), CliError> {
    let (mut grid, mut list, mut verify) = (None, false, false);
    let (mut threads, mut repeats, mut iters, mut seed) = (None, None, None, None);
    let mut trace: Option<PathBuf> = None;
    let mut out = PathBuf::from("target/lab");
    let mut bench = PathBuf::from("BENCH_lab.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--grid" => grid = Some(args.value("--grid")?),
            "--list" => list = true,
            "--threads" => threads = Some(args.parsed("--threads", cli::count)?),
            "--repeats" => repeats = Some(args.parsed("--repeats", cli::count)?),
            "--iters" => iters = Some(args.parsed("--iters", cli::count)?),
            "--seed" => seed = Some(args.parsed("--seed", cli::seed)?),
            "--out" => out = args.value("--out")?.into(),
            "--bench" => bench = args.value("--bench")?.into(),
            "--trace" => trace = Some(args.value("--trace")?.into()),
            "--verify-determinism" => verify = true,
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    // The horizon check names where the iteration count came from.
    let iters_from = if iters.is_some() {
        "--iters"
    } else {
        "AITAX_ITERS"
    };
    let iters = cli::iters_or_env(iters, 30)?;
    let seed = cli::seed_or_env(seed)?;
    let threads = cli::threads_or_env(threads)?;

    if list {
        for name in scenarios::NAMES {
            let Some(g) = scenarios::by_name(name, iters, seed) else {
                return Err(CliError::Failed(format!(
                    "grid '{name}' is listed but not defined"
                )));
            };
            println!(
                "{name:<8} {} scenarios × {} repeats = {} jobs",
                g.scenarios().len(),
                g.repeats,
                g.job_count()
            );
        }
        return Ok(());
    }

    let name = grid.ok_or_else(|| "--grid is required".to_string())?;
    let mut grid = scenarios::by_name(&name, iters, seed).ok_or_else(|| {
        format!(
            "unknown grid '{name}' (available: {})",
            scenarios::NAMES.join(", ")
        )
    })?;
    if let Some(r) = repeats {
        grid = grid.repeats(r);
    }
    grid.check_horizon()
        .map_err(|e| format!("{iters_from} {iters}: {e}"))?;
    let (report, secs) = cli::run_product(
        "lab",
        verify,
        |serial| {
            let results = aitax_lab::run_jobs(grid.expand(), if serial { 1 } else { threads });
            SweepReport::aggregate(&grid, &results)
        },
        |report| {
            let mut files = artifact::artifacts(report).at(&out, &bench);
            if let Some(path) = &trace {
                files.push((
                    path.clone(),
                    first_job_trace(&grid).map_err(CliError::Failed)?,
                ));
            }
            Ok(files)
        },
    )?;
    eprintln!(
        "lab: grid '{}' — {} jobs on {threads} thread(s) in {secs:.2}s wall",
        grid.name, report.jobs
    );
    // The presentation table each grid renders best with.
    let table = match grid.name.as_str() {
        "fig9" | "fig10" => render::multitenancy_table(&report),
        "table1" => render::model_latency_table(&report),
        "table2" => render::platform_table(&report),
        "faults" => render::fault_table(&report),
        _ => render::distribution_table(&report),
    };
    print!(
        "{}",
        cli::section(&format!("lab sweep — {}", grid.name), &table)
    );
    Ok(())
}

fn main() -> ExitCode {
    cli::exit("lab", USAGE, lab(Args::from_env()))
}
