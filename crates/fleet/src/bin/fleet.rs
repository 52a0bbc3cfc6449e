//! `fleet` — run a sampled device population through the fleet engine.
//!
//! ```text
//! cargo run --release --bin fleet -- --population 4096 --requests 1000000
//! ```
//!
//! Prints a cohort summary, writes `fleet_<name>.json` /
//! `fleet_<name>.csv` under `--out` and the `BENCH_fleet.json`
//! population-trajectory file. Artifacts contain only simulated metrics,
//! so their bytes are identical for any `--threads` and any `--shards`
//! split; wall-clock timing of the run itself goes to stderr.
//! `--verify-determinism` proves the property on the spot by re-running
//! serially under a different shard split and comparing bytes.
//!
//! Environment: `AITAX_SEED` (default for `--seed`), `AITAX_THREADS`
//! (default for `--threads`).

use std::path::PathBuf;
use std::process::ExitCode;

use aitax_fleet::{artifact, FleetReport, PopulationSpec};
use aitax_lab::cli::{self, Args, CliError};

const USAGE: &str =
    "usage: fleet [--population N] [--requests N] [--shards N] [--threads N] [--seed N]\n\
     \x20            [--name S] [--fault-rate F] [--multi-tenant-rate F] [--out DIR]\n\
     \x20            [--bench PATH] [--verify-determinism] [--help]\n\
     \n\
     options:\n\
     \x20 --population N        devices to sample (default 256)\n\
     \x20 --requests N          total requests across the fleet (default 100000)\n\
     \x20 --shards N            deterministic work split (default 64); artifact bytes\n\
     \x20                       do not depend on this\n\
     \x20 --threads N           worker threads (default: AITAX_THREADS or all cores)\n\
     \x20 --seed N              root seed (default: AITAX_SEED or 1)\n\
     \x20 --name S              population name for artifacts, a plain file name\n\
     \x20                       without '/' or '\\' (default 'default')\n\
     \x20 --fault-rate F        per-request fault probability in [0,1] (default 0.03)\n\
     \x20 --multi-tenant-rate F probability a device runs a co-resident tenant\n\
     \x20                       workload, in [0,1] (default 0: single-tenant)\n\
     \x20 --out DIR             artifact directory (default target/fleet)\n\
     \x20 --bench PATH          trajectory file (default BENCH_fleet.json)\n\
     \x20 --verify-determinism  re-run serially under a different shard split and\n\
     \x20                       byte-compare artifacts (roughly doubles the runtime)\n\
     \x20 --help, -h            print this help";

fn print_summary(report: &FleetReport) {
    let t = &report.total;
    println!(
        "## fleet '{}' — {} devices, {} requests\n",
        report.population, report.devices, report.requests
    );
    println!(
        "{:<10} {:<18} {:>7} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "group", "label", "devices", "p50 ms", "p95 ms", "p99 ms", "mean ms", "tax", "energy mJ"
    );
    let row = |group: &str, label: &str, c: &aitax_fleet::Cohort| {
        println!(
            "{:<10} {:<18} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8.3} {:>10.3}",
            group,
            label,
            c.devices,
            c.latency.p50_ms(),
            c.latency.p95_ms(),
            c.latency.p99_ms(),
            c.latency.mean(),
            c.tax.mean(),
            c.energy_mj.mean(),
        );
    };
    row("total", "fleet", t);
    for (label, c) in &report.by_chipset {
        row("chipset", label, c);
    }
    for (label, c) in &report.by_thermal {
        row("thermal", label, c);
    }
    for (label, c) in &report.by_engine {
        row("engine", label, c);
    }
    println!();
}

/// A population name: it names the artifact files, so it must be one
/// plain path component, or they would land outside `--out`.
fn population_name(name: &str, v: &str) -> Result<String, String> {
    if v.is_empty() || v == "." || v == ".." || v.contains(['/', '\\']) {
        Err(format!(
            "{name} must be one plain file name (not empty, '.' or '..', no '/' or '\\'), got '{v}'"
        ))
    } else {
        Ok(v.to_string())
    }
}

fn fleet(mut args: Args) -> Result<(), CliError> {
    let mut name = "default".to_string();
    let (mut population, mut requests, mut shards) = (256, 100_000, 64);
    let (mut threads, mut seed, mut verify) = (None, None, false);
    let (mut fault_rate, mut multi_tenant_rate) = (0.03, 0.0);
    let mut out = PathBuf::from("target/fleet");
    let mut bench = PathBuf::from("BENCH_fleet.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--name" => name = args.parsed("--name", population_name)?,
            "--population" => population = args.parsed("--population", cli::count)?,
            "--requests" => requests = args.parsed("--requests", cli::count)?,
            "--shards" => shards = args.parsed("--shards", cli::count)?,
            "--threads" => threads = Some(args.parsed("--threads", cli::count)?),
            "--seed" => seed = Some(args.parsed("--seed", cli::seed)?),
            "--fault-rate" => fault_rate = args.parsed("--fault-rate", cli::rate)?,
            "--multi-tenant-rate" => {
                multi_tenant_rate = args.parsed("--multi-tenant-rate", cli::rate)?;
            }
            "--out" => out = args.value("--out")?.into(),
            "--bench" => bench = args.value("--bench")?.into(),
            "--verify-determinism" => verify = true,
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    let threads = cli::threads_or_env(threads)?;
    let spec = PopulationSpec::new(name)
        .devices(population)
        .seed(cli::seed_or_env(seed)?)
        .fault_rate(fault_rate)
        .multi_tenant_rate(multi_tenant_rate);
    let (report, secs) = cli::run_product(
        "fleet",
        verify,
        |serial| {
            // The serial reference also splits the work differently:
            // byte-identity must hold across both axes at once.
            let (s, t) = match (serial, shards) {
                (false, _) => (shards, threads),
                (true, 1) => (7, 1),
                (true, _) => (1, 1),
            };
            FleetReport::aggregate(&spec, &aitax_fleet::run_fleet(&spec, requests as u64, s, t))
        },
        |report| Ok(artifact::artifacts(report).at(&out, &bench)),
    )?;
    eprintln!(
        "fleet: population '{}' — {} devices / {} requests on {shards} shard(s) × {threads} \
         thread(s) in {secs:.2}s wall ({:.0} req/s)",
        spec.name,
        report.devices,
        report.requests,
        report.requests as f64 / secs.max(1e-9),
    );
    print_summary(&report);
    Ok(())
}

fn main() -> ExitCode {
    cli::exit("fleet", USAGE, fleet(Args::from_env()))
}
