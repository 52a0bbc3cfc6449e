//! `figures` — regenerate the paper's tables and figures and the
//! extension studies.
//!
//! ```text
//! cargo run --release -p aitax-bench --bin figures -- fig5 fig11
//! ```
//!
//! Runs the named exhibits in the order given, or every exhibit in table
//! order when none is named. That full output at `AITAX_ITERS=500` is
//! committed as `docs/reference_output.txt`, which CI regenerates and
//! compares byte for byte; EXPERIMENTS.md quotes its numbers by hand.
//! Environment: `AITAX_ITERS`, `AITAX_SEED`, `AITAX_THREADS`,
//! `AITAX_TSV=1` (see [`aitax_bench::Knobs`]).

use std::process::ExitCode;

use aitax_bench::{Exhibit, Knobs, EXHIBITS};
use aitax_lab::cli::{self, Args, CliError};

const USAGE: &str = "usage: figures [--list] [EXHIBIT...]\n\
     \n\
     Runs the named exhibits, or all of them in order when none is named.\n\
     \n\
     options:\n\
     \x20 --list  print the exhibit names and exit\n\
     \n\
     environment: AITAX_ITERS (iterations, default 100), AITAX_SEED (default 1),\n\
     AITAX_THREADS (pool workers), AITAX_TSV=1 (TSV tables)";

fn figures(args: Args) -> Result<(), CliError> {
    let mut selected: Vec<Exhibit> = Vec::new();
    let mut list = false;
    for arg in args {
        match arg.as_str() {
            "--list" => list = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown argument '{flag}'").into());
            }
            name => selected.push(
                *EXHIBITS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or_else(|| format!("unknown exhibit '{name}' (see --list)"))?,
            ),
        }
    }
    if list {
        for (name, _) in EXHIBITS {
            println!("{name}");
        }
        return Ok(());
    }
    let knobs = Knobs::from_env()?;
    if selected.is_empty() {
        selected = EXHIBITS.to_vec();
    }
    for (_, run) in selected {
        print!("{}", run(knobs));
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::exit("figures", USAGE, figures(Args::from_env()))
}
