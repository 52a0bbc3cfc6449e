//! Serving on reused machines equals serving on fresh ones. At one
//! thread `run_report` threads a single `SimContext` through all N+1
//! simulations, so every run after the first resets a machine the
//! previous run left dirty; each must still be `Debug`-identical to its
//! own `run_scenario` call, which boots a fresh machine.

use aitax_serve::{run_report, run_scenario, scenarios};

#[test]
fn reused_context_runs_match_fresh_machines() {
    for name in ["smoke", "contention"] {
        for seed in [1, 9001] {
            let cfg = scenarios::by_name(name).unwrap().seed(seed);
            let (_, reused) = run_report(&cfg, 1);
            let fresh: Vec<_> = (0..cfg.tenants.len())
                .map(Some)
                .chain([None])
                .map(|only| run_scenario(&cfg, only))
                .collect();
            assert_eq!(
                format!("{reused:?}"),
                format!("{fresh:?}"),
                "{name} at seed {seed}"
            );
        }
    }
}
