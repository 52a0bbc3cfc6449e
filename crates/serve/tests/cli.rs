//! Exit codes of the `serve` binary: 2 for any usage error — an unknown
//! flag, a missing value, a zero count, a worker count past
//! `cli::MAX_THREADS`, a tenant count past the `u32` tenant ids, a zero
//! rate, a rate or request count under which some tenant's arrivals do
//! not fit the simulated clock, a bad `AITAX_*` default or an unknown
//! scenario — and 0 for `--help`, `--list` and a clean run.

use std::path::PathBuf;
use std::process::Command;

/// Runs `serve` with `env` and `args`, keeping any artifacts out of the
/// source tree. The scratch flags come first so that a flag missing its
/// value stays last.
#[expect(
    clippy::expect_used,
    reason = "a serve binary that cannot start fails the test"
)]
fn serve_exit_code(env: &[(&str, &str)], args: &[&str]) -> Option<i32> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-cli");
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .env_remove("AITAX_SEED")
        .env_remove("AITAX_THREADS")
        .envs(env.iter().copied())
        .arg("--out")
        .arg(dir.join("out"))
        .arg("--bench")
        .arg(dir.join("BENCH_serve.json"))
        .args(args)
        .output()
        .expect("serve binary runs")
        .status
        .code()
}

const RUN: &[&str] = &["--scenario", "smoke", "--requests", "2"];

/// What a case checks, its `AITAX_*` variables, its arguments and the
/// exit code it expects.
type Case<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [&'a str], i32);

#[test]
fn exit_codes_follow_the_shared_rule() {
    let cases: &[Case] = &[
        ("unknown flag", &[], &["--bogus"], 2),
        ("missing value", &[], &["--scenario"], 2),
        ("zero requests", &[], &["--requests", "0"], 2),
        ("zero tenants", &[], &["--tenants", "0"], 2),
        (
            "tenant ids past u32",
            &[],
            &["--tenants", "18446744073709551615", "--requests", "1"],
            2,
        ),
        ("zero threads", &[], &["--threads", "0"], 2),
        (
            "257 threads",
            &[],
            &[RUN, &["--threads", "257"]].concat(),
            2,
        ),
        ("zero arrival rate", &[], &["--arrival-rate", "0"], 2),
        (
            "infinite mean gap",
            &[],
            &[RUN, &["--arrival-rate", "1e-310"]].concat(),
            2,
        ),
        (
            "expected arrivals past the clock",
            &[],
            &[RUN, &["--arrival-rate", "1e-11"]].concat(),
            2,
        ),
        (
            "drawn arrivals past the horizon",
            &[],
            &[RUN, &["--arrival-rate", "1.5e-11"]].concat(),
            2,
        ),
        (
            "request count past the clock",
            &[],
            &["--requests", "18446744073709551615"],
            2,
        ),
        (
            "sparse arrivals within the horizon",
            &[],
            &[RUN, &["--arrival-rate", "1e-10"]].concat(),
            0,
        ),
        ("unknown scenario", &[], &["--scenario", "nope"], 2),
        ("AITAX_THREADS=0", &[("AITAX_THREADS", "0")], RUN, 2),
        ("AITAX_THREADS=257", &[("AITAX_THREADS", "257")], RUN, 2),
        ("AITAX_SEED=x", &[("AITAX_SEED", "x")], RUN, 2),
        ("help", &[], &["--help"], 0),
        ("list", &[], &["--list"], 0),
        (
            "verify",
            &[],
            &[RUN, &["--threads", "2", "--verify-determinism"]].concat(),
            0,
        ),
    ];
    for (what, env, args, code) in cases {
        assert_eq!(serve_exit_code(env, args), Some(*code), "{what}");
    }
}
