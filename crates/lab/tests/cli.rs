//! Exit codes of the `lab` binary: 2 for any usage error — an unknown
//! flag, a missing value, a zero count, a bad `AITAX_*` default, an
//! unknown grid or an iteration count past the simulated clock's
//! horizon — and 0 for `--help`, `--list` and a clean run.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `lab` with `env` and `args`, keeping any artifacts out of the
/// source tree. The scratch flags come first so that a flag missing its
/// value stays last.
#[expect(
    clippy::expect_used,
    reason = "a lab binary that cannot start fails the test"
)]
fn lab(env: &[(&str, &str)], args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lab-cli");
    Command::new(env!("CARGO_BIN_EXE_lab"))
        .env_remove("AITAX_ITERS")
        .env_remove("AITAX_SEED")
        .env_remove("AITAX_THREADS")
        .envs(env.iter().copied())
        .arg("--out")
        .arg(dir.join("out"))
        .arg("--bench")
        .arg(dir.join("BENCH_lab.json"))
        .args(args)
        .output()
        .expect("lab binary runs")
}

/// `lab`'s exit code for `env` and `args`.
fn lab_exit_code(env: &[(&str, &str)], args: &[&str]) -> Option<i32> {
    lab(env, args).status.code()
}

const RUN: &[&str] = &["--grid", "smoke", "--iters", "1", "--threads", "2"];

#[test]
fn zero_counts_are_usage_errors() {
    for flag in ["--repeats", "--iters", "--threads"] {
        let args = ["--grid", "smoke", "--iters", "1", flag, "0"];
        assert_eq!(lab_exit_code(&[], &args), Some(2), "{flag} 0");
    }
}

/// What a case checks, its `AITAX_*` variables, its arguments and the
/// exit code it expects.
type Case<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [&'a str], i32);

#[test]
fn exit_codes_follow_the_shared_rule() {
    let cases: &[Case] = &[
        ("unknown flag", &[], &["--bogus"], 2),
        ("missing value", &[], &["--grid"], 2),
        ("unknown grid", &[], &["--grid", "nope"], 2),
        (
            "AITAX_ITERS=0",
            &[("AITAX_ITERS", "0")],
            &["--grid", "smoke"],
            2,
        ),
        (
            "AITAX_ITERS=x",
            &[("AITAX_ITERS", "x")],
            &["--grid", "smoke"],
            2,
        ),
        ("AITAX_SEED=x", &[("AITAX_SEED", "x")], RUN, 2),
        (
            "AITAX_THREADS=0",
            &[("AITAX_THREADS", "0")],
            &["--grid", "smoke", "--iters", "1"],
            2,
        ),
        ("flag beats env", &[("AITAX_ITERS", "0")], RUN, 0),
        ("help", &[], &["--help"], 0),
        ("list", &[], &["--list"], 0),
        ("verify", &[], &[RUN, &["--verify-determinism"]].concat(), 0),
    ];
    for (what, env, args, code) in cases {
        assert_eq!(lab_exit_code(env, args), Some(*code), "{what}");
    }
}

/// `u64::MAX` as an iteration count.
const HUGE: &str = "18446744073709551615";

/// A count whose scenarios would run past half of the simulated clock's
/// range is refused at once, naming the flag or variable it came from;
/// a grid that clamps its iterations (`faults`, at most 40) still runs.
#[test]
fn iteration_counts_past_the_horizon_are_usage_errors() {
    let cases: &[Case] = &[
        (
            "benchmark grid",
            &[],
            &["--grid", "table1", "--iters", HUGE],
            2,
        ),
        ("app grid", &[], &["--grid", "fig10", "--iters", HUGE], 2),
        ("mixed grid", &[], &["--grid", "smoke", "--iters", HUGE], 2),
        ("variable", &[("AITAX_ITERS", HUGE)], &["--grid", "fig9"], 2),
        (
            "faults clamps to 40",
            &[],
            &["--grid", "faults", "--iters", HUGE, "--threads", "2"],
            0,
        ),
    ];
    for (what, env, args, code) in cases {
        let out = lab(env, args);
        assert_eq!(out.status.code(), Some(*code), "{what}");
        if *code == 2 {
            let named = if env.is_empty() {
                "--iters"
            } else {
                "AITAX_ITERS"
            };
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.starts_with(&format!("error: {named} {HUGE}: scenario '")),
                "{what}: {stderr}"
            );
        }
    }
}
