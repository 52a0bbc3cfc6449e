//! Exit codes of the `lab` binary: 2 for any usage error — an unknown
//! flag, a missing value, a zero count, a bad `AITAX_*` default or an
//! unknown grid — and 0 for `--help`, `--list` and a clean run.

use std::path::PathBuf;
use std::process::Command;

/// Runs `lab` with `env` and `args`, keeping any artifacts out of the
/// source tree. The scratch flags come first so that a flag missing its
/// value stays last.
#[expect(
    clippy::expect_used,
    reason = "a lab binary that cannot start fails the test"
)]
fn lab_exit_code(env: &[(&str, &str)], args: &[&str]) -> Option<i32> {
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
        .status
        .code()
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
