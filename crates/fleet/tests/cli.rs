//! Exit codes of the `fleet` binary: 2 for any usage error — an unknown
//! flag, a missing value, a zero count, a worker count past
//! `cli::MAX_THREADS`, an out-of-range rate, a `--name` that is not one
//! plain file name, a `--requests` whose busiest device cannot fit the
//! simulated clock or a bad `AITAX_*` default — and 0 for `--help` and
//! a clean run.

use std::path::PathBuf;
use std::process::Command;

/// Runs `fleet` with `env` and `args`, keeping any artifacts out of the
/// source tree. The scratch flags come first so that a flag missing its
/// value stays last.
#[expect(
    clippy::expect_used,
    reason = "a fleet binary that cannot start fails the test"
)]
fn fleet_exit_code(env: &[(&str, &str)], args: &[&str]) -> Option<i32> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fleet-cli");
    Command::new(env!("CARGO_BIN_EXE_fleet"))
        .env_remove("AITAX_SEED")
        .env_remove("AITAX_THREADS")
        .envs(env.iter().copied())
        .arg("--out")
        .arg(dir.join("out"))
        .arg("--bench")
        .arg(dir.join("BENCH_fleet.json"))
        .args(args)
        .output()
        .expect("fleet binary runs")
        .status
        .code()
}

const RUN: &[&str] = &["--population", "4", "--requests", "40", "--shards", "2"];

/// What a case checks, its `AITAX_*` variables, its arguments and the
/// exit code it expects.
type Case<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [&'a str], i32);

#[test]
fn exit_codes_follow_the_shared_rule() {
    let cases: &[Case] = &[
        ("unknown flag", &[], &["--bogus"], 2),
        ("missing value", &[], &["--name"], 2),
        ("name ../x", &[], &[RUN, &["--name", "../x"]].concat(), 2),
        ("name a/b", &[], &[RUN, &["--name", "a/b"]].concat(), 2),
        ("zero requests", &[], &["--requests", "0"], 2),
        ("zero population", &[], &["--population", "0"], 2),
        (
            "3e11 requests on one device",
            &[],
            &["--population", "1", "--requests", "300000000000"],
            2,
        ),
        (
            "u64::MAX requests over 4096 devices",
            &[],
            &["--population", "4096", "--requests", "18446744073709551615"],
            2,
        ),
        ("zero shards", &[], &["--shards", "0"], 2),
        ("zero threads", &[], &["--threads", "0"], 2),
        (
            "257 threads",
            &[],
            &[RUN, &["--threads", "257"]].concat(),
            2,
        ),
        ("fault rate above 1", &[], &["--fault-rate", "1.5"], 2),
        (
            "negative multi-tenant rate",
            &[],
            &["--multi-tenant-rate", "-0.1"],
            2,
        ),
        ("AITAX_THREADS=0", &[("AITAX_THREADS", "0")], RUN, 2),
        ("AITAX_THREADS=257", &[("AITAX_THREADS", "257")], RUN, 2),
        ("AITAX_SEED=x", &[("AITAX_SEED", "x")], RUN, 2),
        ("help", &[], &["--help"], 0),
        (
            "verify",
            &[],
            &[RUN, &["--threads", "2", "--verify-determinism"]].concat(),
            0,
        ),
    ];
    for (what, env, args, code) in cases {
        assert_eq!(fleet_exit_code(env, args), Some(*code), "{what}");
    }
}

/// `u64::MAX` requests on one device: a usage error naming the flag.
#[test]
fn requests_past_the_clock_name_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--population", "1", "--requests", "18446744073709551615"])
        .output()
        .expect("fleet binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--requests"), "{stderr}");
}
