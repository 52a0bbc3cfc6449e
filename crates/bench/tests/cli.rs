//! Exit codes and determinism of the `figures` binary: 2 for an unknown
//! flag, a bad `AITAX_*` default (a worker count past
//! `cli::MAX_THREADS` among them), an iteration count past the simulated
//! clock's horizon or an unknown exhibit, 0 for `--list`, and a tiny run
//! prints the same bytes twice.

use std::process::{Command, Output};

/// Runs `figures` with `env` and `args`.
fn figures(env: &[(&str, &str)], args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .env_remove("AITAX_ITERS")
        .env_remove("AITAX_SEED")
        .env_remove("AITAX_THREADS")
        .env_remove("AITAX_TSV")
        .envs(env.iter().copied())
        .args(args)
        .output()
        .expect("figures binary runs")
}

/// What a case checks, its `AITAX_*` variables, its arguments and the
/// exit code it expects.
type Case<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [&'a str], i32);

#[test]
fn exit_codes_follow_the_shared_rule() {
    let cases: &[Case] = &[
        ("unknown flag", &[], &["--bogus"], 2),
        ("unknown exhibit", &[], &["fig99"], 2),
        ("AITAX_ITERS=0", &[("AITAX_ITERS", "0")], &["fig7"], 2),
        ("AITAX_ITERS=x", &[("AITAX_ITERS", "x")], &["fig7"], 2),
        ("AITAX_SEED=x", &[("AITAX_SEED", "x")], &["fig7"], 2),
        ("AITAX_THREADS=0", &[("AITAX_THREADS", "0")], &["fig7"], 2),
        (
            "AITAX_THREADS=257",
            &[("AITAX_THREADS", "257")],
            &["fig7"],
            2,
        ),
        (
            "AITAX_ITERS=u64::MAX",
            &[("AITAX_ITERS", HUGE)],
            &["table1"],
            2,
        ),
        ("list", &[], &["--list"], 0),
    ];
    for (what, env, args, code) in cases {
        assert_eq!(figures(env, args).status.code(), Some(*code), "{what}");
    }
}

/// `u64::MAX` as an iteration count.
const HUGE: &str = "18446744073709551615";

/// A count past the horizon is refused at once, naming `AITAX_ITERS`.
#[test]
fn iteration_counts_past_the_horizon_name_the_variable() {
    let out = figures(&[("AITAX_ITERS", HUGE)], &["table1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("error: AITAX_ITERS {HUGE}: scenario '")),
        "{stderr}"
    );
}

#[test]
fn tiny_run_is_byte_identical_across_thread_counts() {
    let run = |threads| {
        let env = [
            ("AITAX_ITERS", "2"),
            ("AITAX_TSV", "1"),
            ("AITAX_THREADS", threads),
        ];
        let out = figures(&env, &["fig7", "fig11"]);
        assert_eq!(out.status.code(), Some(0), "{threads} thread(s)");
        out.stdout
    };
    let serial = run("1");
    assert!(!serial.is_empty());
    assert_eq!(serial, run("2"));
}
