//! Exit codes of the `lab` binary on bad counts: zero repeats,
//! iterations or threads is a usage error (exit 2), as it is for `fleet`
//! and `serve`.

use std::path::PathBuf;
use std::process::Command;

/// Runs `lab` with `args`, keeping any artifacts out of the source tree.
#[expect(
    clippy::expect_used,
    reason = "a lab binary that cannot start fails the test"
)]
fn lab_exit_code(args: &[&str]) -> Option<i32> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lab-cli");
    Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(args)
        .arg("--out")
        .arg(dir.join("out"))
        .arg("--bench")
        .arg(dir.join("BENCH_lab.json"))
        .output()
        .expect("lab binary runs")
        .status
        .code()
}

#[test]
fn zero_counts_are_usage_errors() {
    for flag in ["--repeats", "--iters", "--threads"] {
        let args = ["--grid", "smoke", "--iters", "1", flag, "0"];
        assert_eq!(lab_exit_code(&args), Some(2), "{flag} 0");
    }
}
