//! The command-line idiom shared by the `lab`, `fleet`, `serve` and
//! `figures` front ends.
//!
//! * **Exit codes:** 0 on success, 2 on a usage error, 1 on a
//!   determinism violation or an I/O failure ([`CliError`], [`exit`]).
//! * **Flags** are read through [`Args`] and checked by [`count`],
//!   [`rate`] and [`seed`].
//! * **`AITAX_*` variables** only supply a flag's default and are checked
//!   by the flag's own parser, so `AITAX_ITERS=0` is as much a usage
//!   error as `--iters 0`. A flag on the command line wins.
//! * **Products** run through [`run_product`]: a timed run,
//!   `--verify-determinism` as "run again serially and byte-compare every
//!   file that will be written", then the files.

use std::env::VarError;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use std::{fs, io};

use aitax_core::report::Table;

/// Why a front end stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad flags, values or `AITAX_*` defaults: exit 2.
    Usage(String),
    /// A determinism violation or an I/O failure: exit 1.
    Failed(String),
}

/// Parse errors are usage errors.
impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Usage(e)
    }
}

/// Maps a front end's outcome to its exit code, reporting errors (with
/// the usage text for a usage error) on stderr.
pub fn exit(tool: &str, usage: &str, outcome: Result<(), CliError>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n{usage}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(e)) => {
            eprintln!("{tool}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The command-line arguments after the program name, read flag by flag.
pub struct Args(std::iter::Skip<std::env::Args>);

impl Args {
    /// This process's arguments.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1))
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, checked by `parse` (e.g. [`count`]).
    pub fn parsed<T>(&mut self, flag: &str, parse: Parser<T>) -> Result<T, String> {
        parse(flag, &self.value(flag)?)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Checks the value given for a flag or variable (`name`, for the error).
pub(crate) type Parser<T> = fn(name: &str, value: &str) -> Result<T, String>;

/// A positive count; zero is a usage error.
pub fn count(name: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{name} must be a positive integer, got '{v}'")),
    }
}

/// A probability in `[0,1]`.
pub fn rate(name: &str, v: &str) -> Result<f64, String> {
    match v.parse() {
        Ok(r) if (0.0..=1.0).contains(&r) => Ok(r),
        _ => Err(format!("{name} must be a number in [0,1], got '{v}'")),
    }
}

/// A `u64` seed.
pub fn seed(name: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{name} must be an integer, got '{v}'"))
}

/// `flag` if it was given, else the `AITAX_*` variable `key` checked by
/// the flag's parser, else `fallback`.
fn flag_or_env<T>(
    flag: Option<T>,
    key: &str,
    parse: Parser<T>,
    fallback: impl FnOnce() -> T,
) -> Result<T, String> {
    if let Some(v) = flag {
        return Ok(v);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "AITAX_* variables only supply CLI defaults; the parsed options define the run"
    )]
    match std::env::var(key) {
        Ok(v) => parse(key, &v),
        Err(VarError::NotPresent) => Ok(fallback()),
        Err(VarError::NotUnicode(v)) => parse(key, &v.to_string_lossy()),
    }
}

/// `--iters`, else `AITAX_ITERS`, else `fallback`.
pub fn iters_or_env(flag: Option<usize>, fallback: usize) -> Result<usize, String> {
    flag_or_env(flag, "AITAX_ITERS", count, || fallback)
}

/// `--seed`, else `AITAX_SEED`, else 1.
pub fn seed_or_env(flag: Option<u64>) -> Result<u64, String> {
    flag_or_env(flag, "AITAX_SEED", seed, || 1)
}

/// `--threads`, else `AITAX_THREADS`, else every available core.
/// Artifact bytes never depend on it: the pool merges in input order.
pub fn threads_or_env(flag: Option<usize>) -> Result<usize, String> {
    flag_or_env(flag, "AITAX_THREADS", count, || {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// `table` as the front ends print it: under a `## title` heading, or as
/// bare TSV when `AITAX_TSV=1`.
pub fn section(title: &str, table: &Table) -> String {
    if tsv() {
        table.render_tsv()
    } else {
        format!("## {title}\n\n{}\n", table.render_text())
    }
}

/// Whether `AITAX_TSV=1` asks for machine-readable tables on stdout.
pub fn tsv() -> bool {
    #[expect(
        clippy::disallowed_methods,
        reason = "AITAX_TSV picks the table format on stdout; artifacts do not depend on it"
    )]
    std::env::var("AITAX_TSV").is_ok_and(|v| v == "1")
}

/// Runs `f` and returns its result with the wall-clock seconds it took.
/// Wall time goes to stderr only, never into an artifact.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time goes to stderr only, never into an artifact"
    )]
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Every file a run writes, as `(path, bytes)` in write order.
pub(crate) type Files = Vec<(PathBuf, String)>;

/// A product's artifact set: its artifact files by name, plus the bytes
/// of its `BENCH_*.json` trajectory file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifacts {
    /// `(file name, bytes)`, written under the artifact directory.
    pub files: Vec<(String, String)>,
    /// The trajectory file's bytes.
    pub bench: String,
}

impl Artifacts {
    /// The files to write: each artifact under `out_dir`, then the
    /// trajectory file at `bench`.
    pub fn at(self, out_dir: &Path, bench: &Path) -> Files {
        let mut files: Files = self
            .files
            .into_iter()
            .map(|(name, bytes)| (out_dir.join(name), bytes))
            .collect();
        files.push((bench.to_path_buf(), self.bench));
        files
    }
}

/// Writes every file, creating missing parent directories. An error
/// names the path that failed.
pub fn write_files(files: &[(PathBuf, String)]) -> io::Result<()> {
    for (path, bytes) in files {
        let written = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => fs::create_dir_all(dir),
            _ => Ok(()),
        }
        .and_then(|()| fs::write(path, bytes));
        written.map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    }
    Ok(())
}

/// Runs a product: `run(false)` on the configured workers, timed; with
/// `verify`, `run(true)` — the serial reference — and a byte-compare of
/// every file either run would write (`files`); then writes the files.
/// Returns the report and the configured run's wall seconds. `tool`
/// prefixes the stderr lines.
pub fn run_product<R>(
    tool: &str,
    verify: bool,
    run: impl Fn(bool) -> R,
    files: impl Fn(&R) -> Result<Files, CliError>,
) -> Result<(R, f64), CliError> {
    let (report, secs) = timed(|| run(false));
    let written = files(&report)?;
    if verify {
        let (serial, serial_secs) = timed(|| run(true));
        if files(&serial)? != written {
            return Err(CliError::Failed(
                "DETERMINISM VIOLATION — parallel artifacts differ from serial".into(),
            ));
        }
        eprintln!(
            "{tool}: determinism verified ({} file(s) byte-identical to a serial re-run); \
             speedup {:.2}x ({serial_secs:.2}s -> {secs:.2}s)",
            written.len(),
            serial_secs / secs.max(1e-9),
        );
    }
    write_files(&written).map_err(|e| CliError::Failed(format!("failed to write {e}")))?;
    for (path, _) in &written {
        eprintln!("{tool}: wrote {}", path.display());
    }
    Ok((report, secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsers_accept_valid_and_name_the_input_on_error() {
        assert_eq!(count("--n", "3"), Ok(3));
        for bad in ["0", "-1", "x", ""] {
            let e = count("AITAX_ITERS", bad).unwrap_err();
            assert!(e.starts_with("AITAX_ITERS "), "{e}");
        }
        assert_eq!(rate("--r", "0"), Ok(0.0));
        assert_eq!(rate("--r", "1"), Ok(1.0));
        for bad in ["1.01", "-0.1", "NaN", "inf", "x"] {
            assert!(rate("--r", bad).is_err(), "{bad}");
        }
        assert_eq!(seed("--seed", "0"), Ok(0));
        assert!(seed("--seed", "-1").is_err());
    }

    #[test]
    fn a_given_flag_never_reads_the_environment() {
        assert_eq!(
            flag_or_env(Some(7), "AITAX_CLI_TEST_UNSET", count, || 1),
            Ok(7)
        );
        assert_eq!(
            flag_or_env(None, "AITAX_CLI_TEST_UNSET", count, || 5),
            Ok(5)
        );
    }

    #[test]
    fn section_heads_the_table_unless_tsv() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        let text = section("test", &t);
        if tsv() {
            assert_eq!(text, t.render_tsv());
        } else {
            assert_eq!(text, format!("## test\n\n{}\n", t.render_text()));
        }
    }

    #[test]
    fn artifacts_resolve_under_the_out_dir_then_the_bench_path() {
        let set = Artifacts {
            files: vec![("a.json".into(), "{}".into()), ("a.csv".into(), "x".into())],
            bench: "b".into(),
        };
        let files = set.at(Path::new("out"), Path::new("BENCH.json"));
        let paths: Vec<_> = files.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(
            paths,
            [
                PathBuf::from("out/a.json"),
                PathBuf::from("out/a.csv"),
                PathBuf::from("BENCH.json")
            ]
        );
        assert_eq!(files[2].1, "b");
    }
}
