//! The paper's exhibits ([`EXHIBITS`], run by the `figures` binary) and
//! the timing helper of the `cargo bench` harnesses.
//!
//! Every exhibit honours `AITAX_ITERS` (iterations per configuration,
//! default 100; set `AITAX_ITERS=500` for the paper's full methodology),
//! `AITAX_SEED` (default 1), `AITAX_THREADS` (lab sweep workers) and
//! `AITAX_TSV=1` (TSV tables instead of aligned text). A set but invalid
//! value is a usage error, exactly as for the `lab` flag it mirrors.

pub mod exhibits;

pub use exhibits::{Exhibit, Knobs, EXHIBITS};

/// Times `f` over `iters` iterations (after one warm-up call) and prints
/// the mean per-iteration latency. The `cargo bench` harnesses use this
/// instead of an external benchmarking framework so the workspace stays
/// dependency-free.
pub fn bench_case<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per_us = start.elapsed().as_secs_f64() / f64::from(iters) * 1e6;
    println!("{name:<44} {per_us:>12.1} us/iter   ({iters} iters)");
}
