//! The paper's exhibits ([`EXHIBITS`], run by the `figures` binary).
//!
//! Every exhibit honours `AITAX_ITERS` (iterations per configuration,
//! default 100; set `AITAX_ITERS=500` for the paper's full methodology),
//! `AITAX_SEED` (default 1), `AITAX_THREADS` (lab sweep workers) and
//! `AITAX_TSV=1` (TSV tables instead of aligned text). A set but invalid
//! value is a usage error, exactly as for the `lab` flag it mirrors.

mod exhibits;

pub use exhibits::{Exhibit, Knobs, EXHIBITS};
