//! The paper's exhibits ([`EXHIBITS`], run by the `figures` binary).
//!
//! Every exhibit honours `AITAX_ITERS` (iterations per configuration,
//! default 100; set `AITAX_ITERS=500` for the paper's full methodology),
//! `AITAX_SEED` (default 1), `AITAX_THREADS` (lab pool workers) and
//! `AITAX_TSV=1` (TSV tables instead of aligned text). A set but invalid
//! value is a usage error, exactly as for the `lab` flag it mirrors.

mod exhibits;

pub use exhibits::{fig5, fig7, fig7_trace, fig8, table1, table2, Exhibit, Knobs, EXHIBITS};
