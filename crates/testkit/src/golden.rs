//! Golden-signature snapshots: TSV renderings of reports under fixed
//! seeds, committed to `tests/goldens/` and diffed with numeric
//! tolerance on every run.
//!
//! A golden catches the regressions figure-shape bands cannot: a change
//! that shifts every number 10% in the same direction keeps all ratios
//! intact but is still a behavioral change someone should sign off on.
//!
//! Workflow:
//! * first run (file missing) — the actual output is written and the
//!   test passes; commit the new file,
//! * later runs — actual vs golden, cell by cell; numeric cells compare
//!   within [`Tolerance`], everything else must match exactly,
//! * intentional change — rerun with `AITAX_BLESS=1` to rewrite the
//!   goldens, then review the diff in version control.

use std::fs;
use std::path::PathBuf;

/// Per-cell numeric tolerance for golden comparison.
///
/// A numeric cell passes when `|actual - golden| <= abs + rel * |golden|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute slack.
    pub abs: f64,
    /// Relative slack as a fraction of the golden value.
    pub rel: f64,
}

impl Tolerance {
    /// Exact match required for numeric cells too.
    pub const EXACT: Tolerance = Tolerance { abs: 0.0, rel: 0.0 };

    /// The default for simulator reports: tiny absolute slack to absorb
    /// float formatting, 0.1% relative slack.
    pub const DEFAULT: Tolerance = Tolerance {
        abs: 1e-9,
        rel: 1e-3,
    };

    fn accepts(&self, actual: f64, golden: f64) -> bool {
        (actual - golden).abs() <= self.abs + self.rel * golden.abs()
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance::DEFAULT
    }
}

/// Directory holding the committed golden files.
pub(crate) fn golden_dir() -> PathBuf {
    // testkit lives at <repo>/crates/testkit; goldens at <repo>/tests/goldens.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn bless_requested() -> bool {
    std::env::var("AITAX_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Compares `actual` against the committed golden `<name>.tsv`.
///
/// Writes the golden (and passes) when the file does not exist yet or
/// `AITAX_BLESS=1` is set; otherwise panics on any cell outside `tol`,
/// listing every mismatching cell.
pub fn check_golden(name: &str, actual: &str, tol: Tolerance) {
    let dir = golden_dir();
    let path = dir.join(format!("{name}.tsv"));
    if bless_requested() || !path.exists() {
        fs::create_dir_all(&dir).expect("create goldens dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path).expect("read golden");
    let mismatches = diff_tsv(actual, &golden, tol);
    assert!(
        mismatches.is_empty(),
        "golden '{name}' drifted ({} mismatch(es)); rerun with AITAX_BLESS=1 \
         to accept:\n  {}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

/// Diffs two TSV documents cell by cell, returning one message per
/// mismatching cell (or structural difference).
pub(crate) fn diff_tsv(actual: &str, golden: &str, tol: Tolerance) -> Vec<String> {
    let a_lines: Vec<&str> = actual.lines().collect();
    let g_lines: Vec<&str> = golden.lines().collect();
    let mut out = Vec::new();
    if a_lines.len() != g_lines.len() {
        out.push(format!(
            "line count: actual {} vs golden {}",
            a_lines.len(),
            g_lines.len()
        ));
    }
    for (row, (a_line, g_line)) in a_lines.iter().zip(&g_lines).enumerate() {
        let a_cells: Vec<&str> = a_line.split('\t').collect();
        let g_cells: Vec<&str> = g_line.split('\t').collect();
        if a_cells.len() != g_cells.len() {
            out.push(format!(
                "row {}: cell count {} vs {}",
                row + 1,
                a_cells.len(),
                g_cells.len()
            ));
            continue;
        }
        for (col, (a, g)) in a_cells.iter().zip(&g_cells).enumerate() {
            let matches = match (a.parse::<f64>(), g.parse::<f64>()) {
                (Ok(av), Ok(gv)) => tol.accepts(av, gv),
                _ => a == g,
            };
            if !matches {
                out.push(format!("row {}, col {}: '{a}' vs '{g}'", row + 1, col + 1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_diff() {
        let doc = "metric\tvalue\nlatency_ms\t12.5\n";
        assert!(diff_tsv(doc, doc, Tolerance::EXACT).is_empty());
    }

    #[test]
    fn numeric_cells_compare_with_tolerance() {
        let a = "latency_ms\t12.5001";
        let g = "latency_ms\t12.5";
        assert!(diff_tsv(a, g, Tolerance::DEFAULT).is_empty());
        assert_eq!(diff_tsv(a, g, Tolerance::EXACT).len(), 1);
    }

    #[test]
    fn text_cells_must_match_exactly() {
        let d = diff_tsv("stage\tn/a", "stage\t0.0", Tolerance::DEFAULT);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("n/a"));
    }

    #[test]
    fn structural_differences_are_reported() {
        let d = diff_tsv("a\tb\n", "a\tb\nc\td\n", Tolerance::DEFAULT);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("line count"));
        let d = diff_tsv("a\tb\tc", "a\tb", Tolerance::DEFAULT);
        assert!(d[0].contains("cell count"));
    }

    #[test]
    fn relative_tolerance_scales_with_magnitude() {
        let tol = Tolerance {
            abs: 0.0,
            rel: 0.01,
        };
        assert!(tol.accepts(101.0, 100.0));
        assert!(!tol.accepts(102.0, 100.0));
        assert!(tol.accepts(0.0101, 0.01));
    }
}
