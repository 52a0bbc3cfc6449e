//! Plain-text and TSV table rendering for experiment results.

use std::fmt::Write as _;

/// A simple column-aligned table that can render as text or TSV.
///
/// # Example
///
/// ```
/// use aitax_core::report::Table;
/// let mut t = Table::new(vec!["model", "latency_ms"]);
/// t.row(vec!["mobilenet".into(), "12.3".into()]);
/// assert!(t.render_text().contains("mobilenet"));
/// assert_eq!(t.render_tsv().lines().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders with aligned columns.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders as tab-separated values (header + rows).
    pub fn render_tsv(&self) -> String {
        let mut out = self.headers.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Formats a millisecond quantity with sensible precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 10.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.2}")
    }
}

/// Formats a ratio like `2.3x`.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_render_aligns_columns() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let text = t.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn tsv_round_trip() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        assert_eq!(t.render_tsv(), "x\ty\n1\t2\n3\t4\n");
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(vec!["only"]).row(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(245.7), "246");
        assert_eq!(fmt_ms(24.57), "24.6");
        assert_eq!(fmt_ms(2.457), "2.46");
        assert_eq!(fmt_ratio(7.018), "7.02x");
        assert_eq!(fmt_pct(0.5), "50.0%");
    }
}
