//! Canonical JSON rendering primitives for versioned artifacts.
//!
//! Both sweep artifacts (`aitax-lab/v1`) and fleet artifacts
//! (`aitax-fleet/v1`) are hand-rolled (the workspace is dependency-free)
//! and **canonical**: fixed field order, fixed float formatting, no
//! wall-clock or host data — so artifact bytes are identical for any
//! thread count and any machine. Wall-clock performance of a run is
//! reported on stderr by the binaries, never in an artifact.

use std::fmt::Write as _;

use crate::stats::{DistStats, StreamDist};

/// Escapes a string for a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Canonical float formatting for artifacts: six decimal places, `0` for
/// non-finite values (which deterministic runs never produce anyway).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0".into()
    }
}

/// Appends one array element per item, rendered by `row`: each on its
/// own line, `,`-separated — the canonical body of an artifact's JSON
/// arrays.
pub fn json_rows<T>(out: &mut String, items: &[T], mut row: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        row(out, item);
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
}

/// Renders a [`DistStats`] as a canonical JSON object (appended to
/// `out`). Shared by the lab and fleet artifact writers.
pub fn dist_json(out: &mut String, d: &DistStats) {
    let _ = write!(
        out,
        "{{\"n\":{},\"mean_ms\":{},\"stddev_ms\":{},\"cv\":{},\"min_ms\":{},\"p50_ms\":{},\
         \"p95_ms\":{},\"p99_ms\":{},\"max_ms\":{},\"max_dev_from_median\":{},\"cdf\":[",
        d.n,
        json_num(d.mean),
        json_num(d.stddev),
        json_num(d.cv),
        json_num(d.min),
        json_num(d.p50),
        json_num(d.p95),
        json_num(d.p99),
        json_num(d.max),
        json_num(d.max_dev_from_median),
    );
    for (i, (edge, frac)) in d.cdf.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", json_num(*edge), json_num(*frac));
    }
    out.push_str("]}");
}

/// Renders a [`StreamDist`] as a canonical JSON object (appended to
/// `out`): Welford moments, exact min/max, histogram-estimated
/// percentiles and the sparse non-empty histogram bins.
pub fn stream_dist_json(out: &mut String, d: &StreamDist) {
    let _ = write!(
        out,
        "{{\"n\":{},\"mean_ms\":{},\"stddev_ms\":{},\"cv\":{},\"min_ms\":{},\"p50_ms\":{},\
         \"p95_ms\":{},\"p99_ms\":{},\"max_ms\":{},\"hist\":[",
        d.count(),
        json_num(d.mean()),
        json_num(d.stddev()),
        json_num(d.cv()),
        json_num(d.min_ms()),
        json_num(d.p50_ms()),
        json_num(d.p95_ms()),
        json_num(d.p99_ms()),
        json_num(d.max_ms()),
    );
    for (i, (bin, count)) in d.histogram().nonzero_bins().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{bin},{count}]");
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_number_formats() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_num(1.5), "1.500000");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(f64::INFINITY), "0");
    }

    #[test]
    fn dist_json_shape() {
        let mut out = String::new();
        dist_json(&mut out, &DistStats::from_ms(&[1.0, 2.0, 3.0]));
        assert!(out.starts_with("{\"n\":3,"));
        assert!(out.contains("\"cdf\":[["));
        assert!(out.ends_with("]}"));
    }

    #[test]
    fn stream_dist_json_shape() {
        let mut d = StreamDist::new();
        d.record(1.0);
        d.record(10.0);
        let mut out = String::new();
        stream_dist_json(&mut out, &d);
        assert!(out.starts_with("{\"n\":2,"));
        assert!(out.contains("\"hist\":[["));
        assert!(out.ends_with("]}"));
        // Canonical: same accumulator renders the same bytes.
        let mut again = String::new();
        stream_dist_json(&mut again, &d);
        assert_eq!(out, again);
    }
}
