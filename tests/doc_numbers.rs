//! EXPERIMENTS.md quotes only numbers that `figures` prints.
//!
//! For each row of the paper-vs-measured table that a `figures` exhibit
//! regenerates, every number in the "Measured here" cell must round, at
//! the precision it is quoted with, from a number in that exhibit's
//! section of `docs/reference_output.txt` (the committed output of
//! `AITAX_ITERS=500 figures`, which CI regenerates byte for byte). A
//! number the output does not print is listed in [`DERIVED`] with the
//! output values it comes from, and recomputed here.

use std::fs;
use std::path::Path;

use aitax_bench::EXHIBITS;

/// The heading each exhibit's output starts with, in `figures` order.
const FIRST_HEADINGS: [(&str, &str); 16] = [
    ("table1", "Table I — "),
    ("table2", "Table II — "),
    ("fig3", "Figure 3 — "),
    ("fig4", "Figure 4 — "),
    ("fig5", "Figure 5 — "),
    ("fig6", "Figure 6 — "),
    ("fig7", "Figure 7 — "),
    ("fig8", "Figure 8 — "),
    ("fig9", "Figure 9 — "),
    ("fig10", "Figure 10 — "),
    ("fig11", "Figure 11 — "),
    ("stdlib", "Extra — "),
    ("extras", "Thermal methodology — "),
    ("energy", "Energy shootout — "),
    ("faults", "Fault sweep — "),
    ("serving", "serving '"),
];

/// A quoted number no output value rounds to: its exhibit, the number
/// as EXPERIMENTS.md quotes it, the output values it comes from (each
/// printed verbatim in the exhibit's section) and how.
type Derived = (
    &'static str,
    &'static str,
    &'static [&'static str],
    fn(&[f64]) -> f64,
);

/// Every derived number EXPERIMENTS.md quotes. One quoted number may
/// have several entries (e.g. two different 24% in `extras`); each entry
/// must hold for some quote of its number.
const DERIVED: &[Derived] = &[
    // MobileNet int8 app: (capture + preproc) / inference.
    ("fig4", "2.06", &["10.7", "14.8", "12.4"], |v| {
        (v[0] + v[1]) / v[2]
    }),
    // The FastRPC return path, ms → µs.
    ("fig7", "30", &["0.03"], |v| v[0] * 1e3),
    // R² of inference latency against background loops.
    (
        "fig9",
        "1",
        &[
            "0", "1", "2", "4", "6", "8", "12.4", "20.9", "32.4", "56.4", "80.7", "105",
        ],
        |v| r_squared(&v[..6], &v[6..]),
    ),
    // The benchmark's σ = cv × mean.
    ("fig11", "0.03", &["0.001", "26.9"], |v| v[0] * v[1]),
    // The app's p95 over its median, in percent.
    ("fig11", "12", &["61.0", "54.6"], |v| {
        (v[0] / v[1] - 1.0) * 100.0
    }),
    // Capture + preproc on the SD845 and the SD835.
    ("table2", "26", &["10.8", "14.8"], |v| v[0] + v[1]),
    ("table2", "29", &["12.3", "16.9"], |v| v[0] + v[1]),
    // Thermal inflation: 85 °C over 33 °C, in percent.
    ("extras", "24", &["33.4", "26.9"], |v| {
        (v[0] / v[1] - 1.0) * 100.0
    }),
    // Migration share of the NNAPI slowdown, in percent.
    ("extras", "19", &["305", "247"], |v| {
        (1.0 - v[1] / v[0]) * 100.0
    }),
    // E2E saved by DSP pre-processing: DSP-hosted, then CPU-hosted model.
    ("extras", "17", &["40.3", "33.3"], |v| {
        (1.0 - v[1] / v[0]) * 100.0
    }),
    ("extras", "24", &["43.8", "33.4"], |v| {
        (1.0 - v[1] / v[0]) * 100.0
    }),
    // CPU ×4 over CPU ×1 watts.
    ("energy", "2", &["6.46", "3.16"], |v| v[0] / v[1]),
];

/// The coefficient of determination of the least-squares line through
/// `(x, y)`.
fn r_squared(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
    let syy: f64 = y.iter().map(|b| (b - my).powi(2)).sum();
    sxy * sxy / (sxx * syy)
}

/// The repository file at `rel`.
#[expect(clippy::expect_used, reason = "a missing document fails the test")]
fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).expect("the document exists")
}

/// Every decimal number in `text`, as written. Digits glued to a letter
/// on the left are part of a name (`sd835`, `fp32`, `v1`) and skipped;
/// so, in a quoted cell (`names_right`), are digits glued to a letter
/// on the right (`4T`).
fn numbers(text: &str, names_right: bool) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
        let named_left = start > 0 && bytes[start - 1].is_ascii_alphabetic();
        let named_right = names_right && i < bytes.len() && bytes[i].is_ascii_alphabetic();
        if !named_left && !named_right {
            out.push(&text[start..i]);
        }
    }
    out
}

/// Whether `x` rounds to `quoted` at the number of decimals it shows.
fn rounds_to(x: f64, quoted: &str) -> bool {
    let decimals = quoted.split_once('.').map_or(0, |(_, d)| d.len());
    format!("{x:.decimals$}") == quoted
}

/// Each exhibit's section of the reference output: from its first
/// heading up to the next exhibit's.
#[expect(clippy::panic, reason = "a missing section fails the test")]
fn sections(output: &str) -> Vec<(&'static str, &str)> {
    let starts: Vec<usize> = FIRST_HEADINGS
        .iter()
        .map(|(name, heading)| {
            output
                .find(&format!("## {heading}"))
                .unwrap_or_else(|| panic!("{name}: no '## {heading}' heading"))
        })
        .collect();
    FIRST_HEADINGS
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let end = starts.get(i + 1).copied().unwrap_or(output.len());
            (*name, &output[starts[i]..end])
        })
        .collect()
}

/// The paper-vs-measured rows a `figures` exhibit regenerates:
/// `(exhibit, "Measured here" cell)`.
#[expect(clippy::expect_used, reason = "a missing table fails the test")]
fn measured_rows(experiments: &str) -> Vec<(&str, &str)> {
    let table = experiments
        .split("\n\n")
        .find(|block| block.starts_with("| Exhibit | Regenerate with |"))
        .expect("EXPERIMENTS.md has the paper-vs-measured table");
    table
        .lines()
        .skip(2)
        .filter_map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let exhibit = cells[2].strip_prefix("`figures ")?.strip_suffix('`')?;
            Some((exhibit, cells[4]))
        })
        .collect()
}

#[test]
fn sections_follow_the_exhibit_table() {
    let names: Vec<&str> = EXHIBITS.iter().map(|(name, _)| *name).collect();
    let headed: Vec<&str> = FIRST_HEADINGS.iter().map(|(name, _)| *name).collect();
    assert_eq!(headed, names, "one first heading per exhibit, in order");
    let output = read("docs/reference_output.txt");
    let starts: Vec<usize> = sections(&output)
        .iter()
        .map(|(_, s)| s.as_ptr() as usize)
        .collect();
    assert!(starts.windows(2).all(|w| w[0] < w[1]), "sections in order");
}

#[test]
fn measured_numbers_come_from_the_reference_output() {
    let experiments = read("EXPERIMENTS.md");
    let output = read("docs/reference_output.txt");
    let sections = sections(&output);
    let rows = measured_rows(&experiments);
    assert!(rows.len() >= 15, "found only {} rows", rows.len());
    let mut used = vec![false; DERIVED.len()];
    let mut failures = Vec::new();
    for (exhibit, cell) in rows {
        let Some((_, section)) = sections.iter().find(|(name, _)| *name == exhibit) else {
            failures.push(format!("{exhibit}: no such exhibit"));
            continue;
        };
        let printed = numbers(section, false);
        for quoted in numbers(cell, true) {
            let mut derived = DERIVED
                .iter()
                .enumerate()
                .filter(|(_, (ex, q, _, _))| *ex == exhibit && *q == quoted)
                .peekable();
            let ok = if derived.peek().is_some() {
                let mut held = false;
                for (d, (_, _, inputs, f)) in derived {
                    let values: Vec<f64> = inputs.iter().map(|v| v.parse().unwrap()).collect();
                    if inputs.iter().all(|v| printed.contains(v)) && rounds_to(f(&values), quoted) {
                        used[d] = true;
                        held = true;
                    }
                }
                held
            } else {
                printed
                    .iter()
                    .any(|p| rounds_to(p.parse().unwrap(), quoted))
            };
            if !ok {
                failures.push(format!("{exhibit}: {quoted}"));
            }
        }
    }
    for (d, (exhibit, quoted, _, _)) in DERIVED.iter().enumerate() {
        if !used[d] {
            failures.push(format!("{exhibit}: derived {quoted} holds for no quote"));
        }
    }
    assert!(
        failures.is_empty(),
        "EXPERIMENTS.md quotes numbers the reference output does not give:\n{}",
        failures.join("\n")
    );
}
