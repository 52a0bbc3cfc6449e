//! The docs quote only numbers the committed outputs give.
//!
//! For each row of EXPERIMENTS.md's paper-vs-measured table and of its
//! calibration-anchor table that a `figures` exhibit regenerates, every
//! number in the measured cell must round, at the precision it is quoted
//! with, from a number in that exhibit's section of
//! `docs/reference_output.txt` (the committed output of
//! `AITAX_ITERS=500 figures`, which CI regenerates byte for byte). A
//! number the output does not print is listed in [`DERIVED`] with the
//! output values it comes from, and recomputed here.
//!
//! EXPERIMENTS.md and the README fence each prose passage that quotes a
//! committed `BENCH_*.json` between `<!-- doc-numbers: BENCH_x.json -->`
//! and `<!-- /doc-numbers -->`. Every number in a fenced passage must
//! round from a number in that file, or be listed in [`BENCH_DERIVED`].
//! A passage fenced with `<!-- doc-numbers: figures <exhibit> -->`
//! quotes that exhibit's section of the reference output instead, and
//! is checked like a measured cell.

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

/// A quoted number no output value rounds to: its exhibit (or
/// `BENCH_*.json` file), the number as quoted, the output values it comes
/// from (each printed verbatim in the exhibit's section or the file) and
/// how.
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
            "0", "1", "2", "4", "6", "8", "12.4", "20.9", "32.2", "56.5", "80.7", "105",
        ],
        |v| r_squared(&v[..6], &v[6..]),
    ),
    // The benchmark's σ = cv × mean.
    ("fig11", "0.03", &["0.001", "26.9"], |v| v[0] * v[1]),
    // The app's p95 over its median, in percent.
    ("fig11", "13", &["61.6", "54.6"], |v| {
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
    ("extras", "24", &["44.2", "33.4"], |v| {
        (1.0 - v[1] / v[0]) * 100.0
    }),
    // CPU ×4 over CPU ×1 watts.
    ("energy", "2", &["6.46", "3.16"], |v| v[0] / v[1]),
];

/// Every derived number a fenced `BENCH_*.json` passage quotes.
const BENCH_DERIVED: &[Derived] = &[
    // Serve p99 inflation, mix over solo: the enhancer, then the indexer.
    (
        "BENCH_serve.json",
        "1.20",
        &["2048.892630", "1709.878114"],
        |v| v[0] / v[1],
    ),
    (
        "BENCH_serve.json",
        "21.75",
        &["1406.840040", "64.677736"],
        |v| v[0] / v[1],
    ),
    // The enhancer's share of the attributed tax, in percent.
    (
        "BENCH_serve.json",
        "80",
        &["9558.794800", "12021.544895"],
        |v| v[0] / v[1] * 100.0,
    ),
];

/// The files each document must fence at least one passage for.
const FENCED: [(&str, &str); 3] = [
    ("EXPERIMENTS.md", "BENCH_fleet.json"),
    ("EXPERIMENTS.md", "BENCH_serve.json"),
    ("README.md", "BENCH_serve.json"),
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

/// Checks every number in `quotes`, taken from `source`: it must round
/// from a number in `printed`, or, when `derived` lists it for `source`,
/// from one of those entries whose inputs are all printed. Marks the
/// entries that held in `used` and records each failing quote.
#[expect(
    clippy::unwrap_used,
    reason = "`numbers` yields only decimal literals, and derived inputs are written as such"
)]
fn check_quotes(
    source: &str,
    printed: &[&str],
    quotes: &[&str],
    derived: &[Derived],
    used: &mut [bool],
    failures: &mut Vec<String>,
) {
    for &quoted in quotes {
        let mut entries = derived
            .iter()
            .enumerate()
            .filter(|(_, (src, q, _, _))| *src == source && *q == quoted)
            .peekable();
        let ok = if entries.peek().is_some() {
            let mut held = false;
            for (d, (_, _, inputs, f)) in entries {
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
            failures.push(format!("{source}: {quoted}"));
        }
    }
}

/// Records each `derived` entry that held for no quote.
fn unused_derived(derived: &[Derived], used: &[bool], failures: &mut Vec<String>) {
    for (d, (source, quoted, _, _)) in derived.iter().enumerate() {
        if !used[d] {
            failures.push(format!("{source}: derived {quoted} holds for no quote"));
        }
    }
}

/// Every fenced passage of `doc`: what it quotes (a committed
/// `BENCH_*.json` file, or `figures <exhibit>`) and its text.
#[expect(clippy::panic, reason = "a malformed fence fails the test")]
fn fenced_passages(doc: &str) -> Vec<(&str, &str)> {
    const OPEN: &str = "<!-- doc-numbers: ";
    const CLOSE: &str = "<!-- /doc-numbers -->";
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find(OPEN) {
        let after = &rest[at + OPEN.len()..];
        let Some((file, body)) = after.split_once(" -->") else {
            panic!("unterminated fence comment");
        };
        let Some((passage, tail)) = body.split_once(CLOSE) else {
            panic!("{file}: fenced passage has no '{CLOSE}'");
        };
        let bench = file.starts_with("BENCH_") && file.ends_with(".json") && !file.contains('/');
        assert!(
            bench || file.starts_with("figures "),
            "fence names '{file}', neither a committed BENCH_*.json nor `figures <exhibit>`"
        );
        assert!(!passage.contains(OPEN), "{file}: fences nest");
        out.push((file, passage));
        rest = tail;
    }
    assert!(!rest.contains(CLOSE), "a fence closes without opening");
    out
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

/// The headers of EXPERIMENTS.md's measured tables: the paper-vs-measured
/// table and the calibration anchors. Both have the exhibit's command in
/// the second column and the measured cell in the fourth.
const MEASURED_TABLES: [&str; 2] = [
    "| Exhibit | Regenerate with | Paper reports | Measured here |",
    "| Anchor | Regenerate with | Paper | Measured |",
];

/// The measured-table rows a `figures` exhibit regenerates:
/// `(exhibit, measured cell)`.
#[expect(clippy::panic, reason = "a missing table fails the test")]
fn measured_rows(experiments: &str) -> Vec<(&str, &str)> {
    let mut rows = Vec::new();
    for header in MEASURED_TABLES {
        let Some(table) = experiments
            .split("\n\n")
            .find(|block| block.starts_with(header))
        else {
            panic!("EXPERIMENTS.md has no table headed '{header}'");
        };
        rows.extend(table.lines().skip(2).filter_map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let exhibit = cells[2].strip_prefix("`figures ")?.strip_suffix('`')?;
            Some((exhibit, cells[4]))
        }));
    }
    rows
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
    let mut rows = measured_rows(&experiments);
    assert!(rows.len() >= 19, "found only {} rows", rows.len());
    rows.extend(
        fenced_passages(&experiments)
            .into_iter()
            .filter_map(|(target, passage)| Some((target.strip_prefix("figures ")?, passage))),
    );
    let mut used = vec![false; DERIVED.len()];
    let mut failures = Vec::new();
    for (exhibit, cell) in rows {
        let Some((_, section)) = sections.iter().find(|(name, _)| *name == exhibit) else {
            failures.push(format!("{exhibit}: no such exhibit"));
            continue;
        };
        check_quotes(
            exhibit,
            &numbers(section, false),
            &numbers(cell, true),
            DERIVED,
            &mut used,
            &mut failures,
        );
    }
    unused_derived(DERIVED, &used, &mut failures);
    assert!(
        failures.is_empty(),
        "EXPERIMENTS.md quotes numbers the reference output does not give:\n{}",
        failures.join("\n")
    );
}

#[test]
fn bench_quotes_come_from_the_committed_files() {
    let mut used = vec![false; BENCH_DERIVED.len()];
    let mut failures = Vec::new();
    let mut fenced = Vec::new();
    let docs = ["EXPERIMENTS.md", "README.md"].map(|name| (name, read(name)));
    for (doc_name, doc) in &docs {
        for (file, passage) in fenced_passages(doc) {
            if file.starts_with("figures ") {
                continue;
            }
            check_quotes(
                file,
                &numbers(&read(file), false),
                &numbers(passage, true),
                BENCH_DERIVED,
                &mut used,
                &mut failures,
            );
            fenced.push((*doc_name, file));
        }
    }
    for want in FENCED {
        assert!(fenced.contains(&want), "{want:?}: no fenced passage");
    }
    unused_derived(BENCH_DERIVED, &used, &mut failures);
    assert!(
        failures.is_empty(),
        "the docs quote numbers the committed BENCH files do not give:\n{}",
        failures.join("\n")
    );
}
