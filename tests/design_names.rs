//! DESIGN.md names only code that exists:
//!
//! * §4: every identifier starting with an uppercase letter inside a
//!   backticked span must appear, as a whole word, in the code (comments
//!   aside) of some `.rs` file under `crates/` or `src/`;
//! * §3: every backticked `aitax-<crate>::…` path must name a crate under
//!   `crates/`, and each identifier after the crate must appear, as a
//!   whole word, in that crate's `src/` code.

use std::fs;
use std::path::{Path, PathBuf};

/// Section `n` of DESIGN.md: from its heading up to the next `## `
/// heading.
fn section<'a>(design: &'a str, n: &str) -> &'a str {
    let start = design.find(&format!("\n## {n}.")).unwrap_or(design.len());
    let rest = &design[start + 1..];
    let end = rest.find("\n## ").unwrap_or(rest.len());
    &rest[..end]
}

/// Identifiers starting with an uppercase letter inside backticked spans.
fn backticked_type_names(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        for word in span.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            if word.starts_with(|c: char| c.is_ascii_uppercase()) && !names.contains(&word) {
                names.push(word);
            }
        }
    }
    names
}

/// Whether `name` occurs in `text` with no identifier character on
/// either side.
fn has_word(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

/// `src` with every `//` comment (doc comments included) cut off.
fn code_only(src: &str) -> String {
    src.lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every backticked `aitax-<crate>::…` span in `text` whose crate or
/// path identifiers the code under `root` lacks, as `crate::identifier`.
fn missing_crate_paths(root: &Path, text: &str) -> Vec<String> {
    let mut missing = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        let Some(rest) = span.strip_prefix("aitax-") else {
            continue;
        };
        let (krate, path) = rest.split_once("::").unwrap_or((rest, ""));
        let mut files = Vec::new();
        rust_sources(&root.join("crates").join(krate).join("src"), &mut files);
        if files.is_empty() {
            missing.push(format!("aitax-{krate}"));
            continue;
        }
        let code: String = files
            .iter()
            .map(|f| code_only(&fs::read_to_string(f).unwrap_or_default()))
            .collect();
        for word in path.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            if !word.is_empty() && !has_word(&code, word) {
                missing.push(format!("aitax-{krate}::{word}"));
            }
        }
    }
    missing
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn design_section_4_names_only_real_types() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let names = backticked_type_names(section(&design, "4"));
    assert!(
        names.contains(&"Machine"),
        "§4 not found or lost its backticks: {names:?}"
    );

    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    rust_sources(&root.join("src"), &mut files);
    let sources: Vec<String> = files
        .iter()
        .map(|f| code_only(&fs::read_to_string(f).unwrap()))
        .collect();

    let missing: Vec<&str> = names
        .into_iter()
        .filter(|name| !sources.iter().any(|src| has_word(src, name)))
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md §4 names types that no code under crates/ or src/ defines or uses: {missing:?}"
    );
}

#[test]
fn design_section_3_names_only_real_modules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let index = section(&design, "3");
    assert!(
        index.contains("`aitax-soc::catalog`"),
        "§3 not found or lost its backticks"
    );
    let missing = missing_crate_paths(root, index);
    assert!(
        missing.is_empty(),
        "DESIGN.md §3 names crates or items that the code does not have: {missing:?}"
    );
}

#[test]
fn crate_paths_must_name_code_of_that_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(missing_crate_paths(root, "`aitax-soc::catalog`, `aitax-pipeline`").is_empty());
    assert_eq!(
        missing_crate_paths(
            root,
            "`aitax-core::runmode::no_such_item`, `aitax-nowhere`, `aitax-soc::Machine`"
        ),
        [
            "aitax-core::no_such_item",
            "aitax-nowhere",
            "aitax-soc::Machine"
        ]
    );
}

#[test]
fn word_match_ignores_longer_identifiers() {
    assert!(has_word("let m = Machine::new();", "Machine"));
    assert!(!has_word("struct MachineStats;", "Machine"));
    assert!(!has_word("fn is_machine() {}", "Machine"));
    assert!(!has_word(
        &code_only("/// Simulator-wide id.\nlet id = 1;"),
        "Simulator"
    ));
    assert_eq!(
        backticked_type_names("a `dyn Actor` and `Calendar::reset`, not Plain"),
        ["Actor", "Calendar"]
    );
}
