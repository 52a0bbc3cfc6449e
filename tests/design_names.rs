//! DESIGN.md §4 names only types that exist: every identifier starting
//! with an uppercase letter inside a backticked span of that section must
//! appear, as a whole word, in the code (comments aside) of some `.rs`
//! file under `crates/` or `src/`.

use std::fs;
use std::path::{Path, PathBuf};

/// Section 4 of DESIGN.md: from its heading up to the next `## ` heading.
fn section_4(design: &str) -> &str {
    let start = design.find("\n## 4.").unwrap_or(design.len());
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
    let names = backticked_type_names(section_4(&design));
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
