//! Docs and CI name only cargo targets that exist: every `--bench`,
//! `--example`, `--test` or `--bin <name>` in the files below must resolve to
//! a source file, so deleting or renaming a target without updating the
//! commands that cite it fails here. Likewise every `GCS_*` environment
//! variable they name must be one some code reads, and every one the crates
//! read must be in README's table.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// The directory, relative to a package root, that holds targets of a kind.
fn target_dir(flag: &str) -> Option<&'static str> {
    match flag {
        "--bench" => Some("benches"),
        "--example" => Some("examples"),
        "--test" => Some("tests"),
        "--bin" => Some("src/bin"),
        _ => None,
    }
}

/// The repository root and every `crates/*` package root.
fn package_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = vec![root.to_path_buf()];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is readable");
    roots.extend(crates.map(|entry| entry.expect("crates/ entry").path()));
    roots
}

#[test]
fn every_cited_cargo_target_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let roots = package_roots(root);
    let (mut cited, mut dangling) = (0usize, Vec::new());
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let flag = pair[0].trim_start_matches(['`', '(']);
            let Some(dir) = target_dir(flag) else {
                continue;
            };
            // `--bench <name>` or `table1..table9` stands for no one target.
            let name = pair[1].trim_end_matches(['`', ')', ',', '.']);
            let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
            if name.is_empty() || !name.chars().all(is_ident) {
                continue;
            }
            cited += 1;
            let file = format!("{dir}/{name}.rs");
            if !roots.iter().any(|pkg| pkg.join(&file).is_file()) {
                dangling.push(format!("{doc}: {flag} {name}"));
            }
        }
    }
    assert!(cited >= 30, "only {cited} references found: broken scan");
    let dangling = dangling.join("\n");
    assert!(dangling.is_empty(), "no such target:\n{dangling}");
}

/// Every `GCS_*` name in `text`.
fn gcs_names(text: &str) -> BTreeSet<String> {
    let is_name = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    text.match_indices("GCS_")
        .map(|(at, _)| text[at..].chars().take_while(|&c| is_name(c)).collect())
        .collect()
}

/// Adds every `GCS_*` name an `env::var("…")` or `env::var_os("…")` call
/// reads in the `.rs` files under `dir` (build output skipped).
fn env_reads(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                env_reads(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file is readable");
            for (at, call) in text.match_indices("env::var") {
                let rest = text[at + call.len()..].trim_start_matches("_os");
                let Some(arg) = rest.strip_prefix('(') else {
                    continue;
                };
                if let Some(name) = arg.trim_start().strip_prefix('"') {
                    out.extend(gcs_names(name.split('"').next().unwrap_or("")));
                }
            }
        }
    }
}

#[test]
fn every_cited_environment_variable_is_read_and_every_read_one_is_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    for dir in ["crates", "src", "examples", "tests", "benchmarks/e2e"] {
        env_reads(&root.join(dir), &mut read);
    }
    let mut unread = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for name in gcs_names(&text).difference(&read) {
            unread.push(format!("{doc}: {name}"));
        }
    }
    let unread = unread.join("\n");
    assert!(unread.is_empty(), "no code reads:\n{unread}");

    let mut in_crates = BTreeSet::new();
    env_reads(&root.join("crates"), &mut in_crates);
    assert!(!in_crates.is_empty(), "no reads found: broken scan");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let table: String = readme.lines().filter(|l| l.starts_with('|')).collect();
    let documented = gcs_names(&table);
    let undocumented: Vec<_> = in_crates.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "read under crates/ but in no README table: {undocumented:?}"
    );
}
