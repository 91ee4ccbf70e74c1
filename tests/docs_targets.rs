//! Docs and CI name only cargo targets that exist: every `--bench`,
//! `--example`, `--test` or `--bin <name>` in the files below must resolve to
//! a source file, so deleting or renaming a target without updating the
//! commands that cite it fails here.

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
