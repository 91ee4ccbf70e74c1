//! Docs and CI name only cargo targets that exist: every `--bench`,
//! `--example`, `--test` or `--bin <name>` in the files below must resolve to
//! a source file, so deleting or renaming a target without updating the
//! commands that cite it fails here. The other direction holds too: every
//! example is a row of README's example table and every bench target is
//! named in EXPERIMENTS.md or README.md. Likewise every `GCS_*` environment
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

/// Whether `name` occurs in `text` as a whole identifier.
fn names_word(text: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn every_example_and_bench_target_is_cited() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |doc: &str| std::fs::read_to_string(root.join(doc)).expect(doc);
    let (readme, experiments) = (read("README.md"), read("EXPERIMENTS.md"));
    let mut uncited = Vec::new();

    let rows: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| example |"))
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(rows.len() > 2, "README has no example table");
    let examples = std::fs::read_dir(root.join("examples")).expect("examples/ is readable");
    for entry in examples {
        let path = entry.expect("examples/ entry").path();
        let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let row = format!("| `{name}` |");
        if path.extension().is_some_and(|e| e == "rs") && !rows.iter().any(|r| r.starts_with(&row))
        {
            uncited.push(format!("example {name}: no row in README's example table"));
        }
    }

    let manifest = read("crates/bench/Cargo.toml");
    let mut benches = 0;
    for block in manifest.split("[[bench]]").skip(1) {
        let name = block
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = \""))
            .and_then(|rest| rest.split('"').next())
            .expect("every [[bench]] has a name");
        benches += 1;
        if !names_word(&experiments, name) && !names_word(&readme, name) {
            uncited.push(format!(
                "bench {name}: named in neither EXPERIMENTS.md nor README.md"
            ));
        }
    }
    assert!(
        benches >= 10,
        "only {benches} [[bench]] targets found: broken scan"
    );
    let uncited = uncited.join("\n");
    assert!(uncited.is_empty(), "targets no document cites:\n{uncited}");
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
