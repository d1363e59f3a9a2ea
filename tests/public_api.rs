//! Public-API snapshot: the `pub` surface of every workspace crate and of
//! the `xability` facade is recorded in `tests/public_api.txt` and diffed
//! here, so API churn is always a deliberate, reviewed change (this
//! PR-visible file must be updated together with the code).
//!
//! To refresh the snapshot after an intentional API change:
//!
//! ```text
//! UPDATE_PUBLIC_API=1 cargo test --test public_api
//! ```
//!
//! The extractor is [`derive_snapshot`]: a line scan at the granularity
//! where accidental surface changes happen, not a parser.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The snapshotted crates: the facade and all nine workspace crates.
const CRATE_ROOTS: [&str; 10] = [
    "src",
    "crates/bench/src",
    "crates/consensus/src",
    "crates/core/src",
    "crates/harness/src",
    "crates/obs/src",
    "crates/protocol/src",
    "crates/services/src",
    "crates/sim/src",
    "crates/store/src",
];
/// Where the snapshot lives, relative to the workspace root.
const SNAPSHOT: &str = "tests/public_api.txt";

/// Derives the snapshot contents from the sources under the workspace
/// `root` — what [`SNAPSHOT`] must hold.
fn derive_snapshot(root: &Path) -> Result<String, String> {
    let mut actual = String::from(
        "# Public API of the xability facade and its nine workspace crates (first lines of `pub` declarations and `pub trait` methods).\n\
         # Regenerate with: UPDATE_PUBLIC_API=1 cargo test --test public_api\n",
    );
    for crate_root in CRATE_ROOTS {
        let dir = root.join(crate_root);
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        files.sort();
        for file in &files {
            let source =
                fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
            let rel = file
                .strip_prefix(&dir)
                .map_err(|_| format!("{} escapes {crate_root}", file.display()))?
                .display()
                .to_string();
            let decls = public_decls(&source);
            if decls.is_empty() {
                continue;
            }
            actual.push_str(&format!("\n## {crate_root}/{rel}\n"));
            for decl in decls {
                actual.push_str(&decl);
                actual.push('\n');
            }
        }
    }
    Ok(actual)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// First line of every public item declaration: `pub` items at top level
/// or one indentation step in (inherent methods, fields, associated
/// consts), and the methods of a `pub trait` — excluding `pub(crate)` /
/// `pub(super)` and whatever sits in `mod tests`. That is the granularity
/// at which accidental surface changes happen.
fn public_decls(source: &str) -> Vec<String> {
    let mut decls = Vec::new();
    let mut in_tests = false;
    let mut test_depth = 0usize;
    // The brace depth just inside the `pub trait` being read, if any.
    let mut trait_body: Option<usize> = None;
    let mut depth = 0usize;
    for line in source.lines() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        if !in_tests && trimmed.starts_with("mod tests") {
            in_tests = true;
            test_depth = depth;
        }
        let trait_fn = trait_body == Some(depth) && trimmed.starts_with("fn ");
        if !in_tests && indent <= 4 && (trimmed.starts_with("pub ") || trait_fn) {
            let decl = trimmed
                .split_once(" {")
                .map_or(trimmed, |(head, _)| head)
                .trim_end_matches(';')
                .trim_end();
            decls.push(decl.to_owned());
        }
        if !in_tests && indent == 0 && trimmed.starts_with("pub trait ") {
            trait_body = Some(depth + 1);
        }
        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
        if trait_body.is_some_and(|body| depth < body) {
            trait_body = None;
        }
        if in_tests && depth <= test_depth && line.contains('}') {
            in_tests = false;
        }
    }
    decls
}

#[test]
fn extractor_matches_test_granularity() {
    let src = "pub struct S {\n    pub field: u32,\n}\npub(crate) fn hidden() {}\nmod tests {\n    pub fn not_api() {}\n}\n";
    assert_eq!(public_decls(src), vec!["pub struct S", "pub field: u32,"]);
    // A public trait's methods are its surface, with or without a
    // default body; what the bodies hold, and a private trait, are not.
    let src = "pub trait T {\n    fn f(&self) -> u32;\n    fn g(&self) {\n        fn inner() {}\n    }\n}\ntrait Hidden {\n    fn h(&self);\n}\n";
    assert_eq!(
        public_decls(src),
        vec!["pub trait T", "fn f(&self) -> u32", "fn g(&self)"]
    );
}

#[test]
fn public_api_matches_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let actual = derive_snapshot(root).expect("derive the public-API snapshot");
    let snapshot = root.join(SNAPSHOT);

    if std::env::var_os("UPDATE_PUBLIC_API").is_some() {
        fs::write(&snapshot, &actual).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(&snapshot).unwrap_or_default();
    if actual != expected {
        // Qualify each line with its `## file` section (and a per-section
        // occurrence count) so duplicate declarations across or within
        // files still produce a meaningful diff.
        fn qualified(snapshot: &str) -> Vec<String> {
            let mut section = String::new();
            let mut out = Vec::new();
            for line in snapshot.lines().filter(|l| !l.is_empty()) {
                if let Some(name) = line.strip_prefix("## ") {
                    section = name.to_owned();
                    continue;
                }
                let qualified = format!("{section}: {line}");
                let dup = out.iter().filter(|l: &&String| **l == qualified).count();
                out.push(if dup == 0 {
                    qualified
                } else {
                    format!("{qualified} (#{})", dup + 1)
                });
            }
            out
        }
        let actual_lines = qualified(&actual);
        let expected_lines = qualified(&expected);
        let mut diff = String::new();
        for line in &actual_lines {
            if !expected_lines.contains(line) {
                writeln!(diff, "+ {line}").expect("infallible");
            }
        }
        for line in &expected_lines {
            if !actual_lines.contains(line) {
                writeln!(diff, "- {line}").expect("infallible");
            }
        }
        if diff.is_empty() {
            // Pure reordering: same line multiset, different order. Show
            // the first position where the two snapshots diverge.
            if let Some((a, e)) = actual_lines
                .iter()
                .zip(&expected_lines)
                .find(|(a, e)| a != e)
            {
                writeln!(diff, "reordered: first divergence\n+ {a}\n- {e}").expect("infallible");
            }
        }
        panic!(
            "the public API changed:\n{diff}\n\
             If intentional, update the snapshot:\n  \
             UPDATE_PUBLIC_API=1 cargo test --test public_api"
        );
    }
}
