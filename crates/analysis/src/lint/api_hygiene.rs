//! API hygiene: verdicts cannot be silently dropped, and the public-API
//! snapshot has one extractor.
//!
//! * [`MustUseVerdict`] — a `Verdict` that is computed and discarded is a
//!   check that never happened (FILO's decide-don't-eyeball posture cuts
//!   both ways: a decision nobody reads decides nothing). The enum itself
//!   carries `#[must_use]`, which covers every returning fn; this rule
//!   keeps that attribute from being dropped, and if it ever is, demands
//!   `#[must_use]` on each public `Verdict`-returning fn instead.
//! * [`derive_snapshot`] — what `tests/public_api.txt` must hold. The
//!   `public_api` test diffs the snapshot against it and refreshes it; no
//!   lint rule repeats that check.

use std::fs;
use std::path::{Path, PathBuf};

use super::{has_token, Finding, Rule};
use crate::source::{SourceFile, Workspace};

/// Public `Verdict`-returning fns must be `#[must_use]` (type-level
/// attribute on the enum, or per-fn).
pub struct MustUseVerdict;

impl Rule for MustUseVerdict {
    fn name(&self) -> &'static str {
        "api-must-use-verdict"
    }

    fn explain(&self) -> &'static str {
        "public fns returning Verdict must be #[must_use] (satisfied type-level by the #[must_use] on the Verdict enum)"
    }

    fn check_workspace(&self, ws: &Workspace) -> Vec<Finding> {
        // Is the Verdict enum itself #[must_use]? Then every returning fn
        // is covered by the type-level attribute.
        let type_covered = ws.files.iter().any(|file| {
            file.lines.iter().enumerate().any(|(idx, line)| {
                line.code.trim_start().starts_with("pub enum Verdict")
                    && preceding_attrs_contain(file, idx, "#[must_use")
            })
        });
        if type_covered {
            return Vec::new();
        }
        let mut out = Vec::new();
        for file in ws.files.iter().filter(|f| f.is_library()) {
            for (idx, line) in file.lines.iter().enumerate() {
                if line.in_test || !line.code.trim_start().starts_with("pub fn ") {
                    continue;
                }
                if !returns_bare_verdict(file, idx) {
                    continue;
                }
                if !preceding_attrs_contain(file, idx, "#[must_use") {
                    out.push(Finding {
                        rule: self.name(),
                        file: file.rel.clone(),
                        line: line.number,
                        message: "public fn returns Verdict without #[must_use] (and the Verdict enum is not type-level #[must_use])".to_owned(),
                    });
                }
            }
        }
        out
    }
}

/// Does the signature starting at line `idx` return `Verdict` directly
/// (not wrapped in an already-must-use `Result`/`Option`)?
fn returns_bare_verdict(file: &SourceFile, idx: usize) -> bool {
    let mut sig = String::new();
    for line in file.lines.iter().skip(idx).take(8) {
        sig.push_str(&line.code);
        sig.push(' ');
        if line.code.contains('{') || line.code.contains(';') {
            break;
        }
    }
    let Some(ret) = sig.split("->").nth(1) else {
        return false;
    };
    let ret = ret.split(['{', ';']).next().unwrap_or("");
    has_token(ret, "Verdict") && !ret.contains("Result<") && !ret.contains("Option<")
}

/// Does any attribute/doc line immediately above `idx` contain `needle`?
fn preceding_attrs_contain(file: &SourceFile, idx: usize, needle: &str) -> bool {
    for line in file.lines[..idx].iter().rev() {
        let code = line.code.trim();
        if code.starts_with("#[") || code.starts_with("#!") {
            if code.contains(needle) {
                return true;
            }
        } else if !code.is_empty() {
            return false;
        }
    }
    false
}

/// The snapshotted crates: the theory surface and the store surface.
const CRATE_ROOTS: [&str; 2] = ["crates/core/src", "crates/store/src"];
/// Where the snapshot lives, relative to the workspace root.
pub const SNAPSHOT: &str = "tests/public_api.txt";

/// Derives the snapshot contents from the sources under the workspace
/// `root` — what [`SNAPSHOT`] must hold.
///
/// # Errors
///
/// A source directory or file that cannot be read.
pub fn derive_snapshot(root: &Path) -> Result<String, String> {
    let mut actual = String::from(
        "# Public API of xability-core and xability-store (first lines of `pub` declarations and `pub trait` methods).\n\
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn mini_ws(src: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::parse(
                "crates/core/src/demo.rs",
                Some("core".into()),
                FileKind::Library,
                src,
            )],
        }
    }

    #[test]
    fn fixture_violations_are_flagged() {
        let ws = mini_ws(include_str!("../../fixtures/api_bad.rs"));
        let findings = MustUseVerdict.check_workspace(&ws);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("without #[must_use]"));
    }

    #[test]
    fn fixture_clean_file_is_quiet() {
        let ws = mini_ws(include_str!("../../fixtures/api_clean.rs"));
        let findings = MustUseVerdict.check_workspace(&ws);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn type_level_must_use_covers_every_fn() {
        let ws = mini_ws(
            "#[must_use]\npub enum Verdict { A }\n\npub fn check() -> Verdict {\n    Verdict::A\n}\n",
        );
        assert!(MustUseVerdict.check_workspace(&ws).is_empty());
    }

    #[test]
    fn wrapped_returns_are_not_flagged() {
        let ws = mini_ws(
            "pub enum Verdict { A }\n\npub fn check() -> Result<Verdict, String> {\n    Ok(Verdict::A)\n}\n",
        );
        assert!(MustUseVerdict.check_workspace(&ws).is_empty());
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
}
