//! Public-API snapshot: the `pub` surface of `xability-core` and
//! `xability-store` is recorded in `tests/public_api.txt` and diffed
//! here, so API churn is always a deliberate, reviewed change (this
//! PR-visible file must be updated together with the code).
//!
//! To refresh the snapshot after an intentional API change:
//!
//! ```text
//! UPDATE_PUBLIC_API=1 cargo test --test public_api
//! ```
//!
//! The extractor is xlint's ([`derive_snapshot`], behind the
//! `api-snapshot-drift` rule), so the lint and this test read one
//! definition of "the public API".

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use xability_analysis::lint::api_hygiene::{derive_snapshot, SNAPSHOT};

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
            "the public API of xability-core changed:\n{diff}\n\
             If intentional, update the snapshot:\n  \
             UPDATE_PUBLIC_API=1 cargo test --test public_api"
        );
    }
}
