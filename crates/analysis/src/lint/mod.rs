//! `xlint`: the workspace's custom lint pass.
//!
//! Five rule families guard the properties the test suite cannot see at
//! rest (the catalog, with rationale, is DESIGN.md §8.1):
//!
//! * [`determinism`] — no wall-clock, sleeping, or process spawning in
//!   the deterministic crates (`core`, `obs`, `sim`, `store`), and no
//!   iteration over `HashMap`/`HashSet` in them (hash order is seeded
//!   per process; anything it feeds breaks the bit-identical-verdict
//!   guarantee — require `BTreeMap`/`BTreeSet` or an explicit sort).
//! * [`panic_hygiene`] — no `unwrap()` in non-test library code, and
//!   every `expect()` must carry a message documenting the invariant.
//! * [`unsafe_hygiene`] — every `unsafe` occurrence must carry a
//!   `// SAFETY:` comment (the workspace currently forbids `unsafe_code`
//!   outright; this rule is the backstop for the day an accelerator or
//!   mmap path needs an exemption).
//! * [`api_hygiene`] — `Verdict` stays `#[must_use]` (type-level or on
//!   every public `Verdict`-returning fn). The module also holds the
//!   public-API snapshot's extractor, which the `public_api` test diffs.
//! * [`obs_hygiene`] — metric/span names on the `xability-obs` record
//!   path must be static literals (or identifiers forwarding a
//!   `&'static str`); formatted names explode label cardinality and
//!   allocate on the hot path.
//!
//! A finding can be waived in place with `// xlint: allow(<rule>)` on the
//! same or the preceding line; waivers are counted and reported, so an
//! allowlisted tree is visibly different from a clean one.

pub mod api_hygiene;
pub mod determinism;
pub mod obs_hygiene;
pub mod panic_hygiene;
pub mod unsafe_hygiene;

use crate::source::{SourceFile, Workspace};

/// One lint finding: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (its catalog name).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A lint rule: a named check over one file (most rules) and/or the whole
/// workspace (rules that relate files to each other).
pub trait Rule {
    /// The catalog name, as used in `xlint: allow(<name>)` waivers.
    fn name(&self) -> &'static str;
    /// One-line rationale, shown by `xlint --rules`.
    fn explain(&self) -> &'static str;
    /// Per-file findings.
    fn check_file(&self, _file: &SourceFile) -> Vec<Finding> {
        Vec::new()
    }
    /// Whole-workspace findings (for rules that relate files to each
    /// other or to non-Rust inputs).
    fn check_workspace(&self, _ws: &Workspace) -> Vec<Finding> {
        Vec::new()
    }
}

/// The rule catalog, in reporting order.
pub fn rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(determinism::WallClock),
        Box::new(determinism::HashIteration),
        Box::new(panic_hygiene::PanicHygiene),
        Box::new(unsafe_hygiene::UnsafeHygiene),
        Box::new(api_hygiene::MustUseVerdict),
        Box::new(obs_hygiene::ObsLabelHygiene),
    ]
}

/// The outcome of one lint run.
#[derive(Debug)]
pub struct Report {
    /// Findings that survived waiver filtering, in file/line order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `xlint: allow(...)` waivers.
    pub waived: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the tree is clean (waivers do not count as clean-ness
    /// failures, but they are reported).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every rule over the workspace and filters waived findings.
pub fn run(ws: &Workspace) -> Report {
    let rules = rules();
    let mut findings = Vec::new();
    for file in &ws.files {
        for rule in &rules {
            findings.extend(rule.check_file(file));
        }
    }
    for rule in &rules {
        findings.extend(rule.check_workspace(ws));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let (waived, findings) = findings.into_iter().partition(|f| is_waived(ws, f));
    Report {
        findings,
        waived,
        files_scanned: ws.files.len(),
    }
}

/// Is the finding's line (or the line above it) annotated with
/// `xlint: allow(<rule>)`?
fn is_waived(ws: &Workspace, finding: &Finding) -> bool {
    if finding.line == 0 {
        return false;
    }
    let Some(file) = ws.files.iter().find(|f| f.rel == finding.file) else {
        return false;
    };
    let needle = format!("xlint: allow({})", finding.rule);
    let idx = finding.line - 1;
    file.lines
        .get(idx)
        .is_some_and(|l| l.comment.contains(&needle))
        || idx > 0
            && file
                .lines
                .get(idx - 1)
                .is_some_and(|l| l.comment.contains(&needle))
}

/// Token search helper shared by the rules: does `code` contain `token`
/// as a whole word (not as a substring of a longer identifier)?
pub(crate) fn has_token(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + token.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    #[test]
    fn waivers_suppress_but_are_counted() {
        let src =
            "fn f() {\n    // xlint: allow(panic-hygiene)\n    x.unwrap();\n    y.unwrap();\n}\n";
        let file = SourceFile::parse(
            "crates/demo/src/lib.rs",
            Some("demo".into()),
            FileKind::Library,
            src,
        );
        let ws = Workspace { files: vec![file] };
        let report = run(&ws);
        assert_eq!(report.waived.len(), 1, "waived: {:?}", report.waived);
        assert_eq!(report.findings.len(), 1, "findings: {:?}", report.findings);
        assert_eq!(report.findings[0].line, 4);
    }

    #[test]
    fn token_search_respects_word_boundaries() {
        assert!(has_token("let x = Instant::now();", "Instant"));
        assert!(!has_token("let x = SimInstant::now();", "Instant"));
        assert!(!has_token("let x = Instantaneous;", "Instant"));
        assert!(has_token("Instant", "Instant"));
    }

    #[test]
    fn rule_catalog_names_are_unique() {
        let mut names: Vec<&str> = rules().iter().map(|r| r.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(rules().iter().all(|r| !r.explain().is_empty()));
    }
}
