//! Determinism hygiene: the crates whose outputs must be a pure function
//! of their inputs (`core` — verdicts, `obs` — metrics snapshots, `sim`
//! — schedules, `store` — traces) may not read wall clocks, sleep, spawn
//! processes, or iterate hash collections.
//!
//! The repo's headline guarantees — warm ≡ cold verdicts, byte-identical
//! run reports and metrics per seed, sim replayability by seed — all
//! reduce to "these crates are deterministic". `std::collections::HashMap` iteration order
//! is seeded *per process* (`RandomState`), so a hash-iteration that
//! feeds any ordered output (verdict reasons, serialized reports) is a
//! nondeterminism leak that no single-process test can catch. Key probes
//! (`get`/`insert`/`contains_key`) are fine and idiomatic — only
//! *iteration* is order-sensitive, so only iteration is flagged.

use super::{has_token, Finding, Rule};
use crate::source::SourceFile;

/// The crates held to the determinism rules.
const DETERMINISTIC_CRATES: [&str; 4] = ["core", "obs", "sim", "store"];

fn in_scope(file: &SourceFile) -> bool {
    file.is_library()
        && file
            .crate_name
            .as_deref()
            .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c))
}

/// No wall-clock, sleeping, or process control in deterministic crates.
pub struct WallClock;

/// The banned tokens and what each one leaks.
const BANNED: [(&str, &str); 4] = [
    (
        "Instant",
        "wall-clock time (use sim time or pass timestamps in)",
    ),
    (
        "SystemTime",
        "wall-clock time (use sim time or pass timestamps in)",
    ),
    ("thread::sleep", "wall-clock delays (use sim timers)"),
    (
        "std::process",
        "process control (deterministic crates compute, they do not spawn)",
    ),
];

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "determinism-wall-clock"
    }

    fn explain(&self) -> &'static str {
        "core/sim/store library code must not use Instant, SystemTime, thread::sleep, or std::process — their outputs must be pure functions of their inputs"
    }

    fn check_file(&self, file: &SourceFile) -> Vec<Finding> {
        if !in_scope(file) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for line in file.lines.iter().filter(|l| !l.in_test) {
            for (token, why) in BANNED {
                let hit = if token.contains("::") {
                    line.code.contains(token)
                } else {
                    has_token(&line.code, token)
                };
                if hit {
                    out.push(Finding {
                        rule: self.name(),
                        file: file.rel.clone(),
                        line: line.number,
                        message: format!("`{token}` leaks {why}"),
                    });
                }
            }
        }
        out
    }
}

/// No iteration over `HashMap`/`HashSet` in deterministic crates.
pub struct HashIteration;

/// The iteration methods whose order is hash-seeded.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

impl Rule for HashIteration {
    fn name(&self) -> &'static str {
        "determinism-hash-iteration"
    }

    fn explain(&self) -> &'static str {
        "core/sim/store library code must not iterate HashMap/HashSet (per-process hash seeding leaks into any ordered output) — use BTreeMap/BTreeSet or sort explicitly"
    }

    fn check_file(&self, file: &SourceFile) -> Vec<Finding> {
        if !in_scope(file) {
            return Vec::new();
        }
        // Names declared with a HashMap/HashSet type anywhere in the file
        // (fields, lets, params). Hash-typed temporaries without a written
        // type are rare; the fixture tests pin the declared-name cases.
        let mut names: Vec<String> = Vec::new();
        for line in &file.lines {
            let code = &line.code;
            let mut rest = code.as_str();
            while let Some(pos) = rest.find(':') {
                let after = rest[pos + 1..].trim_start();
                if after.starts_with("HashMap<")
                    || after.starts_with("HashSet<")
                    || after.starts_with("std::collections::HashMap<")
                    || after.starts_with("std::collections::HashSet<")
                {
                    let name: String = rest[..pos]
                        .chars()
                        .rev()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect::<String>()
                        .chars()
                        .rev()
                        .collect();
                    if !name.is_empty() && !names.contains(&name) {
                        names.push(name);
                    }
                }
                rest = &rest[pos + 1..];
            }
        }
        let mut out = Vec::new();
        for line in file.lines.iter().filter(|l| !l.in_test) {
            for name in &names {
                let iterated = ITER_METHODS.iter().any(|m| {
                    has_token(&line.code, name) && line.code.contains(&format!("{name}.{m}("))
                }) || looped_over(&line.code, name);
                if iterated {
                    out.push(Finding {
                        rule: self.name(),
                        file: file.rel.clone(),
                        line: line.number,
                        message: format!(
                            "iteration over hash collection `{name}` — hash order is per-process; use BTreeMap/BTreeSet or sort before consuming"
                        ),
                    });
                    break;
                }
            }
        }
        out
    }
}

/// Does the line `for ... in` the named collection directly?
fn looped_over(code: &str, name: &str) -> bool {
    let Some(pos) = code.find("for ") else {
        return false;
    };
    let Some(in_pos) = code[pos..].find(" in ") else {
        return false;
    };
    let tail = code[pos + in_pos + 4..].trim_start_matches(['&', ' ']);
    // The loop source must *end* at the collection (`for k in &map {` or
    // `for k in self.map {`) — `map.get(..)` etc. were handled above.
    let head: String = tail
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
        .collect();
    head == name || head.ends_with(&format!(".{name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn core_file(src: &str) -> SourceFile {
        SourceFile::parse(
            "crates/core/src/demo.rs",
            Some("core".into()),
            FileKind::Library,
            src,
        )
    }

    #[test]
    fn fixture_violations_are_flagged() {
        let file = core_file(include_str!("../../fixtures/determinism_bad.rs"));
        let wall: Vec<Finding> = WallClock.check_file(&file);
        let hash: Vec<Finding> = HashIteration.check_file(&file);
        assert_eq!(wall.len(), 4, "wall-clock findings: {wall:#?}");
        assert!(
            wall.iter().any(|f| f.message.contains("Instant"))
                && wall.iter().any(|f| f.message.contains("SystemTime"))
                && wall.iter().any(|f| f.message.contains("thread::sleep"))
                && wall.iter().any(|f| f.message.contains("std::process")),
            "{wall:#?}"
        );
        assert_eq!(hash.len(), 3, "hash-iteration findings: {hash:#?}");
    }

    #[test]
    fn fixture_clean_file_is_quiet() {
        let file = core_file(include_str!("../../fixtures/determinism_clean.rs"));
        assert!(WallClock.check_file(&file).is_empty());
        assert!(HashIteration.check_file(&file).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_not_checked() {
        let src = include_str!("../../fixtures/determinism_bad.rs");
        for (rel, name, kind) in [
            (
                "crates/harness/src/demo.rs",
                Some("harness"),
                FileKind::Library,
            ),
            ("crates/core/tests/demo.rs", Some("core"), FileKind::Tests),
        ] {
            let file = SourceFile::parse(rel, name.map(Into::into), kind, src);
            assert!(WallClock.check_file(&file).is_empty(), "{rel}");
            assert!(HashIteration.check_file(&file).is_empty(), "{rel}");
        }
    }

    #[test]
    fn probes_are_not_iteration() {
        let file = core_file(
            "struct S { index: HashMap<u64, u32> }\nimpl S {\n    fn get(&self) { self.index.get(&1); self.index.contains_key(&2); }\n}\n",
        );
        assert!(HashIteration.check_file(&file).is_empty());
    }
}
