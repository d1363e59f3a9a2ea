//! Panic hygiene: library code does not `unwrap()`, and every `expect()`
//! documents the invariant that makes it unreachable.
//!
//! A panic in a service path is an availability bug; a bare `unwrap()`
//! is a panic whose justification lives only in the author's head. The
//! repo's convention (enforced here) is the one PR 3 established when it
//! introduced `try_new` constructors: fallible-by-design paths return
//! `Result`, genuinely unreachable states use `expect("<the invariant>")`
//! so the message *is* the proof obligation. Tests and examples
//! are exempt — a panicking test is just a failing test.

use super::{Finding, Rule};
use crate::source::SourceFile;

/// Flags `unwrap()` and undocumented `expect()` in non-test library code.
pub struct PanicHygiene;

/// The shortest `expect` message that plausibly states an invariant.
const MIN_EXPECT_MESSAGE: usize = 4;

impl Rule for PanicHygiene {
    fn name(&self) -> &'static str {
        "panic-hygiene"
    }

    fn explain(&self) -> &'static str {
        "non-test library code must not unwrap(); expect() must document the invariant that makes the panic unreachable"
    }

    fn check_file(&self, file: &SourceFile) -> Vec<Finding> {
        if !file.is_library() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if line.code.contains(".unwrap()") {
                out.push(Finding {
                    rule: self.name(),
                    file: file.rel.clone(),
                    line: line.number,
                    message: "`unwrap()` in library code — return an error or use `expect(\"<invariant>\")`".to_owned(),
                });
            }
            if line.code.contains(".expect(") {
                // The message may sit on this line or (rustfmt-wrapped) on
                // the next; measure the string literal it opens with. The
                // raw line is re-searched because block comments shift
                // code/raw offsets.
                let pos = line.raw.find(".expect(").unwrap_or(line.raw.len());
                let after = &line.raw[line.raw.len().min(pos + ".expect(".len())..];
                let msg_len = literal_len(after).or_else(|| {
                    file.lines
                        .get(idx + 1)
                        .and_then(|next| literal_len(next.raw.trim_start()))
                });
                if msg_len.map_or(true, |n| n < MIN_EXPECT_MESSAGE) {
                    out.push(Finding {
                        rule: self.name(),
                        file: file.rel.clone(),
                        line: line.number,
                        message: "`expect()` without a documenting message — state the invariant that makes this unreachable".to_owned(),
                    });
                }
            }
        }
        out
    }
}

/// If `text` starts with a string literal, the length of its contents.
fn literal_len(text: &str) -> Option<usize> {
    let rest = text.strip_prefix('"')?;
    let mut len = 0;
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(len),
            '\\' => {
                chars.next();
                len += 1;
            }
            _ => len += 1,
        }
    }
    // Unterminated on this line: a long wrapped message, certainly
    // documented.
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn lib_file(src: &str) -> SourceFile {
        SourceFile::parse(
            "crates/core/src/demo.rs",
            Some("core".into()),
            FileKind::Library,
            src,
        )
    }

    #[test]
    fn fixture_violations_are_flagged() {
        let file = lib_file(include_str!("../../fixtures/panic_bad.rs"));
        let findings = PanicHygiene.check_file(&file);
        assert_eq!(findings.len(), 3, "{findings:#?}");
        assert!(
            findings
                .iter()
                .filter(|f| f.message.contains("unwrap"))
                .count()
                == 2
        );
        assert!(findings
            .iter()
            .any(|f| f.message.contains("without a documenting message")));
    }

    #[test]
    fn fixture_clean_file_is_quiet() {
        let file = lib_file(include_str!("../../fixtures/panic_clean.rs"));
        let findings = PanicHygiene.check_file(&file);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn test_modules_and_non_library_files_are_exempt() {
        let src = "fn f() { x.unwrap(); }\n";
        for (rel, kind) in [
            ("tests/demo.rs", FileKind::Tests),
            ("examples/demo.rs", FileKind::Examples),
        ] {
            let file = SourceFile::parse(rel, None, kind, src);
            assert!(PanicHygiene.check_file(&file).is_empty(), "{rel}");
        }
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(PanicHygiene.check_file(&lib_file(in_tests)).is_empty());
    }

    #[test]
    fn wrapped_expect_messages_count_as_documented() {
        let src = "fn f() {\n    x.expect(\n        \"a rustfmt-wrapped but perfectly documented invariant\",\n    );\n}\n";
        assert!(PanicHygiene.check_file(&lib_file(src)).is_empty());
    }
}
