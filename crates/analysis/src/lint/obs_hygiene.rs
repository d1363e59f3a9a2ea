//! Observability label hygiene: metric and span *names* handed to the
//! `xability-obs` record path must be static string literals (or plain
//! identifiers passing a `&'static str` through) — never strings built
//! at the call site.
//!
//! The registry's type signatures already force `name: &'static str`,
//! but `Box::leak`/`format!` laundering compiles fine and buys an
//! allocation (and an unbounded label space) per record — exactly the
//! hot-path cost and cardinality explosion the registry design rules
//! out (DESIGN.md §11). Dynamic *keys* are legitimate — they are meant
//! to be formatted once at registration (`counter_keyed`'s second
//! argument, e.g. a link's `"p0->p1"`) — so only the first (name)
//! argument of each record-path method is checked.

use super::{Finding, Rule};
use crate::source::SourceFile;

/// The record-path methods whose first argument is a metric/span name.
const RECORD_METHODS: [&str; 9] = [
    "counter",
    "counter_keyed",
    "gauge",
    "gauge_keyed",
    "histogram",
    "histogram_keyed",
    "span_start",
    "span_end",
    "span_event",
];

/// Metric/span names on the obs record path must be static literals.
pub struct ObsLabelHygiene;

impl Rule for ObsLabelHygiene {
    fn name(&self) -> &'static str {
        "obs-label-hygiene"
    }

    fn explain(&self) -> &'static str {
        "metric/span names passed to obs record methods must be static string literals (or identifiers forwarding a &'static str) — formatted or leaked strings explode label cardinality and allocate on the hot path"
    }

    fn check_file(&self, file: &SourceFile) -> Vec<Finding> {
        if !file.is_library() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for line in file.lines.iter().filter(|l| !l.in_test) {
            for method in RECORD_METHODS {
                let needle = format!(".{method}(");
                let mut rest = line.code.as_str();
                while let Some(pos) = rest.find(&needle) {
                    let args = &rest[pos + needle.len()..];
                    if let Some(arg) = first_argument(args) {
                        if !name_is_static(arg) {
                            out.push(Finding {
                                rule: self.name(),
                                file: file.rel.clone(),
                                line: line.number,
                                message: format!(
                                    "`.{method}({arg}, …)` builds the metric/span name at the call site — use a static literal (dynamic data belongs in the key or span request arguments)"
                                ),
                            });
                        }
                    }
                    rest = &rest[pos + needle.len()..];
                }
            }
        }
        out
    }
}

/// The first argument of a call, if it closes on this line: the text up
/// to the first depth-0 comma or the closing paren. `None` when the call
/// spans lines (the argument is not visible here) or the argument list is
/// empty.
fn first_argument(args: &str) -> Option<&str> {
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in args.char_indices() {
        if in_str {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_str = false,
                _ => escaped = false,
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => {
                let arg = args[..i].trim();
                return (!arg.is_empty()).then_some(arg);
            }
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                let arg = args[..i].trim();
                return (!arg.is_empty()).then_some(arg);
            }
            _ => {}
        }
    }
    None
}

/// Is the name argument statically shaped: a string literal, or a plain
/// identifier/path/field access forwarding a `&'static str`? Anything
/// carrying a call, macro, or concatenation is dynamic.
fn name_is_static(arg: &str) -> bool {
    let arg = arg.trim_start_matches(['&', '*']);
    if arg.starts_with('"') {
        return true;
    }
    !arg.is_empty()
        && arg
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '.' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn lib_file(rel: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel, Some(crate_name.into()), FileKind::Library, src)
    }

    #[test]
    fn fixture_violations_are_flagged() {
        let file = lib_file(
            "crates/demo/src/lib.rs",
            "demo",
            include_str!("../../fixtures/obs_label_bad.rs"),
        );
        let findings = ObsLabelHygiene.check_file(&file);
        assert_eq!(findings.len(), 4, "findings: {findings:#?}");
        assert!(findings.iter().all(|f| f.rule == "obs-label-hygiene"));
        assert!(
            findings.iter().any(|f| f.message.contains("format!")),
            "{findings:#?}"
        );
    }

    #[test]
    fn fixture_clean_file_is_quiet() {
        let file = lib_file(
            "crates/demo/src/lib.rs",
            "demo",
            include_str!("../../fixtures/obs_label_clean.rs"),
        );
        let findings = ObsLabelHygiene.check_file(&file);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn tests_and_non_library_files_are_out_of_scope() {
        let src = include_str!("../../fixtures/obs_label_bad.rs");
        for (rel, name, kind) in [
            ("crates/demo/tests/t.rs", Some("demo"), FileKind::Tests),
            ("examples/demo.rs", None, FileKind::Examples),
        ] {
            let file = SourceFile::parse(rel, name.map(Into::into), kind, src);
            assert!(ObsLabelHygiene.check_file(&file).is_empty(), "{rel}");
        }
    }

    #[test]
    fn first_argument_parsing() {
        assert_eq!(first_argument("\"a.b\", key)"), Some("\"a.b\""));
        assert_eq!(first_argument("name)"), Some("name"));
        assert_eq!(
            first_argument("&format!(\"x{i}\"), 1)"),
            Some("&format!(\"x{i}\")")
        );
        assert_eq!(
            first_argument("\"with, comma\", k)"),
            Some("\"with, comma\"")
        );
        assert_eq!(first_argument(""), None, "multi-line call: arg not visible");
        assert_eq!(first_argument(")"), None, "empty argument list");
    }

    #[test]
    fn static_shapes() {
        assert!(name_is_static("\"sim.link.sent\""));
        assert!(name_is_static("name"));
        assert!(name_is_static("self.name"));
        assert!(name_is_static("Names::SENT"));
        assert!(!name_is_static("&format!(\"p{}\", i)"));
        assert!(!name_is_static("name.to_string()"));
        assert!(!name_is_static("String::from(\"x\").leak()"));
    }
}
