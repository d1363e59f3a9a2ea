//! The source model behind `xlint`: a workspace walker and a lightweight
//! line-oriented tokenizer.
//!
//! The build environment is vendored-only, so there is no `syn`, no
//! `rustc` driver, no `rust-analyzer` — and none is needed for the hygiene
//! rules in [`crate::lint`]: every rule matches *tokens in code position*.
//! The tokenizer's single job is to classify each byte of a `.rs` file as
//! code, comment, or literal, so a rule that looks for `unwrap()` never
//! fires on a doc-comment example and a rule that looks for `Instant`
//! never fires inside a string. It also tracks `#[cfg(test)]`/`mod tests`
//! regions, because panic hygiene applies to library code only.
//!
//! The model is deliberately conservative where Rust's grammar is gnarly
//! (lifetimes vs. char literals, nested raw strings): it errs toward
//! classifying ambiguous bytes as code, which can only produce a false
//! *positive* finding — visible and fixable — never a silently skipped
//! one.

use std::fs;
use std::path::{Path, PathBuf};

/// Where a file sits in the workspace — rules scope themselves by kind
/// (panic hygiene skips tests; determinism hygiene applies to library
/// code of specific crates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` or the facade `src/**`.
    Library,
    /// `tests/**` at the workspace root or under a crate.
    Tests,
    /// `examples/**`.
    Examples,
}

/// One source line, split into its code and comment parts.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The raw line, verbatim.
    pub raw: String,
    /// The line with comments removed and string/char-literal *contents*
    /// blanked to spaces (delimiters kept), so token searches see only
    /// code.
    pub code: String,
    /// The comment text of the line (contents of `//`/`/* */` parts),
    /// where `SAFETY:` obligations and `xlint: allow(...)` waivers live.
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` module or a
    /// `mod tests` block.
    pub in_test: bool,
}

/// One tokenized source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The owning crate directory name (`core`, `store`, ...) for
    /// `crates/<name>/...` files; `None` for root-level facade files.
    pub crate_name: Option<String>,
    /// Library / tests / examples.
    pub kind: FileKind,
    /// The tokenized lines.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Tokenizes `source` as the file at `rel` (used directly by the
    /// fixture self-tests; the walker fills in real paths).
    pub fn parse(rel: &str, crate_name: Option<String>, kind: FileKind, source: &str) -> Self {
        SourceFile {
            rel: rel.to_owned(),
            crate_name,
            kind,
            lines: tokenize(source),
        }
    }

    /// `true` when this is non-test library code — the scope of the
    /// panic- and determinism-hygiene rules.
    pub fn is_library(&self) -> bool {
        self.kind == FileKind::Library
    }
}

/// The workspace as `xlint` sees it: every tokenized `.rs` file.
#[derive(Debug)]
pub struct Workspace {
    /// Every tokenized source file, in sorted path order (deterministic
    /// findings regardless of directory-iteration order).
    pub files: Vec<SourceFile>,
}

/// Directories never scanned: vendored stand-ins for external crates,
/// build output, and the lint fixtures themselves (which *seed*
/// violations on purpose).
const SKIP_DIRS: [&str; 4] = ["vendor", "target", "fixtures", ".git"];

impl Workspace {
    /// Walks the workspace at `root` and tokenizes every `.rs` file in
    /// the facade (`src`, `tests`, `examples`) and in every
    /// `crates/<name>/{src,tests,examples}`.
    ///
    /// # Errors
    ///
    /// Returns an error when `root` or a source file cannot be read.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut files = Vec::new();
        for (dir, kind) in [
            ("src", FileKind::Library),
            ("tests", FileKind::Tests),
            ("examples", FileKind::Examples),
        ] {
            collect(root, &root.join(dir), None, kind, &mut files)?;
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = read_dir(&crates_dir)?
                .into_iter()
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for crate_dir in crate_dirs {
                let name = crate_dir
                    .file_name()
                    .and_then(|n| n.to_str())
                    .map(str::to_owned);
                for (dir, kind) in [
                    ("src", FileKind::Library),
                    ("tests", FileKind::Tests),
                    ("examples", FileKind::Examples),
                ] {
                    collect(root, &crate_dir.join(dir), name.clone(), kind, &mut files)?;
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { files })
    }
}

fn read_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        out.push(
            entry
                .map_err(|e| format!("read {}: {e}", dir.display()))?
                .path(),
        );
    }
    Ok(out)
}

fn collect(
    root: &Path,
    dir: &Path,
    crate_name: Option<String>,
    kind: FileKind,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut paths = read_dir(dir)?;
    paths.sort();
    for path in paths {
        let base = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&base) {
                continue;
            }
            collect(root, &path, crate_name.clone(), kind, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile::parse(&rel, crate_name.clone(), kind, &source));
        }
    }
    Ok(())
}

/// Lexer state carried across lines.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Code,
    /// Inside `/* ... */`, with nesting depth.
    Block(u32),
    /// Inside a string literal (`"` or raw with N hashes).
    Str {
        raw_hashes: Option<u32>,
    },
}

/// Splits `source` into per-line code/comment parts (see [`Line`]).
pub fn tokenize(source: &str) -> Vec<Line> {
    let mut mode = Mode::Code;
    let mut lines = Vec::new();
    // `#[cfg(test)]` / `mod tests` tracking, on code content only.
    let mut pending_test_attr = false;
    let mut in_test = false;
    let mut test_depth = 0i64;
    let mut depth = 0i64;
    for (idx, raw) in source.lines().enumerate() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut chars = raw.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            match mode {
                Mode::Block(d) => {
                    if c == '/' && matches!(chars.peek(), Some((_, '*'))) {
                        chars.next();
                        mode = Mode::Block(d + 1);
                    } else if c == '*' && matches!(chars.peek(), Some((_, '/'))) {
                        chars.next();
                        mode = if d == 1 {
                            Mode::Code
                        } else {
                            Mode::Block(d - 1)
                        };
                    } else {
                        comment.push(c);
                    }
                }
                Mode::Str { raw_hashes } => {
                    code.push(' ');
                    match raw_hashes {
                        None => {
                            if c == '\\' {
                                // Skip the escaped char (blank it too).
                                if chars.next().is_some() {
                                    code.push(' ');
                                }
                            } else if c == '"' {
                                code.pop();
                                code.push('"');
                                mode = Mode::Code;
                            }
                        }
                        Some(h) => {
                            if c == '"' && raw_delim_closes(&raw[i..], h) {
                                for _ in 0..h {
                                    chars.next();
                                    code.push(' ');
                                }
                                code.pop();
                                code.push('"');
                                mode = Mode::Code;
                            }
                        }
                    }
                }
                Mode::Code => match c {
                    '/' if matches!(chars.peek(), Some((_, '/'))) => {
                        comment.push_str(raw[i + 2..].trim_start_matches('/'));
                        break;
                    }
                    '/' if matches!(chars.peek(), Some((_, '*'))) => {
                        chars.next();
                        mode = Mode::Block(1);
                    }
                    '"' => {
                        code.push('"');
                        mode = Mode::Str { raw_hashes: None };
                    }
                    'r' if raw_string_opens(&raw[i..]) => {
                        let hashes = raw[i + 1..].chars().take_while(|&c| c == '#').count() as u32;
                        code.push('r');
                        for _ in 0..=hashes {
                            chars.next();
                            code.push(' ');
                        }
                        code.pop();
                        code.push('"');
                        mode = Mode::Str {
                            raw_hashes: Some(hashes),
                        };
                    }
                    '\'' => {
                        // Char literal vs. lifetime: a literal closes with
                        // `'` within a few chars; a lifetime never closes.
                        if let Some(n) = char_literal_len(&raw[i..]) {
                            code.push('\'');
                            for _ in 0..n - 1 {
                                chars.next();
                                code.push(' ');
                            }
                            code.pop();
                            code.push('\'');
                        } else {
                            code.push('\'');
                        }
                    }
                    _ => code.push(c),
                },
            }
        }
        // Test-region tracking on the blanked code line.
        let trimmed = code.trim_start();
        if !in_test {
            if trimmed.starts_with("#[cfg(test)]") {
                pending_test_attr = true;
            } else if (pending_test_attr && trimmed.starts_with("mod "))
                || trimmed.starts_with("mod tests")
            {
                in_test = true;
                test_depth = depth;
                pending_test_attr = false;
            } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                pending_test_attr = false;
            }
        }
        depth += code.matches('{').count() as i64;
        depth -= code.matches('}').count() as i64;
        let line_in_test = in_test;
        if in_test && depth <= test_depth && code.contains('}') {
            in_test = false;
        }
        lines.push(Line {
            number: idx + 1,
            raw: raw.to_owned(),
            code,
            comment,
            in_test: line_in_test,
        });
    }
    lines
}

/// Does text starting at `r` open a raw string (`r"`, `r#"`, `br"` is not
/// handled — the workspace has none)?
fn raw_string_opens(rest: &str) -> bool {
    let mut chars = rest.chars();
    if chars.next() != Some('r') {
        return false;
    }
    for c in chars {
        match c {
            '#' => continue,
            '"' => return true,
            _ => return false,
        }
    }
    false
}

/// Does a `"` at the start of `rest` close an `h`-hash raw string?
fn raw_delim_closes(rest: &str, h: u32) -> bool {
    rest.len() > h as usize
        && rest.starts_with('"')
        && rest[1..].chars().take(h as usize).all(|c| c == '#')
}

/// If `rest` (starting at `'`) is a char literal, its char length
/// including both quotes; `None` for a lifetime.
fn char_literal_len(rest: &str) -> Option<usize> {
    let chars: Vec<char> = rest.chars().take(6).collect();
    match chars.as_slice() {
        ['\'', '\\', _, '\'', ..] => Some(4),
        ['\'', c, '\'', ..] if *c != '\'' && *c != '\\' => Some(3),
        // Longer escapes (\u{..}, \x..) appear only in tests here; treat
        // a close quote within the window as a literal.
        ['\'', '\\', ..] => chars.iter().skip(2).position(|&c| c == '\'').map(|p| p + 3),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_from_code() {
        let lines = tokenize("let x = 1; // unwrap() in a comment\n/// doc unwrap()\nfn f() {}");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains("unwrap()"));
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[2].code.contains("fn f()"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let lines = tokenize("let s = \"Instant::now() unwrap()\";");
        assert!(!lines[0].code.contains("Instant"));
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("let s = \""));
    }

    #[test]
    fn raw_strings_and_escapes_are_blanked() {
        let lines = tokenize("let s = r#\"unsafe \\\"\"#; let t = \"a\\\"unsafe\";");
        for line in &lines {
            assert!(!line.code.contains("unsafe"), "{:?}", line.code);
        }
    }

    #[test]
    fn block_comments_span_lines() {
        let lines = tokenize("/* start\n unwrap() mid\n end */ let y = 2;");
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[1].comment.contains("unwrap"));
        assert!(lines[2].code.contains("let y"));
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let lines = tokenize("let c = '\"'; let d = unsafe_token();");
        assert!(lines[0].code.contains("unsafe_token"));
    }

    #[test]
    fn lifetimes_are_code() {
        let lines = tokenize("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(lines[0].code.contains("fn f<'a>"));
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn more() {}";
        let lines = tokenize(src);
        assert!(!lines[0].in_test);
        assert!(lines[3].in_test);
        assert!(!lines[5].in_test, "test region must close with the module");
    }
}
