//! Region and context tracking over lexed source.
//!
//! Walks the comment-and-string-free lines once, tracking brace depth to
//! answer, for every line: is it inside a test region (`#[cfg(test)]` /
//! `mod tests` / a `tests/` or `benches/` path), and is it inside
//! a constructor (a function named `new`/`default`, prefixed
//! `new_`/`with_`/`from_`/`build`, or returning `Self`) or a checkpoint
//! serialization function (`state`/`save_state`/`restore_state`/
//! `checkpoint`/`restore_checkpoint`)? It also resolves
//! `// analyze: allow(<rule>) reason="..."` annotations to the line they
//! cover.

use crate::lexer::{lex, LexedFile};

/// One scanned source line plus the region facts the rules need.
pub struct ScanLine {
    /// The line with comments removed and literal contents blanked.
    pub code: String,
    /// Inside `#[cfg(test)]` / `mod tests` / a test-only file.
    pub in_test: bool,
    /// Inside a constructor-shaped or checkpoint-serialization function
    /// (allocation is sanctioned there).
    pub in_constructor: bool,
}

/// A parsed `// analyze: allow(<rule>) reason="..."` annotation.
pub struct Allow {
    /// The rule id being suppressed.
    pub rule: String,
    /// The mandatory human-readable justification.
    pub reason: String,
    /// Line the annotation comment sits on (1-based).
    pub line: usize,
    /// Line the annotation covers: its own line for trailing comments, the
    /// next code line for standalone ones.
    pub target: usize,
}

/// A whole scanned file: per-line facts, string literals, allow annotations,
/// and any malformed annotations encountered.
pub struct ScannedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// `lines[i]` describes source line `i + 1`.
    pub lines: Vec<ScanLine>,
    /// `(line, content)` of every string literal.
    pub strings: Vec<(usize, String)>,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
    /// `(line, message)` for annotations that look like `analyze:` but do not
    /// parse.
    pub bad_annotations: Vec<(usize, String)>,
}

impl ScannedFile {
    /// String-literal contents on non-test lines.
    pub fn non_test_strings(&self) -> impl Iterator<Item = (usize, &str)> {
        self.strings.iter().filter_map(|(line, text)| {
            let in_test = self.lines.get(line - 1).is_none_or(|l| l.in_test);
            (!in_test).then_some((*line, text.as_str()))
        })
    }
}

/// Scans one file. `path` decides file-level test status and, later, which
/// rules apply.
pub fn scan(path: &str, source: &str) -> ScannedFile {
    let LexedFile {
        code_lines,
        comments,
        strings,
    } = lex(source);
    let file_is_test = is_test_path(path);

    let mut lines: Vec<ScanLine> = Vec::with_capacity(code_lines.len());
    let mut depth = 0i64;
    // Depths (post-increment) at which test regions / functions opened.
    let mut test_stack: Vec<i64> = Vec::new();
    let mut fn_stack: Vec<(i64, bool)> = Vec::new();
    let mut pending_test_attr = false;
    // Signature text accumulated from `fn` to its `{` or `;`.
    let mut pending_sig: Option<String> = None;

    for code in code_lines {
        let start_test = !test_stack.is_empty();
        let start_ctor = fn_stack.iter().any(|&(_, c)| c);

        if has_cfg_test_attr(&code) || declares_tests_mod(&code) {
            pending_test_attr = true;
        }

        // Regions that open and close within this very line (a one-line
        // `fn helper() { ... }` under `#[cfg(test)]`) are invisible to the
        // start/end snapshots; record membership as braces are processed.
        let mut mid_test = false;
        let mut mid_ctor = false;

        let bytes: Vec<char> = code.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            if pending_sig.is_none() && c == 'f' && is_fn_keyword(&bytes, i) {
                pending_sig = Some(String::new());
                i += 2;
                continue;
            }
            match c {
                '{' => {
                    depth += 1;
                    if let Some(sig) = pending_sig.take() {
                        fn_stack.push((depth, is_constructor_signature(&sig)));
                    }
                    if pending_test_attr {
                        test_stack.push(depth);
                        pending_test_attr = false;
                    }
                    mid_test |= !test_stack.is_empty();
                    mid_ctor |= fn_stack.iter().any(|&(_, c)| c);
                }
                '}' => {
                    while fn_stack.last().is_some_and(|&(d, _)| d >= depth) {
                        fn_stack.pop();
                    }
                    while test_stack.last().is_some_and(|&d| d >= depth) {
                        test_stack.pop();
                    }
                    depth -= 1;
                }
                ';' => {
                    // `fn f();` (trait method without body) or
                    // `#[cfg(test)] use ...;`: the pending context never
                    // opens a block.
                    if pending_sig.take().is_none() {
                        pending_test_attr = false;
                    }
                }
                _ => {
                    if let Some(sig) = pending_sig.as_mut() {
                        sig.push(c);
                    }
                }
            }
            i += 1;
        }
        if let Some(sig) = pending_sig.as_mut() {
            sig.push(' ');
        }

        let end_test = !test_stack.is_empty();
        let end_ctor = fn_stack.iter().any(|&(_, c)| c);
        lines.push(ScanLine {
            code,
            in_test: file_is_test || start_test || mid_test || end_test,
            in_constructor: start_ctor || mid_ctor || end_ctor,
        });
    }

    let (allows, bad_annotations) = resolve_annotations(&comments, &lines);
    ScannedFile {
        path: path.to_string(),
        lines,
        strings,
        allows,
        bad_annotations,
    }
}

/// Paths whose every line counts as test code: integration tests and
/// benches. Examples are programs that call the public API, not tests.
fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

/// Does this (comment-free) line carry a `#[cfg(...)]` whose predicate can
/// enable `test`? `not(test)` spans are removed first so `#[cfg(not(test))]`
/// does not count.
fn has_cfg_test_attr(code: &str) -> bool {
    let trimmed = code.trim_start();
    if !(trimmed.starts_with("#[") || trimmed.starts_with("#![")) || !trimmed.contains("cfg") {
        return false;
    }
    contains_word(&strip_not_groups(trimmed), "test")
}

fn declares_tests_mod(code: &str) -> bool {
    let mut words = code.split_whitespace();
    while let Some(w) = words.next() {
        if w == "mod" {
            return matches!(words.next(), Some(name) if name.trim_end_matches('{') == "tests");
        }
    }
    false
}

/// Removes every balanced `not(...)` group from `text`.
fn strip_not_groups(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == 'n' && matches_at(&chars, i, "not(") && !is_ident_char_before(&chars, i) {
            let mut depth = 0i32;
            let mut j = i + 3;
            loop {
                match chars.get(j) {
                    Some('(') => depth += 1,
                    Some(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Some(_) => {}
                    None => break,
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        out.push(chars[i]);
        i += 1;
    }
    out
}

fn matches_at(chars: &[char], i: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, p)| chars.get(i + k) == Some(&p))
}

fn is_ident_char_before(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// True if `text` contains `word` delimited by non-identifier characters.
pub fn contains_word(text: &str, word: &str) -> bool {
    find_word(text, word, 0).is_some()
}

/// Finds the next word-boundary occurrence of `word` at or after byte `from`.
pub fn find_word(text: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut start = from;
    while let Some(pos) = text.get(start..).and_then(|t| t.find(word)) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Is `fn` at `i` a keyword occurrence (not part of an identifier)?
fn is_fn_keyword(bytes: &[char], i: usize) -> bool {
    if bytes.get(i + 1) != Some(&'n') {
        return false;
    }
    let before_ok = i == 0 || !(bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_');
    let after_ok = bytes
        .get(i + 2)
        .is_none_or(|c| !(c.is_alphanumeric() || *c == '_'));
    before_ok && after_ok
}

/// Constructors may allocate: `new`/`default` and the `new_`/`with_`/`from_`/
/// `build` families, plus anything returning `Self`.
fn is_constructor_signature(sig: &str) -> bool {
    let sig = sig.trim_start();
    let name: String = sig
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name == "new"
        || name == "default"
        || ["new_", "with_", "from_", "build"]
            .iter()
            .any(|p| name.starts_with(p))
    {
        return true;
    }
    // Checkpoint serialization runs once per warm-prefix capture or restore,
    // never inside the cycle loop; allocation is sanctioned there like in
    // constructors.
    if matches!(
        name.as_str(),
        "state" | "save_state" | "restore_state" | "checkpoint" | "restore_checkpoint"
    ) {
        return true;
    }
    match sig.rfind("->") {
        Some(arrow) => contains_word(&sig[arrow..], "Self"),
        None => false,
    }
}

/// Resolves annotation comments to target lines. A trailing comment covers
/// its own line; a standalone comment (nothing but whitespace before it)
/// covers the next line that has code, with stacking.
fn resolve_annotations(
    comments: &[(usize, String)],
    lines: &[ScanLine],
) -> (Vec<Allow>, Vec<(usize, String)>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (line, text) in comments {
        let trimmed = text.trim();
        let Some(rest) = trimmed.strip_prefix("analyze:") else {
            continue;
        };
        let target = if line_has_code(lines, *line) {
            *line
        } else {
            next_code_line(lines, *line)
        };
        match parse_allow(rest.trim()) {
            Ok((rule, reason)) => allows.push(Allow {
                rule,
                reason,
                line: *line,
                target,
            }),
            Err(msg) => bad.push((*line, msg)),
        }
    }
    (allows, bad)
}

fn line_has_code(lines: &[ScanLine], line: usize) -> bool {
    lines
        .get(line - 1)
        .is_some_and(|l| !l.code.trim().is_empty())
}

fn next_code_line(lines: &[ScanLine], line: usize) -> usize {
    (line + 1..=lines.len())
        .find(|&n| line_has_code(lines, n))
        .unwrap_or(line)
}

/// Parses `allow(<rule>) reason="..."`.
fn parse_allow(text: &str) -> Result<(String, String), String> {
    let rest = text
        .strip_prefix("allow(")
        .ok_or("expected `allow(<rule>) reason=\"...\"` after `analyze:`")?;
    let close = rest
        .find(')')
        .ok_or("unclosed `allow(` in analyze annotation")?;
    let rule = rest[..close].trim().to_string();
    if rule.is_empty() || !rule.bytes().all(|b| b.is_ascii_lowercase() || b == b'-') {
        return Err(format!("invalid rule id `{rule}` in analyze annotation"));
    }
    let tail = rest[close + 1..].trim();
    let reason = tail
        .strip_prefix("reason=\"")
        .and_then(|r| r.strip_suffix('"'))
        .ok_or("missing `reason=\"...\"` in analyze annotation")?;
    if reason.trim().is_empty() {
        return Err("empty reason in analyze annotation".to_string());
    }
    Ok((rule, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_cfg_test_and_mod_tests_regions() {
        let src = "fn live() { x(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y(); }\n}\nfn live2() {}\n";
        let f = scan("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_any_test_feature_counts_cfg_not_test_does_not() {
        let any = "#[cfg(any(test, feature = \"test-util\"))]\nfn helper() { body(); }\n";
        let f = scan("crates/x/src/lib.rs", any);
        assert!(f.lines[1].in_test);
        let not = "#[cfg(not(test))]\nfn helper() { body(); }\n";
        let f = scan("crates/x/src/lib.rs", not);
        assert!(!f.lines[1].in_test);
    }

    #[test]
    fn cfg_test_on_statement_does_not_open_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { x(); }\n";
        let f = scan("crates/x/src/lib.rs", src);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn constructor_detection_by_name_and_return_type() {
        let src = "impl X {\n    pub fn new() -> X {\n        alloc();\n    }\n    pub fn detected(n: usize) -> Self {\n        alloc();\n    }\n    pub fn step(&mut self) {\n        alloc();\n    }\n}\n";
        let f = scan("crates/x/src/lib.rs", src);
        assert!(f.lines[2].in_constructor, "fn new");
        assert!(f.lines[5].in_constructor, "-> Self");
        assert!(!f.lines[8].in_constructor, "fn step");
    }

    #[test]
    fn checkpoint_serialization_counts_as_constructor() {
        let src = "impl X {\n    pub fn state(&self) -> XState {\n        alloc();\n    }\n    pub fn restore_state(&mut self, s: &XState) -> Result<(), String> {\n        alloc();\n    }\n    pub fn statement(&mut self) {\n        alloc();\n    }\n}\n";
        let f = scan("crates/x/src/lib.rs", src);
        assert!(f.lines[2].in_constructor, "fn state");
        assert!(f.lines[5].in_constructor, "fn restore_state");
        assert!(!f.lines[8].in_constructor, "fn statement");
    }

    #[test]
    fn multiline_signature_constructor() {
        let src = "pub fn with_policy(\n    config: C,\n) -> Result<Self, E> {\n    alloc();\n}\n";
        let f = scan("crates/x/src/lib.rs", src);
        assert!(f.lines[3].in_constructor);
    }

    #[test]
    fn trailing_and_standalone_allows_resolve_targets() {
        let src = "bad(); // analyze: allow(determinism) reason=\"r\"\n// analyze: allow(hot-path-alloc) reason=\"s\"\n\nother();\n";
        let f = scan("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!((f.allows[0].line, f.allows[0].target), (1, 1));
        assert_eq!((f.allows[1].line, f.allows[1].target), (2, 4));
    }

    #[test]
    fn malformed_annotations_are_reported() {
        let src = "// analyze: allow(determinism)\nx();\n";
        let f = scan("crates/x/src/lib.rs", src);
        assert!(f.allows.is_empty());
        assert_eq!(f.bad_annotations.len(), 1);
    }

    #[test]
    fn test_paths_are_test_regions_wholesale() {
        let f = scan("tests/golden_stats.rs", "fn x() { y(); }\n");
        assert!(f.lines[0].in_test);
    }
}
