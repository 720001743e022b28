//! The **test-only-pub** rule: public API of a library crate has a caller
//! outside tests.
//!
//! A `pub` fn, inherent method, struct, enum, const, static, type or trait
//! declared in a library crate's `src/` ([`LIB_CRATES`]) is flagged when no
//! non-test code of the workspace names it outside its own declaration.
//! Every non-test line is a user: the library crates themselves,
//! `crates/cli`, the root `src/`, `examples/` and `perfbench/src`.
//! `#[cfg(test)]` regions, `tests/` directories, comments (doc examples
//! included), `pub use` re-exports and the header of an `impl` block for the
//! item itself name nothing. Names match as whole identifiers, so an item
//! that shares its name with a used one is never flagged: the rule can miss
//! dead API, but what it flags has no user.
//!
//! The rule judges callers, so it runs only when a file outside the library
//! crates is among the inputs; a lone library file has no callers in view.

use std::collections::HashMap;

use crate::rules::{finding, Finding};
use crate::scan::ScannedFile;

/// The library crates whose public items must have a non-test user.
const LIB_CRATES: [&str; 8] = [
    "types",
    "trace",
    "branch",
    "mem",
    "predictors",
    "fetch",
    "sched",
    "core",
];

/// Item keywords the rule checks.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "const", "static", "type", "trait"];

/// Runs the rule over every scanned file; `raw[i]` holds the source lines of
/// `files[i]`.
pub(crate) fn check_test_only_pub(
    files: &[&ScannedFile],
    raw: &[Vec<&str>],
    out: &mut Vec<Finding>,
) {
    if !files.iter().any(|f| is_outside_user(&f.path)) {
        return;
    }
    // Every identifier on a line that can name an item: `(file, line)`.
    let mut uses: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        if is_test_tree(&file.path) {
            continue;
        }
        let mut in_pub_use = false;
        for (li, line) in file.lines.iter().enumerate() {
            let words = idents(&line.code);
            in_pub_use |= words.len() > 1
                && words[0] == "pub"
                && line.code.trim_start().starts_with("pub")
                && (words[1] == "use" || words.get(2) == Some(&"use"));
            let skip = line.in_test || in_pub_use;
            if in_pub_use && line.code.contains(';') {
                in_pub_use = false;
            }
            if skip {
                continue;
            }
            for word in words {
                uses.entry(word).or_default().push((fi, li));
            }
        }
    }

    for (fi, file) in files.iter().enumerate() {
        if !is_library_source(&file.path) {
            continue;
        }
        for (li, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some((kind, name)) = declared_item(&line.code) else {
                continue;
            };
            let end = item_end(file, li);
            let named = uses.get(name).is_some_and(|sites| {
                sites.iter().any(|&(f, l)| {
                    let own = f == fi && (li..=end).contains(&l);
                    !own && impl_self_type(&files[f].lines[l].code) != Some(name)
                })
            });
            if !named {
                out.push(finding(
                    file,
                    &raw[fi],
                    li + 1,
                    "test-only-pub",
                    format!(
                        "pub {kind} `{name}` is named by no non-test code: delete it, or \
                         keep a deliberate entry point with an allow naming its user"
                    ),
                ));
            }
        }
    }
}

/// Files whose non-test code calls into the library crates from outside.
fn is_outside_user(path: &str) -> bool {
    ["crates/cli/", "src/", "examples/", "perfbench/src/"]
        .iter()
        .any(|p| path.starts_with(p))
}

/// `tests/` and `benches/` trees: nothing there counts as a user.
fn is_test_tree(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

fn is_library_source(path: &str) -> bool {
    LIB_CRATES.iter().any(|c| {
        path.strip_prefix("crates/")
            .and_then(|p| p.strip_prefix(c))
            .is_some_and(|p| p.starts_with("/src/"))
    })
}

/// The identifiers of a comment- and literal-free line, in order.
fn idents(code: &str) -> Vec<&str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// `(keyword, name)` of a `pub` item declared on this line. `pub(crate)`
/// and narrower items, fields, modules and re-exports are not items here.
fn declared_item(code: &str) -> Option<(&'static str, &str)> {
    if !code.trim_start().starts_with("pub ") {
        return None;
    }
    let words = idents(code);
    let mut i = 1;
    // Qualifiers before the keyword: `const fn`, `unsafe fn`, `extern "C" fn`.
    while let Some(&w) = words.get(i) {
        let qualifies_fn = matches!(words.get(i + 1), Some(&("fn" | "unsafe" | "extern")));
        if matches!(w, "unsafe" | "async" | "extern") || (w == "const" && qualifies_fn) {
            i += 1;
        } else {
            break;
        }
    }
    let keyword = ITEM_KEYWORDS
        .into_iter()
        .find(|k| words.get(i) == Some(k))?;
    i += 1;
    if keyword == "static" && words.get(i) == Some(&"mut") {
        i += 1;
    }
    Some((keyword, words.get(i)?))
}

/// Index of the last line of the item declared on line `start`: its closing
/// brace, or the `;` that ends a bodiless item.
fn item_end(file: &ScannedFile, start: usize) -> usize {
    let (mut braces, mut parens, mut opened) = (0i64, 0i64, false);
    for (li, line) in file.lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    braces += 1;
                    opened = true;
                }
                '}' => {
                    braces -= 1;
                    if opened && braces == 0 {
                        return li;
                    }
                }
                '(' | '[' => parens += 1,
                ')' | ']' => parens -= 1,
                ';' if braces == 0 && parens == 0 => return li,
                _ => {}
            }
        }
    }
    file.lines.len().saturating_sub(1)
}

/// The self type named by an `impl` header (`impl<T> Trait for Name<T> {`
/// gives `Name`), or `None` for any other line.
fn impl_self_type(code: &str) -> Option<&str> {
    let words = idents(code);
    if words.first() != Some(&"impl") || !code.trim_start().starts_with("impl") {
        return None;
    }
    let mut rest = code.trim_start()["impl".len()..].trim_start();
    if rest.starts_with('<') {
        let mut depth = 0i32;
        let close = rest.find(|c: char| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &rest[close + 1..];
    }
    let head = rest.split('{').next()?.split(" where").next()?;
    let head = head.rsplit(" for ").next()?.split('<').next()?.trim();
    head.rsplit("::").next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_items_by_keyword() {
        assert_eq!(declared_item("pub fn go() {"), Some(("fn", "go")));
        assert_eq!(declared_item("    pub const fn go() {"), Some(("fn", "go")));
        assert_eq!(
            declared_item("pub const LIMIT: u64 = 3;"),
            Some(("const", "LIMIT"))
        );
        assert_eq!(
            declared_item("pub static mut N: u8 = 0;"),
            Some(("static", "N"))
        );
        assert_eq!(
            declared_item("pub struct Seq(u64);"),
            Some(("struct", "Seq"))
        );
        assert_eq!(declared_item("pub(crate) fn hidden() {"), None);
        assert_eq!(declared_item("pub use crate::x::Y;"), None);
        assert_eq!(declared_item("pub field: u64,"), None);
        assert_eq!(declared_item("pub mod cache;"), None);
    }

    #[test]
    fn impl_headers_name_their_self_type() {
        assert_eq!(impl_self_type("impl Seq {"), Some("Seq"));
        assert_eq!(impl_self_type("impl<T: Copy> Table<T> {"), Some("Table"));
        assert_eq!(impl_self_type("impl fmt::Display for Seq {"), Some("Seq"));
        assert_eq!(
            impl_self_type("impl From<Seq> for crate::x::Other {"),
            Some("Other")
        );
        assert_eq!(impl_self_type("let imply = 1;"), None);
    }
}
