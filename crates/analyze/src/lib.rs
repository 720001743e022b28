//! `smt-analyze` — the workspace invariant checker.
//!
//! A self-contained, dependency-free static analysis pass over the
//! simulator's Rust sources enforcing the conventions the workspace rests
//! on:
//!
//! * **hot-path-alloc** — the zero-allocation steady state of the cycle loop
//!   (PR 2): no heap-allocating constructs in `crates/core/src/pipeline`,
//!   `crates/fetch` or `crates/mem` outside constructors, checkpoint
//!   serialization functions and test code;
//! * **determinism** — simulation crates take no nondeterministic inputs:
//!   no wall-clock (`Instant`/`SystemTime`), no `thread_rng`, no environment
//!   reads, no iteration over hash-ordered containers;
//! * **config-hygiene** — every `Deserialize` struct in `smt-types` carries
//!   `#[serde(deny_unknown_fields)]`;
//! * **registry-drift** — experiment names cited in the docs exist in the
//!   registry, and every registered name is documented;
//! * **panic-policy** — no bare `unwrap()`/`expect(` in the experiment
//!   engine (`crates/core/src/experiments/`): cell failures must surface as
//!   `Result`s so the report can classify them; a panic inside a cell is
//!   only quarantined as an opaque `panic` outcome, and one outside a cell
//!   takes the whole run down;
//! * **sampling-discipline** — functional fast-forward code
//!   (`crates/core/src/pipeline/fast_forward.rs`) never touches statistics
//!   counters or cycle accounting: warming must be invisible to everything
//!   the measure windows report;
//! * **sync-discipline** — simulation state is single-owner: locks, atomics,
//!   interior mutability and `unsafe` live only in the host-side harness
//!   files (experiment engine, runner), never in a simulation module;
//! * **test-only-pub** — every `pub` item of a library crate is named by
//!   some non-test code of the workspace (the CLI, `src/`, `examples/` and
//!   perfbench included): API that only tests call is deleted or carries
//!   an allow naming the tests that need it.
//!
//! A finding is suppressed with a justified annotation on (or directly
//! above) the offending line:
//!
//! ```text
//! // analyze: allow(determinism) reason="retain predicate is order-independent"
//! ```
//!
//! Unused annotations are themselves findings (`unused-allow`), so stale
//! suppressions cannot accumulate.

#![deny(missing_docs)]

use std::path::Path;

mod drift;
pub mod lexer;
mod rules;
pub mod scan;
mod test_only_pub;

pub use drift::DriftInputs;
pub use rules::{Finding, RULE_IDS};

use scan::{scan, ScannedFile};

/// One file handed to the analyzer: a workspace-relative path (forward
/// slashes) and its contents.
pub struct Input {
    /// Workspace-relative path.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// The outcome of an analysis run.
pub struct Report {
    /// Unsuppressed findings, sorted by file, line, rule.
    pub findings: Vec<Finding>,
    /// Findings silenced by a matching `analyze: allow` annotation.
    pub suppressed: Vec<(Finding, String)>,
    /// Number of `.rs` files scanned.
    pub scanned_files: usize,
}

impl Report {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    {}\n",
                f.file, f.line, f.rule, f.message, f.excerpt
            ));
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} finding(s), {} suppressed by allow annotations\n",
            self.scanned_files,
            self.findings.len(),
            self.suppressed.len()
        ));
        out
    }

    /// Renders the report as stable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"excerpt\": {}}}",
                json_string(&f.file),
                f.line,
                json_string(f.rule),
                json_string(&f.message),
                json_string(&f.excerpt)
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"scanned_files\": {},\n  \"suppressed\": {}\n}}\n",
            self.scanned_files,
            self.suppressed.len()
        ));
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Analyzes a set of in-memory inputs. `.rs` files are scanned and run
/// through the per-file rules and, together, the test-only-pub rule;
/// `README.md` and `EXPERIMENTS.md` feed the registry-drift rule.
pub fn analyze_inputs(inputs: &[Input]) -> Report {
    let mut scanned: Vec<(ScannedFile, &Input)> = inputs
        .iter()
        .filter(|i| i.path.ends_with(".rs"))
        .map(|i| (scan(&i.path, &i.text), i))
        .collect();
    scanned.sort_by(|a, b| a.0.path.cmp(&b.0.path));

    let raw: Vec<Vec<&str>> = scanned
        .iter()
        .map(|(_, i)| i.text.lines().collect())
        .collect();
    let mut raw_findings: Vec<Finding> = Vec::new();
    for ((file, _), raw) in scanned.iter().zip(&raw) {
        rules::check_file(file, raw, &mut raw_findings);
    }

    let find_scanned = |path: &str| -> Option<&ScannedFile> {
        scanned.iter().map(|(f, _)| f).find(|f| f.path == path)
    };
    let drift_inputs = DriftInputs {
        registry: find_scanned("crates/core/src/experiments/registry.rs"),
        docs: inputs
            .iter()
            .filter(|i| i.path.ends_with("README.md") || i.path.ends_with("EXPERIMENTS.md"))
            .map(|i| (i.path.as_str(), i.text.as_str()))
            .collect(),
    };
    drift::check_drift(&drift_inputs, &mut raw_findings);
    let files: Vec<&ScannedFile> = scanned.iter().map(|(f, _)| f).collect();
    test_only_pub::check_test_only_pub(&files, &raw, &mut raw_findings);

    // Apply suppressions and flag unused or malformed annotations.
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut used: Vec<(String, usize, String)> = Vec::new();
    for f in raw_findings {
        let allow = scanned.iter().map(|(s, _)| s).find_map(|s| {
            (s.path == f.file).then(|| {
                s.allows
                    .iter()
                    .find(|a| a.target == f.line && a.rule == f.rule)
            })?
        });
        match allow {
            Some(a) => {
                used.push((f.file.clone(), a.line, a.rule.clone()));
                suppressed.push((f, a.reason.clone()));
            }
            None => findings.push(f),
        }
    }
    for (file, _) in &scanned {
        for a in &file.allows {
            if !RULE_IDS.contains(&a.rule.as_str()) {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: a.line,
                    rule: "bad-annotation",
                    message: format!(
                        "unknown rule `{}` in analyze annotation (known: {})",
                        a.rule,
                        RULE_IDS.join(", ")
                    ),
                    excerpt: String::new(),
                });
            } else if !used
                .iter()
                .any(|(f, l, r)| *f == file.path && *l == a.line && *r == a.rule)
            {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: a.line,
                    rule: "unused-allow",
                    message: format!(
                        "allow({}) suppresses nothing — the violation it covered is gone; remove the annotation",
                        a.rule
                    ),
                    excerpt: String::new(),
                });
            }
        }
        for (line, msg) in &file.bad_annotations {
            findings.push(Finding {
                file: file.path.clone(),
                line: *line,
                rule: "bad-annotation",
                message: msg.clone(),
                excerpt: String::new(),
            });
        }
    }

    findings.sort();
    Report {
        findings,
        suppressed,
        scanned_files: scanned.len(),
    }
}

/// Walks a workspace root, reads every relevant file and analyzes it.
///
/// Skipped subtrees: `target`, `.git`, `crates/vendor` (third-party API
/// stand-ins) and `crates/analyze` (this tool and its deliberately
/// violating fixtures).
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading.
pub fn analyze_root(root: &Path) -> std::io::Result<Report> {
    let mut inputs = Vec::new();
    walk(root, root, &mut inputs)?;
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let path = root.join(doc);
        if path.is_file() {
            inputs.push(Input {
                path: doc.to_string(),
                text: std::fs::read_to_string(path)?,
            });
        }
    }
    Ok(analyze_inputs(&inputs))
}

fn walk(root: &Path, dir: &Path, inputs: &mut Vec<Input>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let rel = relative(root, &path);
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            if rel == "crates/vendor" || rel == "crates/analyze" {
                continue;
            }
            walk(root, &path, inputs)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            inputs.push(Input {
                path: rel,
                text: std::fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(path: &str, text: &str) -> Input {
        Input {
            path: path.to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn allow_suppresses_and_unused_allow_fires() {
        let used = input(
            "crates/fetch/src/a.rs",
            "fn step() {\n    let v = Vec::new(); // analyze: allow(hot-path-alloc) reason=\"scratch grown once\"\n}\n",
        );
        let report = analyze_inputs(&[used]);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);

        let unused = input(
            "crates/fetch/src/a.rs",
            "fn step() {\n    // analyze: allow(hot-path-alloc) reason=\"nothing here\"\n    let x = 1;\n}\n",
        );
        let report = analyze_inputs(&[unused]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "unused-allow");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let report = analyze_inputs(&[input(
            "crates/fetch/src/a.rs",
            "// analyze: allow(no-such-rule) reason=\"x\"\nfn f() {}\n",
        )]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "bad-annotation");
    }

    #[test]
    fn json_output_is_escaped() {
        let report = analyze_inputs(&[input(
            "crates/fetch/src/a.rs",
            "fn step() { let s = format!(\"x\"); }\n",
        )]);
        assert!(!report.is_clean());
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"hot-path-alloc\""));
        assert!(json.contains("\\\"x\\\""));
    }
}
