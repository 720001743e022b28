//! The **registry-drift** rule: experiment names cited in the docs must
//! exist in the registry they claim to describe.
//!
//! Two sub-checks:
//!
//! 1. every experiment name cited in `README.md` / `EXPERIMENTS.md` (on an
//!    `smt-cli … run|describe <name>` invocation line, or as a backticked
//!    token shaped like an experiment name) exists in the registry source;
//! 2. every registered experiment name is documented in `EXPERIMENTS.md`.

use crate::rules::Finding;
use crate::scan::ScannedFile;

/// Cross-file inputs the rule reads. All optional: a missing input skips its
/// sub-checks (fixture tests exercise them in isolation).
#[derive(Default)]
pub struct DriftInputs<'a> {
    /// `crates/core/src/experiments/registry.rs`, scanned.
    pub registry: Option<&'a ScannedFile>,
    /// `(path, text)` of `README.md` and `EXPERIMENTS.md`.
    pub docs: Vec<(&'a str, &'a str)>,
}

/// Runs the rule.
pub(crate) fn check_drift(inputs: &DriftInputs<'_>, out: &mut Vec<Finding>) {
    let Some(registry) = inputs.registry else {
        return;
    };
    let registry_names: Vec<(usize, String)> = registry
        .non_test_strings()
        .filter(|(_, s)| is_experiment_name(s))
        .map(|(l, s)| (l, s.to_string()))
        .collect();

    for (path, text) in &inputs.docs {
        for (line_no, line) in text.lines().enumerate() {
            for cited in cited_experiment_names(line) {
                if !registry_names.iter().any(|(_, n)| *n == cited) {
                    out.push(doc_finding(
                        path,
                        line_no + 1,
                        line,
                        format!("experiment `{cited}` is cited here but not registered in the experiment registry"),
                    ));
                }
            }
        }
    }
    if let Some((_, experiments_text)) = inputs
        .docs
        .iter()
        .find(|(p, _)| p.ends_with("EXPERIMENTS.md"))
    {
        for (line, name) in &registry_names {
            if !experiments_text.contains(name.as_str()) {
                out.push(Finding {
                    file: registry.path.clone(),
                    line: *line,
                    rule: "registry-drift",
                    message: format!(
                        "registered experiment `{name}` is not documented in EXPERIMENTS.md"
                    ),
                    excerpt: format!("\"{name}\""),
                });
            }
        }
    }
}

fn doc_finding(path: &str, line: usize, raw: &str, message: String) -> Finding {
    Finding {
        file: path.to_string(),
        line,
        rule: "registry-drift",
        message,
        excerpt: raw.trim().chars().take(120).collect(),
    }
}

/// The registry-name grammar: lowercase alphanumeric segments joined by
/// underscores, at least two segments, starting with a letter.
fn is_experiment_name(s: &str) -> bool {
    let mut segments = 0usize;
    if !s.starts_with(|c: char| c.is_ascii_lowercase()) {
        return false;
    }
    for seg in s.split('_') {
        if seg.is_empty()
            || !seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// Experiment names cited on one doc line: tokens after `run` / `describe`
/// on `smt-cli` invocation lines, plus backticked tokens matching the
/// experiment-name shapes used by the registry (`fig<digits>_…`,
/// `table<digits>_…`, `chip_<digit>…`), plus `adaptive_<digit>…`, the shape
/// of the removed adaptive entries, so a stale citation of one is caught.
fn cited_experiment_names(line: &str) -> Vec<String> {
    let mut cited = Vec::new();
    if line.contains("smt-cli") {
        let tokens: Vec<&str> = line
            .split([' ', '\t', '`', '|'])
            .filter(|t| !t.is_empty())
            .collect();
        for pair in tokens.windows(2) {
            if (pair[0] == "run" || pair[0] == "describe") && is_experiment_name(pair[1]) {
                cited.push(pair[1].to_string());
            }
        }
    }
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let Some(len) = rest[open + 1..].find('`') else {
            break;
        };
        let token = &rest[open + 1..open + 1 + len];
        if is_shaped_citation(token) && !cited.contains(&token.to_string()) {
            cited.push(token.to_string());
        }
        rest = &rest[open + len + 2..];
    }
    cited
}

/// Backticked tokens checked even off invocation lines. Deliberately narrow:
/// underscore required after the `fig`/`table` ordinal, digit required after
/// `chip_`/`adaptive_`/`trace_`, so kind names (`chip_grid`, `adaptive_grid`)
/// and API names (`table1`) stay out of scope.
fn is_shaped_citation(token: &str) -> bool {
    if !is_experiment_name(token) {
        return false;
    }
    for prefix in ["fig", "table"] {
        if let Some(rest) = token.strip_prefix(prefix) {
            if rest.starts_with(|c: char| c.is_ascii_digit()) {
                let after: &str = rest.trim_start_matches(|c: char| c.is_ascii_digit());
                return after.starts_with('_');
            }
        }
    }
    for prefix in ["chip_", "adaptive_", "trace_"] {
        if let Some(rest) = token.strip_prefix(prefix) {
            return rest.starts_with(|c: char| c.is_ascii_digit());
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_name_grammar() {
        assert!(is_experiment_name("fig09_two_thread_policies"));
        assert!(is_experiment_name("table1_characterization"));
        assert!(is_experiment_name("fig06_08_predictor_accuracy"));
        assert!(!is_experiment_name("mcf"));
        assert!(!is_experiment_name("4t_mix_icount"));
        assert!(!is_experiment_name("Fig09_x"));
        assert!(!is_experiment_name("a__b"));
    }

    #[test]
    fn shaped_citations_exclude_kind_and_api_names() {
        assert!(is_shaped_citation("fig09_two_thread_policies"));
        assert!(is_shaped_citation("chip_2c2t_adaptive"));
        assert!(is_shaped_citation("adaptive_4t"));
        assert!(is_shaped_citation("trace_2t_replay"));
        assert!(!is_shaped_citation("trace_replay_ingest"));
        assert!(!is_shaped_citation("chip_grid"));
        assert!(!is_shaped_citation("adaptive_grid"));
        assert!(!is_shaped_citation("table1"));
        assert!(!is_shaped_citation("memory_latency_sweep"));
    }

    #[test]
    fn invocation_lines_cite_names() {
        let cited =
            cited_experiment_names("cargo run -p smt-cli -- run fig09_two_thread_policies --scale");
        assert_eq!(cited, vec!["fig09_two_thread_policies".to_string()]);
        assert!(cited_experiment_names("`smt-cli run my.toml`").is_empty());
        assert!(cited_experiment_names("plain prose with `policy_comparison` tokens").is_empty());
    }
}
