//! End-to-end fixture tests: each rule fires exactly where the fixture
//! plants a violation, clean constructs stay clean, allow annotations
//! suppress, and stale annotations are reported.
//!
//! Fixture sources live in `tests/fixtures/` and are fed to the analyzer
//! under synthetic workspace paths; they are never compiled.

use smt_analyze::{analyze_inputs, Input};

fn input(path: &str, text: &str) -> Input {
    Input {
        path: path.to_string(),
        text: text.to_string(),
    }
}

/// `(line, rule)` of every finding, in report order.
fn hits(report: &smt_analyze::Report) -> Vec<(usize, &'static str)> {
    report.findings.iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn hot_path_alloc_fires_outside_constructors_and_tests() {
    let report = analyze_inputs(&[input(
        "crates/core/src/pipeline/fake.rs",
        include_str!("fixtures/hot_path.rs"),
    )]);
    assert_eq!(
        hits(&report),
        vec![
            (22, "hot-path-alloc"),
            (23, "hot-path-alloc"),
            (24, "hot-path-alloc"),
            (30, "hot-path-alloc"),
        ]
    );
}

#[test]
fn hot_path_alloc_is_scoped_to_hot_crates() {
    let report = analyze_inputs(&[input(
        "crates/cli/src/fake.rs",
        include_str!("fixtures/hot_path.rs"),
    )]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn determinism_fires_on_clock_env_and_hash_iteration() {
    let report = analyze_inputs(&[input(
        "crates/fetch/src/fake.rs",
        include_str!("fixtures/determinism.rs"),
    )]);
    assert_eq!(
        hits(&report),
        vec![
            (5, "determinism"),
            (15, "determinism"),
            (16, "determinism"),
            (18, "determinism"),
            (19, "determinism"),
            (23, "determinism"),
        ]
    );
}

#[test]
fn determinism_is_scoped_to_simulation_crates() {
    let report = analyze_inputs(&[input(
        "crates/bench/src/fake.rs",
        include_str!("fixtures/determinism.rs"),
    )]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn sampling_discipline_fires_only_in_the_fast_forward_file() {
    let report = analyze_inputs(&[input(
        "crates/core/src/pipeline/fast_forward.rs",
        include_str!("fixtures/sampling_discipline.rs"),
    )]);
    // Plain `self.cycle` reads and `cycle ==` comparisons are legal; the
    // allowed counter touch on line 21 is suppressed, not reported.
    assert_eq!(
        hits(&report),
        vec![
            (12, "sampling-discipline"),
            (13, "sampling-discipline"),
            (14, "sampling-discipline"),
            (15, "sampling-discipline"),
        ]
    );
    assert_eq!(report.suppressed.len(), 1);

    let elsewhere = analyze_inputs(&[input(
        "crates/core/src/pipeline/fake.rs",
        include_str!("fixtures/sampling_discipline.rs"),
    )]);
    // Outside the fast-forward file the rule does not apply, so the allow
    // annotation has nothing to suppress and is itself reported as stale.
    assert_eq!(hits(&elsewhere), vec![(20, "unused-allow")]);
}

#[test]
fn sync_discipline_fires_in_every_sim_module() {
    for path in ["crates/sched/src/fake.rs", "crates/core/src/chip/mod.rs"] {
        let report = analyze_inputs(&[input(path, include_str!("fixtures/sync_discipline.rs"))]);
        // The allowed Mutex on line 17 is suppressed, not reported.
        assert_eq!(
            hits(&report),
            vec![
                (5, "sync-discipline"),
                (6, "sync-discipline"),
                (9, "sync-discipline"),
                (10, "sync-discipline"),
                (11, "sync-discipline"),
            ],
            "{path}"
        );
        assert_eq!(report.suppressed.len(), 1, "{path}");
    }
}

#[test]
fn sync_discipline_spares_only_the_harness() {
    for path in [
        "crates/core/src/runner.rs",
        "crates/core/src/experiments/engine.rs",
        "crates/cli/src/fake.rs",
    ] {
        let report = analyze_inputs(&[input(path, include_str!("fixtures/sync_discipline.rs"))]);
        // Out of scope the rule never fires, so the allow annotation has
        // nothing to suppress and is itself reported as stale.
        assert_eq!(hits(&report), vec![(16, "unused-allow")], "{path}");
    }
}

#[test]
fn config_hygiene_flags_only_underivative_deserialize_structs() {
    let report = analyze_inputs(&[input(
        "crates/types/src/fake.rs",
        include_str!("fixtures/config_hygiene.rs"),
    )]);
    // `Loose` is flagged; `Strict` (denying), `Kind` (enum) and
    // `SerializeOnly` (no Deserialize) are not.
    assert_eq!(hits(&report), vec![(6, "config-hygiene")]);
}

#[test]
fn allows_suppress_and_stale_allows_are_reported() {
    let report = analyze_inputs(&[input(
        "crates/fetch/src/fake.rs",
        include_str!("fixtures/allows.rs"),
    )]);
    assert_eq!(
        hits(&report),
        vec![(13, "unused-allow"), (14, "hot-path-alloc")]
    );
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn registry_drift_catches_phantom_citations_and_undocumented_names() {
    let registry = input(
        "crates/core/src/experiments/registry.rs",
        r#"
fn builtin() {
    single_thread("fig09_two_thread_policies", "...");
    single_thread("fig99_forgotten", "...");
}
"#,
    );
    let readme = input(
        "README.md",
        "Run `cargo run -p smt-cli -- run fig09_two_thread_policies` or cite `fig12_phantom`.\n",
    );
    let experiments = input(
        "EXPERIMENTS.md",
        "## fig09_two_thread_policies\n\nDocumented.\n",
    );
    let report = analyze_inputs(&[registry, readme, experiments]);
    let drift: Vec<(&str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    // `fig12_phantom` cited but unregistered; `fig99_forgotten` registered
    // but undocumented.
    assert_eq!(
        drift,
        vec![
            ("README.md", 1),
            ("crates/core/src/experiments/registry.rs", 4),
        ]
    );
    assert!(report.findings.iter().all(|f| f.rule == "registry-drift"));
}

/// The fixture as a library file, plus callers: the CLI names
/// `called_by_cli` and `Probe` (and, in a doc comment, `only_tested`),
/// perfbench names `called_by_perfbench`, the crate root re-exports
/// `ONLY_REEXPORTED`, and an integration test calls `only_tested`.
fn test_only_pub_inputs(extra_cli: &str) -> Vec<Input> {
    vec![
        input(
            "crates/mem/src/fake.rs",
            include_str!("fixtures/test_only_pub.rs"),
        ),
        input("crates/mem/src/lib.rs", "pub use fake::ONLY_REEXPORTED;\n"),
        input(
            "crates/cli/src/main.rs",
            &format!(
                "/// Unlike `only_tested`, these have callers.\nfn main() {{\n    \
                 let _ = smt_mem::fake::called_by_cli();\n    \
                 println!(\"{{}}\", smt_mem::fake::Probe);\n{extra_cli}}}\n"
            ),
        ),
        input(
            "perfbench/src/main.rs",
            "fn main() {\n    let _ = smt_mem::fake::called_by_perfbench();\n}\n",
        ),
        input(
            "crates/mem/tests/fake.rs",
            "#[test]\nfn t() {\n    assert_eq!(smt_mem::fake::only_tested(), 7);\n}\n",
        ),
    ]
}

#[test]
fn test_only_pub_fires_only_on_items_without_a_non_test_caller() {
    let report = analyze_inputs(&test_only_pub_inputs(""));
    // `only_tested` (line 7) has test callers only; `ONLY_REEXPORTED` (line
    // 26) is only re-exported. Items named by the CLI or perfbench, the
    // private helper, the trait-impl method, the `pub use` line and the
    // allowed entry point stay quiet.
    assert_eq!(
        hits(&report),
        vec![(7, "test-only-pub"), (26, "test-only-pub")]
    );
    assert!(report
        .findings
        .iter()
        .all(|f| f.file == "crates/mem/src/fake.rs"));
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn test_only_pub_allow_goes_stale_once_the_item_gains_a_caller() {
    let report = analyze_inputs(&test_only_pub_inputs(
        "    smt_mem::fake::kept_entry_point();\n",
    ));
    assert_eq!(
        hits(&report),
        vec![
            (7, "test-only-pub"),
            (26, "test-only-pub"),
            (38, "unused-allow")
        ]
    );
    assert!(report.suppressed.is_empty());
}

#[test]
fn test_only_pub_needs_callers_in_view() {
    // A library file analyzed alone has no callers to judge by.
    let report = analyze_inputs(&[input(
        "crates/mem/src/fake.rs",
        include_str!("fixtures/test_only_pub.rs"),
    )]);
    assert_eq!(hits(&report), vec![(38, "unused-allow")]);
}

#[test]
fn json_report_shape_is_stable() {
    let report = analyze_inputs(&[input(
        "crates/fetch/src/fake.rs",
        "fn step() { let v = Vec::new(); }\n",
    )]);
    let json = report.to_json();
    assert!(json.contains("\"file\": \"crates/fetch/src/fake.rs\""));
    assert!(json.contains("\"line\": 1"));
    assert!(json.contains("\"scanned_files\": 1"));
    assert!(json.ends_with("}\n"));
}
