//! Report-stability fixture for every registry entry.
//!
//! Each built-in experiment runs at `tiny` scale on two engine threads, with
//! its workloads capped to one per group and its sweep to two values so the
//! suite stays fast in a debug build. The fixture
//! (`tests/golden/registry_reports.json`) pins, per entry, a digest of every
//! cell's JSON keyed by the cell's label, plus one digest of the whole report
//! (summaries, outcomes, reference-run and checkpoint counts) with the
//! wall-clock fields zeroed. Any change to what a registry run produces fails
//! here and names the entry and cell; regenerate deliberately with:
//!
//! ```text
//! SMT_GOLDEN_REGEN=1 cargo test --test registry_reports
//! ```

use serde::{Serialize, Value};
use smt_core::experiments::{engine, ExperimentRegistry, ExperimentReport, ExperimentSpec};
use smt_core::runner::RunScale;

/// Key of the whole-report digest inside an entry's map.
const REPORT_KEY: &str = "(report)";

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("registry_reports.json")
}

/// The registry entry shrunk to fixture size.
fn fixture_spec(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut spec = spec
        .clone()
        .with_scale(RunScale::tiny())
        .with_workload_limit_per_group(1)
        .expect("registry workloads are valid");
    if let Some(sweep) = spec.sweep.as_mut() {
        sweep.values.truncate(2);
    }
    spec
}

/// FNV-1a over the value's compact JSON.
fn digest<T: Serialize + ?Sized>(value: &T) -> Value {
    let json = serde_json::to_string(value).expect("report serializes");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    Value::Str(format!("{hash:016x}"))
}

/// One entry's digests: each cell (or failed outcome) under its label, then
/// the whole report.
fn report_digests(mut report: ExperimentReport) -> Value {
    report.wall_ms = 0;
    report.threads_used = 0;
    let mut entries = Vec::new();
    let mut cells = report.policy_cells.iter();
    let mut rows = report.bench_rows.iter();
    for outcome in report.cell_outcomes.as_deref().unwrap_or(&[]) {
        let value = if !outcome.ok {
            digest(outcome)
        } else if let Some(cell) = cells.next() {
            digest(cell)
        } else {
            digest(rows.next().expect("one row per successful outcome"))
        };
        entries.push((outcome.label.clone(), value));
    }
    entries.push((REPORT_KEY.to_string(), digest(&report)));
    Value::Map(entries)
}

fn run_registry() -> Value {
    let entries = ExperimentRegistry::builtin()
        .specs()
        .iter()
        .map(|spec| {
            let report = engine::run_spec_with_threads(&fixture_spec(spec), 2)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            (spec.name.clone(), report_digests(report))
        })
        .collect();
    Value::Map(entries)
}

#[test]
fn registry_reports_match_golden_fixture() {
    let current = run_registry();
    let path = golden_path();
    if std::env::var("SMT_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&current).expect("fixture serializes");
        smt_core::artifacts::write_atomic(&path, json + "\n").expect("fixture written");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with SMT_GOLDEN_REGEN=1",
            path.display()
        )
    });
    let golden: Value = serde_json::from_str(&text).expect("fixture parses");
    let (current, golden) = (current.as_map().unwrap(), golden.as_map().unwrap());
    let names = |map: &[(String, Value)]| map.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(current),
        names(golden),
        "registry entries drifted; regenerate deliberately with SMT_GOLDEN_REGEN=1"
    );
    let mut mismatches = Vec::new();
    for ((name, now), (_, pinned)) in current.iter().zip(golden) {
        let (now, pinned) = (now.as_map().unwrap(), pinned.as_map().unwrap());
        if names(now) != names(pinned) {
            mismatches.push(format!("{name}: cell labels {:?}", names(now)));
            continue;
        }
        for ((label, a), (_, b)) in now.iter().zip(pinned) {
            if a != b {
                mismatches.push(format!("{name}: {label}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "registry reports diverged from the golden fixture:\n  {}",
        mismatches.join("\n  ")
    );
}
