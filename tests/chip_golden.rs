//! Chip-level golden-stats and determinism regression tests.
//!
//! The fixture (`tests/golden/chip_stats.json`) pins bit-for-bit
//! [`ChipStats`] for a 2-core x 2-thread chip — shared LLC, contended bus,
//! chip arbitration — under the ICOUNT baseline and the paper's MLP-aware
//! flush policy. Any change to chip-level simulated behaviour fails these
//! tests; regenerate deliberately with:
//!
//! ```text
//! SMT_GOLDEN_REGEN=1 cargo test --test chip_golden
//! ```
//!
//! The determinism test pins that chip results are bit-for-bit reproducible
//! (invariance to the order cores are stepped in within a cycle is pinned by
//! `smt-core`'s chip unit tests, engine-thread-count invariance for chip
//! experiment grids by its engine tests).

use serde::{Deserialize, Serialize};
use smt_core::chip::ChipSimulator;
use smt_core::runner::{build_trace, RunScale};
use smt_trace::TraceSource;
use smt_types::config::FetchPolicyKind;
use smt_types::{ChipConfig, ChipStats};

/// One pinned chip simulation outcome.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct GoldenChipCase {
    policy: FetchPolicyKind,
    /// Benchmarks per core (the fixed round-robin placement of the
    /// mcf/swim/gcc/twolf workload).
    cores: Vec<Vec<String>>,
    stats: ChipStats,
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("chip_stats.json")
}

fn golden_scale() -> RunScale {
    RunScale::tiny()
}

/// The pinned placement: an MLP-heavy thread next to a branchy one on each
/// core, so policy flushes, branch squashes, LLC contention and bus queueing
/// all trigger.
fn golden_assignments() -> Vec<Vec<&'static str>> {
    vec![vec!["mcf", "gcc"], vec!["swim", "twolf"]]
}

fn chip_traces(
    assignments: &[Vec<&'static str>],
    scale: RunScale,
) -> Vec<Vec<Box<dyn TraceSource>>> {
    assignments
        .iter()
        .map(|core| {
            core.iter()
                .map(|b| build_trace(b, scale).expect("known benchmark"))
                .collect()
        })
        .collect()
}

fn run_chip(policy: FetchPolicyKind) -> ChipStats {
    let scale = golden_scale();
    let config = ChipConfig::baseline(2, 2).with_policy(policy);
    let mut sim = ChipSimulator::new(config, chip_traces(&golden_assignments(), scale))
        .expect("golden chip builds");
    sim.run(scale.sim_options())
}

fn run_all_cases() -> Vec<GoldenChipCase> {
    [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush]
        .into_iter()
        .map(|policy| GoldenChipCase {
            policy,
            cores: golden_assignments()
                .iter()
                .map(|core| core.iter().map(|b| b.to_string()).collect())
                .collect(),
            stats: run_chip(policy),
        })
        .collect()
}

#[test]
fn chip_stats_match_golden_fixture_bit_for_bit() {
    let cases = run_all_cases();
    let path = golden_path();
    if std::env::var("SMT_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&cases).expect("fixture serializes");
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
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
    let golden: Vec<GoldenChipCase> = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(
        golden.len(),
        cases.len(),
        "fixture case count drifted; regenerate deliberately with SMT_GOLDEN_REGEN=1"
    );
    for (current, pinned) in cases.iter().zip(&golden) {
        assert_eq!(current.policy, pinned.policy, "fixture order drifted");
        assert_eq!(current.cores, pinned.cores, "fixture placement drifted");
        assert_eq!(
            current.stats,
            pinned.stats,
            "ChipStats diverged from golden fixture for policy `{}`",
            current.policy.name(),
        );
    }
}

#[test]
fn golden_chip_runs_exercise_contention_and_squashes() {
    // The fixture only means something if the pinned runs actually take the
    // chip-specific paths: both cores committing work against the shared
    // level, and the squash machinery firing under the flush policy.
    let cases = run_all_cases();
    for case in &cases {
        for (core, stats) in case.stats.cores.iter().enumerate() {
            let committed: u64 = stats.threads.iter().map(|t| t.committed_instructions).sum();
            assert!(
                committed > 0,
                "{}: core {core} committed nothing",
                case.policy.name()
            );
        }
    }
    let flush = cases
        .iter()
        .find(|c| c.policy == FetchPolicyKind::MlpFlush)
        .unwrap();
    let squashed: u64 = flush
        .stats
        .threads()
        .map(|t| t.squashed_by_policy + t.squashed_by_branch)
        .sum();
    assert!(squashed > 0, "no golden chip run squashed anything");
}

#[test]
fn chip_runs_are_bit_for_bit_reproducible() {
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        assert_eq!(
            run_chip(policy),
            run_chip(policy),
            "{}: repeated chip runs diverged",
            policy.name()
        );
    }
}
