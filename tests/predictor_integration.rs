//! Integration tests for the predictor stack (long-latency load predictor, LLSR,
//! MLP distance predictor) measured through full pipeline runs — the Figures 6, 7
//! and 8 claims at unit-test scale, plus the Figure 4 and 5 registry rows.

use smt_core::experiments::{engine, BenchRow, ExperimentRegistry};
use smt_core::metrics::cdf_fraction_within;
use smt_core::runner::{run_single_thread, RunScale};
use smt_types::SmtConfig;

/// The rows of registry entry `name` at `scale`, restricted to `benchmarks`
/// when given.
fn registry_rows(name: &str, scale: RunScale, benchmarks: Option<&[&str]>) -> Vec<BenchRow> {
    let mut spec = ExperimentRegistry::builtin()
        .get(name)
        .unwrap()
        .clone()
        .with_scale(scale);
    if let Some(benchmarks) = benchmarks {
        spec.workloads = benchmarks.iter().map(|b| vec![b.to_string()]).collect();
    }
    engine::run_spec(&spec).unwrap().bench_rows
}

#[test]
fn long_latency_predictor_accuracy_is_high_across_memory_benchmarks() {
    // Figure 6: "no less than 94%, average 99.4%". At unit-test scale we require a
    // slightly looser floor but the same character. Predictors are characterized
    // on the raw miss stream (prefetcher off), as in the Table I setup.
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for name in ["swim", "equake", "applu", "lucas", "mcf"] {
        let stats = run_single_thread(name, &cfg, RunScale::test()).unwrap();
        let acc = stats.threads[0].lll_predictor_accuracy();
        assert!(acc > 0.90, "{name}: long-latency predictor accuracy {acc}");
    }
}

#[test]
fn miss_prediction_accuracy_is_reasonable_for_memory_intensive_benchmarks() {
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for name in ["swim", "equake", "applu"] {
        let stats = run_single_thread(name, &cfg, RunScale::test()).unwrap();
        let acc = stats.threads[0].lll_predictor_miss_accuracy();
        assert!(
            acc > 0.5,
            "{name}: accuracy over actual misses is only {acc}"
        );
    }
}

#[test]
fn mlp_predictor_classifies_mlp_correctly_most_of_the_time() {
    // Figure 7: average binary MLP prediction accuracy 91.5%.
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for name in ["swim", "fma3d", "mcf"] {
        let stats = run_single_thread(name, &cfg, RunScale::test()).unwrap();
        let acc = stats.threads[0].mlp_predictor_accuracy();
        assert!(acc > 0.6, "{name}: binary MLP prediction accuracy {acc}");
    }
}

#[test]
fn mlp_distance_predictions_are_far_enough_most_of_the_time() {
    // Figure 8: the paper reports 87.8% on real SPEC traces. The synthetic miss
    // streams have more cross-burst irregularity inside the LLSR window, so the
    // bound here is looser (see EXPERIMENTS.md); the property that most
    // predictions cover the actual distance for the most regular benchmarks still
    // holds.
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for name in ["swim", "fma3d", "equake"] {
        let stats = run_single_thread(name, &cfg, RunScale::test()).unwrap();
        let acc = stats.threads[0].mlp_distance_accuracy();
        assert!(acc > 0.40, "{name}: far-enough accuracy {acc}");
    }
}

#[test]
fn characterization_rows_cover_all_benchmarks_with_valid_fractions() {
    let rows = registry_rows("fig06_08_predictor_accuracy", RunScale::tiny(), None);
    assert_eq!(rows.len(), 26);
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for row in &rows {
        let unit = |v: Option<f64>| v.is_some_and(|v| (0.0..=1.0).contains(&v));
        assert!(unit(row.lll_accuracy), "{}", row.benchmark);
        assert!(unit(row.mlp_accuracy), "{}", row.benchmark);
        assert!(unit(row.mlp_distance_accuracy), "{}", row.benchmark);
        // The binary MLP outcome fractions behind Figure 7.
        let stats = run_single_thread(&row.benchmark, &cfg, RunScale::tiny()).unwrap();
        let t = &stats.threads[0];
        let outcomes = [
            t.mlp_pred_true_positive,
            t.mlp_pred_true_negative,
            t.mlp_pred_false_positive,
            t.mlp_pred_false_negative,
        ];
        let all = outcomes.iter().sum::<u64>().max(1) as f64;
        let total: f64 = outcomes.iter().map(|&n| n as f64 / all).sum();
        assert!(
            total <= 1.0 + 1e-9,
            "{}: MLP outcome fractions sum to {total}",
            row.benchmark
        );
        assert_eq!(row.lll_accuracy, Some(t.lll_predictor_accuracy()));
    }
}

#[test]
fn figure4_cdfs_are_monotone_and_complete() {
    let rows = registry_rows("fig04_mlp_distance_cdf", RunScale::test(), None);
    assert_eq!(rows.len(), 6);
    for row in &rows {
        let cdf = row.mlp_distance_cdf.as_deref().unwrap();
        assert!(
            !cdf.is_empty(),
            "{} produced no MLP-distance observations",
            row.benchmark
        );
        let mut last = 0.0;
        for &(_, fraction) in cdf {
            assert!(
                fraction >= last - 1e-12,
                "{}: CDF must be monotone",
                row.benchmark
            );
            last = fraction;
        }
        assert!(
            (last - 1.0).abs() < 1e-9,
            "{}: CDF must reach 1.0",
            row.benchmark
        );
    }
    // lucas exposes its MLP over short distances, mcf over long distances
    // (Section 4.2): at 48 instructions lucas has seen most of its MLP.
    let within_48 = |name: &str| {
        let row = rows.iter().find(|r| r.benchmark == name).unwrap();
        cdf_fraction_within(row.mlp_distance_cdf.as_deref().unwrap(), 48)
    };
    assert!(
        within_48("lucas") > within_48("mcf"),
        "lucas {} vs mcf {}",
        within_48("lucas"),
        within_48("mcf")
    );
}

#[test]
fn prefetcher_speeds_up_strided_benchmark() {
    let rows = registry_rows("fig05_prefetcher", RunScale::test(), Some(&["swim", "mcf"]));
    let speedup = |name: &str| {
        let row = rows.iter().find(|r| r.benchmark == name).unwrap();
        row.prefetch_speedup.unwrap()
    };
    assert!(
        speedup("swim") > 1.05,
        "swim should benefit from prefetching, speedup {}",
        speedup("swim")
    );
    assert!(
        speedup("swim") > speedup("mcf"),
        "strided swim ({}) should gain more than pointer-chasing mcf ({})",
        speedup("swim"),
        speedup("mcf")
    );
}

#[test]
fn mlp_distances_respect_the_llsr_bound() {
    // Predicted MLP distances are clamped at the LLSR length (ROB / threads).
    let cfg = SmtConfig::baseline(1);
    let stats = run_single_thread("fma3d", &cfg, RunScale::test()).unwrap();
    let hist = &stats.threads[0].mlp_distance_histogram;
    assert!(!hist.is_empty());
    let max_bin_bound = hist.len() as u32 * smt_types::ThreadStats::MLP_HIST_BIN;
    assert!(
        max_bin_bound <= 256 + smt_types::ThreadStats::MLP_HIST_BIN,
        "predicted distances exceed the LLSR bound: up to {max_bin_bound}"
    );
}
