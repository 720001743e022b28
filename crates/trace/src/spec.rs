//! SPEC CPU2000 benchmark profiles calibrated against Table I of the paper.
//!
//! Each entry records the reference input, the ILP/MLP classification, the
//! long-latency-load rate and the MLP the paper measured, plus generator knobs
//! (burst span, prefetch friendliness, instruction mix) chosen so that the
//! synthetic traces reproduce the qualitative behaviour of each benchmark: the
//! miss-burst structure the fetch policies react to, the MLP-distance CDF shape of
//! Figure 4, and the prefetcher sensitivity of Figure 5.

use crate::profile::{BenchmarkProfile, WorkloadClass};
use smt_types::SimError;

/// One row of Table I: the benchmark, its reference input and class, the
/// long-latency loads per 1000 instructions and the MLP the paper measured,
/// the generator's burst span and prefetch friendliness, and the branch
/// randomness of a SPECint row (`None` for SPECfp).
type Row = (
    &'static str,
    &'static str,
    WorkloadClass,
    f64,
    f64,
    u32,
    f64,
    Option<f64>,
);

/// The 26 SPEC CPU2000 benchmarks of Table I, in the order the paper lists
/// them (integer benchmarks first, then floating point).
const TABLE_I: [Row; 26] = {
    use WorkloadClass::{Ilp, Mlp};
    [
        // --- SPECint2000 -----------------------------------------------------
        ("bzip2", "program", Ilp, 0.14, 1.00, 48, 0.80, Some(0.04)),
        ("crafty", "ref", Ilp, 0.08, 1.34, 48, 0.30, Some(0.08)),
        ("eon", "rushmeier", Ilp, 0.01, 1.83, 48, 0.40, Some(0.05)),
        ("gap", "ref", Ilp, 0.36, 1.02, 48, 0.40, Some(0.05)),
        ("gcc", "166", Ilp, 0.01, 1.70, 48, 0.35, Some(0.07)),
        ("gzip", "graphic", Ilp, 0.08, 1.81, 48, 0.70, Some(0.06)),
        ("mcf", "ref", Mlp, 17.36, 5.17, 118, 0.05, Some(0.08)),
        ("parser", "ref", Ilp, 0.14, 1.24, 48, 0.30, Some(0.07)),
        ("perlbmk", "makerand", Ilp, 0.30, 1.00, 48, 0.35, Some(0.05)),
        ("twolf", "ref", Ilp, 0.10, 1.37, 48, 0.25, Some(0.08)),
        ("vortex", "ref2", Ilp, 0.39, 1.06, 48, 0.40, Some(0.04)),
        ("vpr", "route", Ilp, 0.09, 1.43, 48, 0.30, Some(0.07)),
        // --- SPECfp2000 ------------------------------------------------------
        ("ammp", "ref", Mlp, 1.71, 3.94, 72, 0.30, None),
        ("applu", "ref", Mlp, 14.24, 4.26, 64, 0.90, None),
        ("apsi", "ref", Mlp, 0.78, 6.15, 90, 0.60, None),
        ("art", "ref-110", Ilp, 0.19, 8.58, 100, 0.70, None),
        ("equake", "ref", Mlp, 24.60, 2.69, 88, 0.60, None),
        ("facerec", "ref", Ilp, 0.41, 1.51, 56, 0.60, None),
        ("fma3d", "ref", Mlp, 17.67, 6.27, 116, 0.50, None),
        ("galgel", "ref", Mlp, 0.24, 3.84, 72, 0.70, None),
        ("lucas", "ref", Mlp, 10.63, 2.15, 34, 0.85, None),
        ("mesa", "ref", Mlp, 0.45, 2.88, 64, 0.50, None),
        ("mgrid", "ref", Mlp, 6.04, 1.76, 52, 0.90, None),
        ("sixtrack", "ref", Ilp, 0.10, 2.61, 64, 0.50, None),
        ("swim", "ref", Mlp, 15.08, 3.66, 70, 0.90, None),
        ("wupwise", "ref", Mlp, 2.00, 2.20, 60, 0.60, None),
    ]
};

/// The profile of one row: the floating-point instruction mix, or the
/// integer one for a SPECint row.
fn profile(
    &(name, input, class, lll, mlp, burst_span, prefetch, int_branch_randomness): &Row,
) -> BenchmarkProfile {
    let fp = BenchmarkProfile {
        name: name.into(),
        input: input.into(),
        class,
        lll_per_kinst: lll,
        target_mlp: mlp,
        burst_span,
        prefetch_friendliness: prefetch,
        load_fraction: 0.30,
        store_fraction: 0.10,
        branch_fraction: 0.05,
        fp_fraction: 0.55,
        branch_taken_rate: 0.80,
        branch_randomness: 0.01,
        dep_distance_mean: 7.0,
        static_mem_pcs: 64,
        hot_working_set_lines: 512,
        l2_fraction: 0.008,
    };
    match int_branch_randomness {
        None => fp,
        Some(branch_randomness) => BenchmarkProfile {
            load_fraction: 0.26,
            store_fraction: 0.12,
            branch_fraction: 0.16,
            fp_fraction: 0.02,
            branch_taken_rate: 0.62,
            branch_randomness,
            dep_distance_mean: 4.5,
            static_mem_pcs: 96,
            hot_working_set_lines: 384,
            l2_fraction: 0.003,
            ..fp
        },
    }
}

/// Returns the full list of the 26 SPEC CPU2000 benchmarks of Table I, in the
/// order the paper lists them (integer benchmarks first, then floating point).
pub fn all_benchmarks() -> Vec<BenchmarkProfile> {
    TABLE_I.iter().map(profile).collect()
}

/// Looks up one benchmark profile by name, building only that profile.
///
/// # Errors
///
/// Returns [`SimError::UnknownBenchmark`] when the name is not one of the 26
/// SPEC CPU2000 benchmarks of Table I.
pub fn benchmark(name: &str) -> Result<BenchmarkProfile, SimError> {
    TABLE_I
        .iter()
        .find(|row| row.0 == name)
        .map(profile)
        .ok_or_else(|| SimError::UnknownBenchmark { name: name.into() })
}

/// The six most MLP-intensive programs used in Figure 4 (MLP-distance CDFs).
pub fn figure4_benchmarks() -> Vec<&'static str> {
    vec!["mcf", "applu", "equake", "fma3d", "lucas", "swim"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_all_26_benchmarks() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 26);
        let names: std::collections::HashSet<_> = all.iter().map(|b| b.name.clone()).collect();
        assert_eq!(names.len(), 26, "benchmark names must be unique");
    }

    #[test]
    fn every_profile_validates() {
        for b in all_benchmarks() {
            b.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn table1_classification_matches_paper() {
        let mlp: Vec<String> = all_benchmarks()
            .into_iter()
            .filter(|b| b.class == WorkloadClass::Mlp)
            .map(|b| b.name)
            .collect();
        for expected in [
            "mcf", "ammp", "applu", "apsi", "equake", "fma3d", "galgel", "lucas", "mesa", "mgrid",
            "swim", "wupwise",
        ] {
            assert!(
                mlp.iter().any(|n| n == expected),
                "{expected} should be MLP-intensive"
            );
        }
        assert_eq!(mlp.len(), 12);
        for ilp in ["bzip2", "gap", "perlbmk", "art", "facerec", "sixtrack"] {
            assert!(
                !mlp.iter().any(|n| n == ilp),
                "{ilp} should be ILP-intensive"
            );
        }
    }

    #[test]
    fn table1_headline_numbers_match() {
        let mcf = benchmark("mcf").unwrap();
        assert!((mcf.lll_per_kinst - 17.36).abs() < 1e-9);
        assert!((mcf.target_mlp - 5.17).abs() < 1e-9);
        let fma3d = benchmark("fma3d").unwrap();
        assert!((fma3d.target_mlp - 6.27).abs() < 1e-9);
        let bzip2 = benchmark("bzip2").unwrap();
        assert!((bzip2.target_mlp - 1.00).abs() < 1e-9);
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert_eq!(
            benchmark("quake3"),
            Err(SimError::UnknownBenchmark {
                name: "quake3".into()
            })
        );
    }

    #[test]
    fn every_benchmark_resolves_to_its_table_profile() {
        for profile in all_benchmarks() {
            assert_eq!(benchmark(&profile.name), Ok(profile));
        }
    }

    #[test]
    fn figure4_set_is_mlp_intensive_with_expected_spans() {
        let lucas = benchmark("lucas").unwrap();
        let mcf = benchmark("mcf").unwrap();
        assert!(
            lucas.burst_span < 40,
            "lucas exposes its MLP over short distances"
        );
        assert!(
            mcf.burst_span > 100,
            "mcf exposes its MLP over long distances"
        );
        for name in figure4_benchmarks() {
            assert!(benchmark(name).unwrap().is_mlp_intensive());
        }
    }
}
