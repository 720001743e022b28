//! System-level multiprogram performance metrics (Section 5 of the paper).
//!
//! * **STP** (system throughput) is the sum over programs of
//!   `CPI_single_thread / CPI_multi_thread` — identical to weighted speedup.
//!   Higher is better.
//! * **ANTT** (average normalized turnaround time) is the arithmetic mean of
//!   `CPI_multi_thread / CPI_single_thread` — the reciprocal of the hmean metric.
//!   Lower is better.
//!
//! When averaging across workloads the paper follows John (2006): harmonic mean
//! for STP, arithmetic mean for ANTT.
//!
//! Chip-level runs reuse the same definitions: each thread is normalized
//! against a run alone on one core of the chip, taken in the canonical
//! core-major `(core, thread)` order of [`ChipStats::threads`], and
//! [`per_core_stp`] splits the throughput sum by core.

use smt_types::ChipStats;

/// System throughput (weighted speedup) from per-program single-threaded and
/// multithreaded CPIs.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty, or if any CPI is not
/// strictly positive.
///
/// # Example
///
/// ```
/// use smt_core::metrics::stp;
/// // Two programs, each running at exactly half its single-threaded speed.
/// assert!((stp(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-12);
/// ```
pub fn stp(single_thread_cpi: &[f64], multi_thread_cpi: &[f64]) -> f64 {
    validate(single_thread_cpi, multi_thread_cpi);
    single_thread_cpi
        .iter()
        .zip(multi_thread_cpi)
        .map(|(st, mt)| st / mt)
        .sum()
}

/// Average normalized turnaround time from per-program single-threaded and
/// multithreaded CPIs.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty, or if any CPI is not
/// strictly positive.
///
/// # Example
///
/// ```
/// use smt_core::metrics::antt;
/// assert!((antt(&[1.0, 1.0], &[2.0, 4.0]) - 3.0).abs() < 1e-12);
/// ```
pub fn antt(single_thread_cpi: &[f64], multi_thread_cpi: &[f64]) -> f64 {
    validate(single_thread_cpi, multi_thread_cpi);
    let n = single_thread_cpi.len() as f64;
    single_thread_cpi
        .iter()
        .zip(multi_thread_cpi)
        .map(|(st, mt)| mt / st)
        .sum::<f64>()
        / n
}

fn validate(st: &[f64], mt: &[f64]) {
    assert_eq!(st.len(), mt.len(), "CPI vectors must have the same length");
    assert!(!st.is_empty(), "CPI vectors must not be empty");
    assert!(
        st.iter()
            .chain(mt.iter())
            .all(|&c| c.is_finite() && c > 0.0),
        "CPIs must be positive and finite"
    );
}

/// Fraction of observations at or below `threshold` in a cumulative
/// distribution given as `(upper bound, cumulative fraction)` points sorted by
/// bound (the Figure 4 MLP-distance CDF representation).
pub fn cdf_fraction_within(cdf: &[(u32, f64)], threshold: u32) -> f64 {
    let mut last = 0.0;
    for &(bound, fraction) in cdf {
        if bound > threshold {
            return last;
        }
        last = fraction;
    }
    last
}

/// Per-core STP contributions of a chip run: for each core, the sum over its
/// threads of `st_cpi / mt_cpi`, given the flattened per-thread CPI vectors
/// in the same canonical `(core, thread)` order as [`ChipStats::threads`].
/// The total STP is the sum over cores.
///
/// # Panics
///
/// Panics if the CPI slices disagree with the chip geometry or contain
/// non-positive values.
pub fn per_core_stp(
    chip: &ChipStats,
    single_thread_cpi: &[f64],
    multi_thread_cpi: &[f64],
) -> Vec<f64> {
    let threads_per_core = chip.cores.first().map_or(0, |c| c.threads.len());
    assert_eq!(
        single_thread_cpi.len(),
        chip.num_cores() * threads_per_core,
        "one CPI pair per (core, thread) slot required"
    );
    (0..chip.num_cores())
        .map(|core| {
            let lo = core * threads_per_core;
            let hi = lo + threads_per_core;
            stp(&single_thread_cpi[lo..hi], &multi_thread_cpi[lo..hi])
        })
        .collect()
}

/// Harmonic mean (used to average STP across workloads).
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "cannot average an empty set");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "harmonic mean needs positive values"
    );
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// Arithmetic mean (used to average ANTT across workloads).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "cannot average an empty set");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stp_is_weighted_speedup() {
        // Program 0 runs at full speed, program 1 at a third of its ST speed.
        let v = stp(&[2.0, 3.0], &[2.0, 9.0]);
        assert!((v - (1.0 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn antt_is_mean_slowdown() {
        let v = antt(&[2.0, 3.0], &[2.0, 9.0]);
        assert!((v - (1.0 + 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_sharing_bounds() {
        // n programs all running at single-threaded speed: STP = n, ANTT = 1.
        let st = [1.5, 0.8, 2.0, 1.1];
        assert!((stp(&st, &st) - 4.0).abs() < 1e-12);
        assert!((antt(&st, &st) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn means() {
        assert!((harmonic_mean(&[1.0, 2.0, 4.0]) - 3.0 / (1.0 + 0.5 + 0.25)).abs() < 1e-12);
        assert!((arithmetic_mean(&[1.0, 2.0, 4.0]) - 7.0 / 3.0).abs() < 1e-12);
        assert!(harmonic_mean(&[2.0, 2.0]) <= arithmetic_mean(&[2.0, 2.0]) + 1e-12);
    }

    #[test]
    fn chip_flatten_and_per_core_stp() {
        let mut chip = ChipStats::new(2, 2);
        chip.cycles = 100;
        chip.cores[0].threads[0].committed_instructions = 50;
        chip.cores[1].threads[1].committed_instructions = 25;
        let flat: Vec<u64> = chip.threads().map(|t| t.committed_instructions).collect();
        assert_eq!(flat, [50, 0, 0, 25]);
        // Core 0's threads run at full speed, core 1's at half speed.
        let st = [1.0, 1.0, 1.0, 1.0];
        let mt = [1.0, 1.0, 2.0, 2.0];
        let per_core = per_core_stp(&chip, &st, &mt);
        assert_eq!(per_core.len(), 2);
        assert!((per_core[0] - 2.0).abs() < 1e-12);
        assert!((per_core[1] - 1.0).abs() < 1e-12);
        assert!((per_core.iter().sum::<f64>() - stp(&st, &mt)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn per_core_stp_rejects_wrong_geometry() {
        let chip = ChipStats::new(2, 2);
        let _ = per_core_stp(&chip, &[1.0, 1.0], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = stp(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn non_positive_cpi_panics() {
        let _ = antt(&[0.0, 1.0], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn empty_mean_panics() {
        let _ = harmonic_mean(&[]);
    }
}
