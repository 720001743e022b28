//! Sampled-simulation vocabulary: the fast-forward/measure cadence
//! ([`SamplingConfig`]), the extrapolated per-metric estimates with
//! confidence intervals ([`SampledEstimate`]), the identity header of a
//! serialized warm checkpoint ([`CheckpointMeta`]).
//!
//! Sampled runs interleave a cheap *functional fast-forward* (trace consumed,
//! caches/TLBs/predictors kept warm, no cycle accounting) with short
//! cycle-accurate *measurement windows*, in the style of SMARTS (Wunderlich
//! et al., ISCA 2003). Each window contributes one stratified IPC sample; the
//! run reports the window mean with a 95% confidence interval derived from
//! the between-window variance.

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Cadence of one sampled run, in committed instructions per thread.
///
/// A sampling unit is `skip → ff → warm → measure`: `skip_instructions` are
/// consumed at raw trace speed (no state updated at all),
/// `ff_instructions` are executed functionally (warm state — caches, TLBs,
/// predictors — updated, no cycles), `warm_instructions` run cycle-accurately
/// to refill the pipeline before counters are trusted, and
/// `measure_instructions` are the measured window proper. Units repeat until
/// the instruction budget is exhausted *and* at least `min_windows` windows
/// were measured.
///
/// Each length is at most [`SamplingConfig::MAX_PHASE_INSTRUCTIONS`] and
/// `min_windows` at most [`SamplingConfig::MAX_WINDOWS`].
///
/// The skip phase is the lever for large budgets: functional warming costs
/// several times raw trace consumption, and the warm structures only need a
/// bounded warming horizon (`ff_instructions`) of fresh history before each
/// window — state is frozen, not lost, across a skip. `skip_instructions: 0`
/// recovers full SMARTS-style always-on functional warming.
///
/// # Example
///
/// ```
/// use smt_types::sampling::SamplingConfig;
/// let cfg = SamplingConfig::default();
/// assert!(cfg.validate().is_ok());
/// assert!(cfg.detailed_fraction() < 0.2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SamplingConfig {
    /// Instructions per thread consumed at raw trace speed per unit, with no
    /// warm-state updates (the fastest, least accurate phase; 0 disables it).
    pub skip_instructions: u64,
    /// Instructions per thread fast-forwarded (functional warming) per unit.
    pub ff_instructions: u64,
    /// Detailed-mode instructions per thread discarded as pipeline warm-up at
    /// the start of each measurement window.
    pub warm_instructions: u64,
    /// Detailed-mode instructions per thread measured per window.
    pub measure_instructions: u64,
    /// Minimum number of measurement windows per run (confidence floor).
    pub min_windows: u32,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            skip_instructions: 0,
            ff_instructions: 18_000,
            warm_instructions: 500,
            measure_instructions: 1_500,
            min_windows: 3,
        }
    }
}

impl SamplingConfig {
    /// Upper bound on each phase length, in instructions per thread: about
    /// 670 times the `full` scale's whole budget. Functional work has no
    /// cycle cap, so a longer phase could hang a run, and the window cycle
    /// caps multiply the lengths.
    pub const MAX_PHASE_INSTRUCTIONS: u64 = 100_000_000;

    /// Upper bound on [`SamplingConfig::min_windows`].
    pub const MAX_WINDOWS: u32 = 1_000;

    /// Checks internal consistency and the documented limits.
    pub fn validate(&self) -> Result<(), SimError> {
        for (field, value) in [
            ("skip_instructions", self.skip_instructions),
            ("ff_instructions", self.ff_instructions),
            ("warm_instructions", self.warm_instructions),
            ("measure_instructions", self.measure_instructions),
        ] {
            if value > Self::MAX_PHASE_INSTRUCTIONS {
                return Err(SimError::invalid_config(format!(
                    "{field} must be at most {} instructions per thread (got {value})",
                    Self::MAX_PHASE_INSTRUCTIONS
                )));
            }
        }
        if self.min_windows > Self::MAX_WINDOWS {
            return Err(SimError::invalid_config(format!(
                "min_windows must be at most {} (got {})",
                Self::MAX_WINDOWS,
                self.min_windows
            )));
        }
        if self.measure_instructions == 0 {
            return Err(SimError::invalid_config(
                "measure_instructions must be non-zero",
            ));
        }
        if self.ff_instructions == 0 {
            return Err(SimError::invalid_config(
                "ff_instructions must be non-zero (use an exact run instead)",
            ));
        }
        if self.min_windows == 0 {
            return Err(SimError::invalid_config("min_windows must be at least 1"));
        }
        Ok(())
    }

    /// Instructions per thread consumed by one full sampling unit
    /// (saturating; a validated config is far below `u64::MAX`).
    pub fn unit_instructions(&self) -> u64 {
        self.skip_instructions
            .saturating_add(self.ff_instructions)
            .saturating_add(self.warm_instructions)
            .saturating_add(self.measure_instructions)
    }

    /// Fraction of instructions executed in detailed (cycle-accurate) mode.
    ///
    /// This is the deterministic speedup proxy: wall-clock gains track how few
    /// instructions run through the full pipeline model.
    pub fn detailed_fraction(&self) -> f64 {
        self.warm_instructions
            .saturating_add(self.measure_instructions) as f64
            / self.unit_instructions() as f64
    }
}

/// Two-sided 95% Student-t critical values for 1..=30 degrees of freedom.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The 95% critical value for an interval over `n` windows: Student's t
/// with `n - 1` degrees of freedom up to 30, the normal 1.96 beyond. With
/// the default three windows the normal value would make the interval
/// about 2.2x too narrow.
fn t95(n: usize) -> f64 {
    T95.get(n.saturating_sub(2)).copied().unwrap_or(1.96)
}

/// One extrapolated metric: the window mean and its 95% confidence interval.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MetricEstimate {
    /// Mean over measurement windows.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (`t * s / sqrt(n)`, with
    /// `t` the Student-t critical value for `n - 1` degrees of freedom; zero
    /// when only one window was measured).
    pub ci95: f64,
}

impl MetricEstimate {
    /// Builds an estimate from per-window samples. Returns a zero estimate
    /// for an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return MetricEstimate::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        if samples.len() < 2 {
            return MetricEstimate { mean, ci95: 0.0 };
        }
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
        MetricEstimate {
            mean,
            ci95: t95(samples.len()) * (var / n).sqrt(),
        }
    }

    /// Builds an estimate from per-window `(numerator, denominator)` pairs
    /// using the ratio estimator `Σnum / Σden` (e.g. committed instructions
    /// over cycles for IPC).
    ///
    /// Averaging per-window ratios directly is biased upward: window length
    /// varies inversely with luck, so fast windows are over-weighted
    /// (Jensen's inequality on `E[1/T]`). The ratio estimator weights every
    /// denominator unit equally, matching what an exact run measures. The
    /// confidence interval uses the standard linearized variance of a ratio
    /// estimator over the window residuals `num_w − R·den_w`.
    pub fn from_ratio(pairs: &[(f64, f64)]) -> Self {
        let total_den: f64 = pairs.iter().map(|&(_, d)| d).sum();
        if pairs.is_empty() || total_den <= 0.0 {
            return MetricEstimate::default();
        }
        let total_num: f64 = pairs.iter().map(|&(n, _)| n).sum();
        let ratio = total_num / total_den;
        if pairs.len() < 2 {
            return MetricEstimate {
                mean: ratio,
                ci95: 0.0,
            };
        }
        let n = pairs.len() as f64;
        let mean_den = total_den / n;
        let residual_var = pairs
            .iter()
            .map(|&(num, den)| {
                let e = num - ratio * den;
                e * e
            })
            .sum::<f64>()
            / (n - 1.0);
        MetricEstimate {
            mean: ratio,
            ci95: t95(pairs.len()) * (residual_var / n).sqrt() / mean_den,
        }
    }
}

/// Extrapolated estimates of one sampled run, reported alongside exact runs.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SampledEstimate {
    /// Number of measurement windows that contributed samples.
    pub windows: u32,
    /// Aggregate (all-thread) IPC estimate.
    pub total_ipc: MetricEstimate,
    /// Per-thread IPC estimates, indexed by thread id.
    pub per_thread_ipc: Vec<MetricEstimate>,
    /// Fraction of the instruction budget executed in detailed mode.
    pub detailed_fraction: f64,
}

/// Identity header of a serialized warm checkpoint: everything needed to
/// decide whether a checkpoint can seed a given run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CheckpointMeta {
    /// Checkpoint format version; readers reject other versions.
    pub schema_version: u32,
    /// Benchmark name per thread, in thread order.
    pub benchmarks: Vec<String>,
    /// Base seed the per-thread trace seeds were derived from.
    pub seed: u64,
    /// Number of hardware threads captured.
    pub num_threads: u32,
    /// Instructions per thread functionally fast-forwarded before capture.
    pub warmed_instructions: u64,
}

impl CheckpointMeta {
    /// Current checkpoint format version. Version 3 stores every
    /// fixed-size warm table except gshare (cache ways, D-TLB, stride
    /// table, BTB, miss-pattern, MLP-distance and binary-MLP tables) as one
    /// [`SparseTable`](crate::sparse::SparseTable): `len`, the ascending
    /// `indices` of the entries that differ from reset, and their `values`.
    /// Version 2 tagged each listed entry with an `index` field and stored
    /// the predictor tables and BTB densely; version 1 listed every entry.
    pub const SCHEMA_VERSION: u32 = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(SamplingConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_fields_rejected() {
        let c = SamplingConfig {
            measure_instructions: 0,
            ..SamplingConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SamplingConfig {
            ff_instructions: 0,
            ..SamplingConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SamplingConfig {
            min_windows: 0,
            ..SamplingConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn fields_above_their_limit_are_rejected_by_name() {
        let limit = SamplingConfig::MAX_PHASE_INSTRUCTIONS;
        let at_limit = SamplingConfig {
            skip_instructions: limit,
            ff_instructions: limit,
            warm_instructions: limit,
            measure_instructions: limit,
            min_windows: SamplingConfig::MAX_WINDOWS,
        };
        at_limit.validate().unwrap();
        let mut over = [at_limit; 5];
        over[0].skip_instructions = u64::MAX;
        over[1].ff_instructions = limit + 1;
        over[2].warm_instructions = limit + 1;
        over[3].measure_instructions = u64::MAX;
        over[4].min_windows = u32::MAX;
        let fields = [
            "skip_instructions",
            "ff_instructions",
            "warm_instructions",
            "measure_instructions",
            "min_windows",
        ];
        for (field, config) in fields.into_iter().zip(over) {
            let err = config.validate().unwrap_err().to_string();
            assert!(err.contains(field), "{field}: {err}");
        }
        let wrapping = SamplingConfig {
            skip_instructions: u64::MAX,
            ..SamplingConfig::default()
        };
        assert_eq!(wrapping.unit_instructions(), u64::MAX);
        assert!(wrapping.detailed_fraction() < 1e-12);
    }

    #[test]
    fn detailed_fraction_matches_cadence() {
        let c = SamplingConfig {
            skip_instructions: 0,
            ff_instructions: 9_000,
            warm_instructions: 200,
            measure_instructions: 800,
            min_windows: 2,
        };
        assert_eq!(c.unit_instructions(), 10_000);
        assert!((c.detailed_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn estimate_mean_and_ci() {
        let e = MetricEstimate::from_samples(&[1.0, 1.0, 1.0]);
        assert!((e.mean - 1.0).abs() < 1e-12);
        assert_eq!(e.ci95, 0.0);
        let e = MetricEstimate::from_samples(&[0.8, 1.2]);
        assert!((e.mean - 1.0).abs() < 1e-12);
        assert!(e.ci95 > 0.0);
        assert!((10.0 - e.mean).abs() > e.ci95);
        assert_eq!(MetricEstimate::from_samples(&[]).mean, 0.0);
        let single = MetricEstimate::from_samples(&[2.5]);
        assert!((single.mean - 2.5).abs() < 1e-12);
        assert_eq!(single.ci95, 0.0);
    }

    #[test]
    fn interval_uses_student_t_by_window_count() {
        // Two windows: one degree of freedom, t = 12.706.
        let e = MetricEstimate::from_samples(&[0.8, 1.2]);
        let half_width = (0.08f64 / 2.0).sqrt();
        assert!((e.ci95 - 12.706 * half_width).abs() < 1e-9);
        // Three windows (the default cadence): t = 4.303, not 1.96.
        assert_eq!(t95(3), 4.303);
        assert_eq!(t95(31), 2.042);
        assert_eq!(t95(32), 1.96);
        let pairs = [(900.0, 1_000.0), (1_100.0, 1_000.0), (1_000.0, 1_000.0)];
        let r = MetricEstimate::from_ratio(&pairs);
        let s = MetricEstimate::from_samples(&[0.9, 1.1, 1.0]);
        assert!((r.ci95 - s.ci95).abs() < 1e-12);
        assert!((s.ci95 - 4.303 * (0.01f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn ratio_estimate_weights_by_denominator() {
        // Two windows with equal instruction counts but very different cycle
        // counts: the ratio estimator matches the pooled IPC, not the mean of
        // per-window IPCs (which would be optimistically biased).
        let pairs = [(1_000.0, 1_000.0), (1_000.0, 4_000.0)];
        let e = MetricEstimate::from_ratio(&pairs);
        assert!((e.mean - 2_000.0 / 5_000.0).abs() < 1e-12);
        let naive = (1.0 + 0.25) / 2.0;
        assert!(e.mean < naive);
        assert!(e.ci95 > 0.0);
        assert_eq!(MetricEstimate::from_ratio(&[]).mean, 0.0);
        let single = MetricEstimate::from_ratio(&[(500.0, 1_000.0)]);
        assert!((single.mean - 0.5).abs() < 1e-12);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(MetricEstimate::from_ratio(&[(1.0, 0.0)]).mean, 0.0);
    }

    #[test]
    fn sampling_config_serde_round_trip() {
        let c = SamplingConfig::default();
        let round = SamplingConfig::deserialize(&c.serialize()).unwrap();
        assert_eq!(round, c);
    }

    #[test]
    fn checkpoint_meta_round_trip() {
        let meta = CheckpointMeta {
            schema_version: CheckpointMeta::SCHEMA_VERSION,
            benchmarks: vec!["mlp-friendly".into(), "ilp-bound".into()],
            seed: 42,
            num_threads: 2,
            warmed_instructions: 10_000,
        };
        let round = CheckpointMeta::deserialize(&meta.serialize()).unwrap();
        assert_eq!(round, meta);
    }
}
