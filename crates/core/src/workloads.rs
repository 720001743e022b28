//! Multiprogram workload definitions (Tables II and III of the paper).

use smt_trace::spec;
use smt_types::SimError;

/// Workload category used to group results (Section 5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadGroup {
    /// All constituent benchmarks are ILP-intensive.
    IlpIntensive,
    /// All constituent benchmarks are MLP-intensive.
    MlpIntensive,
    /// Mix of ILP- and MLP-intensive benchmarks.
    Mixed,
}

impl WorkloadGroup {
    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadGroup::IlpIntensive => "ILP",
            WorkloadGroup::MlpIntensive => "MLP",
            WorkloadGroup::Mixed => "MIX",
        }
    }
}

/// Resolves whether one benchmark name — synthetic (Table I) or an on-disk
/// `trace:<path>` workload — is MLP-intensive.
///
/// Synthetic names answer from their [`spec`] profile; `trace:` names answer
/// from the `.smtt` header's MLP flag, which the recorder stamped from the
/// recorded workload's classification.
///
/// # Errors
///
/// Returns [`SimError::UnknownBenchmark`] for unknown synthetic names, or
/// [`SimError::InvalidConfig`] for a `trace:` file that is missing or has a
/// malformed header.
pub fn benchmark_is_mlp_intensive(name: &str) -> Result<bool, SimError> {
    if let Some(path) = smt_trace::trace_path(name) {
        return Ok(smt_trace::inspect::peek_header(path)?.mlp_intensive);
    }
    Ok(spec::benchmark(name)?.is_mlp_intensive())
}

/// One multiprogram workload: a named set of benchmarks co-scheduled on the SMT
/// processor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Workload {
    /// Benchmarks, one per hardware thread.
    pub benchmarks: Vec<String>,
    /// Category per Tables II/III.
    pub group: WorkloadGroup,
}

impl Workload {
    /// Builds a workload, classifying it from the constituent benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBenchmark`] if any name is neither a Table I
    /// benchmark nor a readable `trace:<path>` workload, or
    /// [`SimError::InvalidWorkload`] if the list is empty.
    pub fn new<S: Into<String>>(benchmarks: Vec<S>) -> Result<Self, SimError> {
        let benchmarks: Vec<String> = benchmarks.into_iter().map(Into::into).collect();
        if benchmarks.is_empty() {
            return Err(SimError::invalid_workload(
                "workload needs at least one benchmark",
            ));
        }
        let mut mlp_count = 0;
        for name in &benchmarks {
            if benchmark_is_mlp_intensive(name)? {
                mlp_count += 1;
            }
        }
        let group = if mlp_count == 0 {
            WorkloadGroup::IlpIntensive
        } else if mlp_count == benchmarks.len() {
            WorkloadGroup::MlpIntensive
        } else {
            WorkloadGroup::Mixed
        };
        Ok(Workload { benchmarks, group })
    }

    /// Workload name: benchmarks joined with dashes (matches the paper's figures).
    pub fn name(&self) -> String {
        self.benchmarks.join("-")
    }

    /// Number of hardware threads this workload occupies.
    pub fn num_threads(&self) -> usize {
        self.benchmarks.len()
    }

    /// Number of MLP-intensive benchmarks in the mix.
    pub fn mlp_count(&self) -> usize {
        self.benchmarks
            .iter()
            .filter(|b| benchmark_is_mlp_intensive(b).unwrap_or(false))
            .count()
    }
}

fn mk(benchmarks: &[&'static str]) -> Workload {
    Workload::new(benchmarks.to_vec()).expect("table workloads are valid")
}

/// The 36 two-thread workloads of Table II.
pub fn two_thread_workloads() -> Vec<Workload> {
    let ilp: &[&[&str]] = &[
        &["vortex", "parser"],
        &["crafty", "twolf"],
        &["facerec", "crafty"],
        &["vpr", "sixtrack"],
        &["vortex", "gcc"],
        &["gcc", "gap"],
    ];
    let mlp: &[&[&str]] = &[
        &["apsi", "mesa"],
        &["mcf", "swim"],
        &["mcf", "galgel"],
        &["wupwise", "ammp"],
        &["swim", "galgel"],
        &["lucas", "fma3d"],
        &["mesa", "galgel"],
        &["galgel", "fma3d"],
        &["applu", "swim"],
        &["mcf", "equake"],
        &["applu", "galgel"],
        &["swim", "mesa"],
    ];
    let mixed: &[&[&str]] = &[
        &["swim", "perlbmk"],
        &["galgel", "twolf"],
        &["fma3d", "twolf"],
        &["apsi", "art"],
        &["gzip", "wupwise"],
        &["apsi", "twolf"],
        &["mgrid", "vortex"],
        &["swim", "twolf"],
        &["swim", "eon"],
        &["swim", "facerec"],
        &["parser", "wupwise"],
        &["vpr", "mcf"],
        &["equake", "perlbmk"],
        &["applu", "vortex"],
        &["art", "mgrid"],
        &["equake", "art"],
        &["parser", "ammp"],
        &["facerec", "mcf"],
    ];
    ilp.iter()
        .chain(mlp.iter())
        .chain(mixed.iter())
        .map(|b| mk(b))
        .collect()
}

/// The 30 four-thread workloads of Table III (sorted by the number of
/// MLP-intensive benchmarks in the mix, as in the paper).
pub fn four_thread_workloads() -> Vec<Workload> {
    let table: &[&[&str]] = &[
        // 0 MLP-intensive benchmarks
        &["vortex", "parser", "crafty", "twolf"],
        &["facerec", "crafty", "vpr", "sixtrack"],
        &["swim", "perlbmk", "vortex", "gcc"],
        &["galgel", "twolf", "gcc", "gap"],
        &["fma3d", "twolf", "vortex", "parser"],
        // 1
        &["apsi", "art", "crafty", "twolf"],
        &["gzip", "wupwise", "facerec", "crafty"],
        &["apsi", "twolf", "vpr", "sixtrack"],
        &["mgrid", "vortex", "swim", "twolf"],
        &["swim", "eon", "perlbmk", "mesa"],
        &["parser", "wupwise", "vpr", "mcf"],
        // 2
        &["equake", "perlbmk", "applu", "vortex"],
        &["art", "mgrid", "applu", "galgel"],
        &["parser", "ammp", "facerec", "mcf"],
        &["swim", "perlbmk", "galgel", "twolf"],
        &["fma3d", "twolf", "apsi", "art"],
        &["gzip", "wupwise", "apsi", "twolf"],
        &["equake", "art", "parser", "ammp"],
        &["apsi", "mesa", "swim", "eon"],
        &["mcf", "swim", "perlbmk", "mesa"],
        &["mcf", "galgel", "vortex", "gcc"],
        // 3
        &["wupwise", "ammp", "vpr", "mcf"],
        &["swim", "galgel", "parser", "wupwise"],
        &["lucas", "fma3d", "equake", "perlbmk"],
        &["mesa", "galgel", "applu", "vortex"],
        &["galgel", "fma3d", "art", "mgrid"],
        &["applu", "swim", "mcf", "equake"],
        // 4
        &["applu", "galgel", "swim", "mesa"],
        &["apsi", "mesa", "mcf", "swim"],
        &["mcf", "galgel", "wupwise", "ammp"],
    ];
    table.iter().map(|b| mk(b)).collect()
}

/// A small representative subset of two-thread workloads (one per group plus two
/// extra MLP-heavy mixes), used by the microarchitecture sweeps of Section 6.4 and
/// by quick regression runs.
pub fn representative_two_thread_workloads() -> Vec<Workload> {
    vec![
        mk(&["vortex", "gcc"]),
        mk(&["mcf", "swim"]),
        mk(&["lucas", "fma3d"]),
        mk(&["swim", "twolf"]),
        mk(&["vpr", "mcf"]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_thread_table_has_36_workloads() {
        let all = two_thread_workloads();
        assert_eq!(all.len(), 36);
        assert_eq!(
            all.iter()
                .filter(|w| w.group == WorkloadGroup::IlpIntensive)
                .count(),
            6
        );
        assert_eq!(
            all.iter()
                .filter(|w| w.group == WorkloadGroup::MlpIntensive)
                .count(),
            12
        );
        assert_eq!(
            all.iter()
                .filter(|w| w.group == WorkloadGroup::Mixed)
                .count(),
            18
        );
        for w in &all {
            assert_eq!(w.num_threads(), 2);
        }
    }

    #[test]
    fn four_thread_table_has_30_workloads() {
        let all = four_thread_workloads();
        assert_eq!(all.len(), 30);
        for w in &all {
            assert_eq!(w.num_threads(), 4);
            assert!(w.mlp_count() <= 4);
        }
        // The table spans the whole range from no MLP-intensive benchmarks to all
        // four benchmarks being MLP-intensive.
        assert!(all.iter().any(|w| w.mlp_count() == 0));
        assert!(all.iter().any(|w| w.mlp_count() == 4));
    }

    #[test]
    fn classification_follows_membership() {
        let w = Workload::new(vec!["mcf", "swim"]).unwrap();
        assert_eq!(w.group, WorkloadGroup::MlpIntensive);
        let w = Workload::new(vec!["gcc", "gap"]).unwrap();
        assert_eq!(w.group, WorkloadGroup::IlpIntensive);
        let w = Workload::new(vec!["swim", "twolf"]).unwrap();
        assert_eq!(w.group, WorkloadGroup::Mixed);
        assert_eq!(w.name(), "swim-twolf");
    }

    #[test]
    fn unknown_benchmark_rejected() {
        assert!(Workload::new(vec!["notabenchmark", "gcc"]).is_err());
        assert!(Workload::new(Vec::<String>::new()).is_err());
    }

    #[test]
    fn group_labels() {
        assert_eq!(WorkloadGroup::IlpIntensive.label(), "ILP");
        assert_eq!(WorkloadGroup::MlpIntensive.label(), "MLP");
        assert_eq!(WorkloadGroup::Mixed.label(), "MIX");
    }

    #[test]
    fn representative_subset_is_valid_and_diverse() {
        let subset = representative_two_thread_workloads();
        assert!(subset.len() >= 3);
        let groups: std::collections::HashSet<_> = subset.iter().map(|w| w.group).collect();
        assert_eq!(groups.len(), 3, "subset should cover all three groups");
    }
}
