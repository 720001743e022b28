//! Failure vocabulary of the experiment engine.
//!
//! The parallel experiment engine (`smt-core`) runs every table, sweep and
//! grid as a queue of independent *cells*. A cell can fail — a panic in the
//! simulator, a simulated-cycle cap hit, or a malformed cell specification —
//! without taking the run down with it. This module defines the shared taxonomy for
//! those failures: [`CellError`] (what went wrong in one cell),
//! [`CellOutcome`] (the per-cell record embedded in every experiment
//! report), and [`RunHealth`] (the roll-up the CLI maps to exit codes).
//!
//! Everything here is plain serde-serializable data so degraded reports stay
//! machine-readable end to end.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Classification of a cell failure.
///
/// Serializes as the short machine-readable [`CellErrorKind::name`]
/// (e.g. `"panic"`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CellErrorKind {
    /// The cell body panicked; the payload is quarantined in
    /// [`CellError::detail`].
    Panic,
    /// The cell hit its simulated-cycle cap (`[scale] max_cycles`).
    DeadlineExceeded,
    /// The cell's specification was rejected by the simulator (unknown
    /// benchmark, invalid configuration).
    InvalidSpec,
}

impl CellErrorKind {
    /// Every failure kind, in presentation order.
    pub const ALL: [CellErrorKind; 3] = [
        CellErrorKind::Panic,
        CellErrorKind::DeadlineExceeded,
        CellErrorKind::InvalidSpec,
    ];

    /// Short machine-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CellErrorKind::Panic => "panic",
            CellErrorKind::DeadlineExceeded => "deadline-exceeded",
            CellErrorKind::InvalidSpec => "invalid-spec",
        }
    }

    /// Parses a [`CellErrorKind::name`] string back into a kind.
    pub fn from_name(name: &str) -> Option<CellErrorKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

serde::named_enum_serde!(CellErrorKind, "cell error kind");

/// A structured, serializable record of why one experiment cell failed.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CellError {
    /// The failure class.
    pub kind: CellErrorKind,
    /// Human-readable detail: the panic payload, the exceeded budget, or the
    /// simulator error text.
    pub detail: String,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)
    }
}

impl std::error::Error for CellError {}

/// The execution record of one cell in an experiment report, aligned with
/// the engine's deterministic cell ordering. The engine runs each cell once:
/// a cell is a pure function of its spec, so a second run would fail the
/// same way.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CellOutcome {
    /// Deterministic cell index within the run.
    pub cell: u64,
    /// Stable human-readable cell label (policy/workload, benchmark, …).
    pub label: String,
    /// Whether the cell produced its result.
    pub ok: bool,
    /// The error of a failed cell; absent on success.
    pub error: Option<CellError>,
}

impl CellOutcome {
    /// A successful cell.
    pub fn success(cell: u64, label: impl Into<String>) -> Self {
        CellOutcome {
            cell,
            label: label.into(),
            ok: true,
            error: None,
        }
    }

    /// A failed cell.
    pub fn failure(cell: u64, label: impl Into<String>, error: CellError) -> Self {
        CellOutcome {
            cell,
            label: label.into(),
            ok: false,
            error: Some(error),
        }
    }
}

/// Overall health of a finished experiment run.
///
/// Serializes as the short machine-readable [`RunHealthStatus::name`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RunHealthStatus {
    /// Every cell produced its result.
    Complete,
    /// Some cells failed; the report carries every surviving cell.
    Degraded,
    /// No cell produced a result.
    Failed,
}

impl RunHealthStatus {
    /// Every status, in presentation order.
    pub const ALL: [RunHealthStatus; 3] = [
        RunHealthStatus::Complete,
        RunHealthStatus::Degraded,
        RunHealthStatus::Failed,
    ];

    /// Short machine-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RunHealthStatus::Complete => "complete",
            RunHealthStatus::Degraded => "degraded",
            RunHealthStatus::Failed => "failed",
        }
    }

    /// Parses a [`RunHealthStatus::name`] string back into a status.
    pub fn from_name(name: &str) -> Option<RunHealthStatus> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

serde::named_enum_serde!(RunHealthStatus, "run health status");

/// Roll-up of the per-cell outcomes of one run. The CLI maps
/// [`RunHealth::status`] to its exit code (0 complete / 3 degraded /
/// 1 failed).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunHealth {
    /// Overall status of the run.
    pub status: RunHealthStatus,
    /// Cells the spec planned.
    pub planned_cells: u64,
    /// Cells that produced results.
    pub completed_cells: u64,
    /// Cells that failed.
    pub failed_cells: u64,
}

impl RunHealth {
    /// Derives the health summary from a run's per-cell outcomes.
    pub fn from_outcomes(outcomes: &[CellOutcome]) -> Self {
        let planned = outcomes.len() as u64;
        let completed = outcomes.iter().filter(|o| o.ok).count() as u64;
        let failed = planned - completed;
        let status = if failed == 0 {
            RunHealthStatus::Complete
        } else if completed > 0 {
            RunHealthStatus::Degraded
        } else {
            RunHealthStatus::Failed
        };
        RunHealth {
            status,
            planned_cells: planned,
            completed_cells: completed,
            failed_cells: failed,
        }
    }

    /// Whether every planned cell completed.
    pub fn is_complete(&self) -> bool {
        self.status == RunHealthStatus::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in CellErrorKind::ALL {
            assert_eq!(CellErrorKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CellErrorKind::from_name("meltdown"), None);
        for status in RunHealthStatus::ALL {
            assert_eq!(RunHealthStatus::from_name(status.name()), Some(status));
        }
    }

    #[test]
    fn health_classifies_outcome_mixes() {
        use serde::{Deserialize as _, Serialize as _};
        let ok = CellOutcome::success(0, "icount/gcc-mcf");
        let bad = CellOutcome::failure(
            1,
            "mlp/gcc-mcf",
            CellError {
                kind: CellErrorKind::Panic,
                detail: "boom".to_string(),
            },
        );
        let all_ok = RunHealth::from_outcomes(&[ok.clone(), ok.clone()]);
        assert_eq!(all_ok.status, RunHealthStatus::Complete);
        assert!(all_ok.is_complete());
        let mixed = RunHealth::from_outcomes(&[ok.clone(), bad.clone()]);
        assert_eq!(mixed.status, RunHealthStatus::Degraded);
        assert_eq!(mixed.failed_cells, 1);
        let none = RunHealth::from_outcomes(std::slice::from_ref(&bad));
        assert_eq!(none.status, RunHealthStatus::Failed);
        let round = CellOutcome::deserialize(&bad.serialize()).unwrap();
        assert_eq!(round, bad);
        let round = RunHealth::deserialize(&mixed.serialize()).unwrap();
        assert_eq!(round, mixed);
    }

    #[test]
    fn success_outcome_carries_no_failure_fields() {
        use serde::Serialize as _;
        // A success outcome serializes as exactly `cell`, `label` and `ok`,
        // so fault-free reports carry no failure noise.
        let ok = CellOutcome::success(3, "icount/gcc");
        match ok.serialize() {
            serde::Value::Map(fields) => {
                assert!(fields.iter().all(|(k, _)| k != "error"));
            }
            other => panic!("expected map, got {other:?}"),
        }
        let error = CellError {
            kind: CellErrorKind::DeadlineExceeded,
            detail: "cell 3: max_cycles".to_string(),
        };
        assert_eq!(error.to_string(), "deadline-exceeded: cell 3: max_cycles");
    }
}
