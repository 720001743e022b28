//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

use crate::warm::CheckpointError;

/// Errors produced while configuring or running the simulator.
///
/// # Example
///
/// ```
/// use smt_types::SimError;
/// let e = SimError::invalid_config("ROB size must be non-zero");
/// assert!(e.to_string().contains("ROB size"));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// A configuration value is inconsistent or out of range.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A workload or benchmark name was not recognized.
    UnknownBenchmark {
        /// The offending name.
        name: String,
    },
    /// A multiprogram workload was malformed (e.g. wrong thread count).
    InvalidWorkload {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The simulator reached an internal inconsistency; this indicates a bug.
    Internal {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A run hit its simulated-cycle cap before committing its instruction
    /// budget (see `RunScale::max_cycles` in `smt-core`).
    DeadlineExceeded {
        /// Human-readable description of the exhausted budget.
        reason: String,
    },
    /// A checkpoint does not fit the simulator it is restored into.
    Checkpoint(CheckpointError),
}

impl SimError {
    /// Convenience constructor for [`SimError::InvalidConfig`].
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`SimError::InvalidWorkload`].
    pub fn invalid_workload(reason: impl Into<String>) -> Self {
        SimError::InvalidWorkload {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`SimError::Internal`].
    pub fn internal(reason: impl Into<String>) -> Self {
        SimError::Internal {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`SimError::DeadlineExceeded`].
    pub fn deadline_exceeded(reason: impl Into<String>) -> Self {
        SimError::DeadlineExceeded {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::UnknownBenchmark { name } => write!(f, "unknown benchmark: {name}"),
            SimError::InvalidWorkload { reason } => write!(f, "invalid workload: {reason}"),
            SimError::Internal { reason } => write!(f, "internal simulator error: {reason}"),
            SimError::DeadlineExceeded { reason } => write!(f, "deadline exceeded: {reason}"),
            SimError::Checkpoint(error) => write!(f, "invalid checkpoint: {error}"),
        }
    }
}

impl Error for SimError {}

impl From<CheckpointError> for SimError {
    fn from(error: CheckpointError) -> Self {
        SimError::Checkpoint(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            SimError::invalid_config("x").to_string(),
            "invalid configuration: x"
        );
        assert_eq!(
            SimError::UnknownBenchmark {
                name: "quake3".into()
            }
            .to_string(),
            "unknown benchmark: quake3"
        );
        assert_eq!(
            SimError::invalid_workload("needs 2 threads").to_string(),
            "invalid workload: needs 2 threads"
        );
        assert_eq!(
            SimError::internal("rob underflow").to_string(),
            "internal simulator error: rob underflow"
        );
        assert_eq!(
            SimError::deadline_exceeded("cycle cap hit").to_string(),
            "deadline exceeded: cycle cap hit"
        );
        assert_eq!(
            SimError::from(CheckpointError::new("llc.ways.len", "too long")).to_string(),
            "invalid checkpoint: llc.ways.len: too long"
        );
    }

    #[test]
    fn error_trait_and_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
    }
}
