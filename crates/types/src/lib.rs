//! Common vocabulary types for the MLP-aware SMT fetch-policy reproduction.
//!
//! This crate defines the shared, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! * [`ThreadId`] and sequence-number newtypes ([`ids`]),
//! * the trace-level instruction representation ([`op::TraceOp`]),
//! * the packed per-instruction pipeline flags ([`flags::OpFlags`]),
//! * the simulated processor configuration ([`config::SmtConfig`], Table IV of the
//!   paper),
//! * per-thread and machine-wide statistics ([`stats`]),
//! * the read-only pipeline snapshot handed to fetch policies ([`snapshot`]),
//! * error types ([`error`]),
//! * the experiment engine's per-cell failure taxonomy ([`resilience`]),
//! * the sampled-simulation cadence and estimate types ([`sampling`]),
//! * the sparse checkpoint form of a fixed-size warm table ([`sparse`]),
//! * the one checkpoint path of every warm structure ([`warm`]).
//!
//! # Example
//!
//! ```
//! use smt_types::config::SmtConfig;
//!
//! let cfg = SmtConfig::baseline(2);
//! assert_eq!(cfg.rob_size, 256);
//! assert_eq!(cfg.num_threads, 2);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod error;
pub mod flags;
pub mod ids;
pub mod op;
pub mod resilience;
pub mod sampling;
pub mod snapshot;
pub mod sparse;
pub mod stats;
pub mod warm;

pub use config::{BusConfig, ChipConfig, SmtConfig};
pub use error::SimError;
pub use flags::OpFlags;
pub use ids::{SeqNum, ThreadId};
pub use op::{BranchInfo, MemInfo, OpKind, TraceOp};
pub use resilience::{CellError, CellErrorKind, CellOutcome, RunHealth, RunHealthStatus};
pub use sampling::{CheckpointMeta, MetricEstimate, SampledEstimate, SamplingConfig};
pub use snapshot::{SmtSnapshot, ThreadSnapshot};
pub use sparse::SparseTable;
pub use stats::{ChipStats, MachineStats, ThreadStats};
pub use warm::{CheckpointError, Warm, WarmState, WarmVisitor};
