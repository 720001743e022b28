//! `smt-core`: the SMT processor simulator, system-level metrics, workload
//! definitions and experiment runners reproducing "A Memory-Level Parallelism
//! Aware Fetch Policy for SMT Processors" (Eyerman & Eeckhout, HPCA 2007 / TACO
//! 2009).
//!
//! The crate is organised as:
//!
//! * [`pipeline`] — the cycle-level SMT out-of-order pipeline (SMTSIM substitute),
//! * [`chip`] — the chip-level simulator: N cores in lockstep against a
//!   shared LLC and memory bus,
//! * [`metrics`] — STP, ANTT and averaging helpers (Section 5),
//! * [`workloads`] — the two-thread and four-thread multiprogram workloads of
//!   Tables II and III,
//! * [`runner`] — high-level helpers that run single-threaded reference and
//!   multithreaded workloads, and [`runner::evaluate_cell`], which combines
//!   them into the STP/ANTT result of one grid cell in any mode,
//! * [`experiments`] — every table/figure of the evaluation section as a
//!   declarative spec, plus the engine that runs specs and the uniform report
//!   it produces.
//!
//! # Quickstart
//!
//! ```
//! use smt_core::runner::{evaluate_cell, CellSpec, CheckpointCache, RunScale, StReferenceCache};
//! use smt_core::workloads::Workload;
//! use smt_types::config::FetchPolicyKind;
//!
//! # fn main() -> Result<(), smt_types::SimError> {
//! // Compare ICOUNT and MLP-aware flush on one MLP-intensive two-thread workload.
//! let workload = Workload::new(vec!["mcf", "swim"])?;
//! let (references, checkpoints) = (StReferenceCache::new(), CheckpointCache::new());
//! for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
//!     let cell = CellSpec::baseline(&workload, policy, RunScale::tiny());
//!     let result = evaluate_cell(&cell, &references, &checkpoints)?;
//!     assert!(result.stp > 0.0 && result.antt > 0.0);
//! }
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod artifacts;
pub mod chip;
pub mod experiments;
pub mod metrics;
pub mod pipeline;
pub mod runner;
pub mod workloads;

pub use chip::ChipSimulator;
pub use pipeline::checkpoint::SimCheckpoint;
pub use pipeline::sampling::SampledRun;
pub use pipeline::{Core, SimOptions, SmtSimulator};
pub use runner::{
    evaluate_cell, CellMachine, CellSpec, CheckpointCache, RunScale, StReferenceCache,
};
