//! Serializable warm simulator checkpoints.
//!
//! A checkpoint captures everything that is *warm* at a pure
//! fast-forward-from-reset boundary: each thread's trace position, the ops
//! it pulled but has not consumed, its committed count, its branch/LLL/MLP
//! predictors, the LLSR and its pending evaluations; then the private
//! cache/TLB/prefetcher levels and the shared LLC. At that boundary every
//! transient structure is empty by construction — the cycle counter is
//! zero, the pipeline windows, completion queue, write buffer, MSHRs, bus
//! and staged fills hold nothing, and all statistics are zero — so none of
//! it needs capturing, and restoring into a freshly built simulator
//! reproduces the fast-forwarded machine bit for bit.
//!
//! Each thread, the core's memory and the shared level list their
//! checkpointed fields once ([`smt_types::warm::Warm`]). A capture is one
//! [`warm::capture`] per part; a restore checks every part of every thread,
//! trace position included, before it writes any of them, so a checkpoint
//! that does not fit changes nothing.
//!
//! Sweeps branch from one shared checkpoint: fast-forward the warm prefix
//! once, [`SmtSimulator::checkpoint`] it, then
//! [`SmtSimulator::restore_checkpoint`] into each cell's fresh simulator
//! instead of re-running the prefix.

use serde::{Deserialize, Serialize};
use smt_types::warm::{self, CheckpointError, Warm, WarmState};
use smt_types::{CheckpointMeta, SimError, ThreadId};

use super::SmtSimulator;

/// A complete warm checkpoint of a single-core simulator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimCheckpoint {
    /// Identity and provenance (validated on restore).
    pub meta: CheckpointMeta,
    /// Per-thread warm state, in thread order.
    pub threads: Vec<WarmState>,
    /// Core-private memory levels (L1D, L2, D-TLBs, prefetcher).
    pub memory: WarmState,
    /// Shared last-level cache.
    pub shared: WarmState,
}

/// The identity header alone. It is read before the rest of a checkpoint,
/// so a checkpoint of another schema version fails naming its version, not
/// the first field this version does not know.
#[derive(Deserialize)]
struct CheckpointHeader {
    meta: CheckpointMeta,
}

/// Rejects any schema version but [`CheckpointMeta::SCHEMA_VERSION`].
fn check_schema_version(version: u32) -> Result<(), CheckpointError> {
    if version != CheckpointMeta::SCHEMA_VERSION {
        return Err(CheckpointError::new(
            "meta.schema_version",
            // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
            format!(
                "unsupported checkpoint schema version {version} (expected {})",
                CheckpointMeta::SCHEMA_VERSION
            ),
        ));
    }
    Ok(())
}

impl SimCheckpoint {
    /// Parses a checkpoint from JSON text and [validates](Self::validate)
    /// it. The schema version is checked before the rest of the document is
    /// read.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for malformed JSON or a document
    /// that does not match the schema, and [`SimError::Checkpoint`] for
    /// another schema version or a failed validation.
    pub fn from_json(text: &str) -> Result<Self, SimError> {
        let parse_error = |e: serde_json::Error| SimError::invalid_config(e.to_string());
        let header: CheckpointHeader = serde_json::from_str(text).map_err(parse_error)?;
        check_schema_version(header.meta.schema_version)?;
        let checkpoint: SimCheckpoint = serde_json::from_str(text).map_err(parse_error)?;
        checkpoint.validate()?;
        Ok(checkpoint)
    }

    /// Checks what holds for any simulator: a supported schema version, a
    /// supported thread count and metadata consistent with the captured
    /// threads. The warm state is
    /// checked against the simulator it is restored into
    /// ([`SmtSimulator::restore_checkpoint`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), SimError> {
        check_schema_version(self.meta.schema_version)?;
        let captured = self.threads.len();
        if !(1..=ThreadId::MAX_THREADS).contains(&captured) {
            let max = ThreadId::MAX_THREADS;
            // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
            let reason = format!("{captured} threads, a simulator runs 1 to {max}");
            return Err(CheckpointError::new("threads", reason).into());
        }
        for (field, claimed) in [
            ("meta.num_threads", self.meta.num_threads as usize),
            ("meta.benchmarks", self.meta.benchmarks.len()),
        ] {
            if claimed != captured {
                // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
                let reason = format!("{claimed} threads, but {captured} are captured");
                return Err(CheckpointError::new(field, reason).into());
            }
        }
        Ok(())
    }
}

/// Checks `state` against `warm`, and with `write` restores it.
fn apply(warm: &mut impl Warm, state: &WarmState, write: bool) -> Result<(), CheckpointError> {
    if write {
        warm::restore(warm, state)
    } else {
        warm::check(warm, state)
    }
}

impl SmtSimulator {
    /// Captures a warm checkpoint. Legal only at a pure
    /// fast-forward-from-reset boundary: the cycle counter must still be zero,
    /// the pipeline empty and the shared level quiescent, so every transient
    /// structure is structurally empty and only warm state needs saving.
    ///
    /// `seed` records the workload seed the simulator was built with (the
    /// simulator itself does not know it); restore validates it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Internal`] when the simulator is not at a
    /// checkpointable boundary and [`SimError::InvalidWorkload`] when a trace
    /// source does not support checkpointing.
    pub fn checkpoint(&mut self, seed: u64) -> Result<SimCheckpoint, SimError> {
        if self.cycle() != 0 || !self.chip.cores[0].is_drained() || !self.chip.shared.is_quiescent()
        {
            return Err(SimError::internal(
                "checkpoints may only be captured after a pure fast-forward from reset \
                 (cycle 0, empty pipeline)",
            ));
        }
        let chip = &mut self.chip;
        let core = &mut chip.cores[0];
        let threads = &mut core.threads;
        if let Some(ctx) = threads.iter().find(|ctx| ctx.trace.save_state().is_none()) {
            return Err(SimError::invalid_workload(format!(
                "trace source '{}' does not support checkpointing",
                ctx.trace.name()
            )));
        }
        let meta = CheckpointMeta {
            schema_version: CheckpointMeta::SCHEMA_VERSION,
            benchmarks: threads.iter().map(|ctx| ctx.trace.name().into()).collect(),
            seed,
            num_threads: threads.len() as u32,
            warmed_instructions: threads.iter().map(|ctx| ctx.committed).min().unwrap_or(0),
        };
        Ok(SimCheckpoint {
            meta,
            threads: threads.iter_mut().map(warm::capture).collect(),
            memory: warm::capture(&mut core.mem),
            shared: warm::capture(&mut chip.shared),
        })
    }

    /// Restores a checkpoint into this simulator, which must be freshly built
    /// for the same configuration and workload (same benchmarks, same seed
    /// derivation, same geometry). Every part of every thread, trace
    /// position included, and both memory levels are checked before any is
    /// written, so a failed restore changes nothing. After a successful
    /// restore the simulator is bit for bit the machine that was
    /// checkpointed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] naming the first field that does not
    /// fit this simulator, a trace position of another workload included
    /// (`threads[1].trace.name`).
    pub fn restore_checkpoint(&mut self, ck: &SimCheckpoint) -> Result<(), SimError> {
        ck.validate()?;
        if self.cycle() != 0 || !self.chip.cores[0].is_drained() {
            return Err(SimError::internal(
                "checkpoints may only be restored into a freshly built simulator",
            ));
        }
        let num_threads = self.config().num_threads;
        if ck.threads.len() != num_threads {
            let reason = format!("{} threads, simulator has {num_threads}", ck.threads.len());
            return Err(CheckpointError::new("threads", reason).into());
        }
        // Every part is checked before the first is written.
        for write in [false, true] {
            let chip = &mut self.chip;
            let core = &mut chip.cores[0];
            for (i, (ctx, state)) in core.threads.iter_mut().zip(&ck.threads).enumerate() {
                apply(ctx, state, write).map_err(|e| e.in_field(&format!("threads[{i}]")))?;
            }
            apply(&mut core.mem, &ck.memory, write).map_err(|e| e.in_field("memory"))?;
            apply(&mut chip.shared, &ck.shared, write).map_err(|e| e.in_field("shared"))?;
        }
        Ok(())
    }
}
