//! Serializable warm simulator checkpoints.
//!
//! A checkpoint captures everything that is *warm* at a pure
//! fast-forward-from-reset boundary: trace positions, branch/LLL/MLP
//! predictors, the LLSR and its pending evaluations, the private cache/TLB/
//! prefetcher levels and the shared LLC. At that boundary every transient
//! structure is empty by construction — the cycle counter is zero, the
//! pipeline windows, completion queue, write buffer, MSHRs, bus and staged
//! fills hold nothing, and all statistics are zero — so none of it needs
//! capturing, and restoring into a freshly built simulator reproduces the
//! fast-forwarded machine bit for bit.
//!
//! Each warm structure lists its checkpointed fields once
//! ([`smt_types::warm::Warm`]); this module captures them all and restores
//! them all-or-nothing, every structure checked before the first is written.
//!
//! Sweeps branch from one shared checkpoint: fast-forward the warm prefix
//! once, [`SmtSimulator::checkpoint`] it, then
//! [`SmtSimulator::restore_checkpoint`] into each cell's fresh simulator
//! instead of re-running the prefix.

use serde::{Deserialize, Serialize};
use smt_trace::TraceSourceState;
use smt_types::warm::{self, CheckpointError, Warm, WarmState};
use smt_types::{CheckpointMeta, SimError, ThreadId, TraceOp};

use super::SmtSimulator;

/// A pending MLP-prediction evaluation: the prediction made when the load
/// executed, waiting for the LLSR to produce the actual MLP distance at
/// window exit.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PendingMlpEval {
    /// PC of the long-latency load awaiting its LLSR ground truth.
    pub pc: u64,
    /// The MLP distance predicted when the load was processed.
    pub predicted_distance: u32,
}

/// Per-thread warm state of a checkpoint.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ThreadCheckpoint {
    /// Trace-source position (benchmark name, RNG, cursors).
    pub trace: TraceSourceState,
    /// Trace ops pulled into the refill buffer but not yet consumed.
    pub pending_ops: Vec<TraceOp>,
    /// Instructions committed (functionally executed) so far.
    pub committed: u64,
    /// Branch predictor state.
    pub branch_predictor: WarmState,
    /// Long-latency load predictor state.
    pub lll_predictor: WarmState,
    /// MLP distance predictor state.
    pub mlp_predictor: WarmState,
    /// Binary MLP predictor state.
    pub binary_mlp_predictor: WarmState,
    /// Long-latency shift register contents.
    pub llsr: WarmState,
    /// Predictions awaiting their LLSR ground truth, in commit order.
    pub pending_mlp_evals: Vec<PendingMlpEval>,
}

/// A complete warm checkpoint of a single-core simulator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimCheckpoint {
    /// Identity and provenance (validated on restore).
    pub meta: CheckpointMeta,
    /// Per-thread warm state, in thread order.
    pub threads: Vec<ThreadCheckpoint>,
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

/// Checks `state` against `warm`, and with `write` restores it, naming
/// `field` in any error.
fn apply(
    warm: &mut impl Warm,
    state: &WarmState,
    field: &str,
    write: bool,
) -> Result<(), CheckpointError> {
    let result = if write {
        warm::restore(warm, state)
    } else {
        warm::check(warm, state)
    };
    result.map_err(|e| e.in_field(field))
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
        let num_threads = self.config().num_threads as u32;
        let chip = &mut self.chip;
        let core = &mut chip.cores[0];
        let mut threads = Vec::with_capacity(core.threads.len());
        let mut benchmarks = Vec::with_capacity(core.threads.len());
        let mut warmed = u64::MAX;
        for ctx in &mut core.threads {
            let trace = ctx.trace.save_state().ok_or_else(|| {
                SimError::invalid_workload(format!(
                    "trace source '{}' does not support checkpointing",
                    ctx.trace.name()
                ))
            })?;
            benchmarks.push(ctx.trace.name().to_string());
            warmed = warmed.min(ctx.committed);
            threads.push(ThreadCheckpoint {
                trace,
                pending_ops: ctx.pending_trace_ops().to_vec(),
                committed: ctx.committed,
                branch_predictor: warm::capture(&mut ctx.branch_predictor),
                lll_predictor: warm::capture(&mut ctx.lll_predictor),
                mlp_predictor: warm::capture(&mut ctx.mlp_predictor),
                binary_mlp_predictor: warm::capture(&mut ctx.binary_mlp_predictor),
                llsr: warm::capture(&mut ctx.llsr),
                pending_mlp_evals: ctx.pending_mlp_evals.iter().copied().collect(),
            });
        }
        let meta = CheckpointMeta {
            schema_version: CheckpointMeta::SCHEMA_VERSION,
            benchmarks,
            seed,
            num_threads,
            warmed_instructions: if warmed == u64::MAX { 0 } else { warmed },
        };
        Ok(SimCheckpoint {
            meta,
            threads,
            memory: warm::capture(&mut core.mem),
            shared: warm::capture(&mut chip.shared),
        })
    }

    /// Restores a checkpoint into this simulator, which must be freshly built
    /// for the same configuration and workload (same benchmarks, same seed
    /// derivation, same geometry). Every warm structure is checked before
    /// any is written. After a successful restore the simulator is bit for
    /// bit the machine that was checkpointed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] naming the first field that does not
    /// fit this simulator and [`SimError::InvalidWorkload`] on a workload
    /// mismatch.
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
        self.apply_warm(ck, false)?;
        for (ctx, t) in self.chip.cores[0].threads.iter_mut().zip(&ck.threads) {
            ctx.trace
                .restore_state(&t.trace)
                .map_err(SimError::invalid_workload)?;
            ctx.set_pending_trace_ops(t.pending_ops.clone());
            ctx.committed = t.committed;
            ctx.pending_mlp_evals = t.pending_mlp_evals.iter().copied().collect();
        }
        Ok(self.apply_warm(ck, true)?)
    }

    /// Checks every warm structure of `ck` against this simulator's, and
    /// with `write` restores them.
    fn apply_warm(&mut self, ck: &SimCheckpoint, write: bool) -> Result<(), CheckpointError> {
        let chip = &mut self.chip;
        let core = &mut chip.cores[0];
        for (i, (ctx, t)) in core.threads.iter_mut().zip(&ck.threads).enumerate() {
            // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
            let in_thread = |e: CheckpointError| e.in_field(&format!("threads[{i}]"));
            // Each part's checkpoint field is named after its context field.
            macro_rules! apply_part {
                ($part:ident) => {
                    apply(&mut ctx.$part, &t.$part, stringify!($part), write).map_err(in_thread)?
                };
            }
            apply_part!(branch_predictor);
            apply_part!(lll_predictor);
            apply_part!(mlp_predictor);
            apply_part!(binary_mlp_predictor);
            apply_part!(llsr);
        }
        apply(&mut core.mem, &ck.memory, "memory", write)?;
        apply(&mut chip.shared, &ck.shared, "shared", write)
    }
}
