//! Synthetic SPEC CPU2000 workload models and trace generation.
//!
//! The paper evaluates on SPEC CPU2000 binaries compiled for Alpha and simulated
//! with SMTSIM over SimPoint regions. Neither the binaries, the inputs, nor an
//! Alpha functional front end can be redistributed, so this crate substitutes a
//! *parametric workload model* per benchmark (see `DESIGN.md` §4):
//!
//! * [`profile::BenchmarkProfile`] captures the characteristics that matter to an
//!   SMT fetch policy study — long-latency-load rate, MLP burst size and span,
//!   prefetch friendliness, instruction mix, branch behaviour and ILP;
//! * [`spec`] instantiates one profile per SPEC CPU2000 benchmark, calibrated to
//!   Table I of the paper;
//! * [`generator::SyntheticTraceGenerator`] turns a profile into a deterministic
//!   instruction stream ([`TraceSource`]) whose loads really hit or miss in the
//!   simulated cache hierarchy with the intended pattern.
//!
//! # Example
//!
//! ```
//! use smt_trace::{spec, SyntheticTraceGenerator, TraceSource};
//!
//! let profile = spec::benchmark("mcf").expect("mcf is a SPEC CPU2000 benchmark");
//! let mut gen = SyntheticTraceGenerator::new(profile.clone(), 42);
//! let op = gen.next_op();
//! assert!(op.is_well_formed());
//! assert_eq!(gen.name(), "mcf");
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod format;
pub mod generator;
pub mod inspect;
pub mod profile;
pub mod reader;
pub mod scripted;
pub mod spec;
pub mod writer;

pub use format::TraceHeader;
pub use generator::SyntheticTraceGenerator;
pub use profile::{BenchmarkProfile, WorkloadClass};
pub use reader::FileTraceSource;
pub use scripted::ScriptedTrace;
pub use writer::{record_source, TraceWriter};

use smt_types::warm::{same_len, CheckpointError};
use smt_types::TraceOp;

/// The workload-name prefix marking an on-disk `.smtt` trace benchmark
/// (`trace:<path>`), usable anywhere a synthetic benchmark name is.
pub const TRACE_SCHEME: &str = "trace:";

/// Splits a `trace:<path>` workload name into its file path, or `None` for
/// ordinary (synthetic) benchmark names.
///
/// # Example
///
/// ```
/// assert_eq!(smt_trace::trace_path("trace:traces/mcf.smtt"), Some("traces/mcf.smtt"));
/// assert_eq!(smt_trace::trace_path("mcf"), None);
/// ```
pub fn trace_path(benchmark: &str) -> Option<&str> {
    benchmark.strip_prefix(TRACE_SCHEME)
}

/// A source of dynamic instructions for one hardware thread.
///
/// The pipeline pulls instructions one at a time; the source must be
/// deterministic for a given construction seed so that single-threaded and
/// multi-threaded runs of the same benchmark see the same instruction stream
/// (required for the STP/ANTT normalization).
///
/// Sources must be [`Send`]: on a chip, whole cores (and the trace sources
/// they own) are stepped by worker threads under the staged discipline.
pub trait TraceSource: Send {
    /// Produces the next dynamic instruction.
    fn next_op(&mut self) -> TraceOp;

    /// Appends the next `n` dynamic instructions to `buf`, in stream order —
    /// exactly the ops `n` successive [`TraceSource::next_op`] calls would
    /// return.
    ///
    /// Callers that hold the source behind `Box<dyn TraceSource>` (the
    /// pipeline's fetch stage) pull a whole batch per virtual call instead of
    /// paying the dynamic dispatch once per instruction. The default
    /// implementation delegates to `next_op`, so existing sources stay
    /// correct; hot sources (e.g. [`SyntheticTraceGenerator`]) override it
    /// with a native batched loop.
    fn refill(&mut self, buf: &mut Vec<TraceOp>, n: usize) {
        buf.reserve(n);
        for _ in 0..n {
            buf.push(self.next_op());
        }
    }

    /// Discards the next `n` dynamic instructions, as if `n` successive
    /// [`TraceSource::next_op`] calls ran and their results were dropped.
    ///
    /// The default implementation does exactly that — generative sources must
    /// actually produce each op to advance their internal state. Sources with
    /// random-access backing storage ([`FileTraceSource`]) override it with an
    /// O(1) seek, which is what makes the skip phase of sampled simulation
    /// free for trace-backed workloads.
    fn skip(&mut self, n: u64) {
        for _ in 0..n {
            let _ = self.next_op();
        }
    }

    /// Short name of the workload (benchmark name).
    fn name(&self) -> &str;

    /// Captures the source's mutable position as a serializable state record,
    /// or `None` when the source cannot be checkpointed (e.g. scripted test
    /// traces). Restoring the state into a freshly constructed source of the
    /// same benchmark and seed must reproduce the remaining stream exactly.
    fn save_state(&self) -> Option<TraceSourceState> {
        None
    }

    /// Restores a state previously captured with [`TraceSource::save_state`].
    /// Fails when the source does not support checkpointing or the state
    /// belongs to a different workload.
    fn restore_state(&mut self, _state: &TraceSourceState) -> Result<(), String> {
        Err("this trace source does not support checkpointing".to_string())
    }
}

/// Serializable position of a checkpointable [`TraceSource`].
///
/// The fields mirror the mutable cursor state of
/// [`SyntheticTraceGenerator`]; the immutable profile is *not* captured — a
/// restore target is constructed from the same benchmark name and seed first,
/// then repositioned with this record.
#[derive(Clone, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceSourceState {
    /// Benchmark name, checked against the restore target.
    pub name: String,
    /// Raw RNG state.
    pub rng_state: [u64; 4],
    /// Dynamic instructions generated so far.
    pub seq: u64,
    /// Instructions remaining until the next miss burst begins.
    pub gap_to_next_burst: u64,
    /// Long-latency loads still to be emitted in the current burst.
    pub burst_remaining: u32,
    /// Instructions between consecutive long-latency loads of the burst.
    pub burst_gap: u32,
    /// Countdown to the next long-latency load within the burst.
    pub next_miss_in: u32,
    /// Whether the current burst walks strided (prefetchable) streams.
    pub burst_strided: bool,
    /// Position within the current burst.
    pub burst_position: u64,
    /// Per-stream next-line cursors of the strided miss region.
    pub stride_cursors: Vec<u64>,
    /// Rotating cursor for hot loads/stores.
    pub hot_cursor: u64,
    /// Rotating cursor for ALU PCs.
    pub alu_pc_cursor: u64,
    /// Rotating cursor over the static branch pool.
    pub branch_cursor: u64,
    /// Fixed per-static-branch direction biases.
    pub branch_bias: Vec<bool>,
    /// Long-latency loads emitted so far.
    pub emitted_long_latency: u64,
}

impl TraceSourceState {
    /// Checks that this state restores into a source whose own state is
    /// `live`: the same benchmark and, for a generator, the same cursor
    /// geometry. A source accepts any state that fits.
    ///
    /// # Errors
    ///
    /// Names the field that does not fit (`name`, `stride_cursors`,
    /// `branch_bias`).
    pub fn fits(&self, live: &TraceSourceState) -> Result<(), CheckpointError> {
        if self.name != live.name {
            let reason = format!("state of `{}`, this thread runs `{}`", self.name, live.name);
            return Err(CheckpointError::new("name", reason));
        }
        same_len(live.stride_cursors.len())(&self.stride_cursors)
            .map_err(|e| e.in_field("stride_cursors"))?;
        same_len(live.branch_bias.len())(&self.branch_bias).map_err(|e| e.in_field("branch_bias"))
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_op(&mut self) -> TraceOp {
        (**self).next_op()
    }

    fn refill(&mut self, buf: &mut Vec<TraceOp>, n: usize) {
        (**self).refill(buf, n)
    }

    fn skip(&mut self, n: u64) {
        (**self).skip(n)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn save_state(&self) -> Option<TraceSourceState> {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &TraceSourceState) -> Result<(), String> {
        (**self).restore_state(state)
    }
}
