//! A scripted trace source: replays a fixed vector of operations.
//!
//! Used by unit and integration tests that need full control over the instruction
//! stream (for example, "two independent long-latency loads exactly 10
//! instructions apart"). When the script is exhausted it keeps emitting
//! single-cycle ALU filler so that a simulation can always run to its instruction
//! budget.

use smt_types::TraceOp;

use crate::TraceSource;

/// A trace source that replays a pre-built instruction sequence.
///
/// # Example
///
/// ```
/// use smt_trace::{ScriptedTrace, TraceSource};
/// use smt_types::TraceOp;
///
/// let mut t = ScriptedTrace::new("demo", vec![TraceOp::load(0x40, 0x1000)]);
/// assert_eq!(t.next_op().pc, 0x40);
/// // After the script ends, filler ALU operations follow.
/// assert!(!t.next_op().kind.is_mem());
/// ```
#[derive(Clone, Debug)]
pub struct ScriptedTrace {
    name: String,
    ops: Vec<TraceOp>,
    cursor: usize,
    filler_pc: u64,
}

impl ScriptedTrace {
    /// Creates a scripted source named `name` replaying `ops`.
    pub fn new(name: impl Into<String>, ops: Vec<TraceOp>) -> Self {
        ScriptedTrace {
            name: name.into(),
            ops,
            cursor: 0,
            filler_pc: 0x7000_0000,
        }
    }

    /// Creates a source that repeats `ops` in a loop forever instead of falling
    /// back to ALU filler.
    // analyze: allow(test-only-pub) reason="the looping scripted source of tests/cycle_skipping.rs, tests/pipeline_invariants.rs, tests/trace_format_properties.rs and crates/core/tests/alloc_discipline.rs"
    pub fn looping(name: impl Into<String>, ops: Vec<TraceOp>) -> LoopingTrace {
        LoopingTrace {
            name: name.into(),
            ops,
            cursor: 0,
        }
    }

    /// Number of scripted (non-filler) operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl TraceSource for ScriptedTrace {
    fn next_op(&mut self) -> TraceOp {
        if self.cursor < self.ops.len() {
            let op = self.ops[self.cursor];
            self.cursor += 1;
            op
        } else {
            self.filler_pc += 4;
            TraceOp::int_alu(self.filler_pc)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A trace source that repeats a fixed sequence of operations forever.
#[derive(Clone, Debug)]
pub struct LoopingTrace {
    name: String,
    ops: Vec<TraceOp>,
    cursor: usize,
}

impl TraceSource for LoopingTrace {
    fn next_op(&mut self) -> TraceOp {
        if self.ops.is_empty() {
            return TraceOp::int_alu(0x7100_0000);
        }
        let op = self.ops[self.cursor];
        self.cursor = (self.cursor + 1) % self.ops.len();
        op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_types::OpKind;

    #[test]
    fn replays_then_fills() {
        let mut t = ScriptedTrace::new(
            "t",
            vec![TraceOp::load(0x10, 0x100), TraceOp::store(0x14, 0x200)],
        );
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.next_op().kind, OpKind::Load);
        assert_eq!(t.next_op().kind, OpKind::Store);
        for _ in 0..10 {
            assert_eq!(t.next_op().kind, OpKind::IntAlu);
        }
    }

    #[test]
    fn looping_trace_repeats() {
        let mut t = ScriptedTrace::looping(
            "loop",
            vec![TraceOp::int_alu(0x4), TraceOp::branch(0x8, true, 0x4)],
        );
        let first: Vec<_> = (0..4).map(|_| t.next_op().pc).collect();
        assert_eq!(first, vec![0x4, 0x8, 0x4, 0x8]);
        assert_eq!(t.name(), "loop");
    }

    #[test]
    fn empty_looping_trace_emits_filler() {
        let mut t = ScriptedTrace::looping("empty", vec![]);
        assert_eq!(t.next_op().kind, OpKind::IntAlu);
    }
}
