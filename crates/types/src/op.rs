//! Trace-level instruction representation.
//!
//! The simulator is trace driven: a workload is a stream of [`TraceOp`] records
//! produced by `smt_trace`. Each record carries everything the timing model needs
//! — operation class, memory effective address, branch outcome, and register
//! dependences expressed as *producer distances* (how many dynamic instructions
//! back the producing instruction is).

use serde::{Deserialize, Serialize};

/// Classification of a dynamic instruction for timing purposes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum OpKind {
    /// Single-cycle integer ALU operation (also covers address generation helpers).
    IntAlu,
    /// Multi-cycle integer operation (multiply/divide class).
    IntMul,
    /// Floating-point operation (adds, multiplies); executes on an FP unit.
    FpOp,
    /// Long floating-point operation (divide/sqrt class).
    FpLong,
    /// Memory load; executes on a load/store unit and accesses the data hierarchy.
    Load,
    /// Memory store; executes on a load/store unit, writes through the write buffer
    /// at commit.
    Store,
    /// Conditional or unconditional branch; resolved at execute.
    Branch,
}

impl OpKind {
    /// Every kind, in declaration order (the on-disk trace format's kind-code
    /// order).
    pub const ALL: [OpKind; 7] = [
        OpKind::IntAlu,
        OpKind::IntMul,
        OpKind::FpOp,
        OpKind::FpLong,
        OpKind::Load,
        OpKind::Store,
        OpKind::Branch,
    ];

    /// Returns `true` for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Returns `true` if the operation executes on a floating-point unit.
    pub fn is_fp(self) -> bool {
        matches!(self, OpKind::FpOp | OpKind::FpLong)
    }

    /// Execution latency in cycles once the operation issues, excluding any memory
    /// hierarchy latency (which is added dynamically for loads).
    pub fn exec_latency(self) -> u64 {
        match self {
            OpKind::IntAlu | OpKind::Branch => 1,
            OpKind::IntMul => 3,
            OpKind::FpOp => 4,
            OpKind::FpLong => 12,
            OpKind::Load | OpKind::Store => 1,
        }
    }
}

/// Branch metadata attached to [`OpKind::Branch`] trace records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BranchInfo {
    /// Whether the branch is taken in the trace.
    pub taken: bool,
    /// Branch target program counter (used for BTB lookups).
    pub target: u64,
    /// Whether the branch is unconditional (always predicted taken once the BTB
    /// knows the target).
    pub unconditional: bool,
}

/// Memory metadata attached to [`OpKind::Load`]/[`OpKind::Store`] trace records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MemInfo {
    /// Virtual effective address of the access.
    pub addr: u64,
    /// Access size in bytes (informational; the cache model works on lines).
    pub size: u8,
}

impl Default for MemInfo {
    fn default() -> Self {
        MemInfo { addr: 0, size: 8 }
    }
}

/// One dynamic instruction of a workload trace.
///
/// # Example
///
/// ```
/// use smt_types::{OpKind, TraceOp};
/// let op = TraceOp::int_alu(0x1000);
/// assert_eq!(op.kind, OpKind::IntAlu);
/// assert!(!op.kind.is_mem());
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceOp {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Operation class.
    pub kind: OpKind,
    /// Input dependences: distance (in dynamic instructions) back to the producer
    /// of each source operand. `None` means the operand is ready at rename
    /// (produced long ago or immediate).
    pub src_deps: [Option<u32>; 2],
    /// Memory metadata (loads and stores only).
    pub mem: Option<MemInfo>,
    /// Branch metadata (branches only).
    pub branch: Option<BranchInfo>,
}

impl TraceOp {
    /// Creates a single-cycle integer ALU operation with no dependences.
    pub fn int_alu(pc: u64) -> Self {
        TraceOp {
            pc,
            kind: OpKind::IntAlu,
            src_deps: [None, None],
            mem: None,
            branch: None,
        }
    }

    /// Creates a load of `addr` with no register dependences.
    pub fn load(pc: u64, addr: u64) -> Self {
        TraceOp {
            pc,
            kind: OpKind::Load,
            src_deps: [None, None],
            mem: Some(MemInfo { addr, size: 8 }),
            branch: None,
        }
    }

    /// Creates a store to `addr` with no register dependences.
    pub fn store(pc: u64, addr: u64) -> Self {
        TraceOp {
            pc,
            kind: OpKind::Store,
            src_deps: [None, None],
            mem: Some(MemInfo { addr, size: 8 }),
            branch: None,
        }
    }

    /// Creates a conditional branch.
    pub fn branch(pc: u64, taken: bool, target: u64) -> Self {
        TraceOp {
            pc,
            kind: OpKind::Branch,
            src_deps: [None, None],
            mem: None,
            branch: Some(BranchInfo {
                taken,
                target,
                unconditional: false,
            }),
        }
    }

    /// Adds a producer-distance dependence to the first free source slot.
    ///
    /// Returns `self` for chaining. Distances of zero are ignored (an instruction
    /// cannot depend on itself).
    pub fn with_dep(mut self, distance: u32) -> Self {
        if distance == 0 {
            return self;
        }
        if self.src_deps[0].is_none() {
            self.src_deps[0] = Some(distance);
        } else if self.src_deps[1].is_none() {
            self.src_deps[1] = Some(distance);
        }
        self
    }

    /// Effective address of the access, if this is a memory operation.
    pub fn addr(&self) -> Option<u64> {
        self.mem.map(|m| m.addr)
    }

    /// Returns `true` if the record is internally consistent (memory metadata only
    /// on memory ops, branch metadata only on branches).
    pub fn is_well_formed(&self) -> bool {
        let mem_ok = self.mem.is_some() == self.kind.is_mem();
        let br_ok = self.branch.is_some() == (self.kind == OpKind::Branch);
        mem_ok && br_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_are_well_formed() {
        assert!(TraceOp::int_alu(0).is_well_formed());
        assert!(TraceOp {
            kind: OpKind::FpOp,
            ..TraceOp::int_alu(4)
        }
        .is_well_formed());
        assert!(TraceOp::load(8, 0x100).is_well_formed());
        assert!(TraceOp::store(12, 0x200).is_well_formed());
        assert!(TraceOp::branch(16, true, 0x40).is_well_formed());
    }

    #[test]
    fn with_dep_fills_slots_in_order() {
        let op = TraceOp::int_alu(0).with_dep(3).with_dep(7).with_dep(9);
        assert_eq!(op.src_deps, [Some(3), Some(7)]);
    }

    #[test]
    fn with_dep_ignores_zero() {
        let op = TraceOp::int_alu(0).with_dep(0);
        assert_eq!(op.src_deps, [None, None]);
    }

    #[test]
    fn latency_classes() {
        assert_eq!(OpKind::IntAlu.exec_latency(), 1);
        assert!(OpKind::FpLong.exec_latency() > OpKind::FpOp.exec_latency());
        assert!(OpKind::Load.is_mem());
        assert!(OpKind::FpOp.is_fp());
        assert!(!OpKind::Branch.is_mem());
    }

    #[test]
    fn addr_accessor() {
        assert_eq!(TraceOp::load(0, 0xdead).addr(), Some(0xdead));
        assert_eq!(TraceOp::int_alu(0).addr(), None);
    }

    #[test]
    fn malformed_records_detected() {
        let mut op = TraceOp::int_alu(0);
        op.mem = Some(MemInfo::default());
        assert!(!op.is_well_formed());
        let mut b = TraceOp::branch(0, false, 4);
        b.branch = None;
        assert!(!b.is_well_formed());
    }
}
