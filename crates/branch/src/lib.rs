//! Branch prediction substrate: a gshare direction predictor and a set-associative
//! branch target buffer, matching the Table IV configuration (2K-entry gshare,
//! 256-entry 4-way BTB, 11-cycle misprediction penalty charged by the pipeline).
//!
//! # Example
//!
//! ```
//! use smt_branch::BranchPredictor;
//!
//! let mut bp = BranchPredictor::new(2048, 256, 4);
//! // Train a strongly taken branch until the global history saturates.
//! for _ in 0..24 {
//!     let p = bp.predict(0x400);
//!     bp.update(0x400, true, 0x800, p);
//! }
//! assert!(bp.predict(0x400).taken);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod btb;
pub mod gshare;

pub use btb::{BranchTargetBuffer, BtbEntry};
pub use gshare::Gshare;

use smt_types::warm::{Warm, WarmVisitor};

/// A direction + target prediction for one branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchPrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target, if the BTB has one for this branch.
    pub target: Option<u64>,
}

/// Per-thread branch predictor combining a gshare direction predictor with a BTB.
///
/// Each SMT thread gets its own instance (the paper's predictor sizes are per
/// thread; sharing would only add destructive aliasing unrelated to the study).
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    gshare: Gshare,
    btb: BranchTargetBuffer,
    predictions: u64,
    mispredictions: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `gshare_entries` two-bit counters and a
    /// `btb_entries`-entry, `btb_assoc`-way BTB.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or `gshare_entries` is not a power of two.
    pub fn new(gshare_entries: u32, btb_entries: u32, btb_assoc: u32) -> Self {
        BranchPredictor {
            gshare: Gshare::new(gshare_entries),
            btb: BranchTargetBuffer::new(btb_entries, btb_assoc),
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predicts the branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> BranchPrediction {
        self.predictions += 1;
        BranchPrediction {
            taken: self.gshare.predict(pc),
            target: self.btb.lookup(pc),
        }
    }

    /// Trains the predictor with a resolved branch outcome without scoring a
    /// prediction (used when training happens at commit, on the committed path
    /// only, while predictions were made earlier at fetch).
    pub fn train(&mut self, pc: u64, taken: bool, target: u64) {
        self.gshare.update(pc, taken);
        if taken {
            self.btb.insert(pc, target);
        }
    }

    /// Updates predictor state with the resolved outcome and returns `true` if the
    /// earlier `prediction` was a misprediction (wrong direction, or taken with a
    /// wrong/unknown target).
    pub fn update(
        &mut self,
        pc: u64,
        taken: bool,
        target: u64,
        prediction: BranchPrediction,
    ) -> bool {
        self.gshare.update(pc, taken);
        if taken {
            self.btb.insert(pc, target);
        }
        let direction_wrong = prediction.taken != taken;
        let target_wrong = taken && prediction.target != Some(target);
        let mispredicted = direction_wrong || target_wrong;
        if mispredicted {
            self.mispredictions += 1;
        }
        mispredicted
    }

    /// Number of predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }
}

impl Warm for BranchPredictor {
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        v.part("gshare", &mut self.gshare);
        v.part("btb", &mut self.btb);
        v.scalar("predictions", &mut self.predictions);
        v.scalar("mispredictions", &mut self.mispredictions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut bp = BranchPredictor::new(1024, 64, 4);
        let mut wrong_late = 0;
        for i in 0..100 {
            let p = bp.predict(0x1000);
            if bp.update(0x1000, true, 0x2000, p) && i >= 50 {
                wrong_late += 1;
            }
        }
        // Once the global history warms up, an always-taken branch is always correct.
        assert_eq!(wrong_late, 0, "bias should be learned by the second half");
        assert_eq!(bp.predictions(), 100);
    }

    #[test]
    fn alternating_pattern_learned_via_history() {
        let mut bp = BranchPredictor::new(4096, 64, 4);
        let mut wrong_late = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let p = bp.predict(0x2000);
            let m = bp.update(0x2000, taken, 0x3000, p);
            if i >= 200 && m {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 40,
            "gshare should capture an alternating pattern, got {wrong_late}"
        );
    }

    #[test]
    fn unknown_target_counts_as_misprediction() {
        let mut bp = BranchPredictor::new(1024, 64, 4);
        // Force the direction predictor to predict taken, but with a cold BTB.
        for _ in 0..4 {
            let p = bp.predict(0x4000);
            bp.update(0x4000, true, 0x5000, p);
        }
        let p = bp.predict(0x4444);
        // Even if the direction guess happens to be taken, the target is unknown.
        if p.taken {
            assert!(bp.update(0x4444, true, 0x9000, p));
        }
    }
}
