//! Property-based tests for the branch predictor's warm-state round trip.

use proptest::prelude::*;

use smt_branch::{BranchPredictor, BranchTargetBuffer};
use smt_types::warm::{capture, check, restore};

/// One random branch `(kind, pc slot, target slot)`: kinds 0–1 predict,
/// 2–3 update as taken, 4 as not taken, 5 train as taken. The pcs cover 64
/// slots, so small BTBs see conflicts and evictions.
type BranchOp = (u8, u64, u64);

fn branch_ops() -> impl Strategy<Value = Vec<BranchOp>> {
    prop::collection::vec((0u8..6, 0u64..64, 0u64..8), 0..300)
}

/// A small geometry: `(gshare entries, BTB entries, BTB associativity)`.
fn geometry() -> impl Strategy<Value = (u32, u32, u32)> {
    (2u32..8, 0u32..3, 0u32..4).prop_map(|(gshare_pow, assoc_pow, sets_pow)| {
        let assoc = 1 << assoc_pow;
        (1 << gshare_pow, assoc << sets_pow, assoc)
    })
}

/// Applies `ops`, returning every prediction and misprediction verdict.
fn apply(bp: &mut BranchPredictor, ops: &[BranchOp]) -> Vec<(bool, Option<u64>)> {
    ops.iter()
        .map(|&(kind, slot, target)| {
            let (pc, target) = (0x1000 + slot * 4, 0x8000 + target * 64);
            match kind {
                0 | 1 => {
                    let p = bp.predict(pc);
                    (p.taken, p.target)
                }
                2..=4 => {
                    let p = bp.predict(pc);
                    (bp.update(pc, kind < 4, target, p), None)
                }
                _ => {
                    bp.train(pc, true, target);
                    (false, None)
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A branch predictor (gshare plus sparse BTB) restored from its state
    /// into a fresh predictor has the same state (its prediction and
    /// misprediction counts included) and predicts identically on any
    /// continuation.
    #[test]
    fn branch_predictor_state_round_trips_and_replays(
        (gshare, btb_entries, btb_assoc) in geometry(),
        prefix in branch_ops(),
        rest in branch_ops(),
    ) {
        let mut bp = BranchPredictor::new(gshare, btb_entries, btb_assoc);
        apply(&mut bp, &prefix);
        let state = capture(&mut bp);
        prop_assert!(check(&mut bp, &state).is_ok());
        let mut restored = BranchPredictor::new(gshare, btb_entries, btb_assoc);
        restore(&mut restored, &state).unwrap();
        prop_assert_eq!(capture(&mut restored), state);
        let want = apply(&mut bp, &rest);
        prop_assert_eq!(apply(&mut restored, &rest), want);
        prop_assert_eq!(capture(&mut restored), capture(&mut bp));
        prop_assert_eq!(restored.predictions(), bp.predictions());
    }

    /// The same for a bare BTB, through inserts and lookups only; a BTB of
    /// another size rejects the state and keeps its own.
    #[test]
    fn btb_state_round_trips_and_replays(
        (_, entries, assoc) in geometry(),
        prefix in branch_ops(),
        rest in branch_ops(),
    ) {
        let apply = |btb: &mut BranchTargetBuffer, ops: &[BranchOp]| -> Vec<Option<u64>> {
            ops.iter()
                .map(|&(kind, slot, target)| {
                    let pc = 0x1000 + slot * 4;
                    if kind < 3 {
                        return btb.lookup(pc);
                    }
                    btb.insert(pc, 0x8000 + target * 64);
                    None
                })
                .collect()
        };
        let mut btb = BranchTargetBuffer::new(entries, assoc);
        apply(&mut btb, &prefix);
        let state = capture(&mut btb);
        prop_assert!(check(&mut btb, &state).is_ok());
        let mut restored = BranchTargetBuffer::new(entries, assoc);
        restore(&mut restored, &state).unwrap();
        prop_assert_eq!(capture(&mut restored), state.clone());
        let mut other = BranchTargetBuffer::new(entries * 2, assoc);
        let before = capture(&mut other);
        prop_assert!(restore(&mut other, &state).is_err());
        prop_assert_eq!(capture(&mut other), before);
        let want = apply(&mut btb, &rest);
        prop_assert_eq!(apply(&mut restored, &rest), want);
        prop_assert_eq!(capture(&mut restored), capture(&mut btb));
    }
}
