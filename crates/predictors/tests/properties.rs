//! Property-based tests for the predictor data structures.

use proptest::prelude::*;

use smt_predictors::{
    BinaryMlpPredictor, Llsr, LongLatencyPredictor, MissPatternPredictor, MlpDistancePredictor,
};
use smt_types::warm::{capture, check, restore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LLSR produces exactly one observation per long-latency load once that
    /// load has fallen out of the window, and every reported distance is bounded
    /// by the window length.
    #[test]
    fn llsr_observation_count_and_bounds(
        capacity in 1usize..64,
        commits in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        let mut llsr = Llsr::new(capacity);
        let mut observations = 0usize;
        for (i, &is_lll) in commits.iter().enumerate() {
            if let Some(obs) = llsr.commit(0x40 + 4 * i as u64, is_lll) {
                observations += 1;
                prop_assert!(obs.mlp_distance as usize <= capacity);
            }
        }
        // Only long-latency loads that have exited the window can have produced an
        // observation: the last `capacity` commits are still inside.
        let exited = commits.len().saturating_sub(capacity);
        let expected: usize = commits[..exited].iter().filter(|&&b| b).count();
        prop_assert_eq!(observations, expected);
    }

    /// The MLP distance predictor is a last-value predictor clamped to its maximum
    /// distance.
    #[test]
    fn mlp_distance_predictor_is_clamped_last_value(
        entries in 1u32..512,
        max_distance in 1u32..512,
        updates in prop::collection::vec((any::<u64>(), 0u32..2048), 1..200),
    ) {
        let mut predictor = MlpDistancePredictor::new(entries, max_distance);
        for (pc, distance) in &updates {
            predictor.update(*pc, *distance);
            prop_assert_eq!(predictor.predict(*pc), (*distance).min(max_distance));
        }
    }

    /// The miss pattern predictor perfectly captures strictly periodic miss
    /// behaviour once trained, for any period that fits in its counters.
    #[test]
    fn miss_pattern_predictor_learns_any_period(period in 1usize..50) {
        let mut predictor = MissPatternPredictor::new(2048);
        let total = period * 20;
        let mut wrong_late = 0;
        for i in 0..total {
            let is_miss = i % period == period - 1;
            let predicted = predictor.predict(0x1234);
            if i > period * 3 && predicted != is_miss {
                wrong_late += 1;
            }
            predictor.update(0x1234, is_miss);
        }
        prop_assert_eq!(wrong_late, 0, "period {} not learned", period);
    }

    /// Predictions never panic for arbitrary PCs (indexing is always in bounds).
    #[test]
    fn predictors_accept_arbitrary_pcs(pcs in prop::collection::vec(any::<u64>(), 1..100)) {
        let mut miss = MissPatternPredictor::new(128);
        let mut distance = MlpDistancePredictor::new(128, 64);
        for pc in pcs {
            let _ = miss.predict(pc);
            miss.update(pc, pc % 3 == 0);
            let _ = distance.predict(pc);
            distance.update(pc, (pc % 100) as u32);
        }
    }
}

/// One random predictor operation `(update, pc slot, outcome)`: kinds 0–1
/// predict, 2–3 update. The pcs cover 48 slots, so small tables alias.
type PredictorOp = (u8, u64, u32);

fn predictor_ops() -> impl Strategy<Value = Vec<PredictorOp>> {
    prop::collection::vec((0u8..4, 0u64..48, 0u32..80), 0..300)
}

/// Applies `ops` through `predict` and `update`, returning every prediction.
fn apply_predictor_ops<P>(
    predictor: &mut P,
    ops: &[PredictorOp],
    predict: impl Fn(&mut P, u64) -> u32,
    update: impl Fn(&mut P, u64, u32),
) -> Vec<u32> {
    ops.iter()
        .filter_map(|&(kind, slot, outcome)| {
            let pc = slot * 4;
            if kind < 2 {
                Some(predict(predictor, pc))
            } else {
                update(predictor, pc, outcome);
                None
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A miss-pattern predictor restored from its sparse state into a fresh
    /// predictor has the same state and predicts identically on any
    /// continuation. Outcomes above `miss_above` are long-latency, so
    /// entries see both hit runs and misses, and where misses are rare and
    /// the table small the 6-bit counters saturate.
    #[test]
    fn miss_pattern_state_round_trips_and_replays(
        entries in 1u32..32,
        miss_above in 40u32..80,
        prefix in predictor_ops(),
        rest in predictor_ops(),
    ) {
        let predict = |p: &mut MissPatternPredictor, pc| u32::from(p.predict(pc));
        let update =
            move |p: &mut MissPatternPredictor, pc, outcome| p.update(pc, outcome > miss_above);
        let mut predictor = MissPatternPredictor::new(entries);
        apply_predictor_ops(&mut predictor, &prefix, predict, update);
        let state = capture(&mut predictor);
        prop_assert!(check(&mut predictor, &state).is_ok());
        let mut restored = MissPatternPredictor::new(entries);
        restore(&mut restored, &state).unwrap();
        prop_assert_eq!(capture(&mut restored), state);
        let want = apply_predictor_ops(&mut predictor, &rest, predict, update);
        prop_assert_eq!(apply_predictor_ops(&mut restored, &rest, predict, update), want);
        prop_assert_eq!(capture(&mut restored), capture(&mut predictor));
    }

    /// The same for the MLP-distance predictor, whose distances (0 = no
    /// MLP, the reset value) saturate at the LLSR length.
    #[test]
    fn mlp_distance_state_round_trips_and_replays(
        entries in 1u32..32,
        max_distance in 1u32..64,
        prefix in predictor_ops(),
        rest in predictor_ops(),
    ) {
        let predict = |p: &mut MlpDistancePredictor, pc| p.predict(pc);
        let update = |p: &mut MlpDistancePredictor, pc, outcome| p.update(pc, outcome % 70);
        let mut predictor = MlpDistancePredictor::new(entries, max_distance);
        apply_predictor_ops(&mut predictor, &prefix, predict, update);
        let state = capture(&mut predictor);
        prop_assert!(check(&mut predictor, &state).is_ok());
        let mut restored = MlpDistancePredictor::new(entries, max_distance);
        restore(&mut restored, &state).unwrap();
        prop_assert_eq!(capture(&mut restored), state);
        let want = apply_predictor_ops(&mut predictor, &rest, predict, update);
        prop_assert_eq!(apply_predictor_ops(&mut restored, &rest, predict, update), want);
        prop_assert_eq!(capture(&mut restored), capture(&mut predictor));
        prop_assert_eq!(restored.updates(), predictor.updates());
    }

    /// The same for the binary MLP predictor, whose entries go back to the
    /// reset value (`false`) as well as away from it.
    #[test]
    fn binary_mlp_state_round_trips_and_replays(
        entries in 1u32..32,
        prefix in predictor_ops(),
        rest in predictor_ops(),
    ) {
        let predict = |p: &mut BinaryMlpPredictor, pc| u32::from(p.predict(pc));
        let update = |p: &mut BinaryMlpPredictor, pc, outcome| p.update(pc, outcome % 2 == 1);
        let mut predictor = BinaryMlpPredictor::new(entries);
        apply_predictor_ops(&mut predictor, &prefix, predict, update);
        let state = capture(&mut predictor);
        prop_assert!(check(&mut predictor, &state).is_ok());
        let mut restored = BinaryMlpPredictor::new(entries);
        restore(&mut restored, &state).unwrap();
        prop_assert_eq!(capture(&mut restored), state);
        let want = apply_predictor_ops(&mut predictor, &rest, predict, update);
        prop_assert_eq!(apply_predictor_ops(&mut restored, &rest, predict, update), want);
        prop_assert_eq!(capture(&mut restored), capture(&mut predictor));
    }
}
