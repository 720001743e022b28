//! The checkpoint format is pinned by a schema-3 file saved with
//! `smt-cli checkpoint save mcf,gcc --scale tiny`: it loads, re-saves to the
//! same bytes, and a fresh simulator it is restored into captures the same
//! bytes again.

use smt_core::runner::{build_trace, RunScale};
use smt_core::{SimCheckpoint, SmtSimulator};
use smt_types::SmtConfig;

const SAVED: &str = include_str!("golden/checkpoint_v3_mcf_gcc_tiny.json");

/// `checkpoint save`'s output for `checkpoint`: compact JSON and a newline.
fn saved(checkpoint: &SimCheckpoint) -> String {
    serde_json::to_string(checkpoint).expect("serializes") + "\n"
}

#[test]
fn schema_three_checkpoint_resaves_byte_identically() {
    let checkpoint = SimCheckpoint::from_json(SAVED).expect("a schema-3 checkpoint loads");
    assert!(saved(&checkpoint) == SAVED, "re-saved bytes differ");

    let scale = RunScale {
        seed: checkpoint.meta.seed,
        ..RunScale::tiny()
    };
    let traces = checkpoint
        .meta
        .benchmarks
        .iter()
        .map(|b| build_trace(b, scale).expect("known benchmark"))
        .collect();
    let mut sim = SmtSimulator::new(SmtConfig::baseline(2), traces).expect("valid");
    sim.restore_checkpoint(&checkpoint).expect("restores");
    let recaptured = sim
        .checkpoint(checkpoint.meta.seed)
        .expect("checkpointable");
    assert!(saved(&recaptured) == SAVED, "recaptured bytes differ");
}
