//! The paper's prediction structures.
//!
//! Three families of predictors are implemented, all per thread and all indexed by
//! the load program counter:
//!
//! * **Long-latency load predictors** (Section 4.1): decide in the front end
//!   whether a load is going to miss beyond the L3 / D-TLB. The paper's choice is
//!   the *miss pattern predictor* of Limousin et al. ([`MissPatternPredictor`]);
//!   a plain last-value predictor ([`LastValuePredictor`]) and the 2-bit
//!   saturating-counter predictor of El-Moursy & Albonesi ([`TwoBitMissPredictor`])
//!   are provided for the comparison the authors describe.
//! * **The long-latency shift register** (Section 4.2, [`Llsr`]): observes the
//!   commit stream and, whenever a long-latency load leaves the window, computes
//!   the *MLP distance* — how far down the dynamic instruction stream the last
//!   overlapping long-latency load was.
//! * **MLP predictors** (Section 4.2 / 6.5): the [`MlpDistancePredictor`] is a
//!   last-value predictor of the MLP distance; the [`BinaryMlpPredictor`] only
//!   remembers whether any MLP was observed (alternative (c)/(e) of Section 6.5).
//!
//! # Example
//!
//! ```
//! use smt_predictors::{Llsr, MlpDistancePredictor};
//!
//! let mut llsr = Llsr::new(8);
//! let mut predictor = MlpDistancePredictor::new(2048, 8);
//! // Commit a long-latency load at PC 0x40, then another 3 instructions later.
//! llsr.commit(0x40, true);
//! llsr.commit(0x44, false);
//! llsr.commit(0x48, false);
//! llsr.commit(0x4c, true);
//! // Fill the window so the first long-latency load falls out of the LLSR.
//! for i in 0..8u64 {
//!     if let Some(obs) = llsr.commit(0x100 + 4 * i, false) {
//!         predictor.update(obs.pc, obs.mlp_distance);
//!     }
//! }
//! assert_eq!(predictor.predict(0x40), 3);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod lll;
pub mod llsr;
pub mod mlp;

pub use lll::{
    LastValuePredictor, LongLatencyPredictor, MissPatternEntry, MissPatternPredictor,
    TwoBitMissPredictor,
};
pub use llsr::{Llsr, MlpObservation};
pub use mlp::{BinaryMlpPredictor, MlpDistancePredictor};
