//! SMT fetch policies and explicit resource-management schemes.
//!
//! The pipeline in `smt_core` delegates two decisions to a [`FetchPolicy`]:
//!
//! 1. **which threads may fetch this cycle, and in what priority order**
//!    ([`FetchPolicy::fetch_priority`]), and
//! 2. **whether to flush instructions of a thread** in reaction to long-latency
//!    loads or resource stalls ([`FetchPolicy::on_long_latency_detected`],
//!    [`FetchPolicy::on_resource_stall`]).
//!
//! Explicit resource-management schemes (static partitioning, DCRA) additionally
//! impose per-thread occupancy caps through [`FetchPolicy::resource_caps`].
//!
//! Implemented policies (Sections 3, 4.3, 6.5 and 6.6 of the paper), by
//! [`FetchPolicyKind`]:
//!
//! | kind | implementation | description |
//! |------|----------------|-------------|
//! | `Icount` | [`IcountPolicy`] | ICOUNT 2.4 baseline |
//! | `Stall` | long-latency | fetch stall on a detected long-latency load |
//! | `PredictiveStall` | long-latency | fetch stall on a predicted long-latency load |
//! | `Flush` | long-latency | flush past a detected long-latency load |
//! | `MlpStall` | long-latency | MLP-aware stall fetch (this paper) |
//! | `MlpFlush` | long-latency | MLP-aware flush (this paper, headline policy) |
//! | `MlpBinaryFlush` | long-latency | alternative (c): binary MLP predictor + flush |
//! | `MlpDistanceFlushAtStall` | long-latency | alternative (d): MLP distance + flush at resource stall |
//! | `MlpBinaryFlushAtStall` | long-latency | alternative (e): binary MLP + flush at resource stall |
//! | `StaticPartition` | [`StaticPartitionPolicy`] | equal static partitioning of buffer resources |
//! | `Dcra` | [`DcraPolicy`] | dynamically controlled resource allocation |
//!
//! The eight long-latency kinds are one crate-private state machine (`lll`).
//!
//! All long-latency-aware policies implement the continue-oldest-thread (COT) rule
//! of Cazorla et al.: when every thread is stalled on a long-latency load,
//! the thread whose load is oldest keeps fetching.
//!
//! # Example
//!
//! ```
//! use smt_fetch::build_policy;
//! use smt_types::config::{FetchPolicyKind, SmtConfig};
//! use smt_types::SmtSnapshot;
//!
//! let cfg = SmtConfig::baseline(2).with_policy(FetchPolicyKind::MlpFlush);
//! let mut policy = build_policy(cfg.fetch_policy, &cfg);
//! let snapshot = SmtSnapshot::new(2);
//! // The pipeline reuses one priority buffer across cycles; `_vec` variants
//! // allocate for convenience.
//! let mut order = Vec::new();
//! policy.fetch_priority(&snapshot, &mut order);
//! assert_eq!(order.len(), 2);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod icount;
mod lll;
pub mod partition;
pub mod policy;

pub use icount::IcountPolicy;
pub use partition::{DcraPolicy, StaticPartitionPolicy};
pub use policy::{FetchPolicy, FlushRequest, ResourceCaps};

// Unit tests of the long-latency kinds, one module per policy family.
#[cfg(test)]
#[path = "lll_tests/alternatives.rs"]
mod alternatives;
#[cfg(test)]
#[path = "lll_tests/flush.rs"]
mod flush;
#[cfg(test)]
#[path = "lll_tests/mlp.rs"]
mod mlp;
#[cfg(test)]
#[path = "lll_tests/stall.rs"]
mod stall;

use smt_types::config::{FetchPolicyKind, SmtConfig};

/// Builds the fetch policy implementation for a [`FetchPolicyKind`].
pub fn build_policy(kind: FetchPolicyKind, config: &SmtConfig) -> Box<dyn FetchPolicy> {
    use FetchPolicyKind as K;
    let n = config.num_threads;
    match kind {
        K::Icount => Box::new(IcountPolicy::new(n)),
        K::Stall
        | K::PredictiveStall
        | K::Flush
        | K::MlpStall
        | K::MlpFlush
        | K::MlpBinaryFlush
        | K::MlpDistanceFlushAtStall
        | K::MlpBinaryFlushAtStall => Box::new(lll::LongLatencyPolicy::new(kind, n)),
        K::StaticPartition => Box::new(StaticPartitionPolicy::new(n)),
        K::Dcra => Box::new(DcraPolicy::new(n)),
    }
}

#[cfg(test)]
mod testing {
    //! Allocating wrappers around the buffer-based [`FetchPolicy`] queries, for
    //! unit tests. The pipeline reuses scratch buffers instead. The
    //! long-latency kinds' tests also take their imports from here.

    use smt_types::config::SmtConfig;

    pub(crate) use crate::lll::LongLatencyPolicy;
    pub(crate) use crate::policy::{FetchPolicy, FlushRequest, ResourceCaps};
    pub(crate) use smt_types::config::FetchPolicyKind as K;
    pub(crate) use smt_types::{SeqNum, SmtSnapshot, ThreadId};

    /// [`FetchPolicy::fetch_priority`] into a fresh vector.
    pub(crate) fn fetch_priority_vec<P: FetchPolicy + ?Sized>(
        policy: &mut P,
        snapshot: &SmtSnapshot,
    ) -> Vec<ThreadId> {
        let mut priority = Vec::new();
        policy.fetch_priority(snapshot, &mut priority);
        priority
    }

    /// [`FetchPolicy::on_resource_stall`] into a fresh vector.
    pub(crate) fn on_resource_stall_vec<P: FetchPolicy + ?Sized>(
        policy: &mut P,
        snapshot: &SmtSnapshot,
    ) -> Vec<FlushRequest> {
        let mut flushes = Vec::new();
        policy.on_resource_stall(snapshot, &mut flushes);
        flushes
    }

    /// [`FetchPolicy::resource_caps`] into a fresh vector; `None` when the
    /// policy imposes no caps.
    pub(crate) fn resource_caps_vec<P: FetchPolicy + ?Sized>(
        policy: &mut P,
        snapshot: &SmtSnapshot,
        config: &SmtConfig,
    ) -> Option<Vec<ResourceCaps>> {
        let mut caps = vec![ResourceCaps::default(); snapshot.num_threads()];
        policy
            .resource_caps(snapshot, config, &mut caps)
            .then_some(caps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_types::SmtSnapshot;

    #[test]
    fn factory_builds_every_policy() {
        let cfg = SmtConfig::baseline(2);
        let snap = SmtSnapshot::new(2);
        let mut order = Vec::new();
        for kind in FetchPolicyKind::ALL {
            let mut p = build_policy(kind, &cfg);
            assert_eq!(p.kind(), kind);
            // Every policy lets both idle threads fetch in some order, and
            // correctly clears the reused scratch buffer between calls.
            p.fetch_priority(&snap, &mut order);
            assert_eq!(order.len(), 2);
        }
    }
}
