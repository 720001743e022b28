//! The ICOUNT 2.4 baseline fetch policy (Tullsen et al. 1996).

use smt_types::config::FetchPolicyKind;
use smt_types::{SmtSnapshot, ThreadId};

use crate::policy::{icount_order, FetchPolicy};

/// ICOUNT: fetch from the thread(s) with the fewest instructions in the front-end
/// pipeline and issue queues. Never gates a thread.
///
/// # Example
///
/// ```
/// use smt_fetch::{FetchPolicy, IcountPolicy};
/// use smt_types::SmtSnapshot;
///
/// let mut p = IcountPolicy::new(2);
/// let mut snap = SmtSnapshot::new(2);
/// snap.threads[0].icount = 30;
/// snap.threads[1].icount = 5;
/// let mut order = Vec::new();
/// p.fetch_priority(&snap, &mut order);
/// assert_eq!(order[0].index(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct IcountPolicy {
    num_threads: usize,
}

impl IcountPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        IcountPolicy { num_threads }
    }
}

impl FetchPolicy for IcountPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::Icount
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        debug_assert_eq!(snapshot.num_threads(), self.num_threads);
        icount_order(snapshot, priority);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::fetch_priority_vec;

    #[test]
    fn never_gates() {
        let mut p = IcountPolicy::new(4);
        let mut snap = SmtSnapshot::new(4);
        for t in &mut snap.threads {
            t.outstanding_long_latency_loads = 3;
        }
        assert_eq!(fetch_priority_vec(&mut p, &snap).len(), 4);
        assert_eq!(p.kind(), FetchPolicyKind::Icount);
        assert_eq!(p.name(), "icount");
    }
}
