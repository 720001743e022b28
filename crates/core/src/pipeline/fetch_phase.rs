//! Fetch phase: ask the fetch policy for this cycle's thread priority,
//! account gated cycles, and pull instructions (re-armed re-fetches first,
//! then fresh trace ops) into the front end, predicting branches exactly once
//! per dynamic branch. Occupancy, statistics and the policy's `on_fetch` are
//! accounted once per thread per fetch group.

use smt_types::{OpFlags, OpKind, SeqNum, SmtSnapshot};

use super::Core;

impl Core {
    pub(super) fn fetch_phase(&mut self, snapshot: &SmtSnapshot) {
        if self.fetch_frozen {
            // The sampled loop is draining in-flight work before a
            // fast-forward phase: nothing enters the pipeline.
            self.gated_mask = 0;
            return;
        }
        let cycle = self.cycle;
        let mut priority = std::mem::take(&mut self.priority);
        self.policy.fetch_priority(snapshot, &mut priority);
        // Account gated cycles for the threads the policy excluded: every
        // thread outside the "selected" bitmask (MAX_THREADS <= 64).
        let mut selected: u64 = 0;
        for t in &priority {
            selected |= 1 << t.index();
        }
        let all_threads = (1u64 << self.threads.len()) - 1;
        self.gated_mask = all_threads & !selected;
        self.account_gated(1);
        let mut budget = self.config.fetch_width;
        let mut threads_used = 0;
        let frontend_ready_at = cycle + self.config.frontend_depth as u64;
        for &t in &priority {
            if budget == 0 || threads_used >= self.config.fetch_threads_per_cycle {
                break;
            }
            let ctx = &mut self.threads[t.index()];
            let room = budget.min(self.frontend_capacity - ctx.occ.frontend);
            let mut fetched = 0;
            while fetched < room {
                let seq = ctx.next_seq;
                ctx.next_seq += 1;
                fetched += 1;
                let flags = if ctx.window.refetch_pending() > 0 {
                    // Re-fetch of a squashed instruction: its slot is re-armed
                    // in place with the original prediction outcome; the
                    // predictor was already trained.
                    ctx.window.rearm(seq, frontend_ready_at)
                } else {
                    let op = ctx.pull_op();
                    let mut flags = OpFlags::default();
                    if let (OpKind::Branch, Some(info)) = (op.kind, op.branch) {
                        // First fetch of this dynamic branch: predict and
                        // train at the same global-history point, exactly
                        // once per dynamic branch.
                        let pred = ctx.branch_predictor.predict(op.pc);
                        flags.set_mispredicted(ctx.branch_predictor.update(
                            op.pc,
                            info.taken,
                            info.target,
                            pred,
                        ));
                        flags.set_predicted_taken(pred.taken);
                    }
                    ctx.window.push_back(seq, op, frontend_ready_at, flags);
                    flags
                };
                if flags.predicted_taken() {
                    // The fetch group ends at a predicted-taken branch.
                    break;
                }
            }
            if fetched == 0 {
                continue;
            }
            // One fetch group: account it once, with its youngest seq.
            ctx.occ.frontend += fetched;
            ctx.latest_fetched_seq = ctx.next_seq - 1;
            self.stats.thread_mut(t).fetched_instructions += u64::from(fetched);
            self.policy.on_fetch(t, SeqNum(ctx.latest_fetched_seq));
            budget -= fetched;
            threads_used += 1;
            self.busy = true;
        }
        self.priority = priority;
    }
}
