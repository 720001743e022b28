//! Issue phase: walk each thread's ready set oldest first, perform memory
//! accesses, schedule completion events, and hand long-latency-load
//! detections to the fetch policy. A thread with an empty ready set costs
//! one counter test.

use smt_mem::{AccessLevel, SharedLlc};
use smt_predictors::LongLatencyPredictor;
use smt_types::{OpKind, SeqNum, ThreadId};

use super::writeback_phase::CompletionEvent;
use super::Core;

impl Core {
    pub(super) fn issue_phase(&mut self, shared: &mut SharedLlc) {
        let cycle = self.cycle;
        let mut remaining = self.config.issue_width;
        let mut int_units = self.config.int_alus;
        let mut ldst_units = self.config.ldst_units;
        let mut fp_units = self.config.fp_units;
        let num_threads = self.threads.len();
        let mut flushes = std::mem::take(&mut self.flushes);
        flushes.clear();

        for offset in 0..num_threads {
            if remaining == 0 {
                break;
            }
            let ti = (self.rotate + offset) % num_threads;
            if !self.threads[ti].window.has_ready() {
                continue;
            }
            let thread_id = ThreadId::new(ti);
            // Readiness is stable for the whole phase (operands only arrive
            // at writeback), so the ready set, oldest first, is the
            // candidate list.
            let mut candidates = std::mem::take(&mut self.issue_candidates);
            candidates.clear();
            self.threads[ti].window.collect_ready(&mut candidates);
            let mut candidate_pos = 0;
            while remaining > 0 && candidate_pos < candidates.len() {
                let idx = candidates[candidate_pos] as usize;
                candidate_pos += 1;
                let (seq, op, predicted_lll) = {
                    let window = &self.threads[ti].window;
                    let flags = window.flags_at(idx);
                    (window.seq_at(idx), window.op_at(idx), flags.predicted_lll())
                };
                // Functional-unit availability.
                let unit = match op.kind {
                    OpKind::Load | OpKind::Store => &mut ldst_units,
                    k if k.is_fp() => &mut fp_units,
                    _ => &mut int_units,
                };
                if *unit == 0 {
                    continue;
                }
                *unit -= 1;
                remaining -= 1;
                self.busy = true;

                let mut done_at = cycle + op.kind.exec_latency();
                let mut detected_lll = false;
                let mut l1_missed = false;
                let mut detection_distance = 0;
                let mut detection_has_mlp = false;

                if op.kind == OpKind::Load {
                    let addr = op.addr().unwrap_or(0);
                    let access = self.mem.load_access(shared, thread_id, op.pc, addr, cycle);
                    done_at = access.completion_cycle().max(cycle + 1);
                    l1_missed = access.l1_miss;
                    let tstats = self.stats.thread_mut(thread_id);
                    if access.l1_miss {
                        tstats.l1d_load_misses += 1;
                    }
                    if access.l2_miss {
                        tstats.l2_load_misses += 1;
                    }
                    if access.level == AccessLevel::Memory {
                        tstats.l3_load_misses += 1;
                    }
                    if access.dtlb_miss {
                        tstats.dtlb_misses += 1;
                    }
                    if access.prefetch_hit {
                        tstats.prefetch_hits += 1;
                    }
                    // Score and train the long-latency load predictor (Figure 6).
                    tstats.lll_pred_total += 1;
                    if predicted_lll == access.long_latency {
                        tstats.lll_pred_correct += 1;
                    }
                    if access.long_latency {
                        tstats.lll_pred_miss_total += 1;
                        if predicted_lll {
                            tstats.lll_pred_miss_correct += 1;
                        }
                        tstats.long_latency_loads += 1;
                        detected_lll = true;
                    }
                    let ctx = &mut self.threads[ti];
                    ctx.lll_predictor.update(op.pc, access.long_latency);
                    if access.long_latency {
                        detection_distance = ctx.mlp_predictor.predict(op.pc);
                        detection_has_mlp = ctx.binary_mlp_predictor.predict(op.pc);
                        ctx.outstanding_lll.insert(seq, cycle);
                        self.stats
                            .thread_mut(thread_id)
                            .record_mlp_distance(detection_distance);
                    }
                    if access.l1_miss {
                        ctx.outstanding_l1d += 1;
                    }
                } else if op.kind == OpKind::Store {
                    done_at = cycle + 1;
                }

                {
                    let ctx = &mut self.threads[ti];
                    ctx.window.mark_issued(idx);
                    let flags = ctx.window.flags_mut(idx);
                    flags.set_l1_missed(l1_missed);
                    if detected_lll {
                        flags.set_is_long_latency(true);
                        flags.set_predicted_has_mlp(detection_has_mlp);
                    }
                    let flags = *flags;
                    ctx.window.set_done_at(idx, done_at);
                    if detected_lll {
                        ctx.window
                            .set_predicted_mlp_distance(idx, detection_distance);
                    }
                    self.totals.release_iq(&mut ctx.occ, flags);
                    self.completions.push(
                        CompletionEvent {
                            done_at,
                            thread: ti as u32,
                            seq,
                            slot: ctx.window.slot_id(idx),
                        },
                        cycle,
                    );
                }

                if op.kind == OpKind::Load {
                    let latest = SeqNum(self.threads[ti].latest_fetched_seq);
                    if detected_lll {
                        if let Some(req) = self.policy.on_long_latency_detected(
                            thread_id,
                            op.pc,
                            SeqNum(seq),
                            latest,
                            detection_distance,
                            detection_has_mlp,
                        ) {
                            flushes.push(req);
                        }
                    } else {
                        self.policy
                            .on_load_executed_hit(thread_id, op.pc, SeqNum(seq));
                    }
                }
            }
            self.issue_candidates = candidates;
        }

        for req in flushes.drain(..) {
            self.apply_flush(req);
        }
        self.flushes = flushes;
    }
}
