//! Counting-allocator proof of the hot-path zero-allocation invariant.
//!
//! The static analyzer (`smt-analyze`, rule `hot-path-alloc`) keeps
//! allocating constructs out of the per-cycle pipeline code lexically; this
//! test closes the loop dynamically: once a simulator is warmed past its
//! high-water marks, stepping it must perform **zero** heap allocations,
//! for both the single-core [`SmtSimulator`] and the chip-level
//! [`ChipSimulator`], across the baseline and the paper's headline policy.
//! The skipping chip run loop is covered too: [`ChipSimulator::run`] must
//! allocate the same amount however long it runs.
//!
//! Everything runs inside one `#[test]` function: the process-global
//! allocation counter would otherwise be polluted by concurrently running
//! tests.

#![cfg(not(miri))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use smt_core::chip::ChipSimulator;
use smt_core::pipeline::{SimOptions, SmtSimulator};
use smt_trace::{ScriptedTrace, TraceSource};
use smt_types::config::FetchPolicyKind;
use smt_types::{ChipConfig, SmtConfig, TraceOp};

/// A pass-through allocator that counts allocation events (`alloc`,
/// `realloc`); frees are not counted — the invariant under test is "no new
/// memory is requested in the steady state".
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A looping trace whose loads touch a fresh cache line every iteration, so
/// misses, MSHR traffic, bus contention and stream-buffer reallocation stay
/// active throughout the measurement window. Every [`Self::JUMP_PERIOD`]
/// loads the stream jumps to a distant region: a perfectly regular stride
/// would converge to full stream-buffer coverage and stop exercising
/// prefetcher allocation; the jumps keep buffer (re)allocation live.
struct FreshMissTrace {
    inner: smt_trace::scripted::LoopingTrace,
    next_line: u64,
}

impl FreshMissTrace {
    fn new() -> Self {
        let mut ops = Vec::new();
        for m in 0..4u64 {
            ops.push(TraceOp::load(0x9000 + 8 * m, 0));
        }
        for i in 0..24u64 {
            ops.push(TraceOp::int_alu(0x100 + 4 * i));
        }
        FreshMissTrace {
            inner: ScriptedTrace::looping("fresh-miss", ops),
            next_line: 0,
        }
    }
}

impl FreshMissTrace {
    const JUMP_PERIOD: u64 = 48;
}

impl TraceSource for FreshMissTrace {
    fn next_op(&mut self) -> TraceOp {
        let mut op = self.inner.next_op();
        if let Some(mem) = op.mem.as_mut() {
            self.next_line += 1;
            if self.next_line.is_multiple_of(Self::JUMP_PERIOD) {
                self.next_line += 4096;
            }
            mem.addr = 0x4000_0000 + self.next_line * 64;
        }
        op
    }

    fn name(&self) -> &str {
        "fresh-miss"
    }
}

fn alu_trace() -> Box<dyn TraceSource> {
    Box::new(ScriptedTrace::looping(
        "cpu-bound",
        (0..64).map(|i| TraceOp::int_alu(0x2000 + 4 * i)).collect(),
    ))
}

fn mixed_pair() -> Vec<Box<dyn TraceSource>> {
    vec![Box::new(FreshMissTrace::new()), alu_trace()]
}

const WARMUP_CYCLES: u64 = 30_000;
const MEASURED_CYCLES: u64 = 10_000;

fn assert_zero_alloc_steady_state(label: &str, mut step: impl FnMut()) {
    for _ in 0..WARMUP_CYCLES {
        step();
    }
    let before = allocation_count();
    for _ in 0..MEASURED_CYCLES {
        step();
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "{label}: {delta} heap allocation(s) during {MEASURED_CYCLES} steady-state cycles \
         (warmed {WARMUP_CYCLES} cycles)"
    );
}

/// Heap allocations one [`ChipSimulator::run`] of `instructions` per
/// thread makes on a chip warmed by [`WARMUP_CYCLES`] steps.
fn chip_run_allocations(policy: FetchPolicyKind, instructions: u64) -> u64 {
    let chip_config = ChipConfig::baseline(2, 2).with_policy(policy);
    let mut chip =
        ChipSimulator::new(chip_config, vec![mixed_pair(), mixed_pair()]).expect("chip builds");
    for _ in 0..WARMUP_CYCLES {
        chip.step();
    }
    let options = SimOptions {
        max_instructions_per_thread: instructions,
        warmup_instructions_per_thread: 1_000,
        max_cycles: u64::MAX,
    };
    let before = allocation_count();
    let stats = chip.run(options);
    let delta = allocation_count() - before;
    assert!(
        stats.total_committed() >= instructions,
        "the run reached its budget"
    );
    delta
}

#[test]
fn steady_state_cycle_loop_performs_no_heap_allocations() {
    // Recorded once up front (recording may allocate; it is not under test):
    // a short `.smtt` the replay case below streams cyclically, so the
    // measured window also covers the reader's wrap-and-reseek path.
    let replay_path =
        std::env::temp_dir().join(format!("smt-alloc-replay-{}.smtt", std::process::id()));
    let mut recorder = smt_core::runner::build_trace("mcf", smt_core::runner::RunScale::tiny())
        .expect("source builds");
    smt_trace::record_source(recorder.as_mut(), 8192, &replay_path, true)
        .expect("recording succeeds");

    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        let config = SmtConfig::baseline(2).with_policy(policy);
        let mut sim = SmtSimulator::new(config, mixed_pair()).expect("machine builds");
        assert_zero_alloc_steady_state(&format!("SmtSimulator/{policy:?}"), || sim.step());

        // Trace-driven replay: after construction, streaming a recorded
        // `.smtt` through the pipeline — decode, refill batches, cyclic wrap
        // — must be as allocation-free as the synthetic generator.
        let config = SmtConfig::baseline(2).with_policy(policy);
        let replay: Vec<Box<dyn TraceSource>> = vec![
            Box::new(smt_trace::FileTraceSource::open(&replay_path).expect("trace opens")),
            alu_trace(),
        ];
        let mut sim = SmtSimulator::new(config, replay).expect("machine builds");
        assert_zero_alloc_steady_state(&format!("SmtSimulator/replay/{policy:?}"), || sim.step());

        let chip_config = ChipConfig::baseline(2, 2).with_policy(policy);
        let mut chip =
            ChipSimulator::new(chip_config, vec![mixed_pair(), mixed_pair()]).expect("chip builds");
        assert_zero_alloc_steady_state(&format!("ChipSimulator/{policy:?}"), || chip.step());

        // The skipping run loop allocates only per run (stop-rule
        // baselines, the returned statistics), never per cycle or per
        // wake-up: a run four times as long allocates exactly as much.
        let short = chip_run_allocations(policy, 5_000);
        let long = chip_run_allocations(policy, 20_000);
        assert_eq!(
            short, long,
            "ChipSimulator::run/{policy:?}: {short} allocation(s) at 5K instructions per thread, \
             {long} at 20K"
        );
    }
    std::fs::remove_file(&replay_path).ok();
}
