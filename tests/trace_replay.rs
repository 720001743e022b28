//! Trace-driven replay regression tests: the on-disk `.smtt` pipeline must be
//! an *invisible* substitution for the live synthetic generators.
//!
//! Three properties are pinned here:
//!
//! 1. **Record/replay parity** — recording a benchmark's op stream and
//!    replaying it through [`smt_trace::FileTraceSource`] yields bit-for-bit
//!    identical statistics to running the live generator at the same seed, on
//!    the SMT core, on the chip, and in sampled mode.
//! 2. **Golden replay stats** — the checked-in fixture
//!    (`tests/golden/trace_2t_replay.smtt`, referenced by the
//!    `trace_2t_replay` registry entry) replays to pinned [`MachineStats`]
//!    (`tests/golden/trace_replay_stats.json`). Regenerate deliberately with
//!    `SMT_GOLDEN_REGEN=1 cargo test --test trace_replay`.
//! 3. **Batch-contract discipline** — the engine pulls ops exclusively
//!    through [`smt_trace::TraceSource::refill`]; the one-op-at-a-time
//!    fallback must never fire for engine-facing sources.

use serde::{Deserialize, Serialize};
use smt_core::chip::ChipSimulator;
use smt_core::experiments::ExperimentRegistry;
use smt_core::runner::{self, build_trace, CheckpointCache, RunScale, StReferenceCache};
use smt_core::workloads::{benchmark_is_mlp_intensive, Workload, WorkloadGroup};
use smt_core::SmtSimulator;
use smt_trace::{record_source, FileTraceSource, TraceSource, TraceSourceState};
use smt_types::config::FetchPolicyKind;
use smt_types::{ChipConfig, MachineStats, SamplingConfig, SmtConfig, TraceOp};

/// The registry-referenced golden fixture, relative to the repo root (the CWD
/// of root integration tests and of CI invocations).
const FIXTURE_WORKLOAD: &str = "trace:tests/golden/trace_2t_replay.smtt";

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace_2t_replay.smtt")
}

fn temp_trace(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smt-replay-{tag}-{}.smtt", std::process::id()));
    p
}

/// Records `benchmark`'s live stream into a temp `.smtt` with enough ops that
/// the replay run never wraps the file, so the replayed stream is the live
/// stream verbatim. The margin is sized for sampled runs, which cover the
/// whole sampled horizon — checkpoint warm-up plus `min_windows` full
/// sampling units (skip + fast-forward + warm + measure each), far more than
/// the detailed instruction budget — and doubled for window overshoot and
/// in-flight wrong-path fetches.
fn record_temp(benchmark: &str, tag: &str, scale: RunScale) -> std::path::PathBuf {
    let path = temp_trace(tag);
    let sampling = SamplingConfig::default();
    let unit = sampling.unit_instructions();
    let units = scale
        .instructions_per_thread
        .div_ceil(unit)
        .max(u64::from(sampling.min_windows));
    let ops = 2 * (scale.warmup_instructions + units * unit);
    let mut source = build_trace(benchmark, scale).expect("live source builds");
    record_source(source.as_mut(), ops, &path, true).expect("recording succeeds");
    path
}

fn run_pair(benchmarks: &[&str], policy: FetchPolicyKind, scale: RunScale) -> MachineStats {
    let config = SmtConfig::baseline(benchmarks.len());
    runner::run_multiprogram(benchmarks, policy, &config, scale).expect("run succeeds")
}

#[test]
fn replaying_a_recorded_trace_matches_the_live_generator_bit_for_bit() {
    let scale = RunScale::tiny();
    let path = record_temp("mcf", "smt-parity", scale);
    let trace_name = format!("trace:{}", path.display());
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        let live = run_pair(&["mcf", "gcc"], policy, scale);
        let replayed = run_pair(&[trace_name.as_str(), "gcc"], policy, scale);
        assert_eq!(
            live,
            replayed,
            "{}: trace replay diverged from the live generator",
            policy.name()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn chip_replay_matches_live_generator_bit_for_bit() {
    let scale = RunScale::tiny();
    let path = record_temp("mcf", "chip-parity", scale);
    let trace_name = format!("trace:{}", path.display());
    let live_cores: Vec<Vec<&str>> = vec![vec!["mcf", "gcc"], vec!["swim", "twolf"]];
    let replay_cores: Vec<Vec<&str>> =
        vec![vec![trace_name.as_str(), "gcc"], vec!["swim", "twolf"]];
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        let mut stats = Vec::new();
        for cores in [&live_cores, &replay_cores] {
            let traces: Vec<Vec<Box<dyn TraceSource>>> = cores
                .iter()
                .map(|core| {
                    core.iter()
                        .map(|b| build_trace(b, scale).expect("source builds"))
                        .collect()
                })
                .collect();
            let config = ChipConfig::baseline(2, 2).with_policy(policy);
            let mut sim = ChipSimulator::new(config, traces).expect("chip builds");
            stats.push(sim.run(scale.sim_options()));
        }
        assert_eq!(
            stats[0],
            stats[1],
            "{}: chip trace replay diverged from the live generator",
            policy.name()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sampled_replay_matches_live_generator() {
    let scale = RunScale::tiny();
    let path = record_temp("mcf", "sampled-parity", scale);
    let trace_name = format!("trace:{}", path.display());
    let mut results = Vec::new();
    for benchmarks in [["mcf", "gcc"], [trace_name.as_str(), "gcc"]] {
        let workload = Workload::new(benchmarks.to_vec()).expect("workload resolves");
        let cell = runner::CellSpec {
            sampling: Some(SamplingConfig::default()),
            ..runner::CellSpec::baseline(&workload, FetchPolicyKind::MlpFlush, scale)
        };
        results.push(
            runner::evaluate_cell(&cell, &StReferenceCache::new(), &CheckpointCache::new())
                .expect("sampled run succeeds"),
        );
    }
    // The workload label embeds the source names (`mcf-gcc` vs
    // `trace:...-gcc`); every measured quantity must agree exactly.
    let mut replayed = results.pop().unwrap();
    let live = results.pop().unwrap();
    assert!(replayed.sampled.is_some());
    replayed.workload = live.workload.clone();
    replayed.benchmarks = live.benchmarks.clone();
    assert_eq!(live, replayed, "sampled trace replay diverged");
    std::fs::remove_file(&path).ok();
}

/// One pinned replay outcome of the checked-in fixture.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct GoldenReplayCase {
    policy: FetchPolicyKind,
    stats: MachineStats,
}

fn golden_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace_replay_stats.json")
}

fn run_golden_cases() -> Vec<GoldenReplayCase> {
    [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush]
        .into_iter()
        .map(|policy| GoldenReplayCase {
            policy,
            stats: run_pair(
                &[FIXTURE_WORKLOAD, FIXTURE_WORKLOAD],
                policy,
                RunScale::tiny(),
            ),
        })
        .collect()
}

#[test]
fn trace_replay_stats_match_golden_fixture_bit_for_bit() {
    let cases = run_golden_cases();
    let path = golden_json_path();
    if std::env::var("SMT_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&cases).expect("fixture serializes");
        smt_core::artifacts::write_atomic(&path, json + "\n").expect("fixture written");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with SMT_GOLDEN_REGEN=1",
            path.display()
        )
    });
    let golden: Vec<GoldenReplayCase> = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(golden, cases, "trace replay diverged from pinned stats");
}

#[test]
fn short_trace_wraps_deterministically() {
    // A 512-op file under a tiny-scale budget wraps the trace many times; the
    // wrap must be seamless and the whole run bit-for-bit reproducible.
    let scale = RunScale::tiny();
    let path = temp_trace("wrap");
    let mut source = build_trace("mcf", scale).expect("live source builds");
    record_source(source.as_mut(), 512, &path, true).expect("recording succeeds");
    let trace_name = format!("trace:{}", path.display());
    let a = run_pair(
        &[trace_name.as_str(), "gcc"],
        FetchPolicyKind::MlpFlush,
        scale,
    );
    let b = run_pair(
        &[trace_name.as_str(), "gcc"],
        FetchPolicyKind::MlpFlush,
        scale,
    );
    assert_eq!(a, b, "wrapping replay is not deterministic");
    assert!(
        a.threads[0].committed_instructions > 512,
        "budget must exceed the file length for this test to exercise the wrap"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_replay_registry_entry_is_wired() {
    let registry = ExperimentRegistry::builtin();
    let spec = registry
        .get("trace_2t_replay")
        .expect("trace_2t_replay is registered");
    spec.validate().expect("entry validates");
    assert_eq!(
        spec.policies,
        vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush]
    );
    assert_eq!(spec.workloads, vec![vec![FIXTURE_WORKLOAD; 2]]);
    // Classification reads the `.smtt` header: the fixture was recorded from
    // mcf, so the workload is MLP-intensive without consulting Table I.
    assert!(benchmark_is_mlp_intensive(FIXTURE_WORKLOAD).unwrap());
    let workload = Workload::new(spec.workloads[0].clone()).expect("workload builds");
    assert_eq!(workload.group, WorkloadGroup::MlpIntensive);
    assert_eq!(workload.mlp_count(), 2);
}

#[test]
fn replay_source_reports_the_recorded_benchmark_name() {
    // Stats parity depends on the replay source answering with the *recorded*
    // benchmark's name, not the file path.
    let source = FileTraceSource::open(fixture_path()).expect("fixture opens");
    assert_eq!(source.name(), "mcf");
}

/// A probe source that forwards batched refills to a live generator but
/// panics if the engine ever falls back to pulling single ops: engine-facing
/// sources must be driven exclusively through `refill`.
struct RefillOnlyProbe {
    inner: Box<dyn TraceSource>,
}

impl TraceSource for RefillOnlyProbe {
    fn next_op(&mut self) -> TraceOp {
        panic!("engine hit the one-op-at-a-time fallback; pull_op must batch through refill");
    }

    fn refill(&mut self, buf: &mut Vec<TraceOp>, n: usize) {
        self.inner.refill(buf, n);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn save_state(&self) -> Option<TraceSourceState> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &TraceSourceState) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Source-level stream equivalence: a replay source driven through the same
/// refill/skip/save/restore protocol the engine uses yields the live
/// generator's ops verbatim at every step.
#[test]
fn stream_is_equivalent_under_skip_and_state_roundtrip() {
    let scale = RunScale::tiny();
    let path = record_temp("mcf", "probe", scale);
    let mut live = build_trace("mcf", scale).unwrap();
    let mut replay: Box<dyn TraceSource> = Box::new(FileTraceSource::open(&path).unwrap());
    let mut l = Vec::new();
    let mut r = Vec::new();
    live.refill(&mut l, 100);
    replay.refill(&mut r, 100);
    assert_eq!(l, r, "first 100 ops diverge");
    live.skip(37);
    replay.skip(37);
    l.clear();
    r.clear();
    live.refill(&mut l, 200);
    replay.refill(&mut r, 200);
    assert_eq!(l, r, "ops after a bulk skip diverge");
    let ls = live.save_state().unwrap();
    let rs = replay.save_state().unwrap();
    assert_eq!(ls.seq, rs.seq, "stream positions diverge");
    live.restore_state(&ls).unwrap();
    replay.restore_state(&rs).unwrap();
    l.clear();
    r.clear();
    live.refill(&mut l, 64);
    replay.refill(&mut r, 64);
    assert_eq!(l, r, "ops after a state round-trip diverge");
    std::fs::remove_file(&path).ok();
}

#[test]
fn engine_never_hits_the_single_op_fallback() {
    let scale = RunScale::tiny();
    let traces: Vec<Box<dyn TraceSource>> = ["mcf", "gcc"]
        .iter()
        .map(|b| {
            Box::new(RefillOnlyProbe {
                inner: build_trace(b, scale).expect("source builds"),
            }) as Box<dyn TraceSource>
        })
        .collect();
    let config = SmtConfig::baseline(2).with_policy(FetchPolicyKind::MlpFlush);
    let mut sim = SmtSimulator::new(config, traces).expect("simulator builds");
    let stats = sim.run(scale.sim_options());
    let committed = stats
        .threads
        .iter()
        .map(|t| t.committed_instructions)
        .max()
        .unwrap();
    assert!(committed >= scale.instructions_per_thread);
}
