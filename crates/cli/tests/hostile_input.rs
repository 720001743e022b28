//! Untrusted input must fail cleanly: a spec TOML or checkpoint JSON nested
//! far deeper than any real document exits with a load error and a message,
//! never a stack-overflow abort; sampling lengths past their limit are
//! rejected before anything runs, never a hang; retired knobs are rejected,
//! not ignored; `--scale` never drops a spec's cycle cap or seed; and a
//! checkpoint of another schema version, with a broken or oversized sparse
//! table or with a stream buffer of a missing thread, and a `.smtt` trace
//! whose header promises more records than any file holds, are load
//! errors, never a panic.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("smt-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file written");
    path
}

/// Runs `smt-cli <args> <file>` on `contents` and returns (exit code,
/// stderr). Hostile input must fail fast, so a run still going after 10 s
/// is killed and reports no exit code.
fn run_on(args: &[&str], name: &str, contents: &str) -> (Option<i32>, String) {
    let path = temp_file(name, contents);
    let mut child = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .args(args)
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("smt-cli runs");
    let start = Instant::now();
    while child.try_wait().expect("wait on smt-cli").is_none() {
        if start.elapsed() > Duration::from_secs(10) {
            child.kill().ok();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    std::fs::remove_file(&path).ok();
    let output = child.wait_with_output().expect("smt-cli output");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// The TOML of a registry entry, as `smt-cli describe` prints it.
fn describe(name: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .args(["describe", name])
        .output()
        .expect("smt-cli runs");
    assert!(output.status.success());
    String::from_utf8(output.stdout).expect("utf-8 spec")
}

#[test]
fn deeply_nested_spec_and_checkpoint_fail_with_a_load_error() {
    let cases = [
        (
            &["run"][..],
            "deep.toml",
            format!("a = {}", "[".repeat(200_000)),
        ),
        (
            &["checkpoint", "load"][..],
            "deep.json",
            "[".repeat(200_000),
        ),
    ];
    for (args, name, contents) in cases {
        let (code, stderr) = run_on(args, name, &contents);
        assert_eq!(code, Some(1), "{args:?} {name}: {stderr}");
        assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
    }
}

/// The retired `chip_threads` spec field accepts only 1: any other value is
/// a validation error naming the field (exit 1), never silently ignored.
#[test]
fn chip_spec_with_retired_chip_threads_fails_naming_the_field() {
    let spec = describe("chip_2c2t_allocation_matrix");
    let retired = spec.replace("[chip]\n", "[chip]\nchip_threads = 2\n");
    assert_ne!(retired, spec, "describe output has a [chip] table");
    let (code, stderr) = run_on(&["run"], "chip-threads-2.toml", &retired);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("chip.chip_threads"), "{stderr}");
    assert!(stderr.contains("serially"), "{stderr}");
}

/// Specs written for the removed adaptive policy selection fail loudly: the
/// `adaptive_grid` kind no longer parses, and an `[adaptive]` table is a
/// validation error naming it (both load errors, exit 1), never ignored.
#[test]
fn adaptive_specs_fail_naming_the_retired_parts() {
    let spec = describe("fig09_two_thread_policies");

    let kind = spec.replace("kind = \"policy_grid\"", "kind = \"adaptive_grid\"");
    assert_ne!(kind, spec, "describe output names its kind");
    let (code, stderr) = run_on(&["run"], "adaptive-kind.toml", &kind);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown experiment kind `adaptive_grid`"),
        "{stderr}"
    );

    let table = format!("{spec}\n[adaptive]\nselectors = [\"sampling\"]\n");
    let (code, stderr) = run_on(&["run"], "adaptive-table.toml", &table);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("adaptive: retired"), "{stderr}");
}

/// Specs written for the removed retry and fault-injection layer fail
/// loudly: a `[resilience]` table is a validation error naming it and the
/// cycle cap that replaces it (exit 1), never ignored.
#[test]
fn resilience_table_fails_naming_the_retired_table() {
    let spec = describe("fig09_two_thread_policies");
    let table = format!("{spec}\n[resilience]\nmax_cell_cycles = 3000\n");
    let (code, stderr) = run_on(&["run"], "resilience-table.toml", &table);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("resilience: retired"), "{stderr}");
    assert!(stderr.contains("max_cycles"), "{stderr}");
}

/// Sampling lengths and window counts past their documented limit used to
/// hang a run (functional work has no cycle cap) or wrap the window cycle
/// caps into a plausible report. Each is now a validation error naming the
/// field: exit 1 before anything runs, at any scale.
#[test]
fn oversized_sampling_fields_fail_at_once_naming_the_field() {
    let spec = describe("sampled_4t_policies");
    assert!(
        spec.contains("[sampling]\n"),
        "describe output has a [sampling] table"
    );
    for (field, value) in [
        ("skip_instructions", "18446744073709551615"),
        ("skip_instructions", "1000000000000"),
        ("ff_instructions", "18446744073709551000"),
        ("min_windows", "4294967295"),
        ("measure_instructions", "18446744073709551615"),
    ] {
        let hostile = spec.replace("[sampling]\n", &format!("[sampling]\n{field} = {value}\n"));
        let (code, stderr) = run_on(
            &["run"],
            &format!("sampling-{field}-{value}.toml"),
            &hostile,
        );
        assert_eq!(code, Some(1), "{field} = {value}: {stderr}");
        assert!(stderr.contains(field), "{field} = {value}: {stderr}");
    }
}

/// Retired inputs are unknown arguments (exit 2), not silently ignored:
/// `--chip-threads` everywhere, the adaptive and retry/fault-injection `run`
/// flags, and the retired `bench` command (perfbench times the simulator).
#[test]
fn chip_threads_flag_is_an_unknown_argument() {
    for args in [
        &["run", "chip_2c2t_allocation_matrix", "--chip-threads", "2"][..],
        &["run", "fig09_two_thread_policies", "--selector", "sampling"],
        &["run", "fig09_two_thread_policies", "--interval", "256"],
        &["run", "fig09_two_thread_policies", "--max-retries", "0"],
        &["run", "fig09_two_thread_policies", "--cell-timeout", "500"],
        &["run", "fig09_two_thread_policies", "--fail-fast"],
        &[
            "run",
            "fig09_two_thread_policies",
            "--fault-plan",
            "plan.toml",
        ],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
            .args(args)
            .output()
            .expect("smt-cli runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let flag = args.iter().find(|a| a.starts_with("--")).expect("a flag");
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
    }
    let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .arg("bench")
        .output()
        .expect("smt-cli runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown command `bench`"), "{stderr}");
}

/// `--scale` swaps the scale preset but keeps the spec's `[scale]
/// max_cycles`: the one per-cell deadline is never silently dropped. On the
/// two-thread grid at tiny scale a 20,000-cycle cap fails the three stalling
/// `swim-perlbmk` cells, so the run degrades (exit 3) with 15 of 18 cells.
#[test]
fn scale_preset_keeps_the_spec_cycle_cap() {
    let spec = describe("fig09_two_thread_policies");
    let capped = spec.replace("\nseed = 42\n", "\nseed = 42\nmax_cycles = 20000\n");
    assert_ne!(capped, spec, "describe output has a [scale] seed");
    let path = temp_file("cycle-capped.toml", &capped);
    let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .arg("run")
        .arg(&path)
        .args(["--scale", "tiny", "--per-group", "1"])
        .output()
        .expect("smt-cli runs");
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(3), "{stdout}");
    assert!(
        stdout.contains("15 of 18 cells completed, 3 failed"),
        "{stdout}"
    );
}

/// `--scale` keeps the spec's seed: the same spec written at seeds 7 and 42
/// and run under `--scale tiny` gives different cells, and each report
/// names its own seed.
#[test]
fn scale_preset_keeps_the_spec_seed() {
    let spec = describe("fig09_two_thread_policies");
    assert!(spec.contains("\nseed = 42\n"), "describe output has a seed");
    let cells = |seed: u64| {
        let seeded = spec.replace("\nseed = 42\n", &format!("\nseed = {seed}\n"));
        let path = temp_file(&format!("seed-{seed}.toml"), &seeded);
        let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
            .arg("run")
            .arg(&path)
            .args(["--scale", "tiny", "--limit", "1"])
            .output()
            .expect("smt-cli runs");
        std::fs::remove_file(&path).ok();
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert_eq!(output.status.code(), Some(0), "seed {seed}: {stdout}");
        assert!(stdout.contains(&format!(", seed {seed}\n")), "{stdout}");
        // The result tables, without the scale and wall-clock header lines.
        stdout
            .lines()
            .filter(|line| !line.starts_with("scale:") && !line.starts_with("engine:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_ne!(cells(7), cells(42));
}

/// The JSON of a tiny-scale `mcf,gcc` checkpoint, saved through
/// `smt-cli checkpoint save` to a file named after `name`.
fn saved_checkpoint(name: &str) -> String {
    let path = temp_file(name, "");
    let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .args(["checkpoint", "save", "mcf,gcc", "--scale", "tiny", "--out"])
        .arg(&path)
        .output()
        .expect("smt-cli runs");
    assert!(output.status.success(), "{output:?}");
    let json = std::fs::read_to_string(&path).expect("checkpoint written");
    std::fs::remove_file(&path).ok();
    json
}

/// A saved tiny-scale `mcf,gcc` checkpoint after `edit`, as JSON. The
/// edit acts on the parsed document, which is not validated.
fn edited_checkpoint(name: &str, edit: impl FnOnce(&mut Value)) -> String {
    let mut checkpoint: Value =
        serde_json::from_str(&saved_checkpoint(name)).expect("a saved checkpoint parses");
    edit(&mut checkpoint);
    serde_json::to_string_pretty(&checkpoint).expect("serializes")
}

/// The field at the dotted `path` (`shared.llc.ways.indices[0]`) of a
/// parsed document.
fn field<'a>(mut value: &'a mut Value, path: &str) -> &'a mut Value {
    for step in path.split('.') {
        let (name, index) = match step.split_once('[') {
            Some((name, index)) => (name, index.trim_end_matches(']').parse::<usize>().ok()),
            None => (step, None),
        };
        value = match value {
            Value::Map(fields) => match fields.iter_mut().find(|(n, _)| n == name) {
                Some((_, field)) => field,
                None => panic!("{path}: no field `{name}`"),
            },
            _ => panic!("{path}: `{name}` is not in a map"),
        };
        if let Some(index) = index {
            value = match value {
                Value::Seq(items) => &mut items[index],
                _ => panic!("{path}: `{name}` is not a sequence"),
            };
        }
    }
    value
}

/// `checkpoint save` writes compact JSON, one line with no padding, and
/// `checkpoint load` reads it as well as the indented form of the same
/// document.
#[test]
fn checkpoint_save_is_compact_and_load_reads_both_forms() {
    let compact = saved_checkpoint("compact-source.json");
    assert_eq!(compact.trim_end().lines().count(), 1);
    assert!(!compact.contains(": "), "padded separators");
    let indented = edited_checkpoint("indented-source.json", |_| {});
    assert!(indented.len() > 2 * compact.len());
    for (name, json) in [("compact.json", &compact), ("indented.json", &indented)] {
        let (code, stderr) = run_on(&["checkpoint", "load"], name, json);
        assert_eq!(code, Some(0), "{name}: {stderr}");
    }
}

/// `checkpoint load` of `old`, a checkpoint of schema `version`, fails with
/// a load error naming that version, not the first field version 3 does not
/// know.
fn assert_old_version_fails(version: u32, old: &str) {
    let marker = format!("\"schema_version\":{version}");
    assert_eq!(old.matches(&marker).count(), 1);
    let (code, stderr) = run_on(&["checkpoint", "load"], "old.json", old);
    assert_eq!(code, Some(1), "{stderr}");
    let message = format!("unsupported checkpoint schema version {version} (expected 3)");
    assert!(stderr.contains(&message), "{stderr}");
}

/// A version-1 checkpoint (dense tables and an instruction side) fails
/// naming its version.
#[test]
fn version_one_checkpoint_fails_naming_the_schema_version() {
    let v1 = saved_checkpoint("v1-source.json")
        .replace("\"schema_version\":3", "\"schema_version\":1")
        .replace("\"memory\":{", "\"memory\":{\"l1i\":null,");
    assert_old_version_fails(1, &v1);
}

/// A version-2 checkpoint (`index`-tagged entries, a `stride_table_len`)
/// fails naming its version.
#[test]
fn version_two_checkpoint_fails_naming_the_schema_version() {
    let v2 = saved_checkpoint("v2-source.json")
        .replace("\"schema_version\":3", "\"schema_version\":2")
        .replace(
            "\"prefetcher\":{",
            "\"prefetcher\":{\"stride_table_len\":2048,",
        );
    assert_old_version_fails(2, &v2);
}

/// A shared-LLC way index past the table's length, or one repeated, fails
/// `checkpoint load` with exit 1 and a message naming the fault, never a
/// panic.
#[test]
fn checkpoint_with_a_bad_way_index_fails_cleanly() {
    let out_of_range = edited_checkpoint("range-source.json", |ck| {
        *field(ck, "shared.llc.ways.indices[0]") = Value::Int(u32::MAX.into());
    });
    let repeated = edited_checkpoint("repeat-source.json", |ck| {
        let first = field(ck, "shared.llc.ways.indices[0]").clone();
        *field(ck, "shared.llc.ways.indices[1]") = first;
    });
    for (name, hostile, fault) in [
        ("out-of-range.json", out_of_range, "out of range"),
        ("repeated.json", repeated, "repeated"),
    ] {
        let (code, stderr) = run_on(&["checkpoint", "load"], name, &hostile);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("shared.llc.ways.indices["),
            "{name}: {stderr}"
        );
        assert!(stderr.contains(fault), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

/// A checkpoint of no threads, or of more than a simulator runs, fails
/// `checkpoint load` with exit 1 naming the thread count, never a panic.
#[test]
fn checkpoint_with_an_unsupported_thread_count_fails_cleanly() {
    for threads in [0, 9] {
        let hostile = edited_checkpoint("threads-source.json", |ck| {
            let first = field(ck, "threads[0]").clone();
            *field(ck, "threads") = Value::Seq(vec![first; threads]);
            *field(ck, "meta.num_threads") = Value::Int(threads as i64);
            *field(ck, "meta.benchmarks") = Value::Seq(vec![Value::Str("mcf".into()); threads]);
        });
        let (code, stderr) = run_on(&["checkpoint", "load"], "threads.json", &hostile);
        assert_eq!(code, Some(1), "{threads}: {stderr}");
        let fault = format!("threads: {threads} threads, a simulator runs 1 to 8");
        assert!(stderr.contains(&fault), "{threads}: {stderr}");
    }
}

/// A table length past its configuration limit (an LLC of 2^60 ways, a BTB
/// of 2^40 entries) or a stream buffer owned by a thread the checkpoint does
/// not have fails `checkpoint load` with exit 1 naming the field, never a
/// panic.
#[test]
fn checkpoint_with_an_impossible_length_or_buffer_thread_fails_naming_the_field() {
    let cases = [
        (
            "llc-len.json",
            edited_checkpoint("llc-source.json", |ck| {
                *field(ck, "shared.llc.ways.len") = Value::Int(1 << 60);
            }),
            "shared.llc.ways.len: 1152921504606846976 exceeds the limit of 4194304",
        ),
        (
            "btb-len.json",
            edited_checkpoint("btb-source.json", |ck| {
                *field(ck, "threads[1].branch_predictor.btb.entries.len") = Value::Int(1 << 40);
            }),
            "threads[1].branch_predictor.btb.entries.len: 1099511627776 exceeds",
        ),
        (
            "buffer-thread.json",
            edited_checkpoint("thread-source.json", |ck| {
                *field(ck, "memory.prefetcher.buffers[0].thread") =
                    Value::Int(1_000_000_000_000_000);
            }),
            "memory.prefetcher.buffers[0].thread: 1000000000000000 out of range (2 threads)",
        ),
    ];
    for (name, hostile, fault) in cases {
        let (code, stderr) = run_on(&["checkpoint", "load"], name, &hostile);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.contains(fault), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

/// A thread's trace position of another benchmark, or more pending ops than
/// one refill batch holds, fails `checkpoint load` with exit 1 naming the
/// field, never a panic.
#[test]
fn checkpoint_with_a_foreign_trace_or_overlong_pending_ops_fails_naming_the_field() {
    let cases = [
        (
            "trace-name.json",
            edited_checkpoint("trace-name-source.json", |ck| {
                *field(ck, "threads[1].trace.name") = Value::Str("gzip".into());
            }),
            "threads[1].trace.name: state of `gzip`, this thread runs `gcc`",
        ),
        (
            "pending-ops.json",
            edited_checkpoint("pending-ops-source.json", |ck| {
                let op = field(ck, "threads[0].pending_ops[0]").clone();
                *field(ck, "threads[0].pending_ops") = Value::Seq(vec![op; 65]);
            }),
            "threads[0].pending_ops: 65 ops, a refill batch holds 64",
        ),
    ];
    for (name, hostile, fault) in cases {
        let (code, stderr) = run_on(&["checkpoint", "load"], name, &hostile);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.contains(fault), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

/// A `.smtt` header whose `op_count` of 2^61 records wraps a 64-bit byte
/// count to exactly the header's 64 bytes: every command that opens the
/// header-only file exits 1 naming an oversized trace, never a panic.
#[test]
fn trace_with_an_op_count_past_any_file_length_fails_cleanly() {
    let path = temp_file("huge-op-count.smtt", "");
    let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .args(["trace", "record", "mcf", "--ops", "10", "--out"])
        .arg(&path)
        .output()
        .expect("smt-cli runs");
    assert!(output.status.success(), "{output:?}");
    let mut bytes = std::fs::read(&path).expect("trace written");
    bytes.truncate(64);
    bytes[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
    std::fs::write(&path, &bytes).expect("hostile trace written");

    let trace = path.to_str().expect("utf-8 path");
    let workload = format!("trace:{trace}");
    let out = temp_file("huge-op-count.json", "");
    let out = out.to_str().expect("utf-8 path");
    let save = [
        "checkpoint",
        "save",
        &workload,
        "--scale",
        "tiny",
        "--out",
        out,
    ];
    for args in [
        &["trace", "inspect", trace][..],
        &["trace", "stats", trace],
        &save,
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
            .args(args)
            .output()
            .expect("smt-cli runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("oversized trace"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(out).ok();
}

/// A `.smtt` whose record 100 has its reserved byte set: `trace inspect`
/// and `checkpoint save trace:<file>` exit 1 with one error prefix and the
/// record's index, not the record error nested in a second prefix.
#[test]
fn corrupt_trace_record_fails_naming_the_record_under_one_prefix() {
    let path = temp_file("corrupt-record.smtt", "");
    let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .args(["trace", "record", "mcf", "--ops", "200", "--out"])
        .arg(&path)
        .output()
        .expect("smt-cli runs");
    assert!(output.status.success(), "{output:?}");
    let mut bytes = std::fs::read(&path).expect("trace written");
    bytes[64 + 100 * 24 + 23] = 1;
    std::fs::write(&path, &bytes).expect("corrupt trace written");

    let trace = path.to_str().expect("utf-8 path");
    let workload = format!("trace:{trace}");
    let out = temp_file("corrupt-record.json", "");
    let out = out.to_str().expect("utf-8 path");
    let save = [
        "checkpoint",
        "save",
        &workload,
        "--scale",
        "tiny",
        "--out",
        out,
    ];
    for args in [&["trace", "inspect", trace][..], &save] {
        let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
            .args(args)
            .output()
            .expect("smt-cli runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{trace}: record 100: corrupt .smtt record")),
            "{args:?}: {stderr}"
        );
        assert_eq!(
            stderr.matches("invalid configuration").count(),
            1,
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(out).ok();
}
