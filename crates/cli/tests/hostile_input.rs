//! Untrusted input must fail cleanly: a spec TOML or checkpoint JSON nested
//! far deeper than any real document exits with a load error and a message,
//! never a stack-overflow abort, and retired knobs are rejected, not ignored.

use std::process::Command;

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("smt-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file written");
    path
}

/// Runs `smt-cli <args> <file>` on `contents` and returns (exit code, stderr).
fn run_on(args: &[&str], name: &str, contents: &str) -> (Option<i32>, String) {
    let path = temp_file(name, contents);
    let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .args(args)
        .arg(&path)
        .output()
        .expect("smt-cli runs");
    std::fs::remove_file(&path).ok();
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
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
    let describe = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .args(["describe", "chip_2c2t_allocation_matrix"])
        .output()
        .expect("smt-cli runs");
    assert!(describe.status.success());
    let spec = String::from_utf8(describe.stdout).expect("utf-8 spec");
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
    let describe = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
        .args(["describe", "fig09_two_thread_policies"])
        .output()
        .expect("smt-cli runs");
    assert!(describe.status.success());
    let spec = String::from_utf8(describe.stdout).expect("utf-8 spec");

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

/// Retired flags are unknown arguments (exit 2), not silently ignored:
/// `--chip-threads` everywhere, the adaptive `run` flags, and the `bench`
/// flags that reshaped the fixed scenario matrix.
#[test]
fn chip_threads_flag_is_an_unknown_argument() {
    for args in [
        &["run", "chip_2c2t_allocation_matrix", "--chip-threads", "2"][..],
        &["run", "fig09_two_thread_policies", "--selector", "sampling"],
        &["run", "fig09_two_thread_policies", "--interval", "256"],
        &["bench", "--chip-threads", "2"],
        &["bench", "--cores", "4"],
        &["bench", "--selector", "sampling"],
        &["bench", "--interval", "256"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_smt-cli"))
            .args(args)
            .output()
            .expect("smt-cli runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let flag = args[args.len() - 2];
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
    }
}
