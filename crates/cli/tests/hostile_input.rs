//! Untrusted files must fail cleanly: a spec TOML or checkpoint JSON nested
//! far deeper than any real document exits with a load error and a message,
//! never a stack-overflow abort.

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
