//! Artifact writes are crash-safe: killing a process mid-write leaves either
//! the old artifact or the complete new one on disk, never a truncated
//! hybrid.

/// Two distinguishable multi-megabyte payloads: large enough that a kill
/// reliably lands inside a write, single-valued so corruption is detectable.
fn kill_write_payload(tag: &str) -> String {
    format!("{{\"tag\": \"{}\"}}\n", tag.repeat(2_000_000))
}

/// Child half of the kill-mid-write test, re-executed from the test binary
/// itself: loops forever alternating two large payloads through
/// [`smt_core::artifacts::write_atomic`] until the parent kills it. Runs
/// (and immediately passes) as an ordinary empty test when the env var is
/// absent.
#[test]
fn kill_write_child_helper() {
    let Ok(path) = std::env::var("SMT_KILL_WRITE_PATH") else {
        return;
    };
    let a = kill_write_payload("a");
    let b = kill_write_payload("b");
    loop {
        smt_core::artifacts::write_atomic(&path, &a).expect("child write");
        smt_core::artifacts::write_atomic(&path, &b).expect("child write");
    }
}

/// `write_atomic` under `SIGKILL`. A child process (this same
/// test binary running [`kill_write_child_helper`]) overwrites a
/// trajectory-like JSON artifact in a tight loop; the parent kills it
/// mid-flight. Whatever instant the kill landed, the file must hold one
/// complete payload — never a truncation or interleaving — and the only
/// possible debris is the protocol's `*.tmp` sibling.
#[test]
fn killing_a_writer_mid_write_never_corrupts_the_artifact() {
    let dir = std::env::temp_dir().join(format!("smt-kill-write-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("BENCH_throughput.json");

    let original = kill_write_payload("a");
    let rewrite = kill_write_payload("b");
    smt_core::artifacts::write_atomic(&path, &original).expect("seed artifact");

    let mut child = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args(["kill_write_child_helper", "--exact", "--test-threads=1"])
        .env("SMT_KILL_WRITE_PATH", &path)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn writer child");
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().expect("kill writer");
    let _ = child.wait();

    let found = std::fs::read_to_string(&path).expect("artifact still readable");
    assert!(
        found == original || found == rewrite,
        "artifact is a {}-byte hybrid (original {} bytes, rewrite {} bytes)",
        found.len(),
        original.len(),
        rewrite.len()
    );
    // The only debris a kill may leave is the child's own temp sibling.
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            name == "BENCH_throughput.json" || name.ends_with(".tmp"),
            "unexpected file in scratch dir: {name}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
