//! Crash-safe artifact writes.
//!
//! Every durable artifact the workspace produces — experiment reports, saved
//! warm checkpoints, regenerated golden fixtures — goes
//! through [`write_atomic`], which writes to a temporary sibling file and
//! renames it into place. A process killed mid-write leaves at most a stale
//! `*.tmp` file behind; the previous artifact (if any) stays intact, so a
//! half-written report can never masquerade as a complete one.

use std::io::Write;
use std::path::Path;

/// Writes `contents` to `path` atomically: the bytes land in a temporary
/// sibling (`<name>.<pid>.tmp` in the same directory, so the final rename
/// never crosses a filesystem boundary), are flushed to disk, and only then
/// renamed over `path`.
///
/// Readers therefore observe either the old artifact or the complete new one,
/// never a truncated intermediate.
///
/// # Errors
///
/// Propagates any I/O error from creating, writing, syncing, or renaming the
/// temporary file. On error the temporary file is removed on a best-effort
/// basis and `path` is left untouched.
///
/// # Example
///
/// ```
/// let dir = std::env::temp_dir().join(format!("smt-artifacts-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("report.json");
/// smt_core::artifacts::write_atomic(&path, "{\"ok\":true}\n").unwrap();
/// assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("artifact path `{}` has no file name", path.display()),
            )
        })?
        .to_owned();
    let mut tmp_name = file_name;
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);

    let write_result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_ref())?;
        // Make the rename meaningful: the data must be durable before the
        // new name points at it.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write_result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write_result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("smt-artifacts-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn writes_contents_and_leaves_no_temp_file() {
        let dir = scratch_dir("basic");
        let path = dir.join("out.json");
        write_atomic(&path, "first\n").expect("write");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "first\n");
        write_atomic(&path, "second\n").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "second\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_keeps_the_previous_artifact() {
        let dir = scratch_dir("fail");
        let path = dir.join("out.json");
        write_atomic(&path, "stable\n").expect("write");
        // Writing *into* a missing directory must fail without touching the
        // original artifact.
        let bad = dir.join("missing-subdir").join("out.json");
        assert!(write_atomic(&bad, "lost\n").is_err());
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "stable\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_paths_without_a_file_name() {
        assert!(write_atomic("/", "x").is_err());
    }
}
