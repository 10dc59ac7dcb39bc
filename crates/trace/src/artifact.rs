//! Crash-safe artifact persistence.
//!
//! Every results artifact in this workspace (sweep tables, manifests,
//! bench JSON, per-cell sweep outcomes) is published through
//! [`write_atomic`]: the bytes land in a temporary file in the *same
//! directory* as the destination and are then atomically renamed over
//! it. A process killed mid-write can leave a stray `*.tmp` file
//! behind, but never a truncated `results/*.json` — which is what
//! makes interrupted sweeps resumable: a cell file that exists is a
//! cell file that is complete.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `contents` to `path` atomically (temp file + rename),
/// creating parent directories as needed.
///
/// The temporary file is created in the destination's directory so the
/// final `rename` never crosses a filesystem boundary (a cross-device
/// rename is a copy, which is not atomic). The temp name embeds the
/// process id and a per-call counter, so concurrent writers — other
/// processes, or other threads of this one — never share a scratch
/// file.
///
/// # Errors
///
/// Returns any I/O error from directory creation, the temp-file write,
/// or the rename. On error the destination is untouched (the stale
/// temp file, if any, is removed on a best-effort basis).
#[expect(
    clippy::disallowed_methods,
    reason = "`write_atomic` itself: the raw write goes to a temp sibling that is renamed into place"
)]
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = temp_sibling(path);
    std::fs::write(&tmp, contents.as_ref())?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// The scratch path used by [`write_atomic`]: `.{name}.{pid}.{n}.tmp`
/// in the destination's directory, where `n` is unique per call in
/// this process.
fn temp_sibling(path: &Path) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .map_or_else(|| "artifact".into(), |n| n.to_string_lossy().into_owned());
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{name}.{}.{call}.tmp", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mobic-trace-atomic-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch_dir("basic");
        let path = dir.join("out.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn creates_parent_directories() {
        let dir = scratch_dir("parents");
        let path = dir.join("a/b/c.json");
        write_atomic(&path, b"x").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"x");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leaves_no_temp_file_behind() {
        let dir = scratch_dir("clean");
        let path = dir.join("out.json");
        write_atomic(&path, b"payload").unwrap();
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty(), "stray temp files: {strays:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_writing_one_path_never_share_a_scratch_file() {
        // Two threads publish different payloads to one path, as an
        // abandoned job and its retry publish snapshots into one
        // directory. Every write must land, and every read must see
        // one payload whole.
        let dir = scratch_dir("threads");
        let path = dir.join("out.json");
        let payloads = [vec![b'a'; 64 * 1024], vec![b'b'; 64 * 1024]];
        // Both threads start every write together. A failure is
        // counted, not raised, so neither thread leaves the other
        // waiting at the barrier.
        let start = std::sync::Barrier::new(payloads.len());
        let (path, payloads, start) = (&path, &payloads, &start);
        let failures: usize = std::thread::scope(|scope| {
            let writers: Vec<_> = payloads
                .iter()
                .map(|payload| {
                    scope.spawn(move || {
                        (0..200)
                            .filter(|_| {
                                start.wait();
                                write_atomic(path, payload).is_err()
                                    || !std::fs::read(path)
                                        .is_ok_and(|read| payloads.contains(&read))
                            })
                            .count()
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "failed writes or torn reads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_sibling_stays_in_same_directory() {
        let t = temp_sibling(Path::new("results/fig3.json"));
        assert_eq!(t.parent(), Some(Path::new("results")));
        let name = t.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with(".fig3.json."), "{name}");
        assert!(name.ends_with(".tmp"), "{name}");
    }
}
