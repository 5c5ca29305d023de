//! Crash-safe filesystem helpers shared by every report writer.
//!
//! A report written with a plain `std::fs::write` can be left truncated if
//! the process dies mid-write — a half-JSON file that downstream tooling
//! then chokes on. [`atomic_write`] and its streaming form
//! [`atomic_write_with`] give every writer the standard tmp-file/fsync/rename
//! discipline: readers observe either the old contents or the complete new
//! contents, never a torn intermediate.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically; see [`atomic_write_with`].
///
/// # Errors
///
/// As [`atomic_write_with`].
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |file| file.write_all(bytes))
}

/// Writes the file `write` produces to `path` atomically: `write` streams
/// into `<path>.tmp` in the same directory, which is fsynced and renamed
/// over `path`. The rename is atomic on POSIX filesystems, so a crash at
/// any point leaves either the previous file or the complete new one. The
/// containing directory is fsynced best-effort afterwards so the rename
/// itself is durable. Returns what `write` returned.
///
/// A target that exists but is not a regular file (`/dev/null`, a FIFO, a
/// terminal) is written in place: renaming over it would replace the node
/// itself with a regular file.
///
/// # Errors
///
/// The first I/O failure from create, `write`, sync, or rename; the temp
/// file is removed on the way out and `path` keeps its previous contents.
pub fn atomic_write_with<T>(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<T> {
    let path = path.as_ref();
    if std::fs::metadata(path).is_ok_and(|meta| !meta.is_file()) {
        return write(&mut OpenOptions::new().write(true).open(path)?);
    }
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    let result = (|| {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let written = write(&mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(written)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Durability of the rename needs the directory entry flushed too; not
    // being able to open the directory (exotic filesystems) is not a torn
    // write, so this half is best-effort.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tl_obs_fs_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn writes_and_replaces_without_leaving_tmp() {
        let dir = tmpdir("basic");
        let path = dir.join("report.json");
        atomic_write(&path, b"{\"v\": 1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\": 1}");
        atomic_write(&path, b"{\"v\": 2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\": 2}");
        assert!(!dir.join("report.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn non_regular_target_is_written_in_place() {
        use std::os::unix::fs::FileTypeExt;
        let dir = tmpdir("fifo");
        let fifo = dir.join("report.fifo");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.is_ok_and(|s| s.success()), "mkfifo failed");
        let reader = {
            let fifo = fifo.clone();
            std::thread::spawn(move || std::fs::read(fifo).unwrap())
        };
        atomic_write(&fifo, b"report").unwrap();
        let kind = std::fs::symlink_metadata(&fifo).unwrap().file_type();
        assert!(kind.is_fifo(), "the FIFO was replaced by {kind:?}");
        assert_eq!(reader.join().unwrap(), b"report");
        assert!(!dir.join("report.fifo.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_stream_keeps_the_previous_file_and_no_tmp() {
        let dir = tmpdir("stream_fail");
        let path = dir.join("report.json");
        atomic_write(&path, b"{\"v\": 1}").unwrap();
        let err = atomic_write_with(&path, |file| {
            file.write_all(b"{\"v\": ")?;
            Err::<(), _>(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\": 1}");
        assert!(!dir.join("report.json.tmp").exists());
        assert_eq!(
            atomic_write_with(&path, |file| file.write_all(b"{}").map(|()| 2)).unwrap(),
            2
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"{}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_cleans_up_tmp_file() {
        let dir = tmpdir("fail");
        let path = dir.join("no_such_subdir").join("report.json");
        assert!(atomic_write(&path, b"x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
