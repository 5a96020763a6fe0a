//! Crc32-framed snapshot files for checkpoint/restore.
//!
//! A snapshot file is an append-only sequence of checkpoint frames using
//! the exact [`journal`](crate::journal) framing
//! (`<crc32-hex8> <payload-json>\n`): each save appends one whole frame
//! and fsyncs, so the file is a monotone history of checkpoints and a
//! crash — even one that tears the frame in flight — loses at most the
//! checkpoint being written. Loading truncates to the valid prefix and
//! takes the *last* whole frame, which is exactly "the most recent
//! durable checkpoint".
//!
//! [`RunCheckpointSink`] adapts a [`SnapshotFile`] to the
//! `mcast-core` [`CheckpointSink`] boundary for supervised distributed
//! runs; the torn-write hook ([`SnapshotFile::append_torn`])
//! persists a deliberately half-written frame so chaos tests can prove
//! the recovery rule on disk rather than in theory. The hook models a
//! crash mid-write, so the next append on the same file first truncates
//! the tear — the state [`SnapshotFile::open_append`] restores after a
//! real crash — and every later frame stays recoverable.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mcast_core::{CheckpointError, CheckpointSink, RunCheckpoint};

use crate::faultio::{IoFaultPlan, WriteFault};
use crate::journal::{crc32, replay_raw_bytes, JournalError};

/// An append-only file of crc32-framed JSON payloads with torn-tail
/// recovery, one frame per save. Appends are serialized through an
/// internal mutex and fsynced individually (checkpoints are rare and
/// each one must be durable).
#[derive(Debug)]
pub struct SnapshotFile {
    file: Mutex<Appender>,
    path: PathBuf,
    faults: Option<Arc<IoFaultPlan>>,
}

/// The open file, and the length of its whole-frame prefix while an
/// [`SnapshotFile::append_torn`] tear sits at its end.
#[derive(Debug)]
struct Appender {
    file: File,
    torn_from: Option<u64>,
}

impl Appender {
    fn locked(file: File) -> Mutex<Appender> {
        Mutex::new(Appender {
            file,
            torn_from: None,
        })
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

impl SnapshotFile {
    /// Creates (or truncates) the snapshot file at `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file or its parents cannot be made.
    pub fn create(path: &Path) -> Result<SnapshotFile, JournalError> {
        SnapshotFile::create_with_faults(path, None)
    }

    /// [`SnapshotFile::create`] with an IO-fault plan consulted on
    /// every frame append and fsync. `None` behaves exactly like
    /// [`SnapshotFile::create`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file or its parents cannot be made.
    pub fn create_with_faults(
        path: &Path,
        faults: Option<Arc<IoFaultPlan>>,
    ) -> Result<SnapshotFile, JournalError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        }
        let file = File::create(path).map_err(|e| io_err(path, &e))?;
        Ok(SnapshotFile {
            file: Appender::locked(file),
            path: path.to_path_buf(),
            faults,
        })
    }

    /// Opens the snapshot file at `path` for appending: truncates any
    /// torn tail back to the last whole frame first. A missing file
    /// opens empty.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be read or reopened.
    pub fn open_append(path: &Path) -> Result<SnapshotFile, JournalError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        }
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(path, &e)),
        };
        let valid_len = replay_raw_bytes(&bytes).valid_len;
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        file.set_len(valid_len).map_err(|e| io_err(path, &e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, &e))?;
        Ok(SnapshotFile {
            file: Appender::locked(file),
            path: path.to_path_buf(),
            faults: None,
        })
    }

    /// Appends one whole frame and fsyncs it.
    ///
    /// # Errors
    ///
    /// [`JournalError::Serialize`] if `payload` contains a newline;
    /// [`JournalError::Io`] on write/fsync failure.
    pub fn append_payload(&self, payload: &str) -> Result<(), JournalError> {
        if payload.contains('\n') {
            return Err(JournalError::Serialize(
                "snapshot payload contains a newline".to_string(),
            ));
        }
        let line = format!("{:08x} {payload}\n", crc32(payload.as_bytes()));
        self.write_and_sync(line.as_bytes(), false)
    }

    /// Chaos hook: appends the *first half* of the frame — checksum
    /// intact, payload cut, no newline — and fsyncs, as if the process
    /// died mid-write. [`load_checkpoints`] recovers the previous frame.
    /// The next append truncates the tear first, as reopening with
    /// [`SnapshotFile::open_append`] would after a real crash.
    ///
    /// # Errors
    ///
    /// Like [`SnapshotFile::append_payload`].
    pub fn append_torn(&self, payload: &str) -> Result<(), JournalError> {
        if payload.contains('\n') {
            return Err(JournalError::Serialize(
                "snapshot payload contains a newline".to_string(),
            ));
        }
        let line = format!("{:08x} {payload}\n", crc32(payload.as_bytes()));
        self.write_and_sync(&line.as_bytes()[..line.len() / 2], true)
    }

    /// Writes `bytes` at the end of the file and fsyncs, after cutting off
    /// a tear left by [`SnapshotFile::append_torn`]; `torn` marks `bytes`
    /// as such a tear.
    fn write_and_sync(&self, bytes: &[u8], torn: bool) -> Result<(), JournalError> {
        let mut appender = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let Appender { file, torn_from } = &mut *appender;
        if let Some(len) = *torn_from {
            file.set_len(len)
                .and_then(|()| file.seek(SeekFrom::Start(len)))
                .map_err(|e| io_err(&self.path, &e))?;
            *torn_from = None;
        }
        let tear_at = if torn {
            Some(file.stream_position().map_err(|e| io_err(&self.path, &e))?)
        } else {
            None
        };
        if let Some(plan) = &self.faults {
            if let Some(fault) = plan.next_write_fate() {
                if fault == WriteFault::Short {
                    // A genuinely torn frame lands on disk — the same
                    // shape `append_torn` scripts deliberately — so the
                    // loader's recovery rule is exercised for real.
                    let _ = file.write_all(&bytes[..bytes.len() / 2]);
                    let _ = file.flush();
                }
                return Err(IoFaultPlan::write_error(fault, &self.path));
            }
        }
        file.write_all(bytes)
            .and_then(|()| file.flush())
            .map_err(|e| io_err(&self.path, &e))?;
        *torn_from = tear_at;
        if self
            .faults
            .as_deref()
            .is_some_and(IoFaultPlan::next_sync_fails)
        {
            return Err(JournalError::Io {
                path: self.path.clone(),
                message: "injected fsync failure".to_string(),
            });
        }
        file.sync_data().map_err(|e| io_err(&self.path, &e))
    }

    /// The snapshot file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads the valid payload strings of the snapshot file at `path`, in
/// append order, applying torn-tail recovery (a torn final frame is
/// dropped). A missing file loads as empty.
///
/// # Errors
///
/// [`JournalError::Io`] when the file cannot be read.
pub fn load_payloads(path: &Path) -> Result<Vec<String>, JournalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(path, &e)),
    };
    let valid_len = replay_raw_bytes(&bytes).valid_len as usize;
    // Recover the exact payload strings: each valid line is
    // "xxxxxxxx <payload>" — strip the 9-byte checksum prefix.
    Ok(bytes[..valid_len]
        .split(|&b| b == b'\n')
        .filter(|line| !line.is_empty())
        .map(|line| String::from_utf8_lossy(&line[9..]).into_owned())
        .collect())
}

/// A [`CheckpointSink`] for supervised distributed runs, backed by a
/// [`SnapshotFile`] of serialized [`RunCheckpoint`]s.
#[derive(Debug)]
pub struct RunCheckpointSink {
    file: SnapshotFile,
}

impl RunCheckpointSink {
    /// Creates (or truncates) the checkpoint file at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the file cannot be created.
    pub fn create(path: &Path) -> Result<RunCheckpointSink, CheckpointError> {
        SnapshotFile::create(path)
            .map(|file| RunCheckpointSink { file })
            .map_err(|e| CheckpointError(e.to_string()))
    }

    /// Opens the checkpoint file at `path` for appending after a crash
    /// (torn tail truncated). A missing file opens empty.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the file cannot be opened.
    pub fn open_append(path: &Path) -> Result<RunCheckpointSink, CheckpointError> {
        SnapshotFile::open_append(path)
            .map(|file| RunCheckpointSink { file })
            .map_err(|e| CheckpointError(e.to_string()))
    }

    /// The checkpoint file's path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }
}

impl CheckpointSink for RunCheckpointSink {
    fn save(&self, cp: &RunCheckpoint) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(cp).map_err(|e| CheckpointError(e.to_string()))?;
        self.file
            .append_payload(&payload)
            .map_err(|e| CheckpointError(e.to_string()))
    }

    fn save_torn(&self, cp: &RunCheckpoint) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(cp).map_err(|e| CheckpointError(e.to_string()))?;
        self.file
            .append_torn(&payload)
            .map_err(|e| CheckpointError(e.to_string()))
    }
}

/// Loads every whole checkpoint frame from `path`, in append order,
/// applying torn-tail recovery. A missing file loads as empty.
///
/// # Errors
///
/// [`CheckpointError`] on read failure or a frame that is valid JSON but
/// not a checkpoint.
pub fn load_checkpoints(path: &Path) -> Result<Vec<RunCheckpoint>, CheckpointError> {
    load_payloads(path)
        .map_err(|e| CheckpointError(e.to_string()))?
        .iter()
        .map(|p| {
            serde_json::from_str::<RunCheckpoint>(p)
                .map_err(|e| CheckpointError(format!("bad checkpoint frame: {e}")))
        })
        .collect()
}

/// Loads the most recent whole checkpoint from `path` (torn final frames
/// fall back to the previous one); `None` when the file is missing or
/// holds no whole frame.
///
/// # Errors
///
/// Like [`load_checkpoints`].
pub fn load_latest_checkpoint(path: &Path) -> Result<Option<RunCheckpoint>, CheckpointError> {
    Ok(load_checkpoints(path)?.pop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::{ApId, CHECKPOINT_SCHEMA};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcast_snapshot_{name}_{}", std::process::id()))
    }

    fn cp(round: u32) -> RunCheckpoint {
        let assoc = vec![Some(ApId(round)), None];
        RunCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            round,
            moves: u64::from(round) * 3,
            assoc: assoc.clone(),
            seen: vec![vec![None, None], assoc],
            trace: Vec::new(),
            traced: false,
        }
    }

    #[test]
    fn save_load_roundtrips_latest_wins() {
        let path = tmp("roundtrip.ckpt");
        let sink = RunCheckpointSink::create(&path).unwrap();
        sink.save(&cp(1)).unwrap();
        sink.save(&cp(2)).unwrap();
        let all = load_checkpoints(&path).unwrap();
        assert_eq!(all, vec![cp(1), cp(2)]);
        assert_eq!(load_latest_checkpoint(&path).unwrap(), Some(cp(2)));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn torn_frame_falls_back_to_previous_whole_frame() {
        let path = tmp("torn.ckpt");
        let sink = RunCheckpointSink::create(&path).unwrap();
        sink.save(&cp(1)).unwrap();
        sink.save_torn(&cp(2)).unwrap();
        assert_eq!(load_latest_checkpoint(&path).unwrap(), Some(cp(1)));
        // Reopening for append truncates the tear; the next save lands
        // cleanly.
        drop(sink);
        let sink = RunCheckpointSink::open_append(&path).unwrap();
        sink.save(&cp(3)).unwrap();
        assert_eq!(load_checkpoints(&path).unwrap(), vec![cp(1), cp(3)],);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn truncation_at_every_byte_recovers_a_whole_prefix() {
        let path = tmp("everybyte.ckpt");
        let sink = RunCheckpointSink::create(&path).unwrap();
        sink.save(&cp(1)).unwrap();
        sink.save(&cp(2)).unwrap();
        let bytes = fs::read(&path).unwrap();
        let cut_path = tmp("everybyte_cut.ckpt");
        for cut in 0..=bytes.len() {
            fs::write(&cut_path, &bytes[..cut]).unwrap();
            let got = load_checkpoints(&cut_path).unwrap();
            assert!(got.len() <= 2);
            for (i, c) in got.iter().enumerate() {
                assert_eq!(*c, cp(i as u32 + 1));
            }
        }
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(cut_path);
    }

    #[test]
    fn missing_file_loads_empty() {
        let path = tmp("missing.ckpt");
        let _ = fs::remove_file(&path);
        assert_eq!(load_latest_checkpoint(&path).unwrap(), None);
    }

    #[test]
    fn injected_short_write_tears_a_real_frame_and_recovery_holds() {
        let path = tmp("faulted.ckpt");
        let plan = Arc::new(IoFaultPlan::scripted(
            vec![(1, WriteFault::Short)],
            Vec::new(),
            Vec::new(),
            None,
        ));
        let file = SnapshotFile::create_with_faults(&path, Some(plan)).unwrap();
        file.append_payload("{\"a\":1}").unwrap();
        let err = file.append_payload("{\"a\":2}").unwrap_err();
        assert!(err.to_string().contains("short write"));
        // The torn bytes really landed; the loader recovers frame 1.
        assert_eq!(load_payloads(&path).unwrap(), vec!["{\"a\":1}".to_string()]);
        // Reopening for append truncates the tear, as after a crash.
        drop(file);
        let file = SnapshotFile::open_append(&path).unwrap();
        file.append_payload("{\"a\":3}").unwrap();
        assert_eq!(
            load_payloads(&path).unwrap(),
            vec!["{\"a\":1}".to_string(), "{\"a\":3}".to_string()]
        );
        let _ = fs::remove_file(path);
    }

    #[test]
    fn injected_sync_failure_keeps_the_frame_bytes() {
        let path = tmp("syncfail.ckpt");
        let plan = Arc::new(IoFaultPlan::scripted(Vec::new(), vec![0], Vec::new(), None));
        let file = SnapshotFile::create_with_faults(&path, Some(plan)).unwrap();
        let err = file.append_payload("{\"a\":1}").unwrap_err();
        assert!(err.to_string().contains("fsync"));
        // An fsync failure does not un-write the page cache: the frame
        // is still readable in-process.
        assert_eq!(load_payloads(&path).unwrap(), vec!["{\"a\":1}".to_string()]);
        file.append_payload("{\"a\":2}").unwrap();
        assert_eq!(load_payloads(&path).unwrap().len(), 2);
        let _ = fs::remove_file(path);
    }
}
