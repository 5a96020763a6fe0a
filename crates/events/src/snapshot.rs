//! Checkpoint files for checkpoint/restore.
//!
//! A checkpoint file is a raw-record [`Journal`]: each save appends one
//! whole crc32-framed frame and fsyncs it, so the file is a monotone
//! history of checkpoints and a crash — even one that tears the frame in
//! flight — loses at most the checkpoint being written. Loading parses
//! the valid prefix and takes the *last* whole frame, which is exactly
//! "the most recent durable checkpoint".
//!
//! [`RunCheckpointSink`] adapts a [`Journal`] to the `mcast-core`
//! [`CheckpointSink`] boundary for supervised distributed runs. Its
//! torn-write hook ([`Journal::append_torn`]) persists a deliberately
//! half-written frame so chaos tests can prove the recovery rule on disk
//! rather than in theory. The hook models a crash mid-write, so the next
//! save on the same file first cuts the tear off
//! ([`Journal::repair_tail`]) — the state [`Journal::reopen_raw`]
//! restores after a real crash — and every later frame stays
//! recoverable.

use std::path::Path;

use mcast_core::{CheckpointError, CheckpointSink, RunCheckpoint};
use serde::Deserialize;

use crate::journal::{replay_raw_file, Journal, JournalError};

/// A [`CheckpointSink`] for supervised distributed runs, backed by a
/// raw-record [`Journal`] of serialized [`RunCheckpoint`]s.
#[derive(Debug)]
pub struct RunCheckpointSink {
    journal: Journal,
}

fn ckpt_err(e: JournalError) -> CheckpointError {
    CheckpointError(e.to_string())
}

impl RunCheckpointSink {
    /// Creates (or truncates) the checkpoint file at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the file cannot be created.
    pub fn create(path: &Path) -> Result<RunCheckpointSink, CheckpointError> {
        Journal::create(path)
            .map(|journal| RunCheckpointSink { journal })
            .map_err(ckpt_err)
    }

    /// Opens the checkpoint file at `path` for appending after a crash
    /// (torn tail truncated). A missing file opens empty.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the file cannot be opened.
    pub fn open_append(path: &Path) -> Result<RunCheckpointSink, CheckpointError> {
        Journal::reopen_raw(path)
            .map(|journal| RunCheckpointSink { journal })
            .map_err(ckpt_err)
    }

    /// The checkpoint file's path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

impl CheckpointSink for RunCheckpointSink {
    fn save(&self, cp: &RunCheckpoint) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(cp).map_err(|e| CheckpointError(e.to_string()))?;
        self.journal.repair_tail().map_err(ckpt_err)?;
        self.journal.append_raw(&payload).map_err(ckpt_err)?;
        self.journal.sync().map_err(ckpt_err)
    }

    fn save_torn(&self, cp: &RunCheckpoint) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(cp).map_err(|e| CheckpointError(e.to_string()))?;
        self.journal.repair_tail().map_err(ckpt_err)?;
        self.journal.append_torn(&payload).map_err(ckpt_err)
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
    replay_raw_file(path)
        .map_err(ckpt_err)?
        .payloads
        .iter()
        .map(|p| {
            RunCheckpoint::deserialize_value(p).map_err(|e| {
                CheckpointError(format!(
                    "bad checkpoint frame: {}",
                    serde_json::Error::from(e)
                ))
            })
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
    use std::fs;
    use std::path::PathBuf;
    use std::sync::Arc;

    use super::*;
    use crate::faultio::{IoFaultPlan, WriteFault};
    use mcast_core::{ApId, CHECKPOINT_SCHEMA};
    use serde::Value;

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

    fn payloads(path: &Path) -> Vec<Value> {
        replay_raw_file(path).unwrap().payloads
    }

    fn frame(a: i128) -> Value {
        Value::Object(vec![("a".to_string(), Value::Int(a))])
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
    fn next_save_cuts_a_tear_left_on_the_same_file() {
        let path = tmp("tornsame.ckpt");
        let sink = RunCheckpointSink::create(&path).unwrap();
        sink.save(&cp(1)).unwrap();
        sink.save_torn(&cp(2)).unwrap();
        sink.save_torn(&cp(3)).unwrap();
        sink.save(&cp(4)).unwrap();
        assert_eq!(load_checkpoints(&path).unwrap(), vec![cp(1), cp(4)]);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn reopen_keeps_every_whole_checkpoint_frame() {
        // Checkpoint frames carry no journal `key`: a keyed reopen would
        // truncate the file to nothing and lose frames 1 and 2.
        let path = tmp("reopen.ckpt");
        let sink = RunCheckpointSink::create(&path).unwrap();
        sink.save(&cp(1)).unwrap();
        sink.save(&cp(2)).unwrap();
        drop(sink);
        let sink = RunCheckpointSink::open_append(&path).unwrap();
        sink.save(&cp(3)).unwrap();
        assert_eq!(load_checkpoints(&path).unwrap(), vec![cp(1), cp(2), cp(3)]);
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
            None,
        ));
        let journal = Journal::create_with_faults(&path, Some(plan)).unwrap();
        journal.append_raw("{\"a\":1}").unwrap();
        journal.sync().unwrap();
        let err = journal.append_raw("{\"a\":2}").unwrap_err();
        assert!(err.to_string().contains("short write"));
        // The torn bytes really landed; the loader recovers frame 1.
        assert!(fs::read(&path).unwrap().len() as u64 > journal.committed_len());
        assert_eq!(payloads(&path), vec![frame(1)]);
        // Reopening for append truncates the tear, as after a crash.
        drop(journal);
        let journal = Journal::reopen_raw(&path).unwrap();
        journal.append_raw("{\"a\":3}").unwrap();
        journal.sync().unwrap();
        assert_eq!(payloads(&path), vec![frame(1), frame(3)]);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn injected_sync_failure_keeps_the_frame_bytes() {
        let path = tmp("syncfail.ckpt");
        let plan = Arc::new(IoFaultPlan::scripted(Vec::new(), vec![0], None));
        let journal = Journal::create_with_faults(&path, Some(plan)).unwrap();
        journal.append_raw("{\"a\":1}").unwrap();
        let err = journal.sync().unwrap_err();
        assert!(err.to_string().contains("fsync"));
        // An fsync failure does not un-write the page cache: the frame
        // is still readable in-process.
        assert_eq!(payloads(&path), vec![frame(1)]);
        journal.append_raw("{\"a\":2}").unwrap();
        journal.sync().unwrap();
        assert_eq!(payloads(&path).len(), 2);
        let _ = fs::remove_file(path);
    }
}
