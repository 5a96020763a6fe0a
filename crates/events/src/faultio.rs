//! Scripted IO faults: a seeded, deterministic plan of write/sync
//! failures injected under the [`Journal`](crate::journal::Journal) and
//! any [`EventPublisher`] (via [`FaultSink`]).
//!
//! The plan is computed up front from a seed with splitmix64; each
//! scripted fault is a one-shot latch keyed by the *operation index* in its
//! category (write/sync), and firing is an atomic swap — so the
//! same seed injects the same faults at the same operations on every
//! run, regardless of timing. A `sticky_write_from` threshold models a
//! disk that stays full: every write operation at or past it fails,
//! which is what forces a resilient publisher down its degrade ladder
//! instead of retrying forever.
//!
//! The faults themselves are honest about their on-disk consequences:
//! a short write really does leave the torn byte prefix in the file
//! (exercising the same recovery the crc32 framing was built for), and a
//! failed fsync keeps the bytes (the page cache survives an fsync
//! error in-process).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::Event;
use crate::journal::JournalError;
use crate::publish::{EventPublisher, SinkPressure};

use mcast_core::splitmix64;

/// How a scripted write operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Half the bytes land, then the write errors (torn write / ENOSPC
    /// mid-buffer). The file really keeps the torn prefix.
    Short,
    /// Nothing lands; the write errors with an interrupted-style,
    /// transient failure (EINTR). A retry succeeds.
    Interrupted,
    /// Nothing lands; the write errors with a disk-full-style failure.
    DiskFull,
}

impl WriteFault {
    /// Renders the fault as the `std::io::Error` a real syscall in this
    /// failure mode would produce.
    pub fn to_io_error(self) -> std::io::Error {
        match self {
            WriteFault::Short => {
                std::io::Error::new(std::io::ErrorKind::WriteZero, "injected short write (torn)")
            }
            WriteFault::Interrupted => std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected interrupted write (EINTR)",
            ),
            WriteFault::DiskFull => std::io::Error::other("injected disk full (ENOSPC)"),
        }
    }
}

/// A deterministic plan of IO faults. Threaded (as an `Arc`) into
/// [`Journal`](crate::journal::Journal) and [`FaultSink`].
#[derive(Debug)]
pub struct IoFaultPlan {
    /// One-shot write faults: `(write op index, fault)`.
    write_ops: Vec<(u64, WriteFault)>,
    write_fired: Vec<AtomicBool>,
    /// One-shot sync failures by sync op index.
    sync_ops: Vec<u64>,
    sync_fired: Vec<AtomicBool>,
    /// All write ops at or past this index fail with disk-full — the
    /// permanent-failure regime that drives degrade ladders.
    sticky_write_from: Option<u64>,
    writes: AtomicU64,
    syncs: AtomicU64,
}

impl IoFaultPlan {
    /// A plan that injects nothing (every operation succeeds).
    pub fn quiet() -> IoFaultPlan {
        IoFaultPlan::scripted(Vec::new(), Vec::new(), None)
    }

    /// An explicitly scripted plan, for tests that need one exact fault
    /// at one exact operation.
    pub fn scripted(
        write_ops: Vec<(u64, WriteFault)>,
        sync_ops: Vec<u64>,
        sticky_write_from: Option<u64>,
    ) -> IoFaultPlan {
        let write_fired = write_ops.iter().map(|_| AtomicBool::new(false)).collect();
        let sync_fired = sync_ops.iter().map(|_| AtomicBool::new(false)).collect();
        IoFaultPlan {
            write_ops,
            write_fired,
            sync_ops,
            sync_fired,
            sticky_write_from,
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    /// A seeded plan: a handful of transient write faults and a sync
    /// failure early in the run, then — on roughly half of seeds — a
    /// sticky disk-full partway through, so both the retry-and-recover
    /// path and the full degrade ladder get exercised across seeds.
    /// Identical seeds script identical faults at identical operations.
    pub fn seeded(seed: u64) -> IoFaultPlan {
        let mut s = seed ^ 0x10FA_017C_0DE5;
        let mut write_ops = Vec::new();
        let n_transient = 2 + (splitmix64(&mut s) % 3); // 2..=4
        for _ in 0..n_transient {
            let op = splitmix64(&mut s) % 48;
            let fault = match splitmix64(&mut s) % 3 {
                0 => WriteFault::Short,
                1 => WriteFault::Interrupted,
                _ => WriteFault::DiskFull,
            };
            write_ops.push((op, fault));
        }
        write_ops.sort_by_key(|&(op, _)| op);
        write_ops.dedup_by_key(|&mut (op, _)| op);
        let sync_ops = vec![splitmix64(&mut s) % 12];
        let sticky_write_from = if splitmix64(&mut s).is_multiple_of(2) {
            Some(64 + splitmix64(&mut s) % 128)
        } else {
            None
        };
        IoFaultPlan::scripted(write_ops, sync_ops, sticky_write_from)
    }

    /// Whether this plan can ever inject anything.
    pub fn is_quiet(&self) -> bool {
        self.write_ops.is_empty() && self.sync_ops.is_empty() && self.sticky_write_from.is_none()
    }

    /// Consulted once per write operation: `None` means the write
    /// proceeds untouched, `Some(fault)` tells the caller how to fail.
    pub fn next_write_fate(&self) -> Option<WriteFault> {
        let op = self.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(from) = self.sticky_write_from {
            if op >= from {
                return Some(WriteFault::DiskFull);
            }
        }
        for (i, &(at, fault)) in self.write_ops.iter().enumerate() {
            if at == op && !self.write_fired[i].swap(true, Ordering::Relaxed) {
                return Some(fault);
            }
        }
        None
    }

    /// Consulted once per fsync operation.
    pub fn next_sync_fails(&self) -> bool {
        let op = self.syncs.fetch_add(1, Ordering::Relaxed);
        for (i, &at) in self.sync_ops.iter().enumerate() {
            if at == op && !self.sync_fired[i].swap(true, Ordering::Relaxed) {
                return true;
            }
        }
        false
    }

    /// Renders a write fault for callers that persist nothing
    /// themselves (e.g. [`FaultSink`] over a memory publisher).
    pub fn write_error(fault: WriteFault, path: &std::path::Path) -> JournalError {
        JournalError::Io {
            path: path.to_path_buf(),
            message: fault.to_io_error().to_string(),
        }
    }
}

/// An [`EventPublisher`] wrapper that injects the plan's write/sync
/// faults *in front of* any inner sink — the pure-sink counterpart of
/// threading the plan into a [`Journal`](crate::journal::Journal).
/// Used to unit-test degrade ladders without touching the filesystem.
#[derive(Debug)]
pub struct FaultSink<P> {
    inner: P,
    plan: Arc<IoFaultPlan>,
}

impl<P: EventPublisher> FaultSink<P> {
    /// Wraps `inner`, failing operations as `plan` scripts.
    pub fn new(inner: P, plan: Arc<IoFaultPlan>) -> FaultSink<P> {
        FaultSink { inner, plan }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> P {
        self.inner
    }

    fn synthetic(fault: WriteFault) -> JournalError {
        JournalError::Io {
            path: std::path::PathBuf::from("<fault-sink>"),
            message: fault.to_io_error().to_string(),
        }
    }
}

impl<P: EventPublisher> EventPublisher for FaultSink<P> {
    fn publish(&mut self, event: &Event) -> Result<(), JournalError> {
        match self.plan.next_write_fate() {
            // A "short" publish on a non-file sink delivers nothing —
            // the inner sink never sees the event.
            Some(fault) => Err(Self::synthetic(fault)),
            None => self.inner.publish(event),
        }
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        if self.plan.next_sync_fails() {
            return Err(JournalError::Io {
                path: std::path::PathBuf::from("<fault-sink>"),
                message: "injected fsync failure".to_string(),
            });
        }
        self.inner.sync()
    }

    fn bytes_logged(&self) -> Option<u64> {
        self.inner.bytes_logged()
    }

    fn pressure(&self) -> SinkPressure {
        self.inner.pressure()
    }

    fn repair(&mut self) -> Result<(), JournalError> {
        self.inner.repair()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_faults_fire_exactly_once_at_their_op() {
        let plan = IoFaultPlan::scripted(
            vec![(2, WriteFault::Short), (5, WriteFault::DiskFull)],
            vec![1],
            None,
        );
        let fates: Vec<Option<WriteFault>> = (0..8).map(|_| plan.next_write_fate()).collect();
        assert_eq!(fates[2], Some(WriteFault::Short));
        assert_eq!(fates[5], Some(WriteFault::DiskFull));
        assert_eq!(fates.iter().flatten().count(), 2);
        assert!(!plan.next_sync_fails());
        assert!(plan.next_sync_fails());
        assert!(!plan.next_sync_fails());
    }

    #[test]
    fn sticky_disk_full_fails_every_write_from_threshold() {
        let plan = IoFaultPlan::scripted(Vec::new(), Vec::new(), Some(3));
        let fates: Vec<Option<WriteFault>> = (0..6).map(|_| plan.next_write_fate()).collect();
        assert_eq!(fates[..3], [None, None, None]);
        assert!(fates[3..].iter().all(|f| *f == Some(WriteFault::DiskFull)));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_dependent() {
        let a = IoFaultPlan::seeded(7);
        let b = IoFaultPlan::seeded(7);
        assert_eq!(a.write_ops, b.write_ops);
        assert_eq!(a.sync_ops, b.sync_ops);
        assert_eq!(a.sticky_write_from, b.sticky_write_from);
        assert!(!a.is_quiet());
        // Some nearby seed must differ somewhere (not a constant plan).
        let differs = (0..16u64).any(|s| {
            let p = IoFaultPlan::seeded(s);
            p.write_ops != a.write_ops || p.sticky_write_from != a.sticky_write_from
        });
        assert!(differs);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = IoFaultPlan::quiet();
        assert!(plan.is_quiet());
        for _ in 0..100 {
            assert_eq!(plan.next_write_fate(), None);
            assert!(!plan.next_sync_fails());
        }
    }
}
