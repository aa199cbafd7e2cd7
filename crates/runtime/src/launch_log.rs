//! The append-only, epoch-segmented launch log behind the shared-log
//! executor (`log_exec`).
//!
//! ## Publication
//!
//! The log has one producer, the sequencer. It buffers the records of
//! an epoch segment itself and hands them over with
//! [`LaunchLog::publish`]: one call appends one batch, bumps the
//! published count and wakes the consumers. Node-replication's
//! operation log, the model for this executor, lets many producers
//! submit into per-thread slots that a *combiner* drains into one
//! batch; with a single producer there is nothing to combine, and this
//! log does not implement that protocol.
//!
//! ## Epoch segmentation
//!
//! Every batch carries the epoch it belongs to, and the first batch of
//! an outermost-loop iteration carries `step = Some(it)` — the marker
//! consumers use for checkpoint/rollback boundaries and `StepBegin`
//! trace events. A boundary batch is published even when it holds no
//! record, so every consumer sees every epoch edge.
//!
//! ## Consumption
//!
//! Consumers tail the log with a [`LogCursor`]: the published-batch
//! count is a plain atomic, so lag polling is lock-free, and a cursor
//! that has caught up blocks in [`LaunchLog::wait`] on that count
//! through the runtime's one wait primitive (`crate::wait`), woken by
//! each publish and by `seal`; the log mutex is taken only to fetch a
//! batch. Batches are immutable once published (`Arc`-shared), so a
//! cursor can be rewound — which is exactly how the shared-log executor
//! replays after a rollback.

use crate::wait::Waiters;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One published batch of log records. Immutable after publication.
#[derive(Debug)]
pub struct Batch<T> {
    /// Position of this batch in the log (the consumer cursor value
    /// that reaches it).
    pub index: usize,
    /// The epoch (outermost-loop iteration counter) the records belong
    /// to.
    pub epoch: u64,
    /// `Some(it)` when this batch begins outermost-loop iteration
    /// `it` — the epoch-boundary marker consumers synchronize
    /// checkpoints and `StepBegin` events on.
    pub step: Option<u64>,
    /// The records, in the order they were appended.
    pub records: Vec<T>,
}

/// The shared launch log. See the module docs for the protocol.
pub struct LaunchLog<T> {
    batches: Mutex<Vec<Arc<Batch<T>>>>,
    /// Published batch count, readable without the log mutex (the
    /// lock-free side of the consumer cursor).
    published: AtomicUsize,
    /// Set by [`LaunchLog::seal`]: no further batch will be published.
    sealed: AtomicBool,
    /// Consumers blocked past the end of the log.
    waiters: Waiters,
    /// How long a consumer waits for a batch before giving up.
    hang_timeout: Duration,
}

impl<T> LaunchLog<T> {
    /// An empty log whose consumers give up on a batch after
    /// `hang_timeout`.
    pub fn new(hang_timeout: Duration) -> LaunchLog<T> {
        LaunchLog {
            batches: Mutex::new(Vec::new()),
            published: AtomicUsize::new(0),
            sealed: AtomicBool::new(false),
            waiters: Waiters::default(),
            hang_timeout,
        }
    }

    /// Appends `records` as one batch tagged (`epoch`, `step`) and wakes
    /// the consumers. Empty `records` publish nothing unless `step` is
    /// set: a boundary batch is published even when empty, so consumers
    /// see every epoch boundary. Returns whether a batch was published.
    pub fn publish(&self, epoch: u64, step: Option<u64>, records: Vec<T>) -> bool {
        if records.is_empty() && step.is_none() {
            return false;
        }
        let mut batches = self.batches.lock().expect("launch-log lock poisoned");
        assert!(!self.is_sealed(), "publish on a sealed launch log");
        let index = batches.len();
        batches.push(Arc::new(Batch {
            index,
            epoch,
            step,
            records,
        }));
        self.published.store(index + 1, Ordering::Release);
        drop(batches);
        self.waiters.wake();
        true
    }

    /// Number of published batches (lock-free).
    pub fn published(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// The batch at `index` if already published (non-blocking).
    pub fn get(&self, index: usize) -> Option<Arc<Batch<T>>> {
        let batches = self.batches.lock().expect("launch-log lock poisoned");
        batches.get(index).map(Arc::clone)
    }

    /// Blocks until the batch at `index` is published and returns it,
    /// or returns `None` once the log is sealed with fewer batches.
    /// Panics (a likely-deadlock diagnostic) after the log's hang
    /// timeout, like every other blocking wait in the runtime.
    pub fn wait(&self, index: usize) -> Option<Arc<Batch<T>>> {
        let settled = self.waiters.wait(self.hang_timeout, || {
            (self.published() > index || self.is_sealed()).then_some(())
        });
        if settled.is_none() {
            panic!(
                "likely deadlock: log consumer waited {:?} for batch {index} \
                 (sequencer stalled or died without sealing)",
                self.hang_timeout
            );
        }
        // Published, or sealed short of `index`: the list is the
        // authority either way (a seal follows its thread's last
        // publish, so a batch published before the seal is in it).
        self.get(index)
    }

    /// Seals the log: no further batches will be published, and every
    /// consumer blocked past the end wakes with `None`. Idempotent.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::Release);
        self.waiters.wake();
    }

    /// Whether the log is sealed.
    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
    }
}

/// A consumer's read position in the log. Plain data — rewinding it is
/// how post-rollback replay re-consumes published batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogCursor {
    /// Index of the next batch to consume.
    pub next: usize,
}

impl LogCursor {
    /// A cursor at the beginning of the log.
    pub fn new() -> LogCursor {
        LogCursor::default()
    }

    /// How many published batches this cursor has not consumed yet
    /// (lock-free: one atomic load).
    pub(crate) fn lag<T>(&self, log: &LaunchLog<T>) -> usize {
        log.published().saturating_sub(self.next)
    }

    /// Takes the next batch, blocking until it is published; `None`
    /// once the log is sealed and fully consumed.
    pub fn take<T>(&mut self, log: &LaunchLog<T>) -> Option<Arc<Batch<T>>> {
        let b = log.wait(self.next)?;
        self.next += 1;
        Some(b)
    }

    /// Rewinds the cursor to batch `to` (post-rollback replay).
    pub fn rewind(&mut self, to: usize) {
        self.next = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(30);

    #[test]
    fn empty_combine_publishes_only_boundary_batches() {
        let log: LaunchLog<u32> = LaunchLog::new(WAIT);
        assert!(!log.publish(0, None, Vec::new()));
        assert_eq!(log.published(), 0, "empty non-boundary publish is a no-op");
        assert!(log.publish(4, Some(4), Vec::new()));
        assert_eq!(log.published(), 1, "empty boundary batch still published");
        let b = log.get(0).unwrap();
        assert!(b.records.is_empty());
        assert_eq!(b.step, Some(4));
        assert_eq!(b.epoch, 4);
    }

    #[test]
    fn cursor_lag_accounting() {
        let log: LaunchLog<u32> = LaunchLog::new(WAIT);
        let mut cursor = LogCursor::new();
        assert_eq!(cursor.lag(&log), 0);
        for i in 0..3 {
            log.publish(0, None, vec![i]);
        }
        assert_eq!(cursor.lag(&log), 3);
        assert_eq!(cursor.take(&log).unwrap().records, vec![0]);
        assert_eq!(cursor.lag(&log), 2);
        cursor.rewind(0);
        assert_eq!(cursor.lag(&log), 3, "rewound cursor sees the lag again");
    }

    #[test]
    fn sealed_log_drains_then_ends() {
        let log: LaunchLog<u32> = LaunchLog::new(WAIT);
        log.publish(0, None, vec![9]);
        log.seal();
        log.seal(); // idempotent
        let mut cursor = LogCursor::new();
        assert_eq!(cursor.take(&log).unwrap().records, vec![9]);
        assert!(cursor.take(&log).is_none());
    }

    #[test]
    fn combiner_handoff_under_slow_consumer() {
        // The sequencer must never block on a lagging consumer: the log
        // is unbounded, so a slow tail only grows the cursor lag.
        const ROUNDS: u32 = 50;
        let log: LaunchLog<u32> = LaunchLog::new(WAIT);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut cursor = LogCursor::new();
                let mut seen: Vec<u32> = Vec::new();
                let mut max_lag = 0usize;
                while let Some(b) = cursor.take(&log) {
                    max_lag = max_lag.max(cursor.lag(&log) + 1);
                    // Deliberately slower than the producer.
                    std::thread::sleep(Duration::from_micros(200));
                    seen.extend(&b.records);
                }
                (seen, max_lag)
            });
            for round in 0..ROUNDS {
                log.publish(u64::from(round), None, vec![round]);
            }
            done.store(true, Ordering::Release);
            log.seal();
            let (seen, max_lag) = consumer.join().expect("consumer panicked");
            assert!(done.load(Ordering::Acquire));
            assert_eq!(seen, (0..ROUNDS).collect::<Vec<u32>>());
            assert!(
                max_lag >= 2,
                "the producer never ran ahead of the slow consumer (lag {max_lag})"
            );
        });
    }

    #[test]
    fn wait_blocks_until_published() {
        let log: LaunchLog<u32> = LaunchLog::new(WAIT);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| log.wait(0).map(|b| b.records.clone()));
            std::thread::sleep(Duration::from_millis(5));
            log.publish(0, None, vec![42]);
            assert_eq!(waiter.join().unwrap(), Some(vec![42]));
        });
    }
}
