//! The append-only, epoch-segmented launch log behind the shared-log
//! executor (`log_exec`), with **flat combining** in the style of
//! node-replication's NUMA operation log.
//!
//! ## Combining protocol
//!
//! Producers never touch the log directly. Each producer owns a
//! *publication slot* ([`LaunchLog::submit`] is a push under a
//! per-slot lock, never contended between producers); whoever calls
//! [`LaunchLog::combine`] becomes the **combiner**: it drains every
//! slot in slot order into one batch, appends the batch, bumps the
//! published count, and wakes the consumers. Today the single
//! sequencer is both the only producer and the only combiner (it
//! combines once per epoch segment); the API is shaped for multiple
//! client producers — a job-queue front-end submits into its own slot
//! and any submitter may combine.
//!
//! ## Epoch segmentation
//!
//! Every batch carries the epoch it belongs to, and the first batch of
//! an outermost-loop iteration carries `step = Some(it)` — the marker
//! consumers use for checkpoint/rollback boundaries and `StepBegin`
//! trace events. A combine may split its drained records into several
//! batches when a [`LaunchLog::new`] record limit is set; only the
//! first split carries the step marker.
//!
//! ## Consumption
//!
//! Consumers tail the log with a [`LogCursor`]: the published-batch
//! count is a plain atomic, so lag polling is lock-free, and a cursor
//! that has caught up blocks in [`LaunchLog::wait`] on that count
//! through the runtime's one wait primitive (`crate::wait`), woken by
//! the combiner's publish and by `seal`; the log mutex is taken only
//! to fetch a batch. Batches are immutable once published
//! (`Arc`-shared), so a cursor can be rewound — which is exactly how
//! the shared-log executor replays after a rollback.

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
    /// Number of producer slots that contributed records.
    pub combined_from: usize,
    /// The records, in slot order then per-slot submission order.
    pub records: Vec<T>,
}

/// The shared launch log. See the module docs for the protocol.
pub struct LaunchLog<T> {
    /// Per-producer publication slots.
    slots: Vec<Mutex<Vec<T>>>,
    /// Combiner exclusion: at most one thread drains the slots and
    /// appends at a time.
    combine: Mutex<()>,
    batches: Mutex<Vec<Arc<Batch<T>>>>,
    /// Published batch count, readable without the log mutex (the
    /// lock-free side of the consumer cursor).
    published: AtomicUsize,
    /// Set by [`LaunchLog::seal`]: no further batch will be published.
    sealed: AtomicBool,
    /// Consumers blocked past the end of the log.
    waiters: Waiters,
    /// Maximum records per published batch (`usize::MAX` ⇒ unlimited).
    max_batch: usize,
    /// How long a consumer waits for a batch before giving up.
    hang_timeout: Duration,
}

impl<T> LaunchLog<T> {
    /// A log with `producers` publication slots, at most `max_batch`
    /// records per published batch (0 is treated as unlimited), and
    /// consumers that give up on a batch after `hang_timeout`.
    pub fn new(producers: usize, max_batch: usize, hang_timeout: Duration) -> LaunchLog<T> {
        assert!(
            producers > 0,
            "a launch log needs at least one producer slot"
        );
        LaunchLog {
            slots: (0..producers).map(|_| Mutex::new(Vec::new())).collect(),
            combine: Mutex::new(()),
            batches: Mutex::new(Vec::new()),
            published: AtomicUsize::new(0),
            sealed: AtomicBool::new(false),
            waiters: Waiters::default(),
            max_batch: if max_batch == 0 {
                usize::MAX
            } else {
                max_batch
            },
            hang_timeout,
        }
    }

    /// Hands one operation to the combiner by pushing it into the
    /// producer's publication slot. Nothing is visible to consumers
    /// until a [`LaunchLog::combine`] publishes it.
    pub fn submit(&self, producer: usize, op: T) {
        self.slots[producer]
            .lock()
            .expect("launch-log slot lock poisoned")
            .push(op);
    }

    /// Records currently pending (submitted, not yet combined) in one
    /// producer's slot.
    pub fn pending(&self, producer: usize) -> usize {
        self.slots[producer]
            .lock()
            .expect("launch-log slot lock poisoned")
            .len()
    }

    /// The flat-combining step: drains every publication slot in slot
    /// order into one batch tagged (`epoch`, `step`), appends it
    /// (split into several batches when the record limit demands; only
    /// the first carries `step`), and wakes consumers. An empty
    /// combine publishes nothing — unless `step` is set, in which case
    /// an empty *boundary* batch is still published so consumers see
    /// every epoch boundary. Returns the number of records combined.
    pub fn combine(&self, epoch: u64, step: Option<u64>) -> usize {
        let _combiner = self
            .combine
            .lock()
            .expect("launch-log combiner lock poisoned");
        let mut drained: Vec<T> = Vec::new();
        let mut combined_from = 0usize;
        for slot in &self.slots {
            let mut s = slot.lock().expect("launch-log slot lock poisoned");
            if !s.is_empty() {
                combined_from += 1;
                drained.append(&mut s);
            }
        }
        let n = drained.len();
        if n == 0 && step.is_none() {
            return 0;
        }
        let mut batches = self.batches.lock().expect("launch-log lock poisoned");
        assert!(!self.is_sealed(), "combine on a sealed launch log");
        let mut step = step;
        loop {
            let take = drained.len().min(self.max_batch);
            let rest = drained.split_off(take);
            let index = batches.len();
            batches.push(Arc::new(Batch {
                index,
                epoch,
                step: step.take(),
                combined_from,
                records: drained,
            }));
            drained = rest;
            if drained.is_empty() {
                break;
            }
        }
        self.published.store(batches.len(), Ordering::Release);
        drop(batches);
        self.waiters.wake();
        n
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
        // combine, so a batch published before the seal is in it).
        self.get(index)
    }

    /// Seals the log: no further batches will be published, and every
    /// consumer blocked past the end wakes with `None`. Idempotent.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::Release);
        self.waiters.wake();
    }

    /// Whether the log is sealed.
    pub fn is_sealed(&self) -> bool {
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
    pub fn lag<T>(&self, log: &LaunchLog<T>) -> usize {
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
    fn combine_publishes_in_slot_then_submission_order() {
        let log: LaunchLog<u32> = LaunchLog::new(3, 0, WAIT);
        log.submit(2, 20);
        log.submit(0, 1);
        log.submit(2, 21);
        log.submit(0, 2);
        let n = log.combine(0, None);
        assert_eq!(n, 4);
        let b = log.get(0).unwrap();
        assert_eq!(b.records, vec![1, 2, 20, 21]);
        assert_eq!(b.combined_from, 2, "slot 1 contributed nothing");
        assert_eq!(b.epoch, 0);
        assert_eq!(b.step, None);
    }

    #[test]
    fn batch_limit_splits_with_step_on_first_only() {
        let log: LaunchLog<u32> = LaunchLog::new(1, 2, WAIT);
        for i in 0..5 {
            log.submit(0, i);
        }
        assert_eq!(log.combine(7, Some(3)), 5);
        assert_eq!(log.published(), 3);
        let b0 = log.get(0).unwrap();
        let b1 = log.get(1).unwrap();
        let b2 = log.get(2).unwrap();
        assert_eq!(b0.records, vec![0, 1]);
        assert_eq!(b1.records, vec![2, 3]);
        assert_eq!(b2.records, vec![4]);
        assert_eq!(b0.step, Some(3), "boundary marker on the first split");
        assert_eq!(b1.step, None);
        assert_eq!(b2.step, None);
        assert!(
            [b0, b1, b2].iter().all(|b| b.epoch == 7),
            "every split carries the segment's epoch"
        );
    }

    #[test]
    fn empty_combine_publishes_only_boundary_batches() {
        let log: LaunchLog<u32> = LaunchLog::new(1, 0, WAIT);
        assert_eq!(log.combine(0, None), 0);
        assert_eq!(log.published(), 0, "empty non-boundary combine is a no-op");
        assert_eq!(log.combine(4, Some(4)), 0);
        assert_eq!(log.published(), 1, "empty boundary batch still published");
        let b = log.get(0).unwrap();
        assert!(b.records.is_empty());
        assert_eq!(b.step, Some(4));
        assert_eq!(b.epoch, 4);
    }

    #[test]
    fn cursor_lag_accounting() {
        let log: LaunchLog<u32> = LaunchLog::new(1, 1, WAIT);
        let mut cursor = LogCursor::new();
        assert_eq!(cursor.lag(&log), 0);
        for i in 0..3 {
            log.submit(0, i);
        }
        log.combine(0, None); // 3 batches at limit 1
        assert_eq!(cursor.lag(&log), 3);
        assert_eq!(cursor.take(&log).unwrap().records, vec![0]);
        assert_eq!(cursor.lag(&log), 2);
        cursor.rewind(0);
        assert_eq!(cursor.lag(&log), 3, "rewound cursor sees the lag again");
    }

    #[test]
    fn sealed_log_drains_then_ends() {
        let log: LaunchLog<u32> = LaunchLog::new(1, 0, WAIT);
        log.submit(0, 9);
        log.combine(0, None);
        log.seal();
        log.seal(); // idempotent
        let mut cursor = LogCursor::new();
        assert_eq!(cursor.take(&log).unwrap().records, vec![9]);
        assert!(cursor.take(&log).is_none());
    }

    #[test]
    fn combiner_handoff_under_slow_consumer() {
        // The combiner must never block on a lagging consumer: the log
        // is unbounded, so a slow tail only grows the cursor lag.
        const ROUNDS: u32 = 50;
        let log: LaunchLog<u32> = LaunchLog::new(2, 0, WAIT);
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
                log.submit((round % 2) as usize, round);
                log.combine(u64::from(round), None);
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
        let log: LaunchLog<u32> = LaunchLog::new(1, 0, WAIT);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| log.wait(0).map(|b| b.records.clone()));
            std::thread::sleep(Duration::from_millis(5));
            log.submit(0, 42);
            log.combine(0, None);
            assert_eq!(waiter.join().unwrap(), Some(vec![42]));
        });
    }
}
