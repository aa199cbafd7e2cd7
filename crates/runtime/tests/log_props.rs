//! Property tests for the flat-combining launch log: however appends
//! are interleaved across producers and combine points, the consumed
//! sequence is exactly the deterministic flat-combining order — FIFO
//! per producer, producers drained in slot order at each combine, and
//! rewinding a cursor replays the identical suffix.
//!
//! Gated behind the `proptest-tests` cargo feature: proptest is not
//! part of the offline dependency set, so the default `cargo test`
//! skips this file (see the workspace Cargo.toml for how to restore
//! the dev-dependency).

#![cfg(feature = "proptest-tests")]

use proptest::prelude::*;
use regent_runtime::{LaunchLog, LogCursor};
use std::time::Duration;

/// Nothing here waits on an unpublished batch.
const HANG_TIMEOUT: Duration = Duration::from_secs(30);

/// Drains everything published so far (the log must be sealed).
fn drain(log: &LaunchLog<u32>) -> Vec<Vec<u32>> {
    let mut cursor = LogCursor::new();
    let mut out = Vec::new();
    while let Some(b) = cursor.take(log) {
        out.push(b.records.clone());
    }
    out
}

proptest! {
    /// A single producer with arbitrary combine points and batch
    /// limits: the concatenated consumed records equal the submitted
    /// sequence, every batch respects the limit, and epochs are
    /// nondecreasing across batches.
    #[test]
    fn single_producer_any_batching_preserves_sequence(
        ops in prop::collection::vec((0u32..1000, any::<bool>()), 0..60),
        max_batch in 1usize..8,
    ) {
        let log = LaunchLog::new(1, max_batch, HANG_TIMEOUT);
        let mut epoch = 0u64;
        for (op, combine_here) in &ops {
            log.submit(0, *op);
            if *combine_here {
                log.combine(epoch, None);
                epoch += 1;
            }
        }
        log.combine(epoch, Some(epoch));
        log.seal();

        let batches: Vec<_> = (0..log.published())
            .map(|i| log.get(i).unwrap())
            .collect();
        let consumed: Vec<u32> = batches.iter().flat_map(|b| b.records.clone()).collect();
        let submitted: Vec<u32> = ops.iter().map(|(op, _)| *op).collect();
        prop_assert_eq!(consumed, submitted);
        for w in batches.windows(2) {
            prop_assert!(w[0].epoch <= w[1].epoch, "epochs went backwards");
        }
        for b in &batches {
            prop_assert!(b.records.len() <= max_batch, "batch over the limit");
        }
    }

    /// Multiple producers: whatever the submission interleaving, each
    /// combine drains producers in slot order with per-producer FIFO
    /// preserved — the consumed sequence is a pure function of the
    /// per-round per-producer subsequences.
    #[test]
    fn flat_combining_is_slot_ordered_and_fifo_per_producer(
        producers in 1usize..4,
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..4, 0u32..1000), 0..12),
            1..6,
        ),
    ) {
        let log = LaunchLog::new(producers, usize::MAX, HANG_TIMEOUT);
        let mut expected: Vec<u32> = Vec::new();
        for (epoch, round) in rounds.iter().enumerate() {
            let mut per: Vec<Vec<u32>> = vec![Vec::new(); producers];
            for (p, op) in round {
                let p = p % producers;
                log.submit(p, *op);
                per[p].push(*op);
            }
            log.combine(epoch as u64, None);
            for seq in per {
                expected.extend(seq);
            }
        }
        log.seal();
        let consumed: Vec<u32> = drain(&log).into_iter().flatten().collect();
        prop_assert_eq!(consumed, expected);
    }

    /// Rewinding a cursor to any already-consumed batch replays the
    /// identical suffix — the invariant rollback recovery relies on.
    #[test]
    fn rewind_replays_the_identical_suffix(
        ops in prop::collection::vec((0u32..1000, any::<bool>()), 1..40),
    ) {
        let log = LaunchLog::new(1, 4, HANG_TIMEOUT);
        for (epoch, (op, combine_here)) in ops.iter().enumerate() {
            log.submit(0, *op);
            if *combine_here {
                log.combine(epoch as u64, None);
            }
        }
        log.combine(ops.len() as u64, None);
        log.seal();
        let first = drain(&log);
        for to in 0..=first.len() {
            let mut cursor = LogCursor::new();
            while cursor.take(&log).is_some() {}
            cursor.rewind(to);
            let mut replay = Vec::new();
            while let Some(b) = cursor.take(&log) {
                replay.push(b.records.clone());
            }
            prop_assert_eq!(&replay[..], &first[to..]);
        }
    }
}
