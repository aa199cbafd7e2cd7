//! Property tests for the launch log: however records are grouped into
//! batches, the consumed sequence is exactly the published one, epochs
//! never go backwards, and rewinding a cursor replays the identical
//! suffix.
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

/// Publishes `ops` in order, closing a batch after every op flagged
/// `true` and at the end (a boundary batch), the epoch counting closed
/// batches; then seals the log.
fn publish_all(log: &LaunchLog<u32>, ops: &[(u32, bool)]) {
    let mut pending = Vec::new();
    let mut epoch = 0u64;
    for (op, close_here) in ops {
        pending.push(*op);
        if *close_here {
            log.publish(epoch, None, std::mem::take(&mut pending));
            epoch += 1;
        }
    }
    log.publish(epoch, Some(epoch), pending);
    log.seal();
}

proptest! {
    /// Arbitrary batch boundaries: the concatenated consumed records
    /// equal the published sequence, and epochs are nondecreasing
    /// across batches.
    #[test]
    fn single_producer_any_batching_preserves_sequence(
        ops in prop::collection::vec((0u32..1000, any::<bool>()), 0..60),
    ) {
        let log = LaunchLog::new(HANG_TIMEOUT);
        publish_all(&log, &ops);
        let batches: Vec<_> = (0..log.published())
            .map(|i| log.get(i).unwrap())
            .collect();
        let consumed: Vec<u32> = batches.iter().flat_map(|b| b.records.clone()).collect();
        let published: Vec<u32> = ops.iter().map(|(op, _)| *op).collect();
        prop_assert_eq!(consumed, published);
        for w in batches.windows(2) {
            prop_assert!(w[0].epoch <= w[1].epoch, "epochs went backwards");
        }
    }

    /// Rewinding a cursor to any already-consumed batch replays the
    /// identical suffix — the invariant rollback recovery relies on.
    #[test]
    fn rewind_replays_the_identical_suffix(
        ops in prop::collection::vec((0u32..1000, any::<bool>()), 1..40),
    ) {
        let log = LaunchLog::new(HANG_TIMEOUT);
        publish_all(&log, &ops);
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
