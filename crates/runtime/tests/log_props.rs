//! Property tests for the launch log: however records are grouped into
//! batches, the consumed sequence is exactly the published one, epochs
//! never go backwards, and rewinding a cursor replays the identical
//! suffix. Cases come from the seeded runner in
//! `tests/support/prop.rs`; a failure names its seed.

#[path = "../../../tests/support/prop.rs"]
mod prop;

use prop::Gen;
use regent_runtime::{LaunchLog, LogCursor};
use std::time::Duration;

/// Cases drawn per property.
const CASES: u64 = 256;

/// Seeds of past failures, replayed by every property first.
const REGRESSIONS: &[u64] = &[];

/// Nothing here waits on an unpublished batch.
const HANG_TIMEOUT: Duration = Duration::from_secs(30);

/// Records of `0..1000`, each flagged to close a batch after it or
/// not; the record count is drawn from `len`.
fn ops(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<(u32, bool)> {
    g.vec(len, |g| (g.range(0u32..1000), g.bool()))
}

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

/// Arbitrary batch boundaries: the concatenated consumed records equal
/// the published sequence, and epochs are nondecreasing across batches.
#[test]
fn single_producer_any_batching_preserves_sequence() {
    prop::check(
        "single_producer_any_batching_preserves_sequence",
        CASES,
        REGRESSIONS,
        |g| ops(g, 0..60),
        |ops| {
            let log = LaunchLog::new(HANG_TIMEOUT);
            publish_all(&log, ops);
            let batches: Vec<_> = (0..log.published()).map(|i| log.get(i).unwrap()).collect();
            let consumed: Vec<u32> = batches.iter().flat_map(|b| b.records.clone()).collect();
            let published: Vec<u32> = ops.iter().map(|(op, _)| *op).collect();
            assert_eq!(consumed, published);
            for w in batches.windows(2) {
                assert!(w[0].epoch <= w[1].epoch, "epochs went backwards");
            }
        },
    );
}

/// Rewinding a cursor to any already-consumed batch replays the
/// identical suffix — the invariant rollback recovery relies on.
#[test]
fn rewind_replays_the_identical_suffix() {
    prop::check(
        "rewind_replays_the_identical_suffix",
        CASES,
        REGRESSIONS,
        |g| ops(g, 1..40),
        |ops| {
            let log = LaunchLog::new(HANG_TIMEOUT);
            publish_all(&log, ops);
            let first = drain(&log);
            for to in 0..=first.len() {
                let mut cursor = LogCursor::new();
                while cursor.take(&log).is_some() {}
                cursor.rewind(to);
                let mut replay = Vec::new();
                while let Some(b) = cursor.take(&log) {
                    replay.push(b.records.clone());
                }
                assert_eq!(&replay[..], &first[to..]);
            }
        },
    );
}
