//! Concurrency battery for the lock-free data plane: the SPSC ring
//! ([`regent_runtime::ring`]) and the buffer pool
//! ([`regent_runtime::ChunkPool`]).
//!
//! The deterministic half: wrap-around FIFO under a two-thread stress,
//! full/empty boundary behavior, seal-on-panic drains, mesh pair
//! isolation, and pool recycle-vs-fresh bit identity. The scenarios that wait on a full ring build theirs with
//! a small hang timeout ([`HANG_TIMEOUT`]).
//!
//! The property half (model-based interleavings against a `VecDeque`
//! reference) draws its cases from the seeded runner in
//! `tests/support/prop.rs`, like the other property suites.

#[path = "../../../tests/support/prop.rs"]
mod prop;

use regent_runtime::{ring, ring_with_timeout, ChunkPool, SendError};
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// How long a push may wait on a full ring in these scenarios.
const HANG_TIMEOUT: Duration = Duration::from_millis(2000);

#[test]
fn ring_battery() {
    fifo_through_wraparound_two_threads();
    full_ring_returns_payload_after_timeout();
    empty_ring_times_out_then_delivers();
    seal_on_panic_publishes_then_disconnects();
    receiver_drop_fails_producer_send();
    mesh_pairs_are_isolated_fifo();
    pool_recycle_is_bit_identical_to_fresh();
}

/// Two threads, a deliberately tiny ring (capacity 8), and enough
/// messages to wrap the index space thousands of times: the consumer
/// must observe exactly 0..N in order — any lost publication, double
/// delivery, or torn slot read breaks the sequence.
fn fifo_through_wraparound_two_threads() {
    const N: u64 = 100_000;
    let (mut tx, mut rx) = ring::<u64>(8);
    let producer = std::thread::spawn(move || {
        for i in 0..N {
            // Mix batched pushes with explicit flushes so both
            // publication paths (auto-flush and manual) are exercised.
            if i % 3 == 0 {
                tx.send(i).expect("consumer alive");
            } else {
                tx.push(i).expect("consumer alive");
            }
        }
        // Sender drop publishes the tail batch.
    });
    for expect in 0..N {
        let got = rx
            .recv_timeout(Duration::from_millis(2000))
            .expect("producer alive and ahead");
        assert_eq!(got, expect, "FIFO violated at message {expect}");
    }
    producer.join().unwrap();
    assert!(rx.try_recv().is_none(), "exactly N messages, no more");
}

/// A ring whose consumer never drains: the producer fills all slots,
/// then the next push waits one hang timeout and hands the payload
/// back as `SendError::Full` instead of losing it.
fn full_ring_returns_payload_after_timeout() {
    let (mut tx, _rx) = ring_with_timeout::<u64>(2, HANG_TIMEOUT);
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    match tx.send(3) {
        Err(SendError::Full(v)) => assert_eq!(v, 3, "payload handed back"),
        other => panic!("expected Full after hang timeout, got {other:?}"),
    }
}

/// Empty-ring receive times out without consuming anything; a
/// subsequent publication is still delivered (the timeout left the
/// cursor intact).
fn empty_ring_times_out_then_delivers() {
    let (mut tx, mut rx) = ring::<u64>(4);
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(20)),
        Err(RecvTimeoutError::Timeout)
    ));
    tx.send(7).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_millis(2000)), Ok(7));
}

/// A producer that panics mid-stream: unwinding drops the sender,
/// which must publish the not-yet-flushed batch *then* seal — the
/// consumer drains every pushed message before seeing Disconnected.
/// This is the transport half of shard-death unwinding: peers get the
/// dead shard's last words, then a clean disconnect diagnostic.
fn seal_on_panic_publishes_then_disconnects() {
    let (mut tx, mut rx) = ring::<u64>(16);
    let producer = std::thread::spawn(move || {
        tx.send(1).unwrap();
        tx.push(2).unwrap(); // unflushed on purpose
        tx.push(3).unwrap(); // unflushed on purpose
        panic!("shard died mid-exchange");
    });
    assert!(producer.join().is_err(), "producer panicked by design");
    let mut drained = Vec::new();
    loop {
        match rx.recv_timeout(Duration::from_millis(2000)) {
            Ok(v) => drained.push(v),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => panic!("seal lost: consumer hung"),
        }
    }
    assert_eq!(
        drained,
        vec![1, 2, 3],
        "unflushed pushes published on unwind"
    );
}

/// The mirror image: a consumer that dies fails the producer's next
/// send with `SendError::Closed` (carrying the payload) instead of
/// letting it fill the ring and stall.
fn receiver_drop_fails_producer_send() {
    let (mut tx, rx) = ring::<u64>(4);
    tx.send(1).unwrap();
    drop(rx);
    match tx.send(2) {
        Err(SendError::Closed(v)) => assert_eq!(v, 2),
        other => panic!("expected Closed, got {other:?}"),
    }
}

/// The executor mesh: every ordered shard pair gets its own ring of its
/// own capacity, so traffic on one pair can neither reorder nor leak
/// into another — nor can back-pressure. The capacities are
/// deliberately uneven (2, 4 or 16 slots by pair) and every stream is
/// far longer than any of them, so full rings and parked producers
/// coexist with flowing neighbours throughout. Three shards send
/// distinct tagged streams to each other concurrently; every receiver
/// sees exactly its own stream, in order.
fn mesh_pairs_are_isolated_fifo() {
    use regent_runtime::copy_mesh;
    const PER_PAIR: u64 = 2_000;
    let ns = 3;
    let (senders, receivers) =
        copy_mesh::<u64>(ns, |src, dst| [2, 4, 16][(src + 2 * dst) % 3], HANG_TIMEOUT);
    std::thread::scope(|scope| {
        for (src, row) in senders.into_iter().enumerate() {
            scope.spawn(move || {
                let mut row = row;
                for i in 0..PER_PAIR {
                    for (dst, tx) in row.iter_mut().enumerate() {
                        // Tag with (src, dst, seq) packed into the value.
                        tx.send(((src as u64) << 40) | ((dst as u64) << 32) | i)
                            .expect("receiver alive");
                    }
                }
            });
        }
        for (dst, row) in receivers.into_iter().enumerate() {
            scope.spawn(move || {
                // Source by source: while source 0's streams drain,
                // every ring out of sources 1 and 2 sits full with its
                // producer parked.
                let mut row = row;
                for (src, rx) in row.iter_mut().enumerate() {
                    for i in 0..PER_PAIR {
                        let v = rx
                            .recv_timeout(Duration::from_millis(2000))
                            .expect("sender alive");
                        assert_eq!(
                            v,
                            ((src as u64) << 40) | ((dst as u64) << 32) | i,
                            "pair ({src}->{dst}) stream corrupted at {i}"
                        );
                    }
                }
            });
        }
    });
}

/// Buffers drawn from the pool must be indistinguishable from fresh
/// allocations: recycling clears content but a recycled buffer filled
/// with the same writes must be bit-identical to a fresh one —
/// including NaN payloads and negative-zero, which only survive
/// bit-level comparison.
fn pool_recycle_is_bit_identical_to_fresh() {
    let patterns: Vec<f64> = vec![
        f64::NAN,
        f64::from_bits(0x7ff8_dead_beef_cafe), // payload-carrying NaN
        -0.0,
        f64::INFINITY,
        f64::MIN_POSITIVE / 2.0, // subnormal
        1.0 / 3.0,
    ];
    let ints: Vec<i64> = vec![i64::MIN, -1, 0, 1, i64::MAX];

    let mut pool = ChunkPool::new();
    // Round 1: fresh allocations.
    let mut a = pool.take_f64(patterns.len());
    a.extend(&patterns);
    let mut ai = pool.take_i64(ints.len());
    ai.extend(&ints);
    assert_eq!(pool.allocs(), 2);
    assert_eq!(pool.reuses(), 0);
    let fresh_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
    let fresh_ints = ai.clone();

    // Recycle and redraw: the pool must hand the arena back (reuse
    // counter advances) and the refilled buffer must match bit-for-bit.
    pool.put_f64(a);
    pool.put_i64(ai);
    let mut b = pool.take_f64(patterns.len());
    assert!(b.is_empty(), "recycled buffer arrives cleared");
    b.extend(&patterns);
    let mut bi = pool.take_i64(ints.len());
    bi.extend(&ints);
    assert_eq!(pool.reuses(), 2, "second draw reuses the arenas");
    assert_eq!(pool.allocs(), 2, "no new allocations on reuse");
    let recycled_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
    assert_eq!(recycled_bits, fresh_bits, "f64 recycle is bit-identical");
    assert_eq!(bi, fresh_ints, "i64 recycle is identical");
}

/// Model-based interleavings against a `VecDeque` reference, on cases
/// from the seeded runner in `tests/support/prop.rs`.
mod props {
    use super::prop::{self, Gen};
    use regent_runtime::ring;
    use std::collections::VecDeque;
    use std::time::Duration;

    /// Cases drawn per property.
    const CASES: u64 = 256;

    /// Seeds of past failures, replayed by every property first.
    const REGRESSIONS: &[u64] = &[];

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Push(u32),
        Flush,
        Recv,
    }

    /// Push, flush and receive, weighted 3 : 1 : 3.
    fn op(g: &mut Gen) -> Op {
        match g.pick(&[0, 0, 0, 1, 2, 2, 2]) {
            0 => Op::Push(g.range(0u32..10_000)),
            1 => Op::Flush,
            _ => Op::Recv,
        }
    }

    /// The ring's auto-flush bound, observed rather than restated: the
    /// number of unflushed pushes after which a push becomes visible
    /// on its own, in a ring too large to fill.
    fn auto_flush_bound() -> usize {
        let (mut tx, mut rx) = ring::<u32>(1024);
        (1..=1024)
            .find(|&n| {
                tx.push(n as u32).expect("consumer alive");
                rx.try_recv().is_some()
            })
            .expect("a ring publishes before its capacity is reached")
    }

    /// Arbitrary push/flush/recv schedules against a tiny ring: the
    /// ring must agree with a capacity-bounded VecDeque model at every
    /// step — published items drain FIFO, unflushed pushes stay
    /// invisible, and wrap-around never loses or duplicates a slot.
    /// Pushes that would overfill the model are rewritten to receives
    /// so the test never sits out a hang-timeout wait.
    #[test]
    fn ring_matches_vecdeque_model() {
        let auto_flush = auto_flush_bound();
        prop::check(
            "ring_matches_vecdeque_model",
            CASES,
            REGRESSIONS,
            // Capacity 2, 4 or 8: wrap constantly.
            |g| (g.vec(0..200, op), g.range(1u32..4)),
            |&(ref ops, cap_pow)| {
                let cap = 1usize << cap_pow;
                let (mut tx, mut rx) = ring::<u32>(cap);
                let mut published: VecDeque<u32> = VecDeque::new();
                let mut pending: VecDeque<u32> = VecDeque::new();
                for &op in ops {
                    let op = match op {
                        // A push into a full ring would block for the
                        // hang timeout; the model downgrades it to a
                        // receive.
                        Op::Push(_) if published.len() + pending.len() == cap => Op::Recv,
                        other => other,
                    };
                    match op {
                        Op::Push(v) => {
                            assert!(tx.push(v).is_ok());
                            pending.push_back(v);
                            if pending.len() >= auto_flush {
                                published.append(&mut pending);
                            }
                        }
                        Op::Flush => {
                            tx.flush();
                            published.append(&mut pending);
                        }
                        Op::Recv => {
                            let expect = published.pop_front();
                            let got = rx.try_recv();
                            assert_eq!(got, expect, "ring diverged from model");
                        }
                    }
                }
                // Drain: everything ever pushed must come out, in order.
                tx.flush();
                published.append(&mut pending);
                while let Some(expect) = published.pop_front() {
                    assert_eq!(rx.try_recv(), Some(expect));
                }
                assert!(rx.try_recv().is_none());
            },
        );
    }

    /// Seal-on-drop at an arbitrary published/pending split: the
    /// consumer drains exactly the pushed prefix (drop publishes the
    /// pending suffix) and then observes Disconnected.
    #[test]
    fn sender_drop_always_drains_then_disconnects() {
        prop::check(
            "sender_drop_always_drains_then_disconnects",
            CASES,
            REGRESSIONS,
            |g| (g.range(0usize..6), g.range(0usize..6)),
            |&(n_published, n_pending)| {
                let (mut tx, mut rx) = ring::<u32>(16);
                for i in 0..n_published {
                    tx.send(i as u32).unwrap();
                }
                for i in 0..n_pending {
                    tx.push((n_published + i) as u32).unwrap();
                }
                drop(tx);
                for i in 0..(n_published + n_pending) {
                    assert_eq!(rx.recv_timeout(Duration::from_millis(500)), Ok(i as u32));
                }
                assert!(matches!(
                    rx.recv_timeout(Duration::from_millis(500)),
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
                ));
            },
        );
    }
}
