//! Lock-free shard data plane: bounded SPSC rings with batched
//! publication — the one transport the executors exchange
//! [`crate::spmd_exec`] copy messages over — and core pinning.
//!
//! The SPMD executors connect every ordered shard pair with exactly one
//! producer and one consumer, so the transport is a single-producer
//! single-consumer ring:
//!
//! * **Layout** — a power-of-two slot array indexed by free-running
//!   `head` (consumer) and `tail` (producer) counters, each on its own
//!   cache line ([`CachePadded`]) so producer and consumer never
//!   false-share. Wrap-around is a mask, full/empty are counter
//!   differences (`tail - head == capacity` / `tail == head`), and the
//!   counters never overflow in practice (a `usize` of messages).
//! * **Memory ordering** — the producer writes the slot *then*
//!   publishes with `tail.store(Release)`; the consumer observes the
//!   new tail with an `Acquire` load, so the slot write
//!   *happens-before* the slot read. Symmetrically the consumer frees
//!   a slot with `head.store(Release)` and the producer re-checks
//!   occupancy with an `Acquire` load, so the consumer's read
//!   happens-before the producer's overwrite. This is the classic
//!   Lamport queue argument; no other synchronization exists on the
//!   hot path.
//! * **Batched publication** — [`RingSender::push`] writes slots
//!   without publishing; one [`RingSender::flush`] makes a whole
//!   producer phase visible with a single `Release` store instead of
//!   one per message. The executors flush before entering a consumer
//!   phase (and `push` self-flushes when the ring fills or the batch
//!   bound is hit), so a peer never waits on an unpublished frame.
//! * **Parking** — a consumer on an empty ring and a producer on a
//!   full one wait through the runtime's one wait primitive
//!   (`crate::wait`): poll for a few microseconds, then register and
//!   park on std's futex-backed parker. Each half wakes the other:
//!   [`RingSender::flush`] and the sender's drop wake the consumer,
//!   the consumer's pops and its drop wake a producer parked on a full
//!   ring. No wake-up is lost: the waker does *store `tail` (or
//!   `head`) → `SeqCst` fence → if the peer is registered, `unpark`*,
//!   the waiter *register → `SeqCst` fence → re-poll*, and the two
//!   fences are totally ordered, so either the waker sees the
//!   registration or the waiter sees the publication. That fence is
//!   what a `flush` and a pop cost beyond the Lamport queue when nobody
//!   is parked — one per published batch and one per message taken;
//!   [`RingSender::push`] stays fence-free. Every blocking wait is
//!   bounded: a receive by the timeout its caller passes, a full-ring
//!   push by the one the ring was built with ([`ring_with_timeout`]).
//! * **Disconnect semantics** — dropping the sender (including during a
//!   panic unwind) flushes pending slots and seals the ring: the
//!   consumer drains what was published, then sees `Disconnected`, so a
//!   shard's death unwinds its peers. Dropping the receiver makes
//!   further sends fail.
//! * **Capacity** — a ring is as large as its caller says. The exchange
//!   mesh ([`copy_mesh`]) is sized per ordered shard pair from the
//!   compiled program's exchange schedule
//!   (`ExchangeSchedule::ring_slots`): enough slots for every frame one
//!   copy statement can address to that peer, so a producer phase never
//!   waits on a consumer that has not reached its consumer phase. A
//!   ring that stays full for the whole hang timeout therefore means
//!   that derivation is wrong (or the consumer is stuck), and is
//!   reported as a likely deadlock.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use crate::config;
use crate::wait::Waiters;

/// Pads (and aligns) a value to a cache line so two adjacent atomics
/// never share one — the producer hammers `tail`, the consumer `head`,
/// and false sharing between them would serialize the whole point of
/// the ring.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// The shared core of one SPSC ring.
struct RingCore<T> {
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will read (free-running).
    head: CachePadded<AtomicUsize>,
    /// First unpublished slot (free-running): the consumer may read
    /// everything in `[head, tail)`.
    tail: CachePadded<AtomicUsize>,
    /// Cleared (after a final flush) when the sender drops.
    tx_alive: AtomicBool,
    /// Cleared when the receiver drops.
    rx_alive: AtomicBool,
    /// The consumer, parked on an empty ring: woken by `flush` and by
    /// the sender's drop.
    rx_waiters: Waiters,
    /// The producer, parked on a full ring: woken by the consumer's
    /// pops and by the receiver's drop.
    tx_waiters: Waiters,
}

// SAFETY: the sender and receiver halves hand `T`s across threads
// (requiring `T: Send`) and partition all slot access by the SPSC
// head/tail protocol documented on the module.
unsafe impl<T: Send> Send for RingCore<T> {}
unsafe impl<T: Send> Sync for RingCore<T> {}

impl<T> Drop for RingCore<T> {
    fn drop(&mut self) {
        // Both halves are gone (`&mut self`), so plain loads are fine;
        // drop every published-but-unconsumed element. The sender's
        // drop flushed, so nothing sits unpublished above `tail`.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
        }
    }
}

/// Why a ring send failed, carrying the unsent value back.
#[derive(Debug)]
pub enum SendError<T> {
    /// The receiver dropped; the message can never be delivered.
    Closed(T),
    /// The ring stayed full for the whole hang timeout — the consumer
    /// is stuck, which in a correctly synchronized run is a deadlock.
    Full(T),
}

/// Producer half of an SPSC ring. Not `Clone` — exactly one producer.
pub struct RingSender<T> {
    core: Arc<RingCore<T>>,
    /// Next slot to write (includes unpublished pushes).
    local_tail: usize,
    /// The value last stored into `core.tail`.
    published: usize,
    /// Last observed consumer position (refreshed only when the ring
    /// looks full, keeping the hot path load-free).
    cached_head: usize,
    /// How long a push waits on a full ring before it returns
    /// [`SendError::Full`].
    pub(crate) timeout: Duration,
}

/// Publish at least every this many pushes even without an explicit
/// flush, bounding consumer latency under long producer phases.
const AUTO_FLUSH: usize = 32;

impl<T: Send> RingSender<T> {
    /// Writes `v` into the ring without necessarily publishing it —
    /// call [`RingSender::flush`] before blocking on anything a peer
    /// must act on. Blocks (bounded by the hang timeout) while the
    /// ring is full. Returns whether the ring was momentarily full
    /// (a back-pressure stall).
    pub fn push(&mut self, v: T) -> Result<bool, SendError<T>> {
        if !self.core.rx_alive.load(Ordering::Acquire) {
            return Err(SendError::Closed(v));
        }
        let cap = self.core.mask + 1;
        let mut stalled = false;
        if self.local_tail - self.cached_head == cap {
            self.cached_head = self.core.head.load(Ordering::Acquire);
            if self.local_tail - self.cached_head == cap {
                // Publish what we have so the consumer can drain it,
                // then wait for a slot.
                self.flush();
                stalled = true;
                let (core, local_tail) = (&*self.core, self.local_tail);
                let freed = core.tx_waiters.wait(self.timeout, || {
                    if !core.rx_alive.load(Ordering::Acquire) {
                        return Some(None);
                    }
                    let head = core.head.load(Ordering::Acquire);
                    (local_tail - head < cap).then_some(Some(head))
                });
                match freed {
                    Some(Some(head)) => self.cached_head = head,
                    Some(None) => return Err(SendError::Closed(v)),
                    None => return Err(SendError::Full(v)),
                }
            }
        }
        unsafe { (*self.core.slots[self.local_tail & self.core.mask].get()).write(v) };
        self.local_tail += 1;
        if self.local_tail - self.published >= AUTO_FLUSH {
            self.flush();
        }
        Ok(stalled)
    }

    /// Publishes every pending push with a single `Release` store,
    /// then wakes the consumer if it is parked.
    pub fn flush(&mut self) {
        if self.local_tail != self.published {
            self.core.tail.0.store(self.local_tail, Ordering::Release);
            self.published = self.local_tail;
            self.core.rx_waiters.wake();
        }
    }

    /// [`RingSender::push`] + [`RingSender::flush`]: an immediate,
    /// published send.
    pub fn send(&mut self, v: T) -> Result<bool, SendError<T>> {
        let r = self.push(v);
        self.flush();
        r
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        // Seal: publish everything written (harmless if the receiver
        // is already gone), then mark the producer dead so the
        // consumer unwinds with `Disconnected` after draining. Runs
        // during panic unwinds too — that is the peer-death semantics
        // the executors' diagnostics rely on.
        if self.local_tail != self.published {
            self.core.tail.0.store(self.local_tail, Ordering::Release);
        }
        self.core.tx_alive.store(false, Ordering::Release);
        // A parked consumer learns of the death now.
        self.core.rx_waiters.wake();
    }
}

/// Consumer half of an SPSC ring. Not `Clone` — exactly one consumer.
pub struct RingReceiver<T> {
    core: Arc<RingCore<T>>,
    /// Next slot to read (mirror of `core.head`, owned here).
    local_head: usize,
    /// Last observed published tail.
    cached_tail: usize,
}

impl<T: Send> RingReceiver<T> {
    /// Takes the next published element, if any.
    pub fn try_recv(&mut self) -> Option<T> {
        pop(&self.core, &mut self.local_head, &mut self.cached_tail)
    }

    /// Blocks for the next element, up to `timeout`: `Timeout` when
    /// nothing was published in time, `Disconnected` once the sender
    /// dropped *and* the ring is drained (the sender's drop publishes
    /// before sealing, so no message is ever lost).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        if let Some(v) = self.try_recv() {
            return Ok(v);
        }
        let RingReceiver {
            core,
            local_head,
            cached_tail,
        } = self;
        let core: &RingCore<T> = core;
        core.rx_waiters
            .wait(timeout, || {
                if let Some(v) = pop(core, local_head, cached_tail) {
                    return Some(Ok(v));
                }
                if !core.tx_alive.load(Ordering::Acquire) {
                    // The sender's final publish happened-before the
                    // seal we just observed; one more look drains it.
                    return Some(
                        pop(core, local_head, cached_tail).ok_or(RecvTimeoutError::Disconnected),
                    );
                }
                None
            })
            .unwrap_or(Err(RecvTimeoutError::Timeout))
    }
}

/// The consumer's pop, over the receiver's fields one by one so that a
/// wait can poll it while borrowing the core for its waiter set.
fn pop<T>(core: &RingCore<T>, local_head: &mut usize, cached_tail: &mut usize) -> Option<T> {
    if *local_head == *cached_tail {
        *cached_tail = core.tail.0.load(Ordering::Acquire);
        if *local_head == *cached_tail {
            return None;
        }
    }
    // SAFETY: `[head, tail)` is published and only this (the one)
    // consumer reads it; the `Acquire` load of `tail` above makes the
    // producer's slot write visible, and the slot is not reused until
    // the `Release` store of `head` below.
    let v = unsafe { (*core.slots[*local_head & core.mask].get()).assume_init_read() };
    *local_head += 1;
    core.head.0.store(*local_head, Ordering::Release);
    core.tx_waiters.wake();
    Some(v)
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.core.rx_alive.store(false, Ordering::Release);
        // A producer parked on a full ring fails its send now.
        self.core.tx_waiters.wake();
        // Undelivered elements are dropped by `RingCore::drop` once
        // the sender's Arc is gone too.
    }
}

/// Creates a bounded SPSC ring holding up to `capacity` elements
/// (rounded up to a power of two, minimum 2) whose full-ring waits give
/// up after the process's hang timeout.
pub fn ring<T: Send>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    ring_with_timeout(capacity, config::process().hang_timeout)
}

/// [`ring`] whose full-ring waits give up after `timeout`.
pub fn ring_with_timeout<T: Send>(
    capacity: usize,
    timeout: Duration,
) -> (RingSender<T>, RingReceiver<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let core = Arc::new(RingCore {
        mask: cap - 1,
        slots,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        tx_alive: AtomicBool::new(true),
        rx_alive: AtomicBool::new(true),
        rx_waiters: Waiters::default(),
        tx_waiters: Waiters::default(),
    });
    (
        RingSender {
            core: Arc::clone(&core),
            local_tail: 0,
            published: 0,
            cached_head: 0,
            timeout,
        },
        RingReceiver {
            core,
            local_head: 0,
            cached_tail: 0,
        },
    )
}

/// Pins the calling thread to `core` (modulo the machine's available
/// parallelism). Returns whether the affinity call succeeded; on
/// non-Linux targets (or unsupported architectures) this is a no-op
/// returning `false`. Implemented as a raw `sched_setaffinity`
/// syscall: the workspace links no libc crate.
pub(crate) fn pin_thread_to_core(core: usize) -> bool {
    let ncpu = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let cpu = core % ncpu.max(1);
    pin_syscall(cpu)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_syscall(cpu: usize) -> bool {
    let mut mask = [0u64; 16]; // 1024-CPU mask
    mask[cpu / 64] = 1u64 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(0, sizeof mask, &mask) reads `mask`
    // only for the duration of the call.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn pin_syscall(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    let ret: isize;
    // SAFETY: as above; aarch64 passes the syscall number in x8.
    unsafe {
        std::arch::asm!(
            "svc #0",
            inlateout("x0") 0usize => ret,
            in("x1") std::mem::size_of_val(&mask),
            in("x2") mask.as_ptr(),
            in("x8") 122usize, // __NR_sched_setaffinity
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn pin_syscall(_cpu: usize) -> bool {
    false
}

/// Builds the full exchange mesh for `ns` shards:
/// `senders[src][dst]` paired with `receivers[dst][src]`, one
/// independent SPSC ring per ordered pair, holding `capacity(src, dst)`
/// messages (rounded as [`ring`] rounds) and giving up on a full ring
/// after `timeout`. Each shard thread takes ownership of its sender
/// row, so a dying shard seals every link it produces into and its
/// peers unwind instead of hanging.
#[allow(clippy::type_complexity)]
pub fn copy_mesh<T: Send>(
    ns: usize,
    capacity: impl Fn(usize, usize) -> usize,
    timeout: Duration,
) -> (Vec<Vec<RingSender<T>>>, Vec<Vec<RingReceiver<T>>>) {
    let mut senders: Vec<Vec<RingSender<T>>> = (0..ns).map(|_| Vec::with_capacity(ns)).collect();
    let mut receivers: Vec<Vec<RingReceiver<T>>> =
        (0..ns).map(|_| Vec::with_capacity(ns)).collect();
    // Source-major, so each receiver row fills in source order.
    for (src, row) in senders.iter_mut().enumerate() {
        for (dst, rx_row) in receivers.iter_mut().enumerate() {
            let (tx, rx) = ring_with_timeout::<T>(capacity(src, dst), timeout);
            row.push(tx);
            rx_row.push(rx);
        }
    }
    (senders, receivers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_through_wraparound() {
        let (mut tx, mut rx) = ring::<u64>(4);
        for round in 0..64u64 {
            for i in 0..3 {
                tx.push(round * 10 + i).unwrap();
            }
            tx.flush();
            for i in 0..3 {
                assert_eq!(rx.try_recv(), Some(round * 10 + i));
            }
            assert!(rx.try_recv().is_none());
        }
    }

    #[test]
    fn unflushed_pushes_are_invisible_until_flush() {
        let (mut tx, mut rx) = ring::<u32>(16);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert!(rx.try_recv().is_none(), "batched pushes must not publish");
        tx.flush();
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
    }

    #[test]
    fn sender_drop_seals_after_publishing() {
        let (mut tx, mut rx) = ring::<u32>(8);
        tx.push(7).unwrap();
        drop(tx); // drop must flush the pending push, then seal
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(7));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn receiver_drop_fails_sends() {
        let (mut tx, rx) = ring::<u32>(8);
        drop(rx);
        assert!(matches!(tx.push(1), Err(SendError::Closed(1))));
    }

    #[test]
    fn empty_ring_times_out() {
        let (_tx, mut rx) = ring::<u32>(8);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn dropped_ring_drops_undelivered_elements() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = ring::<D>(8);
        tx.push(D).unwrap();
        tx.push(D).unwrap();
        tx.flush();
        drop(rx);
        drop(tx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
