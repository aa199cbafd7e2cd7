//! Synchronization primitives for shard execution.
//!
//! * [`DynamicCollective`] — the scalar all-reduce of §4.4: "scalars are
//!   accumulated into local values that are then reduced across the
//!   machine with a Legion dynamic collective... The result is then
//!   broadcast to all shards." Fold order is shard-index order, which —
//!   combined with block ownership — reproduces the sequential fold
//!   order bit-for-bit.
//! * [`ShardBarrier`] — a reusable barrier for the naive
//!   synchronization mode (Fig. 4c).
//!
//! Both are one lock-free rendezvous (`Rendezvous`): an arrival counter
//! and a published generation word, with early arrivers waiting through
//! the runtime's one wait primitive (`crate::wait`: spin briefly, then
//! park) and the last arriver — or whoever poisons the rendezvous —
//! waking them. A wait is bounded by the hang timeout the primitive was
//! built with (`with_timeout`; `new` takes the process's), after which
//! it panics with a "likely deadlock" diagnostic instead of hanging.
//! The collective adds one padded contribution slot per shard and a
//! result word around it.
//!
//! Both primitives expose their *generation* numbers (`*_counted`
//! variants) so callers can record synchronization events the trace
//! validator can correlate across shard event logs.

use crate::config;
use crate::ring::CachePadded;
use crate::wait::Waiters;
use regent_fault::PeerDeath;
use regent_region::{striped_fnv, ReductionOp};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A checksum-framed collective contribution: the scalar's bit pattern
/// plus a checksum — the integrity layer's one hasher,
/// [`regent_region::StripedFnv`] — computed by the producer *before*
/// the value entered the (corruptible) transport. The integrity layer
/// verifies the frame on acceptance into the collective, so a silently
/// flipped contribution never reaches the fold.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FramedScalar {
    /// The contribution's `f64::to_bits` pattern.
    pub bits: u64,
    /// Checksum of `bits` at production time.
    pub checksum: u64,
}

impl FramedScalar {
    /// Frames `value` with a fresh checksum.
    pub(crate) fn new(value: f64) -> Self {
        let bits = value.to_bits();
        FramedScalar {
            bits,
            checksum: striped_fnv([bits]),
        }
    }

    /// True when the payload still matches its checksum.
    pub(crate) fn verify(&self) -> bool {
        striped_fnv([self.bits]) == self.checksum
    }

    /// The carried scalar.
    pub(crate) fn value(&self) -> f64 {
        f64::from_bits(self.bits)
    }
}

/// Renders a poison cause as a diagnostic suffix (`"" ` when unknown).
fn cause_suffix(cause: &Option<PeerDeath>) -> String {
    match cause {
        Some(d) => format!(" [{d}]"),
        None => String::new(),
    }
}

/// How a wait at a [`Rendezvous`] ended without the generation
/// advancing.
enum Stuck {
    /// A participant died; the rendezvous will never complete.
    Poisoned,
    /// The hang timeout ran out.
    TimedOut,
}

/// The reusable `n`-party rendezvous under [`ShardBarrier`] and
/// [`DynamicCollective`].
///
/// Arrival is one `fetch_add` on a padded counter and the round is
/// published through a generation word, so the per-round cost is two
/// cache-line transfers; early arrivers wait on `waiters`, bounded by
/// `timeout`.
///
/// Ordering argument: each arrival's `AcqRel` `fetch_add` reads the
/// previous arrival's, so the last arriver happens-after every
/// participant's pre-arrival writes; it then `Release`-stores the next
/// generation, which every waiter `Acquire`-loads — making all
/// pre-arrival writes, and whatever the last arriver wrote before
/// releasing, visible to all post-rendezvous reads. The `arrived`
/// counter is reset *before* the generation is published, and waiters
/// never touch `arrived` while waiting, so re-entrant arrivals for the
/// next round (which must first observe the new generation) always see
/// the reset.
///
/// No wake-up is lost: the releaser publishes the generation and then
/// calls [`Waiters::wake`], a waiter registers and then re-polls the
/// generation (see `crate::wait`); `poison` does the same with the
/// poison flag, so parked waiters unwind at once.
struct Rendezvous {
    n: usize,
    generation: CachePadded<AtomicU64>,
    arrived: CachePadded<AtomicUsize>,
    poisoned: AtomicBool,
    /// Structured root cause, written (once) before the `poisoned`
    /// flag's release store so any waiter that observes the flag also
    /// observes the cause. Off the hot path: only touched on death.
    cause: Mutex<Option<PeerDeath>>,
    waiters: Waiters,
    /// How long an early arriver waits before giving up.
    timeout: Duration,
}

impl Rendezvous {
    fn new(n: usize, timeout: Duration) -> Self {
        assert!(n > 0);
        Rendezvous {
            n,
            timeout,
            generation: CachePadded(AtomicU64::new(0)),
            arrived: CachePadded(AtomicUsize::new(0)),
            poisoned: AtomicBool::new(false),
            cause: Mutex::new(None),
            waiters: Waiters::default(),
        }
    }

    /// Marks the rendezvous dead and wakes every waiter. The first
    /// recorded cause wins: secondary failures cascading through the
    /// poison never overwrite the original death.
    fn poison(&self, death: Option<PeerDeath>) {
        if let Some(death) = death {
            let mut c = self.cause.lock().unwrap_or_else(|e| e.into_inner());
            if c.is_none() {
                *c = Some(death);
            }
        }
        self.poisoned.store(true, Ordering::Release);
        self.waiters.wake();
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The structured cause of poisoning, when one was recorded.
    fn cause(&self) -> Option<PeerDeath> {
        *self.cause.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The round an arrival now would belong to. Safe to read before
    /// arriving: the generation cannot advance until all `n`
    /// participants (including the caller) have arrived.
    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Arrivals of the current round so far (for diagnostics).
    fn arrived(&self) -> usize {
        self.arrived.load(Ordering::Relaxed)
    }

    /// Arrives at round `my_gen`. The last arriver runs `complete`
    /// (which sees every participant's pre-arrival writes), releases
    /// the round and wakes the others; everyone else waits for that.
    fn arrive(&self, my_gen: u64, complete: impl FnOnce()) -> Result<(), Stuck> {
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            complete();
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(my_gen + 1, Ordering::Release);
            self.waiters.wake();
            return Ok(());
        }
        self.waiters
            .wait(self.timeout, || {
                if self.generation.load(Ordering::Acquire) != my_gen {
                    Some(Ok(()))
                } else if self.is_poisoned() {
                    Some(Err(Stuck::Poisoned))
                } else {
                    None
                }
            })
            .unwrap_or(Err(Stuck::TimedOut))
    }
}

/// One shard's contribution to the current round, on its own cache
/// line so concurrent contributors never false-share.
#[derive(Default)]
struct Contribution {
    /// The contributed scalar's `f64::to_bits` pattern.
    bits: AtomicU64,
    /// Round the slot was last filled for, plus one (0 = never): what
    /// the double-contribution check reads.
    filled: AtomicU64,
}

/// A reusable all-reduce over `n` participants.
///
/// Lock-free: shard `s` stores its value into slot `s` and arrives at
/// the rendezvous; the last arriver folds slots `0..n` **in shard
/// order** — the same left fold, over the same operands in the same
/// order, whichever shard happens to arrive last, which is why the
/// result is bit-identical under every arrival order — stores the
/// result word, and releases the round.
///
/// Why the words are never torn or reused early: a slot store precedes
/// its owner's arrival, and the last arriver's `fetch_add` acquires
/// every earlier one, so the fold reads this round's `n` values. The
/// result store precedes the generation's `Release` store, which every
/// waiter `Acquire`-loads before reading the result. Round `g + 1`
/// cannot complete — and overwrite the result or any slot the fold of
/// round `g` still needed — before every participant has *left* round
/// `g`, because each of them has to arrive again first.
pub struct DynamicCollective {
    round: Rendezvous,
    slots: Box<[CachePadded<Contribution>]>,
    /// Fold of the last completed round (`f64::to_bits`).
    result: AtomicU64,
}

impl DynamicCollective {
    /// Creates a collective for `n` participants whose waits give up
    /// after the process's hang timeout.
    pub fn new(n: usize) -> Self {
        DynamicCollective::with_timeout(n, config::process().hang_timeout)
    }

    /// Creates a collective for `n` participants whose waits give up
    /// after `timeout`.
    pub fn with_timeout(n: usize, timeout: Duration) -> Self {
        DynamicCollective {
            round: Rendezvous::new(n, timeout),
            slots: (0..n).map(|_| CachePadded::default()).collect(),
            result: AtomicU64::new(0),
        }
    }

    /// Marks the collective dead — called when a participating shard
    /// panics so the survivors, parked ones included, unwind instead of
    /// waiting forever on a contribution that will never arrive.
    pub(crate) fn poison(&self) {
        self.round.poison(None);
    }

    /// Like `DynamicCollective::poison`, recording the structured
    /// root cause so survivors unwind with blame instead of a generic
    /// diagnostic. The first recorded cause wins.
    pub fn poison_with(&self, death: PeerDeath) {
        self.round.poison(Some(death));
    }

    /// Contributes `value` for `shard` and blocks until every
    /// participant of this generation has contributed; returns the fold
    /// of all contributions in shard order.
    pub fn reduce(&self, shard: usize, value: f64, op: ReductionOp) -> f64 {
        self.reduce_counted(shard, value, op).0
    }

    /// Like [`DynamicCollective::reduce`], also returning the
    /// generation number this contribution belonged to.
    pub(crate) fn reduce_counted(&self, shard: usize, value: f64, op: ReductionOp) -> (f64, u64) {
        if self.round.is_poisoned() {
            panic!(
                "dynamic collective poisoned: a participating shard died{} (shard {shard} unwinding)",
                cause_suffix(&self.round.cause())
            );
        }
        let my_gen = self.round.generation();
        let slot = &self.slots[shard];
        debug_assert_ne!(
            slot.filled.swap(my_gen + 1, Ordering::Relaxed),
            my_gen + 1,
            "double contribution"
        );
        slot.bits.store(value.to_bits(), Ordering::Relaxed);
        let fold = || {
            let value =
                |s: &CachePadded<Contribution>| f64::from_bits(s.bits.load(Ordering::Relaxed));
            let acc = self.slots[1..]
                .iter()
                .fold(value(&self.slots[0]), |acc, s| op.fold(acc, value(s)));
            self.result.store(acc.to_bits(), Ordering::Relaxed);
        };
        match self.round.arrive(my_gen, fold) {
            Ok(()) => (f64::from_bits(self.result.load(Ordering::Relaxed)), my_gen),
            Err(Stuck::Poisoned) => panic!(
                "dynamic collective poisoned: a participating shard died{} (shard {shard} unwinding at generation {my_gen})",
                cause_suffix(&self.round.cause())
            ),
            Err(Stuck::TimedOut) => panic!(
                "likely deadlock: shard {shard} waited {:?} on collective generation {my_gen} ({}/{} contributions arrived)",
                self.round.timeout,
                self.round.arrived(),
                self.round.n
            ),
        }
    }

    /// Checksum-verified contribution: `make_frame(attempt)` produces
    /// the framed payload for each delivery attempt (the fault injector
    /// may corrupt individual attempts); the frame is verified *before*
    /// acceptance into the fold and re-produced on mismatch, up to
    /// `max_attempts` (the executor passes the integrity protocol's
    /// `resilience::MAX_ATTEMPTS`). Returns the fold result, the
    /// generation, and the number of corrupted attempts absorbed.
    ///
    /// # Panics
    /// When `max_attempts` consecutive frames fail verification — at
    /// that point the contribution is unrecoverable and the run must
    /// fail rather than fold a corrupted scalar.
    pub(crate) fn reduce_framed(
        &self,
        shard: usize,
        op: ReductionOp,
        max_attempts: u32,
        mut make_frame: impl FnMut(u32) -> FramedScalar,
    ) -> (f64, u64, u32) {
        let mut attempt = 0;
        loop {
            let frame = make_frame(attempt);
            if frame.verify() {
                let (result, generation) = self.reduce_counted(shard, frame.value(), op);
                return (result, generation, attempt);
            }
            attempt += 1;
            if attempt >= max_attempts {
                panic!(
                    "unrecoverable collective corruption: shard {shard} produced \
                     {max_attempts} corrupted contributions in a row"
                );
            }
        }
    }
}

/// A reusable barrier over `n` participants: the bare rendezvous (see
/// `Rendezvous` for the protocol and its ordering argument). Early
/// arrivers spin briefly and then park, bounded by the hang timeout;
/// poisoning wakes them and preserves the unwinding diagnostics of the
/// lock-based barrier this one replaced.
pub struct ShardBarrier {
    round: Rendezvous,
}

impl ShardBarrier {
    /// Creates a barrier for `n` participants whose waits give up
    /// after the process's hang timeout.
    pub fn new(n: usize) -> Self {
        ShardBarrier::with_timeout(n, config::process().hang_timeout)
    }

    /// Creates a barrier for `n` participants whose waits give up after
    /// `timeout`.
    pub fn with_timeout(n: usize, timeout: Duration) -> Self {
        ShardBarrier {
            round: Rendezvous::new(n, timeout),
        }
    }

    /// Marks the barrier dead — called when a participating shard
    /// panics so the survivors, parked ones included, unwind with a
    /// diagnostic instead of waiting forever for an arrival that will
    /// never come.
    pub(crate) fn poison(&self) {
        self.round.poison(None);
    }

    /// Like `ShardBarrier::poison`, recording the structured root
    /// cause (first writer wins) so waiters unwind with blame.
    pub fn poison_with(&self, death: PeerDeath) {
        self.round.poison(Some(death));
    }

    /// Blocks until all `n` participants have arrived.
    pub fn wait(&self) {
        self.wait_counted();
    }

    /// Like [`ShardBarrier::wait`], returning the generation number
    /// this arrival belonged to.
    pub(crate) fn wait_counted(&self) -> u64 {
        if self.round.is_poisoned() {
            panic!(
                "shard barrier poisoned: a participating shard died{}",
                cause_suffix(&self.round.cause())
            );
        }
        if self.round.n == 1 {
            // Single-shard fast path: there is nobody to rendezvous
            // with — advance the generation and keep going.
            return self.round.generation.fetch_add(1, Ordering::Relaxed);
        }
        let my_gen = self.round.generation();
        match self.round.arrive(my_gen, || ()) {
            Ok(()) => my_gen,
            Err(Stuck::Poisoned) => panic!(
                "shard barrier poisoned: a participating shard died{} (unwinding at generation {my_gen})",
                cause_suffix(&self.round.cause())
            ),
            Err(Stuck::TimedOut) => panic!(
                "likely deadlock: waited {:?} at barrier generation {my_gen} ({}/{} arrived)",
                self.round.timeout,
                self.round.arrived(),
                self.round.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::panic_message;
    use std::sync::Arc;

    #[test]
    fn allreduce_sums_deterministically() {
        let n = 8;
        let c = Arc::new(DynamicCollective::new(n));
        let handles: Vec<_> = (0..n)
            .map(|s| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.reduce(s, (s + 1) as f64, ReductionOp::Add))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 36.0);
        }

        // Contributions whose sum depends on the association: the left
        // fold in shard order is 2.0, and e.g. (1e16 + -1e16) + (1 + 1)
        // or any order that adds a 1.0 to 1e16 first is not. Every one
        // of the 24 arrival orders — so every choice of last arriver,
        // the shard that folds — must give the shard-order bits, and
        // the generations must count 0, 1, 2, …
        let vals = [1e16, -1e16, 1.0, 1.0];
        let expect = vals[1..].iter().fold(vals[0], |a, &v| a + v);
        assert_eq!(expect, 2.0);
        assert_ne!((vals[0] + vals[2]) + (vals[1] + vals[3]), expect);
        let c = DynamicCollective::new(4);
        let mut generation = 0;
        let mut order = [0usize, 1, 2, 3];
        permutations(&mut order, 0, &mut |order| {
            std::thread::scope(|scope| {
                for (turn, &shard) in order.iter().enumerate() {
                    let c = &c;
                    scope.spawn(move || {
                        // Arrive `turn`-th: wait until `turn` shards
                        // are in (test-only peek at the counter).
                        while c.round.arrived() != turn {
                            std::hint::spin_loop();
                        }
                        let (sum, g) = c.reduce_counted(shard, vals[shard], ReductionOp::Add);
                        assert_eq!(sum.to_bits(), expect.to_bits(), "arrival order {order:?}");
                        assert_eq!(g, generation, "arrival order {order:?}");
                    });
                }
            });
            generation += 1;
        });
        assert_eq!(generation, 24);
    }

    /// Calls `f` with every permutation of `items[k..]` (Heap-free
    /// recursive swap enumeration; order is irrelevant here).
    fn permutations(items: &mut [usize; 4], k: usize, f: &mut impl FnMut(&[usize; 4])) {
        if k == items.len() {
            return f(items);
        }
        for i in k..items.len() {
            items.swap(k, i);
            permutations(items, k + 1, f);
            items.swap(k, i);
        }
    }

    #[test]
    fn allreduce_reusable_generations() {
        let n = 4;
        let c = Arc::new(DynamicCollective::new(n));
        let handles: Vec<_> = (0..n)
            .map(|s| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut results = Vec::new();
                    for round in 0..10 {
                        let v = (s * 10 + round) as f64;
                        let (r, generation) = c.reduce_counted(s, v, ReductionOp::Max);
                        assert_eq!(generation, round as u64);
                        results.push(r);
                    }
                    results
                })
            })
            .collect();
        for h in handles {
            let results = h.join().unwrap();
            for (round, r) in results.into_iter().enumerate() {
                assert_eq!(r, (30 + round) as f64);
            }
        }
    }

    #[test]
    fn framed_reduce_retries_corrupt_frames() {
        let n = 3;
        let c = Arc::new(DynamicCollective::new(n));
        let handles: Vec<_> = (0..n)
            .map(|s| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    c.reduce_framed(s, ReductionOp::Add, 10, |attempt| {
                        let mut f = FramedScalar::new((s + 1) as f64);
                        // Shard 1's first two attempts arrive corrupted.
                        if s == 1 && attempt < 2 {
                            f.bits ^= 1 << 17;
                        }
                        f
                    })
                })
            })
            .collect();
        for (s, h) in handles.into_iter().enumerate() {
            let (result, generation, bad) = h.join().unwrap();
            assert_eq!(result, 6.0);
            assert_eq!(generation, 0);
            assert_eq!(bad, if s == 1 { 2 } else { 0 });
        }
    }

    #[test]
    fn framed_reduce_exhaustion_panics() {
        let c = DynamicCollective::new(1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.reduce_framed(0, ReductionOp::Add, 3, |_| {
                let mut f = FramedScalar::new(1.0);
                f.bits ^= 1;
                f
            })
        }))
        .expect_err("all-corrupt frames must fail the run");
        let msg = panic_message(&*err);
        assert!(msg.contains("unrecoverable collective corruption"), "{msg}");
    }

    #[test]
    fn allreduce_min_single() {
        let c = DynamicCollective::new(1);
        assert_eq!(c.reduce(0, 5.0, ReductionOp::Min), 5.0);
        assert_eq!(c.reduce(0, -2.0, ReductionOp::Min), -2.0);
    }

    #[test]
    fn poisoned_barrier_unwinds_waiters() {
        let b = Arc::new(ShardBarrier::new(3));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.wait())
            })
            .collect();
        // The "third shard" dies instead of arriving.
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.poison();
        for h in waiters {
            let msg = panic_message(&*h.join().expect_err("waiter should unwind"));
            assert!(msg.contains("poisoned"), "diagnostic: {msg}");
        }
        // Late arrivals also unwind immediately.
        let b2 = Arc::clone(&b);
        let late = std::thread::spawn(move || b2.wait());
        assert!(late.join().is_err());
    }

    #[test]
    fn poison_with_cause_reaches_waiters() {
        use regent_fault::DeathCause;
        let b = Arc::new(ShardBarrier::new(2));
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || b2.wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.poison_with(PeerDeath {
            shard: 1,
            cause: DeathCause::Killed { epoch: 3 },
        });
        // A later, different cause must not overwrite the first.
        b.poison_with(PeerDeath {
            shard: 0,
            cause: DeathCause::Panicked,
        });
        let msg = panic_message(&*waiter.join().expect_err("waiter should unwind"));
        assert!(msg.contains("poisoned"), "diagnostic: {msg}");
        assert!(msg.contains("shard 1 killed at epoch 3"), "blame: {msg}");
        assert_eq!(b.round.cause().unwrap().shard, 1);

        let c = Arc::new(DynamicCollective::new(2));
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || c2.reduce(0, 1.0, ReductionOp::Add));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.poison_with(PeerDeath {
            shard: 1,
            cause: DeathCause::Hung,
        });
        let msg = panic_message(&*waiter.join().expect_err("waiter should unwind"));
        assert!(msg.contains("poisoned"), "diagnostic: {msg}");
        assert!(msg.contains("shard 1 hung"), "blame: {msg}");
    }

    #[test]
    fn poisoned_collective_unwinds_waiters() {
        let c = Arc::new(DynamicCollective::new(2));
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || c2.reduce(0, 1.0, ReductionOp::Add));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.poison();
        let msg = panic_message(&*waiter.join().expect_err("waiter should unwind"));
        assert!(msg.contains("poisoned"), "diagnostic: {msg}");
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 6;
        let b = Arc::new(ShardBarrier::new(n));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let b = Arc::clone(&b);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for round in 1..=20 {
                        counter.fetch_add(1, Ordering::SeqCst);
                        let g = b.wait_counted();
                        // After the barrier, all n increments of this
                        // round must be visible.
                        assert!(counter.load(Ordering::SeqCst) >= n * round);
                        assert_eq!(g as usize, 2 * round - 2);
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), n * 20);
    }

    /// A single-shard barrier must be a wait-free formality: no peers
    /// exist, so arrival alone advances the generation (previously it
    /// took the mutex even for `n == 1`).
    #[test]
    fn single_shard_barrier_is_a_fast_path() {
        let b = ShardBarrier::new(1);
        for round in 0..1000u64 {
            assert_eq!(b.wait_counted(), round);
        }
        b.wait(); // generation 1000, uncounted
        assert_eq!(b.wait_counted(), 1001);
        // Poison still unwinds late arrivals, fast path or not.
        b.poison();
        let msg = panic_message(
            &*std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()))
                .expect_err("poisoned barrier should unwind"),
        );
        assert!(msg.contains("poisoned"), "diagnostic: {msg}");
    }
}
