//! The one wait primitive of the SPMD family: spin briefly, then park.
//!
//! The paper's SPMD code synchronizes point to point — a consumer waits
//! on exactly the producer it needs (§3.4) — and Legion realizes such a
//! wait as a deferred event. Here a blocked thread *waits*, and this
//! module is the only place that decides how: a consumer on an empty
//! exchange ring, a producer on a full one, a barrier or collective
//! participant ahead of its peers, a log cursor ahead of the sequencer
//! and the sequencer waiting for scalar feedback all go through
//! [`Waiters::wait`], and whoever makes such a condition true announces
//! it with [`Waiters::wake`].
//!
//! * **Waiting** — poll the caller's condition [`SPIN_POLLS`] times
//!   (the common wait is a few microseconds: the peer is already on its
//!   way), then register the thread, fence, poll once more, and
//!   `std::thread::park_timeout` for whatever is left of the caller's
//!   timeout. std's parker is futex-backed, so a parked thread costs no
//!   CPU and needs no libc.
//! * **Waking** — *publish → `SeqCst` fence → if a waiter is
//!   registered, `unpark` it.* When nobody is parked the cost is the
//!   fence and one load.
//!
//! ## Why no wake-up is lost
//!
//! The waiter does `register; fence; poll`, the waker does `publish;
//! fence; load registered`, both fences `SeqCst` and therefore totally
//! ordered. If the waiter's comes first, the waker's load sees the
//! registration and unparks — and `unpark` before `park` leaves a token
//! that makes the next `park` return at once. If the waker's comes
//! first, the waiter's poll sees the publication and never parks. A
//! park that returns for any other reason (a token left over from an
//! earlier wait, a spurious return) only polls again.
//!
//! ## What still bounds a wait
//!
//! Every caller passes a timeout (the hang timeout the waiting object
//! was built with — in a team, the run's) and turns `None` into its own
//! "likely deadlock" diagnostic; peer death reaches a parked thread as
//! a wake-up (ring halves wake their peer when dropped, `poison`
//! wakes every barrier and collective waiter).

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Polls of the condition before a waiter parks. One poll is a load of
/// a line the waiter already holds plus a `pause`: on the order of
/// 10–40 ns, so the budget is 5–20 µs — longer than a peer that is
/// already running needs to publish, shorter than a futex round trip
/// repeated per message. Picked by the sweep recorded in
/// EXPERIMENTS.md ("Event-driven waits"); not a knob.
const SPIN_POLLS: u32 = 500;

/// The threads parked on one condition (or one family of conditions
/// published by the same wakers).
#[derive(Debug, Default)]
pub(crate) struct Waiters {
    /// Number of registered threads: all a waker reads when nobody is
    /// parked.
    parked: AtomicUsize,
    /// Handles of the registered threads. Locked only by a thread about
    /// to park, a thread done parking, and a waker that saw `parked != 0`.
    threads: Mutex<Vec<Thread>>,
}

impl Waiters {
    /// Blocks until `poll` yields a value, or returns `None` once
    /// `timeout` has run out. `poll` must read, with at least `Acquire`
    /// loads, state whose writers call [`Waiters::wake`] after writing.
    pub(crate) fn wait<R>(
        &self,
        timeout: Duration,
        mut poll: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        for _ in 0..SPIN_POLLS {
            if let Some(r) = poll() {
                return Some(r);
            }
            std::hint::spin_loop();
        }
        // A timeout too large to represent is no deadline at all.
        let deadline = Instant::now().checked_add(timeout);
        let _registered = Registration::new(self);
        // The waiter's half of the protocol in the module docs: every
        // poll after this fence sees whatever a waker that missed the
        // registration had published.
        fence(Ordering::SeqCst);
        loop {
            if let Some(r) = poll() {
                return Some(r);
            }
            match deadline {
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    std::thread::park_timeout(left);
                }
                None => std::thread::park(),
            }
        }
    }

    /// Wakes every registered waiter. Call *after* publishing whatever
    /// their `poll` reads.
    pub(crate) fn wake(&self) {
        fence(Ordering::SeqCst);
        // Acquire pairs with the registration's increment, so the
        // handle pushed before it is in the list locked below.
        if self.parked.load(Ordering::Acquire) != 0 {
            self.unpark_all();
        }
    }

    #[cold]
    fn unpark_all(&self) {
        for t in self.lock().iter() {
            t.unpark();
        }
    }

    /// The handle list. A panic cannot leave it half-updated (`push`
    /// and `swap_remove` either happen or do not), and wakers run
    /// inside `Drop` during unwinds, so a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, Vec<Thread>> {
        self.threads.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A thread's entry in a [`Waiters`] set, removed when dropped.
struct Registration<'w>(&'w Waiters);

impl<'w> Registration<'w> {
    fn new(waiters: &'w Waiters) -> Self {
        waiters.lock().push(std::thread::current());
        waiters.parked.fetch_add(1, Ordering::SeqCst);
        Registration(waiters)
    }
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        let me = std::thread::current().id();
        let mut threads = self.0.lock();
        if let Some(i) = threads.iter().position(|t| t.id() == me) {
            threads.swap_remove(i);
        }
        drop(threads);
        self.0.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn wait_returns_the_polled_value_without_parking() {
        let w = Waiters::default();
        let mut polls = 0;
        let got = w.wait(Duration::from_secs(5), || {
            polls += 1;
            (polls == 3).then_some(polls)
        });
        assert_eq!(got, Some(3));
        assert_eq!(w.parked.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_times_out_and_deregisters() {
        let w = Waiters::default();
        let t0 = Instant::now();
        assert_eq!(w.wait(Duration::from_millis(20), || None::<()>), None);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(w.parked.load(Ordering::SeqCst), 0);
        assert!(w.lock().is_empty());
    }

    #[test]
    fn wake_reaches_a_parked_thread() {
        let w = Waiters::default();
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                w.wait(Duration::from_secs(30), || {
                    flag.load(Ordering::Acquire).then_some(())
                })
            });
            // Publish only once the waiter is registered, so the wake
            // below has to travel through `unpark`.
            while w.parked.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            flag.store(true, Ordering::Release);
            w.wake();
            assert_eq!(waiter.join().unwrap(), Some(()));
        });
        assert_eq!(w.parked.load(Ordering::SeqCst), 0);
    }
}
