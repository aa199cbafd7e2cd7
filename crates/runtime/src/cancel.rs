//! Cooperative cancellation of supervised executor runs.
//!
//! A [`CancelToken`] is handed to an executor through
//! [`ResilienceOptions::cancel`](crate::ResilienceOptions)
//! and checked at every epoch boundary (`resilience::boundary` — the
//! same choke point the checkpoint/crash/integrity machinery runs
//! through, shared by the SPMD and shared-log executors). Cancellation
//! is therefore *cooperative*: a run stops at the next epoch boundary,
//! never mid-exchange, so the shared synchronization primitives are in
//! a quiescent state when the shard unwinds and the team's panic guard
//! (`crate::team`) poison path tears the remaining shards down cleanly.
//!
//! The unwind carries a structured message prefix
//! ([`CANCEL_PREFIX`] / [`TRANSIENT_PREFIX`]) that
//! `regent_fault::classify_failure` maps back to a
//! [`FailureClass`](regent_fault::FailureClass), which is how a caller
//! tells a deadline-cancelled run from an injected transient fault
//! (retry) or a genuine bug (give up).

use regent_fault::{CANCEL_PREFIX, TRANSIENT_PREFIX};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    reason: Mutex<String>,
    /// Wall-clock deadline; checked at epoch boundaries only, so the
    /// enforcement granularity is one epoch.
    deadline: Option<Instant>,
    /// Deterministic injected transient fault: every shard panics with
    /// [`TRANSIENT_PREFIX`] at the start of this epoch. Because the
    /// epoch counter is replicated, all shards reach the same decision
    /// without coordination — the same property the crash schedule
    /// relies on.
    transient_at: Option<u64>,
}

/// A cloneable, thread-safe cancellation token (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            cancelled: AtomicBool::new(false),
            reason: Mutex::new(String::new()),
            deadline: None,
            transient_at: None,
        }
    }
}

impl CancelToken {
    /// A token that never fires unless [`CancelToken::cancel`] is
    /// called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires once `budget` wall-clock time has elapsed
    /// (measured from now), checked at epoch boundaries.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: Some(Instant::now() + budget),
                ..Inner::default()
            }),
        }
    }

    /// A token that injects a transient fault at the start of `epoch`:
    /// every shard unwinds with a [`TRANSIENT_PREFIX`] diagnostic the
    /// caller classifies as retryable.
    pub fn with_transient_at(epoch: u64) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                transient_at: Some(epoch),
                ..Inner::default()
            }),
        }
    }

    /// Requests cancellation with a human-readable reason. Idempotent;
    /// the first reason wins.
    pub fn cancel(&self, reason: &str) {
        let mut r = self.inner.reason.lock().expect("cancel reason poisoned");
        if !self.inner.cancelled.swap(true, Ordering::SeqCst) {
            *r = reason.to_string();
        }
    }

    /// Whether cancellation has been requested (explicitly or by a
    /// passed deadline). Does not consider the injected transient
    /// epoch, which only exists at boundaries.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Epoch-boundary check: panics with a structured diagnostic when
    /// the token has fired. Called by `ShardExec::boundary` on every
    /// shard of a supervised run.
    pub fn check_boundary(&self, shard: usize, epoch: u64) {
        if self.inner.transient_at == Some(epoch) {
            panic!("{TRANSIENT_PREFIX}: shard {shard} unavailable at epoch {epoch}");
        }
        if self.inner.cancelled.load(Ordering::SeqCst) {
            let reason = self.inner.reason.lock().expect("cancel reason poisoned");
            panic!("{CANCEL_PREFIX}: {reason} (shard {shard}, epoch {epoch})");
        }
        if let Some(d) = self.inner.deadline {
            let now = Instant::now();
            if now >= d {
                panic!(
                    "{CANCEL_PREFIX}: deadline budget exhausted \
                     (shard {shard}, epoch {epoch})"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_fault::{classify_failure, FailureClass};

    #[test]
    fn plain_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.check_boundary(0, 5); // must not panic
    }

    #[test]
    fn explicit_cancel_classifies_cancelled() {
        let t = CancelToken::new();
        t.cancel("tenant evicted");
        assert!(t.is_cancelled());
        let err = std::panic::catch_unwind(|| t.check_boundary(1, 3)).unwrap_err();
        let msg = crate::team::panic_message(&*err);
        assert!(msg.contains("tenant evicted"), "{msg}");
        assert_eq!(classify_failure(&msg), FailureClass::Cancelled);
    }

    #[test]
    fn first_cancel_reason_wins() {
        let t = CancelToken::new();
        t.cancel("first");
        t.cancel("second");
        let err = std::panic::catch_unwind(|| t.check_boundary(0, 0)).unwrap_err();
        let msg = crate::team::panic_message(&*err);
        assert!(msg.contains("first"), "{msg}");
    }

    #[test]
    fn deadline_fires_after_budget() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        let err = std::panic::catch_unwind(|| t.check_boundary(2, 7)).unwrap_err();
        let msg = crate::team::panic_message(&*err);
        assert_eq!(classify_failure(&msg), FailureClass::Cancelled);
    }

    #[test]
    fn transient_epoch_fires_exactly_there() {
        let t = CancelToken::with_transient_at(4);
        t.check_boundary(0, 3);
        t.check_boundary(0, 5);
        let err = std::panic::catch_unwind(|| t.check_boundary(0, 4)).unwrap_err();
        let msg = crate::team::panic_message(&*err);
        assert_eq!(classify_failure(&msg), FailureClass::Transient);
    }
}
