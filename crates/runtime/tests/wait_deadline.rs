//! Every blocking wait of the SPMD family gives up after the hang
//! timeout it was built with, with its "likely deadlock" diagnostic —
//! parked or not.

use regent_region::ReductionOp;
use regent_runtime::{ring_with_timeout, DynamicCollective, LaunchLog, SendError, ShardBarrier};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// Runs `wait`, which must give up, and checks it did so no earlier
/// than the timeout and no later than twice it.
fn gives_up_on_time<R>(what: &str, wait: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = wait();
    let took = t0.elapsed();
    assert!(
        (Duration::from_millis(200)..Duration::from_millis(400)).contains(&took),
        "{what} gave up after {took:?}, hang timeout 200 ms"
    );
    r
}

fn deadlock_text(what: &str, wait: impl FnOnce()) -> String {
    let err = gives_up_on_time(what, || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(wait))
            .expect_err("a wait nobody completes must panic")
    });
    err.downcast_ref::<String>()
        .cloned()
        .expect("panic payload is a formatted message")
}

#[test]
fn waits_give_up_at_the_hang_timeout() {
    let hang_timeout = Duration::from_millis(200);

    // The exchange receive returns `Timeout` (the executor turns it
    // into "likely deadlock: shard … waited … on copy …" and blames
    // the producer; `apps/tests/failover.rs` covers that path).
    let (_tx, mut rx) = ring_with_timeout::<u64>(4, hang_timeout);
    let got = gives_up_on_time("ring receive", || rx.recv_timeout(hang_timeout));
    assert_eq!(got, Err(RecvTimeoutError::Timeout));

    // A ring that stays full hands the payload back as `Full`.
    let (mut tx, _rx) = ring_with_timeout::<u64>(2, hang_timeout);
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    let got = gives_up_on_time("full-ring send", || tx.send(3));
    assert!(matches!(got, Err(SendError::Full(3))), "{got:?}");

    let b = ShardBarrier::with_timeout(2, hang_timeout);
    let msg = deadlock_text("barrier", || b.wait());
    assert_eq!(
        msg,
        "likely deadlock: waited 200ms at barrier generation 0 (1/2 arrived)"
    );

    let c = DynamicCollective::with_timeout(2, hang_timeout);
    let msg = deadlock_text("collective", || {
        c.reduce(0, 1.0, ReductionOp::Add);
    });
    assert_eq!(
        msg,
        "likely deadlock: shard 0 waited 200ms on collective generation 0 \
         (1/2 contributions arrived)"
    );

    let log: LaunchLog<u32> = LaunchLog::new(1, 0, hang_timeout);
    let msg = deadlock_text("log cursor", || {
        log.wait(0);
    });
    assert!(
        msg.starts_with("likely deadlock: log consumer waited 200ms for batch 0"),
        "{msg}"
    );
}
