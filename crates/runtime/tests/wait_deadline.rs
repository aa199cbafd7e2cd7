//! Every blocking wait of the SPMD family, and the implicit executor's
//! drain, gives up after the hang timeout it was built with, with its
//! "likely deadlock" diagnostic — parked or not.

use regent_geometry::{Domain, DynPoint};
use regent_ir::{ProgramBuilder, RegionParam, Store, TaskDecl, TaskId};
use regent_region::{FieldSpace, FieldType, ReductionOp};
use regent_runtime::{
    execute_implicit, ring_with_timeout, DynamicCollective, ImplicitOptions, LaunchLog, Mapper,
    SendError, ShardBarrier,
};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `wait`, which must give up, and checks it did so no earlier
/// than the 200 ms timeout it was built with and well before the 30 s
/// default. The ceiling is 2 s, not a tight bound: a loaded host may
/// oversleep a park by hundreds of milliseconds, and what the test must
/// catch is a wait that ignored its timeout and used the default.
fn gives_up_on_time<R>(what: &str, wait: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = wait();
    let took = t0.elapsed();
    assert!(
        (Duration::from_millis(200)..Duration::from_secs(2)).contains(&took),
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

    let log: LaunchLog<u32> = LaunchLog::new(hang_timeout);
    let msg = deadlock_text("log cursor", || {
        log.wait(0);
    });
    assert!(
        msg.starts_with("likely deadlock: log consumer waited 200ms for batch 0"),
        "{msg}"
    );
}

/// Every task on worker 1, a member: worker 0 is the control thread,
/// whose drain would run the task itself instead of waiting for it.
struct OnWorker1;

impl Mapper for OnWorker1 {
    fn map_task(&self, _: TaskId, _: DynPoint, _: usize, _: usize, _: usize) -> usize {
        1
    }
}

/// A kernel that blocks past the hang timeout on a member: the control
/// thread's drain gives up at the timeout, and the run unwinds once the
/// kernel returns (the worker pool is joined, not abandoned).
#[test]
fn the_implicit_drain_gives_up_at_the_hang_timeout() {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").expect("declared above");
    let r = b.forest.create_region(Domain::range(4), fs);
    let nap = b.task(TaskDecl {
        name: "nap".into(),
        params: vec![RegionParam::read(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(|_| std::thread::sleep(Duration::from_millis(600))),
    });
    b.call(nap, vec![r]);
    let prog = b.build();
    let mut store = Store::new(&prog);
    let opts = ImplicitOptions {
        hang_timeout: Duration::from_millis(200),
        mapper: Arc::new(OnWorker1),
        ..ImplicitOptions::with_workers(2)
    };
    let msg = deadlock_text("implicit drain", || {
        execute_implicit(&prog, &mut store, opts);
    });
    assert_eq!(
        msg,
        "likely deadlock: control thread waited 200ms for the worker pool to drain \
         (1 tasks still outstanding)"
    );
}
