//! The wait primitive under the exchange ring, the barrier, the
//! collective and the implicit executor's worker pool
//! (`regent_runtime`'s private `wait` module), exercised through the
//! public types it sits under: waits that block must still deliver
//! every message in order, notice a dead peer at once, and — the point
//! of parking — use no CPU while blocked.
//!
//! Scenarios that read a clock hold `SERIAL`, so the other tests of
//! this binary (cargo runs them on parallel threads) cannot stretch
//! what they measure. The deadline scenarios need their own process
//! (`wait_deadline.rs`): the hang timeout is cached on first use.

use regent_fault::{splitmix64, DeathCause, PeerDeath};
use regent_geometry::{Domain, DynPoint};
use regent_ir::{ProgramBuilder, RegionParam, Store, TaskDecl, TaskId};
use regent_region::{FieldSpace, FieldType, ReductionOp};
use regent_runtime::metrics::thread_cpu_ns;
use regent_runtime::{
    execute_implicit, ring, DynamicCollective, ImplicitOptions, Mapper, RingReceiver, RingSender,
    ShardBarrier,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Burns roughly `polls` spin-loop hints without sleeping.
fn busy(polls: u64) {
    for _ in 0..polls {
        std::hint::spin_loop();
    }
}

const LONG: Duration = Duration::from_secs(60);

/// One side of a ping-pong pair: `rounds` round trips over a ring each
/// way. The pinger delays a seeded random while before most sends —
/// nothing, a few hundred polls (inside the ponger's spin budget), or
/// thousands (ten times past it, so the ponger is parked when the
/// message lands) — and checks that round `i` comes back as `i`.
/// Returns the round-trip times of the long-delay rounds, measured
/// from the send.
fn ping(
    seed: u64,
    rounds: u64,
    tx: &mut RingSender<u64>,
    rx: &mut RingReceiver<u64>,
) -> Vec<Duration> {
    let mut parked_trips = Vec::new();
    for i in 0..rounds {
        let r = splitmix64(seed.wrapping_add(i));
        let long = r.is_multiple_of(16);
        busy(match r % 16 {
            0 => 4_000 + (r >> 8) % 4_000,
            1..=5 => (r >> 8) % 400,
            _ => 0,
        });
        let t0 = Instant::now();
        tx.send(i).expect("ponger alive");
        let back = rx
            .recv_timeout(LONG)
            .unwrap_or_else(|e| panic!("round {i}: wake-up lost or ponger gone ({e:?})"));
        assert_eq!(back, i, "FIFO violated at round {i}");
        if long {
            parked_trips.push(t0.elapsed());
        }
    }
    parked_trips
}

fn pong(rounds: u64, tx: &mut RingSender<u64>, rx: &mut RingReceiver<u64>) {
    for i in 0..rounds {
        let got = rx
            .recv_timeout(LONG)
            .unwrap_or_else(|e| panic!("round {i}: wake-up lost or pinger gone ({e:?})"));
        assert_eq!(got, i, "FIFO violated at round {i}");
        tx.send(got).expect("pinger alive");
    }
}

/// Runs `pairs` ping-pong pairs at once and returns the long-delay
/// round-trip times of all of them.
fn ping_pong(pairs: u64, rounds: u64) -> Vec<Duration> {
    std::thread::scope(|scope| {
        let pingers: Vec<_> = (0..pairs)
            .map(|p| {
                let (mut there_tx, mut there_rx) = ring::<u64>(8);
                let (mut back_tx, mut back_rx) = ring::<u64>(8);
                scope.spawn(move || pong(rounds, &mut back_tx, &mut there_rx));
                scope.spawn(move || ping(0xC0FFEE + p, rounds, &mut there_tx, &mut back_rx))
            })
            .collect();
        pingers
            .into_iter()
            .flat_map(|h| h.join().expect("pinger panicked"))
            .collect()
    })
}

/// (a) at two threads: every message arrives, in order. A parked
/// consumer has no timer to fall back on — it parks for the whole of
/// `LONG` — so a lost wake-up fails its round outright, and the round
/// trips to a parked consumer (two `unpark`s each) stay prompt.
#[test]
fn ping_pong_two_threads_loses_no_wakeup() {
    let _serial = serial();
    let mut trips = ping_pong(1, 100_000);
    assert!(trips.len() > 1_000, "the seed parks the consumer often");
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median round trip to a parked consumer {median:?}"
    );
}

/// (a) at eight threads on however few cores the host has: the same
/// 10⁵ round trips split over four pairs that compete for the cores,
/// so a waiter is often descheduled between its registration and its
/// park.
#[test]
fn ping_pong_eight_threads_keeps_fifo() {
    ping_pong(4, 25_000);
}

/// Runs `scenario` up to three times and passes when one attempt does:
/// the bounds below are 50 ms on a host whose other tenants can stall
/// a thread for tens of milliseconds.
fn within_three_attempts(what: &str, scenario: impl Fn() -> Duration, bound: Duration) {
    let mut seen = Vec::new();
    for _ in 0..3 {
        let took = scenario();
        if took < bound {
            return;
        }
        seen.push(took);
    }
    panic!("{what}: took {seen:?} in three attempts, bound {bound:?}");
}

/// Long enough for a waiter to exhaust its spin budget and park.
const SETTLE: Duration = Duration::from_millis(30);
const PROMPT: Duration = Duration::from_millis(50);

fn death() -> PeerDeath {
    PeerDeath {
        shard: 1,
        cause: DeathCause::Killed { epoch: 3 },
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message")
}

/// (b) a consumer parked in `recv_timeout` learns of its producer's
/// death from the drop itself.
#[test]
fn parked_consumer_sees_disconnect_promptly() {
    let _serial = serial();
    within_three_attempts(
        "Disconnected after sender drop",
        || {
            let (tx, mut rx) = ring::<u64>(4);
            std::thread::scope(|scope| {
                let waiter = scope.spawn(move || (rx.recv_timeout(LONG), Instant::now()));
                std::thread::sleep(SETTLE);
                let dropped = Instant::now();
                drop(tx);
                let (got, woke) = waiter.join().unwrap();
                assert_eq!(got, Err(RecvTimeoutError::Disconnected));
                woke.duration_since(dropped)
            })
        },
        PROMPT,
    );
}

/// (b) a producer parked on a full ring fails its send when the
/// consumer drops.
#[test]
fn parked_producer_sees_closed_promptly() {
    let _serial = serial();
    within_three_attempts(
        "Closed after receiver drop",
        || {
            let (mut tx, rx) = ring::<u64>(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            std::thread::scope(|scope| {
                let waiter = scope.spawn(move || (tx.send(3), Instant::now()));
                std::thread::sleep(SETTLE);
                let dropped = Instant::now();
                drop(rx);
                let (got, woke) = waiter.join().unwrap();
                assert!(matches!(got, Err(regent_runtime::SendError::Closed(3))));
                woke.duration_since(dropped)
            })
        },
        PROMPT,
    );
}

/// (b) parked barrier and collective waiters unwind on `poison_with`,
/// carrying the recorded cause.
#[test]
fn parked_rendezvous_waiters_unwind_promptly_with_the_cause() {
    let _serial = serial();
    let unwinds = |wait: &(dyn Fn() + Sync), poison: &dyn Fn()| {
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(wait))
                    .expect_err("a poisoned wait unwinds");
                (panic_text(err), Instant::now())
            });
            std::thread::sleep(SETTLE);
            let poisoned = Instant::now();
            poison();
            let (msg, woke) = waiter.join().unwrap();
            assert!(msg.contains("poisoned"), "diagnostic: {msg}");
            assert!(msg.contains("shard 1 killed at epoch 3"), "blame: {msg}");
            woke.duration_since(poisoned)
        })
    };
    within_three_attempts(
        "barrier waiter after poison_with",
        || {
            let b = ShardBarrier::new(2);
            unwinds(&|| b.wait(), &|| b.poison_with(death()))
        },
        PROMPT,
    );
    within_three_attempts(
        "collective waiter after poison_with",
        || {
            let c = DynamicCollective::new(2);
            unwinds(
                &|| {
                    c.reduce(0, 1.0, ReductionOp::Add);
                },
                &|| c.poison_with(death()),
            )
        },
        PROMPT,
    );
}

/// (d) the test that fails on a wait that polls: a thread blocked for
/// 200 ms in each wait spends under 20 ms of its own CPU time there.
#[test]
fn blocked_waits_use_no_cpu() {
    let _serial = serial();
    const BLOCK: Duration = Duration::from_millis(200);
    const BUDGET_NS: u64 = 20_000_000;
    // Runs `wait` on a thread of its own and, once it has been blocked
    // for `BLOCK`, runs `release`; returns the CPU time the blocked
    // thread spent inside `wait`.
    let cpu_while_blocked = |wait: &(dyn Fn() + Sync), release: &dyn Fn()| {
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let c0 = thread_cpu_ns();
                wait();
                thread_cpu_ns() - c0
            });
            std::thread::sleep(BLOCK);
            release();
            waiter.join().unwrap()
        })
    };
    let check = |what: &str, cpu_ns: u64| {
        assert!(
            cpu_ns < BUDGET_NS,
            "{what}: {} ms of CPU while blocked {BLOCK:?} — the wait is polling",
            cpu_ns / 1_000_000
        );
    };

    let (tx, rx) = ring::<u64>(4);
    let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
    check(
        "ring receive",
        cpu_while_blocked(
            &|| assert_eq!(rx.lock().unwrap().recv_timeout(LONG), Ok(7)),
            &|| drop(tx.lock().unwrap().send(7)),
        ),
    );

    let (mut full_tx, full_rx) = ring::<u64>(2);
    full_tx.send(1).unwrap();
    full_tx.send(2).unwrap();
    let (full_tx, full_rx) = (Mutex::new(full_tx), Mutex::new(full_rx));
    check(
        "full-ring send",
        cpu_while_blocked(
            &|| assert!(full_tx.lock().unwrap().send(3).is_ok()),
            &|| assert_eq!(full_rx.lock().unwrap().try_recv(), Some(1)),
        ),
    );

    let b = ShardBarrier::new(2);
    check("barrier", cpu_while_blocked(&|| b.wait(), &|| b.wait()));

    let c = DynamicCollective::new(2);
    check(
        "collective",
        cpu_while_blocked(
            &|| assert_eq!(c.reduce(0, 1.0, ReductionOp::Add), 3.0),
            &|| assert_eq!(c.reduce(1, 2.0, ReductionOp::Add), 3.0),
        ),
    );
}

/// Task `t` on worker `t + 1`: nothing on worker 0, which is the
/// control thread.
struct PastWorker0;

impl Mapper for PastWorker0 {
    fn map_task(&self, task: TaskId, _: DynPoint, _: usize, _: usize, _: usize) -> usize {
        task.0 as usize + 1
    }
}

/// (d) for the implicit executor's pool: while worker 1 runs a 200 ms
/// kernel, worker 2 (idle) and the control thread (worker 0, draining
/// with nothing of its own to run) together spend under 20 ms of CPU.
/// Worker 2's only task reads what the long one writes, so it runs last
/// and reports what its thread spent waiting.
#[test]
fn an_idle_worker_and_a_draining_control_thread_use_no_cpu() {
    let _serial = serial();
    const BUDGET_NS: u64 = 20_000_000;
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").expect("declared above");
    let r = b.forest.create_region(Domain::range(4), fs);
    let idle_cpu_ns = Arc::new(AtomicU64::new(u64::MAX));
    let reported = Arc::clone(&idle_cpu_ns);
    let mut task = |name: &str, param: RegionParam, kernel: regent_ir::KernelFn| {
        b.task(TaskDecl {
            name: name.into(),
            params: vec![param],
            num_scalar_args: 0,
            returns_value: false,
            kernel,
        })
    };
    // `PastWorker0` puts task 0 on worker 1 and task 1 on worker 2.
    let long = task(
        "long",
        RegionParam::read_write(&[x]),
        Arc::new(|_| std::thread::sleep(Duration::from_millis(200))),
    );
    let after = task(
        "after",
        RegionParam::read(&[x]),
        Arc::new(move |_| reported.store(thread_cpu_ns(), Ordering::SeqCst)),
    );
    b.call(long, vec![r]);
    b.call(after, vec![r]);
    let prog = b.build();
    let mut store = Store::new(&prog);
    let opts = ImplicitOptions {
        mapper: Arc::new(PastWorker0),
        ..ImplicitOptions::with_workers(3)
    };
    let c0 = thread_cpu_ns();
    execute_implicit(&prog, &mut store, opts);
    let control_ns = thread_cpu_ns() - c0;
    let idle_ns = idle_cpu_ns.load(Ordering::SeqCst);
    assert!(
        control_ns.saturating_add(idle_ns) < BUDGET_NS,
        "control thread {} µs + idle worker {} µs of CPU over a 200 ms kernel — a wait is polling",
        control_ns / 1_000,
        idle_ns / 1_000
    );
}
