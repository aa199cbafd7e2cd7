//! The threads a run executes on must not remember it. Every case runs a
//! program once to fix its result, disturbs the threads that run teams
//! — a killed shard, a panicking kernel, a hang timeout, a different
//! shard count, a concurrent run, an implicit control thread that
//! panics mid-issue — and then runs the same program again: the scalar
//! environment and every root field must equal the first run's bit for
//! bit. The concurrent case also checks that two runs in flight at once
//! run on disjoint threads, each pinned to one CPU, and the implicit
//! cases that the control thread, which is worker 0, is pinned beside
//! the members for its run only.
//!
//! The tests of this binary take turns: they count process-wide team
//! members, and the concurrency case must not meet a third run.

mod common;

use common::{forest, mk_stencil, Owned, Strategy};
use regent_geometry::DynPoint;
use regent_ir::{Program, Store, TaskId};
use regent_region::{FieldType, RegionForest};
use regent_runtime::{
    execute_implicit, metrics, panic_message, run, run_failover, Counter, DefaultMapper,
    FailoverOptions, FaultPlan, ImplicitOptions, Mapper, ResilienceOptions, RunOptions, Timer,
};
use std::collections::{BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Keeps the default stderr report out of the expected failures below
/// (killed shards, the poison cascades they start, the armed kernel,
/// the out-of-range mapper). Other panics still report.
fn quiet_expected_panics() {
    static HOOK: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = panic_message(info.payload());
            let expected = [
                "shard lost",
                "killed",
                "poisoned",
                "likely deadlock",
                "copy channel closed",
                "kernel bug",
                "mapper chose worker",
            ]
            .iter()
            .any(|m| msg.contains(m));
            if !expected {
                prev(info);
            }
        }));
    });
}

/// The bits of `env`, then of every field of every root region of
/// `store` (the roots of every program here are the Stencil's).
fn contents((forest, store): (&RegionForest, &Store), env: &[f64]) -> Vec<u64> {
    let mut bits: Vec<u64> = env.iter().map(|v| v.to_bits()).collect();
    for root in mk_stencil().0.root_regions() {
        let inst = store.instance_in(forest, root);
        for (fid, def) in forest.fields(root).iter() {
            bits.extend(forest.domain(root).iter().map(|p| match def.ty {
                FieldType::F64 => inst.read_f64(fid, p).to_bits(),
                FieldType::I64 => inst.read_i64(fid, p) as u64,
            }));
        }
    }
    bits
}

/// One plain run of `compiled` from a fresh Stencil store.
fn plain(compiled: &Owned, opts: &RunOptions) -> Vec<u64> {
    let (_, mut store) = mk_stencil();
    let r = run(compiled.as_ref(), &mut store, opts);
    contents((forest(compiled), &store), &r.env)
}

fn stencil_at(ns: usize) -> Owned {
    Strategy::Spmd.compile(mk_stencil().0, ns)
}

/// Wraps every kernel of `prog` with `hook`, which runs before it.
fn hook_kernels(prog: &mut Program, hook: Arc<dyn Fn() + Send + Sync>) {
    for task in &mut prog.tasks {
        let (kernel, hook) = (Arc::clone(&task.kernel), Arc::clone(&hook));
        task.kernel = Arc::new(move |ctx| {
            hook();
            kernel(ctx)
        });
    }
}

/// Team members spawned so far in this process (0 when telemetry is
/// off, where nothing is counted).
fn members_spawned() -> u64 {
    metrics::global()
        .aggregate()
        .get(Counter::TeamMembersSpawned)
}

#[test]
fn a_plain_run_after_a_killed_shard_is_bit_identical() {
    let _turn = turn();
    quiet_expected_panics();
    let compiled = stencil_at(3);
    let first = plain(&compiled, &RunOptions::default());

    let (prog, mut store) = mk_stencil();
    let mut victim = Strategy::Spmd.compile(prog, 3);
    let opts = RunOptions::default().with_resilience(ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(3).kill_shard(1, 2),
        ..Default::default()
    });
    let fo = run_failover(
        victim.as_mut(),
        &mut store,
        &opts,
        &FailoverOptions::default(),
    );
    assert_eq!(
        (fo.attempts, fo.final_shards),
        (2, 2),
        "the kill must cost one shard"
    );
    assert_eq!(contents((forest(&victim), &store), &fo.run.env), first);

    assert_eq!(plain(&compiled, &RunOptions::default()), first);
}

#[test]
fn a_run_after_a_panicking_kernel_is_bit_identical() {
    let _turn = turn();
    quiet_expected_panics();
    let armed = Arc::new(AtomicBool::new(false));
    let mut prog = mk_stencil().0;
    let flag = Arc::clone(&armed);
    hook_kernels(
        &mut prog,
        Arc::new(move || {
            if flag.load(Ordering::SeqCst) {
                panic!("kernel bug: armed for the team test");
            }
        }),
    );
    let compiled = Strategy::Spmd.compile(prog, 2);
    let first = plain(&compiled, &RunOptions::default());

    armed.store(true, Ordering::SeqCst);
    let err = catch_unwind(AssertUnwindSafe(|| {
        plain(&compiled, &RunOptions::default())
    }))
    .expect_err("the armed kernel fails its run");
    let msg = panic_message(err.as_ref());
    assert!(msg.contains("kernel bug"), "{msg}");
    assert!(
        msg.starts_with("shard "),
        "the driver names the shard: {msg}"
    );

    armed.store(false, Ordering::SeqCst);
    assert_eq!(plain(&compiled, &RunOptions::default()), first);
}

#[test]
fn a_run_after_a_hang_timeout_is_bit_identical() {
    let _turn = turn();
    quiet_expected_panics();
    let compiled = stencil_at(2);
    let first = plain(&compiled, &RunOptions::default());

    // Shard 1 stalls 600 ms at the epoch-2 boundary; its peer's bounded
    // wait gives up after 200 ms and the run fails.
    let stalled = RunOptions {
        hang_timeout: Duration::from_millis(200),
        ..RunOptions::default()
    }
    .with_resilience(ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(17).stall_shard(1, 2, 600),
        ..Default::default()
    });
    let err = catch_unwind(AssertUnwindSafe(|| plain(&compiled, &stalled)))
        .expect_err("a stall past the hang timeout fails the run");
    let msg = panic_message(err.as_ref());
    assert!(msg.contains("likely deadlock"), "{msg}");

    assert_eq!(plain(&compiled, &RunOptions::default()), first);
}

#[test]
fn two_shard_counts_alternate_bit_identically() {
    let _turn = turn();
    let (two, three) = (stencil_at(2), stencil_at(3));
    let first = (
        plain(&two, &RunOptions::default()),
        plain(&three, &RunOptions::default()),
    );
    for round in 0..10 {
        assert_eq!(
            plain(&two, &RunOptions::default()),
            first.0,
            "round {round}: 2 shards"
        );
        assert_eq!(
            plain(&three, &RunOptions::default()),
            first.1,
            "round {round}: 3 shards"
        );
    }
}

/// What one concurrent run's kernels saw: the threads they ran on and
/// the CPU lists those threads were allowed.
#[derive(Default)]
struct Seen {
    threads: HashSet<ThreadId>,
    cpus: BTreeSet<String>,
}

/// The CPUs the calling thread may run on, as the kernel lists them
/// (`None` where there is no `/proc`).
fn cpus_allowed() -> Option<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// Two runs of one program on two caller threads at once, each
/// bit-identical to its solo run. Every kernel first waits until both
/// runs are in flight, so the two teams are held at the same time: no
/// member can serve both.
#[test]
fn concurrent_runs_match_their_solo_runs() {
    let _turn = turn();
    let ns = 2;
    let in_flight: Arc<[AtomicBool; 2]> =
        Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    let rendezvous = Arc::new(AtomicBool::new(false));
    let cell = |me: usize| {
        let mut prog = mk_stencil().0;
        let seen = Arc::new(Mutex::new(Seen::default()));
        let (record, in_flight, rendezvous) = (
            Arc::clone(&seen),
            Arc::clone(&in_flight),
            Arc::clone(&rendezvous),
        );
        hook_kernels(
            &mut prog,
            Arc::new(move || {
                if rendezvous.load(Ordering::SeqCst) {
                    in_flight[me].store(true, Ordering::SeqCst);
                    let t0 = Instant::now();
                    while !in_flight[1 - me].load(Ordering::SeqCst) {
                        assert!(
                            t0.elapsed() < Duration::from_secs(20),
                            "the other run never started"
                        );
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
                let mut seen = record.lock().unwrap();
                seen.threads.insert(std::thread::current().id());
                seen.cpus.extend(cpus_allowed());
            }),
        );
        (Strategy::Spmd.compile(prog, ns), seen)
    };
    let (a, seen_a) = cell(0);
    let (b, seen_b) = cell(1);
    let solo = (
        plain(&a, &RunOptions::default()),
        plain(&b, &RunOptions::default()),
    );
    *seen_a.lock().unwrap() = Seen::default();
    *seen_b.lock().unwrap() = Seen::default();

    rendezvous.store(true, Ordering::SeqCst);
    let together = std::thread::scope(|s| {
        let other = s.spawn(|| plain(&b, &RunOptions::default()));
        let mine = plain(&a, &RunOptions::default());
        (mine, other.join().expect("the second run"))
    });
    assert_eq!(
        together.0, solo.0,
        "the first run diverged beside the second"
    );
    assert_eq!(
        together.1, solo.1,
        "the second run diverged beside the first"
    );

    let (seen_a, seen_b) = (seen_a.lock().unwrap(), seen_b.lock().unwrap());
    assert!(
        seen_a.threads.is_disjoint(&seen_b.threads),
        "two runs in flight at once shared a thread"
    );
    for (label, seen) in [("first", &seen_a), ("second", &seen_b)] {
        assert_eq!(seen.threads.len(), ns, "{label}: one thread a shard");
        assert!(
            seen.cpus.iter().all(|cpus| cpus.parse::<usize>().is_ok()),
            "{label}: a shard may run on more than one CPU: {:?}",
            seen.cpus
        );
    }
}

/// Routes the first `good` point tasks round-robin, then names a
/// worker that does not exist.
struct OutOfRange {
    issued: AtomicUsize,
    good: usize,
}

impl Mapper for OutOfRange {
    fn map_task(&self, _: TaskId, _: DynPoint, _: usize, _: usize, num_workers: usize) -> usize {
        let n = self.issued.fetch_add(1, Ordering::SeqCst);
        if n < self.good {
            n % num_workers
        } else {
            num_workers
        }
    }
}

/// An implicit run whose control thread panics while its workers hold
/// jobs: the run unwinds (it does not hang), and the next implicit run
/// is bit-identical to one before it.
#[test]
fn an_implicit_run_unwinds_past_a_bad_mapper() {
    let _turn = turn();
    quiet_expected_panics();
    let implicit = |mapper: Option<Arc<dyn Mapper>>| {
        let (prog, mut store) = mk_stencil();
        let mut opts = ImplicitOptions::with_workers(2);
        if let Some(mapper) = mapper {
            opts.mapper = mapper;
        }
        let (env, _) = execute_implicit(&prog, &mut store, opts);
        contents((&prog.forest, &store), &env)
    };
    let first = implicit(None);

    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let bad: Arc<dyn Mapper> = Arc::new(OutOfRange {
            issued: AtomicUsize::new(0),
            good: 20,
        });
        let before = cpus_allowed();
        let r = catch_unwind(AssertUnwindSafe(|| implicit(Some(bad))));
        let msg = r.map_err(|e| panic_message(e.as_ref())).err();
        tx.send((msg, before, cpus_allowed())).ok();
    });
    let (msg, before, after) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the implicit run hung instead of unwinding");
    let msg = msg.expect("the out-of-range mapper must fail its run");
    worker.join().expect("the failure was caught");
    assert!(msg.contains("mapper chose worker 2 of 2"), "{msg}");
    assert_eq!(after, before, "the unwind left the control thread pinned");

    assert_eq!(implicit(None), first);
}

/// Routes every point task to one worker.
struct OnWorker(usize);

impl Mapper for OnWorker {
    fn map_task(&self, _: TaskId, _: DynPoint, _: usize, _: usize, _: usize) -> usize {
        self.0
    }
}

/// A kernel that panics on worker 0 and one that panics on worker 1
/// each fail their implicit run, naming the worker, and the next
/// implicit run is bit-identical to one before them.
#[test]
fn an_implicit_run_after_a_panicking_worker_is_bit_identical() {
    let _turn = turn();
    quiet_expected_panics();
    let armed = Arc::new(AtomicBool::new(false));
    let mut prog = mk_stencil().0;
    let flag = Arc::clone(&armed);
    hook_kernels(
        &mut prog,
        Arc::new(move || {
            if flag.load(Ordering::SeqCst) {
                panic!("kernel bug: armed for the implicit team test");
            }
        }),
    );
    let implicit = |mapper: Arc<dyn Mapper>| {
        let (_, mut store) = mk_stencil();
        let opts = ImplicitOptions {
            mapper,
            ..ImplicitOptions::with_workers(2)
        };
        let (env, _) = execute_implicit(&prog, &mut store, opts);
        contents((&prog.forest, &store), &env)
    };
    let first = implicit(Arc::new(DefaultMapper));
    for w in 0..2 {
        armed.store(true, Ordering::SeqCst);
        let err = catch_unwind(AssertUnwindSafe(|| implicit(Arc::new(OnWorker(w)))))
            .expect_err("the armed kernel fails its run");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.starts_with(&format!("worker {w} panicked: kernel bug")),
            "{msg}"
        );
        armed.store(false, Ordering::SeqCst);
        assert_eq!(
            implicit(Arc::new(DefaultMapper)),
            first,
            "the run after worker {w}'s panic"
        );
    }
}

type CpusOf = (ThreadId, Option<String>);

/// The implicit control thread is worker 0, pinned beside worker 1's
/// member for the run only: each worker's kernels see exactly one
/// allowed CPU, the two differ, and the caller's own CPU list is the
/// same before and after the run.
#[test]
fn implicit_workers_run_on_two_cpus_and_the_caller_gets_its_mask_back() {
    let _turn = turn();
    let Some(before) = cpus_allowed() else {
        return; // no /proc to read the lists from
    };
    let mut prog = mk_stencil().0;
    // Each kernel's thread, with the CPUs it was allowed.
    let seen: Arc<Mutex<Vec<CpusOf>>> = Arc::default();
    let record = Arc::clone(&seen);
    hook_kernels(
        &mut prog,
        Arc::new(move || {
            let me = (std::thread::current().id(), cpus_allowed());
            let mut seen = record.lock().unwrap();
            if !seen.contains(&me) {
                seen.push(me);
            }
        }),
    );
    let (_, mut store) = mk_stencil();
    execute_implicit(&prog, &mut store, ImplicitOptions::with_workers(2));
    assert_eq!(
        cpus_allowed(),
        Some(before.clone()),
        "the caller's CPU list"
    );

    let seen = seen.lock().unwrap();
    let control = std::thread::current().id();
    let cpu_of = |on_control: bool| -> Vec<usize> {
        seen.iter()
            .filter(|(t, _)| (*t == control) == on_control)
            .map(|(_, cpus)| {
                let cpus = cpus.as_deref().expect("a kernel's CPU list");
                cpus.parse()
                    .unwrap_or_else(|_| panic!("a worker may run on CPUs {cpus}"))
            })
            .collect()
    };
    let (w0, w1) = (cpu_of(true), cpu_of(false));
    assert_eq!(
        (w0.len(), w1.len()),
        (1, 1),
        "one thread and one CPU a worker"
    );
    let two_cpus = before.contains(['-', ',']);
    if two_cpus {
        assert_ne!(w0, w1, "worker 0 and worker 1 share a CPU");
    }
}

/// A W-worker implicit run posts W − 1 jobs to members: one wake-up
/// sample each, none at W = 1, and no member spawned after the first
/// run at a width.
#[test]
fn an_implicit_run_takes_one_member_fewer_than_its_workers() {
    let _turn = turn();
    if !metrics::global().is_enabled() {
        return; // nothing is counted
    }
    let wakes = || metrics::global().aggregate().timer(Timer::TeamWakeNs).count;
    let implicit = |workers: usize| {
        let (prog, mut store) = mk_stencil();
        execute_implicit(&prog, &mut store, ImplicitOptions::with_workers(workers));
    };
    for workers in [1, 2, 3] {
        implicit(workers);
        let (w0, spawned) = (wakes(), members_spawned());
        for _ in 0..5 {
            implicit(workers);
        }
        assert_eq!(
            wakes() - w0,
            5 * (workers as u64 - 1),
            "{workers} workers: member wake-ups"
        );
        assert_eq!(
            members_spawned(),
            spawned,
            "{workers} workers: a rerun spawned a member"
        );
    }
}

/// Members outlive runs: after the first of 100 sequential runs, no run
/// spawns one.
#[test]
fn sequential_runs_spawn_no_member_after_the_first() {
    let _turn = turn();
    let compiled = stencil_at(3);
    let first = plain(&compiled, &RunOptions::default());
    let spawned = members_spawned();
    for round in 1..100 {
        assert_eq!(
            plain(&compiled, &RunOptions::default()),
            first,
            "round {round}"
        );
    }
    assert_eq!(
        members_spawned(),
        spawned,
        "a sequential run spawned a member"
    );
}
