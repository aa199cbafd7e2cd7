//! The shard-team driver: the one place a control-replicated run is set
//! up, threaded, and torn down — and the one place in this crate that
//! creates threads.
//!
//! Control replication is one execution model — every shard runs the
//! same statements against its own instances (§3.5, §4) — so the
//! executors of this crate differ only in *where the statements come
//! from*. [`run_team`] owns everything else: it obtains the exchange
//! schedule, builds the collective, the barrier and the exchange mesh
//! (one SPSC ring per ordered shard pair, sized by the schedule) with
//! the run's hang timeout, hands one job per shard to the resident
//! members, waits for them, picks the root-cause failure, checks that
//! the replicated scalar environments agree, flushes written
//! partitions back into the store, hands the shard images back to the
//! program and exports the metrics. How it does all that is in its
//! [`RunCtx`] — values its caller fixed, none looked up from the
//! process environment here or below. A strategy hands it a **control
//! source**: the per-shard `body` (the replicated walk of `spmd.body`,
//! or the tail of a launch-log cursor) plus at most one auxiliary job
//! (the log sequencer). Range-local replication (§2.2) is a loop over
//! segments that calls this driver once per replicated segment.
//!
//! ## Resident members
//!
//! In the paper a shard is a long-running task (§3.5); here its thread
//! is too. A *member* is a thread spawned once, pinned once — member
//! `k` to the `k`-th CPU of its affinity mask, modulo the mask's size —
//! and parked on its own [`Waiters`] between jobs. [`on_members`] takes
//! the lowest-numbered idle members a run needs, posts one job to each,
//! and returns them once every job has finished; it spawns a member
//! only when too few are idle (concurrent runs, or more shards than any
//! earlier run). SPMD, hybrid segments, the log (its sequencer
//! included), guarded runs and failover attempts take their shards from
//! the members, and the implicit executor its workers 1 … W−1; a
//! failover shrink is just a run that takes one member fewer. The
//! caller of an SPMD-family run parks until the join. The implicit
//! executor's caller is its control thread and worker 0, and runs
//! pinned to the CPU position after its highest member's until its
//! control flow returns or unwinds (the only pin that is undone). A
//! job runs under `catch_unwind`, so a killed shard, a panicking kernel
//! or a hang timeout leaves its member reusable, and the failure is
//! reported to the run only after every job it posted has finished —
//! the invariant `std::thread::scope` keeps, kept here by a drop guard.
//! What a run still pays for its threads is a wake-up per member and
//! one completion signal: the `team_wake_ns` and `team_join_ns`
//! timers.

use crate::collective::{DynamicCollective, ShardBarrier};
use crate::exchange::CopyMsg;
use crate::metrics::{self, Counter, MetricsHandle, Timer};
use crate::plan::schedule_for_run;
use crate::resilience::{DeathBoard, MAX_ATTEMPTS};
use crate::ring;
use crate::run::{RunCtx, RunResult};
use crate::spmd_exec::{ShardExec, ShardStats};
use crate::wait::Waiters;
use regent_cr::{ShardImage, SpmdProgram};
use regent_fault::{DeathCause, PeerDeath};
use regent_ir::Store;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Whether a thread's panic message is the victim of another thread's
/// death noticing its peer is gone, rather than a cause: poisoned
/// barriers and collectives, sealed exchange rings, hang timeouts
/// (exchange receives, the sequencer's wait for `AllReduce` feedback,
/// a cursor's wait for the next batch), and the feedback channel
/// closing under shard 0.
fn secondary(msg: &str) -> bool {
    msg.contains("poisoned")
        || msg.contains("copy channel closed")
        || msg.contains("likely deadlock")
        || msg.contains("feedback channel disconnected")
}

/// Runs one team of `spmd.num_shards` shards over `store` (which holds
/// the initial region contents and receives the final ones), each on a
/// resident member.
///
/// `body` is the strategy's per-shard control source; `aux` is its
/// auxiliary job, named for failure reports, run on one more member
/// beside the shards. `slot` names the slot of `ctx.rescue` this team
/// offers checkpoints into and resumes from
/// (`None` for a control source that cannot resume mid-program).
pub(crate) fn run_team(
    spmd: &SpmdProgram,
    store: &mut Store,
    ctx: RunCtx<'_>,
    slot: Option<usize>,
    body: impl Fn(&mut ShardExec<'_>) + Sync,
    aux: Option<(&str, impl FnOnce() + Send)>,
) -> RunResult {
    let (schedule, setup) = schedule_for_run(spmd);
    let ns = spmd.num_shards;
    let collective = DynamicCollective::with_timeout(ns, ctx.hang_timeout);
    let barrier = ShardBarrier::with_timeout(ns, ctx.hang_timeout);

    // The CI fault smoke upgrades every run that names no resilience
    // options of its own to a resilient one; results stay
    // bit-identical.
    let smoke_opts = ctx.smoke.filter(|_| ctx.resilience.is_none());
    let smoke_opts = smoke_opts.map(|smoke| smoke.options(ns));
    let resilience = ctx.resilience.or(smoke_opts.as_ref());

    // Exchange mesh: senders[src][dst] paired with receivers[dst][src],
    // each ring as large as the schedule says one copy statement needs.
    // A plan that can corrupt a payload makes one logical message up to
    // the retry budget's worth of frames (`ShardExec::send`).
    let transmissions = match resilience {
        Some(o) if o.plan.corrupt_rate > 0.0 => MAX_ATTEMPTS as usize,
        _ => 1,
    };
    let (senders, receivers) = ring::copy_mesh::<CopyMsg>(
        ns,
        |src, dst| schedule.ring_slots(src, dst, transmissions),
        ctx.hang_timeout,
    );

    // Borrowed when the caller named one (a hybrid segment's, every
    // time): each shard copies it once either way.
    let declared;
    let initial_env = match ctx.initial_env {
        Some(env) => env,
        None => {
            declared = ctx.initial_env(&spmd.scalars);
            &declared
        }
    };

    // Resolve the rescue slot and its committed checkpoint once, on the
    // driver thread, so every shard makes the same resume decision even
    // if new offers land while shards are starting.
    let rescue = slot.and_then(|i| Some(ctx.rescue?.slot(i, ns)));
    let resume = rescue.as_ref().and_then(|s| s.committed());

    let mut results: Vec<Option<(Vec<f64>, ShardStats, ShardImage)>> =
        (0..ns).map(|_| None).collect();

    let (schedule, collective, barrier, body) = (&*schedule, &collective, &barrier, &body);
    let store_ref: &Store = store;
    let mut jobs: Vec<TeamJob<'_>> = Vec::with_capacity(ns + 1);
    // Each shard takes ownership of exactly its sender row: when a
    // shard dies, its senders drop and every peer blocked on a receive
    // from it unwinds immediately instead of timing out.
    let rows = receivers.into_iter().zip(senders);
    for ((shard, (rx_row, tx_row)), result) in rows.enumerate().zip(&mut results) {
        let (rescue, resume) = (rescue.clone(), resume.clone());
        jobs.push(Box::new(move || {
            // If this shard panics (e.g. a kernel bug), poison the
            // shared primitives on the way out so peers blocked in a
            // barrier or collective unwind with a diagnostic rather
            // than deadlocking.
            let _guard = PanicGuard {
                barrier,
                collective,
                shard: shard as u32,
                board: ctx.board.cloned(),
            };
            let mut exec = ShardExec::new(
                spmd,
                schedule,
                shard,
                store_ref,
                initial_env.to_vec(),
                (tx_row, rx_row),
                (collective, barrier),
                ctx.tracer,
                resilience,
                ctx.hang_timeout,
            );
            if let Some(r) = exec.resilience.as_mut() {
                r.board = ctx.board.cloned();
                r.rescue = rescue;
                r.resume = resume;
            }
            body(&mut exec);
            exec.flush_pool_metrics();
            exec.tb.flush();
            *result = Some((exec.env, exec.stats, exec.data));
        }));
    }
    let aux_name = aux.map(|(name, f)| {
        jobs.push(Box::new(move || {
            // Poison the shared primitives if the auxiliary job
            // unwinds. It is not a shard, so it never self-blames on a
            // death board.
            let _guard = PanicGuard {
                barrier,
                collective,
                shard: u32::MAX,
                board: None,
            };
            f()
        }));
        name
    });
    // The caller parks until every job has finished, failed ones too.
    let ((), joined) = on_members(jobs, false, || ());
    let mut mx = metrics::global().handle("team");
    joined.record(&mut mx);

    // Report the root cause — the message the caller sees:
    // failures are scanned in shard order, so prefer the first one that
    // is not a secondary unwind.
    let failures: Vec<(String, String)> = joined
        .failures
        .into_iter()
        .map(|(job, msg)| match (job < ns, aux_name) {
            (false, Some(name)) => (name.to_string(), msg),
            _ => (format!("shard {job}"), msg),
        })
        .collect();
    if let Some((who, msg)) = failures
        .iter()
        .find(|(_, m)| !secondary(m))
        .or(failures.first())
    {
        panic!(
            "{who} panicked: {msg}{}",
            if failures.len() > 1 {
                format!(" ({} threads failed in total)", failures.len())
            } else {
                String::new()
            }
        );
    }

    let mut run = RunResult {
        setup,
        replicated_segments: 1,
        ..RunResult::default()
    };
    // Finalization (§3.1), on this thread — the store is never shared
    // mutably: every written partition instance goes back to the root
    // store along its memoized run list. Only now, after a clean join,
    // do the images return to the program for its next run; a team
    // that unwound above dropped them with its jobs.
    for (shard, r) in results.into_iter().enumerate() {
        let (env, stats, image) =
            r.expect("shard result missing despite every job finishing cleanly");
        if shard == 0 {
            run.env = env;
        } else {
            debug_assert_eq!(
                run.env, env,
                "scalar environments diverged across shards (replication bug)"
            );
        }
        run.stats.merge(&stats);
        run.per_shard.push(stats);
        let m0 = mx.start();
        image.flush(spmd, &schedule.layouts[shard], store);
        mx.record_since(m0, Timer::ImageFlushNs);
        spmd.put_image(shard, image);
    }
    // Merge the team and flush timers before the export below reads
    // the registry.
    drop(mx);

    // Every shard handle merged when its job finished above.
    metrics::global().export();
    run
}

/// Poisons the shared synchronization primitives when a team job
/// unwinds, so surviving shards fail fast with a diagnostic instead of
/// waiting forever on an arrival that will never come. With a
/// [`DeathBoard`] attached, the guard also records the unwinding shard
/// as the root cause — but only when the board is still empty, so a
/// kill or hang recorded before the cascade is never displaced by a
/// secondary unwind — and forwards the root cause into the poison so
/// waiters unwind with blame.
struct PanicGuard<'a> {
    barrier: &'a ShardBarrier,
    collective: &'a DynamicCollective,
    /// The unwinding job's shard id (used only for self-blame).
    shard: u32,
    board: Option<Arc<DeathBoard>>,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            match &self.board {
                Some(board) => {
                    if board.is_empty() {
                        board.record(PeerDeath {
                            shard: self.shard,
                            cause: DeathCause::Panicked,
                        });
                    }
                    match board.first() {
                        Some(cause) => {
                            self.barrier.poison_with(cause);
                            self.collective.poison_with(cause);
                        }
                        None => {
                            self.barrier.poison();
                            self.collective.poison();
                        }
                    }
                }
                None => {
                    self.barrier.poison();
                    self.collective.poison();
                }
            }
        }
    }
}

/// A job for a member: borrows the caller's stack for as long as
/// [`on_members`] runs.
pub(crate) type TeamJob<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Every member of the process, by index, each with whether it is idle.
static MEMBERS: Mutex<Vec<(Arc<Member>, bool)>> = Mutex::new(Vec::new());

/// The member list. Nothing panics while holding it but a refused
/// spawn, which leaves the list whole, so a poisoned lock is recovered.
fn members() -> MutexGuard<'static, Vec<(Arc<Member>, bool)>> {
    MEMBERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A resident thread: spawned once, pinned once, parked between jobs.
struct Member {
    /// Position in [`MEMBERS`]; picks the member's CPU.
    index: usize,
    /// The job posted to this member and not yet taken.
    post: Mutex<Option<Post>>,
    /// `post.is_some()`, polled without the lock.
    posted: AtomicBool,
    /// The member, when it has parked waiting for a post.
    waiters: Waiters,
}

/// One job handed to a member, and where it reports.
struct Post {
    job: TeamJob<'static>,
    latch: Arc<Latch>,
    /// The job's position among its run's jobs.
    slot: usize,
    posted_at: Instant,
}

impl Member {
    fn spawn(index: usize) -> Arc<Member> {
        let member = Arc::new(Member {
            index,
            post: Mutex::new(None),
            posted: AtomicBool::new(false),
            waiters: Waiters::default(),
        });
        let me = Arc::clone(&member);
        std::thread::Builder::new()
            .name(format!("regent-member-{index}"))
            .spawn(move || me.serve())
            .expect("cannot spawn a team member thread");
        member
    }

    /// The member's life: pin, then run whatever is posted, forever.
    /// An unpinned member (no affinity call on this platform) still
    /// runs every job correctly, only with the wake-up placement left
    /// to the scheduler.
    fn serve(&self) {
        ring::pin_thread_to_core(self.index);
        loop {
            // A wait with no deadline returns only with a post.
            let Some(post) = self.waiters.wait(Duration::MAX, || self.take()) else {
                continue;
            };
            let Post {
                job,
                latch,
                slot,
                posted_at,
            } = post;
            let woke = posted_at.elapsed().as_nanos() as u64;
            latch.wake_ns[slot].store(woke, Ordering::Relaxed);
            if let Err(e) = catch_unwind(AssertUnwindSafe(job)) {
                let msg = panic_message(&*e);
                latch.lock_failures().push((slot, msg));
            }
            latch.finish_one();
        }
    }

    fn give(&self, post: Post) {
        *self.lock_post() = Some(post);
        self.posted.store(true, Ordering::Release);
        self.waiters.wake();
    }

    fn take(&self) -> Option<Post> {
        if !self.posted.load(Ordering::Acquire) {
            return None;
        }
        self.posted.store(false, Ordering::Relaxed);
        self.lock_post().take()
    }

    fn lock_post(&self) -> MutexGuard<'_, Option<Post>> {
        self.post.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One run's jobs: how many are still running, and what they reported.
struct Latch {
    running: AtomicUsize,
    /// The caller, when it has parked waiting for the last job.
    waiters: Waiters,
    epoch: Instant,
    /// Per job: nanoseconds from its post to its member's first
    /// instruction.
    wake_ns: Vec<AtomicU64>,
    /// Nanoseconds from `epoch` to the last job's completion.
    done_ns: AtomicU64,
    /// `(job, panic message)` of every job that unwound.
    failures: Mutex<Vec<(usize, String)>>,
}

impl Latch {
    fn finish_one(&self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.done_ns.fetch_max(now, Ordering::Relaxed);
        // Release: the caller's Acquire load of zero then sees every
        // result the jobs wrote.
        if self.running.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.waiters.wake();
        }
    }

    fn wait(&self) {
        self.waiters.wait(Duration::MAX, || {
            (self.running.load(Ordering::Acquire) == 0).then_some(())
        });
    }

    fn lock_failures(&self) -> MutexGuard<'_, Vec<(usize, String)>> {
        self.failures.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Waits for every job posted so far, then returns the members to the
/// idle list — when [`on_members`] returns and when it unwinds.
struct Borrowed<'m> {
    members: &'m [Arc<Member>],
    latch: &'m Latch,
}

impl Drop for Borrowed<'_> {
    fn drop(&mut self) {
        self.latch.wait();
        let mut all = members();
        for m in self.members {
            all[m.index].1 = true;
        }
    }
}

/// What a run's jobs reported once all of them had finished.
pub(crate) struct Joined {
    /// `(job, panic message)` of every job that unwound, in job order.
    pub(crate) failures: Vec<(usize, String)>,
    wake_ns: Vec<u64>,
    join_ns: u64,
    spawned: u64,
}

impl Joined {
    /// Records the run's team phases: one wake-up per job, one join,
    /// and the members it had to spawn.
    pub(crate) fn record(&self, mx: &mut MetricsHandle) {
        for &ns in &self.wake_ns {
            mx.record_ns(Timer::TeamWakeNs, ns);
        }
        mx.record_ns(Timer::TeamJoinNs, self.join_ns);
        mx.add(Counter::TeamMembersSpawned, self.spawned);
    }
}

/// Marks the `n` lowest-numbered idle members busy, spawning as many
/// more as are missing, and returns them with the number spawned.
fn take_members(n: usize) -> (Vec<Arc<Member>>, u64) {
    let mut all = members();
    let mut taken: Vec<Arc<Member>> = all
        .iter()
        .filter(|(_, idle)| *idle)
        .take(n)
        .map(|(m, _)| Arc::clone(m))
        .collect();
    let mut spawned = 0;
    while taken.len() < n {
        let member = Member::spawn(all.len());
        all.push((Arc::clone(&member), true));
        taken.push(member);
        spawned += 1;
    }
    for m in &taken {
        all[m.index].1 = false;
    }
    (taken, spawned)
}

/// Runs each of `jobs` on its own resident member and `caller` on this
/// thread, and returns `caller`'s result once every job has finished.
/// A job that panics is reported in [`Joined::failures`]; a `caller`
/// that panics unwinds out of here, also only after every job has
/// finished — so a caller whose jobs wait on it must release them as
/// it unwinds (the implicit executor closes its pool in a guard).
///
/// With `pin_caller`, this thread runs `caller` pinned to the CPU
/// position after its highest member's (0 with none), which is the one
/// position the members leave free when they are the lowest ones, and
/// gets its own mask back when `caller` returns or unwinds.
pub(crate) fn on_members<R>(
    jobs: Vec<TeamJob<'_>>,
    pin_caller: bool,
    caller: impl FnOnce() -> R,
) -> (R, Joined) {
    let n = jobs.len();
    let (taken, spawned) = take_members(n);
    // Pinned only now: a member spawned above inherits this thread's
    // mask, and must choose its CPU from the whole of it.
    let beside = taken.iter().map(|m| m.index + 1).max().unwrap_or(0);
    let pinned = pin_caller.then(|| ring::pin_scoped(beside));
    let latch = Arc::new(Latch {
        running: AtomicUsize::new(0),
        waiters: Waiters::default(),
        epoch: Instant::now(),
        wake_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        done_ns: AtomicU64::new(0),
        failures: Mutex::new(Vec::new()),
    });
    let borrowed = Borrowed {
        members: &taken,
        latch: &latch,
    };
    for (slot, (job, member)) in jobs.into_iter().zip(&taken).enumerate() {
        // SAFETY: the job may borrow anything that outlives this call,
        // and it does not outlive this call: `borrowed` was created
        // before the first post, is never moved or forgotten, and its
        // drop — which runs when this function returns and when it
        // unwinds — waits until `running` is back at zero, which a
        // member brings about only after the job has returned or
        // unwound and been dropped. This is the invariant
        // `std::thread::scope` keeps for the threads it joins.
        let job: TeamJob<'static> =
            unsafe { std::mem::transmute::<TeamJob<'_>, TeamJob<'static>>(job) };
        latch.running.fetch_add(1, Ordering::Relaxed);
        member.give(Post {
            job,
            latch: Arc::clone(&latch),
            slot,
            posted_at: Instant::now(),
        });
    }
    let r = caller();
    drop(pinned);
    drop(borrowed);
    let join_ns = (latch.epoch.elapsed().as_nanos() as u64)
        .saturating_sub(latch.done_ns.load(Ordering::Relaxed));
    let mut failures = std::mem::take(&mut *latch.lock_failures());
    failures.sort_by_key(|(job, _)| *job);
    let joined = Joined {
        failures,
        wake_ns: latch
            .wake_ns
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed))
            .collect(),
        join_ns,
        spawned,
    };
    (r, joined)
}

/// Renders a panic payload: the message of a `panic!` (`&str` or
/// `String`), which is what every diagnostic of this workspace is.
pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}
