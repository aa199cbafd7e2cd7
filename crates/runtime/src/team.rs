//! The shard-team driver: the one place a control-replicated run is set
//! up, threaded, and torn down.
//!
//! Control replication is one execution model — every shard runs the
//! same statements against its own instances (§3.5, §4) — so the
//! executors of this crate differ only in *where the statements come
//! from*. [`run_team`] owns everything else: it obtains the exchange
//! schedule, builds the collective, the barrier and the exchange mesh
//! (one SPSC ring per ordered shard pair, sized by the schedule) with
//! the run's hang timeout, spawns, pins (when the run says so) and
//! guards one thread per shard, joins them, picks the root-cause
//! failure, checks that the replicated scalar environments agree,
//! flushes written partitions back into the store, hands the shard
//! images back to the program and exports the metrics. How it does all
//! that is in its [`RunCtx`] — values its caller fixed, none looked up
//! from the process environment here or below. A strategy hands it a
//! **control source**: the per-shard `body` (the replicated walk of
//! `spmd.body`, or the tail of a launch-log cursor) plus at most one
//! auxiliary thread (the log sequencer). Range-local replication (§2.2)
//! is a loop over segments that calls this driver once per replicated
//! segment.

use crate::collective::{DynamicCollective, ShardBarrier};
use crate::metrics::{self, Timer};
use crate::plan::schedule_for_run;
use crate::ring;
use crate::run::{RunCtx, RunResult};
use crate::spmd_exec::{retry_budget, CopyMsg, DeathBoard, ShardExec, ShardStats};
use regent_cr::{ShardImage, SpmdProgram};
use regent_fault::{DeathCause, PeerDeath};
use regent_ir::Store;
use std::sync::Arc;

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

/// Runs one team of `spmd.num_shards` shard threads over `store` (which
/// holds the initial region contents and receives the final ones).
///
/// `body` is the strategy's per-shard control source; `aux` is its
/// auxiliary thread, named for failure reports, spawned before the
/// shards and joined after them. `slot` names the rescue slot of
/// `ctx.resilience` this team offers checkpoints into and resumes from
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
    // the retry budget's worth of frames (`ShardExec::send_framed`).
    let transmissions = match resilience {
        Some(o) if o.plan.corrupt_rate > 0.0 => retry_budget() as usize,
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
    // if new offers land while shards are spawning.
    let rescue = slot.and_then(|i| Some(resilience?.rescue.as_ref()?.slot(i, ns)));
    let resume = rescue.as_ref().and_then(|s| s.resume_state());

    let mut results: Vec<Option<(Vec<f64>, ShardStats, ShardImage)>> =
        (0..ns).map(|_| None).collect();

    std::thread::scope(|scope| {
        let (schedule, collective, barrier, body) = (&*schedule, &collective, &barrier, &body);
        let aux = aux.map(|(name, f)| {
            let handle = scope.spawn(move || {
                // Poison the shared primitives if the auxiliary thread
                // unwinds. It is not a shard, so it never self-blames
                // on a death board.
                let _guard = PanicGuard {
                    barrier,
                    collective,
                    shard: u32::MAX,
                    board: None,
                };
                f()
            });
            (name, handle)
        });
        let mut handles = Vec::with_capacity(ns);
        // Each shard takes ownership of exactly its sender row: when a
        // shard dies, its senders drop and every peer blocked on a
        // receive from it unwinds immediately instead of timing out.
        for (shard, (rx_row, tx_row)) in receivers.into_iter().zip(senders).enumerate() {
            let store_ref: &Store = store;
            let tracer = ctx.tracer;
            let (rescue, resume) = (rescue.clone(), resume.clone());
            handles.push(scope.spawn(move || {
                // If this shard panics (e.g. a kernel bug), poison the
                // shared primitives on the way out so peers blocked in
                // a barrier or collective unwind with a diagnostic
                // rather than deadlocking.
                let _guard = PanicGuard {
                    barrier,
                    collective,
                    shard: shard as u32,
                    board: resilience.and_then(|o| o.board.clone()),
                };
                if ctx.pin_cores {
                    ring::pin_thread_to_core(shard);
                }
                let mut exec = ShardExec::new(
                    spmd,
                    schedule,
                    shard,
                    store_ref,
                    initial_env.to_vec(),
                    (tx_row, rx_row),
                    (collective, barrier),
                    tracer,
                    resilience,
                    ctx.hang_timeout,
                );
                if let Some(r) = exec.resilience.as_mut() {
                    r.rescue = rescue;
                    r.resume = resume;
                }
                body(&mut exec);
                exec.flush_pool_metrics();
                exec.tb.flush();
                (exec.env, exec.stats, exec.data)
            }));
        }
        // Join every thread before reporting a failure: panicking while
        // the scope still holds unjoined (also-panicking) handles would
        // double-panic and abort the process.
        let mut failures: Vec<(String, String)> = Vec::new();
        for (shard, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => results[shard] = Some(r),
                Err(e) => failures.push((format!("shard {shard}"), panic_message(&*e))),
            }
        }
        if let Some((name, h)) = aux {
            if let Err(e) = h.join() {
                failures.push((name.to_string(), panic_message(&*e)));
            }
        }
        // Report the root cause — the message a supervisor classifies:
        // failures are scanned in shard order, so prefer the first one
        // that is not a secondary unwind.
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
    });

    let mut run = RunResult {
        setup,
        replicated_segments: 1,
        ..RunResult::default()
    };
    // Finalization (§3.1), on this thread — the store is never shared
    // mutably: every written partition instance goes back to the root
    // store along its memoized run list. Only now, after a clean join,
    // do the images return to the program for its next run; a team
    // that unwound above dropped them with its threads.
    let mut mx = metrics::global().handle("image");
    for (shard, r) in results.into_iter().enumerate() {
        let (env, stats, image) =
            r.expect("shard result missing despite all threads joining cleanly");
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
    // Merge the flush timer before the export below reads the registry.
    drop(mx);

    // Every shard handle merged when its thread finished above.
    metrics::global().export();
    run
}

/// Poisons the shared synchronization primitives when a team thread
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
    /// The unwinding thread's shard id (used only for self-blame).
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

/// Renders a panic payload: the message of a `panic!` (`&str` or
/// `String`), which is what every diagnostic of this workspace is.
pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}
