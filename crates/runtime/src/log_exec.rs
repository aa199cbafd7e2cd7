//! Shared-log control replication: the operation-log executor.
//!
//! The SPMD executor makes every shard re-execute the whole control
//! program. Here the control program runs **once**, on a single
//! *sequencer* thread, which unrolls the replicated control flow into
//! an append-only, epoch-segmented [`LaunchLog`] of leaf-statement
//! records (launches carry their `launch_sig` structural signature).
//! The sequencer publishes the records of each epoch segment as one
//! batch ([`LaunchLog::publish`]); per-shard executor
//! threads — spawned by the same shard-team driver as every other
//! strategy (`crate::team`), with the sequencer as its auxiliary
//! thread — tail the log with a lock-free [`LogCursor`] and drive the
//! *same* `ShardExec` engine as `spmd_exec`, one record at a time —
//! so exchanges, collectives, the integrity layer, and
//! checkpoint–rollback behave identically under both strategies, and
//! results stay bit-identical to the sequential reference.
//!
//! ## Replica topology
//!
//! Shards are grouped into *replicas* (one per simulated NUMA domain:
//! `REPLICAS`, or one when the run is single-shard): each replica's
//! leader shard runs
//! dependence analysis **once per replica per batch** — pairwise
//! overlap checks between the batch's launch records at the
//! use/partition granularity, deduplicated by signature pair — instead
//! of per shard (SPMD) or per point task (implicit). That is the
//! control-cost amortization this executor exists to demonstrate; the
//! `DepAnalysis` spans it emits are what the blame profiler compares
//! across strategies.
//!
//! ## Scalar feedback
//!
//! The sequencer evaluates replicated control flow (`For`/`While`/`If`
//! trip counts and conditions) in its own scalar environment. Scalars
//! produced by `AllReduce` collectives exist only on the shards, so
//! the sequencer publishes its pending segment (the shards cannot
//! reach the collective otherwise), then blocks on a feedback channel
//! (a small SPSC [`ring`](mod@crate::ring), so both ends wait like
//! every other SPMD-family thread) from the designated shard 0, which
//! sends each folded value exactly once (replays after a rollback are
//! suppressed by the useful-work gate). The fold is bit-identical on
//! every shard, so feeding the sequencer from shard 0 preserves
//! replication.
//!
//! ## Rollback
//!
//! Epoch-boundary batches (`step = Some(it)`) drive the same
//! checkpoint/crash/integrity machinery as the SPMD executor
//! (`resilience::boundary`); the checkpoint's resume token is the
//! boundary batch's log index, and a rollback simply rewinds the read
//! cursor — the log itself is immutable, which is what makes replay
//! trivially consistent.

use crate::launch_log::{LaunchLog, LogCursor};
use crate::memo::launch_sig;
use crate::metrics::{self, Counter, MetricsHandle, Timer};
use crate::resilience::boundary;
use crate::ring::{ring_with_timeout, RingReceiver, RingSender, SendError};
use crate::run::{RunCtx, RunResult};
use crate::spmd_exec::ShardExec;
use crate::team::run_team;
use regent_cr::spmd::{block_range, owner_of, ForestOracle};
use regent_cr::{SpmdArg, SpmdLaunch, SpmdProgram, SpmdStmt};
use regent_geometry::DynPoint;
use regent_ir::{Privilege, Store};
use regent_region::RegionId;
use regent_trace::{EventKind, OverlapOracle, TraceBuf};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Capacity of the shard-0 → sequencer scalar-feedback channel. The
/// protocol sends exactly one folded value per `AllReduce` and the
/// sequencer blocks for it immediately after publishing the segment,
/// so in a correct run depth never exceeds 1; the slack only exists so
/// a slow sequencer doesn't stall shard 0 between nearby collectives.
/// A full channel therefore means the sequencer has stopped consuming
/// — the sender gives it one hang-timeout to drain, then declares a
/// likely deadlock instead of blocking forever on an unbounded queue.
/// A power of two: it is the feedback ring's capacity.
const FEEDBACK_BOUND: usize = 4;

/// Executor replicas (simulated NUMA domains), shards permitting.
const REPLICAS: usize = 2;

/// One operation in the launch log: a leaf statement of the compiled
/// body plus, for launches, the [`launch_sig`] structural signature
/// replica leaders use to amortize dependence analysis.
pub(crate) struct LogRecord<'a> {
    /// The leaf statement (never control flow — the sequencer unrolls
    /// `For`/`While`/`If` while appending).
    stmt: &'a SpmdStmt,
    /// Structural signature of `Launch` records (task, representative
    /// point, region requirements); 0 for every other statement kind.
    sig: u64,
}

/// Shared-log execution statistics, reported beside the per-shard
/// [`crate::spmd_exec::ShardStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LogStats {
    /// Records the sequencer appended.
    pub appended_records: u64,
    /// Publications the sequencer made (one batch each).
    pub combines: u64,
    /// Batches published to the log.
    pub batches: u64,
    /// Executor replicas (NUMA domains) the shards were grouped into.
    pub replicas: u32,
    /// Largest consumer cursor lag (in batches) observed by any shard.
    pub max_cursor_lag: u64,
}

/// Seals the log when dropped, so consumers wake (with `None`) even
/// when the sequencer unwinds mid-program.
struct SealOnDrop<'l, T>(&'l LaunchLog<T>);

impl<T> Drop for SealOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.seal();
    }
}

/// The log-cursor control source: the team's auxiliary thread is the
/// sequencer (track `log-seq`), and every shard tails the launch log
/// instead of walking the body. The run has no resumable rescue slot:
/// the sequencer cannot re-derive `AllReduce` feedback it already
/// consumed.
pub(crate) fn run_log(spmd: &SpmdProgram, store: &mut Store, ctx: RunCtx<'_>) -> RunResult {
    let ns = spmd.num_shards;
    let n_replicas = REPLICAS.min(ns.max(1));
    let log: LaunchLog<LogRecord<'_>> = LaunchLog::new(ctx.hang_timeout);
    let (fb_tx, fb_rx) = ring_with_timeout::<f64>(FEEDBACK_BOUND, ctx.hang_timeout);
    // Only shard 0 holds the feedback sender, so its death disconnects
    // the sequencer instead of leaving it to time out.
    let fb_slot = Mutex::new(Some(fb_tx));
    let max_lag = AtomicU64::new(0);
    let mut seq_result: Option<(Vec<f64>, LogStats)> = None;

    let sequencer = {
        let (log, seq_result) = (&log, &mut seq_result);
        move || {
            // Always seal the log so consumers end.
            let _seal = SealOnDrop(log);
            let seq = Sequencer {
                spmd,
                log,
                pending: Vec::new(),
                feedback: fb_rx,
                hang_timeout: ctx.hang_timeout,
                env: ctx.initial_env(&spmd.scalars),
                epoch: 0,
                loop_depth: 0,
                pending_step: None,
                tb: ctx.tracer.buffer("log-seq"),
                mx: metrics::global().handle("log-seq"),
                stats: LogStats::default(),
            };
            *seq_result = Some(seq.run());
        }
    };
    let tail = |exec: &mut ShardExec<'_>| {
        let fb = if exec.shard == 0 {
            fb_slot.lock().expect("feedback slot poisoned").take()
        } else {
            None
        };
        let replica = owner_of(ns, n_replicas, exec.shard) as u32;
        let (block_start, _) = block_range(ns, n_replicas, replica as usize);
        let mut analysis = (exec.shard == block_start).then(|| ReplicaAnalysis {
            oracle: ForestOracle::new(&spmd.forest),
            seen_pairs: HashSet::new(),
        });
        let lag = run_shard_driver(exec, &log, replica, analysis.as_mut(), fb);
        max_lag.fetch_max(lag, Ordering::Relaxed);
    };
    let mut run = run_team(spmd, store, ctx, None, tail, Some(("sequencer", sequencer)));

    let (seq_env, log_stats) = seq_result.expect("sequencer result missing after clean join");
    debug_assert_eq!(
        run.env, seq_env,
        "sequencer environment diverged from the shards (feedback protocol bug)"
    );
    run.log = LogStats {
        replicas: n_replicas as u32,
        max_cursor_lag: max_lag.into_inner(),
        ..log_stats
    };
    run
}

/// The control program's single runner: walks the compiled body once,
/// evaluating replicated control flow locally and appending every leaf
/// statement to the log. See the module docs for the epoch-segmentation
/// and AllReduce-feedback protocols.
struct Sequencer<'a, 'l> {
    spmd: &'a SpmdProgram,
    log: &'l LaunchLog<LogRecord<'a>>,
    /// Records appended since the last publication, in program order.
    pending: Vec<LogRecord<'a>>,
    feedback: RingReceiver<f64>,
    hang_timeout: Duration,
    env: Vec<f64>,
    epoch: u64,
    loop_depth: u32,
    /// Boundary marker for the next published batch: `Some(it)` right
    /// after entering outermost-loop iteration `it`.
    pending_step: Option<u64>,
    tb: TraceBuf,
    mx: MetricsHandle,
    stats: LogStats,
}

impl<'a> Sequencer<'a, '_> {
    fn run(mut self) -> (Vec<f64>, LogStats) {
        let spmd = self.spmd;
        self.walk(&spmd.body);
        // Tail records after the last loop.
        self.flush();
        self.log.seal();
        self.tb.flush();
        (self.env, self.stats)
    }

    fn walk(&mut self, stmts: &'a [SpmdStmt]) {
        for s in stmts {
            match s {
                SpmdStmt::Launch(l) => {
                    let sig = launch_record_sig(self.spmd, l);
                    self.submit(s, sig);
                }
                SpmdStmt::Copy(_) | SpmdStmt::ResetTemp(_) | SpmdStmt::Barrier => {
                    self.submit(s, 0);
                }
                SpmdStmt::SetScalar { var, expr } => {
                    // Replicated assignment: evaluated locally (the
                    // sequencer's env drives control flow) *and*
                    // appended (each shard re-evaluates it in its own
                    // identical env).
                    self.env[var.0 as usize] = expr.eval(&self.env);
                    self.submit(s, 0);
                }
                SpmdStmt::AllReduce { var, .. } => {
                    self.submit(s, 0);
                    // The fold happens on the shards. Publish the
                    // pending segment — the shards cannot reach the
                    // collective otherwise — then block for shard 0's
                    // feedback of the folded value.
                    self.flush();
                    let timeout = self.hang_timeout;
                    let folded = self.feedback.recv_timeout(timeout).unwrap_or_else(|e| {
                        panic!(
                            "likely deadlock: sequencer waited {timeout:?} for AllReduce feedback on \
                             scalar {} ({e:?}) — shard 0 stalled or died",
                            var.0
                        )
                    });
                    self.env[var.0 as usize] = folded;
                }
                SpmdStmt::For { count, body } => {
                    let n = count.eval(&self.env).max(0.0) as u64;
                    let mut it = 0u64;
                    while it < n {
                        self.iteration(it, body);
                        it += 1;
                    }
                }
                SpmdStmt::While { cond, body } => {
                    let mut it = 0u64;
                    while cond.eval(&self.env) != 0.0 {
                        self.iteration(it, body);
                        it += 1;
                    }
                }
                SpmdStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if cond.eval(&self.env) != 0.0 {
                        self.walk(then_body);
                    } else {
                        self.walk(else_body);
                    }
                }
            }
        }
    }

    /// One loop iteration. At the outermost level this is an epoch
    /// segment: publish whatever preceded it, mark the next batch as
    /// the boundary of iteration `it`, and publish the segment's tail
    /// before the epoch counter advances (so every batch carries the
    /// epoch its records belong to).
    fn iteration(&mut self, it: u64, body: &'a [SpmdStmt]) {
        if self.loop_depth == 0 {
            self.flush();
            self.pending_step = Some(it);
        }
        self.loop_depth += 1;
        self.walk(body);
        self.loop_depth -= 1;
        if self.loop_depth == 0 {
            self.flush();
            self.epoch += 1;
        }
    }

    fn submit(&mut self, stmt: &'a SpmdStmt, sig: u64) {
        self.pending.push(LogRecord { stmt, sig });
        self.stats.appended_records += 1;
        self.mx.incr(Counter::LogAppends);
    }

    /// Publishes the pending records as one batch (a no-op when nothing
    /// is pending and no boundary marker is due).
    fn flush(&mut self) {
        let step = self.pending_step.take();
        if self.pending.is_empty() && step.is_none() {
            return;
        }
        let t0 = self.tb.now();
        let m0 = self.mx.start();
        let first = self.log.published();
        let n = self.pending.len();
        self.log
            .publish(self.epoch, step, std::mem::take(&mut self.pending));
        self.stats.combines += 1;
        self.stats.batches += 1;
        self.mx.add(Counter::LogCombinedRecords, n as u64);
        self.mx.incr(Counter::LogCombinedBatches);
        self.mx.record_since(m0, Timer::LogCombineNs);
        if self.tb.is_enabled() {
            self.tb.push(
                t0,
                0,
                EventKind::LogAppend {
                    epoch: self.epoch,
                    batch: first as u32,
                    records: n as u32,
                },
            );
            self.tb.span_since(
                t0,
                EventKind::LogCombine {
                    batch: first as u32,
                    records: n as u32,
                },
            );
        }
    }
}

/// The region requirements of one launch record at the use/partition
/// granularity — the inputs to both the record signature and the
/// per-replica batch analysis.
fn launch_accesses(spmd: &SpmdProgram, l: &SpmdLaunch) -> Vec<(RegionId, Privilege)> {
    let decl = spmd.task(l.task);
    l.args
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let base = match a {
                SpmdArg::Use(u) => spmd.uses[*u].base,
                SpmdArg::Temp(t) => spmd.temps[t.0 as usize].base,
            };
            (
                regent_cr::analysis::base_region(&spmd.forest, base),
                decl.params[i].privilege,
            )
        })
        .collect()
}

/// [`launch_sig`] of a launch record: the task, a representative point
/// of the launch domain, and the use-level region requirements.
fn launch_record_sig(spmd: &SpmdProgram, l: &SpmdLaunch) -> u64 {
    let accesses = launch_accesses(spmd, l);
    let point = spmd.launch_domains[l.domain.0 as usize]
        .first()
        .copied()
        .unwrap_or_else(|| DynPoint::new(&[0]));
    launch_sig(l.task.0, &point, accesses)
}

/// Per-replica dependence-analysis state, held by the replica's leader
/// shard. Signature pairs already analyzed are skipped — analysis cost
/// is amortized across epochs, the same economy the memoized implicit
/// executor gets from epoch templates.
struct ReplicaAnalysis<'a> {
    oracle: ForestOracle<'a>,
    seen_pairs: HashSet<(u64, u64)>,
}

/// Runs the once-per-replica-per-batch dependence analysis: pairwise
/// overlap/privilege checks between the batch's launch records at the
/// use/partition granularity. Emits one `DepAnalysis` span (`pos` is
/// the replica id) so the blame profiler can compare control cost
/// across strategies.
fn analyze_batch(
    exec: &mut ShardExec<'_>,
    records: &[LogRecord<'_>],
    replica: u32,
    an: &mut ReplicaAnalysis<'_>,
) {
    let launches: Vec<(&SpmdLaunch, u64)> = records
        .iter()
        .filter_map(|r| match r.stmt {
            SpmdStmt::Launch(l) => Some((l, r.sig)),
            _ => None,
        })
        .collect();
    if launches.is_empty() {
        return;
    }
    let t0 = exec.tb.now();
    let m0 = exec.mx.start();
    let first_launch = exec.launch_seq;
    let accesses: Vec<Vec<(RegionId, Privilege)>> = launches
        .iter()
        .map(|(l, _)| launch_accesses(exec.spmd, l))
        .collect();
    let mut checks = 0u32;
    for i in 0..launches.len() {
        for j in 0..i {
            let (si, sj) = (launches[i].1, launches[j].1);
            let key = if si <= sj { (si, sj) } else { (sj, si) };
            if !an.seen_pairs.insert(key) {
                continue;
            }
            for &(ra, pa) in &accesses[i] {
                for &(rb, pb) in &accesses[j] {
                    checks += 1;
                    // The conflict verdict is what the SPMD transform
                    // already baked into the copy placement; computing
                    // it here is the per-batch analysis cost being
                    // measured, not a scheduling input.
                    let _conflict = an.oracle.overlaps(ra.0, rb.0)
                        && (!matches!(pa, Privilege::Read) || !matches!(pb, Privilege::Read));
                }
            }
        }
    }
    exec.mx.incr(Counter::LogAnalyses);
    exec.mx.record_since(m0, Timer::LogAnalysisNs);
    exec.tb.span_since(
        t0,
        EventKind::DepAnalysis {
            launch: first_launch,
            pos: replica,
            checks,
        },
    );
}

/// Sends one folded `AllReduce` value to the sequencer over the
/// bounded feedback ring, giving a stalled sequencer one hang timeout
/// to drain the backlog before declaring a likely deadlock.
fn send_feedback(fb: &mut RingSender<f64>, var: u32, value: f64) {
    match fb.send(value) {
        Ok(_) => {}
        Err(SendError::Closed(_)) => {
            panic!("sequencer died before the run finished (feedback channel disconnected)")
        }
        Err(SendError::Full(_)) => panic!(
            "likely deadlock: shard 0 waited {:?} to feed back AllReduce scalar {} — \
             feedback channel full ({FEEDBACK_BOUND} pending), sequencer stalled",
            fb.timeout, var
        ),
    }
}

/// Tails the log and executes every record through the shared
/// [`ShardExec`] engine. Returns the largest cursor lag observed.
fn run_shard_driver(
    exec: &mut ShardExec<'_>,
    log: &LaunchLog<LogRecord<'_>>,
    replica: u32,
    mut analysis: Option<&mut ReplicaAnalysis<'_>>,
    mut fb: Option<RingSender<f64>>,
) -> u64 {
    let mut cursor = LogCursor::new();
    let mut max_lag = 0u64;
    while let Some(batch) = log.wait(cursor.next) {
        // Lag counts this batch too: published minus consumed.
        let lag = cursor.lag(log) as u64;
        max_lag = max_lag.max(lag);
        cursor.next += 1;
        exec.epoch = batch.epoch;
        if let Some(it) = batch.step {
            // Epoch boundary: snapshot / crash / integrity sweep, with
            // the boundary batch's log index as the resume token.
            if let Some(token) = boundary(exec, it == 0, batch.index as u64) {
                cursor.rewind(token as usize);
                continue;
            }
            exec.tb.instant(EventKind::StepBegin { step: it });
        }
        if let Some(an) = analysis.as_deref_mut() {
            // Replica leader: consumption event, lag metric, and the
            // once-per-replica-per-batch dependence analysis.
            exec.mx.add(Counter::LogCursorLag, lag);
            if exec.tb.is_enabled() {
                exec.tb.instant(EventKind::LogConsume {
                    replica,
                    batch: batch.index as u32,
                    records: batch.records.len() as u32,
                    lag: lag as u32,
                });
            }
            analyze_batch(exec, &batch.records, replica, an);
        }
        for rec in &batch.records {
            exec.run_stmt(rec.stmt);
            if let (Some(fb), SpmdStmt::AllReduce { var, .. }) = (&mut fb, rec.stmt) {
                // Designated feedback shard: return the folded value
                // to the sequencer — once per logical collective (the
                // useful-work gate suppresses post-rollback replays).
                if exec.useful_work() {
                    send_feedback(fb, var.0, exec.env[var.0 as usize]);
                }
            }
        }
    }
    max_lag
}
