//! The implicitly parallel executor — the non-control-replicated
//! baseline ("Regent w/o CR" in Figures 6–9).
//!
//! A single control thread walks the program in issue order, performs
//! dynamic dependence analysis for every point task against the window
//! of in-flight tasks (the Legion model of §4.1: "Legion discovers
//! parallelism between tasks by computing a dynamic dependence graph
//! over the tasks in an executing program"), and hands ready tasks to a
//! worker pool. Two accesses conflict — and their tasks are ordered —
//! only when all three hold: the privileges are incompatible, the
//! declared field sets intersect, and the regions may alias. The third
//! is the forest's: the window keeps its records by region, and a new
//! access visits only the records on the regions
//! [`RegionForest::aliases`] lists for its own (kept by the program's
//! forest from one run to the next). Each of those records then costs a
//! compare of privileges and an `and` of two field masks (the masks the
//! Spy validator reads from the trace, so executor and certifier apply
//! one rule).
//!
//! The window holds one record per access and stays small because a
//! record is *retired* as soon as a later mutating access dominates it
//! (same region or an ancestor, covering its fields): anything that
//! would conflict with the retired record also conflicts with the
//! dominating one, and the happens-before graph is transitive.
//!
//! The calling thread is the control thread and also worker 0; workers
//! 1 … W−1 are resident team members (`team.rs`), taken for the run and
//! returned after it. For the run, the control thread is pinned to the
//! CPU its members leave free, so W workers and the control thread
//! share W CPUs without one of them waiting for another's CPU. Each
//! worker has a ready queue, and the [`Mapper`] picks the queue; the
//! default places each launch in blocks, worker W−1−s running the points
//! SPMD shard s owns, so worker 0 gets the last block. The control
//! thread runs queue 0's ready jobs after each launch, and in a drain it
//! runs them as they become ready; a member with nothing to run, and the
//! control thread in a drain with nothing to run, block in the runtime's
//! one wait primitive (`wait.rs`: spin briefly, then park). Worker 0's
//! kernel runs are traced on the control thread's track, in program
//! order with its analysis.
//!
//! This is precisely the architecture whose *per-task control overhead*
//! grows with the machine: the control thread does O(N) analysis work
//! per time step. The executor counts that work
//! ([`ImplicitStats::dependence_checks`]) so the machine model in
//! `regent-machine` can charge it when projecting to large node counts,
//! and — when [`ImplicitOptions::tracer`] is enabled — records every
//! launch, analysis span, dependence edge, and kernel run as structured
//! events for the `regent-trace` consumers.
//!
//! Reduction privileges are serialized against each other here (rather
//! than staged through temporaries), which keeps fold order identical
//! to program order — executions are bit-identical to the sequential
//! interpreter, which the test suite exploits.
//!
//! ## Epoch-trace memoization
//!
//! With [`ImplicitOptions::memo`] set, the control thread memoizes one
//! epoch's (outermost-loop iteration's) dependence analysis as a
//! template and replays it on subsequent structurally identical epochs
//! (see [`crate::memo`]). A replayed epoch begins with a pool drain —
//! the trace fence that orders everything older before it — and then
//! issues each launch with the template's intra-epoch edges instead of
//! scanning the window. Each replayed launch still resolves its region
//! arguments and consults the [`Mapper`], so mapping decisions are
//! honored identically with and without replay; only the analysis is
//! skipped. Any divergence from the predicted template falls back to
//! full analysis mid-epoch, so memoization never changes results —
//! executions stay bit-identical to the interpreter.

use crate::config;
use crate::mapper::{DefaultMapper, Mapper};
use crate::memo::{self, EpochTemplate, MemoCache};
use crate::metrics::{self, Counter, MetricsHandle, Timer};
use crate::team::{on_members, panic_message, TeamJob};
use crate::wait::Waiters;
use regent_geometry::DynPoint;
use regent_ir::{
    interp::resolve_arg, ArgSlot, IndexLaunch, Privilege, Program, RegionArg, RegionParam, Stmt,
    Store, TaskCtx, TaskDecl, TaskId,
};
use regent_region::{Disjointness, Instance, RegionForest, RegionId};
use regent_trace::{fields_mask, EventKind, PrivCode, TraceBuf, Tracer};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Options for the implicit executor.
#[derive(Clone)]
pub struct ImplicitOptions {
    /// Workers executing ready tasks: the control thread is worker 0,
    /// and each of the others runs on a resident team member, so a run
    /// takes `num_workers − 1` members (none at 1).
    pub num_workers: usize,
    /// The mapping policy assigning point tasks to workers (§4.2).
    pub mapper: Arc<dyn Mapper>,
    /// Event recorder; [`Tracer::disabled`] makes recording free.
    pub tracer: Arc<Tracer>,
    /// Epoch-trace memoization cache; `None` runs every epoch through
    /// full dependence analysis. Share one cache
    /// ([`MemoCache::shared`]) across executions to replay from the
    /// very first epoch of a re-run.
    pub memo: Option<Arc<Mutex<MemoCache>>>,
    /// How long the control thread waits in a drain, with none of
    /// worker 0's jobs ready, before it panics with a "likely deadlock"
    /// diagnostic. A kernel it runs as worker 0 is not bounded by it.
    pub hang_timeout: Duration,
}

impl ImplicitOptions {
    /// `num_workers` workers with the default (block) mapper,
    /// tracing off, memoization off, and the process's hang timeout
    /// (`config::process`).
    pub fn with_workers(num_workers: usize) -> Self {
        ImplicitOptions {
            num_workers,
            mapper: Arc::new(DefaultMapper),
            tracer: Tracer::disabled(),
            memo: None,
            hang_timeout: config::process().hang_timeout,
        }
    }

    /// Enables epoch-trace memoization backed by `cache`.
    pub fn with_memo(mut self, cache: Arc<Mutex<MemoCache>>) -> Self {
        self.memo = Some(cache);
        self
    }
}

impl Default for ImplicitOptions {
    fn default() -> Self {
        ImplicitOptions::with_workers(4)
    }
}

/// Statistics from an implicit execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct ImplicitStats {
    /// Point tasks launched.
    pub tasks_launched: u64,
    /// Window records the control thread compared with a new access
    /// on a region that may alias theirs (privileges and field masks)
    /// — the dynamic-analysis work that makes single-control-thread
    /// execution stop scaling (§1).
    pub dependence_checks: u64,
    /// Dependence edges found: one per predecessor that analysis or a
    /// memo replay orders a task after, whether or not it had finished
    /// by then — the `DepEdge` events a traced run records, so a
    /// function of the program, not of the schedule.
    pub dependence_edges: u64,
    /// Peak size of the analysis window, in records (one per region
    /// access of a task that a later task may still have to follow).
    pub max_window: usize,
    /// Epochs captured as reusable memoization templates.
    pub memo_captures: u64,
    /// Epochs fully replayed from a template (no analysis ran).
    pub memo_hits: u64,
    /// Replay attempts that diverged back to full analysis.
    pub memo_misses: u64,
    /// Template-cache invalidations observed (region-forest changes).
    pub memo_invalidations: u64,
    /// Point tasks issued by replay, without a window scan.
    pub memo_replayed_tasks: u64,
}

struct Job<'p> {
    task: TaskId,
    /// The region arguments, bound by the control thread at issue time
    /// and locked by the one worker that runs the job.
    slots: Mutex<Vec<ArgSlot<'p>>>,
    scalars: Vec<f64>,
    point: DynPoint,
    /// Dynamic launch sequence number (trace identity).
    launch: u32,
    /// Position in the launch domain (trace identity).
    pos: u32,
    /// Worker chosen by the mapper (§4.2).
    worker: usize,
    ret: Mutex<Option<f64>>,
    /// Dependencies not yet satisfied; the job is ready at zero.
    remaining: AtomicUsize,
    /// Jobs to notify on completion. Guarded together with `done`.
    dependents: Mutex<Vec<Arc<Job<'p>>>>,
    done: AtomicBool,
}

/// One worker's ready jobs.
#[derive(Default)]
struct ReadyQueue<'p> {
    jobs: Mutex<VecDeque<Arc<Job<'p>>>>,
    /// `jobs.len()`, stored under the lock after every change, so the
    /// worker polls an empty queue without taking the lock.
    len: AtomicUsize,
    /// The worker, when it has parked on an empty queue. Queue 0's is
    /// the control thread's one wait set: it is worker 0, and the last
    /// job to finish wakes it too.
    waiters: Waiters,
}

struct Pool<'p> {
    /// One ready queue per worker; the mapper picks the queue.
    ready: Vec<ReadyQueue<'p>>,
    /// Jobs issued and not yet run: the drain waits for zero.
    outstanding: AtomicUsize,
    /// Set when the control thread is done issuing (or unwinding), or a
    /// worker unwound: workers exit instead of waiting for more.
    closed: AtomicBool,
    hang_timeout: Duration,
}

impl<'p> Pool<'p> {
    fn new(workers: usize, hang_timeout: Duration) -> Self {
        Pool {
            ready: (0..workers).map(|_| ReadyQueue::default()).collect(),
            outstanding: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            hang_timeout,
        }
    }

    fn submit(&self, job: Arc<Job<'p>>) {
        let q = &self.ready[job.worker];
        {
            let mut jobs = q
                .jobs
                .lock()
                .expect("no thread panics holding a ready queue");
            jobs.push_back(job);
            q.len.store(jobs.len(), Ordering::Release);
        }
        q.waiters.wake();
    }

    /// `worker`'s oldest ready job, without waiting.
    fn pop(&self, worker: usize) -> Option<Arc<Job<'p>>> {
        let q = &self.ready[worker];
        if q.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut jobs = q
            .jobs
            .lock()
            .expect("no thread panics holding a ready queue");
        let job = jobs.pop_front();
        q.len.store(jobs.len(), Ordering::Release);
        job
    }

    /// Blocks until `worker` (a member, not worker 0) has a job, or
    /// returns `None` once the pool is closed. A member waits with no
    /// deadline: the control thread's drain is what times out, and
    /// closing the pool (which unwinding does too) is what ends an idle
    /// member.
    fn next(&self, worker: usize) -> Option<Arc<Job<'p>>> {
        self.ready[worker]
            .waiters
            .wait(Duration::MAX, || {
                if self.closed.load(Ordering::Acquire) {
                    return Some(None);
                }
                self.pop(worker).map(Some)
            })
            .flatten()
    }

    /// Ends every worker's wait for more jobs, the control thread's
    /// drain included.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for q in &self.ready {
            q.waiters.wake();
        }
    }

    fn complete_one(&self) {
        // Release: the drain's Acquire load of zero then sees everything
        // the finished kernels wrote.
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.ready[0].waiters.wake();
        }
    }

    fn register(&self) {
        // Publishes nothing: only the count itself is read.
        self.outstanding.fetch_add(1, Ordering::Relaxed);
    }

    /// The control thread's wait in a drain: worker 0's next ready job,
    /// or `None` once every issued job has run. The hang timeout bounds
    /// this wait, not the jobs the control thread runs between two
    /// waits. A pool that a failed worker closed never drains: the
    /// control thread stops with [`WorkerFailed`], and the run reports
    /// the worker's panic.
    fn next_own_or_drained(&self) -> Option<Arc<Job<'p>>> {
        let got = self.ready[0].waiters.wait(self.hang_timeout, || {
            if self.outstanding.load(Ordering::Acquire) == 0 || self.closed.load(Ordering::Acquire)
            {
                return Some(None);
            }
            self.pop(0).map(Some)
        });
        match got {
            Some(Some(job)) => Some(job),
            Some(None) if self.outstanding.load(Ordering::Acquire) == 0 => None,
            // No panic hook runs: the worker's panic already reported.
            Some(None) => resume_unwind(Box::new(WorkerFailed)),
            None => panic!(
                "likely deadlock: control thread waited {:?} for the worker pool to drain ({} tasks still outstanding)",
                self.hang_timeout,
                self.outstanding.load(Ordering::Acquire)
            ),
        }
    }
}

/// The control thread's unwind when a worker's panic closed the pool.
struct WorkerFailed;

/// Closes the pool when dropped, so the members' jobs end whether the
/// control thread returns or unwinds, and a member that unwinds stops
/// the control thread.
struct CloseOnDrop<'a, 'p>(&'a Pool<'p>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

fn run_job<'p>(
    job: &Job<'p>,
    tasks: &[TaskDecl],
    pool: &Pool<'p>,
    tb: &mut TraceBuf,
    mx: &mut MetricsHandle,
) {
    let decl = &tasks[job.task.0 as usize];
    let slots = job
        .slots
        .lock()
        .expect("only the worker running the job locks its slots");
    let mut ctx = TaskCtx::new(&slots, &job.scalars, job.point);
    let t0 = tb.now();
    let m0 = mx.start();
    (decl.kernel)(&mut ctx);
    mx.incr(Counter::TaskRuns);
    mx.record_since(m0, Timer::TaskRunNs);
    tb.span_since(
        t0,
        EventKind::TaskRun {
            launch: job.launch,
            pos: job.pos,
            task: job.task.0,
        },
    );
    *job.ret.lock().unwrap() = ctx.return_value;
    // Mark done and release dependents under the lock so late
    // edge-additions observe a consistent state.
    let deps = {
        let mut d = job.dependents.lock().unwrap();
        job.done.store(true, Ordering::SeqCst);
        std::mem::take(&mut *d)
    };
    for dep in deps {
        if dep.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            pool.submit(dep);
        }
    }
    pool.complete_one();
}

/// One region access of a point task — what the dependence analysis
/// compares.
#[derive(Clone, Copy)]
struct Access {
    region: RegionId,
    privilege: Privilege,
    /// [`fields_mask`] of the declared fields: the value the trace's
    /// `TaskAccess` event carries and the Spy validator intersects.
    /// Field ids ≥ 64 wrap, which can only add conflicts.
    fields: u64,
}

impl Access {
    /// The access a task makes to `region` through `param`.
    fn new(region: RegionId, param: &RegionParam) -> Self {
        Access {
            region,
            privilege: param.privilege,
            fields: fields_mask(param.fields.iter().map(|f| f.0)),
        }
    }

    /// The conflict rule for two accesses to regions that may alias
    /// ([`RegionForest::aliases`]): incompatible privileges **and**
    /// intersecting field sets.
    #[inline]
    fn conflicts_with(&self, later: &Access) -> bool {
        needs_edge(self.privilege, later.privilege) && self.fields & later.fields != 0
    }

    /// True when `self`, issued after `earlier`, makes `earlier`'s
    /// window record redundant: `self` mutates (so, reductions being
    /// serialized, it conflicts with every privilege), covers
    /// `earlier`'s fields, and names the same region or an ancestor
    /// (so it contains `earlier`'s elements). Whatever conflicts with
    /// `earlier` from now on conflicts with `self` too, and `earlier`
    /// already has its edge to `self`.
    fn dominates(&self, earlier: &Access, forest: &RegionForest) -> bool {
        self.privilege.mutates()
            && earlier.fields & !self.fields == 0
            && forest.is_ancestor_or_self(self.region, earlier.region)
    }
}

/// An access of an issued task that a later task might still have to
/// be ordered after.
struct Record<'p> {
    access: Access,
    job: Arc<Job<'p>>,
    /// The number of the last analysis that found this record in
    /// conflict: that analysis's first conflicting access decided it.
    decided: u64,
}

/// Control-thread state: the records, kept by the region of their
/// access, each bucket in issue order.
struct Window<'p> {
    by_region: Vec<Vec<Record<'p>>>,
    /// Records in all buckets.
    len: usize,
    /// Analyses run so far; the running one's number stamps the records
    /// it decides.
    analyses: u64,
    /// [`launch_covers`] of every index launch issued so far, by
    /// statement (the program does not move or change during a run).
    covers: HashMap<*const IndexLaunch, Vec<Access>>,
    /// The last analysis's predecessors; one buffer for the run.
    preds: Vec<Arc<Job<'p>>>,
}

/// The regions an index launch overwrites as a whole, as the accesses
/// of one imaginary task: for every argument `p[i]` held with a
/// mutating privilege, where `p` is a disjoint partition whose
/// subregions tile their parent and the launch visits each of them,
/// that privilege on the parent region. Together the point tasks
/// dominate an older record under the parent just as a single task
/// mutating the parent would ([`Access::dominates`]): whatever
/// conflicts with the record later shares an element with it, that
/// element lies in one subregion, and the point task of that subregion
/// is ordered between the two. This is what retires reads made through
/// an aliased partition (Stencil's halos, ghost nodes) once their
/// region has been rewritten through the disjoint one.
fn launch_covers(program: &Program, il: &IndexLaunch) -> Vec<Access> {
    let forest = &program.forest;
    let points: HashSet<&DynPoint> = il.launch_domain.iter().collect();
    let params = &program.task(il.task).params;
    let mut out = Vec::new();
    for (arg, param) in il.args.iter().zip(params) {
        let RegionArg::Part(p) = arg else { continue };
        let part = forest.partition(*p);
        if !param.privilege.mutates() || part.disjointness != Disjointness::Disjoint {
            continue;
        }
        let visits_every_subregion =
            points.len() == part.len() && part.iter().all(|(color, _)| points.contains(&color));
        let tiled: u64 = part
            .child_regions()
            .map(|c| forest.domain(c).volume())
            .sum();
        if visits_every_subregion && tiled == forest.domain(part.parent).volume() {
            out.push(Access::new(part.parent, param));
        }
    }
    out
}

impl<'p> Window<'p> {
    fn new(forest: &RegionForest) -> Self {
        Window {
            by_region: (0..forest.num_regions()).map(|_| Vec::new()).collect(),
            len: 0,
            analyses: 0,
            covers: HashMap::new(),
            preds: Vec::new(),
        }
    }

    fn push(&mut self, access: Access, job: &Arc<Job<'p>>) {
        self.by_region[access.region.0 as usize].push(Record {
            access,
            job: Arc::clone(job),
            decided: 0,
        });
        self.len += 1;
    }

    /// Keeps the records for which `keep` holds, in every bucket.
    fn retain(&mut self, mut keep: impl FnMut(&Record<'p>) -> bool) {
        for bucket in self.by_region.iter_mut().filter(|b| !b.is_empty()) {
            let before = bucket.len();
            bucket.retain(&mut keep);
            self.len -= before - bucket.len();
        }
    }

    fn clear(&mut self) {
        self.retain(|_| false);
    }

    /// Retires the records older than index launch `il` (sequence
    /// number `launch`) that its point tasks together dominate.
    fn retire_covered(&mut self, program: &Program, il: &IndexLaunch, launch: u32) {
        let mut all = std::mem::take(&mut self.covers);
        let covers = all
            .entry(il as *const IndexLaunch)
            .or_insert_with(|| launch_covers(program, il));
        if !covers.is_empty() {
            self.retain(|rec| {
                rec.job.launch >= launch
                    || !covers
                        .iter()
                        .any(|c| c.dominates(&rec.access, &program.forest))
            });
        }
        self.covers = all;
    }

    /// Drops the records of finished tasks. Not part of the steady
    /// state — dominated records are retired as they are found — but a
    /// program that never writes what it reads retires nothing.
    fn prune(&mut self) {
        self.retain(|rec| !rec.job.done.load(Ordering::SeqCst));
    }

    /// The dependence analysis of one task with `accesses`: returns its
    /// predecessors in issue order, one per task, and retires every
    /// record one of them dominates. A record is decided by the first of
    /// `accesses`, in argument order, that conflicts with it, as when
    /// every record met every access in turn; the buckets visited for an
    /// access are those of [`RegionForest::aliases`] of its region.
    /// Adds the records compared to `checks`.
    fn analyse(
        &mut self,
        forest: &RegionForest,
        accesses: &[Access],
        checks: &mut u64,
    ) -> &[Arc<Job<'p>>] {
        self.analyses += 1;
        let stamp = self.analyses;
        let preds = &mut self.preds;
        preds.clear();
        for next in accesses {
            for &s in forest.aliases(next.region) {
                let bucket = &mut self.by_region[s.0 as usize];
                let before = bucket.len();
                bucket.retain_mut(|rec| {
                    if rec.decided == stamp {
                        return true;
                    }
                    *checks += 1;
                    if !rec.access.conflicts_with(next) {
                        return true;
                    }
                    rec.decided = stamp;
                    preds.push(Arc::clone(&rec.job));
                    !next.dominates(&rec.access, forest)
                });
                self.len -= before - bucket.len();
            }
        }
        // Launch and position order is issue order.
        preds.sort_unstable_by_key(|j| (j.launch, j.pos));
        preds.dedup_by(|a, b| Arc::ptr_eq(a, b));
        preds
    }
}

/// Control-thread bookkeeping threaded through statement execution:
/// statistics, the event recorder, the trace identity counters, and
/// the memoization state.
struct Ctl<'p> {
    stats: ImplicitStats,
    tb: TraceBuf,
    mx: MetricsHandle,
    launch_seq: u32,
    loop_depth: u32,
    memo: Option<MemoRt<'p>>,
    w0: Worker0,
}

/// Worker 0, which the control thread is: the metrics of its kernels,
/// and the panic of one that failed. Its kernel runs are recorded on the
/// control thread's trace buffer, so the trace keeps them in program
/// order with the analysis the same thread does between them.
struct Worker0 {
    mx: MetricsHandle,
    failure: Option<String>,
}

impl<'p> Ctl<'p> {
    /// Runs worker 0's jobs that are ready now, without waiting.
    fn run_ready(&mut self, pool: &Pool<'p>, tasks: &[TaskDecl]) {
        while let Some(job) = pool.pop(0) {
            self.run_own(&job, pool, tasks);
        }
    }

    /// Waits until every issued job has run, running worker 0's as they
    /// become ready, then emits the drain marker (a full barrier in the
    /// happens-before graph).
    fn drain(&mut self, pool: &Pool<'p>, tasks: &[TaskDecl]) {
        while let Some(job) = pool.next_own_or_drained() {
            self.run_own(&job, pool, tasks);
        }
        self.tb.instant(EventKind::Drain);
    }

    /// Runs one of worker 0's jobs. A kernel that panics closes the
    /// pool and stops the control thread; the run reports it as worker
    /// 0's panic once the members have returned.
    fn run_own(&mut self, job: &Job<'p>, pool: &Pool<'p>, tasks: &[TaskDecl]) {
        let (tb, w0) = (&mut self.tb, &mut self.w0);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_job(job, tasks, pool, tb, &mut w0.mx)
        }));
        if let Err(e) = ran {
            w0.failure = Some(panic_message(&*e));
            pool.close();
            resume_unwind(Box::new(WorkerFailed));
        }
    }
}

/// Memoization runtime state: the shared template cache plus the epoch
/// currently being recorded or replayed.
struct MemoRt<'p> {
    cache: Arc<Mutex<MemoCache>>,
    /// Open while the control flow is inside an outermost-loop
    /// iteration.
    epoch: Option<EpochRec<'p>>,
}

/// Recording/replay state of one open epoch.
struct EpochRec<'p> {
    /// Outermost-loop iteration number (trace identity).
    step: u64,
    /// Region-forest version the epoch runs against (stamped into any
    /// template captured from it).
    forest_version: u64,
    /// Launch signatures in issue order.
    sigs: Vec<u64>,
    /// Intra-epoch predecessor indices per launch — the template
    /// payload. Kept parallel to `sigs` in both modes.
    edges: Vec<Vec<u32>>,
    /// Job handles by epoch index (replay edge targets).
    jobs: Vec<Arc<Job<'p>>>,
    /// Job identity (`Arc` pointer) → epoch index, for recognizing
    /// intra-epoch predecessors during capture.
    index_of: HashMap<usize, u32>,
    /// The template being replayed; `None` in capture mode or after a
    /// divergence.
    replay: Option<EpochTemplate>,
    /// Next template position to match during replay.
    cursor: usize,
    /// A replay diverged somewhere in this epoch.
    missed: bool,
    /// The window overflowed mid-epoch and was pruned; the recorded
    /// edges may be incomplete, so no template may be stored.
    poisoned: bool,
    /// Dependence checks paid inside this epoch.
    checks: u64,
    /// Tasks issued via replay in this epoch.
    replayed: u64,
}

/// Opens a new epoch at an outermost-loop iteration boundary: closes
/// the previous epoch, validates the template cache against the region
/// forest, and decides between replay (fence + template) and capture.
fn memo_begin_epoch<'p>(
    program: &'p Program,
    pool: &Pool<'p>,
    window: &mut Window<'p>,
    ctl: &mut Ctl<'p>,
    step: u64,
) {
    if ctl.memo.is_none() {
        return;
    }
    memo_end_epoch(ctl);
    let version = program.forest.version();
    let (replay, invalidated) = {
        let m = ctl.memo.as_ref().unwrap();
        let mut cache = m.cache.lock().unwrap();
        let dropped = cache.validate_forest(version);
        (
            cache
                .predicted_template()
                .filter(|t| !t.is_empty())
                .cloned(),
            dropped,
        )
    };
    if invalidated > 0 {
        ctl.tb.instant(EventKind::MemoInvalidate {
            templates: invalidated as u32,
        });
        ctl.stats.memo_invalidations += 1;
    }
    if replay.is_some() {
        // Trace fence: quiesce the pool so everything issued before
        // this epoch happens-before everything inside it. The
        // template's intra-epoch edges then cover every ordering the
        // epoch needs, so no cross-epoch analysis is required.
        ctl.drain(pool, &program.tasks);
        window.clear();
    }
    let m = ctl.memo.as_mut().unwrap();
    m.epoch = Some(EpochRec {
        step,
        forest_version: version,
        sigs: Vec::new(),
        edges: Vec::new(),
        jobs: Vec::new(),
        index_of: HashMap::new(),
        replay,
        cursor: 0,
        missed: false,
        poisoned: false,
        checks: 0,
        replayed: 0,
    });
}

/// Closes the open epoch, if any: classifies it as a hit, miss, or
/// capture, updates the template cache, and records the epoch's key as
/// the replay prediction for the next epoch.
fn memo_end_epoch(ctl: &mut Ctl<'_>) {
    let Some(m) = ctl.memo.as_mut() else { return };
    let Some(ep) = m.epoch.take() else { return };
    let key = memo::epoch_key(&ep.sigs);
    let tasks = ep.sigs.len() as u32;
    let mut cache = m.cache.lock().unwrap();
    cache.stats.replayed_tasks += ep.replayed;
    let storable = !ep.poisoned && !ep.sigs.is_empty();
    let template = |ep: &EpochRec| EpochTemplate {
        key,
        launch_sigs: ep.sigs.clone(),
        edges: ep.edges.clone(),
        forest_version: ep.forest_version,
        capture_checks: ep.checks,
    };
    match (&ep.replay, ep.missed) {
        (Some(t), _) if ep.cursor == t.len() => {
            // Full replay (a divergence would have cleared `replay`).
            ctl.tb.instant(EventKind::MemoHit {
                epoch: ep.step,
                key,
                tasks,
            });
            ctl.stats.memo_hits += 1;
            ctl.mx.incr(Counter::MemoHits);
            cache.stats.hits += 1;
        }
        (Some(_), _) => {
            // The epoch ended while the template expected more
            // launches: a divergence at the epoch boundary.
            ctl.tb.instant(EventKind::MemoMiss {
                epoch: ep.step,
                at: ep.cursor as u32,
            });
            ctl.stats.memo_misses += 1;
            ctl.mx.incr(Counter::MemoMisses);
            cache.stats.misses += 1;
            if storable {
                cache.insert(template(&ep));
            }
        }
        (None, true) => {
            // Diverged mid-epoch (the miss event was emitted at the
            // divergence point). Keep the freshly analyzed shape so a
            // stable new pattern replays from its next occurrence.
            cache.stats.misses += 1;
            if storable {
                cache.insert(template(&ep));
            }
        }
        (None, false) => {
            // Analyzed end to end: capture (first occurrence wins).
            if storable && cache.get(key).is_none() {
                cache.insert(template(&ep));
                ctl.tb.instant(EventKind::MemoCapture {
                    epoch: ep.step,
                    key,
                    tasks,
                });
                ctl.stats.memo_captures += 1;
                ctl.mx.incr(Counter::MemoCaptures);
                cache.stats.captures += 1;
            }
        }
    }
    cache.set_predicted(key);
}

/// Maps an IR privilege to its trace-event code (shared with the SPMD
/// executor so both logs speak the same access language).
pub(crate) fn priv_code(p: Privilege) -> PrivCode {
    match p {
        Privilege::Read => PrivCode::Read,
        Privilege::ReadWrite => PrivCode::Write,
        Privilege::Reduce(op) => PrivCode::Reduce(op as u8),
    }
}

/// Do two privileges require an ordering edge when their fields and
/// regions overlap? Reductions are serialized (see module docs), so
/// everything but read/read does — which is what lets any mutating
/// access dominate ([`Access::dominates`]).
fn needs_edge(a: Privilege, b: Privilege) -> bool {
    !matches!((a, b), (Privilege::Read, Privilege::Read))
}

/// Executes a program with implicit parallelism, returning the final
/// scalar environment and statistics. Results are bit-identical to
/// [`regent_ir::interp::run`].
pub fn execute_implicit(
    program: &Program,
    store: &mut Store,
    opts: ImplicitOptions,
) -> (Vec<f64>, ImplicitStats) {
    assert!(opts.num_workers > 0);
    let mut env: Vec<f64> = program.scalars.iter().map(|s| s.init).collect();

    // Cache raw pointers to every root instance, by root region id (the
    // store is not touched by anyone else while workers run).
    let mut inst_ptrs: Vec<*mut Instance> =
        vec![std::ptr::null_mut(); program.forest.num_regions()];
    for r in program.root_regions() {
        inst_ptrs[r.0 as usize] = store.instance_mut(program, r) as *mut Instance;
    }

    let pool = Pool::new(opts.num_workers, opts.hang_timeout);

    let mut ctl = Ctl {
        stats: ImplicitStats::default(),
        tb: opts.tracer.buffer("control"),
        mx: metrics::global().handle("control"),
        launch_seq: 0,
        loop_depth: 0,
        memo: opts.memo.as_ref().map(|c| MemoRt {
            cache: Arc::clone(c),
            epoch: None,
        }),
        w0: Worker0 {
            mx: metrics::global().handle("worker-0"),
            failure: None,
        },
    };

    // Workers 1 … W−1 run on resident members; this thread is the
    // control thread and worker 0, pinned beside them.
    let (pool_ref, tasks) = (&pool, &program.tasks);
    let members: Vec<TeamJob<'_>> = (1..opts.num_workers)
        .map(|w| {
            let tracer = Arc::clone(&opts.tracer);
            Box::new(move || {
                let _close = CloseOnDrop(pool_ref);
                let mut tb = tracer.buffer(&format!("worker-{w}"));
                let mut mx = metrics::global().handle(&format!("worker-{w}"));
                while let Some(job) = pool_ref.next(w) {
                    run_job(&job, tasks, pool_ref, &mut tb, &mut mx);
                }
            }) as TeamJob<'_>
        })
        .collect();
    let (control, joined) = on_members(members, true, || {
        catch_unwind(AssertUnwindSafe(|| {
            // Closing the pool on the way out — also when the control
            // thread unwinds — is what ends the members' waits.
            let _close = CloseOnDrop(&pool);
            let mut window = Window::new(&program.forest);
            let route = Route {
                mapper: Arc::clone(&opts.mapper),
                num_workers: opts.num_workers,
            };
            exec_stmts(
                program,
                &program.body,
                &mut env,
                &inst_ptrs,
                &pool,
                &route,
                &mut window,
                &mut ctl,
            );
            memo_end_epoch(&mut ctl);
            ctl.drain(&pool, tasks);
        }))
    });
    joined.record(&mut ctl.mx);
    // Worker 0's panic first, then the members' in worker order.
    let failed = ctl.w0.failure.take().map(|msg| (0, msg)).or_else(|| {
        let (slot, msg) = joined.failures.into_iter().next()?;
        Some((slot + 1, msg))
    });
    if let Some((w, msg)) = failed {
        panic!("worker {w} panicked: {msg}");
    }
    if let Err(payload) = control {
        resume_unwind(payload);
    }

    ctl.tb.flush();
    let stats = ctl.stats;
    // Dropping `ctl` merges the control thread's metrics into the
    // global registry before the export below reads it.
    drop(ctl);
    metrics::global().export();
    (env, stats)
}

/// The routing policy: which worker a point task lands on.
struct Route {
    mapper: Arc<dyn Mapper>,
    num_workers: usize,
}

impl Route {
    /// The mapper's worker for the point at `pos` of a launch over `len`
    /// points.
    fn worker(&self, task: TaskId, point: DynPoint, pos: usize, len: usize) -> usize {
        let worker = self
            .mapper
            .map_task(task, point, pos, len, self.num_workers);
        assert!(
            worker < self.num_workers,
            "mapper chose worker {worker} of {}",
            self.num_workers
        );
        worker
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_stmts<'p>(
    program: &'p Program,
    stmts: &'p [Stmt],
    env: &mut Vec<f64>,
    inst_ptrs: &[*mut Instance],
    pool: &Pool<'p>,
    route: &Route,
    window: &mut Window<'p>,
    ctl: &mut Ctl<'p>,
) {
    for s in stmts {
        match s {
            Stmt::IndexLaunch(il) => {
                let decl = program.task(il.task);
                let scalar_args: Vec<f64> = il.scalar_args.iter().map(|e| e.eval(env)).collect();
                let launch_seq = ctl.launch_seq;
                ctl.launch_seq += 1;
                let mut launch_jobs: Vec<Arc<Job<'p>>> = Vec::new();
                let len = il.launch_domain.len();
                for (pos, &i) in il.launch_domain.iter().enumerate() {
                    let regions: Vec<RegionId> =
                        il.args.iter().map(|a| resolve_arg(program, a, i)).collect();
                    let job = issue_task(
                        program,
                        il.task,
                        &regions,
                        scalar_args.clone(),
                        i,
                        (launch_seq, pos as u32),
                        route.worker(il.task, i, pos, len),
                        inst_ptrs,
                        pool,
                        window,
                        ctl,
                    );
                    launch_jobs.push(job);
                }
                window.retire_covered(program, il, launch_seq);
                ctl.run_ready(pool, &program.tasks);
                if let Some((var, op)) = il.reduce_result {
                    // Scalar reduction: wait for the launch, fold returns
                    // in launch order (§4.4).
                    ctl.drain(pool, &program.tasks);
                    let mut acc: Option<f64> = None;
                    for j in &launch_jobs {
                        let v = j
                            .ret
                            .lock()
                            .unwrap()
                            .unwrap_or_else(|| panic!("task {} returned no value", decl.name));
                        acc = Some(match acc {
                            None => v,
                            Some(a) => op.fold(a, v),
                        });
                    }
                    env[var.0 as usize] = acc.unwrap_or_else(|| op.identity());
                    window.clear();
                }
            }
            Stmt::SingleLaunch(sl) => {
                let scalar_args: Vec<f64> = sl.scalar_args.iter().map(|e| e.eval(env)).collect();
                let launch_seq = ctl.launch_seq;
                ctl.launch_seq += 1;
                let job = issue_task(
                    program,
                    sl.task,
                    &sl.args,
                    scalar_args,
                    DynPoint::from(0),
                    (launch_seq, 0),
                    route.worker(sl.task, DynPoint::from(0), 0, 1),
                    inst_ptrs,
                    pool,
                    window,
                    ctl,
                );
                ctl.run_ready(pool, &program.tasks);
                if let Some(var) = sl.result {
                    ctl.drain(pool, &program.tasks);
                    env[var.0 as usize] = job.ret.lock().unwrap().unwrap_or_else(|| {
                        panic!("task {} returned no value", program.task(sl.task).name)
                    });
                    window.clear();
                }
            }
            Stmt::For { count, body } => {
                let n = count.eval(env).max(0.0) as u64;
                for it in 0..n {
                    if ctl.loop_depth == 0 {
                        ctl.tb.instant(EventKind::StepBegin { step: it });
                        memo_begin_epoch(program, pool, window, ctl, it);
                    }
                    ctl.loop_depth += 1;
                    exec_stmts(program, body, env, inst_ptrs, pool, route, window, ctl);
                    ctl.loop_depth -= 1;
                }
                if ctl.loop_depth == 0 {
                    memo_end_epoch(ctl);
                }
            }
            Stmt::While { cond, body } => {
                let mut it = 0u64;
                while cond.eval(env) != 0.0 {
                    if ctl.loop_depth == 0 {
                        ctl.tb.instant(EventKind::StepBegin { step: it });
                        memo_begin_epoch(program, pool, window, ctl, it);
                    }
                    ctl.loop_depth += 1;
                    exec_stmts(program, body, env, inst_ptrs, pool, route, window, ctl);
                    ctl.loop_depth -= 1;
                    it += 1;
                }
                if ctl.loop_depth == 0 {
                    memo_end_epoch(ctl);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if cond.eval(env) != 0.0 {
                    exec_stmts(program, then_body, env, inst_ptrs, pool, route, window, ctl);
                } else {
                    exec_stmts(program, else_body, env, inst_ptrs, pool, route, window, ctl);
                }
            }
            Stmt::SetScalar { var, expr } => env[var.0 as usize] = expr.eval(env),
        }
    }
}

/// Makes `job` wait for `prev` unless `prev` has already finished. A
/// finished predecessor is seen without its lock: `run_job` sets `done`
/// after the kernel, so an `Acquire` load of `true` also orders the
/// kernel's writes before `job`'s. Otherwise `done` is read again under
/// the lock `run_job` sets it under.
fn register_edge<'p>(prev: &Job<'p>, job: &Arc<Job<'p>>) {
    if prev.done.load(Ordering::Acquire) {
        return;
    }
    let mut deps = prev.dependents.lock().unwrap();
    if !prev.done.load(Ordering::SeqCst) {
        job.remaining.fetch_add(1, Ordering::SeqCst);
        deps.push(Arc::clone(job));
    }
}

/// Issues one point task: dependence analysis against the window, then
/// submission (deferred-execution style — the control thread never
/// blocks on the task itself).
#[allow(clippy::too_many_arguments)]
fn issue_task<'p>(
    program: &'p Program,
    task: TaskId,
    regions: &[RegionId],
    scalars: Vec<f64>,
    point: DynPoint,
    (launch, pos): (u32, u32),
    worker: usize,
    inst_ptrs: &[*mut Instance],
    pool: &Pool<'p>,
    window: &mut Window<'p>,
    ctl: &mut Ctl<'p>,
) -> Arc<Job<'p>> {
    let decl = program.task(task);
    let forest = &program.forest;
    let accesses: Vec<Access> = regions
        .iter()
        .zip(&decl.params)
        .map(|(&r, p)| Access::new(r, p))
        .collect();
    let slots: Vec<ArgSlot> = regions
        .iter()
        .zip(&decl.params)
        .map(|(&r, p)| {
            // SAFETY: the store outlives the workers' jobs and is not
            // touched by anyone else while they run, and the dependence
            // graph orders every two accesses that conflict
            // (privileges, declared fields, aliasing), so kernels that
            // share a root instance concurrently touch different
            // columns or different elements, or only read. Binding on
            // this thread makes it the only one that stores to a seal.
            unsafe {
                ArgSlot::new(
                    forest.domain(r),
                    p.privilege,
                    &p.fields,
                    inst_ptrs[forest.root_of(r).0 as usize],
                )
            }
        })
        .collect();
    ctl.tb.instant(EventKind::TaskLaunch {
        launch,
        pos,
        task: task.0,
    });
    ctl.mx.incr(Counter::Launches);
    if ctl.tb.is_enabled() {
        // One access event per region argument; the instance identity
        // is the root region (all implicit-executor tasks share root
        // instances).
        for a in &accesses {
            ctl.tb.instant(EventKind::TaskAccess {
                launch,
                pos,
                region: a.region.0,
                inst: forest.root_of(a.region).0 as u64,
                fields: a.fields,
                privilege: priv_code(a.privilege),
            });
        }
    }
    // `remaining` starts at 1: a sentinel held by the control thread
    // while edges are being added, preventing a predecessor that
    // completes mid-analysis from submitting the job twice.
    let job = Arc::new(Job {
        task,
        slots: Mutex::new(slots),
        scalars,
        point,
        launch,
        pos,
        worker,
        ret: Mutex::new(None),
        remaining: AtomicUsize::new(1),
        dependents: Mutex::new(Vec::new()),
        done: AtomicBool::new(false),
    });

    // Epoch-trace memoization: while an epoch is open every launch gets
    // a structural signature; a predicted epoch replays template edges
    // instead of scanning the window.
    let sig = match &ctl.memo {
        Some(m) if m.epoch.is_some() => Some(memo::launch_sig(
            task.0,
            &point,
            accesses.iter().map(|a| (a.region, a.privilege)),
        )),
        _ => None,
    };
    let mut replayed = false;
    if let Some(sig) = sig {
        let ep = ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap();
        if let Some(t) = &ep.replay {
            if ep.cursor < t.len() && t.launch_sigs[ep.cursor] == sig {
                // Replay: apply the template's intra-epoch predecessors
                // directly — no window scan, no analysis span. The
                // bookkeeping that remains (edge application) is
                // recorded as a MemoReplay span, the memo-path
                // counterpart of DepAnalysis in blame reports.
                let replay_start = ctl.tb.now();
                let preds = t.edges[ep.cursor].clone();
                for &p in &preds {
                    let prev_job = &ep.jobs[p as usize];
                    ctl.tb.instant(EventKind::DepEdge {
                        from_launch: prev_job.launch,
                        from_pos: prev_job.pos,
                        to_launch: launch,
                        to_pos: pos,
                    });
                    register_edge(prev_job, &job);
                }
                ctl.stats.dependence_edges += preds.len() as u64;
                ep.edges.push(preds);
                ep.cursor += 1;
                ep.replayed += 1;
                ctl.tb
                    .span_since(replay_start, EventKind::MemoReplay { launch, pos });
                ctl.stats.memo_replayed_tasks += 1;
                ctl.mx.incr(Counter::MemoReplayedTasks);
                replayed = true;
            } else {
                // Divergence: this epoch stopped matching the predicted
                // template. Fall back to full analysis for the rest of
                // the epoch — sound, because the replayed prefix sits
                // in the window and the pre-epoch fence ordered
                // everything older.
                ctl.tb.instant(EventKind::MemoMiss {
                    epoch: ep.step,
                    at: ep.cursor as u32,
                });
                ctl.stats.memo_misses += 1;
                ctl.mx.incr(Counter::MemoMisses);
                ep.missed = true;
                ep.replay = None;
            }
        }
    }

    if !replayed {
        // Dependence analysis (the per-task control overhead): finds the
        // predecessors in the window and retires the records this task
        // dominates.
        let analysis_start = ctl.tb.now();
        let analysis_m0 = ctl.mx.start();
        let mut checks = 0u64;
        let mut epoch_preds: Vec<u32> = Vec::new();
        let preds = window.analyse(forest, &accesses, &mut checks);
        ctl.stats.dependence_edges += preds.len() as u64;
        for prev_job in preds {
            // The edge is recorded even when the predecessor already
            // finished: its completion happened-before this launch, so
            // the ordering is real either way (the trace validator
            // relies on it).
            ctl.tb.instant(EventKind::DepEdge {
                from_launch: prev_job.launch,
                from_pos: prev_job.pos,
                to_launch: launch,
                to_pos: pos,
            });
            // Intra-epoch conflicts feed the template being captured.
            if let Some(ep) = ctl.memo.as_ref().and_then(|m| m.epoch.as_ref()) {
                if let Some(&idx) = ep.index_of.get(&(Arc::as_ptr(prev_job) as usize)) {
                    epoch_preds.push(idx);
                }
            }
            register_edge(prev_job, &job);
        }
        ctl.stats.dependence_checks += checks;
        ctl.tb.span_since(
            analysis_start,
            EventKind::DepAnalysis {
                launch,
                pos,
                checks: checks as u32,
            },
        );
        ctl.mx.record_since(analysis_m0, Timer::DepAnalysisNs);
        ctl.mx.add(Counter::DepChecks, checks);
        if sig.is_some() {
            let ep = ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap();
            ep.edges.push(epoch_preds);
            ep.checks += checks;
        }
    }
    ctl.stats.tasks_launched += 1;
    pool.register();
    // Release the sentinel; submit if no edges remain.
    if job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        pool.submit(Arc::clone(&job));
    }
    for &a in &accesses {
        window.push(a, &job);
    }
    ctl.stats.max_window = ctl.stats.max_window.max(window.len);
    // Record the launch in the open epoch (both modes), keeping `sigs`
    // parallel to the `edges` entry pushed above.
    if let Some(sig) = sig {
        let ep = ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap();
        ep.index_of
            .insert(Arc::as_ptr(&job) as usize, ep.sigs.len() as u32);
        ep.sigs.push(sig);
        ep.jobs.push(Arc::clone(&job));
    }
    if window.len > 4096 {
        if sig.is_none() {
            window.prune();
        } else if window.len > 65536 {
            // Pruning mid-epoch can drop a completed intra-epoch
            // predecessor and leave the captured template missing an
            // edge, so while an epoch is open the window only shrinks
            // past a hard cap — and the epoch is poisoned (no template
            // stored).
            ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap().poisoned = true;
            window.prune();
        }
    }
    job
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_geometry::{Domain, DynRect};
    use regent_ir::{ProgramBuilder, TaskDecl};
    use regent_region::{FieldId, FieldSpace, FieldType, ReductionOp};

    // The regions `edges_on` calls name, by index: the root `[0, 7]`,
    // the halves of a disjoint partition, three subregions of an aliased
    // one, and the empty child of a third.
    const ROOT: usize = 0;
    const LEFT: usize = 1; // [0, 3]
    const RIGHT: usize = 2; // [4, 7]
    const MID: usize = 3; // [2, 5], aliased with HIGH
    const HIGH: usize = 4; // [4, 7]
    const LOW: usize = 5; // [0, 1], in MID and HIGH's partition, overlapping neither
    const EMPTY: usize = 6;

    /// Calls one single-argument task per entry of `params`, in order,
    /// all on the same 8-element region of 66 fields, and returns the
    /// dependence edges the analysis recorded as `(from, to)` call
    /// indices together with the final contents of field 0. Edges are
    /// logged whether or not the predecessor had already finished, so
    /// the list is a function of the program alone.
    fn edges_between(params: &[RegionParam]) -> (Vec<(u32, u32)>, Vec<f64>) {
        let calls: Vec<(usize, RegionParam)> = params.iter().map(|p| (ROOT, p.clone())).collect();
        edges_on(&calls)
    }

    /// [`edges_between`] with each call on the region its index names.
    fn edges_on(calls: &[(usize, RegionParam)]) -> (Vec<(u32, u32)>, Vec<f64>) {
        let mut b = ProgramBuilder::new();
        let mut fs = FieldSpace::new();
        for i in 0..66 {
            fs.add(&format!("f{i}"), FieldType::F64);
        }
        let region = b.forest.create_region(Domain::range(8), fs);
        let span = |lo, hi| Domain::from_rect(DynRect::span(lo, hi));
        let mut regions = vec![region];
        for (disjointness, doms) in [
            (Disjointness::Disjoint, vec![span(0, 3), span(4, 7)]),
            (
                Disjointness::Aliased,
                vec![span(2, 5), span(4, 7), span(0, 1)],
            ),
            (Disjointness::Disjoint, vec![Domain::empty(1), span(0, 7)]),
        ] {
            let colored = doms
                .into_iter()
                .enumerate()
                .map(|(c, d)| (DynPoint::from(c as i64), d))
                .collect();
            let p = b.forest.create_partition(region, disjointness, colored);
            regions.extend(b.forest.partition(p).child_regions());
        }
        for (i, (at, param)) in calls.iter().enumerate() {
            let field = param.fields[0];
            let task = b.task(TaskDecl {
                name: format!("t{i}"),
                params: vec![param.clone()],
                num_scalar_args: 0,
                returns_value: false,
                kernel: Arc::new(move |ctx| {
                    let dom = ctx.domain(0).clone();
                    for p in dom.iter() {
                        match ctx.privilege(0) {
                            Privilege::Read => {
                                ctx.read_f64(0, field, p);
                            }
                            Privilege::ReadWrite => ctx.write_f64(0, field, p, i as f64),
                            // Not associative in floating point: the
                            // result pins the fold order.
                            Privilege::Reduce(_) => {
                                ctx.reduce_f64(0, field, p, 0.1 * (i + 1) as f64)
                            }
                        }
                    }
                }),
            });
            b.call(task, vec![regions[*at]]);
        }
        let prog = b.build();
        let mut store = Store::new(&prog);
        let tracer = Tracer::enabled();
        let opts = ImplicitOptions {
            tracer: tracer.clone(),
            ..ImplicitOptions::with_workers(2)
        };
        let (_, stats) = execute_implicit(&prog, &mut store, opts);
        let edges: Vec<(u32, u32)> = dep_edges(&tracer.take())
            .into_iter()
            .map(|(from, to)| (from.0, to.0))
            .collect();
        assert_eq!(stats.dependence_edges, edges.len() as u64);
        let f0 = store.instance(&prog, region).f64_col(FieldId(0)).to_vec();
        (edges, f0)
    }

    /// The `DepEdge` events of `trace`, as `((launch, pos), (launch,
    /// pos))` pairs in recording order.
    fn dep_edges(trace: &regent_trace::Trace) -> Vec<((u32, u32), (u32, u32))> {
        trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter_map(|e| match e.kind {
                EventKind::DepEdge {
                    from_launch,
                    from_pos,
                    to_launch,
                    to_pos,
                } => Some(((from_launch, from_pos), (to_launch, to_pos))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_reduce_chain_crosses_workers_once_per_block() {
        // Every point of one launch reduces into the whole region, so
        // the points run one after another, point k after point k − 1.
        // Placed in blocks, only the first point of each block follows
        // a point on another worker.
        const N: u64 = 10;
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(4), fs);
        let add = b.task(TaskDecl {
            name: "add".into(),
            params: vec![RegionParam::reduce(ReductionOp::Add, &[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let dom = ctx.domain(0).clone();
                for q in dom.iter() {
                    ctx.reduce_f64(0, x, q, 0.1);
                }
            }),
        });
        b.index_launch(add, N, vec![RegionArg::Region(r)]);
        let prog = b.build();
        for workers in 1..=4 {
            let tracer = Tracer::enabled();
            let opts = ImplicitOptions {
                tracer: tracer.clone(),
                ..ImplicitOptions::with_workers(workers)
            };
            execute_implicit(&prog, &mut Store::new(&prog), opts);
            let trace = tracer.take();
            // The worker that ran each point: the control thread is
            // worker 0 and records its runs on its own track.
            let mut ran_on = HashMap::new();
            for t in &trace.tracks {
                for e in &t.events {
                    if let EventKind::TaskRun { launch, pos, .. } = e.kind {
                        ran_on.insert((launch, pos), t.name.replace("control", "worker-0"));
                    }
                }
            }
            assert_eq!(ran_on.len(), N as usize);
            let edges = dep_edges(&trace);
            assert_eq!(edges.len(), N as usize - 1, "{workers} workers");
            let crossing = edges
                .iter()
                .filter(|(from, to)| ran_on[from] != ran_on[to])
                .count();
            assert_eq!(crossing, workers - 1, "{workers} workers");
        }
    }

    #[test]
    fn the_edge_count_is_the_recorded_edges_analysed_or_replayed() {
        // Each step reduces into the four blocks of a region and then
        // reads the whole of it, so every step orders after the one
        // before. Step 0 is analysed, and with memoization the later
        // steps replay its template.
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = regent_region::ops::block(&mut b.forest, r, 4);
        let add = b.task(TaskDecl {
            name: "add".into(),
            params: vec![RegionParam::reduce(ReductionOp::Add, &[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let dom = ctx.domain(0).clone();
                for q in dom.iter() {
                    ctx.reduce_f64(0, x, q, 0.5);
                }
            }),
        });
        let read = b.task(TaskDecl {
            name: "read".into(),
            params: vec![RegionParam::read(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(|_| {}),
        });
        let steps = b.for_loop(regent_ir::ScalarExpr::Const(5.0));
        b.index_launch(add, 4, vec![RegionArg::Part(p)]);
        b.call(read, vec![r]);
        b.end(steps);
        let prog = b.build();
        for memo in [false, true] {
            let tracer = Tracer::enabled();
            let mut opts = ImplicitOptions {
                tracer: tracer.clone(),
                ..ImplicitOptions::with_workers(2)
            };
            if memo {
                opts = opts.with_memo(MemoCache::shared());
            }
            let (_, stats) = execute_implicit(&prog, &mut Store::new(&prog), opts);
            let edges = dep_edges(&tracer.take());
            // Four edges into each read. Analysed, each later add also
            // follows the read and the add on its block a step before;
            // replayed, the fence before a step orders those instead.
            let want = if memo { 4 * 5 } else { 4 + 12 * 4 };
            assert_eq!(edges.len(), want, "memo {memo}");
            assert_eq!(stats.dependence_edges, edges.len() as u64, "memo {memo}");
            assert_eq!(stats.memo_hits > 0, memo);
        }
    }

    fn f(id: u32) -> [FieldId; 1] {
        [FieldId(id)]
    }

    #[test]
    fn disjoint_fields_of_one_region_are_independent() {
        let (edges, _) = edges_between(&[
            RegionParam::read_write(&f(0)),
            RegionParam::read_write(&f(1)),
        ]);
        assert_eq!(edges, vec![]);
    }

    #[test]
    fn a_shared_field_orders_writers_and_readers() {
        let (edges, _) = edges_between(&[
            RegionParam::read_write(&f(0)),
            RegionParam::read_write(&[FieldId(1), FieldId(0)]),
        ]);
        assert_eq!(edges, vec![(0, 1)]);
        // Read/read needs no edge; the writer that follows is ordered
        // after both readers, and retires them.
        let (edges, _) = edges_between(&[
            RegionParam::read(&f(0)),
            RegionParam::read(&f(0)),
            RegionParam::read_write(&f(0)),
            RegionParam::read(&f(0)),
        ]);
        assert_eq!(edges, vec![(0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn reductions_on_one_field_fold_in_program_order() {
        let add = |id| RegionParam::reduce(ReductionOp::Add, &f(id));
        let (edges, f0) = edges_between(&[add(0), add(0), add(0), add(1)]);
        // Each reduction dominates the one before it, so the chain is
        // 0 → 1 → 2 and nothing else; field 1 is independent.
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
        assert_eq!(f0, vec![((0.0 + 0.1) + 0.2) + 0.1 * 3.0; 8]);
    }

    #[test]
    fn wrapped_field_ids_only_add_edges() {
        // Field 64 folds onto mask bit 0: it keeps its real conflicts…
        let (edges, _) = edges_between(&[
            RegionParam::read_write(&f(64)),
            RegionParam::read_write(&f(64)),
        ]);
        assert_eq!(edges, vec![(0, 1)]);
        // …gains a false one with field 0…
        let (edges, _) = edges_between(&[
            RegionParam::read_write(&f(0)),
            RegionParam::read_write(&f(64)),
        ]);
        assert_eq!(edges, vec![(0, 1)]);
        // …and stays independent of everything else.
        let (edges, _) = edges_between(&[
            RegionParam::read_write(&f(1)),
            RegionParam::read_write(&f(64)),
        ]);
        assert_eq!(edges, vec![]);
    }

    // Older records in three positions relative to the new access, each
    // pinned to the edges the pairwise window scan recorded before the
    // window was indexed by region.

    #[test]
    fn an_older_record_on_an_ancestor() {
        let (rd, rw) = (RegionParam::read(&f(0)), RegionParam::read_write(&f(0)));
        let (edges, _) = edges_on(&[
            (ROOT, rd.clone()),
            (LEFT, rw.clone()),
            (RIGHT, rw.clone()),
            (ROOT, rd.clone()),
            (ROOT, rw),
            (LEFT, rd),
        ]);
        // The halves are provably disjoint; a half's write does not
        // retire the root's read, the root's write retires everything.
        assert_eq!(
            edges,
            vec![
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (0, 4),
                (1, 4),
                (2, 4),
                (3, 4),
                (4, 5)
            ]
        );
    }

    #[test]
    fn an_older_record_on_an_aliased_sibling() {
        let (rd, rw) = (RegionParam::read(&f(0)), RegionParam::read_write(&f(0)));
        let (edges, _) = edges_on(&[
            (MID, rw.clone()),
            (HIGH, rd.clone()),
            (LOW, rw.clone()),
            (HIGH, rw),
            (MID, rd.clone()),
            (LOW, rd),
        ]);
        // MID and HIGH share [4, 5]; LOW shares an aliased partition
        // with both and elements with neither.
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 3), (0, 4), (3, 4), (2, 5)]);
    }

    #[test]
    fn an_older_record_on_an_empty_subregion() {
        let (rd, rw) = (RegionParam::read(&f(0)), RegionParam::read_write(&f(0)));
        let (edges, _) = edges_on(&[
            (EMPTY, rw.clone()),
            (ROOT, rw.clone()),
            (EMPTY, rd.clone()),
            (LEFT, rd),
            (EMPTY, rw),
        ]);
        // An empty region aliases nothing, itself included.
        assert_eq!(edges, vec![(1, 3)]);
    }
}
