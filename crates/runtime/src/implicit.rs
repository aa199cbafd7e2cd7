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
//! declared field sets intersect, and the regions may alias. The first
//! two are a compare and an `and` of two field masks (the masks the
//! Spy validator reads from the trace, so executor and certifier apply
//! one rule); the third is a lookup in the [`AliasTable`], which asks
//! the region tree and the domains once per region pair.
//!
//! The window holds one record per access and stays small because a
//! record is *retired* as soon as a later mutating access dominates it
//! (same region or an ancestor, covering its fields): anything that
//! would conflict with the retired record also conflicts with the
//! dominating one, and the happens-before graph is transitive.
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
use regent_geometry::DynPoint;
use regent_ir::{
    interp::resolve_arg, ArgSlot, IndexLaunch, Privilege, Program, RegionArg, RegionParam, Stmt,
    Store, TaskCtx, TaskId,
};
use regent_region::{Disjointness, Instance, RegionForest, RegionId};
use regent_trace::{fields_mask, EventKind, PrivCode, TraceBuf, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Options for the implicit executor.
#[derive(Clone)]
pub struct ImplicitOptions {
    /// Worker threads executing ready tasks.
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
    /// How long the control thread waits for the worker pool to drain
    /// before it panics with a "likely deadlock" diagnostic (and the
    /// cadence at which a starved worker re-polls its queue).
    pub hang_timeout: Duration,
}

impl ImplicitOptions {
    /// `num_workers` workers with the default round-robin mapper,
    /// tracing off, memoization off, and the process's hang timeout
    /// ([`config::process`]).
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
    /// Pairwise dependence checks performed by the control thread —
    /// the dynamic-analysis work that makes single-control-thread
    /// execution stop scaling (§1).
    pub dependence_checks: u64,
    /// Dependence edges recorded.
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

struct Pool<'p> {
    /// One ready queue per worker; the mapper picks the queue.
    ready_tx: Vec<Sender<Option<Arc<Job<'p>>>>>,
    outstanding: Mutex<usize>,
    drained: Condvar,
    hang_timeout: Duration,
}

impl<'p> Pool<'p> {
    fn submit(&self, job: Arc<Job<'p>>) {
        let w = job.worker;
        self.ready_tx[w].send(Some(job)).unwrap();
    }

    fn complete_one(&self) {
        let mut n = self.outstanding.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    fn register(&self) {
        *self.outstanding.lock().unwrap() += 1;
    }

    fn wait_drained(&self) {
        let mut n = self.outstanding.lock().unwrap();
        while *n > 0 {
            let (guard, timeout) = self.drained.wait_timeout(n, self.hang_timeout).unwrap();
            n = guard;
            if timeout.timed_out() && *n > 0 {
                panic!(
                    "likely deadlock: control thread waited {:?} for the worker pool to drain ({} tasks still outstanding)",
                    self.hang_timeout,
                    *n
                );
            }
        }
    }
}

fn run_job<'p>(
    job: &Job<'p>,
    tasks: &[regent_ir::TaskDecl],
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

    /// The conflict rule: incompatible privileges **and** intersecting
    /// field sets **and** possibly-aliasing regions, cheapest test
    /// first.
    #[inline]
    fn conflicts_with(&self, later: &Access, alias: &mut AliasTable<'_>) -> bool {
        needs_edge(self.privilege, later.privilege)
            && self.fields & later.fields != 0
            && alias.may_alias(self.region, later.region)
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

/// "May these two regions share elements?", answered once per region
/// pair.
///
/// The verdict — not provably disjoint in the region tree and the
/// domains overlap — is a function of the forest alone. Computing it
/// walks two ancestor chains and intersects two rectangle lists; the
/// window scan asks it for the same few pairs every time step. So the
/// first answer is kept in a dense triangular table over the regions
/// compared so far and read back in O(1). The table borrows the forest,
/// so it cannot outlive a forest version: creating a region or
/// partition needs `&mut RegionForest`.
struct AliasTable<'f> {
    forest: &'f RegionForest,
    /// `RegionId` → table row; `NO_SLOT` until the region is first
    /// compared.
    slot_of: Vec<u32>,
    rows: u32,
    /// Verdict of rows `i ≥ j` at `i (i + 1) / 2 + j`.
    verdicts: Vec<Option<bool>>,
}

const NO_SLOT: u32 = u32::MAX;

impl<'f> AliasTable<'f> {
    fn new(forest: &'f RegionForest) -> Self {
        AliasTable {
            forest,
            slot_of: vec![NO_SLOT; forest.num_regions()],
            rows: 0,
            verdicts: Vec::new(),
        }
    }

    #[inline]
    fn slot(&mut self, r: RegionId) -> u32 {
        let slot = &mut self.slot_of[r.0 as usize];
        if *slot == NO_SLOT {
            *slot = self.rows;
            self.rows += 1;
            let n = self.rows as usize;
            self.verdicts.resize(n * (n + 1) / 2, None);
        }
        *slot
    }

    #[inline]
    fn may_alias(&mut self, a: RegionId, b: RegionId) -> bool {
        let (sa, sb) = (self.slot(a) as usize, self.slot(b) as usize);
        let (hi, lo) = (sa.max(sb), sa.min(sb));
        let forest = self.forest;
        *self.verdicts[hi * (hi + 1) / 2 + lo].get_or_insert_with(|| {
            !forest.provably_disjoint(a, b) && forest.domain(a).overlaps(forest.domain(b))
        })
    }
}

/// Control-thread state: one record per access of every issued task
/// that a later task might still have to be ordered after, in issue
/// order (a task's records are adjacent).
struct Window<'f> {
    records: Vec<(Access, Arc<Job<'f>>)>,
    alias: AliasTable<'f>,
    /// [`launch_covers`] of every index launch issued so far, by
    /// statement (the program does not move or change during a run).
    covers: HashMap<*const IndexLaunch, Vec<Access>>,
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

impl Window<'_> {
    /// Retires the records older than index launch `il` (sequence
    /// number `launch`) that its point tasks together dominate.
    fn retire_covered(&mut self, program: &Program, il: &IndexLaunch, launch: u32) {
        let covers = self
            .covers
            .entry(il as *const IndexLaunch)
            .or_insert_with(|| launch_covers(program, il));
        if covers.is_empty() {
            return;
        }
        self.records.retain(|(prev, job)| {
            job.launch >= launch || !covers.iter().any(|c| c.dominates(prev, &program.forest))
        });
    }

    /// Drops the records of finished tasks. Not part of the steady
    /// state — dominated records are retired as they are found — but a
    /// program that never writes what it reads retires nothing.
    fn prune(&mut self) {
        self.records.retain(|(_, j)| !j.done.load(Ordering::SeqCst));
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
}

impl Ctl<'_> {
    /// Emits the drain marker after the pool quiesced (a full barrier
    /// in the happens-before graph).
    fn drained(&mut self) {
        self.tb.instant(EventKind::Drain);
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
    /// Pairwise dependence checks paid inside this epoch.
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
        pool.wait_drained();
        ctl.drained();
        window.records.clear();
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

    // Cache raw pointers to every root instance (the map is not
    // mutated while workers run).
    let roots = program.root_regions();
    let mut inst_ptrs: HashMap<RegionId, *mut Instance> = HashMap::new();
    for r in roots {
        inst_ptrs.insert(r, store.instance_mut(program, r) as *mut Instance);
    }

    let mut senders = Vec::with_capacity(opts.num_workers);
    let mut receivers = Vec::with_capacity(opts.num_workers);
    for _ in 0..opts.num_workers {
        let (tx, rx) = channel::<Option<Arc<Job>>>();
        senders.push(tx);
        receivers.push(rx);
    }
    let pool = Pool {
        ready_tx: senders,
        outstanding: Mutex::new(0),
        drained: Condvar::new(),
        hang_timeout: opts.hang_timeout,
    };

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
    };

    std::thread::scope(|scope| {
        for (w, rx) in receivers.into_iter().enumerate() {
            let pool = &pool;
            let tasks = &program.tasks;
            let tracer = Arc::clone(&opts.tracer);
            scope.spawn(move || {
                let mut tb = tracer.buffer(&format!("worker-{w}"));
                let mut mx = metrics::global().handle(&format!("worker-{w}"));
                // Bounded waits: a worker starved past the hang
                // timeout keeps polling (the control thread may just
                // be slow), but a disconnected channel or poison pill
                // ends the loop. The timeout exists so a worker stuck
                // on a job someone else deadlocked behind surfaces in
                // thread dumps at a known cadence rather than parking
                // forever in an unbounded recv().
                loop {
                    match rx.recv_timeout(pool.hang_timeout) {
                        Ok(Some(job)) => run_job(&job, tasks, pool, &mut tb, &mut mx),
                        Ok(None) => break,
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
            });
        }

        let mut window = Window {
            records: Vec::new(),
            alias: AliasTable::new(&program.forest),
            covers: HashMap::new(),
        };
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
        pool.wait_drained();
        ctl.drained();
        // Poison pills: one per worker so every thread exits recv().
        for tx in &pool.ready_tx {
            tx.send(None).unwrap();
        }
    });

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

#[allow(clippy::too_many_arguments)]
fn exec_stmts<'p>(
    program: &'p Program,
    stmts: &'p [Stmt],
    env: &mut Vec<f64>,
    inst_ptrs: &HashMap<RegionId, *mut Instance>,
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
                        inst_ptrs,
                        pool,
                        route,
                        window,
                        ctl,
                    );
                    launch_jobs.push(job);
                }
                window.retire_covered(program, il, launch_seq);
                if let Some((var, op)) = il.reduce_result {
                    // Scalar reduction: wait for the launch, fold returns
                    // in launch order (§4.4).
                    pool.wait_drained();
                    ctl.drained();
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
                    window.records.clear();
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
                    inst_ptrs,
                    pool,
                    route,
                    window,
                    ctl,
                );
                if let Some(var) = sl.result {
                    pool.wait_drained();
                    ctl.drained();
                    env[var.0 as usize] = job.ret.lock().unwrap().unwrap_or_else(|| {
                        panic!("task {} returned no value", program.task(sl.task).name)
                    });
                    window.records.clear();
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
    inst_ptrs: &HashMap<RegionId, *mut Instance>,
    pool: &Pool<'p>,
    route: &Route,
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
            // SAFETY: the store outlives the worker scope and is not
            // touched by anyone else during it, and the dependence
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
                    inst_ptrs[&forest.root_of(r)],
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
    let worker = route.mapper.map_task(task, point, route.num_workers);
    assert!(
        worker < route.num_workers,
        "mapper chose worker {worker} of {}",
        route.num_workers
    );
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
                let mut n_deps = 0usize;
                for &p in &preds {
                    let prev_job = &ep.jobs[p as usize];
                    ctl.tb.instant(EventKind::DepEdge {
                        from_launch: prev_job.launch,
                        from_pos: prev_job.pos,
                        to_launch: launch,
                        to_pos: pos,
                    });
                    let mut deps = prev_job.dependents.lock().unwrap();
                    if !prev_job.done.load(Ordering::SeqCst) {
                        job.remaining.fetch_add(1, Ordering::SeqCst);
                        deps.push(Arc::clone(&job));
                        n_deps += 1;
                    }
                }
                ep.edges.push(preds);
                ep.cursor += 1;
                ep.replayed += 1;
                ctl.tb
                    .span_since(replay_start, EventKind::MemoReplay { launch, pos });
                ctl.stats.memo_replayed_tasks += 1;
                ctl.mx.incr(Counter::MemoReplayedTasks);
                ctl.stats.dependence_edges += n_deps as u64;
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
        // Dependence analysis (the per-task control overhead): one pass
        // over the window that finds the predecessors and retires the
        // records this task dominates.
        let analysis_start = ctl.tb.now();
        let analysis_m0 = ctl.mx.start();
        let checks_before = ctl.stats.dependence_checks;
        let mut n_deps = 0usize;
        let mut epoch_preds: Vec<u32> = Vec::new();
        let mut last_pred: *const Job = std::ptr::null();
        let Window { records, alias, .. } = &mut *window;
        records.retain(|(prev, prev_job)| {
            let hit = accesses.iter().find(|next| {
                ctl.stats.dependence_checks += 1;
                prev.conflicts_with(next, alias)
            });
            let Some(next) = hit else { return true };
            // One edge per predecessor task, however many of its
            // accesses conflict (its records are adjacent).
            if !std::ptr::eq(Arc::as_ptr(prev_job), last_pred) {
                last_pred = Arc::as_ptr(prev_job);
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
                // Register the edge unless the predecessor already finished.
                let mut deps = prev_job.dependents.lock().unwrap();
                if !prev_job.done.load(Ordering::SeqCst) {
                    job.remaining.fetch_add(1, Ordering::SeqCst);
                    deps.push(Arc::clone(&job));
                    n_deps += 1;
                }
            }
            !next.dominates(prev, forest)
        });
        let checks = ctl.stats.dependence_checks - checks_before;
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
        ctl.stats.dependence_edges += n_deps as u64;
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
    window
        .records
        .extend(accesses.iter().map(|&a| (a, Arc::clone(&job))));
    ctl.stats.max_window = ctl.stats.max_window.max(window.records.len());
    // Record the launch in the open epoch (both modes), keeping `sigs`
    // parallel to the `edges` entry pushed above.
    if let Some(sig) = sig {
        let ep = ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap();
        ep.index_of
            .insert(Arc::as_ptr(&job) as usize, ep.sigs.len() as u32);
        ep.sigs.push(sig);
        ep.jobs.push(Arc::clone(&job));
    }
    if window.records.len() > 4096 {
        if sig.is_none() {
            window.prune();
        } else if window.records.len() > 65536 {
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
    use regent_geometry::Domain;
    use regent_ir::{ProgramBuilder, TaskDecl};
    use regent_region::{FieldId, FieldSpace, FieldType, ReductionOp};

    /// Calls one single-argument task per entry of `params`, in order,
    /// all on the same 8-element region of 66 fields, and returns the
    /// dependence edges the analysis recorded as `(from, to)` call
    /// indices together with the final contents of field 0. Edges are
    /// logged whether or not the predecessor had already finished, so
    /// the list is a function of the program alone.
    fn edges_between(params: &[RegionParam]) -> (Vec<(u32, u32)>, Vec<f64>) {
        let mut b = ProgramBuilder::new();
        let mut fs = FieldSpace::new();
        for i in 0..66 {
            fs.add(&format!("f{i}"), FieldType::F64);
        }
        let region = b.forest.create_region(Domain::range(8), fs);
        for (i, param) in params.iter().enumerate() {
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
                cost_per_element: 1.0,
            });
            b.call(task, vec![region]);
        }
        let prog = b.build();
        let mut store = Store::new(&prog);
        let tracer = Tracer::enabled();
        let opts = ImplicitOptions {
            tracer: tracer.clone(),
            ..ImplicitOptions::with_workers(2)
        };
        execute_implicit(&prog, &mut store, opts);
        let edges = tracer
            .take()
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter_map(|e| match e.kind {
                EventKind::DepEdge {
                    from_launch,
                    to_launch,
                    ..
                } => Some((from_launch, to_launch)),
                _ => None,
            })
            .collect();
        let f0 = store.instance(&prog, region).f64_col(FieldId(0)).to_vec();
        (edges, f0)
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
}
