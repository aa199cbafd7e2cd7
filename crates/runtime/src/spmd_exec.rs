//! The per-shard execution engine for control-replicated programs.
//!
//! Each shard of the [`SpmdProgram`] runs on a resident, pinned member
//! of the process-wide team (`crate::team`) with its
//! own *distributed-memory* storage: one instance per owned subregion
//! per use, plus reduction temporaries (§3, §4.3). Shards communicate
//! only through copy messages and the scalar collective — there is no
//! shared mutable region data, which is exactly the paper's
//! distributed-memory implementation of region semantics.
//!
//! That storage is the program's *shard image* (`regent_cr::image`):
//! mapped once per compiled program, taken at the start of a run,
//! refilled from the store, and handed back by the team driver after a
//! clean join. Nothing here allocates an instance or looks one up by
//! key — launches, copies, re-seals, checkpoints and rollbacks index the
//! image by the slot numbers the exchange schedule fixed.
//!
//! Copy statements run through `crate::exchange`, the consumer-applied
//! copy protocol of §3.4 and its integrity framing.
//!
//! With an enabled [`Tracer`] ([`crate::RunOptions::tracer`]) every shard
//! records its runs, accesses, copy issues/applies, and collective
//! generations on its own track — enough for the `regent-trace` Spy
//! validator to reconstruct the execution's happens-before graph and
//! certify every cross-shard dependence.
//!
//! Checkpoint–restart, rescue and the integrity layer's epoch-boundary
//! sweep run through `crate::resilience`, whose boundary protocol
//! borrows this engine; the integrity work done per statement — seals
//! after launches and temporary resets, framed collectives — stays
//! here, with the statements. A write point re-seals only when a check
//! can read that seal: replicated control flow fixes the loop body, so
//! `run_loop` decides once per epoch whether any can
//! (`ShardExec::elide_seals`).

use crate::collective::{DynamicCollective, FramedScalar, ShardBarrier};
use crate::exchange::{CopyMsg, Outbound};
use crate::metrics::{self, Counter, MetricsHandle, Timer};
use crate::plan::ExchangeSchedule;
use crate::pool::ChunkPool;
use crate::resilience::{boundary, Resilience, ResilienceOptions};
use crate::ring::{RingReceiver, RingSender};
use crate::run::{RunCtx, RunResult};
use crate::team::run_team;
use regent_cr::spmd::block_range;
use regent_cr::{ShardImage, ShardLayout, SpmdLaunch, SpmdProgram, SpmdStmt, TempId};
use regent_fault::message_key;
use regent_ir::{ArgSlot, Privilege, Store, TaskCtx};
use regent_region::{FieldId, Instance, ReductionOp};
use regent_trace::{fields_mask, CorruptSite, EventKind, TraceBuf, Tracer};
use std::sync::Arc;
use std::time::Duration;

/// [`message_key`] domain tag for collective frame corruption ("COLL").
const COLLECTIVE_TAG: u64 = 0x434F_4C4C;

/// Per-shard execution statistics.
///
/// The work counters (tasks, copies, messages, collectives) count
/// *useful* work only: epochs re-executed after a rollback are
/// excluded, so a recovered resilient run reports the same work
/// numbers as a fault-free run. The replayed volume is reported
/// separately (`restores`, `epochs_replayed`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Point tasks executed by this shard.
    pub tasks_executed: u64,
    /// Copy statements executed (dynamic count).
    pub copies_executed: u64,
    /// Messages sent to other shards.
    pub messages_sent: u64,
    /// Elements sent to other shards (across all fields).
    pub elements_sent: u64,
    /// Scalar collectives participated in.
    pub collectives: u64,
    /// Epoch-boundary checkpoints taken (resilient mode).
    pub checkpoints: u64,
    /// Rollback restores performed after an injected crash.
    pub restores: u64,
    /// Outermost-loop epochs re-executed because of rollbacks.
    pub epochs_replayed: u64,
    /// Silent corruptions injected by the fault plan on this shard
    /// (payload frames it sent corrupted plus resident bit flips it
    /// suffered). Like `restores`, counted unconditionally — these are
    /// resilience metrics, not useful-work metrics.
    pub corruptions_injected: u64,
    /// Checksum/seal verification failures detected by this shard.
    pub corruptions_detected: u64,
    /// Corrupted payloads repaired locally (a verified retransmission
    /// arrived within the retry budget).
    pub corruptions_repaired: u64,
    /// Resident corruptions this shard suffered that escalated to a
    /// coordinated rollback.
    pub corruptions_escalated: u64,
}

impl ShardStats {
    /// Accumulates another stats record into this one.
    pub(crate) fn merge(&mut self, o: &ShardStats) {
        self.tasks_executed += o.tasks_executed;
        self.copies_executed += o.copies_executed;
        self.messages_sent += o.messages_sent;
        self.elements_sent += o.elements_sent;
        self.collectives += o.collectives;
        self.checkpoints += o.checkpoints;
        self.restores += o.restores;
        self.epochs_replayed += o.epochs_replayed;
        self.corruptions_injected += o.corruptions_injected;
        self.corruptions_detected += o.corruptions_detected;
        self.corruptions_repaired += o.corruptions_repaired;
        self.corruptions_escalated += o.corruptions_escalated;
    }
}

/// The replicated-walk control source (§3.5): every shard executes the
/// whole replicated body. `slot` is the rescue slot the run offers
/// checkpoints into and resumes from — 0 for a whole-program run, the
/// segment index for a replicated segment of a hybrid program.
pub(crate) fn run_spmd(
    spmd: &SpmdProgram,
    store: &mut Store,
    ctx: RunCtx<'_>,
    slot: usize,
) -> RunResult {
    run_team(
        spmd,
        store,
        ctx,
        Some(slot),
        |exec| exec.run_stmts(&spmd.body),
        None::<(&str, fn())>,
    )
}

/// The per-shard execution engine: shard-local storage, the exchange
/// channels, trace/metrics recorders, and the resilience state
/// ([`Resilience`]). The SPMD executor drives it through
/// [`ShardExec::run_stmts`] (every shard re-executes the whole control
/// program); the shared-log executor (`log_exec`) drives the *same*
/// engine one leaf statement at a time through [`ShardExec::run_stmt`],
/// so exchanges, collectives, integrity, and rollback behave
/// identically under both strategies.
pub(crate) struct ShardExec<'a> {
    pub(crate) spmd: &'a SpmdProgram,
    /// The program's exchange schedule (pairs plus their storage
    /// runs), shared read-only with every other shard and run.
    pub(crate) schedule: &'a ExchangeSchedule,
    /// This shard's slice of the schedule: its instance slots and the
    /// pairs it produces and consumes.
    pub(crate) layout: &'a ShardLayout,
    pub(crate) shard: usize,
    /// The shard's instances, by slot: the program's image of this
    /// shard, taken for the run and handed back by the team driver.
    pub(crate) data: ShardImage,
    /// The store the image was filled from. Nothing writes it while
    /// the shards run (the team driver flushes after the join).
    pub(crate) store: &'a Store,
    /// Nothing has written the image since it was filled from `store`
    /// (cleared by every launch, copy and temporary reset, and by a
    /// rescue resume).
    pub(crate) as_filled: bool,
    pub(crate) env: Vec<f64>,
    /// This shard's ends of the exchange mesh, by peer shard.
    pub(crate) tx: Vec<RingSender<CopyMsg>>,
    pub(crate) rx: Vec<RingReceiver<CopyMsg>>,
    pub(crate) collective: &'a DynamicCollective,
    pub(crate) barrier: &'a ShardBarrier,
    /// How long a receive from a peer may stall before the peer is
    /// blamed as hung.
    pub(crate) hang_timeout: Duration,
    pub(crate) stats: ShardStats,
    /// Event recorder for this shard's track.
    pub(crate) tb: TraceBuf,
    /// Always-on metrics recorder for this shard (merged into the
    /// global registry when the shard's job finishes).
    pub(crate) mx: MetricsHandle,
    /// Dynamic launch sequence number. Control flow is replicated, so
    /// every shard assigns the same number to the same logical launch —
    /// the cross-shard trace identity (§3.5).
    pub(crate) launch_seq: u32,
    /// Current loop nesting depth (0 ⇒ outermost, a timestep loop).
    pub(crate) loop_depth: u32,
    /// Write points skip their re-seal in this epoch: no check can read
    /// a seal taken now before the next iteration retakes it. Decided
    /// once per outermost iteration, right after its boundary
    /// (`run_loop`); false outside outermost loops and under the
    /// shared-log executor, which never enters `run_loop`.
    pub(crate) elide_seals: bool,
    /// Executions of each copy statement so far, by copy id: the
    /// occurrence number that keys a payload's corruption decisions and
    /// matches a `CopyIssue` to its `CopyApply`. Like the other trace
    /// identities, deliberately not rolled back on restore.
    pub(crate) copy_runs: Vec<u32>,
    /// Dynamic collective sequence number — the replicated identity
    /// that keys per-contribution corruption decisions. Like the trace
    /// identities, deliberately not rolled back on restore.
    pub(crate) collective_seq: u32,
    /// Global epoch counter: increments once per outermost-loop
    /// iteration, across all outermost loops of the program.
    pub(crate) epoch: u64,
    /// Epochs below this are replays of already-counted work: the
    /// useful-work statistics are suppressed for them, so a recovered
    /// run reports the *same* stats as a fault-free run (the replayed
    /// volume is visible through `epochs_replayed` instead).
    pub(crate) replay_until: u64,
    /// Checkpoint–restart state; `None` for plain (non-resilient) runs,
    /// and taken out while its boundary protocol borrows this engine
    /// (`resilience::boundary`).
    pub(crate) resilience: Option<Resilience>,
    /// 1-based count of outermost (`loop_depth == 0`) loops entered —
    /// the namespace a rescue resume token's iteration number lives in.
    pub(crate) outer_loop_seq: u64,
    /// Freelist of exchange payload buffers: consumers feed drained
    /// message buffers back, producers draw from it instead of
    /// allocating (halo traffic is symmetric, so the two balance).
    pub(crate) pool: ChunkPool,
    /// Per-statement scratch, cleared and reused so the steady state
    /// allocates nothing per launch or copy (never read across
    /// statements).
    pub(crate) scratch: Scratch<'a>,
}

/// See [`ShardExec::scratch`].
#[derive(Default)]
pub(crate) struct Scratch<'a> {
    /// A launch's evaluated scalar arguments.
    scalar_args: Vec<f64>,
    /// One point task's bound arguments; emptied as soon as the kernel
    /// returns, so no instance pointer outlives its call.
    slots: Vec<ArgSlot<'a>>,
    /// Instances a launch held with a mutating privilege, with the
    /// declared fields to re-seal once it completes.
    reseal: Vec<(usize, &'a [FieldId])>,
    /// Destination instances (slots) a copy statement applied into,
    /// re-sealed once after its last pair.
    pub(crate) applied: Vec<u32>,
    /// A copy statement's outbound payloads, staged so one bracket
    /// checksums them all under the integrity protocol.
    pub(crate) outbox: Vec<Outbound>,
}

impl<'a> ShardExec<'a> {
    /// A shard's engine at the start of a run: the program's image of
    /// the shard taken (built on the first run) and filled from `store`
    /// (sealed when the integrity layer is on), every counter at zero.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spmd: &'a SpmdProgram,
        schedule: &'a ExchangeSchedule,
        shard: usize,
        store: &'a Store,
        env: Vec<f64>,
        (tx, rx): (Vec<RingSender<CopyMsg>>, Vec<RingReceiver<CopyMsg>>),
        (collective, barrier): (&'a DynamicCollective, &'a ShardBarrier),
        tracer: &Arc<Tracer>,
        resilience: Option<&ResilienceOptions>,
        hang_timeout: Duration,
    ) -> Self {
        let mut mx = metrics::global().handle(&format!("shard-{shard}"));
        let layout = &schedule.layouts[shard];
        let (data, built) = spmd.take_image(layout, shard);
        mx.incr(if built {
            Counter::ImageBuilds
        } else {
            Counter::ImageReuses
        });
        let mut exec = ShardExec {
            spmd,
            schedule,
            layout,
            shard,
            data,
            store,
            as_filled: true,
            env,
            tx,
            rx,
            collective,
            barrier,
            hang_timeout,
            stats: ShardStats::default(),
            tb: tracer.buffer(&format!("shard-{shard}")),
            mx,
            launch_seq: 0,
            loop_depth: 0,
            elide_seals: false,
            copy_runs: Vec::new(),
            collective_seq: 0,
            epoch: 0,
            replay_until: 0,
            resilience: resilience.map(Resilience::new),
            outer_loop_seq: 0,
            pool: ChunkPool::new(),
            scratch: Scratch::default(),
        };
        let m0 = exec.mx.start();
        exec.data.fill(spmd, layout, store);
        exec.mx.record_since(m0, Timer::ImageFillNs);
        // Initial seal: from here on every instance is verified at each
        // epoch boundary.
        if exec.integrity_on() {
            exec.seal_image();
        }
        exec
    }

    /// Seals every instance — after a fill, which leaves every column
    /// unsealed.
    pub(crate) fn seal_image(&mut self) {
        let m0 = self.mx.start();
        for inst in &mut self.data.insts {
            inst.seal();
        }
        self.mx.record_since(m0, Timer::IntegrityNs);
    }

    pub(crate) fn run_stmts(&mut self, stmts: &[SpmdStmt]) {
        for s in stmts {
            self.run_stmt(s);
        }
    }

    /// Executes one statement. Control-flow statements recurse through
    /// [`ShardExec::run_stmts`]; the shared-log executor dispatches
    /// only leaf statements here (its sequencer unrolls control flow
    /// into the log).
    pub(crate) fn run_stmt(&mut self, s: &SpmdStmt) {
        if matches!(
            s,
            SpmdStmt::Launch(_) | SpmdStmt::Copy(_) | SpmdStmt::ResetTemp(_)
        ) {
            self.as_filled = false;
        }
        match s {
            SpmdStmt::Launch(l) => self.run_launch(l),
            SpmdStmt::Copy(c) => self.run_copy(c),
            SpmdStmt::ResetTemp(t) => self.reset_temp(*t),
            SpmdStmt::AllReduce { var, op } => {
                let local = self.env[var.0 as usize];
                let t0 = self.tb.now();
                let m0 = self.mx.start();
                let coll_seq = self.collective_seq;
                self.collective_seq += 1;
                let (folded, generation) = if self.integrity_on() {
                    self.framed_reduce(var.0, coll_seq, local, *op)
                } else {
                    self.collective.reduce_counted(self.shard, local, *op)
                };
                self.env[var.0 as usize] = folded;
                self.mx.incr(Counter::CollectiveWaits);
                self.mx.record_since(m0, Timer::CollectiveWaitNs);
                if self.useful_work() {
                    self.stats.collectives += 1;
                }
                if self.tb.is_enabled() {
                    // Arrival is stamped at the pre-wait time: the
                    // contribution was available from t0 on.
                    self.tb
                        .push(t0, 0, EventKind::CollectiveArrive { generation });
                    self.tb.instant(EventKind::CollectiveLeave { generation });
                }
            }
            SpmdStmt::SetScalar { var, expr } => {
                self.env[var.0 as usize] = expr.eval(&self.env);
            }
            SpmdStmt::For { count, body } => {
                let n = count.eval(&self.env).max(0.0) as u64;
                self.run_loop(s, body, Some(n), |_, it| it < n);
            }
            SpmdStmt::While { cond, body } => {
                self.run_loop(s, body, None, |env, _| cond.eval(env) != 0.0);
            }
            SpmdStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if cond.eval(&self.env) != 0.0 {
                    self.run_stmts(then_body);
                } else {
                    self.run_stmts(else_body);
                }
            }
            SpmdStmt::Barrier => {
                let t0 = self.tb.now();
                let m0 = self.mx.start();
                let generation = self.barrier.wait_counted();
                self.mx.incr(Counter::BarrierWaits);
                self.mx.record_since(m0, Timer::BarrierWaitNs);
                if self.tb.is_enabled() {
                    self.tb.push(t0, 0, EventKind::BarrierArrive { generation });
                    self.tb.instant(EventKind::BarrierLeave { generation });
                }
            }
        }
    }

    /// Runs `body`, the body of loop statement `stmt`, while
    /// `more(env, it)` holds; `trips` is a `For`'s trip count (`None`
    /// for a `While`, which may always go on). An outermost loop's
    /// iterations are epochs: each opens with the resilience boundary,
    /// which may resume or roll back to another iteration, then decides
    /// whether its write points re-seal, and closes by advancing the
    /// epoch counter.
    ///
    /// A seal taken in an epoch is read only if the next boundary
    /// sweeps or injects, or a later loop's boundaries do. A flat body
    /// re-runs every write of this epoch in the next one, and no later
    /// loop runs after the program's last one, so there the re-seals
    /// are skipped unless the loop may go on into a boundary that reads
    /// seals. Rollbacks and resumes restore seals from their cut, and
    /// never read the live ones.
    fn run_loop(
        &mut self,
        stmt: &SpmdStmt,
        body: &[SpmdStmt],
        trips: Option<u64>,
        more: impl Fn(&[f64], u64) -> bool,
    ) {
        let outer = self.loop_depth == 0;
        if outer {
            self.outer_loop_seq += 1;
        }
        let elidable = outer
            && self.integrity_on()
            && body.iter().all(|s| {
                !matches!(
                    s,
                    SpmdStmt::For { .. } | SpmdStmt::While { .. } | SpmdStmt::If { .. }
                )
            })
            && last_outer_loop(&self.spmd.body).is_some_and(|l| std::ptr::eq(l, stmt));
        let mut it = 0u64;
        while more(&self.env, it) {
            if outer {
                if let Some(restored) = boundary(self, it == 0, it) {
                    it = restored;
                    continue;
                }
                self.tb.instant(EventKind::StepBegin { step: it });
                let goes_on = trips.is_none_or(|n| it + 1 < n);
                let (next, shards) = (self.epoch + 1, self.spmd.num_shards);
                let read_next = goes_on
                    && (self.resilience.as_ref()).is_some_and(|r| r.reads_seals(next, shards));
                self.elide_seals = elidable && !read_next;
            }
            self.loop_depth += 1;
            self.run_stmts(body);
            self.loop_depth -= 1;
            if outer {
                self.epoch += 1;
            }
            it += 1;
        }
        if outer {
            self.elide_seals = false;
        }
    }

    fn reset_temp(&mut self, t: TempId) {
        let decl = &self.spmd.temps[t.0 as usize];
        let slots = self.layout.temp_slots(t);
        for inst in &mut self.data.insts[slots.clone()] {
            for &f in &decl.fields {
                inst.fill_field(f, decl.op);
            }
        }
        if self.reseals() {
            let m0 = self.mx.start();
            let sealed = (slots.len() * decl.fields.len()) as u64;
            for inst in &mut self.data.insts[slots] {
                inst.seal_fields(&decl.fields);
            }
            self.mx.record_since(m0, Timer::IntegrityNs);
            self.mx.add(Counter::ColumnSeals, sealed);
        }
    }

    /// Whether the integrity layer (sealing, framing, verification) is
    /// active for this run.
    pub(crate) fn integrity_on(&self) -> bool {
        self.resilience.as_ref().is_some_and(|r| r.integrity)
    }

    /// Whether write points re-seal what they wrote: the integrity
    /// layer is on and a check may read this epoch's seals
    /// ([`ShardExec::elide_seals`]).
    pub(crate) fn reseals(&self) -> bool {
        !self.elide_seals && self.integrity_on()
    }

    /// Collective participation under the integrity protocol: this
    /// shard's contribution travels as a checksummed [`FramedScalar`];
    /// the fault plan may corrupt individual frames, which the
    /// collective detects *before* acceptance into the fold and asks
    /// to be re-produced, up to the retry budget.
    fn framed_reduce(
        &mut self,
        var: u32,
        coll_seq: u32,
        local: f64,
        op: ReductionOp,
    ) -> (f64, u64) {
        let r = self
            .resilience
            .as_ref()
            .expect("integrity layer active without resilience state");
        let key = message_key(
            COLLECTIVE_TAG,
            var as u64,
            coll_seq as u64,
            self.shard as u64,
        );
        let plan = &r.plan;
        let mut injected = 0u32;
        let (folded, generation, bad) =
            self.collective
                .reduce_framed(self.shard, op, r.retry_max, |attempt| {
                    let mut frame = FramedScalar::new(local);
                    if let Some(entropy) = plan.payload_corruption(key, attempt) {
                        frame.bits ^= 1u64 << ((entropy >> 40) % 64);
                        injected += 1;
                    }
                    frame
                });
        self.stats.corruptions_injected += u64::from(injected);
        self.stats.corruptions_detected += u64::from(bad);
        for _ in 0..bad {
            self.tb.instant(EventKind::CorruptDetected {
                site: CorruptSite::Collective,
                id: var,
                sub: coll_seq,
                epoch: self.epoch,
            });
        }
        if bad > 0 {
            self.stats.corruptions_repaired += 1;
            self.tb.instant(EventKind::CorruptRepaired {
                site: CorruptSite::Collective,
                id: var,
                sub: coll_seq,
                attempts: bad,
            });
        }
        (folded, generation)
    }

    fn run_launch(&mut self, l: &SpmdLaunch) {
        let spmd = self.spmd;
        let decl = spmd.task(l.task);
        let launch = self.launch_seq;
        self.launch_seq += 1;
        self.scratch.scalar_args.clear();
        self.scratch
            .scalar_args
            .extend(l.scalar_args.iter().map(|e| e.eval(&self.env)));
        let owned = spmd.owned_colors(l.domain, self.shard);
        // This shard's points start at the block offset within the
        // launch domain — the cross-shard `pos` identity.
        let domain_len = spmd.launch_domains[l.domain.0 as usize].len();
        let (block_start, _) = block_range(domain_len, spmd.num_shards, self.shard);
        let reseal = self.reseals();
        // Instances held with a mutating privilege: the written fields
        // are re-sealed once the launch completes (task completion
        // makes their contents the new checksummed truth). Only the
        // declared fields are rehashed — untouched columns keep their
        // still-valid seals.
        self.scratch.reseal.clear();
        let mut reduced: Option<f64> = None;
        // One `TaskRunNs` sample for the shard's whole point loop, not
        // one per point: two clock reads per point are a visible share
        // of a fine-grained launch's kernels.
        let m0 = self.mx.start();
        for (local_idx, &c) in owned.iter().enumerate() {
            let pos = (block_start + local_idx) as u32;
            // Resolve argument instances and domains: the layout
            // turns (argument, owned point) into a slot by arithmetic.
            for (idx, a) in l.args.iter().enumerate() {
                let param = &decl.params[idx];
                let slot = self.layout.arg_slot(a, local_idx);
                let info = &self.layout.slots[slot];
                let domain = spmd.forest.domain(info.region);
                if reseal && !matches!(param.privilege, Privilege::Read) {
                    // An instance reached through two arguments is
                    // listed once per distinct field list (disjoint, or
                    // the launch would alias a write).
                    let entry = (slot, &param.fields[..]);
                    if !self.scratch.reseal.contains(&entry) {
                        self.scratch.reseal.push(entry);
                    }
                }
                let inst: *mut Instance = &mut self.data.insts[slot];
                if self.tb.is_enabled() {
                    self.tb.instant(EventKind::TaskAccess {
                        launch,
                        pos,
                        region: info.region.0,
                        inst: inst_id(self.shard, slot),
                        fields: fields_mask(param.fields.iter().map(|f| f.0)),
                        privilege: crate::implicit::priv_code(param.privilege),
                    });
                }
                // SAFETY: shard-local instances that outlive the kernel
                // call (the image is not touched until it returns, and
                // the slots are dropped right after it); one kernel
                // runs at a time on this thread; slots that alias are
                // what `TaskCtx`'s `Cell`-style views are for.
                self.scratch
                    .slots
                    .push(unsafe { ArgSlot::new(domain, param.privilege, &param.fields, inst) });
            }
            self.tb.instant(EventKind::TaskLaunch {
                launch,
                pos,
                task: l.task.0,
            });
            let mut ctx = TaskCtx::new(&self.scratch.slots, &self.scratch.scalar_args, c);
            let t0 = self.tb.now();
            (decl.kernel)(&mut ctx);
            let returned = ctx.return_value;
            self.scratch.slots.clear();
            self.tb.span_since(
                t0,
                EventKind::TaskRun {
                    launch,
                    pos,
                    task: l.task.0,
                },
            );
            if self.useful_work() {
                self.stats.tasks_executed += 1;
            }
            if let Some((_, op)) = l.reduce_result {
                let v = returned.unwrap_or_else(|| panic!("task {} returned no value", decl.name));
                reduced = Some(match reduced {
                    None => v,
                    Some(acc) => op.fold(acc, v),
                });
            }
        }
        self.mx.add(Counter::Launches, owned.len() as u64);
        self.mx.add(Counter::TaskRuns, owned.len() as u64);
        self.mx.record_since(m0, Timer::TaskRunNs);
        if !self.scratch.reseal.is_empty() {
            let m0 = self.mx.start();
            let mut sealed = 0;
            for &(slot, fields) in &self.scratch.reseal {
                self.data.insts[slot].seal_fields(fields);
                sealed += fields.len() as u64;
            }
            self.mx.record_since(m0, Timer::IntegrityNs);
            self.mx.add(Counter::ColumnSeals, sealed);
        }
        if let Some((var, op)) = l.reduce_result {
            // Local partial; the AllReduce emitted right after this
            // launch folds across shards. Shards owning no points
            // contribute the identity.
            self.env[var.0 as usize] = reduced.unwrap_or_else(|| op.identity());
        }
    }

    /// Publishes the shard's buffer-pool counters into the metrics
    /// registry. Called once at shard shutdown — the pool is shard
    /// private, so flushing totals is cheaper than per-take increments.
    pub(crate) fn flush_pool_metrics(&mut self) {
        self.mx.add(Counter::PoolReuses, self.pool.reuses());
        self.mx.add(Counter::PoolAllocs, self.pool.allocs());
    }

    /// Whether the current epoch is first-time (useful) work rather
    /// than a post-rollback replay. Work counters only advance for
    /// useful epochs, keeping recovered and fault-free stats equal.
    pub(crate) fn useful_work(&self) -> bool {
        self.epoch >= self.replay_until
    }
}

/// The outermost loop no other can run after: the last `For` or
/// `While` of `stmts` in program order, looking into `If` branches but
/// not into loops. Top-level statements run once, so only a loop later
/// in that order can run after it.
fn last_outer_loop(stmts: &[SpmdStmt]) -> Option<&SpmdStmt> {
    stmts.iter().rev().find_map(|s| match s {
        SpmdStmt::For { .. } | SpmdStmt::While { .. } => Some(s),
        SpmdStmt::If {
            then_body,
            else_body,
            ..
        } => last_outer_loop(else_body).or_else(|| last_outer_loop(then_body)),
        _ => None,
    })
}

/// Identity of a shard's physical instance in trace events (their
/// `inst` field): the shard and the instance's slot in its image.
pub(crate) fn inst_id(shard: usize, slot: usize) -> u64 {
    ((shard as u64) << 32) | slot as u64
}
