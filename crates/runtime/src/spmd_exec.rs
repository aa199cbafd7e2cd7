//! The per-shard execution engine for control-replicated programs.
//!
//! Each shard of the [`SpmdProgram`] runs on its own OS thread (spawned
//! by the shard-team driver, `crate::team`) with its
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
//! Synchronization follows the consumer-applied protocol of §3.4:
//! copies "are issued by the producer of the data", and the consumer
//! blocks on the matching receive at its own copy point. The receive
//! doubles as the point-to-point synchronization — write-after-read is
//! satisfied because the consumer only applies data between its own
//! statements, read-after-write because it cannot proceed until the
//! data arrives. The naive global-barrier mode (Fig. 4c) adds
//! [`ShardBarrier`] waits around every copy.
//!
//! With an enabled [`Tracer`] ([`crate::RunOptions::tracer`]) every shard
//! records its runs, accesses, copy issues/applies, and collective
//! generations on its own track — enough for the `regent-trace` Spy
//! validator to reconstruct the execution's happens-before graph and
//! certify every cross-shard dependence.
//!
//! ## Resilience (checkpoint–restart)
//!
//! With [`crate::RunOptions::resilience`] set, the same program runs
//! under a deterministic [`FaultPlan`]: every shard snapshots its instances
//! and scalar environment at epoch boundaries (an *epoch* is one
//! outermost-loop iteration), and when the plan schedules a shard
//! crash, all shards roll back to the last snapshot together and
//! replay. This is *coordinated replicated rollback*: because control
//! flow is replicated and the fault plan is shared, every shard
//! independently reaches the same crash decision at the same epoch, so
//! no recovery messages are needed — exactly the property that makes
//! control-replicated programs cheap to checkpoint. Channels are
//! provably empty at epoch boundaries (each copy's sends are consumed
//! by the matching receives within the same iteration on both sides),
//! so replay re-sends and re-receives in lockstep. Recovered results
//! are bit-identical to a fault-free run; trace identities
//! (`launch_seq`, copy occurrences) are *not* rolled back, so replayed
//! work gets fresh identities and the Spy validator certifies the
//! recovered trace like any other.
//!
//! ## Integrity (silent-data-corruption detection and repair)
//!
//! With [`ResilienceOptions::integrity`] (or any nonzero
//! `FaultPlan::corrupt_rate`) the executor becomes end-to-end
//! checksummed. Every physical instance carries an FNV-1a *seal*,
//! established after allocation and re-established at each point where
//! the protocol makes its contents authoritative: task completion (for
//! every argument held with a mutating privilege), copy application,
//! and reduction-temp reset. Every exchange payload travels as a
//! checksummed frame and every collective contribution as a
//! [`FramedScalar`]; both are verified *on receipt*, before the data
//! can contaminate the fold or the destination instance.
//!
//! Repair is localized when redundancy exists and escalates when it
//! does not:
//!
//! * **Exchange / collective frames** — the producer still holds the
//!   clean payload, so the consumer simply keeps receiving until a
//!   frame verifies. Because the corruption predicate is pure and
//!   seeded (`FaultPlan::payload_corruption`), the producer *knows*
//!   which transmissions arrive corrupted and proactively retransmits
//!   — no acknowledgement channel is needed. Retransmissions are
//!   bounded by [`RetryPolicy::max_attempts`]; exhaustion is
//!   unrecoverable and fail-stops the run.
//! * **Resident instances** — no peer holds a redundant copy of a
//!   shard's owned data, so the checkpoint is the redundancy: a seal
//!   mismatch found by the epoch-boundary verification sweep escalates
//!   to the coordinated rollback above. The decision is replicated —
//!   every shard evaluates the same `FaultPlan::resident_corruption`
//!   predicate — so recovery stays coordination-free.
//!
//! Detection, repair, and escalation are visible as `CorruptDetected`
//! / `CorruptRepaired` / `CorruptEscalated` trace events, summarized
//! by `regent_trace::integrity_summary` and certified by the Spy
//! validator's unrepaired-corruption check. Recovered results remain
//! bit-identical to a fault-free run.

use crate::cancel::CancelToken;
use crate::collective::{DynamicCollective, FramedScalar, ShardBarrier};
use crate::metrics::{self, Counter, MetricsHandle, Timer};
use crate::plan::{ExchangeSchedule, InstKey, PairPlan};
use crate::pool::{clone_insts_into, ChunkPool};
use crate::ring::{RingReceiver, RingSender, SendError};
use crate::run::{RunCtx, RunResult};
use crate::team::run_team;
use regent_cr::spmd::block_range;
use regent_cr::{
    CopyId, CopySource, CopyStmt, ShardImage, ShardLayout, SpmdLaunch, SpmdProgram, SpmdStmt,
    TempId,
};
use regent_fault::{message_key, DeathCause, FaultPlan, PeerDeath, RetryPolicy, SHARD_LOSS_PREFIX};
use regent_ir::{ArgSlot, Privilege, Store, TaskCtx};
use regent_region::checksum::StripedFnv;
use regent_region::{ColumnData, FieldId, Instance, ReductionOp};
use regent_trace::{fields_mask, CorruptSite, EventKind, TraceBuf, Tracer};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// [`message_key`] domain tag for exchange payload corruption ("EXCH").
const EXCHANGE_TAG: u64 = 0x4558_4348;
/// [`message_key`] domain tag for collective frame corruption ("COLL").
const COLLECTIVE_TAG: u64 = 0x434F_4C4C;

/// One field's payload within a copy message, in the canonical element
/// order of the pair's intersection domain.
#[derive(Clone, Debug)]
pub(crate) enum Chunk {
    F64(Vec<f64>),
    I64(Vec<i64>),
}

/// A copy message from a producer shard to a consumer shard. Under the
/// integrity protocol the payload is framed: `checksum` covers the
/// *intended* chunks, so a frame corrupted in flight fails verification
/// on receipt, and `attempt` numbers the retransmissions of one logical
/// payload.
pub(crate) struct CopyMsg {
    copy: CopyId,
    pair_seq: u32,
    /// Retransmission number of this frame (0 = first transmission).
    attempt: u32,
    /// FNV-1a checksum of the uncorrupted payload; 0 (never verified)
    /// when the integrity layer is off.
    checksum: u64,
    chunks: Vec<Chunk>,
}

/// Checksum of a copy payload, computed in place over the borrowed
/// chunk slices: each chunk contributes a length header (complemented
/// for i64 so the two column kinds can never alias) followed by its
/// raw element bits. Uses the 4-lane [`StripedFnv`] — frame hashing
/// runs once on the producer and once on the consumer of every
/// message, and the striped lanes auto-vectorize here, measuring
/// faster in situ than the scalar FNV chain they replaced.
fn chunks_checksum(chunks: &[Chunk]) -> u64 {
    let mut h = StripedFnv::new();
    for ch in chunks {
        match ch {
            Chunk::F64(v) => {
                h.mix(v.len() as u64);
                h.mix_f64s(v);
            }
            Chunk::I64(v) => {
                h.mix(!(v.len() as u64));
                h.mix_i64s(v);
            }
        }
    }
    h.finish()
}

/// Flips one entropy-selected bit in a copy payload — the in-flight
/// corruption the receive-side checksum must catch. Returns `false`
/// for an empty payload (nothing to corrupt).
fn corrupt_chunks(chunks: &mut [Chunk], entropy: u64) -> bool {
    let total: usize = chunks
        .iter()
        .map(|c| match c {
            Chunk::F64(v) => v.len(),
            Chunk::I64(v) => v.len(),
        })
        .sum();
    if total == 0 {
        return false;
    }
    let mut slot = (entropy % total as u64) as usize;
    let bit = (entropy >> 40) % 64;
    for ch in chunks {
        let len = match ch {
            Chunk::F64(v) => v.len(),
            Chunk::I64(v) => v.len(),
        };
        if slot < len {
            match ch {
                Chunk::F64(v) => v[slot] = f64::from_bits(v[slot].to_bits() ^ (1u64 << bit)),
                Chunk::I64(v) => v[slot] = (v[slot] as u64 ^ (1u64 << bit)) as i64,
            }
            return true;
        }
        slot -= len;
    }
    unreachable!("slot selection within total payload length")
}

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
    pub fn merge(&mut self, o: &ShardStats) {
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

/// Configuration of a resilient SPMD run: a deterministic fault plan
/// (only its shard-crash events apply to the real executor — loss and
/// slowdown are machine-model concerns) plus the checkpoint cadence.
#[derive(Clone, Debug, Default)]
pub struct ResilienceOptions {
    /// Take a snapshot every `checkpoint_interval` epochs (0 ⇒ only
    /// the mandatory epoch-0 snapshot, so every crash replays from the
    /// start of the loop).
    pub checkpoint_interval: u64,
    /// The seeded fault plan; crashes fire at its scheduled epochs and
    /// its `corrupt_rate` drives silent-data-corruption injection.
    pub plan: FaultPlan,
    /// Forces the integrity layer (instance seals, framed exchanges
    /// and collectives, epoch-boundary verification sweeps) on even
    /// when `plan.corrupt_rate` is zero — the configuration used to
    /// measure the layer's fault-free overhead. A nonzero corruption
    /// rate enables integrity regardless of this flag.
    pub integrity: bool,
    /// Cooperative cancellation token for supervised runs, checked by
    /// every shard at every epoch boundary (deadline budgets, explicit
    /// supervisor cancels, injected transient faults). `None` for
    /// unsupervised runs.
    pub cancel: Option<CancelToken>,
    /// Supervisor-provided cross-attempt checkpoints: boundary
    /// snapshots are offered into the run's slot (one per replicated
    /// segment), and a fresh run with a committed checkpoint
    /// fast-forwards to it instead of starting from scratch — this is
    /// what makes a retried job resume from the last checkpoint. The
    /// shared-log strategy has no resumable slot (its sequencer cannot
    /// re-derive skipped `AllReduce` feedback), so log runs neither
    /// offer nor resume: they retry from scratch.
    pub rescue: Option<Arc<Rescue>>,
    /// Shared death board for failover-aware runs: the first thread to
    /// die records a structured [`PeerDeath`] here, so the failover
    /// driver learns *which* shard was lost and *why* without parsing
    /// panic strings. `None` for plain runs.
    pub board: Option<Arc<DeathBoard>>,
}

/// A shared record of shard deaths within one executor attempt. The
/// failover driver reads it after catching the attempt's panic to learn
/// the root cause without parsing diagnostics: kill and hang causes are
/// recorded *before* the poison cascade starts, and a panicking shard's
/// panic guard (`crate::team`) records itself only when the board is
/// still empty — so the first entry is always the root cause, never a
/// secondary unwind.
#[derive(Debug, Default)]
pub struct DeathBoard {
    deaths: Mutex<Vec<PeerDeath>>,
}

impl DeathBoard {
    /// An empty board.
    pub fn new() -> DeathBoard {
        DeathBoard::default()
    }

    /// Records a death. At most one entry per shard is kept (a shard
    /// dies once; later reports for the same shard are echoes).
    pub fn record(&self, death: PeerDeath) {
        let mut g = self.deaths.lock().unwrap_or_else(|e| e.into_inner());
        if g.iter().all(|d| d.shard != death.shard) {
            g.push(death);
        }
    }

    /// The first recorded death — the root cause of the attempt's
    /// failure.
    pub fn first(&self) -> Option<PeerDeath> {
        self.deaths
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .first()
            .copied()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.deaths
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// All recorded deaths, in recording order.
    pub fn snapshot(&self) -> Vec<PeerDeath> {
        self.deaths
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Clears the board for the next attempt.
    pub fn clear(&self) {
        self.deaths
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
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

/// Transmissions one logical exchange payload or collective frame may
/// take under the integrity protocol ([`RetryPolicy::max_attempts`]):
/// what a producer stops at, and what the team driver sizes the
/// exchange rings for when the fault plan can corrupt a payload.
pub(crate) fn retry_budget() -> u32 {
    RetryPolicy::default().max_attempts
}

/// Per-shard checkpoint–restart and integrity state for a resilient
/// run.
pub(crate) struct Resilience {
    /// Crash schedule as (epoch, shard), sorted; `cursor` advances once
    /// per event so each injected crash fires exactly once.
    schedule: Vec<(u64, u32)>,
    cursor: usize,
    /// Kill schedule as (epoch, shard), sorted: unlike a crash (which
    /// the run survives via coordinated rollback), a kill takes the
    /// victim's *thread* down — only the failover driver can recover,
    /// by shrinking the membership and re-running the survivors.
    kills: Vec<(u64, u32)>,
    kill_cursor: usize,
    /// Stall schedule as (epoch, shard, ms), sorted: the victim sleeps
    /// past the hang timeout but never panics on its own — its
    /// consumers detect the hang and blame it on the death board.
    stalls: Vec<(u64, u32, u64)>,
    stall_cursor: usize,
    /// Shared death board for failover-aware runs.
    board: Option<Arc<DeathBoard>>,
    interval: u64,
    snapshot: Option<Snapshot>,
    /// The fault plan; its corruption predicates are consulted per
    /// exchange payload, per collective frame, and per epoch.
    plan: FaultPlan,
    /// Whether seals, framing, and verification sweeps are active.
    integrity: bool,
    /// Retransmission budget per logical payload ([`retry_budget`]).
    retry_max: u32,
    /// Epochs below this already had their scheduled resident
    /// corruption handled — keeps the event from re-firing during the
    /// very replay it triggered.
    corrupt_handled: u64,
    /// Cooperative cancellation token, checked at every boundary.
    cancel: Option<CancelToken>,
    /// Cross-attempt checkpoint slot boundary snapshots are offered
    /// into; resolved from [`ResilienceOptions::rescue`] by the team
    /// driver, like `resume`.
    pub(crate) rescue: Option<Arc<RescueSlot>>,
    /// Committed checkpoint this run fast-forwards to at the first
    /// boundary of its matching outermost loop; taken from the rescue
    /// slot on the driver thread before the shards spawn, so every
    /// shard resumes (or doesn't) identically.
    pub(crate) resume: Option<Arc<ResumeState>>,
}

impl Resilience {
    fn new(opts: &ResilienceOptions) -> Resilience {
        Resilience {
            schedule: opts
                .plan
                .crash_schedule()
                .into_iter()
                .map(|(shard, epoch)| (epoch, shard))
                .collect(),
            cursor: 0,
            kills: opts
                .plan
                .kill_schedule()
                .into_iter()
                .map(|(shard, epoch)| (epoch, shard))
                .collect(),
            kill_cursor: 0,
            stalls: opts
                .plan
                .stall_schedule()
                .into_iter()
                .map(|(shard, epoch, ms)| (epoch, shard, ms))
                .collect(),
            stall_cursor: 0,
            board: opts.board.clone(),
            interval: opts.checkpoint_interval,
            snapshot: None,
            plan: opts.plan.clone(),
            integrity: opts.integrity || opts.plan.corrupt_rate > 0.0,
            retry_max: retry_budget(),
            corrupt_handled: 0,
            cancel: opts.cancel.clone(),
            rescue: None,
            resume: None,
        }
    }
}

/// An epoch-boundary snapshot: everything a shard must restore to
/// deterministically replay from that boundary. Trace identities and
/// statistics are deliberately excluded (see the module docs).
///
/// `token` is the executor's resume position — the outermost-loop
/// iteration for the SPMD executor, the log batch index for the
/// shared-log executor.
struct Snapshot {
    token: u64,
    epoch: u64,
    /// The shard's instances, by slot of its layout.
    insts: Vec<Instance>,
    env: Vec<f64>,
}

/// One shard's boundary offer into a [`RescueSlot`]: its snapshot plus
/// the coordinates every shard must agree on before the set commits.
struct PendingPart {
    epoch: u64,
    token: u64,
    loop_seq: u64,
    env: Vec<f64>,
    insts: Vec<Instance>,
}

/// A complete, consistent cross-attempt checkpoint: every shard's
/// instances plus the replicated scalar environment and resume
/// position, all captured at the same epoch boundary.
pub(crate) struct ResumeState {
    pub(crate) epoch: u64,
    pub(crate) token: u64,
    /// Which outermost loop (1-based entry order) the resume token
    /// indexes into — a token is an iteration number and means nothing
    /// in a different loop.
    pub(crate) loop_seq: u64,
    pub(crate) env: Vec<f64>,
    /// Per shard, its instances by slot of its layout.
    pub(crate) parts: Vec<Vec<Instance>>,
}

/// One replicated segment's slot of a [`Rescue`]: carries checkpoint state *across
/// executor invocations*: each shard offers its epoch-boundary
/// snapshot into the slot, and once every shard has offered the same
/// `(epoch, token)` the set commits atomically. A later run handed the
/// same slot (a retry after a transient failure) fast-forwards every
/// shard to the committed checkpoint instead of recomputing from
/// scratch — in-run rollback handles faults the run survives, the
/// rescue slot handles faults it does not.
///
/// Torn offers (shards at different epochs when the run died) simply
/// never commit; the retry then starts from scratch, which is always
/// correct because execution is deterministic.
pub(crate) struct RescueSlot {
    inner: Mutex<RescueInner>,
}

struct RescueInner {
    pending: Vec<Option<PendingPart>>,
    committed: Option<Arc<ResumeState>>,
}

impl std::fmt::Debug for RescueSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock().expect("rescue slot poisoned");
        f.debug_struct("RescueSlot")
            .field("shards", &g.pending.len())
            .field("committed_epoch", &g.committed.as_ref().map(|c| c.epoch))
            .finish()
    }
}

impl RescueSlot {
    /// An empty slot for a job running on `num_shards` shards.
    pub(crate) fn new(num_shards: usize) -> RescueSlot {
        RescueSlot {
            inner: Mutex::new(RescueInner {
                pending: (0..num_shards).map(|_| None).collect(),
                committed: None,
            }),
        }
    }

    /// A slot for `num_shards` shards pre-seeded with a committed
    /// checkpoint — used by the failover driver after remapping a dead
    /// shard's state onto the survivors: the next attempt resumes from
    /// the remapped checkpoint as if it had been committed natively.
    pub(crate) fn with_committed(num_shards: usize, committed: Arc<ResumeState>) -> RescueSlot {
        assert_eq!(
            committed.parts.len(),
            num_shards,
            "pre-seeded checkpoint must match the slot's membership"
        );
        RescueSlot {
            inner: Mutex::new(RescueInner {
                pending: (0..num_shards).map(|_| None).collect(),
                committed: Some(committed),
            }),
        }
    }

    /// The membership this slot collects offers from.
    fn num_shards(&self) -> usize {
        self.inner
            .lock()
            .expect("rescue slot poisoned")
            .pending
            .len()
    }

    /// Epoch of the committed checkpoint, if any — what a retry will
    /// resume from.
    pub(crate) fn checkpoint_epoch(&self) -> Option<u64> {
        self.inner
            .lock()
            .expect("rescue slot poisoned")
            .committed
            .as_ref()
            .map(|c| c.epoch)
    }

    /// The committed checkpoint for a fresh attempt to resume from
    /// (leaves it in place — a later attempt may need it again).
    pub(crate) fn resume_state(&self) -> Option<Arc<ResumeState>> {
        self.inner
            .lock()
            .expect("rescue slot poisoned")
            .committed
            .clone()
    }

    /// One shard's boundary snapshot offer; commits the set when every
    /// shard has offered the same `(epoch, token)`. Mixing offers from
    /// different attempts is benign: state at a given epoch is
    /// bit-identical across attempts by determinism.
    fn offer(
        &self,
        shard: usize,
        epoch: u64,
        token: u64,
        loop_seq: u64,
        env: &[f64],
        insts: &[Instance],
    ) {
        let mut g = self.inner.lock().expect("rescue slot poisoned");
        assert!(shard < g.pending.len(), "rescue offer from unknown shard");
        g.pending[shard] = Some(PendingPart {
            epoch,
            token,
            loop_seq,
            env: env.to_vec(),
            insts: insts.to_vec(),
        });
        let complete = g.pending.iter().all(|p| {
            p.as_ref()
                .is_some_and(|q| q.epoch == epoch && q.token == token && q.loop_seq == loop_seq)
        });
        if complete {
            let taken: Vec<PendingPart> = g
                .pending
                .iter_mut()
                .map(|p| p.take().expect("completeness checked above"))
                .collect();
            // The scalar environment is replicated; commit shard 0's.
            let env = taken[0].env.clone();
            let parts: Vec<Vec<Instance>> = taken.into_iter().map(|q| q.insts).collect();
            g.committed = Some(Arc::new(ResumeState {
                epoch,
                token,
                loop_seq,
                env,
                parts,
            }));
        }
    }
}

/// Cross-attempt checkpoints of one job: one slot (`RescueSlot`) per
/// replicated segment, keyed by segment index (a whole-program SPMD run
/// is segment 0). A supervisor hands the same `Rescue` to every retry
/// of a job through [`ResilienceOptions::rescue`], so each replicated
/// segment resumes from its own last committed checkpoint instead of
/// recomputing from scratch. (Sequential segments of a hybrid program
/// re-run through the interpreter; they are cheap and deterministic, so
/// re-deriving their scalars is free of risk.)
#[derive(Debug, Default)]
pub struct Rescue {
    slots: Mutex<Vec<Option<Arc<RescueSlot>>>>,
}

impl Rescue {
    /// An empty rescue container.
    pub fn new() -> Rescue {
        Rescue::default()
    }

    /// The slot for replicated segment `idx` of a `num_shards`-strong
    /// membership, created on first use. A slot left by a run at a
    /// different membership is replaced by an empty one: its
    /// checkpoint has one part per shard of *that* run, and starting
    /// from scratch is always correct.
    pub(crate) fn slot(&self, idx: usize, num_shards: usize) -> Arc<RescueSlot> {
        let mut g = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if g.len() <= idx {
            g.resize_with(idx + 1, || None);
        }
        match &g[idx] {
            Some(slot) if slot.num_shards() == num_shards => slot.clone(),
            _ => g[idx].insert(Arc::new(RescueSlot::new(num_shards))).clone(),
        }
    }

    /// Replaces the slot for replicated segment `idx` (used by the
    /// failover loop after remapping a segment's checkpoint onto a
    /// shrunken membership).
    pub(crate) fn replace_slot(&self, idx: usize, slot: RescueSlot) {
        let mut g = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if g.len() <= idx {
            g.resize_with(idx + 1, || None);
        }
        g[idx] = Some(Arc::new(slot));
    }

    /// The committed checkpoint of replicated segment `idx`, if any.
    pub(crate) fn committed(&self, idx: usize) -> Option<Arc<ResumeState>> {
        let g = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        g.get(idx)?.as_ref()?.resume_state()
    }

    /// Highest committed checkpoint epoch across all segments — what a
    /// retry will resume from, and a cheap "has anything committed"
    /// probe for tests and supervisors.
    pub fn checkpoint_epoch(&self) -> Option<u64> {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .flatten()
            .filter_map(|s| s.checkpoint_epoch())
            .max()
    }
}

/// Stable identity hash of a shard-local physical instance (the `inst`
/// field of trace events).
pub(crate) fn inst_hash(key: &InstKey) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// The per-shard execution engine: shard-local storage, the exchange
/// channels, trace/metrics recorders, and the resilience state. The
/// SPMD executor drives it through [`ShardExec::run_stmts`] (every
/// shard re-executes the whole control program); the shared-log
/// executor (`log_exec`) drives the *same* engine one leaf statement
/// at a time through [`ShardExec::run_stmt`], so exchanges,
/// collectives, integrity, and rollback behave identically under both
/// strategies.
pub(crate) struct ShardExec<'a> {
    pub(crate) spmd: &'a SpmdProgram,
    /// The program's exchange schedule (pairs plus gather/scatter
    /// offsets), shared read-only with every other shard and run.
    pub(crate) schedule: &'a ExchangeSchedule,
    /// This shard's slice of the schedule: its instance slots and the
    /// pairs it produces and consumes.
    layout: &'a ShardLayout,
    pub(crate) shard: usize,
    /// The shard's instances, by slot: the program's image of this
    /// shard, taken for the run and handed back by the team driver.
    pub(crate) data: ShardImage,
    pub(crate) env: Vec<f64>,
    /// This shard's ends of the exchange mesh, by peer shard.
    pub(crate) tx: Vec<RingSender<CopyMsg>>,
    pub(crate) rx: Vec<RingReceiver<CopyMsg>>,
    pub(crate) collective: &'a DynamicCollective,
    pub(crate) barrier: &'a ShardBarrier,
    /// How long a receive from a peer may stall before the peer is
    /// blamed as hung.
    hang_timeout: Duration,
    pub(crate) stats: ShardStats,
    /// Event recorder for this shard's track.
    pub(crate) tb: TraceBuf,
    /// Always-on metrics recorder for this shard (merged into the
    /// global registry when the shard thread finishes).
    pub(crate) mx: MetricsHandle,
    /// Dynamic launch sequence number. Control flow is replicated, so
    /// every shard assigns the same number to the same logical launch —
    /// the cross-shard trace identity (§3.5).
    pub(crate) launch_seq: u32,
    /// Current loop nesting depth (0 ⇒ outermost, a timestep loop).
    pub(crate) loop_depth: u32,
    /// Dynamic occurrence counters per (copy id, pair index), matching
    /// producer and consumer counts by replicated control flow.
    pub(crate) copy_occurrence: HashMap<(u32, u32), u32>,
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
    /// Checkpoint–restart state; `None` for plain (non-resilient) runs.
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
    scratch: Scratch<'a>,
}

/// See [`ShardExec::scratch`].
#[derive(Default)]
struct Scratch<'a> {
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
    applied: Vec<u32>,
    /// A copy statement's outbound payloads under the integrity
    /// protocol, staged so one bracket checksums them all.
    outbox: Vec<Outbound>,
}

/// One staged outbound payload (see [`Scratch::outbox`]).
struct Outbound {
    pair_seq: u32,
    occurrence: u32,
    dst: usize,
    checksum: u64,
    chunks: Vec<Chunk>,
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
        store: &Store,
        env: Vec<f64>,
        (tx, rx): (Vec<RingSender<CopyMsg>>, Vec<RingReceiver<CopyMsg>>),
        (collective, barrier): (&'a DynamicCollective, &'a ShardBarrier),
        tracer: &Arc<Tracer>,
        resilience: Option<&ResilienceOptions>,
        hang_timeout: Duration,
    ) -> Self {
        let mut mx = metrics::global().handle(&format!("shard-{shard}"));
        let layout = &schedule.layouts[shard];
        let (mut data, built) = spmd.take_image(layout, shard);
        mx.incr(if built {
            Counter::ImageBuilds
        } else {
            Counter::ImageReuses
        });
        let m0 = mx.start();
        data.fill(spmd, layout, store);
        mx.record_since(m0, Timer::ImageFillNs);
        if resilience.is_some_and(|o| o.integrity || o.plan.corrupt_rate > 0.0) {
            // Initial seal: from here on every instance is verified at
            // each epoch boundary.
            for inst in &mut data.insts {
                inst.seal();
            }
        }
        ShardExec {
            spmd,
            schedule,
            layout,
            shard,
            data,
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
            copy_occurrence: HashMap::new(),
            collective_seq: 0,
            epoch: 0,
            replay_until: 0,
            resilience: resilience.map(Resilience::new),
            outer_loop_seq: 0,
            pool: ChunkPool::new(),
            scratch: Scratch::default(),
        }
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
                if self.loop_depth == 0 {
                    self.outer_loop_seq += 1;
                }
                let mut it = 0u64;
                while it < n {
                    if self.loop_depth == 0 {
                        if let Some(restored_it) = self.epoch_boundary(it) {
                            it = restored_it;
                            continue;
                        }
                        self.tb.instant(EventKind::StepBegin { step: it });
                    }
                    self.loop_depth += 1;
                    self.run_stmts(body);
                    self.loop_depth -= 1;
                    if self.loop_depth == 0 {
                        self.epoch += 1;
                    }
                    it += 1;
                }
            }
            SpmdStmt::While { cond, body } => {
                if self.loop_depth == 0 {
                    self.outer_loop_seq += 1;
                }
                let mut it = 0u64;
                while cond.eval(&self.env) != 0.0 {
                    if self.loop_depth == 0 {
                        if let Some(restored_it) = self.epoch_boundary(it) {
                            it = restored_it;
                            continue;
                        }
                        self.tb.instant(EventKind::StepBegin { step: it });
                    }
                    self.loop_depth += 1;
                    self.run_stmts(body);
                    self.loop_depth -= 1;
                    if self.loop_depth == 0 {
                        self.epoch += 1;
                    }
                    it += 1;
                }
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

    fn reset_temp(&mut self, t: TempId) {
        let decl = &self.spmd.temps[t.0 as usize];
        let slots = self.layout.temp_slots(t);
        for inst in &mut self.data.insts[slots.clone()] {
            for &f in &decl.fields {
                inst.fill_field(f, decl.op);
            }
        }
        if self.integrity_on() {
            let m0 = self.mx.start_cpu();
            let sealed = (slots.len() * decl.fields.len()) as u64;
            for inst in &mut self.data.insts[slots] {
                inst.seal_fields(&decl.fields);
            }
            self.mx.record_cpu_since(m0, Timer::IntegrityNs);
            self.mx.add(Counter::ColumnSeals, sealed);
        }
    }

    /// Whether the integrity layer (sealing, framing, verification) is
    /// active for this run.
    pub(crate) fn integrity_on(&self) -> bool {
        self.resilience.as_ref().is_some_and(|r| r.integrity)
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
        let integrity = self.integrity_on();
        // Instances held with a mutating privilege: the written fields
        // are re-sealed once the launch completes (task completion
        // makes their contents the new checksummed truth). Only the
        // declared fields are rehashed — untouched columns keep their
        // still-valid seals.
        self.scratch.reseal.clear();
        let mut reduced: Option<f64> = None;
        for (local_idx, &c) in owned.iter().enumerate() {
            let pos = (block_start + local_idx) as u32;
            // Resolve argument instances and domains: the layout
            // turns (argument, owned point) into a slot by arithmetic.
            for (idx, a) in l.args.iter().enumerate() {
                let param = &decl.params[idx];
                let slot = self.layout.arg_slot(a, local_idx);
                let info = &self.layout.slots[slot];
                let domain = spmd.forest.domain(info.region);
                if integrity && !matches!(param.privilege, Privilege::Read) {
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
                        inst: inst_hash(&info.key),
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
            self.mx.incr(Counter::Launches);
            let mut ctx = TaskCtx::new(&self.scratch.slots, &self.scratch.scalar_args, c);
            let t0 = self.tb.now();
            let m0 = self.mx.start();
            (decl.kernel)(&mut ctx);
            let returned = ctx.return_value;
            self.scratch.slots.clear();
            self.mx.incr(Counter::TaskRuns);
            self.mx.record_since(m0, Timer::TaskRunNs);
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
        if !self.scratch.reseal.is_empty() {
            let m0 = self.mx.start_cpu();
            let mut sealed = 0;
            for &(slot, fields) in &self.scratch.reseal {
                self.data.insts[slot].seal_fields(fields);
                sealed += fields.len() as u64;
            }
            self.mx.record_cpu_since(m0, Timer::IntegrityNs);
            self.mx.add(Counter::ColumnSeals, sealed);
        }
        if let Some((var, op)) = l.reduce_result {
            // Local partial; the AllReduce emitted right after this
            // launch folds across shards. Shards owning no points
            // contribute the identity.
            self.env[var.0 as usize] = reduced.unwrap_or_else(|| op.identity());
        }
    }

    fn run_copy(&mut self, c: &CopyStmt) {
        if self.useful_work() {
            self.stats.copies_executed += 1;
        }
        // Same-shard pairs read their source at apply time, which is
        // only equivalent to reading it at issue time because no pair
        // of this statement writes an instance another pair reads.
        assert!(
            c.src != CopySource::Use(c.dst),
            "copy {} has the same use as source and destination",
            c.id.0
        );
        let ix = c.intersection.0 as usize;
        let pairs: &[PairPlan] = &self.schedule.pairs[ix];
        let layout = self.layout;
        let traced = self.tb.is_enabled();
        let integrity = self.integrity_on();
        let copy_fields_mask = if traced {
            fields_mask(c.fields.iter().map(|f| f.0))
        } else {
            0
        };
        // Producer phase (§3.4: copies are issued by the producer).
        for &seq in &layout.produces[ix] {
            let (seq, p) = (seq as usize, &pairs[seq as usize]);
            let t0 = self.tb.now();
            let m0 = self.mx.start();
            // A pair that stays on this shard has nothing to stage: the
            // consumer phase moves it instance to instance.
            let chunks = (p.dst_owner != self.shard).then(|| {
                extract(
                    &mut self.pool,
                    &self.data.insts[p.src_slot as usize],
                    &c.fields,
                    &p.src_offsets,
                )
            });
            // The occurrence number is part of the corruption key, so
            // it must advance whenever the integrity layer is on, not
            // just when tracing.
            let occurrence = if traced || integrity {
                self.occurrence(c.id.0, seq as u32, true)
            } else {
                0
            };
            if traced {
                self.tb.span_since(
                    t0,
                    EventKind::CopyIssue {
                        copy: c.id.0,
                        pair: seq as u32,
                        seq: occurrence,
                        elements: p.src_offsets.len() as u64,
                        dst_shard: p.dst_owner as u32,
                    },
                );
            }
            if let Some(chunks) = chunks {
                // Work counters count logical messages, not integrity
                // retransmissions (those are visible through the
                // corruption counters instead).
                if self.useful_work() {
                    self.stats.messages_sent += 1;
                    self.stats.elements_sent += p.src_offsets.len() as u64;
                }
                if integrity {
                    self.scratch.outbox.push(Outbound {
                        pair_seq: seq as u32,
                        occurrence,
                        dst: p.dst_owner,
                        checksum: 0,
                        chunks,
                    });
                } else {
                    let stalled = push_frame(
                        &mut self.tx[p.dst_owner],
                        CopyMsg {
                            copy: c.id,
                            pair_seq: seq as u32,
                            attempt: 0,
                            checksum: 0,
                            chunks,
                        },
                        self.shard,
                        p.dst_owner,
                        c.id.0,
                        seq as u32,
                    );
                    if stalled {
                        self.mx.incr(Counter::RingStalls);
                    }
                }
            }
            self.mx.incr(Counter::CopiesIssued);
            self.mx.record_since(m0, Timer::CopyIssueNs);
        }
        if !self.scratch.outbox.is_empty() {
            // The statement's frames are checksummed together: the
            // integrity timer reads the thread CPU clock, a system call
            // at each end of a bracket, so it brackets the phase and
            // not each frame.
            let m0 = self.mx.start_cpu();
            for out in &mut self.scratch.outbox {
                out.checksum = chunks_checksum(&out.chunks);
            }
            self.mx.record_cpu_since(m0, Timer::IntegrityNs);
            let mut outbox = std::mem::take(&mut self.scratch.outbox);
            for out in outbox.drain(..) {
                self.send_framed(c.id, out);
            }
            self.scratch.outbox = outbox;
        }
        // Publish every batched frame before blocking in the consumer
        // phase: a peer must never wait on a written-but-unpublished
        // slot (this is the data plane's deadlock-freedom invariant).
        for tx in &mut self.tx {
            tx.flush();
        }
        // Consumer phase: apply in the global deterministic order (the
        // receive is the point-to-point synchronization).
        for &seq in &layout.consumes[ix] {
            let (seq, p) = (seq as usize, &pairs[seq as usize]);
            let t0 = self.tb.now();
            let m0 = self.mx.start();
            let chunks = if p.src_owner == self.shard {
                None
            } else {
                // Under the integrity protocol a logical payload may
                // arrive as several frames: the producer's corruption
                // predicate is pure and shared, so it proactively
                // retransmits after every frame it knows arrives
                // corrupted — keep receiving until one verifies.
                let mut bad_attempts = 0u32;
                let msg = loop {
                    let msg = match self.rx[p.src_owner].recv_timeout(self.hang_timeout) {
                        Ok(m) => m,
                        Err(RecvTimeoutError::Timeout) => {
                            // The producer stopped making progress:
                            // blame *it* (not us) on the death board so
                            // the failover driver evicts the hung
                            // shard, not the waiter that noticed.
                            if let Some(board) =
                                self.resilience.as_ref().and_then(|r| r.board.as_ref())
                            {
                                board.record(PeerDeath {
                                    shard: p.src_owner as u32,
                                    cause: DeathCause::Hung,
                                });
                            }
                            panic!(
                                "likely deadlock: shard {} waited {:?} on copy {} pair {} from shard {}",
                                self.shard,
                                self.hang_timeout,
                                c.id.0,
                                seq,
                                p.src_owner
                            )
                        }
                        Err(RecvTimeoutError::Disconnected) => panic!(
                            "copy channel closed: producer shard {} died before sending copy {} pair {} to shard {}",
                            p.src_owner, c.id.0, seq, self.shard
                        ),
                    };
                    debug_assert_eq!(msg.copy, c.id, "copy protocol out of sync");
                    debug_assert_eq!(msg.pair_seq, seq as u32, "pair order out of sync");
                    let frame_ok = if integrity {
                        let m0 = self.mx.start_cpu();
                        let ok = chunks_checksum(&msg.chunks) == msg.checksum;
                        self.mx.record_cpu_since(m0, Timer::IntegrityNs);
                        ok
                    } else {
                        true
                    };
                    if frame_ok {
                        // The sender's frame numbering and our
                        // detection count advance in lockstep (shared
                        // pure predicate).
                        debug_assert!(
                            !integrity || msg.attempt == bad_attempts,
                            "retransmission numbering out of sync"
                        );
                        break msg;
                    }
                    // Checksum mismatch: the frame was corrupted in
                    // flight. Count the detection and wait for the
                    // retransmission.
                    bad_attempts += 1;
                    self.stats.corruptions_detected += 1;
                    self.tb.instant(EventKind::CorruptDetected {
                        site: CorruptSite::Exchange,
                        id: c.id.0,
                        sub: seq as u32,
                        epoch: self.epoch,
                    });
                    recycle_chunks(&mut self.pool, msg.chunks);
                };
                if bad_attempts > 0 {
                    self.stats.corruptions_repaired += 1;
                    self.mx.add(Counter::Retransmits, u64::from(bad_attempts));
                    self.tb.instant(EventKind::CorruptRepaired {
                        site: CorruptSite::Exchange,
                        id: c.id.0,
                        sub: seq as u32,
                        attempts: bad_attempts,
                    });
                }
                Some(msg.chunks)
            };
            match chunks {
                Some(chunks) => {
                    let dst = &mut self.data.insts[p.dst_slot as usize];
                    apply(dst, &c.fields, &p.dst_offsets, &chunks, c.reduction);
                    // The drained payload feeds the freelist the
                    // producer side draws from — steady state
                    // allocates nothing.
                    recycle_chunks(&mut self.pool, chunks);
                }
                None => {
                    // Source and destination are instances of different
                    // uses (asserted above), so the slots differ.
                    let [src, dst] = self
                        .data
                        .insts
                        .get_disjoint_mut([p.src_slot as usize, p.dst_slot as usize])
                        .expect("a same-shard pair copies between two instances");
                    apply_local(src, dst, &c.fields, p, c.reduction);
                }
            }
            if integrity {
                self.scratch.applied.push(p.dst_slot);
            }
            self.mx.incr(Counter::CopiesApplied);
            self.mx.record_since(m0, Timer::CopyWaitNs);
            if traced {
                let occurrence = self.occurrence(c.id.0, seq as u32, false);
                // The span covers the blocking receive, so copy stalls
                // are visible in profiles.
                self.tb.span_since(
                    t0,
                    EventKind::CopyApply {
                        copy: c.id.0,
                        pair: seq as u32,
                        seq: occurrence,
                        region: layout.slots[p.dst_slot as usize].region.0,
                        inst: inst_hash(&p.dst_key),
                        fields: copy_fields_mask,
                        reduce: c.reduction.is_some(),
                    },
                );
            }
        }
        if !self.scratch.applied.is_empty() {
            // The applied data is verified; the written columns become
            // authoritative again. Seals are only read at epoch
            // boundaries, so each destination is rehashed once, after
            // the statement's last pair, however many pairs wrote it.
            self.scratch.applied.sort_unstable();
            self.scratch.applied.dedup();
            let sealed = (self.scratch.applied.len() * c.fields.len()) as u64;
            let m0 = self.mx.start_cpu();
            for slot in self.scratch.applied.drain(..) {
                self.data.insts[slot as usize].seal_fields(&c.fields);
            }
            self.mx.record_cpu_since(m0, Timer::IntegrityNs);
            self.mx.add(Counter::ColumnSeals, sealed);
        }
    }

    /// Sends one logical exchange payload under the integrity
    /// protocol: checksum-framed, with every corrupted transmission
    /// the fault plan schedules sent ahead of the clean one
    /// (sender-proactive retransmission — the corruption predicate is
    /// pure and shared, so no acknowledgement channel exists; the
    /// consumer receives until a frame verifies).
    fn send_framed(&mut self, copy: CopyId, out: Outbound) {
        let Outbound {
            pair_seq: seq,
            occurrence,
            dst,
            checksum,
            chunks,
        } = out;
        let r = self
            .resilience
            .as_ref()
            .expect("integrity layer active without resilience state");
        let key = message_key(EXCHANGE_TAG, copy.0 as u64, seq as u64, occurrence as u64);
        let max_attempts = r.retry_max;
        let plan = &r.plan;
        let mut injected = 0u64;
        let mut attempt = 0u32;
        loop {
            let bad = plan.payload_corruption(key, attempt).and_then(|entropy| {
                let mut bad = chunks.clone();
                corrupt_chunks(&mut bad, entropy).then_some(bad)
            });
            let Some(bad) = bad else {
                let stalled = push_frame(
                    &mut self.tx[dst],
                    CopyMsg {
                        copy,
                        pair_seq: seq,
                        attempt,
                        checksum,
                        chunks,
                    },
                    self.shard,
                    dst,
                    copy.0,
                    seq,
                );
                if stalled {
                    self.mx.incr(Counter::RingStalls);
                }
                break;
            };
            assert!(
                attempt + 1 < max_attempts,
                "unrecoverable exchange corruption: shard {} would produce {} corrupted \
                 transmissions in a row for copy {} pair {} (retry budget exhausted)",
                self.shard,
                max_attempts,
                copy.0,
                seq
            );
            injected += 1;
            let stalled = push_frame(
                &mut self.tx[dst],
                CopyMsg {
                    copy,
                    pair_seq: seq,
                    attempt,
                    checksum,
                    chunks: bad,
                },
                self.shard,
                dst,
                copy.0,
                seq,
            );
            if stalled {
                self.mx.incr(Counter::RingStalls);
            }
            attempt += 1;
        }
        self.stats.corruptions_injected += injected;
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

    /// Epoch boundary of a resilient run, called at the top of every
    /// outermost-loop iteration. See [`ShardExec::boundary`].
    fn epoch_boundary(&mut self, it: u64) -> Option<u64> {
        self.boundary(it == 0, it)
    }

    /// Epoch boundary of a resilient run: takes a snapshot when one is
    /// due, then fires a scheduled crash by rolling back to the last
    /// snapshot. `first` marks the first boundary of an outermost loop
    /// (forces a fresh snapshot so a rollback never crosses loop
    /// boundaries); `token` is the executor's resume position stored in
    /// the snapshot — the loop iteration for the SPMD executor, the log
    /// batch index for the shared-log executor. Returns
    /// `Some(restored_token)` when a rollback happened — the caller
    /// resumes from that position; `None` otherwise (including for
    /// plain runs). Every shard makes the same decision at the same
    /// epoch (replicated control flow / a replicated log + shared
    /// plan), which is what keeps the recovery coordination-free.
    pub(crate) fn boundary(&mut self, first: bool, token: u64) -> Option<u64> {
        self.resilience.as_ref()?;
        // Cooperative cancellation: supervised jobs stop at epoch
        // boundaries (never mid-exchange), unwinding with a structured
        // diagnostic the supervisor classifies. Every shard fires at
        // the same replicated epoch for deterministic causes; the
        // wall-clock deadline may fire on one shard first, whose
        // PanicGuard then poisons the rest.
        if let Some(tok) = self.resilience.as_ref().unwrap().cancel.clone() {
            tok.check_boundary(self.shard, self.epoch);
        }
        // Cross-attempt rescue resume: at the first boundary of the
        // outermost loop the committed checkpoint belongs to, install
        // its state and fast-forward to its iteration. The decision was
        // resolved once on the driver thread, so all shards agree.
        if first
            && self
                .resilience
                .as_ref()
                .unwrap()
                .resume
                .as_ref()
                .is_some_and(|rs| rs.loop_seq == self.outer_loop_seq)
        {
            let rs = self
                .resilience
                .as_mut()
                .unwrap()
                .resume
                .take()
                .expect("checked above");
            return Some(self.install_resume(&rs));
        }
        // Integrity sweep first: inject and detect resident corruption
        // *before* the snapshot logic, so a snapshot can never capture
        // corrupted state.
        if let Some(restored) = self.integrity_boundary(first) {
            return Some(restored);
        }
        let epoch = self.epoch;
        let r = self.resilience.as_ref().unwrap();
        // Snapshot at the first epoch of each loop and every `interval`
        // epochs after — but not twice at the same epoch (a rollback
        // lands us back on a boundary whose snapshot is already live).
        let due = (first || (r.interval > 0 && epoch.is_multiple_of(r.interval)))
            && r.snapshot.as_ref().is_none_or(|s| s.epoch != epoch);
        if due {
            let t0 = self.tb.now();
            let m0 = self.mx.start();
            // Reuse the previous snapshot's allocations: the instance
            // shapes are static per shard, so in steady state a
            // checkpoint copies bits without touching the allocator.
            let snap = match self.resilience.as_mut().unwrap().snapshot.take() {
                Some(mut s) => {
                    s.token = token;
                    s.epoch = epoch;
                    clone_insts_into(&self.data.insts, &mut s.insts);
                    s.env.clone_from(&self.env);
                    s
                }
                None => Snapshot {
                    token,
                    epoch,
                    insts: self.data.insts.clone(),
                    env: self.env.clone(),
                },
            };
            self.resilience.as_mut().unwrap().snapshot = Some(snap);
            self.stats.checkpoints += 1;
            self.mx.incr(Counter::Checkpoints);
            self.mx.record_since(m0, Timer::CheckpointNs);
            self.tb.span_since(t0, EventKind::CheckpointSave { epoch });
            // Offer the snapshot into the supervisor's rescue slot so
            // a retry after an unrecoverable failure resumes here.
            if let Some(slot) = self.resilience.as_ref().unwrap().rescue.clone() {
                slot.offer(
                    self.shard,
                    epoch,
                    token,
                    self.outer_loop_seq,
                    &self.env,
                    &self.data.insts,
                );
            }
        }
        // Injected shard kill: fires *after* the snapshot/rescue offer
        // (so the kill-epoch checkpoint can commit) and *before* the
        // survivable crash schedule. Every shard advances the cursor
        // (the schedule is replicated); only the victim dies. The
        // survivors then unwind through the poison cascade, and the
        // failover driver reconstructs the victim's state at N-1.
        {
            let r = self.resilience.as_mut().unwrap();
            if let Some(&(e, victim)) = r.kills.get(r.kill_cursor) {
                if e == epoch {
                    r.kill_cursor += 1;
                    if victim as usize == self.shard {
                        let death = PeerDeath {
                            shard: victim,
                            cause: DeathCause::Killed { epoch },
                        };
                        if let Some(board) = &r.board {
                            board.record(death);
                        }
                        panic!("{SHARD_LOSS_PREFIX}: {death}");
                    }
                }
            }
        }
        // Injected shard stall: the victim sleeps past the hang timeout
        // and then continues — it never panics on its own. Its
        // consumers' bounded receives time out, blame the producer as
        // hung on the death board, and unwind; the woken victim then
        // dies on the poisoned barrier or sealed rings.
        {
            let r = self.resilience.as_mut().unwrap();
            if let Some(&(e, victim, ms)) = r.stalls.get(r.stall_cursor) {
                if e == epoch {
                    r.stall_cursor += 1;
                    if victim as usize == self.shard {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
            }
        }
        let r = self.resilience.as_mut().unwrap();
        let crashed_shard = match r.schedule.get(r.cursor) {
            Some(&(e, s)) if e == epoch => Some(s),
            _ => None,
        }?;
        r.cursor += 1;
        if crashed_shard as usize == self.shard {
            self.tb.instant(EventKind::ShardCrash {
                shard: crashed_shard,
                epoch,
            });
        }
        Some(self.rollback(epoch))
    }

    /// Integrity work at an epoch boundary: inject any scheduled
    /// resident corruption, sweep every instance seal, and escalate a
    /// detected resident corruption to a coordinated rollback.
    /// Localized repair is impossible for resident state — no peer
    /// holds a redundant copy — so the checkpoint *is* the redundancy.
    /// Returns `Some(restored_token)` when the boundary rolled back.
    fn integrity_boundary(&mut self, first: bool) -> Option<u64> {
        let r = self.resilience.as_ref()?;
        if !r.integrity {
            return None;
        }
        let epoch = self.epoch;
        // Resident corruption only fires past the first boundary of a
        // loop: `!first` guarantees the live snapshot belongs to the
        // current loop, so the restored resume token is valid here.
        let decision = if !first && epoch >= r.corrupt_handled {
            r.plan.resident_corruption(epoch, self.spmd.num_shards)
        } else {
            None
        };
        let Some((victim, entropy)) = decision else {
            // Steady-state sweep — the measurable cost of the
            // integrity layer at corruption rate 0. The sweep runs on
            // snapshot-due boundaries only: the property it protects
            // is that a snapshot never captures corrupted state, and
            // sweeping the epochs in between buys no additional
            // guarantee (scheduled faults verify on their own epoch in
            // the injection branch below) — it only multiplies the
            // rate-0 cost by the checkpoint interval.
            let sweep_due = first || (r.interval > 0 && epoch.is_multiple_of(r.interval));
            if sweep_due {
                let m0 = self.mx.start_cpu();
                self.verify_clean();
                self.mx.record_cpu_since(m0, Timer::IntegrityNs);
            }
            return None;
        };
        // Every shard reaches this decision independently (pure shared
        // predicate), so the rollback needs no recovery messages.
        self.resilience.as_mut().unwrap().corrupt_handled = epoch + 1;
        if victim as usize == self.shard {
            let injected = self.inject_resident(entropy);
            let detected = self.count_seal_mismatches();
            assert_eq!(
                detected,
                u64::from(injected),
                "shard {}: resident corruption escaped seal verification",
                self.shard
            );
            if injected {
                self.stats.corruptions_injected += 1;
                self.stats.corruptions_detected += 1;
                self.tb.instant(EventKind::CorruptDetected {
                    site: CorruptSite::Resident,
                    id: 0,
                    sub: 0,
                    epoch,
                });
                self.stats.corruptions_escalated += 1;
                self.tb.instant(EventKind::CorruptEscalated {
                    shard: victim,
                    epoch,
                });
            }
        } else {
            let m0 = self.mx.start_cpu();
            self.verify_clean();
            self.mx.record_cpu_since(m0, Timer::IntegrityNs);
        }
        Some(self.rollback(epoch))
    }

    /// Installs a committed rescue checkpoint at the start of a fresh
    /// attempt: region instances, scalar environment, and epoch jump
    /// to the checkpoint, the installed state becomes the live
    /// snapshot (so later in-run rollbacks restore to it), and fault
    /// events from epochs at or before the checkpoint are skipped —
    /// they already fired in the attempt that produced it. Returns the
    /// resume token the caller fast-forwards to. Work counters are
    /// *not* suppressed: this run only executes (and only counts) the
    /// epochs after the checkpoint.
    fn install_resume(&mut self, rs: &ResumeState) -> u64 {
        // A checkpoint part is laid out by the same slots as the image
        // (failover's remap rebuilds it for a shrunken membership).
        clone_insts_into(&rs.parts[self.shard], &mut self.data.insts);
        self.env = rs.env.clone();
        self.epoch = rs.epoch;
        let r = self.resilience.as_mut().unwrap();
        r.snapshot = Some(Snapshot {
            token: rs.token,
            epoch: rs.epoch,
            insts: rs.parts[self.shard].clone(),
            env: rs.env.clone(),
        });
        while r
            .schedule
            .get(r.cursor)
            .is_some_and(|&(e, _)| e <= rs.epoch)
        {
            r.cursor += 1;
        }
        while r
            .kills
            .get(r.kill_cursor)
            .is_some_and(|&(e, _)| e <= rs.epoch)
        {
            r.kill_cursor += 1;
        }
        while r
            .stalls
            .get(r.stall_cursor)
            .is_some_and(|&(e, _, _)| e <= rs.epoch)
        {
            r.stall_cursor += 1;
        }
        r.corrupt_handled = r.corrupt_handled.max(rs.epoch + 1);
        self.tb.instant(EventKind::Mark {
            name: "rescue-resume",
        });
        rs.token
    }

    /// Coordinated rollback to the live snapshot: restores instances,
    /// scalars, and the epoch counter, suppresses useful-work stats
    /// for the replayed range, and returns the resume token the
    /// snapshot stored (loop iteration or log batch index).
    fn rollback(&mut self, epoch: u64) -> u64 {
        // Take the snapshot out so the live state can be restored in
        // place (no intermediate full clone), then put it back — it
        // stays the rollback target until the next checkpoint.
        let snap = self
            .resilience
            .as_mut()
            .unwrap()
            .snapshot
            .take()
            .expect("rollback before any snapshot (epoch 0 always checkpoints)");
        let (snap_token, snap_epoch) = (snap.token, snap.epoch);
        let t0 = self.tb.now();
        let m0 = self.mx.start();
        clone_insts_into(&snap.insts, &mut self.data.insts);
        self.env.clone_from(&snap.env);
        self.resilience.as_mut().unwrap().snapshot = Some(snap);
        self.epoch = snap_epoch;
        // Everything below the rolled-back epoch was already counted.
        self.replay_until = self.replay_until.max(epoch);
        self.stats.restores += 1;
        self.stats.epochs_replayed += epoch - snap_epoch;
        self.mx.incr(Counter::Restores);
        self.mx.record_since(m0, Timer::RestoreNs);
        self.tb.span_since(
            t0,
            EventKind::CheckpointRestore {
                epoch,
                to_epoch: snap_epoch,
            },
        );
        snap_token
    }

    /// Verifies every resident instance seal, panicking on a mismatch
    /// the fault plan did not predict — that is genuine memory
    /// corruption or a missed re-seal, and either must fail-stop.
    fn verify_clean(&self) {
        for (inst, info) in self.data.insts.iter().zip(&self.layout.slots) {
            assert!(
                inst.verify_seal(),
                "shard {}: instance {:?} failed seal verification with no corruption \
                 scheduled (memory fault or missed re-seal)",
                self.shard,
                info.key
            );
        }
    }

    /// Number of resident instances whose seal no longer matches their
    /// contents.
    fn count_seal_mismatches(&self) -> u64 {
        self.data.insts.iter().filter(|i| !i.verify_seal()).count() as u64
    }

    /// Flips one bit in one entropy-selected resident instance without
    /// touching its seal — the silent corruption the verification
    /// sweep must catch. Returns `false` when the shard holds no
    /// corruptible (non-empty) instance.
    fn inject_resident(&mut self, entropy: u64) -> bool {
        let insts = &mut self.data.insts;
        let n = insts.len();
        let start = (entropy % n.max(1) as u64) as usize;
        (0..n).any(|i| insts[(start + i) % n].corrupt_bit_silently(entropy))
    }

    /// Next dynamic occurrence number of a (copy, pair) on one side.
    /// Producer and consumer sides count independently but identically
    /// (replicated control flow), which is what matches a `CopyIssue`
    /// to its `CopyApply` across shard logs.
    fn occurrence(&mut self, copy: u32, pair: u32, is_src: bool) -> u32 {
        let k = (copy, pair ^ (u32::from(is_src) << 31));
        let e = self.copy_occurrence.entry(k).or_insert(0);
        let v = *e;
        *e += 1;
        v
    }
}

/// Extracts field payloads at precomputed offsets (canonical element
/// order of the pair's intersection). Buffers come from the shard's
/// [`ChunkPool`] so steady-state exchanges never hit the allocator.
fn extract(
    pool: &mut ChunkPool,
    inst: &Instance,
    fields: &[FieldId],
    offsets: &[u32],
) -> Vec<Chunk> {
    fields
        .iter()
        .map(|&f| match inst.column(f) {
            ColumnData::F64(col) => {
                let mut v = pool.take_f64(offsets.len());
                v.extend(offsets.iter().map(|&o| col[o as usize]));
                Chunk::F64(v)
            }
            ColumnData::I64(col) => {
                let mut v = pool.take_i64(offsets.len());
                v.extend(offsets.iter().map(|&o| col[o as usize]));
                Chunk::I64(v)
            }
        })
        .collect()
}

/// Returns a frame's payload buffers to the pool. Consumers recycle
/// what producers drew; symmetric halo traffic keeps both sides fed.
fn recycle_chunks(pool: &mut ChunkPool, chunks: Vec<Chunk>) {
    for chunk in chunks {
        match chunk {
            Chunk::F64(v) => pool.put_f64(v),
            Chunk::I64(v) => pool.put_i64(v),
        }
    }
}

/// Pushes one exchange frame without publishing (the caller flushes
/// once per statement). Translates transport errors into the exact
/// diagnostics the resilience suite pins: a dead consumer unwinds the
/// producer, a ring that stays full past the hang timeout is reported
/// as a likely deadlock. Returns whether the push had to wait.
fn push_frame(
    tx: &mut RingSender<CopyMsg>,
    msg: CopyMsg,
    shard: usize,
    dst: usize,
    copy: u32,
    seq: u32,
) -> bool {
    match tx.push(msg) {
        Ok(stalled) => stalled,
        Err(SendError::Closed(_)) => panic!(
            "copy channel closed: consumer shard {dst} died before receiving copy {copy} pair {seq} from shard {shard}"
        ),
        Err(SendError::Full(_)) => panic!(
            "likely deadlock: shard {shard} ring to shard {dst} stayed full for {:?} sending copy {copy} pair {seq}",
            tx.timeout
        ),
    }
}

/// Applies field payloads at precomputed offsets, either overwriting
/// or folding (§4.3 reduction copies).
fn apply(
    inst: &mut Instance,
    fields: &[FieldId],
    offsets: &[u32],
    chunks: &[Chunk],
    reduction: Option<ReductionOp>,
) {
    for (&f, chunk) in fields.iter().zip(chunks) {
        match chunk {
            Chunk::F64(vals) => {
                let fold = reduction.map(|op| move |a, b| op.fold(a, b));
                scatter(inst.f64_col_mut(f), offsets, vals.iter().copied(), fold)
            }
            Chunk::I64(vals) => {
                let fold = reduction.map(|op| move |a, b| op.fold_i64(a, b));
                scatter(inst.i64_col_mut(f), offsets, vals.iter().copied(), fold)
            }
        }
    }
}

/// A same-shard pair: gathers from `src` and scatters into `dst` in one
/// pass over the pair's offset tables, in the same element order and
/// with the same per-element fold a staged payload would have seen.
fn apply_local(
    src: &Instance,
    dst: &mut Instance,
    fields: &[FieldId],
    pair: &PairPlan,
    reduction: Option<ReductionOp>,
) {
    let gather = pair.src_offsets.iter().map(|&o| o as usize);
    for &f in fields {
        match src.column(f) {
            ColumnData::F64(from) => {
                let fold = reduction.map(|op| move |a, b| op.fold(a, b));
                let vals = gather.clone().map(|o| from[o]);
                scatter(dst.f64_col_mut(f), &pair.dst_offsets, vals, fold)
            }
            ColumnData::I64(from) => {
                let fold = reduction.map(|op| move |a, b| op.fold_i64(a, b));
                let vals = gather.clone().map(|o| from[o]);
                scatter(dst.i64_col_mut(f), &pair.dst_offsets, vals, fold)
            }
        }
    }
}

/// Writes `vals` to `col` at `offsets`, through `fold` when given.
fn scatter<T: Copy>(
    col: &mut [T],
    offsets: &[u32],
    vals: impl Iterator<Item = T>,
    fold: Option<impl Fn(T, T) -> T>,
) {
    match fold {
        None => {
            for (&o, v) in offsets.iter().zip(vals) {
                col[o as usize] = v;
            }
        }
        Some(fold) => {
            for (&o, v) in offsets.iter().zip(vals) {
                col[o as usize] = fold(col[o as usize], v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescue_slot_follows_the_membership() {
        let rescue = Rescue::new();
        let three = rescue.slot(0, 3);
        assert!(
            Arc::ptr_eq(&three, &rescue.slot(0, 3)),
            "same run, same slot"
        );
        // A run at another membership must not see the 3-shard slot:
        // resuming would index its per-shard parts out of bounds.
        let two = rescue.slot(0, 2);
        assert_eq!(two.num_shards(), 2);
        assert!(!Arc::ptr_eq(&three, &two));
        assert!(Arc::ptr_eq(&two, &rescue.slot(0, 2)));
    }
}
