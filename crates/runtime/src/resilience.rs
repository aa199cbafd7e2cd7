//! Checkpoint–restart, rescue and the integrity layer's boundary
//! protocol for the per-shard engine (`crate::spmd_exec`).
//!
//! ## Resilience (checkpoint–restart)
//!
//! With [`crate::RunOptions::resilience`] set, the same program runs
//! under a deterministic [`FaultPlan`]: every shard checkpoints its
//! instances and scalar environment at epoch boundaries (an *epoch* is
//! one outermost-loop iteration), and when the plan schedules a shard
//! crash, all shards roll back to the last checkpoint together and
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
//! One [`Checkpoint`] is the cut, whatever it is used for: the shard's
//! live rollback target, its offer into `run_failover`'s rescue slot,
//! one part of a committed cross-attempt set, and the input and output
//! of the failover remap. Its instances sit behind an `Arc`, so the
//! offer shares the copy the boundary just took and a resumed run keeps
//! the committed part it installed as its rollback target: a due
//! boundary copies a shard's instances at most once, and a resume
//! copies the committed part into the image once. When nothing else
//! holds the `Arc` (no rescue slot), the next checkpoint copies into
//! the same buffers.
//!
//! The fill is the first checkpoint. A run fills its shard's image
//! from the store and flushes it back only after every shard joined
//! (§3.1), so until the first launch, copy or temporary reset the store
//! holds exactly what the image holds. A checkpoint taken in that state
//! copies no instance: it names the store, and a rollback to it refills
//! the image along its memoized fill runs (resealing it under the
//! integrity layer). Every other checkpoint copies the instances, and
//! so does every checkpoint offered into a rescue slot, which must
//! outlive the store's contents.
//!
//! ## Integrity (silent-data-corruption detection and repair)
//!
//! With [`ResilienceOptions::integrity`] (or any nonzero
//! `FaultPlan::corrupt_rate`) the executor becomes end-to-end
//! checksummed. Every physical instance carries an FNV-1a *seal*,
//! established after the fill and re-established where the protocol
//! makes its contents authoritative — task completion (for every
//! argument held with a mutating privilege), copy application, and
//! reduction-temp reset — whenever a check can read that seal. Seals
//! are read only at boundaries that sweep, checkpoint or inject, so
//! the SPMD executor skips a write point's re-seal in an epoch of its
//! last outermost loop, with a flat body, unless the loop may go on
//! into a boundary that reads seals (`Resilience::reads_seals`): the
//! next iteration re-runs the same writes, and the one before each
//! such boundary re-seals everything. A sweep fail-stops on an
//! unsealed column, which would otherwise verify trivially. Every
//! exchange payload travels as a checksummed frame and every
//! collective contribution as a [`FramedScalar`](crate::FramedScalar);
//! both are verified *on receipt*, before the data can contaminate the
//! fold or the destination instance.
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
//!   bounded by [`MAX_ATTEMPTS`]; exhaustion is
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

use crate::metrics::{Counter, Timer};
use crate::pool::clone_insts_into;
use crate::spmd_exec::ShardExec;
use regent_cr::SlotInfo;
use regent_fault::{DeathCause, FaultPlan, PeerDeath, SHARD_LOSS_PREFIX};
use regent_region::Instance;
use regent_trace::{CorruptSite, EventKind};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Configuration of a resilient SPMD run: a deterministic fault plan
/// plus the checkpoint cadence: the plan's shard crashes, kills and
/// stalls and its corruption rate.
#[derive(Clone, Debug, Default)]
pub struct ResilienceOptions {
    /// Take a checkpoint every `checkpoint_interval` epochs (0 ⇒ only
    /// the mandatory epoch-0 checkpoint, so every crash replays from
    /// the start of the loop).
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
}

/// A shared record of shard deaths within one executor attempt, which
/// `run_failover` attaches to every attempt it runs. It reads the board
/// after catching the attempt's panic to learn the root cause without
/// parsing diagnostics: kill and hang causes are recorded *before* the
/// poison cascade starts, and a panicking shard's panic guard
/// (`crate::team`) records itself only when the board is still empty —
/// so the first entry is always the root cause, never a secondary
/// unwind.
#[derive(Debug, Default)]
pub(crate) struct DeathBoard {
    deaths: Mutex<Vec<PeerDeath>>,
}

impl DeathBoard {
    fn deaths(&self) -> std::sync::MutexGuard<'_, Vec<PeerDeath>> {
        self.deaths.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a death. At most one entry per shard is kept (a shard
    /// dies once; later reports for the same shard are echoes).
    pub(crate) fn record(&self, death: PeerDeath) {
        let mut g = self.deaths();
        if g.iter().all(|d| d.shard != death.shard) {
            g.push(death);
        }
    }

    /// The first recorded death — the root cause of the attempt's
    /// failure.
    pub(crate) fn first(&self) -> Option<PeerDeath> {
        self.deaths().first().copied()
    }

    /// True when nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.deaths().is_empty()
    }

    /// Clears the board for the next attempt.
    pub(crate) fn clear(&self) {
        self.deaths().clear();
    }
}

/// Transmissions one logical exchange payload or collective frame may
/// take under the integrity protocol: what a producer stops at, and
/// what the team driver sizes the exchange rings for when the fault
/// plan can corrupt a payload.
pub(crate) const MAX_ATTEMPTS: u32 = 10;

/// One shard's cut at an epoch boundary: everything it must restore to
/// replay deterministically from there. Trace identities and statistics
/// are deliberately excluded (see the module docs). Cloning shares the
/// instances.
#[derive(Clone, Default)]
pub(crate) struct Checkpoint {
    pub(crate) epoch: u64,
    /// The executor's resume position — the outermost-loop iteration
    /// for the SPMD executor, the log batch index for the shared-log
    /// executor.
    pub(crate) token: u64,
    /// Which outermost loop (1-based entry order) the token indexes
    /// into — an iteration number means nothing in a different loop.
    pub(crate) loop_seq: u64,
    pub(crate) env: Vec<f64>,
    /// The shard's instances, by slot of its layout; `None` when the
    /// checkpoint is the fill (the store holds them).
    pub(crate) insts: Option<Arc<Vec<Instance>>>,
}

impl Checkpoint {
    /// The copied instances of a committed part (a rescue offer is
    /// never the fill).
    pub(crate) fn instances(&self) -> &[Instance] {
        self.insts
            .as_deref()
            .expect("a committed checkpoint holds its instances")
    }

    fn at(&self) -> (u64, u64, u64) {
        (self.epoch, self.token, self.loop_seq)
    }
}

/// One replicated segment's slot of a [`Rescue`]: carries checkpoints
/// *across executor invocations*. Each shard offers its epoch-boundary
/// checkpoints into the slot, and a cut commits atomically once every
/// shard has offered it. A later attempt whose slot holds a committed
/// set (`run_failover` pre-seeds it with the remap of the failed
/// attempt's last one) fast-forwards every shard to the committed set
/// instead of recomputing from scratch — in-run rollback handles faults
/// the run survives, the rescue slot handles faults it does not.
///
/// One commit rule serves every failure (DESIGN, "One commit rule"):
/// each shard's uncommitted offers wait in a queue ordered by cut, and
/// an offer commits the newest cut every shard has offered — the
/// slowest shard's newest — dropping every queued offer at or before
/// it. A shard that runs ahead of a lagging peer therefore never tears
/// the cut the peer has yet to offer, and no shard waits at a boundary.
/// A retry starts from scratch only when a shard fails before every
/// shard has offered any cut, which is correct because execution is
/// deterministic.
pub(crate) struct RescueSlot {
    inner: Mutex<RescueInner>,
}

struct RescueInner {
    /// Each shard's uncommitted offers, oldest cut first.
    queues: Vec<VecDeque<Checkpoint>>,
    /// One part per shard, all at the same boundary.
    committed: Option<Arc<[Checkpoint]>>,
}

impl std::fmt::Debug for RescueSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.lock();
        f.debug_struct("RescueSlot")
            .field("shards", &g.queues.len())
            .field("committed_epoch", &g.committed.as_ref().map(|c| c[0].epoch))
            .finish()
    }
}

impl RescueSlot {
    /// A slot for `num_shards` shards, empty or pre-seeded with
    /// `committed` — the failover driver's remap of a dead shard's state
    /// onto the survivors, which the next attempt resumes from as if it
    /// had been committed natively.
    pub(crate) fn new(num_shards: usize, committed: Option<Arc<[Checkpoint]>>) -> RescueSlot {
        assert!(
            committed.as_ref().is_none_or(|c| c.len() == num_shards),
            "pre-seeded checkpoint must match the slot's membership"
        );
        RescueSlot {
            inner: Mutex::new(RescueInner {
                queues: vec![VecDeque::new(); num_shards],
                committed,
            }),
        }
    }

    /// The slot's state. Only an offer that breaks replication (an
    /// unknown shard, or shards offering different cuts) panics holding
    /// it, and that fails the attempt, so a poisoned lock is recovered.
    fn lock(&self) -> std::sync::MutexGuard<'_, RescueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The membership this slot collects offers from.
    fn num_shards(&self) -> usize {
        self.lock().queues.len()
    }

    /// The committed set a fresh attempt resumes from (left in place —
    /// a later attempt may need it again).
    pub(crate) fn committed(&self) -> Option<Arc<[Checkpoint]>> {
        self.lock().committed.clone()
    }

    /// One shard's boundary offer. Every shard offers the same cuts in
    /// the same order (replicated control flow), so the slowest shard's
    /// newest offer is the newest cut every shard has offered: that set
    /// commits, and every offer at or before it leaves the queues.
    fn offer(&self, shard: usize, part: Checkpoint) {
        let mut g = self.lock();
        assert!(shard < g.queues.len(), "rescue offer from unknown shard");
        let queue = &mut g.queues[shard];
        debug_assert!(
            queue.back().is_none_or(|last| last.at() < part.at()),
            "shard {shard} offered cuts out of order"
        );
        queue.push_back(part);
        let newest = |q: &VecDeque<Checkpoint>| q.back().map(Checkpoint::at);
        let Some(cut) = g.queues.iter().map(newest).min().flatten() else {
            return;
        };
        let parts = g.queues.iter_mut().map(|q| {
            let upto = q.iter().take_while(|p| p.at() <= cut).count();
            let part = q.drain(..upto).next_back();
            part.filter(|p| p.at() == cut)
                .expect("every shard offers the same cuts")
        });
        g.committed = Some(parts.collect());
    }
}

/// Cross-attempt checkpoints of one job: one slot (`RescueSlot`) per
/// replicated segment, keyed by segment index (a whole-program SPMD run
/// is segment 0). `run_failover` hands the same `Rescue` to every
/// attempt of a run, so each replicated segment resumes from its own
/// last committed checkpoint instead of recomputing from scratch.
/// (Sequential segments of a hybrid program re-run through the
/// interpreter; they are cheap and deterministic, so re-deriving their
/// scalars is free of risk.)
#[derive(Debug, Default)]
pub(crate) struct Rescue {
    slots: Mutex<Vec<Option<Arc<RescueSlot>>>>,
}

impl Rescue {
    fn slots(&self) -> std::sync::MutexGuard<'_, Vec<Option<Arc<RescueSlot>>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The slot for replicated segment `idx` of a `num_shards`-strong
    /// membership, created on first use. A slot left by a run at a
    /// different membership is replaced by an empty one: its
    /// checkpoint has one part per shard of *that* run, and starting
    /// from scratch is always correct.
    pub(crate) fn slot(&self, idx: usize, num_shards: usize) -> Arc<RescueSlot> {
        let mut g = self.slots();
        if g.len() <= idx {
            g.resize_with(idx + 1, || None);
        }
        match &g[idx] {
            Some(slot) if slot.num_shards() == num_shards => slot.clone(),
            _ => g[idx]
                .insert(Arc::new(RescueSlot::new(num_shards, None)))
                .clone(),
        }
    }

    /// Replaces the slot for replicated segment `idx` (used by the
    /// failover loop after remapping a segment's checkpoint onto a
    /// shrunken membership).
    pub(crate) fn replace_slot(&self, idx: usize, slot: RescueSlot) {
        let mut g = self.slots();
        if g.len() <= idx {
            g.resize_with(idx + 1, || None);
        }
        g[idx] = Some(Arc::new(slot));
    }

    /// The committed checkpoint of replicated segment `idx`, if any.
    pub(crate) fn committed(&self, idx: usize) -> Option<Arc<[Checkpoint]>> {
        self.slots().get(idx)?.as_ref()?.committed()
    }
}

/// Per-shard checkpoint–restart and integrity state for a resilient
/// run. Its boundary protocol borrows the shard's engine
/// ([`ShardExec`]): image, scalar environment, counters and recorders.
pub(crate) struct Resilience {
    /// Crash schedule as (epoch, shard), sorted; `cursor` advances once
    /// per event so each injected crash fires exactly once.
    crashes: Vec<(u64, u32)>,
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
    /// The death board of a `run_failover` attempt; set by the team
    /// driver from the run's context, like `rescue`.
    pub(crate) board: Option<Arc<DeathBoard>>,
    interval: u64,
    /// The live rollback target.
    snapshot: Option<Checkpoint>,
    /// The fault plan; its corruption predicates are consulted per
    /// exchange payload, per collective frame, and per epoch.
    pub(crate) plan: FaultPlan,
    /// Whether seals, framing, and verification sweeps are active.
    pub(crate) integrity: bool,
    /// Retransmission budget per logical payload ([`MAX_ATTEMPTS`]).
    pub(crate) retry_max: u32,
    /// Epochs below this already had their scheduled resident
    /// corruption handled — keeps the event from re-firing during the
    /// very replay it triggered.
    corrupt_handled: u64,
    /// Cross-attempt checkpoint slot boundary checkpoints are offered
    /// into; resolved from the run's `Rescue` by the team driver, like
    /// `resume`.
    pub(crate) rescue: Option<Arc<RescueSlot>>,
    /// Committed set this run fast-forwards to at the first boundary of
    /// its matching outermost loop; taken from the rescue slot on the
    /// driver thread before the shards spawn, so every shard resumes
    /// (or doesn't) identically.
    pub(crate) resume: Option<Arc<[Checkpoint]>>,
}

/// Epoch boundary of a run, called at the top of every outermost-loop
/// iteration: a rescue resume, the integrity
/// sweep, a checkpoint when one is due, and the scheduled kill, stall
/// and crash. `first` marks the first boundary of an outermost loop
/// (forces a fresh checkpoint so a rollback never crosses loop
/// boundaries); `token` is the executor's resume position stored in the
/// checkpoint — the loop iteration for the SPMD executor, the log batch
/// index for the shared-log executor. Returns `Some(restored_token)`
/// when the boundary resumed or rolled back — the caller continues from
/// that position; `None` otherwise (including for plain runs). Every
/// shard makes the same decision at the same epoch (replicated control
/// flow / a replicated log + shared plan), which is what keeps the
/// recovery coordination-free.
pub(crate) fn boundary(x: &mut ShardExec<'_>, first: bool, token: u64) -> Option<u64> {
    let mut r = x.resilience.take()?;
    let restored = r.boundary(x, first, token);
    x.resilience = Some(r);
    restored
}

impl Resilience {
    pub(crate) fn new(opts: &ResilienceOptions) -> Resilience {
        let plan = &opts.plan;
        Resilience {
            crashes: plan
                .crash_schedule()
                .into_iter()
                .map(|(s, e)| (e, s))
                .collect(),
            cursor: 0,
            kills: plan
                .kill_schedule()
                .into_iter()
                .map(|(s, e)| (e, s))
                .collect(),
            kill_cursor: 0,
            stalls: plan
                .stall_schedule()
                .into_iter()
                .map(|(s, e, ms)| (e, s, ms))
                .collect(),
            stall_cursor: 0,
            board: None,
            interval: opts.checkpoint_interval,
            snapshot: None,
            plan: plan.clone(),
            integrity: opts.integrity || plan.corrupt_rate > 0.0,
            retry_max: MAX_ATTEMPTS,
            corrupt_handled: 0,
            rescue: None,
            resume: None,
        }
    }

    /// Whether `epoch` checkpoints (and, under integrity, sweeps): the
    /// first boundary of each loop and every `interval` epochs after.
    fn due(&self, first: bool, epoch: u64) -> bool {
        first || (self.interval > 0 && epoch.is_multiple_of(self.interval))
    }

    /// Whether the boundary of `epoch`, past the first of its loop,
    /// reads seals: it sweeps and checkpoints, or the plan injects
    /// resident corruption there. The plan's predicate is pure, so a
    /// replay of the epoch before it re-seals as the first pass did.
    pub(crate) fn reads_seals(&self, epoch: u64, num_shards: usize) -> bool {
        self.due(false, epoch) || self.plan.resident_corruption(epoch, num_shards).is_some()
    }

    /// See [`boundary`]; `x.resilience` is this state, taken out for the
    /// call.
    fn boundary(&mut self, x: &mut ShardExec<'_>, first: bool, token: u64) -> Option<u64> {
        // Cross-attempt rescue resume: at the first boundary of the
        // outermost loop the committed checkpoint belongs to, install
        // its state and fast-forward to its iteration. The decision was
        // resolved once on the driver thread, so all shards agree.
        if first
            && self
                .resume
                .as_ref()
                .is_some_and(|parts| parts[0].loop_seq == x.outer_loop_seq)
        {
            let parts = self.resume.take().expect("checked above");
            return Some(self.install_resume(x, &parts[x.shard]));
        }
        // Integrity sweep first: inject and detect resident corruption
        // *before* the checkpoint, so a checkpoint can never capture
        // corrupted state.
        if let Some(restored) = self.integrity_boundary(x, first) {
            return Some(restored);
        }
        let epoch = x.epoch;
        // Not twice at the same epoch: a rollback lands us back on a
        // boundary whose checkpoint is already live.
        if self.due(first, epoch) && self.snapshot.as_ref().is_none_or(|s| s.epoch != epoch) {
            self.checkpoint(x, token);
        }
        // Injected shard kill: fires after this boundary's checkpoint,
        // if one was due, and before the survivable crash schedule. Every
        // shard advances the cursor (the schedule is replicated); only
        // the victim dies. The survivors then unwind through the poison
        // cascade, and the failover driver reconstructs the victim's
        // state at N-1 from the newest cut every shard offered.
        if let Some(&(e, victim)) = self.kills.get(self.kill_cursor) {
            if e == epoch {
                self.kill_cursor += 1;
                if victim as usize == x.shard {
                    let death = PeerDeath {
                        shard: victim,
                        cause: DeathCause::Killed { epoch },
                    };
                    if let Some(board) = &self.board {
                        board.record(death);
                    }
                    panic!("{SHARD_LOSS_PREFIX}: {death}");
                }
            }
        }
        // Injected shard stall: the victim sleeps past the hang timeout
        // and then continues — it never panics on its own. Its
        // consumers' bounded receives time out, blame the producer as
        // hung on the death board, and unwind; the woken victim then
        // dies on the poisoned barrier or sealed rings.
        if let Some(&(e, victim, ms)) = self.stalls.get(self.stall_cursor) {
            if e == epoch {
                self.stall_cursor += 1;
                if victim as usize == x.shard {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
        }
        let (e, crashed) = *self.crashes.get(self.cursor)?;
        if e != epoch {
            return None;
        }
        self.cursor += 1;
        if crashed as usize == x.shard {
            x.tb.instant(EventKind::ShardCrash {
                shard: crashed,
                epoch,
            });
        }
        Some(self.rollback(x, epoch))
    }

    /// Integrity work at an epoch boundary: inject any scheduled
    /// resident corruption, sweep every instance seal, and escalate a
    /// detected resident corruption to a coordinated rollback.
    /// Localized repair is impossible for resident state — no peer
    /// holds a redundant copy — so the checkpoint *is* the redundancy.
    /// Returns `Some(restored_token)` when the boundary rolled back.
    fn integrity_boundary(&mut self, x: &mut ShardExec<'_>, first: bool) -> Option<u64> {
        if !self.integrity {
            return None;
        }
        let epoch = x.epoch;
        // Resident corruption only fires past the first boundary of a
        // loop: `!first` guarantees the live checkpoint belongs to the
        // current loop, so the restored resume token is valid here.
        let decision = if !first && epoch >= self.corrupt_handled {
            self.plan.resident_corruption(epoch, x.spmd.num_shards)
        } else {
            None
        };
        let Some((victim, entropy)) = decision else {
            // Steady-state sweep — the measurable cost of the
            // integrity layer at corruption rate 0. The sweep runs on
            // checkpoint-due boundaries only: the property it protects
            // is that a checkpoint never captures corrupted state, and
            // sweeping the epochs in between buys no additional
            // guarantee (scheduled faults verify on their own epoch in
            // the injection branch below) — it only multiplies the
            // rate-0 cost by the checkpoint interval. A loop's first
            // boundary over an image nothing has written since the fill
            // sealed it (`as_filled`) skips the sweep: it would hash
            // every column a second time to compare against hashes of
            // the same bytes, and the injector never fires here.
            if self.due(first, epoch) && !(first && x.as_filled) {
                verify_clean(x);
            }
            return None;
        };
        // Every shard reaches this decision independently (pure shared
        // predicate), so the rollback needs no recovery messages.
        self.corrupt_handled = epoch + 1;
        if victim as usize == x.shard {
            sweep(x.shard, &x.data.insts, &x.layout.slots);
            let injected = inject_resident(&mut x.data.insts, entropy);
            let detected = x.data.insts.iter().filter(|i| !i.verify_seal()).count();
            assert_eq!(
                detected,
                usize::from(injected),
                "shard {}: resident corruption escaped seal verification",
                x.shard
            );
            if injected {
                x.stats.corruptions_injected += 1;
                x.stats.corruptions_detected += 1;
                x.tb.instant(EventKind::CorruptDetected {
                    site: CorruptSite::Resident,
                    id: 0,
                    sub: 0,
                    epoch,
                });
                x.stats.corruptions_escalated += 1;
                x.tb.instant(EventKind::CorruptEscalated {
                    shard: victim,
                    epoch,
                });
            }
        } else {
            verify_clean(x);
        }
        Some(self.rollback(x, epoch))
    }

    /// Takes the boundary's checkpoint and offers it into the rescue
    /// slot, if one is attached.
    fn checkpoint(&mut self, x: &mut ShardExec<'_>, token: u64) {
        let epoch = x.epoch;
        let t0 = x.tb.now();
        let m0 = x.mx.start();
        // A rescue offer outlives the store's contents, so under a slot
        // even the fill is copied.
        let insts = (!x.as_filled || self.rescue.is_some()).then_some(&x.data.insts[..]);
        self.save(x.shard, (epoch, token, x.outer_loop_seq), &x.env, insts);
        x.stats.checkpoints += 1;
        x.mx.incr(Counter::Checkpoints);
        x.mx.record_since(m0, Timer::CheckpointNs);
        x.tb.span_since(t0, EventKind::CheckpointSave { epoch });
    }

    /// Makes the cut `(epoch, token, loop_seq)` of `env` and `insts`
    /// (`None`: the fill) the live rollback target, and offers the same
    /// checkpoint into the rescue slot. The instances are copied once:
    /// into the previous checkpoint's buffers when nothing else holds
    /// them, into a fresh allocation when a rescue slot still does.
    fn save(
        &mut self,
        shard: usize,
        (epoch, token, loop_seq): (u64, u64, u64),
        env: &[f64],
        insts: Option<&[Instance]>,
    ) {
        let mut snap = self.snapshot.take().unwrap_or_default();
        let reuse = snap.insts.take();
        snap.insts = insts.map(|src| {
            let mut buf = reuse.unwrap_or_default();
            match Arc::get_mut(&mut buf) {
                Some(dst) => clone_insts_into(src, dst),
                None => buf = Arc::new(src.to_vec()),
            }
            buf
        });
        (snap.epoch, snap.token, snap.loop_seq) = (epoch, token, loop_seq);
        snap.env.clear();
        snap.env.extend_from_slice(env);
        if let Some(slot) = &self.rescue {
            slot.offer(shard, snap.clone());
        }
        self.snapshot = Some(snap);
    }

    /// Installs this shard's part of a committed rescue checkpoint at
    /// the start of a fresh attempt: region instances, scalar
    /// environment, and epoch jump to the checkpoint, the part itself
    /// becomes the live rollback target (so later in-run rollbacks
    /// restore to it), and fault events from epochs at or before the
    /// checkpoint are skipped — they already fired in the attempt that
    /// produced it. Returns the resume token the caller fast-forwards
    /// to. Work counters are *not* suppressed: this run only executes
    /// (and only counts) the epochs after the checkpoint.
    fn install_resume(&mut self, x: &mut ShardExec<'_>, part: &Checkpoint) -> u64 {
        // A checkpoint part is laid out by the same slots as the image
        // (failover's remap rebuilds it for a shrunken membership).
        clone_insts_into(part.instances(), &mut x.data.insts);
        x.as_filled = false;
        x.env.clone_from(&part.env);
        x.epoch = part.epoch;
        self.snapshot = Some(part.clone());
        let fired = |at: u64| at <= part.epoch;
        self.cursor = self
            .cursor
            .max(self.crashes.partition_point(|e| fired(e.0)));
        self.kill_cursor = self
            .kill_cursor
            .max(self.kills.partition_point(|e| fired(e.0)));
        self.stall_cursor = self
            .stall_cursor
            .max(self.stalls.partition_point(|e| fired(e.0)));
        self.corrupt_handled = self.corrupt_handled.max(part.epoch + 1);
        x.tb.instant(EventKind::Mark {
            name: "rescue-resume",
        });
        part.token
    }

    /// Coordinated rollback to the live checkpoint: restores instances
    /// (refilled from the store when the checkpoint is the fill, copied
    /// back otherwise), scalars, and the epoch counter, suppresses
    /// useful-work stats for the replayed range, and returns the resume
    /// token the checkpoint stored (loop iteration or log batch index).
    /// The checkpoint stays the rollback target until the next one.
    fn rollback(&mut self, x: &mut ShardExec<'_>, epoch: u64) -> u64 {
        let snap = self
            .snapshot
            .as_ref()
            .expect("rollback before any checkpoint (epoch 0 always checkpoints)");
        let t0 = x.tb.now();
        let m0 = x.mx.start();
        match &snap.insts {
            Some(insts) => clone_insts_into(insts, &mut x.data.insts),
            None => {
                x.data.fill(x.spmd, x.layout, x.store);
                if self.integrity {
                    x.seal_image();
                }
                x.as_filled = true;
            }
        }
        x.env.clone_from(&snap.env);
        x.epoch = snap.epoch;
        // Everything below the rolled-back epoch was already counted.
        x.replay_until = x.replay_until.max(epoch);
        x.stats.restores += 1;
        x.stats.epochs_replayed += epoch - snap.epoch;
        x.mx.incr(Counter::Restores);
        x.mx.record_since(m0, Timer::RestoreNs);
        x.tb.span_since(
            t0,
            EventKind::CheckpointRestore {
                epoch,
                to_epoch: snap.epoch,
            },
        );
        snap.token
    }
}

/// Verifies every resident instance seal, panicking on an unsealed
/// column or on a mismatch the fault plan did not predict — that is
/// genuine memory corruption or a missed re-seal, and either must
/// fail-stop.
fn verify_clean(x: &mut ShardExec<'_>) {
    let m0 = x.mx.start();
    sweep(x.shard, &x.data.insts, &x.layout.slots);
    x.mx.record_since(m0, Timer::IntegrityNs);
}

/// The sweep of [`verify_clean`] over `insts`, laid out by `slots`.
/// An unsealed column verifies trivially, so a sweep that met one
/// would pass whatever the column holds: it fail-stops on that first
/// (a write point skipped a re-seal this boundary reads).
fn sweep(shard: usize, insts: &[Instance], slots: &[SlotInfo]) {
    for (inst, info) in insts.iter().zip(slots) {
        assert!(
            inst.seal_value().is_some(),
            "shard {shard}: instance {:?} holds an unsealed column at a boundary \
             that reads its seals (missed re-seal)",
            info.key
        );
        assert!(
            inst.verify_seal(),
            "shard {shard}: instance {:?} failed seal verification with no corruption \
             scheduled (memory fault or missed re-seal)",
            info.key
        );
    }
}

/// Flips one bit in one entropy-selected resident instance without
/// touching its seal — the silent corruption the verification sweep
/// must catch. Returns `false` when the shard holds no corruptible
/// (non-empty) instance.
fn inject_resident(insts: &mut [Instance], entropy: u64) -> bool {
    let n = insts.len();
    let start = (entropy % n.max(1) as u64) as usize;
    (0..n).any(|i| insts[(start + i) % n].corrupt_bit_silently(entropy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescue_slot_follows_the_membership() {
        let rescue = Rescue::default();
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

    #[test]
    #[should_panic(expected = "holds an unsealed column")]
    fn a_sweep_over_an_unsealed_column_panics() {
        use regent_cr::InstKey;
        use regent_region::{Domain, FieldId, FieldSpace, FieldType, RegionId};
        let fields = FieldSpace::of(&[("x", FieldType::F64), ("n", FieldType::I64)]);
        let mut insts: Vec<Instance> = (3..5)
            .map(|n| Instance::new(Domain::range(n), &fields))
            .collect();
        let slots: Vec<SlotInfo> = (0..insts.len() as u32)
            .map(|s| SlotInfo {
                key: InstKey::UseWhole(0, s),
                region: RegionId(0),
            })
            .collect();
        insts.iter_mut().for_each(Instance::seal);
        sweep(0, &insts, &slots);
        // Unsealed as a skipped re-seal leaves it: the contents are
        // untouched, so only the seal check can fail.
        insts[1].unseal_fields(&[FieldId(1)]);
        assert!(
            insts[1].verify_seal(),
            "an unsealed column verifies trivially"
        );
        sweep(0, &insts, &slots);
    }

    /// A cut of one shard: epoch, token and loop as an epoch-boundary
    /// checkpoint of the first loop stores them.
    fn cut(epoch: u64) -> Checkpoint {
        Checkpoint {
            epoch,
            token: epoch,
            loop_seq: 1,
            ..Checkpoint::default()
        }
    }

    fn queued(slot: &RescueSlot, shard: usize) -> Vec<u64> {
        slot.lock().queues[shard].iter().map(|c| c.epoch).collect()
    }

    #[test]
    fn an_offer_commits_the_newest_cut_every_shard_has_offered() {
        let slot = RescueSlot::new(2, None);
        // Shard 0 runs two checkpoint intervals ahead of shard 1.
        for epoch in [0, 2, 4] {
            slot.offer(0, cut(epoch));
        }
        assert!(slot.committed().is_none(), "shard 1 offered nothing");
        assert_eq!(queued(&slot, 0), [0, 2, 4]);

        let committed = |slot: &RescueSlot| -> Vec<(usize, u64)> {
            let parts = slot.committed().expect("a cut committed");
            parts.iter().map(|p| p.epoch).enumerate().collect()
        };
        slot.offer(1, cut(0));
        assert_eq!(committed(&slot), [(0, 0), (1, 0)]);
        assert_eq!(queued(&slot, 0), [2, 4]);
        assert!(queued(&slot, 1).is_empty());

        slot.offer(1, cut(2));
        assert_eq!(committed(&slot), [(0, 2), (1, 2)]);
        assert_eq!(queued(&slot, 0), [4]);
        assert!(queued(&slot, 1).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "offered cuts out of order")]
    fn a_shard_offers_its_cuts_in_order() {
        let slot = RescueSlot::new(2, None);
        slot.offer(0, cut(2));
        slot.offer(0, cut(0));
    }

    fn live(r: &Resilience) -> &Arc<Vec<Instance>> {
        let snap = r.snapshot.as_ref().expect("a checkpoint was taken");
        snap.insts.as_ref().expect("the instances were copied")
    }

    #[test]
    fn a_due_boundary_copies_the_instances_once() {
        use regent_region::{Domain, FieldSpace, FieldType};
        let fields = FieldSpace::of(&[("x", FieldType::F64)]);
        let image: Vec<Instance> = (4..7)
            .map(|n| Instance::new(Domain::range(n), &fields))
            .collect();

        // With a rescue slot attached, the offer is the live rollback
        // target itself, at every boundary.
        let mut r = Resilience::new(&ResilienceOptions::default());
        let slot = Arc::new(RescueSlot::new(2, None));
        r.rescue = Some(Arc::clone(&slot));
        for epoch in 0..3 {
            r.save(0, (epoch, epoch, 1), &[1.0], Some(&image));
            let g = slot.lock();
            let offered = g.queues[0].back().expect("shard 0 offered");
            let offered = offered
                .insts
                .as_ref()
                .expect("an offer holds its instances");
            assert!(Arc::ptr_eq(live(&r), offered), "epoch {epoch}: two copies");
        }
        assert!(slot.committed().is_none(), "shard 1 never offered");

        // Without one, nothing else holds the checkpoint, so the next
        // one copies into the same buffers.
        let mut r = Resilience::new(&ResilienceOptions::default());
        r.save(0, (1, 1, 1), &[1.0], Some(&image));
        assert_eq!(Arc::strong_count(live(&r)), 1);
        let first = Arc::as_ptr(live(&r));
        r.save(0, (2, 2, 1), &[1.0], Some(&image));
        assert_eq!(Arc::as_ptr(live(&r)), first, "buffers not reused");
        assert_eq!(live(&r).len(), image.len());
    }
}
