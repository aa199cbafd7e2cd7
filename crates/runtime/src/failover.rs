//! Live shard failover: elastic membership with survivor-side
//! reconstruction.
//!
//! The in-run resilience machinery (`resilience`'s coordinated
//! replicated rollback) recovers from faults every shard *survives*.
//! This module — one loop, [`run_failover`], for every SPMD-family
//! strategy — recovers from faults that take a shard's **thread**
//! down — an injected membership kill ([`regent_fault::FaultEvent::ShardKill`]),
//! a genuine panic, or a hang past the run's
//! [`hang_timeout`](RunOptions::hang_timeout). The protocol, phase by phase:
//!
//! 1. **Detection.** The dying shard's panic guard (`crate::team`)
//!    poisons the shared barrier and collective with a structured
//!    [`PeerDeath`] cause, and its senders drop (sealing its SPSC
//!    rings), so every survivor unwinds promptly — blocked waiters see
//!    the poison, blocked receivers see `Disconnected`, and a
//!    stalled-but-alive peer is caught by the bounded `recv_timeout`,
//!    which blames the *producer* on the shared [`DeathBoard`].
//! 2. **Agreement.** Control flow is replicated, so no election is
//!    needed: the failover loop catches the attempt's unwind, reads
//!    the board's first entry as the root cause, and the last
//!    *committed* checkpoint of each replicated segment's rescue slot —
//!    by construction a consistent cut every shard offered identically
//!    — is the agreed resume point.
//! 3. **Reconstruction.** The committed checkpoint holds every shard's
//!    instances, including the victim's. `remap_resume_state`
//!    redistributes them onto the shrunken membership: partition
//!    instances move to each color's new block owner, whole-region
//!    replicas and reduction temporaries are cloned from a survivor
//!    (replicas are bit-identical at boundaries; temps are dead there —
//!    a `ResetTemp` precedes every use).
//! 4. **Resume.** The program is re-executed at `N−1` shards — the
//!    compiled body is shard-agnostic (all placement flows through
//!    `owned_colors` / `block_range` / `owner_of`), so mutating
//!    `num_shards` re-plans the mesh, the barrier, and (its cached
//!    schedule being keyed on the shard count) the exchange — and the
//!    pre-seeded rescue slot fast-forwards every survivor to the
//!    checkpoint epoch. Results are **bit-identical** to an undisturbed
//!    run: element-wise reductions flow through temporaries applied in
//!    deterministic global order, and scalar collectives fold in shard
//!    order over block-owned contributions, both independent of the
//!    shard count.
//!
//! Failed attempts record into a private inner tracer that is simply
//! dropped; only the successful attempt's trace is absorbed into the
//! caller's, plus `PeerDeath` / `MembershipChange` /
//! `FailoverReconstruct` events on a dedicated `failover` track the
//! Spy validator ignores — so a recovered run's trace certifies like
//! any other.
//!
//! The loop sees every program as a list of replicated segments, each
//! with at most one committed rescue slot: an `SpmdProgram` is one
//! segment; a hybrid program carries the shrunken membership across
//! *all* its replicated segments and remaps each segment's committed
//! checkpoint individually; the shared-log strategy is one segment
//! with *no* resumable slot (its sequencer cannot re-derive `AllReduce`
//! feedback it already consumed), so it re-executes from scratch at the
//! shrunken membership.
//!
//! [`FailoverOptions::max_failovers`] bounds the membership changes
//! (default 1); a loss beyond the budget (or below one
//! shard) fail-stops with [`FAILOVER_EXHAUSTED_PREFIX`], which
//! [`regent_fault::classify_failure`] maps to a permanent failure.

use crate::metrics::{self, flight, Counter, Timer};
use crate::plan::InstKey;
use crate::resilience::{Checkpoint, DeathBoard, RescueSlot};
use crate::run::{run_ctx, Compiled, RunCtx, RunOptions, RunResult};
use crate::team::panic_message;
use regent_cr::hybrid::{HybridProgram, Segment};
use regent_cr::{shard_layouts, MembershipRemap, ShardLayout, SlotInfo, SpmdProgram};
use regent_fault::{
    classify_failure, DeathCause, FailureClass, FaultEvent, FaultPlan, PeerDeath,
    FAILOVER_EXHAUSTED_PREFIX,
};
use regent_ir::Store;
use regent_region::Instance;
use regent_trace::{EventKind, Tracer};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Configuration of [`run_failover`].
#[derive(Clone, Copy, Debug)]
pub struct FailoverOptions {
    /// Maximum membership changes (shard losses survived) before the
    /// run fail-stops with [`FAILOVER_EXHAUSTED_PREFIX`].
    pub max_failovers: u32,
    /// Smallest membership the run may shrink to.
    pub min_shards: usize,
}

impl Default for FailoverOptions {
    fn default() -> FailoverOptions {
        FailoverOptions {
            max_failovers: 1,
            min_shards: 1,
        }
    }
}

/// Result of a failover-supervised execution.
pub struct Failover {
    /// The successful attempt's run result.
    pub run: RunResult,
    /// Executor attempts launched (1 ⇒ nothing died).
    pub attempts: u32,
    /// Shards in the final membership.
    pub final_shards: usize,
    /// Root-cause deaths survived, in order.
    pub deaths: Vec<PeerDeath>,
}

/// `(cause code, epoch)` for the trace convention (0 killed /
/// 1 panicked / 2 hung; epoch 0 when unknown).
fn cause_code(cause: DeathCause) -> (u32, u64) {
    match cause {
        DeathCause::Killed { epoch } => (0, epoch),
        DeathCause::Panicked => (1, 0),
        DeathCause::Hung => (2, 0),
    }
}

/// Remaps a fault plan's scheduled events onto a shrunken membership:
/// shard ids above the dead shard shift down by one (they keep
/// targeting the same logical survivor), events targeting the dead
/// shard are dropped (its thread is gone), and the kill that just
/// `fired` is removed so it cannot fire again on the re-run.
fn renumber_plan(
    plan: &FaultPlan,
    remap: &MembershipRemap,
    fired: Option<(u32, u64)>,
) -> FaultPlan {
    let mut renumbered = plan.clone();
    renumbered.events = plan
        .events
        .iter()
        .filter_map(|e| match *e {
            FaultEvent::ShardKill { shard, epoch } => {
                if fired == Some((shard, epoch)) {
                    return None;
                }
                remap.new_id(shard as usize).map(|s| FaultEvent::ShardKill {
                    shard: s as u32,
                    epoch,
                })
            }
            FaultEvent::ShardCrash { shard, epoch } => {
                remap
                    .new_id(shard as usize)
                    .map(|s| FaultEvent::ShardCrash {
                        shard: s as u32,
                        epoch,
                    })
            }
            // A stalled shard is the blamed victim: shrink drops its
            // stall with it; stalls on survivors retarget like kills.
            FaultEvent::ShardStall { shard, epoch, ms } => {
                remap
                    .new_id(shard as usize)
                    .map(|s| FaultEvent::ShardStall {
                        shard: s as u32,
                        epoch,
                        ms,
                    })
            }
            other => Some(other),
        })
        .collect();
    renumbered
}

/// Survivor-side reconstruction: redistributes a committed checkpoint
/// onto the shrunken membership. `old` holds the layouts the checkpoint
/// was taken under; `spmd` must already carry the *new* `num_shards`,
/// so its layouts ([`shard_layouts`], the walk the image builder
/// follows) say which instance each survivor holds in which slot — the
/// reconstructed parts are exactly what a native `N−1` checkpoint would
/// contain. Instances are looked up by key here and nowhere else:
///
/// * partition instances (`UsePart` / `TempPart`) keep their color key
///   and move to the color's new block owner;
/// * whole-region replicas (`UseWhole`) are cloned from the surviving
///   old shard that maps to each new id — replicas are bit-identical
///   at epoch boundaries, so any survivor's copy is authoritative;
/// * whole-region reduction temporaries (`TempWhole`) likewise — temps
///   are dead at boundaries (a `ResetTemp` precedes every use), so the
///   cloned contents are never read before being reset.
///
/// Scalars, epoch, and resume token are membership-independent and
/// carry over unchanged. Returns one checkpoint per survivor and the
/// number of instances placed.
pub(crate) fn remap_resume_state(
    parts: &[Checkpoint],
    old: &[ShardLayout],
    spmd: &SpmdProgram,
    remap: &MembershipRemap,
) -> (Vec<Checkpoint>, u32) {
    debug_assert_eq!(spmd.num_shards, remap.new_shards);
    debug_assert_eq!(parts.len(), remap.old_shards);
    let merged: HashMap<InstKey, &Instance> = old
        .iter()
        .zip(parts)
        .flat_map(|(layout, part)| {
            layout
                .slots
                .iter()
                .map(|info| info.key)
                .zip(part.instances())
        })
        .collect();
    let at = &parts[0];
    let mut insts = 0u32;
    let remapped = shard_layouts(spmd)
        .iter()
        .map(|layout| {
            insts += layout.slots.len() as u32;
            let fetch = |info: &SlotInfo| -> Instance {
                let old_shard = |s: u32| remap.old_id(s as usize) as u32;
                let key = match info.key {
                    InstKey::UseWhole(u, s) => InstKey::UseWhole(u, old_shard(s)),
                    InstKey::TempWhole(t, s) => InstKey::TempWhole(t, old_shard(s)),
                    part => part,
                };
                let inst = merged.get(&key).unwrap_or_else(|| {
                    panic!("checkpoint missing instance {key:?} during failover remap")
                });
                (*inst).clone()
            };
            Checkpoint {
                insts: Some(Arc::new(layout.slots.iter().map(fetch).collect())),
                env: at.env.clone(),
                ..*at
            }
        })
        .collect();
    (remapped, insts)
}

/// One caught attempt failure, classified: either the loss to fail
/// over from, or a panic payload to propagate unchanged.
struct CaughtLoss {
    death: PeerDeath,
    msg: String,
}

/// Classifies a caught attempt panic. Failures with no identified
/// victim (driver bugs, defects outside any shard) and cooperative
/// cancellations propagate unchanged — failover must never swallow a
/// supervisor's cancel or retry a run that did not lose a shard.
fn catch_loss(
    board: &DeathBoard,
    payload: Box<dyn std::any::Any + Send>,
) -> Result<CaughtLoss, Box<dyn std::any::Any + Send>> {
    let msg = panic_message(&*payload);
    if matches!(classify_failure(&msg), FailureClass::Cancelled) {
        return Err(payload);
    }
    match board.first() {
        Some(death) => Ok(CaughtLoss { death, msg }),
        None => Err(payload),
    }
}

/// Plans the membership shrink for a caught loss, or fail-stops when
/// the loss budget (or the membership floor) is exhausted. `losses` is
/// the count *including* this loss.
fn plan_shrink(
    loss: &CaughtLoss,
    num_shards: usize,
    fo: &FailoverOptions,
    losses: u32,
) -> MembershipRemap {
    let remap = MembershipRemap::shrink(num_shards, loss.death.shard);
    let viable = remap.is_some_and(|r| r.new_shards >= fo.min_shards.max(1));
    if losses > fo.max_failovers || !viable {
        // The fail-stop black box: dump the flight ring *before* the
        // unwind. Only a Mark is noted for this final loss — its
        // PeerDeath is deliberately NOT (the pair is noted only once a
        // shrink commits), so the dumped failover record stays
        // coherent (deaths == membership changes) and certifiable.
        flight().note(
            "flight",
            EventKind::Mark {
                name: "failover_exhausted",
            },
        );
        flight().dump("failover-exhausted", Some(&metrics::global().to_json()));
        panic!(
            "{FAILOVER_EXHAUSTED_PREFIX}: cannot survive loss {losses} ({}) with budget {} and \
             membership floor {} at {num_shards} shards: {}",
            loss.death,
            fo.max_failovers,
            fo.min_shards.max(1),
            loss.msg
        );
    }
    remap.expect("viability checked above")
}

/// Notes a committed shrink's `PeerDeath`/`MembershipChange` pair on
/// the flight recorder and dumps the black box (`REGENT_FLIGHT_DIR`).
/// Called only after [`plan_shrink`] commits, so flight dumps always
/// pair deaths with membership changes — the coherence the profiler's
/// certification demands.
fn note_failover_flight(death: EventKind, membership: EventKind) {
    let f = flight();
    if !f.is_enabled() {
        return;
    }
    f.note("failover", death);
    f.note("failover", membership);
    f.dump("failover", Some(&metrics::global().to_json()));
}

impl Compiled<&mut SpmdProgram, &mut HybridProgram> {
    fn shared(&self) -> Compiled<&SpmdProgram, &HybridProgram> {
        match self {
            Compiled::Spmd(spmd) => Compiled::Spmd(spmd),
            Compiled::Log(spmd) => Compiled::Log(spmd),
            Compiled::Hybrid(hybrid) => Compiled::Hybrid(hybrid),
        }
    }

    /// The program's replicated segments in rescue-slot order: the
    /// program itself for the whole-program strategies.
    fn replicated_mut(&mut self) -> Vec<&mut SpmdProgram> {
        match self {
            Compiled::Spmd(spmd) | Compiled::Log(spmd) => vec![spmd],
            Compiled::Hybrid(hybrid) => hybrid
                .segments
                .iter_mut()
                .filter_map(|seg| match seg {
                    Segment::Replicated(spmd) => Some(spmd),
                    Segment::Sequential(_) => None,
                })
                .collect(),
        }
    }
}

/// [`run`](crate::run()) with live shard failover (see the module docs):
/// shard losses up to the budget shrink the membership — of **every**
/// replicated segment, since a dead thread stays dead for the rest of
/// the job — and resume each segment from its last committed
/// checkpoint instead of failing the run, so already-completed segments
/// fast-forward through their tails. The log strategy has no resumable
/// slot and re-executes from scratch at the shrunken membership. Every
/// replicated segment's `num_shards` is left at the final membership.
///
/// With an enabled tracer the caller sees the successful attempt's
/// tracks plus `PeerDeath` / `FailoverReconstruct` / `MembershipChange`
/// events on the `failover` track.
pub fn run_failover(
    mut compiled: Compiled<&mut SpmdProgram, &mut HybridProgram>,
    store: &mut Store,
    opts: &RunOptions,
    fo: &FailoverOptions,
) -> Failover {
    let board = Arc::new(DeathBoard::new());
    let mut res = opts.resilience.clone().unwrap_or_default();
    res.board = Some(Arc::clone(&board));
    let rescue = match compiled {
        // No resume path: offering snapshots into a slot nobody can
        // resume from would be pure checkpoint overhead.
        Compiled::Log(_) => None,
        _ => Some(res.rescue.take().unwrap_or_default()),
    };
    res.rescue = rescue.clone();
    let base = opts.ctx();
    let mut membership = compiled
        .replicated_mut()
        .first()
        .map_or(1, |spmd| spmd.num_shards);
    let mut mx = metrics::global().handle("failover");
    let mut fb = opts.tracer.buffer("failover");
    let mut deaths: Vec<PeerDeath> = Vec::new();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        board.clear();
        mx.incr(Counter::FailoverAttempts);
        // Each attempt records into a private tracer: a failed
        // attempt's trace is discarded wholesale (dropped), so the
        // caller only ever sees a certifiable successful execution.
        let inner = if opts.tracer.is_enabled() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let ctx = RunCtx {
            tracer: &inner,
            resilience: Some(&res),
            ..base
        };
        let payload =
            match catch_unwind(AssertUnwindSafe(|| run_ctx(compiled.shared(), store, ctx))) {
                Ok(run) => {
                    opts.tracer.absorb(inner.take());
                    return Failover {
                        run,
                        attempts,
                        final_shards: membership,
                        deaths,
                    };
                }
                Err(payload) => payload,
            };
        let m0 = mx.start();
        let loss = match catch_loss(&board, payload) {
            Ok(loss) => loss,
            Err(payload) => resume_unwind(payload),
        };
        mx.incr(Counter::PeerDeaths);
        deaths.push(loss.death);
        let remap = plan_shrink(&loss, membership, fo, deaths.len() as u32);
        let (code, kill_epoch) = cause_code(loss.death.cause);
        let death_event = EventKind::PeerDeath {
            shard: loss.death.shard,
            cause: code,
            epoch: kill_epoch,
        };
        fb.instant(death_event);
        membership = remap.new_shards;
        // Agreement: each segment's last committed checkpoint (a
        // consistent cut every shard offered identically) is its resume
        // point, remapped onto the survivors; a segment with none
        // committed (the failed attempt never reached it, or the
        // strategy has no slot) re-executes from scratch at the
        // shrunken membership — still bit-identical, by determinism.
        let mut resume_epoch = 0;
        for (idx, spmd) in compiled.replicated_mut().into_iter().enumerate() {
            let committed = rescue.as_ref().and_then(|r| r.committed(idx));
            // The layouts the checkpoint was taken under, while the
            // program still carries that membership.
            let old_layouts = committed.as_ref().map(|_| shard_layouts(spmd));
            spmd.num_shards = membership;
            let Some(rescue) = &rescue else { continue };
            let slot = match committed.zip(old_layouts) {
                Some((parts, old_layouts)) => {
                    let r0 = mx.start();
                    let t0 = fb.now();
                    let (remapped, insts) = remap_resume_state(&parts, &old_layouts, spmd, &remap);
                    mx.record_since(r0, Timer::FailoverReconstructNs);
                    fb.span_since(
                        t0,
                        EventKind::FailoverReconstruct {
                            to_shards: remap.new_shards as u32,
                            insts,
                            epoch: parts[0].epoch,
                        },
                    );
                    resume_epoch = resume_epoch.max(parts[0].epoch);
                    RescueSlot::new(membership, Some(remapped.into()))
                }
                None => RescueSlot::new(membership, None),
            };
            rescue.replace_slot(idx, slot);
        }
        let membership_event = EventKind::MembershipChange {
            from_shards: remap.old_shards as u32,
            to_shards: remap.new_shards as u32,
            dead_shard: loss.death.shard,
            epoch: resume_epoch,
        };
        fb.instant(membership_event);
        note_failover_flight(death_event, membership_event);
        let fired = match loss.death.cause {
            DeathCause::Killed { epoch } => Some((loss.death.shard, epoch)),
            _ => None,
        };
        res.plan = renumber_plan(&res.plan, &remap, fired);
        mx.incr(Counter::MembershipShrinks);
        mx.record_since(m0, Timer::MttrNs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumber_drops_fired_kill_and_shifts_ids() {
        let plan = FaultPlan::new(1)
            .kill_shard(1, 2)
            .kill_shard(3, 5)
            .crash_shard(2, 4);
        let remap = MembershipRemap::shrink(4, 1).unwrap();
        let out = renumber_plan(&plan, &remap, Some((1, 2)));
        assert_eq!(
            out.kill_schedule(),
            vec![(2, 5)],
            "surviving kill retargets old shard 3 = new shard 2"
        );
        assert_eq!(
            out.crash_schedule(),
            vec![(1, 4)],
            "crash on old shard 2 retargets new shard 1"
        );
    }

    #[test]
    fn renumber_drops_events_on_dead_shard() {
        let plan = FaultPlan::new(1).crash_shard(1, 3).kill_shard(1, 7);
        let remap = MembershipRemap::shrink(3, 1).unwrap();
        let out = renumber_plan(&plan, &remap, None);
        assert!(out.kill_schedule().is_empty());
        assert!(out.crash_schedule().is_empty());
    }
}
