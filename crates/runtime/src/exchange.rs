//! The copy protocol of the per-shard engine: how a copy statement's
//! pairs leave their producers and land in their consumers' instances.
//!
//! Synchronization follows the consumer-applied protocol of §3.4:
//! copies "are issued by the producer of the data", and the consumer
//! blocks on the matching receive at its own copy point. The receive
//! doubles as the point-to-point synchronization — write-after-read is
//! satisfied because the consumer only applies data between its own
//! statements, read-after-write because it cannot proceed until the
//! data arrives. The naive global-barrier mode (Fig. 4c) adds
//! [`crate::ShardBarrier`] waits around every copy.
//!
//! [`ShardExec::run_copy`] runs in three phases: the producer phase
//! gathers every remote pair's payload into the statement's outbox and
//! sends each through [`ShardExec::send`]; a flush publishes them; the
//! consumer phase applies every pair this shard consumes, in the
//! schedule's order, scattering remote payloads from
//! [`ShardExec::recv`] and moving same-shard pairs instance to
//! instance. Every one of those moves goes a storage run at a time,
//! over the pair's [`CopyRuns`] from the schedule.
//!
//! A statement costs its data, not its pair count, in bookkeeping: each
//! phase is one `CopyIssueNs` / `CopyWaitNs` bracket and one bulk add
//! to `CopiesIssued` / `CopiesApplied`, and an untraced producer phase
//! visits only the pairs it sends ([`ShardLayout::sends`]). A traced
//! run visits every pair it produces, to give each its `CopyIssue`
//! span, and every `CopyApply` span still covers its pair's receive.
//!
//! [`ShardLayout::sends`]: regent_cr::ShardLayout::sends
//!
//! Under the integrity protocol every payload is a checksummed frame.
//! The checksum covers the *intended* chunks and is computed for the
//! whole outbox under one timer bracket. Which transmissions arrive
//! corrupted is a pure function of the fault plan and the payload's key
//! — (copy, pair, occurrence) — so the producer knows and sends each
//! corrupted frame ahead of the clean one (sender-proactive
//! retransmission, bounded by the retry budget; no acknowledgement
//! channel exists), and the consumer receives until a frame verifies.
//! The occurrence is the number of earlier executions of the copy
//! statement on this shard: replicated control flow runs every
//! statement on every shard, so producer and consumer count alike, and
//! the same number is the `seq` that matches a trace's `CopyIssue` to
//! its `CopyApply`.

use crate::metrics::{Counter, Timer};
use crate::pool::ChunkPool;
use crate::ring::SendError;
use crate::spmd_exec::{inst_id, ShardExec};
use regent_cr::{CopyId, CopySource, CopyStmt};
use regent_fault::{message_key, DeathCause, PeerDeath};
use regent_region::checksum::StripedFnv;
use regent_region::{ColumnData, CopyRuns, FieldId, Instance, ReductionOp};
use regent_trace::{fields_mask, CorruptSite, EventKind};
use std::sync::mpsc::RecvTimeoutError;

/// [`message_key`] domain tag for exchange payload corruption ("EXCH").
const EXCHANGE_TAG: u64 = 0x4558_4348;

/// One field's payload within a copy message, in the canonical element
/// order of the pair's intersection domain.
#[derive(Clone, Debug)]
pub(crate) enum Chunk {
    F64(Vec<f64>),
    I64(Vec<i64>),
}

impl Chunk {
    fn len(&self) -> usize {
        match self {
            Chunk::F64(v) => v.len(),
            Chunk::I64(v) => v.len(),
        }
    }
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

/// One staged outbound payload (see `Scratch::outbox`).
pub(crate) struct Outbound {
    pair_seq: u32,
    dst: usize,
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
    let total: usize = chunks.iter().map(Chunk::len).sum();
    if total == 0 {
        return false;
    }
    let mut slot = (entropy % total as u64) as usize;
    let bit = (entropy >> 40) % 64;
    for ch in chunks {
        if slot < ch.len() {
            match ch {
                Chunk::F64(v) => v[slot] = f64::from_bits(v[slot].to_bits() ^ (1u64 << bit)),
                Chunk::I64(v) => v[slot] = (v[slot] as u64 ^ (1u64 << bit)) as i64,
            }
            return true;
        }
        slot -= ch.len();
    }
    unreachable!("slot selection within total payload length")
}

impl ShardExec<'_> {
    /// Executes one copy statement: producer phase, flush, consumer
    /// phase.
    pub(crate) fn run_copy(&mut self, c: &CopyStmt) {
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
        // Never rolled back: a replayed epoch's copies get fresh
        // corruption keys and trace identities.
        let id = c.id.0 as usize;
        if id >= self.copy_runs.len() {
            self.copy_runs.resize(id + 1, 0);
        }
        let occurrence = self.copy_runs[id];
        self.copy_runs[id] += 1;
        let ix = c.intersection.0 as usize;
        let pairs = &self.schedule.pairs[ix];
        let layout = self.layout;
        let traced = self.tb.is_enabled();
        let integrity = self.integrity_on();
        let reseal = self.reseals();
        let copy_fields_mask = if traced {
            fields_mask(c.fields.iter().map(|f| f.0))
        } else {
            0
        };
        // Producer phase (§3.4: copies are issued by the producer). A
        // pair that stays on this shard has nothing to stage: the
        // consumer phase moves it instance to instance. So an untraced
        // run visits only the pairs it sends; a traced one visits every
        // pair it produces, to give each its `CopyIssue` span.
        let produced = &layout.produces[ix];
        let m0 = self.mx.start();
        for &seq in if traced { produced } else { &layout.sends[ix] } {
            let p = &pairs[seq as usize];
            let t0 = self.tb.now();
            if p.dst_owner != self.shard {
                let src = &self.data.insts[p.src_slot as usize];
                let chunks = gather(&mut self.pool, src, &c.fields, &p.runs);
                // Work counters count logical messages, not integrity
                // retransmissions (those are visible through the
                // corruption counters instead).
                if self.useful_work() {
                    self.stats.messages_sent += 1;
                    self.stats.elements_sent += p.runs.volume() as u64;
                }
                self.scratch.outbox.push(Outbound {
                    pair_seq: seq,
                    dst: p.dst_owner,
                    checksum: 0,
                    chunks,
                });
            }
            if traced {
                self.tb.span_since(
                    t0,
                    EventKind::CopyIssue {
                        copy: c.id.0,
                        pair: seq,
                        seq: occurrence,
                        elements: p.runs.volume() as u64,
                        dst_shard: p.dst_owner as u32,
                    },
                );
            }
        }
        self.mx.add(Counter::CopiesIssued, produced.len() as u64);
        self.mx.record_since(m0, Timer::CopyIssueNs);
        if integrity && !self.scratch.outbox.is_empty() {
            // The statement's frames are checksummed under one bracket.
            let m0 = self.mx.start();
            for out in &mut self.scratch.outbox {
                out.checksum = chunks_checksum(&out.chunks);
            }
            self.mx.record_since(m0, Timer::IntegrityNs);
        }
        let mut outbox = std::mem::take(&mut self.scratch.outbox);
        for out in outbox.drain(..) {
            self.send(c.id, occurrence, out);
        }
        self.scratch.outbox = outbox;
        // Publish every batched frame before blocking in the consumer
        // phase: a peer must never wait on a written-but-unpublished
        // slot (this is the data plane's deadlock-freedom invariant).
        for tx in &mut self.tx {
            tx.flush();
        }
        // Consumer phase: apply in the global deterministic order (the
        // receive is the point-to-point synchronization).
        let consumed = &layout.consumes[ix];
        let m0 = self.mx.start();
        for &seq in consumed {
            let p = &pairs[seq as usize];
            let t0 = self.tb.now();
            if p.src_owner == self.shard {
                // Source and destination are instances of different
                // uses (asserted above), so the slots differ.
                let [src, dst] = self
                    .data
                    .insts
                    .get_disjoint_mut([p.src_slot as usize, p.dst_slot as usize])
                    .expect("a same-shard pair copies between two instances");
                p.runs.copy(src, dst, &c.fields, c.reduction);
            } else {
                let chunks = self.recv(c.id, seq, p.src_owner);
                let dst = &mut self.data.insts[p.dst_slot as usize];
                scatter(dst, &c.fields, &p.runs, &chunks, c.reduction);
                // The drained payload feeds the freelist the producer
                // side draws from — steady state allocates nothing.
                recycle_chunks(&mut self.pool, chunks);
            }
            if reseal {
                self.scratch.applied.push(p.dst_slot);
            }
            if traced {
                // The span covers the blocking receive, so copy stalls
                // are visible in profiles.
                self.tb.span_since(
                    t0,
                    EventKind::CopyApply {
                        copy: c.id.0,
                        pair: seq,
                        seq: occurrence,
                        region: layout.slots[p.dst_slot as usize].region.0,
                        inst: inst_id(self.shard, p.dst_slot as usize),
                        fields: copy_fields_mask,
                        reduce: c.reduction.is_some(),
                    },
                );
            }
        }
        self.mx.add(Counter::CopiesApplied, consumed.len() as u64);
        self.mx.record_since(m0, Timer::CopyWaitNs);
        if !self.scratch.applied.is_empty() {
            // The applied data is verified; the written columns become
            // authoritative again. Seals are only read at epoch
            // boundaries, so each destination is rehashed once, after
            // the statement's last pair, however many pairs wrote it —
            // and not at all in an epoch whose seals no check reads.
            self.scratch.applied.sort_unstable();
            self.scratch.applied.dedup();
            let sealed = (self.scratch.applied.len() * c.fields.len()) as u64;
            let m0 = self.mx.start();
            for slot in self.scratch.applied.drain(..) {
                self.data.insts[slot as usize].seal_fields(&c.fields);
            }
            self.mx.record_since(m0, Timer::IntegrityNs);
            self.mx.add(Counter::ColumnSeals, sealed);
        }
    }

    /// Sends one staged payload to its consumer without publishing it
    /// (the statement flushes once). Under the integrity protocol every
    /// corrupted transmission the fault plan schedules goes ahead of
    /// the clean one; a plain run sends the payload once, unframed. A
    /// dead consumer unwinds the producer, and a ring that stays full
    /// past the hang timeout is reported as a likely deadlock.
    fn send(&mut self, copy: CopyId, occurrence: u32, mut out: Outbound) {
        let (shard, dst, seq) = (self.shard, out.dst, out.pair_seq);
        let framed = self.resilience.as_ref().filter(|r| r.integrity);
        for attempt in 0u32.. {
            let corrupted = framed.and_then(|r| {
                let key = message_key(EXCHANGE_TAG, copy.0 as u64, seq as u64, occurrence as u64);
                let entropy = r.plan.payload_corruption(key, attempt)?;
                let mut bad = out.chunks.clone();
                corrupt_chunks(&mut bad, entropy).then(|| {
                    assert!(
                        attempt + 1 < r.retry_max,
                        "unrecoverable exchange corruption: shard {shard} would produce {} \
                         corrupted transmissions in a row for copy {} pair {seq} \
                         (retry budget exhausted)",
                        r.retry_max,
                        copy.0
                    );
                    bad
                })
            });
            let clean = corrupted.is_none();
            let msg = CopyMsg {
                copy,
                pair_seq: seq,
                attempt,
                checksum: out.checksum,
                chunks: corrupted.unwrap_or_else(|| std::mem::take(&mut out.chunks)),
            };
            match self.tx[dst].push(msg) {
                Ok(false) => {}
                Ok(true) => self.mx.incr(Counter::RingStalls),
                Err(SendError::Closed(_)) => panic!(
                    "copy channel closed: consumer shard {dst} died before receiving copy {} pair {seq} from shard {shard}",
                    copy.0
                ),
                Err(SendError::Full(_)) => panic!(
                    "likely deadlock: shard {shard} ring to shard {dst} stayed full for {:?} sending copy {} pair {seq}",
                    self.tx[dst].timeout, copy.0
                ),
            }
            if clean {
                return;
            }
            self.stats.corruptions_injected += 1;
        }
    }

    /// Receives pair `seq` of `copy` from shard `src`, blocking until it
    /// arrives, and returns its payload. Under the integrity protocol a
    /// logical payload may arrive as several frames: keep receiving
    /// until one verifies, counting each corrupted frame as a detection
    /// and the clean one as a repair. A producer silent past the hang
    /// timeout is blamed as hung on the death board before this shard
    /// panics; a dead producer unwinds it at once.
    fn recv(&mut self, copy: CopyId, seq: u32, src: usize) -> Vec<Chunk> {
        let integrity = self.integrity_on();
        let mut bad_attempts = 0u32;
        let msg = loop {
            let msg = match self.rx[src].recv_timeout(self.hang_timeout) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    // The producer stopped making progress: blame *it*
                    // (not us) so the failover driver evicts the hung
                    // shard, not the waiter that noticed.
                    if let Some(board) = self.resilience.as_ref().and_then(|r| r.board.as_ref()) {
                        board.record(PeerDeath {
                            shard: src as u32,
                            cause: DeathCause::Hung,
                        });
                    }
                    panic!(
                        "likely deadlock: shard {} waited {:?} on copy {} pair {} from shard {}",
                        self.shard, self.hang_timeout, copy.0, seq, src
                    )
                }
                Err(RecvTimeoutError::Disconnected) => panic!(
                    "copy channel closed: producer shard {} died before sending copy {} pair {} to shard {}",
                    src, copy.0, seq, self.shard
                ),
            };
            debug_assert_eq!(msg.copy, copy, "copy protocol out of sync");
            debug_assert_eq!(msg.pair_seq, seq, "pair order out of sync");
            if !integrity {
                break msg;
            }
            let m0 = self.mx.start();
            let frame_ok = chunks_checksum(&msg.chunks) == msg.checksum;
            self.mx.record_since(m0, Timer::IntegrityNs);
            if frame_ok {
                // The sender's frame numbering and our detection count
                // advance in lockstep (shared pure predicate).
                debug_assert_eq!(
                    msg.attempt, bad_attempts,
                    "retransmission numbering out of sync"
                );
                break msg;
            }
            // Checksum mismatch: the frame was corrupted in flight.
            // Count the detection and wait for the retransmission.
            bad_attempts += 1;
            self.stats.corruptions_detected += 1;
            self.tb.instant(EventKind::CorruptDetected {
                site: CorruptSite::Exchange,
                id: copy.0,
                sub: seq,
                epoch: self.epoch,
            });
            recycle_chunks(&mut self.pool, msg.chunks);
        };
        if bad_attempts > 0 {
            self.stats.corruptions_repaired += 1;
            self.mx.add(Counter::Retransmits, u64::from(bad_attempts));
            self.tb.instant(EventKind::CorruptRepaired {
                site: CorruptSite::Exchange,
                id: copy.0,
                sub: seq,
                attempts: bad_attempts,
            });
        }
        msg.chunks
    }
}

/// Gathers a pair's payload from its source instance: one chunk per
/// field, in the canonical element order of the pair's intersection.
/// Buffers come from the shard's [`ChunkPool`] so steady-state
/// exchanges never hit the allocator.
fn gather(
    pool: &mut ChunkPool,
    inst: &Instance,
    fields: &[FieldId],
    runs: &CopyRuns,
) -> Vec<Chunk> {
    fields
        .iter()
        .map(|&f| match inst.column(f) {
            ColumnData::F64(col) => {
                let mut v = pool.take_f64(runs.volume());
                runs.gather(col, &mut v);
                Chunk::F64(v)
            }
            ColumnData::I64(col) => {
                let mut v = pool.take_i64(runs.volume());
                runs.gather(col, &mut v);
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

/// Scatters a received payload into the pair's destination instance,
/// overwriting or folding (§4.3 reduction copies).
fn scatter(
    inst: &mut Instance,
    fields: &[FieldId],
    runs: &CopyRuns,
    chunks: &[Chunk],
    reduction: Option<ReductionOp>,
) {
    for (&f, chunk) in fields.iter().zip(chunks) {
        match chunk {
            Chunk::F64(vals) => runs.scatter(vals, inst.f64_col_mut(f), reduction),
            Chunk::I64(vals) => runs.scatter(vals, inst.i64_col_mut(f), reduction),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_region::{Domain, FieldSpace, FieldType};

    #[test]
    fn checksum_separates_f64_from_i64_with_the_same_bits() {
        let vals = [1.5f64, -0.0, f64::MAX];
        let bits: Vec<i64> = vals.iter().map(|v| v.to_bits() as i64).collect();
        let f = chunks_checksum(&[Chunk::F64(vals.to_vec())]);
        let i = chunks_checksum(&[Chunk::I64(bits)]);
        assert_ne!(f, i, "the complemented length header tells the kinds apart");
        assert_eq!(f, chunks_checksum(&[Chunk::F64(vals.to_vec())]));
    }

    #[test]
    fn corruption_flips_one_bit_in_the_chosen_slot() {
        let clean = vec![Chunk::F64(vec![1.0, 2.0, 3.0]), Chunk::I64(vec![10, 20])];
        // Slot 3 of 5 is the first element of the second chunk; bit 7.
        let base = 7u64 << 40;
        let entropy = base + (3 + 5 - base % 5) % 5;
        let mut bad = clean.clone();
        assert!(corrupt_chunks(&mut bad, entropy));
        let words = |chunks: &[Chunk]| -> Vec<u64> {
            chunks
                .iter()
                .flat_map(|c| match c {
                    Chunk::F64(v) => v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    Chunk::I64(v) => v.iter().map(|&x| x as u64).collect(),
                })
                .collect()
        };
        let flips: Vec<u64> = words(&clean)
            .iter()
            .zip(words(&bad))
            .map(|(a, b)| a ^ b)
            .collect();
        assert_eq!(flips, [0, 0, 0, 1 << 7, 0]);
        assert_ne!(chunks_checksum(&clean), chunks_checksum(&bad));

        let mut empty = vec![Chunk::F64(vec![]), Chunk::I64(vec![])];
        assert!(!corrupt_chunks(&mut empty, entropy));
        assert!(!corrupt_chunks(&mut [], entropy));
    }

    #[test]
    fn local_and_staged_applies_agree() {
        let space = FieldSpace::of(&[("x", FieldType::F64), ("n", FieldType::I64)]);
        let fields = [FieldId(0), FieldId(1)];
        let mut src = Instance::new(Domain::range(8), &space);
        // Laid out over its span 1..=9: ids 1, 3, 5, 7 sit at 0, 2, 4, 6.
        let mut dst = Instance::new(Domain::from_ids([1, 3, 5, 7, 8, 9]), &space);
        for k in 0..8 {
            src.f64_col_mut(fields[0])[k] = 0.75 * k as f64 - 2.0;
            src.i64_col_mut(fields[1])[k] = 3 * k as i64 - 7;
        }
        for k in 0..9 {
            dst.f64_col_mut(fields[0])[k] = 1.25 - k as f64;
            dst.i64_col_mut(fields[1])[k] = 5 - k as i64;
        }
        let elements = Domain::from_ids([1, 3, 5, 7]);
        let runs = CopyRuns::new(src.indexer(), dst.indexer(), &elements);
        assert_eq!(runs.runs(), [(1, 0, 1), (3, 2, 1), (5, 4, 1), (7, 6, 1)]);
        let ops = [
            None,
            Some(ReductionOp::Add),
            Some(ReductionOp::Mul),
            Some(ReductionOp::Min),
            Some(ReductionOp::Max),
        ];
        let mut pool = ChunkPool::new();
        for op in ops {
            let mut local = dst.clone();
            runs.copy(&src, &mut local, &fields, op);
            let mut staged = dst.clone();
            let chunks = gather(&mut pool, &src, &fields, &runs);
            scatter(&mut staged, &fields, &runs, &chunks, op);
            recycle_chunks(&mut pool, chunks);
            let bits = |i: &Instance| -> Vec<u64> {
                i.f64_col(fields[0]).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&local), bits(&staged), "f64 under {op:?}");
            assert_eq!(
                local.i64_col(fields[1]),
                staged.i64_col(fields[1]),
                "i64 under {op:?}"
            );
            assert_ne!(bits(&local), bits(&dst), "{op:?} changed nothing");
        }
        // An overwrite lands the gathered values unchanged.
        let mut local = dst.clone();
        runs.copy(&src, &mut local, &fields, None);
        assert_eq!(local.f64_col(fields[0])[2], src.f64_col(fields[0])[3]);
        assert_eq!(local.i64_col(fields[1])[6], src.i64_col(fields[1])[7]);
        assert_eq!(local.i64_col(fields[1])[7], dst.i64_col(fields[1])[7]);
    }
}
