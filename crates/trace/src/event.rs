//! The event schema: everything the executors, the simulator, and the
//! CR compiler record.
//!
//! Events are `Copy` and contain no owned data — names are `&'static
//! str`, identities are small integers — so recording one is a ring
//! write with no allocation. Each kind is stated once, in the
//! `event_kinds!` table below, which also fixes its wire form.
//!
//! ## Identity conventions
//!
//! * `launch` — the *dynamic* launch sequence number: how many launch
//!   statements the control flow has executed before this one. Control
//!   flow is replicated across SPMD shards (§3.5), so shards assign
//!   identical numbers to the same logical launch, which is what lets
//!   the Spy validator correlate tasks across shard-local event logs.
//! * `pos` — the task's position in its launch domain (0 for single
//!   launches).
//! * `inst` — an id of the *physical instance* accessed.
//!   Shared-memory executors use the root region; the distributed
//!   SPMD executor packs the shard and the instance's slot in that
//!   shard's image (`shard << 32 | slot`). Two accesses with equal
//!   `inst` touch the same memory.
//! * `fields` — a bitmask of field ids (bit `id % 64`); two accesses
//!   can only conflict if their masks intersect.

/// Privilege of a recorded region access (mirrors
/// `regent_ir::Privilege` without depending on it — this crate is a
/// leaf).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrivCode {
    /// Read-only access.
    Read,
    /// Read-write access.
    Write,
    /// Reduction access; the payload discriminates the operator (two
    /// reductions conflict unless they use the same operator).
    Reduce(u8),
}

impl PrivCode {
    /// Does this privilege modify the region?
    pub(crate) fn mutates(self) -> bool {
        !matches!(self, PrivCode::Read)
    }

    /// Can two accesses with these privileges run unordered (§2.1)?
    pub(crate) fn compatible(self, other: PrivCode) -> bool {
        match (self, other) {
            (PrivCode::Read, PrivCode::Read) => true,
            (PrivCode::Reduce(a), PrivCode::Reduce(b)) => a == b,
            _ => false,
        }
    }
}

/// Where a silent-data-corruption event was injected or caught.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CorruptSite {
    /// A serialized point-to-point exchange payload (ghost-cell copy).
    Exchange,
    /// A resident physical instance buffer.
    Resident,
    /// A dynamic-collective contribution (§4.4 scalar reduction).
    Collective,
}

/// What kind of work a simulated task represents (used to attribute
/// virtual time in the discrete-event simulator).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimKind {
    /// A shard's task-launch operation (CR: O(1) per shard).
    Launch,
    /// Control-thread dependence analysis (implicit: O(N) per step).
    Analysis,
    /// Application kernel compute.
    Compute,
    /// NIC serialization / message transfer.
    Copy,
    /// Collective participation.
    Collective,
    /// Shared-log control work: sequencer append/combine and replica
    /// batch consumption (`log_exec`).
    Log,
    /// Anything untagged.
    Other,
}

/// States each event kind once — variant, wire tag, fields in wire
/// order, docs — and derives from that one statement the enum, its
/// [`EventKind::tag`], and the wire form the trace file's sidecar and
/// the Chrome `args` share ([`crate::serial`]). Adding a kind is an
/// entry here plus a display title in [`crate::chrome`].
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $name:ident = $tag:literal $({
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty ),* $(,)?
        })?
    ),* $(,)?) => {
        /// One structured event.
        #[derive(Clone, Copy, PartialEq, Debug)]
        pub enum EventKind {
            $( $(#[$doc])* $name $({ $( $(#[$field_doc])* $field: $ty ),* })?, )*
        }

        impl EventKind {
            /// The kind's wire tag (`"k"` in the trace file), snake_case.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( EventKind::$name { .. } => $tag, )*
                }
            }

            /// Writes `"k":"<tag>"` and then `,"<field>":<value>` per
            /// field, in table order: the body of a JSON object.
            pub(crate) fn write_wire(&self, out: &mut String) {
                match *self {
                    $( EventKind::$name $({ $($field),* })? => {
                        out.push_str(concat!("\"k\":\"", $tag, "\""));
                        $($(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            crate::serial::Wire::put(&$field, out);
                        )*)?
                    } )*
                }
            }

            /// Reads back what [`EventKind::write_wire`] wrote.
            pub(crate) fn read_wire(o: &crate::serial::Obj) -> Result<EventKind, String> {
                let tag = o.get("k").and_then(crate::json::Value::as_str);
                match tag.ok_or("event without a kind")? {
                    $( $tag => Ok(EventKind::$name $({ $(
                        $field: crate::serial::take(o, $tag, stringify!($field))?,
                    )* })?), )*
                    other => Err(format!("unknown event kind {other:?}")),
                }
            }
        }
    };
}

event_kinds! {
    /// Control thread (or shard) issued a task.
    TaskLaunch = "task_launch" {
        /// Dynamic launch sequence number.
        launch: u32,
        /// Position in the launch domain.
        pos: u32,
        /// Task declaration id.
        task: u32,
    },
    /// A worker (or shard) executed the task's kernel; the span covers
    /// the kernel run.
    TaskRun = "task_run" {
        /// Dynamic launch sequence number.
        launch: u32,
        /// Position in the launch domain.
        pos: u32,
        /// Task declaration id.
        task: u32,
    },
    /// One region access of task `(launch, pos)` (emitted adjacent to
    /// its launch or run event).
    TaskAccess = "task_access" {
        /// Dynamic launch sequence number of the accessing task.
        launch: u32,
        /// Position of the accessing task in its launch domain.
        pos: u32,
        /// Logical region accessed.
        region: u32,
        /// Physical instance id.
        inst: u64,
        /// Field bitmask (see module docs).
        fields: u64,
        /// Access privilege.
        privilege: PrivCode,
    },
    /// Dynamic dependence analysis performed by the implicit executor's
    /// control thread for one task — the per-task cost that grows with
    /// the in-flight window (§1, §4.1).
    DepAnalysis = "dep_analysis" {
        /// Dynamic launch sequence number of the analyzed task.
        launch: u32,
        /// Position of the analyzed task.
        pos: u32,
        /// Pairwise region checks performed.
        checks: u32,
    },
    /// A dependence edge the control thread recorded (or observed
    /// already satisfied) between two tasks.
    DepEdge = "dep_edge" {
        /// Launch sequence of the predecessor task.
        from_launch: u32,
        /// Position of the predecessor task.
        from_pos: u32,
        /// Launch sequence of the successor task.
        to_launch: u32,
        /// Position of the successor task.
        to_pos: u32,
    },
    /// The control thread drained the worker pool (waited for all
    /// outstanding tasks): everything launched before this point
    /// happened-before everything after it.
    Drain = "drain",
    /// Producer side of a copy pair: extract + send. `seq` counts
    /// dynamic occurrences of the same (copy, pair), matching the
    /// consumer's count — that pairing *is* the point-to-point
    /// synchronization of §3.4.
    CopyIssue = "copy_issue" {
        /// Static copy statement id.
        copy: u32,
        /// Pair index within the copy's intersection.
        pair: u32,
        /// Dynamic occurrence number of this (copy, pair).
        seq: u32,
        /// Elements transferred.
        elements: u64,
        /// Destination shard.
        dst_shard: u32,
    },
    /// Consumer side of a copy pair: blocking receive + apply. The
    /// span covers the wait, so copy stalls are visible in profiles.
    CopyApply = "copy_apply" {
        /// Static copy statement id.
        copy: u32,
        /// Pair index within the copy's intersection.
        pair: u32,
        /// Dynamic occurrence number of this (copy, pair).
        seq: u32,
        /// Destination logical region written.
        region: u32,
        /// Destination physical instance id.
        inst: u64,
        /// Field bitmask of the copied fields.
        fields: u64,
        /// True for reduction-fold applies (§4.3).
        reduce: bool,
    },
    /// Arrived at a barrier generation.
    BarrierArrive = "barrier_arrive" {
        /// Barrier generation number.
        generation: u64,
    },
    /// Released from a barrier generation.
    BarrierLeave = "barrier_leave" {
        /// Barrier generation number.
        generation: u64,
    },
    /// Contributed to a dynamic collective generation (§4.4).
    CollectiveArrive = "collective_arrive" {
        /// Collective generation number.
        generation: u64,
    },
    /// Received a dynamic collective's folded result.
    CollectiveLeave = "collective_leave" {
        /// Collective generation number.
        generation: u64,
    },
    /// An outermost-loop iteration began on this track (the timestep
    /// boundary the per-step cost analysis groups by).
    StepBegin = "step_begin" {
        /// Zero-based timestep number.
        step: u64,
    },
    /// A shard snapshotted its region instances for checkpoint–restart
    /// (span covers the state clone).
    CheckpointSave = "checkpoint_save" {
        /// Epoch (outermost-loop iteration) the snapshot captures the
        /// start of.
        epoch: u64,
    },
    /// A shard rolled back to its latest snapshot after an injected
    /// failure (span covers the state restore).
    CheckpointRestore = "checkpoint_restore" {
        /// Epoch the shard was in when the rollback triggered.
        epoch: u64,
        /// Epoch execution resumes from (the snapshot's epoch).
        to_epoch: u64,
    },
    /// An injected shard failure fired (instant).
    ShardCrash = "shard_crash" {
        /// The shard the fault plan killed.
        shard: u32,
        /// Epoch at whose start the crash was injected.
        epoch: u64,
    },
    /// A shard left the membership (instant): an injected kill, an
    /// unrecoverable panic, or a hang-timeout blame. Unlike
    /// [`EventKind::ShardCrash`] (rollback on unchanged membership)
    /// this marks a *membership* loss the failover machinery responds
    /// to. `cause` uses the [`crate::prof`] convention: 0 = killed,
    /// 1 = panicked, 2 = hung.
    PeerDeath = "peer_death" {
        /// The shard that died.
        shard: u32,
        /// Cause code (0 killed / 1 panicked / 2 hung).
        cause: u32,
        /// Epoch at which the death was detected (kill epoch for
        /// injected kills, 0 when unknown).
        epoch: u64,
    },
    /// The elastic membership changed: survivors agreed on a shrunken
    /// shard count and a new membership epoch (instant, driver track).
    MembershipChange = "membership_change" {
        /// Shards before the change.
        from_shards: u32,
        /// Shards after the change.
        to_shards: u32,
        /// The shard removed from the membership.
        dead_shard: u32,
        /// Checkpoint epoch the new membership resumes from.
        epoch: u64,
    },
    /// Survivor-side reconstruction of a lost shard's state: the last
    /// coordinated checkpoint was remapped onto the shrunken membership
    /// (span covers the redistribution; driver track).
    FailoverReconstruct = "failover_reconstruct" {
        /// Shards in the new membership.
        to_shards: u32,
        /// Instances redistributed across the survivors.
        insts: u32,
        /// Checkpoint epoch execution resumes from.
        epoch: u64,
    },
    /// A checksum verification caught silent data corruption. For
    /// [`CorruptSite::Exchange`] / [`CorruptSite::Collective`] sites,
    /// `(id, sub)` is the (copy, pair) / (scalar var, occurrence)
    /// identity of the corrupted payload; for
    /// [`CorruptSite::Resident`] sites `(id, sub)` is unused (0).
    CorruptDetected = "corrupt_detected" {
        /// Where the corruption was caught.
        site: CorruptSite,
        /// Payload identity (see above).
        id: u32,
        /// Payload sub-identity (see above).
        sub: u32,
        /// Epoch the detecting shard was executing.
        epoch: u64,
    },
    /// A detected corruption was repaired locally — the clean payload
    /// arrived by retransmission without disturbing peer shards. Always
    /// follows one or more matching [`EventKind::CorruptDetected`]
    /// events on the same track.
    CorruptRepaired = "corrupt_repaired" {
        /// Where the corruption had been caught.
        site: CorruptSite,
        /// Payload identity (matches the detection event).
        id: u32,
        /// Payload sub-identity (matches the detection event).
        sub: u32,
        /// Corrupted delivery attempts before the clean one.
        attempts: u32,
    },
    /// A resident-instance corruption could not be repaired locally and
    /// escalated to the coordinated checkpoint rollback: every shard
    /// restores its latest snapshot (the subsequent
    /// [`EventKind::CheckpointRestore`] spans) and memoized templates
    /// are invalidated.
    CorruptEscalated = "corrupt_escalated" {
        /// The shard whose resident instance was corrupted.
        shard: u32,
        /// Epoch during which the corruption occurred.
        epoch: u64,
    },
    /// The implicit executor captured an epoch's dependence analysis as
    /// a reusable template (trace memoization). Emitted at the epoch
    /// boundary where the template was stored.
    MemoCapture = "memo_capture" {
        /// Epoch (outermost-loop iteration) the template was captured
        /// from.
        epoch: u64,
        /// Structural hash of the epoch's launch sequence (the cache
        /// key).
        key: u64,
        /// Point tasks covered by the template.
        tasks: u32,
    },
    /// A whole epoch replayed from a memoized template: every launch
    /// matched the template and no dependence analysis ran.
    MemoHit = "memo_hit" {
        /// Epoch that replayed.
        epoch: u64,
        /// Cache key of the replayed template.
        key: u64,
        /// Point tasks replayed.
        tasks: u32,
    },
    /// A replay attempt aborted: the epoch's launch sequence diverged
    /// from the predicted template and the executor fell back to full
    /// dependence analysis for the remainder of the epoch.
    MemoMiss = "memo_miss" {
        /// Epoch in which the divergence was observed.
        epoch: u64,
        /// Launch index (within the epoch) where the template stopped
        /// matching.
        at: u32,
    },
    /// The template cache was invalidated: the region forest's version
    /// changed since capture (a partition or region was created), so
    /// every memoized schedule went stale.
    MemoInvalidate = "memo_invalidate" {
        /// Templates dropped from the cache.
        templates: u32,
    },
    /// One task's dependence bookkeeping replayed from a memoized
    /// template instead of analyzed (span covers the edge replay) — the
    /// memo-path counterpart of [`EventKind::DepAnalysis`].
    MemoReplay = "memo_replay" {
        /// Dynamic launch sequence number of the replayed task.
        launch: u32,
        /// Position of the replayed task.
        pos: u32,
    },
    /// The shared-log sequencer appended a segment of launch records
    /// to the operation log (instant; paired with the
    /// [`EventKind::LogCombine`] span covering its publication).
    LogAppend = "log_append" {
        /// Epoch (outermost-loop iteration) the records belong to.
        epoch: u64,
        /// Log index of the first batch the segment was published as.
        batch: u32,
        /// Records appended in this segment.
        records: u32,
    },
    /// The sequencer published its pending records as one batch (span
    /// covers the publication).
    LogCombine = "log_combine" {
        /// Log index of the published batch.
        batch: u32,
        /// Records in it.
        records: u32,
    },
    /// A replica leader consumed one log batch: advanced its read
    /// cursor and ran the once-per-replica dependence analysis.
    LogConsume = "log_consume" {
        /// Consuming replica id.
        replica: u32,
        /// Log index of the consumed batch.
        batch: u32,
        /// Records in the batch.
        records: u32,
        /// Cursor lag when the batch was taken: published batches not
        /// yet consumed by this replica (including this one).
        lag: u32,
    },
    /// A compiler pass of the CR pipeline (span).
    Pass = "pass" {
        /// Pass name.
        name: &'static str,
    },
    /// A simulated task's service interval, in *virtual* time.
    SimTask = "sim_task" {
        /// What the simulated work represents.
        kind: SimKind,
        /// Node the serving resource belongs to.
        node: u32,
        /// Timestep the task belongs to.
        step: u32,
    },
    /// A named scalar sample.
    Counter = "counter" {
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// A named instant marker.
    Mark = "mark" {
        /// Marker name.
        name: &'static str,
    },
}

/// One recorded event: a half-open interval `[ts, ts + dur)` in
/// nanoseconds (instant events have `dur == 0`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Event {
    /// Start timestamp, nanoseconds from the tracer epoch.
    pub ts: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Folds field ids into the 64-bit mask convention used by
/// [`EventKind::TaskAccess`] / [`EventKind::CopyApply`]. Ids ≥ 64 wrap
/// (conservative: may alias, never misses a real conflict).
pub fn fields_mask(ids: impl IntoIterator<Item = u32>) -> u64 {
    let mut m = 0u64;
    for id in ids {
        m |= 1u64 << (id % 64);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privilege_compatibility() {
        assert!(PrivCode::Read.compatible(PrivCode::Read));
        assert!(PrivCode::Reduce(1).compatible(PrivCode::Reduce(1)));
        assert!(!PrivCode::Reduce(1).compatible(PrivCode::Reduce(2)));
        assert!(!PrivCode::Read.compatible(PrivCode::Write));
        assert!(!PrivCode::Write.compatible(PrivCode::Write));
        assert!(PrivCode::Write.mutates());
        assert!(PrivCode::Reduce(0).mutates());
        assert!(!PrivCode::Read.mutates());
    }

    #[test]
    fn field_masks() {
        assert_eq!(fields_mask([0, 1]), 0b11);
        assert_eq!(fields_mask([65]), 0b10); // wraps
        assert_eq!(fields_mask([]) & fields_mask([3]), 0);
    }
}
