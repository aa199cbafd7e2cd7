//! # regent-fault
//!
//! Deterministic, seeded fault plans shared by the machine simulator
//! (`regent-machine`) and the real SPMD executor (`regent-runtime`).
//!
//! The paper's SPMD shards coordinate purely through point-to-point
//! synchronization (§3.4), so a single failed shard stalls every peer.
//! This crate provides the *model* of what can fail — it decides
//! nothing about recovery, which lives with each consumer:
//!
//! * **Scheduled events** ([`FaultEvent`]) — a shard crash at a given
//!   epoch (real executor: an outermost-loop iteration; simulator: a
//!   time step), or a transient node slowdown window in virtual time.
//! * **Probabilistic message faults** — per-copy loss, duplication,
//!   and delay decided by a pure hash of `(seed, message key,
//!   attempt)`, so the same plan produces the same fault sequence on
//!   every run regardless of thread or event interleaving.
//! * **[`RetryPolicy`]** — per-copy timeout with exponential backoff,
//!   the recovery half of the message-loss model.
//! * **Silent data corruption** — seeded bit-flip injection into
//!   resident instance buffers and in-flight exchange payloads
//!   ([`FaultPlan::with_corrupt_rate`]), decided by pure hashes of the
//!   message / epoch identity so that injection, detection, and repair
//!   are reproducible and every SPMD shard reaches the same rollback
//!   decision without communicating.
//! * **[`FaultStats`]** — what actually happened (losses, retries,
//!   crashes, corruptions, replayed epochs), accumulated by the
//!   consumers and surfaced in `SimResult` / bench output.
//!
//! Determinism is the whole point: the test suites assert that a run
//! under an active fault plan is reproducible (same seed ⇒ same
//! schedule) and that checkpoint–restart recovery yields bit-identical
//! results to a fault-free run.

#![warn(missing_docs)]

/// One scheduled (non-probabilistic) fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// A shard (real executor) or node (simulator) crashes at the start
    /// of the given epoch / time step, losing all state since the last
    /// checkpoint.
    ShardCrash {
        /// The shard or node that dies.
        shard: u32,
        /// Zero-based epoch (outermost-loop iteration / time step) at
        /// whose start the crash is injected.
        epoch: u64,
    },
    /// A shard thread is *killed* at the given epoch boundary: unlike
    /// [`FaultEvent::ShardCrash`] (which rolls the surviving thread
    /// back to its own checkpoint), a kill removes the shard from the
    /// membership entirely. Survivors must reconstruct its state and
    /// continue on N−1 shards (live failover) or fail the run.
    ShardKill {
        /// The shard whose thread dies.
        shard: u32,
        /// Zero-based epoch at whose boundary the kill fires. The kill
        /// is injected *after* the boundary checkpoint is offered, so
        /// the kill-epoch checkpoint is the one survivors recover from.
        epoch: u64,
    },
    /// A shard thread *stalls* (sleeps, then continues) at the given
    /// epoch boundary. A stall longer than the hang timeout
    /// (`REGENT_HANG_TIMEOUT_MS`) makes the victim's consumers time
    /// out, blame the producer as hung, and unwind — the detection path
    /// live failover recovers from without the victim ever panicking on
    /// its own.
    ShardStall {
        /// The shard that stalls.
        shard: u32,
        /// Zero-based epoch at whose boundary the stall fires.
        epoch: u64,
        /// Stall length, milliseconds. Choose ≥ 2× the hang timeout to
        /// guarantee detection; the victim sleeps the full length, so
        /// the attempt cannot outlive it.
        ms: u64,
    },
    /// A node serves work `factor`× slower during `[start, start +
    /// duration)` of virtual time (simulator only).
    Slowdown {
        /// The affected node.
        node: u32,
        /// Window start, virtual seconds.
        start: f64,
        /// Window length, virtual seconds.
        duration: f64,
        /// Multiplier on service time (> 1 slows the node down).
        factor: f64,
    },
}

/// What the fault plan decides for one delivery attempt of a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered normally.
    Deliver,
    /// Lost in flight: the sender times out and retransmits.
    Lose,
    /// Delivered twice; the duplicate wastes bandwidth and must be
    /// deduplicated by the receiver.
    Duplicate,
    /// Delivered after an extra in-flight delay.
    Delay,
}

/// Timeout-and-retransmit policy for lost copies.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Time the sender waits for an acknowledgement before the first
    /// retransmit, seconds.
    pub timeout: f64,
    /// Backoff multiplier applied per failed attempt (attempt `k`
    /// waits `timeout × multiplier^k`).
    pub backoff: f64,
    /// Attempts after which the delivery is forced through (the model
    /// must make progress; a real transport would escalate to a node
    /// failure instead).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: 100.0e-6,
            backoff: 2.0,
            max_attempts: 10,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retransmitting after failed attempt
    /// `attempt` (zero-based).
    pub fn backoff_delay(&self, attempt: u32) -> f64 {
        self.timeout * self.backoff.powi(attempt.min(self.max_attempts) as i32)
    }
}

/// A deterministic fault plan: scheduled events plus seeded
/// probabilistic message faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Scheduled crash / slowdown events.
    pub events: Vec<FaultEvent>,
    /// Probability a message attempt is lost in flight.
    pub loss_rate: f64,
    /// Probability a delivered message is duplicated.
    pub dup_rate: f64,
    /// Probability a delivered message is delayed by [`FaultPlan::delay_s`].
    pub delay_rate: f64,
    /// Extra in-flight delay applied to delayed messages, seconds.
    pub delay_s: f64,
    /// Probability of a silent bit flip: per delivery attempt for
    /// exchange payloads ([`FaultPlan::payload_corruption`]), per epoch
    /// for resident instances ([`FaultPlan::resident_corruption`]).
    pub corrupt_rate: f64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a shard/node crash at the start of `epoch`.
    pub fn crash_shard(mut self, shard: u32, epoch: u64) -> Self {
        self.events.push(FaultEvent::ShardCrash { shard, epoch });
        self
    }

    /// Adds a shard-thread kill (membership loss) at the boundary of
    /// `epoch`.
    pub fn kill_shard(mut self, shard: u32, epoch: u64) -> Self {
        self.events.push(FaultEvent::ShardKill { shard, epoch });
        self
    }

    /// Adds a shard-thread stall (hang-detection trigger) of `ms`
    /// milliseconds at the boundary of `epoch`.
    pub fn stall_shard(mut self, shard: u32, epoch: u64, ms: u64) -> Self {
        self.events
            .push(FaultEvent::ShardStall { shard, epoch, ms });
        self
    }

    /// Adds a transient slowdown window on `node`.
    pub fn slow_node(mut self, node: u32, start: f64, duration: f64, factor: f64) -> Self {
        self.events.push(FaultEvent::Slowdown {
            node,
            start,
            duration,
            factor,
        });
        self
    }

    /// Sets the message loss rate.
    pub fn with_loss_rate(mut self, rate: f64) -> Self {
        self.loss_rate = rate;
        self
    }

    /// Sets the message duplication rate.
    pub fn with_dup_rate(mut self, rate: f64) -> Self {
        self.dup_rate = rate;
        self
    }

    /// Sets the message delay rate and the per-message extra delay.
    pub fn with_delay(mut self, rate: f64, delay_s: f64) -> Self {
        self.delay_rate = rate;
        self.delay_s = delay_s;
        self
    }

    /// Sets the silent-data-corruption rate.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// The `--faults <seed>,<rate>` plan of the figure binaries:
    /// message loss at `rate` with everything else clean.
    pub fn from_seed_rate(seed: u64, rate: f64) -> Self {
        FaultPlan::new(seed).with_loss_rate(rate)
    }

    /// A seeded single-shard crash for a machine of `num_shards`
    /// shards: the crashing shard and the crash epoch (in
    /// `1..=max_epoch`) are both drawn from the seed. Used by the
    /// `REGENT_FAULT_SEED` CI smoke path.
    pub fn seeded_crash(seed: u64, num_shards: usize, max_epoch: u64) -> Self {
        let h1 = splitmix64(seed ^ 0xC2B2_AE3D_27D4_EB4F);
        let h2 = splitmix64(h1);
        let shard = (h1 % num_shards.max(1) as u64) as u32;
        let epoch = 1 + h2 % max_epoch.max(1);
        FaultPlan::new(seed).crash_shard(shard, epoch)
    }

    /// A seeded single-shard *kill* (membership loss, not rollback) for
    /// a machine of `num_shards` shards: victim and epoch drawn from
    /// the seed exactly like [`FaultPlan::seeded_crash`], but salted so
    /// the same seed produces different (shard, epoch) choices for the
    /// two fault kinds.
    pub fn seeded_kill(seed: u64, num_shards: usize, max_epoch: u64) -> Self {
        let h1 = splitmix64(seed ^ KILL_SALT);
        let h2 = splitmix64(h1);
        let shard = (h1 % num_shards.max(1) as u64) as u32;
        let epoch = 1 + h2 % max_epoch.max(1);
        FaultPlan::new(seed).kill_shard(shard, epoch)
    }

    /// True when the plan can do anything at all.
    pub fn is_active(&self) -> bool {
        !self.events.is_empty()
            || self.loss_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || self.corrupt_rate > 0.0
    }

    /// True when the plan schedules at least one crash.
    pub fn has_crashes(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::ShardCrash { .. }))
    }

    /// All kill events `(shard, epoch)`, sorted by epoch then shard —
    /// the deterministic order consumers process them in.
    pub fn kill_schedule(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::ShardKill { shard, epoch } => Some((shard, epoch)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|&(s, e)| (e, s));
        v
    }

    /// All stall events `(shard, epoch, ms)`, sorted by epoch then
    /// shard — the deterministic order consumers process them in.
    pub fn stall_schedule(&self) -> Vec<(u32, u64, u64)> {
        let mut v: Vec<(u32, u64, u64)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::ShardStall { shard, epoch, ms } => Some((shard, epoch, ms)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|&(s, e, _)| (e, s));
        v
    }

    /// All crash events `(shard, epoch)`, sorted by epoch then shard —
    /// the deterministic order consumers process them in.
    pub fn crash_schedule(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::ShardCrash { shard, epoch } => Some((shard, epoch)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|&(s, e)| (e, s));
        v
    }

    /// Combined slowdown factor for work starting at virtual time `t`
    /// on `node` (1.0 when no window applies; overlapping windows
    /// multiply).
    pub fn slowdown_factor(&self, node: u32, t: f64) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let FaultEvent::Slowdown {
                node: n,
                start,
                duration,
                factor,
            } = *e
            {
                if n == node && t >= start && t < start + duration {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Decides the fate of delivery attempt `attempt` of the message
    /// identified by `key`. Pure function of `(seed, key, attempt)` —
    /// identical across runs and independent of scheduling order.
    pub fn message_fate(&self, key: u64, attempt: u32) -> MessageFate {
        if self.loss_rate == 0.0 && self.dup_rate == 0.0 && self.delay_rate == 0.0 {
            return MessageFate::Deliver;
        }
        let h = splitmix64(self.seed ^ splitmix64(key ^ ((attempt as u64) << 48)));
        let u = unit_f64(h);
        if u < self.loss_rate {
            MessageFate::Lose
        } else if u < self.loss_rate + self.dup_rate {
            MessageFate::Duplicate
        } else if u < self.loss_rate + self.dup_rate + self.delay_rate {
            MessageFate::Delay
        } else {
            MessageFate::Deliver
        }
    }

    /// Decides whether delivery attempt `attempt` of the exchange
    /// payload identified by `key` (see [`message_key`]) suffers a
    /// silent bit flip in flight. Returns the flip entropy when it
    /// does. Pure function of `(seed, key, attempt)`: sender and
    /// receiver — and a replayed epoch after rollback — all see the
    /// same corruption stream. Salted separately from
    /// [`FaultPlan::message_fate`] so corruption and loss decisions for
    /// the same attempt are independent.
    pub fn payload_corruption(&self, key: u64, attempt: u32) -> Option<u64> {
        if self.corrupt_rate <= 0.0 {
            return None;
        }
        let h = splitmix64(
            self.seed ^ CORRUPT_PAYLOAD_SALT ^ splitmix64(key ^ ((attempt as u64) << 48)),
        );
        (unit_f64(h) < self.corrupt_rate).then(|| splitmix64(h))
    }

    /// Decides whether a resident instance is silently corrupted during
    /// `epoch`: `Some((victim_shard, entropy))` when one is. Pure
    /// function of `(seed, epoch, num_shards)`, so every shard in a
    /// control-replicated run independently reaches the same rollback
    /// decision — the victim flips a bit and detects the stale seal,
    /// while its peers roll back in lockstep without any message.
    pub fn resident_corruption(&self, epoch: u64, num_shards: usize) -> Option<(u32, u64)> {
        if self.corrupt_rate <= 0.0 || num_shards == 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ CORRUPT_RESIDENT_SALT ^ splitmix64(epoch));
        if unit_f64(h) < self.corrupt_rate {
            let h2 = splitmix64(h);
            Some(((h2 % num_shards as u64) as u32, splitmix64(h2)))
        } else {
            None
        }
    }
}

/// Domain-separation salt for seeded kill (membership-loss) draws.
const KILL_SALT: u64 = 0x9E6C_63D0_0A1B_4F2D;
/// Domain-separation salt for in-flight payload corruption decisions.
const CORRUPT_PAYLOAD_SALT: u64 = 0x5DEE_CE66_D10C_E1A5;
/// Domain-separation salt for resident-instance corruption decisions.
const CORRUPT_RESIDENT_SALT: u64 = 0x27BB_2EE6_87B0_B0FD;

/// Parses a `REGENT_FAULT_SEED`-style value: a bare unsigned integer,
/// surrounding whitespace tolerated. `None` on anything else (empty,
/// signed, non-numeric, overflow) — callers fall back to a fault-free
/// run instead of panicking.
pub fn parse_seed(s: &str) -> Option<u64> {
    s.trim().parse().ok()
}

/// Parses a `REGENT_CORRUPT` / `--corrupt` spec: `<seed>,<rate>` where
/// `seed` is an unsigned integer and `rate` a probability in
/// `[0.0, 1.0]`. Rejects (returns `None`) on a missing comma, empty or
/// malformed components, non-finite rates, and rates outside `[0, 1]`.
pub fn parse_corrupt_spec(s: &str) -> Option<(u64, f64)> {
    let (seed, rate) = s.split_once(',')?;
    let seed = parse_seed(seed)?;
    let rate: f64 = rate.trim().parse().ok()?;
    (rate.is_finite() && (0.0..=1.0).contains(&rate)).then_some((seed, rate))
}

/// Stable identity of a simulated or real message, for
/// [`FaultPlan::message_fate`]. Built from scheduling-order-independent
/// coordinates (kind/node/step/occurrence, or copy/pair/occurrence) so
/// that permuting construction order does not re-roll the dice.
pub fn message_key(a: u64, b: u64, c: u64, d: u64) -> u64 {
    splitmix64(a ^ splitmix64(b ^ splitmix64(c ^ splitmix64(d))))
}

/// What a fault-injected run actually experienced.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Message attempts lost in flight (each triggers a retransmit).
    pub messages_lost: u64,
    /// Messages delivered twice.
    pub messages_duplicated: u64,
    /// Messages delivered late.
    pub messages_delayed: u64,
    /// Retransmissions performed.
    pub retries: u64,
    /// Deliveries forced through after exhausting
    /// [`RetryPolicy::max_attempts`].
    pub forced_deliveries: u64,
    /// Total backoff time spent waiting for retransmits, seconds.
    pub total_backoff_s: f64,
    /// Crashes injected.
    pub crashes: u64,
    /// Silent bit flips injected (payload or resident).
    pub corruptions_injected: u64,
    /// Checksum mismatches detected at a verification point.
    pub corruptions_detected: u64,
    /// Corruptions repaired locally (payload retransmit).
    pub corruptions_repaired: u64,
    /// Corruptions escalated to coordinated checkpoint rollback
    /// (resident) or reported as a failed run (retry exhaustion).
    pub corruptions_escalated: u64,
    /// Epochs / time steps re-executed during recovery.
    pub epochs_replayed: u64,
    /// Time spent in recovery (detection + state re-distribution),
    /// seconds of virtual time (simulator only).
    pub recovery_time_s: f64,
}

impl FaultStats {
    /// Accumulates another record into this one.
    pub fn merge(&mut self, o: &FaultStats) {
        self.messages_lost += o.messages_lost;
        self.messages_duplicated += o.messages_duplicated;
        self.messages_delayed += o.messages_delayed;
        self.retries += o.retries;
        self.forced_deliveries += o.forced_deliveries;
        self.total_backoff_s += o.total_backoff_s;
        self.crashes += o.crashes;
        self.corruptions_injected += o.corruptions_injected;
        self.corruptions_detected += o.corruptions_detected;
        self.corruptions_repaired += o.corruptions_repaired;
        self.corruptions_escalated += o.corruptions_escalated;
        self.epochs_replayed += o.epochs_replayed;
        self.recovery_time_s += o.recovery_time_s;
    }
}

/// SplitMix64 — the workspace's standard dependency-free mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Why a shard left the membership. Carried through barrier poisoning
/// and ring seals as structured data (not a string diagnostic) so
/// survivors — and `regent-prof` — can tell *who* died and *why*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeathCause {
    /// An injected membership kill ([`FaultEvent::ShardKill`]) fired at
    /// the given epoch boundary.
    Killed {
        /// The epoch boundary at which the kill fired.
        epoch: u64,
    },
    /// The shard thread panicked (application or runtime defect, or an
    /// injected transient).
    Panicked,
    /// A peer blamed this shard for a hang: it failed to produce an
    /// expected message within the hang timeout.
    Hung,
}

/// A structured shard-death record: who died and why. Recorded on the
/// executor's death board by the victim (kill, panic) or by the
/// blaming waiter (hang), and carried through `ShardBarrier` poisoning
/// and ring seals in place of the old string-only diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerDeath {
    /// The shard that left the membership.
    pub shard: u32,
    /// Why it left.
    pub cause: DeathCause,
}

impl std::fmt::Display for PeerDeath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cause {
            DeathCause::Killed { epoch } => {
                write!(f, "shard {} killed at epoch {}", self.shard, epoch)
            }
            DeathCause::Panicked => write!(f, "shard {} panicked", self.shard),
            DeathCause::Hung => write!(f, "shard {} hung past the timeout", self.shard),
        }
    }
}

/// Diagnostic prefix of a shard-loss unwind: a shard left the
/// membership (injected kill or unrecoverable thread death) and the
/// attempt cannot finish at full membership. [`classify_failure`] maps
/// it to [`FailureClass::Transient`] — a failover-capable supervisor
/// recovers in place on N−1 shards; a plain one retries from scratch.
pub const SHARD_LOSS_PREFIX: &str = "shard lost";

/// Diagnostic prefix emitted when live failover gives up: the run lost
/// more shards than its `max_failovers` budget allows (or membership hit
/// the floor). Classified [`FailureClass::Permanent`] — retrying the
/// same plan would lose the same shards again.
pub const FAILOVER_EXHAUSTED_PREFIX: &str = "failover budget exhausted";

/// Diagnostic prefix of a cooperative cancellation unwind (deadline
/// exhaustion or explicit supervisor cancel). The cancellation token
/// panics with this prefix; [`classify_failure`] maps it back to
/// [`FailureClass::Cancelled`].
pub const CANCEL_PREFIX: &str = "job cancelled";

/// Diagnostic prefix of an injected transient fault — a deterministic,
/// seeded "machine hiccup" a supervisor should retry through rather
/// than surface.
pub const TRANSIENT_PREFIX: &str = "injected transient fault";

/// Supervisor-level classification of a failed executor run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// The job was cooperatively cancelled (deadline budget exhausted
    /// or an explicit supervisor cancel): terminal, do not retry, not a
    /// defect.
    Cancelled,
    /// A transient environmental fault (injected transient, likely
    /// deadlock under load): retry with backoff is warranted.
    Transient,
    /// Anything else — an application or runtime defect. Retrying
    /// cannot help; the job must be quarantined.
    Permanent,
}

/// Classifies a panic diagnostic captured from an executor run (the
/// aggregated shard-failure message). Matching is substring-based
/// because the executors wrap the root cause ("shard 3 panicked:
/// ...").
///
/// * [`FAILOVER_EXHAUSTED_PREFIX`] → [`FailureClass::Permanent`]
///   (checked first: the exhausted message wraps the underlying
///   shard-loss diagnostic, which alone would read as transient)
/// * [`CANCEL_PREFIX`] → [`FailureClass::Cancelled`]
/// * [`TRANSIENT_PREFIX`], [`SHARD_LOSS_PREFIX`], or a
///   `"likely deadlock"` hang-timeout diagnostic →
///   [`FailureClass::Transient`]
/// * everything else → [`FailureClass::Permanent`]
pub fn classify_failure(msg: &str) -> FailureClass {
    if msg.contains(FAILOVER_EXHAUSTED_PREFIX) {
        FailureClass::Permanent
    } else if msg.contains(CANCEL_PREFIX) {
        FailureClass::Cancelled
    } else if msg.contains(TRANSIENT_PREFIX)
        || msg.contains(SHARD_LOSS_PREFIX)
        || msg.contains("likely deadlock")
    {
        FailureClass::Transient
    } else {
        FailureClass::Permanent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_classification() {
        assert_eq!(
            classify_failure("shard 2 panicked: job cancelled: deadline budget exhausted"),
            FailureClass::Cancelled
        );
        assert_eq!(
            classify_failure("shard 0 panicked: injected transient fault: shard 0 unavailable"),
            FailureClass::Transient
        );
        assert_eq!(
            classify_failure("likely deadlock: shard 1 waited 30s on copy 0 pair 2"),
            FailureClass::Transient
        );
        assert_eq!(
            classify_failure("index out of bounds: the len is 4"),
            FailureClass::Permanent
        );
    }

    #[test]
    fn failover_classification() {
        // Shard loss is transient: a failover-capable supervisor
        // recovers in place, a plain one retries.
        assert_eq!(
            classify_failure("shard 1 panicked: shard lost: shard 1 killed at epoch 2"),
            FailureClass::Transient
        );
        // Exhausted failover budget is permanent even though the
        // wrapped message carries the transient shard-loss marker.
        assert_eq!(
            classify_failure(
                "failover budget exhausted after 2 membership changes: \
                 shard lost: shard 0 killed at epoch 3"
            ),
            FailureClass::Permanent
        );
    }

    #[test]
    fn kill_schedule_sorted_and_separate_from_crashes() {
        let p = FaultPlan::new(0)
            .kill_shard(3, 9)
            .crash_shard(1, 2)
            .kill_shard(0, 9)
            .kill_shard(2, 1);
        assert_eq!(p.kill_schedule(), vec![(2, 1), (0, 9), (3, 9)]);
        assert_eq!(p.crash_schedule(), vec![(1, 2)]);
        assert!(p.has_crashes() && p.is_active());
        assert!(FaultPlan::new(0)
            .crash_shard(1, 2)
            .kill_schedule()
            .is_empty());
    }

    #[test]
    fn seeded_kill_in_bounds_and_salted() {
        for seed in 0..50 {
            let sched = FaultPlan::seeded_kill(seed, 4, 3).kill_schedule();
            assert_eq!(sched.len(), 1);
            let (shard, epoch) = sched[0];
            assert!(shard < 4);
            assert!((1..=3).contains(&epoch));
        }
        // The kill draw is salted independently of the crash draw:
        // the same seed must not always pick the same victim/epoch.
        let diverges = (0..50).any(|s| {
            FaultPlan::seeded_kill(s, 4, 4).kill_schedule()
                != FaultPlan::seeded_crash(s, 4, 4).crash_schedule()
        });
        assert!(diverges, "kill and crash draws are not salted apart");
    }

    #[test]
    fn peer_death_display() {
        let d = PeerDeath {
            shard: 2,
            cause: DeathCause::Killed { epoch: 3 },
        };
        assert_eq!(d.to_string(), "shard 2 killed at epoch 3");
        let d = PeerDeath {
            shard: 0,
            cause: DeathCause::Panicked,
        };
        assert_eq!(d.to_string(), "shard 0 panicked");
        let d = PeerDeath {
            shard: 1,
            cause: DeathCause::Hung,
        };
        assert_eq!(d.to_string(), "shard 1 hung past the timeout");
        // The standard unwind wrapping stays transient end to end.
        assert_eq!(
            classify_failure(&format!("{SHARD_LOSS_PREFIX}: {d}")),
            FailureClass::Transient
        );
    }

    #[test]
    fn message_fate_is_deterministic() {
        let p = FaultPlan::new(7).with_loss_rate(0.3).with_dup_rate(0.1);
        for key in 0..200u64 {
            for attempt in 0..4 {
                assert_eq!(
                    p.message_fate(key, attempt),
                    p.message_fate(key, attempt),
                    "key {key} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let p = FaultPlan::new(42).with_loss_rate(0.25);
        let n = 20_000;
        let lost = (0..n)
            .filter(|&k| p.message_fate(k, 0) == MessageFate::Lose)
            .count();
        let frac = lost as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "observed loss rate {frac}");
    }

    #[test]
    fn different_seeds_different_fates() {
        let a = FaultPlan::new(1).with_loss_rate(0.5);
        let b = FaultPlan::new(2).with_loss_rate(0.5);
        let diff = (0..1000u64)
            .filter(|&k| a.message_fate(k, 0) != b.message_fate(k, 0))
            .count();
        assert!(diff > 200, "seeds barely changed the plan: {diff}");
    }

    #[test]
    fn attempts_reroll() {
        // A lost first attempt must not doom every retry: with 50%
        // loss, some messages lost at attempt 0 succeed at attempt 1.
        let p = FaultPlan::new(3).with_loss_rate(0.5);
        let recovered = (0..1000u64)
            .filter(|&k| {
                p.message_fate(k, 0) == MessageFate::Lose
                    && p.message_fate(k, 1) == MessageFate::Deliver
            })
            .count();
        assert!(recovered > 50, "retries never recover: {recovered}");
    }

    #[test]
    fn slowdown_windows() {
        let p = FaultPlan::new(0).slow_node(2, 1.0, 2.0, 3.0);
        assert_eq!(p.slowdown_factor(2, 0.5), 1.0);
        assert_eq!(p.slowdown_factor(2, 1.0), 3.0);
        assert_eq!(p.slowdown_factor(2, 2.9), 3.0);
        assert_eq!(p.slowdown_factor(2, 3.0), 1.0);
        assert_eq!(p.slowdown_factor(1, 1.5), 1.0);
        // Overlapping windows compound.
        let p = p.slow_node(2, 0.0, 10.0, 2.0);
        assert_eq!(p.slowdown_factor(2, 1.5), 6.0);
    }

    #[test]
    fn crash_schedule_sorted() {
        let p = FaultPlan::new(0)
            .crash_shard(3, 9)
            .crash_shard(1, 2)
            .crash_shard(0, 9);
        assert_eq!(p.crash_schedule(), vec![(1, 2), (0, 9), (3, 9)]);
        assert!(p.has_crashes());
        assert!(p.is_active());
    }

    #[test]
    fn seeded_crash_in_bounds() {
        for seed in 0..50 {
            let p = FaultPlan::seeded_crash(seed, 4, 3);
            let sched = p.crash_schedule();
            assert_eq!(sched.len(), 1);
            let (shard, epoch) = sched[0];
            assert!(shard < 4);
            assert!((1..=3).contains(&epoch));
        }
        // Different seeds hit different shards eventually.
        let shards: std::collections::HashSet<u32> = (0..50)
            .map(|s| FaultPlan::seeded_crash(s, 4, 3).crash_schedule()[0].0)
            .collect();
        assert!(shards.len() > 1);
    }

    #[test]
    fn retry_backoff_grows() {
        let r = RetryPolicy::default();
        assert!(r.backoff_delay(1) > r.backoff_delay(0));
        assert_eq!(r.backoff_delay(0), r.timeout);
        assert_eq!(r.backoff_delay(2), r.timeout * 4.0);
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::new(99);
        assert!(!p.is_active());
        assert_eq!(p.message_fate(123, 0), MessageFate::Deliver);
        assert_eq!(p.slowdown_factor(0, 5.0), 1.0);
        assert!(p.crash_schedule().is_empty());
    }

    /// Satellite: golden determinism. The seeded streams are pure
    /// integer arithmetic and must produce byte-identical schedules on
    /// every platform; these committed values catch any drift in the
    /// SplitMix64 mixing or the fate thresholds.
    #[test]
    fn golden_crash_schedules() {
        let golden: &[(u64, u32, u64)] = &[
            (0, 0, 4),
            (1, 1, 3),
            (7, 1, 4),
            (42, 3, 2),
            (12345, 2, 3),
            (u64::MAX, 0, 3),
        ];
        for &(seed, shard, epoch) in golden {
            let sched = FaultPlan::seeded_crash(seed, 4, 4).crash_schedule();
            assert_eq!(
                sched,
                vec![(shard, epoch)],
                "seeded_crash({seed}, 4, 4) drifted"
            );
        }
    }

    #[test]
    fn golden_message_fates() {
        use MessageFate::{Delay, Deliver, Duplicate, Lose};
        let p = FaultPlan::new(7)
            .with_loss_rate(0.3)
            .with_dup_rate(0.2)
            .with_delay(0.1, 1e-6);
        let fates: Vec<MessageFate> = (0..8u64)
            .flat_map(|k| (0..2u32).map(move |a| (k, a)))
            .map(|(k, a)| p.message_fate(message_key(1, k, a as u64, 0), a))
            .collect();
        let golden = vec![
            Deliver, Deliver, Duplicate, Duplicate, Deliver, Lose, Deliver, Delay, Duplicate,
            Delay, Deliver, Deliver, Delay, Deliver, Lose, Duplicate,
        ];
        assert_eq!(fates, golden, "seeded fate stream drifted");
    }

    #[test]
    fn golden_corruption_stream() {
        let p = FaultPlan::new(11).with_corrupt_rate(0.25);
        let hits: Vec<u32> = (0..32u64)
            .filter(|&k| p.payload_corruption(message_key(2, k, 0, 0), 0).is_some())
            .map(|k| k as u32)
            .collect();
        assert_eq!(
            hits,
            vec![10, 18, 23, 28],
            "payload corruption stream drifted"
        );
        let residents: Vec<(u64, u32)> = (0..32u64)
            .filter_map(|e| p.resident_corruption(e, 4).map(|(s, _)| (e, s)))
            .collect();
        assert_eq!(
            residents,
            vec![(1, 2), (19, 0), (24, 1), (28, 1)],
            "resident corruption stream drifted"
        );
    }

    #[test]
    fn payload_corruption_is_pure_and_rerolls() {
        let p = FaultPlan::new(5).with_corrupt_rate(0.5);
        let mut hit = 0;
        let mut recovered = 0;
        for k in 0..1000u64 {
            assert_eq!(p.payload_corruption(k, 0), p.payload_corruption(k, 0));
            if p.payload_corruption(k, 0).is_some() {
                hit += 1;
                if p.payload_corruption(k, 1).is_none() {
                    recovered += 1;
                }
            }
        }
        assert!((400..600).contains(&hit), "rate not honored: {hit}");
        assert!(recovered > 100, "retransmits never come back clean");
        // Corruption is independent of the loss fate for the same key.
        let q = p.clone().with_loss_rate(0.5);
        assert_eq!(p.payload_corruption(77, 0), q.payload_corruption(77, 0));
    }

    #[test]
    fn resident_corruption_bounds() {
        let p = FaultPlan::new(9).with_corrupt_rate(1.0);
        for e in 0..50 {
            let (shard, _) = p.resident_corruption(e, 3).expect("rate 1.0 always fires");
            assert!(shard < 3);
        }
        assert_eq!(
            p.resident_corruption(0, 0),
            None,
            "zero shards must not panic"
        );
        let clean = FaultPlan::new(9);
        assert_eq!(clean.resident_corruption(5, 3), None);
        assert_eq!(clean.payload_corruption(5, 0), None);
        assert!(p.is_active(), "corrupt rate alone activates the plan");
    }

    /// Satellite: env-spec parsing must fall back cleanly, never panic.
    #[test]
    fn parse_seed_edge_cases() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed(" 42\n"), Some(42));
        assert_eq!(parse_seed(&u64::MAX.to_string()), Some(u64::MAX));
        for bad in ["", " ", "abc", "-1", "1.5", "0x10", "18446744073709551616"] {
            assert_eq!(parse_seed(bad), None, "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_corrupt_spec_edge_cases() {
        assert_eq!(parse_corrupt_spec("7,0.01"), Some((7, 0.01)));
        assert_eq!(parse_corrupt_spec("0,0"), Some((0, 0.0)));
        assert_eq!(parse_corrupt_spec(" 3 , 1.0 "), Some((3, 1.0)));
        for bad in [
            "", ",", "7", "7,", ",0.5", "abc,0.5", "7,abc", "7,-0.1", "7,1.5", "7,NaN", "7,inf",
            "-1,0.5", "7,0.5,9",
        ] {
            assert_eq!(parse_corrupt_spec(bad), None, "{bad:?} should be rejected");
        }
    }

    /// Zero-shard machines must produce a degenerate but valid plan.
    #[test]
    fn seeded_crash_zero_shards() {
        let p = FaultPlan::seeded_crash(1, 0, 0);
        let sched = p.crash_schedule();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].0, 0, "zero shards clamps to shard 0");
        assert!(sched[0].1 >= 1);
    }

    #[test]
    fn stats_merge() {
        let mut a = FaultStats {
            messages_lost: 1,
            retries: 2,
            crashes: 1,
            epochs_replayed: 3,
            ..FaultStats::default()
        };
        let b = FaultStats {
            messages_lost: 4,
            total_backoff_s: 0.5,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.messages_lost, 5);
        assert_eq!(a.retries, 2);
        assert_eq!(a.total_backoff_s, 0.5);
    }
}
