//! # regent-fault
//!
//! Deterministic, seeded fault plans for the real SPMD executor
//! (`regent-runtime`), the record of a shard's death, and the
//! workspace's one seeded stream.
//!
//! The paper's SPMD shards coordinate purely through point-to-point
//! synchronization (§3.4), so a single failed shard stalls every peer.
//! This crate provides the *model* of what can fail — it decides
//! nothing about recovery, which lives in the executor:
//!
//! * **Scheduled events** ([`FaultEvent`]) — a shard crash, kill or
//!   stall at a given epoch (an outermost-loop iteration).
//! * **Silent data corruption** — seeded bit-flip injection into
//!   resident instance buffers and in-flight exchange payloads
//!   ([`FaultPlan::with_corrupt_rate`]), decided by pure hashes of the
//!   message / epoch identity so that injection, detection, and repair
//!   are reproducible and every SPMD shard reaches the same rollback
//!   decision without communicating.
//! * **Shard deaths** — the structured record of a shard leaving the
//!   membership ([`PeerDeath`]) and the diagnostic prefixes of a shard
//!   loss and of failover giving up.
//! * **[`SplitMix64`]** — the workspace's one seeded stream, on the
//!   same mix as the fault hashes: Circuit's random graphs and the
//!   test suites' random inputs are drawn from it.
//!
//! It is a leaf crate, with no dependencies, because the crates below
//! the executor (`regent-geometry`, `regent-region`, `regent-machine`,
//! `regent-apps`) draw their seeded streams from it without depending
//! on the executor.
//!
//! Determinism is the whole point: the test suites assert that a run
//! under an active fault plan is reproducible (same seed ⇒ same
//! schedule) and that checkpoint–restart recovery yields bit-identical
//! results to a fault-free run.

#![warn(missing_docs)]

/// One scheduled (non-probabilistic) fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// A shard crashes at the start of the given epoch, losing all
    /// state since the last checkpoint.
    ShardCrash {
        /// The shard that dies.
        shard: u32,
        /// Zero-based epoch (outermost-loop iteration) at whose start
        /// the crash is injected.
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
}

/// A deterministic fault plan: scheduled events plus a seeded
/// corruption rate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Scheduled crash / kill / stall events.
    pub events: Vec<FaultEvent>,
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

    /// Adds a shard crash at the start of `epoch`.
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

    /// Sets the silent-data-corruption rate.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
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

    /// Decides whether delivery attempt `attempt` of the exchange
    /// payload identified by `key` (see [`message_key`]) suffers a
    /// silent bit flip in flight. Returns the flip entropy when it
    /// does. Pure function of `(seed, key, attempt)`: sender and
    /// receiver — and a replayed epoch after rollback — all see the
    /// same corruption stream.
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

/// Parses a `REGENT_CORRUPT` spec: `<seed>,<rate>` where
/// `seed` is an unsigned integer and `rate` a probability in
/// `[0.0, 1.0]`. Rejects (returns `None`) on a missing comma, empty or
/// malformed components, non-finite rates, and rates outside `[0, 1]`.
pub fn parse_corrupt_spec(s: &str) -> Option<(u64, f64)> {
    let (seed, rate) = s.split_once(',')?;
    let seed = parse_seed(seed)?;
    let rate: f64 = rate.trim().parse().ok()?;
    (rate.is_finite() && (0.0..=1.0).contains(&rate)).then_some((seed, rate))
}

/// Stable identity of a message, for [`FaultPlan::payload_corruption`]
/// (and the simulator's same-time event order). Built from
/// scheduling-order-independent coordinates (copy/pair/occurrence, or
/// kind/node/step/occurrence) so that permuting construction order does
/// not re-roll the dice.
pub fn message_key(a: u64, b: u64, c: u64, d: u64) -> u64 {
    splitmix64(a ^ splitmix64(b ^ splitmix64(c ^ splitmix64(d))))
}

/// The Weyl increment of [`splitmix64`] and [`SplitMix64`].
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 — the workspace's standard dependency-free mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The SplitMix64 stream (Steele, Lea & Flood 2014): a Weyl sequence
/// through the [`splitmix64`] mix. It generates every seeded input in
/// the workspace — Circuit graphs and the test suites' random cases —
/// with no external crate, and the sequence is fixed forever, so
/// generated inputs are stable across toolchains and platforms.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds give equal
    /// sequences.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        z
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform integer from `[0, bound)` (`bound > 0`). Uses Lemire's
    /// multiply-then-check rejection, so the draw is exactly uniform.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
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
    /// The shard thread panicked (an application or runtime defect).
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
/// attempt cannot finish at full membership. `run_failover` recovers
/// in place on N−1 shards; a plain run fails with it.
pub const SHARD_LOSS_PREFIX: &str = "shard lost";

/// Diagnostic prefix emitted when live failover gives up: the run lost
/// more shards than its `max_failovers` budget allows (or membership hit
/// the floor). Retrying the same plan would lose the same shards again.
pub const FAILOVER_EXHAUSTED_PREFIX: &str = "failover budget exhausted";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_schedule_sorted_and_separate_from_crashes() {
        let p = FaultPlan::new(0)
            .kill_shard(3, 9)
            .crash_shard(1, 2)
            .kill_shard(0, 9)
            .kill_shard(2, 1);
        assert_eq!(p.kill_schedule(), vec![(2, 1), (0, 9), (3, 9)]);
        assert_eq!(p.crash_schedule(), vec![(1, 2)]);
        assert!(p.has_crashes());
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
    }

    #[test]
    fn crash_schedule_sorted() {
        let p = FaultPlan::new(0)
            .crash_shard(3, 9)
            .crash_shard(1, 2)
            .crash_shard(0, 9);
        assert_eq!(p.crash_schedule(), vec![(1, 2), (0, 9), (3, 9)]);
        assert!(p.has_crashes());
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
    fn empty_plan_is_inert() {
        let p = FaultPlan::new(99);
        assert!(p.crash_schedule().is_empty());
        assert!(p.kill_schedule().is_empty() && p.stall_schedule().is_empty());
        assert_eq!(p.payload_corruption(123, 0), None);
        assert_eq!(p.resident_corruption(5, 3), None);
    }

    /// Satellite: golden determinism. The seeded streams are pure
    /// integer arithmetic and must produce byte-identical schedules on
    /// every platform; these committed values catch any drift in the
    /// SplitMix64 mixing.
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
    fn matches_reference_vectors() {
        // Reference sequence for seed 1234567 from the canonical C
        // implementation (Vigna, prng.di.unimi.it/splitmix64.c).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_is_in_bounds_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
    }

    #[test]
    fn f64_in_unit_interval_and_bool_frequency() {
        let mut r = SplitMix64::new(99);
        let mut hits = 0u32;
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            if r.gen_bool(0.25) {
                hits += 1;
            }
        }
        // 4 sigma around 2500 for n=10k, p=.25 is about ±173.
        assert!((2300..=2700).contains(&hits), "hits = {hits}");
    }
}
