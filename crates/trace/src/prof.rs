//! Prof-style analysis: per-track utilization, per-timestep control
//! cost, and the duration-weighted critical path.
//!
//! The per-step control cost is the paper's headline measurement: a
//! single control thread's dependence analysis grows with node count
//! (O(N) per timestep), while a control-replicated shard launches only
//! its own tasks (O(1) per timestep). Two extractors surface that from
//! traces:
//!
//! * `control_cost_per_step` — for *executor* traces: sums
//!   [`crate::EventKind::DepAnalysis`] span time between consecutive
//!   [`crate::EventKind::StepBegin`] markers on one track;
//! * [`sim_control_cost_per_step`] — for *simulator* traces: sums
//!   [`crate::EventKind::SimTask`] service time with kind `Launch` or
//!   `Analysis` per `(node, step)`, then takes the per-step maximum
//!   over nodes (nodes run concurrently, so the slowest one bounds the
//!   step).

use crate::event::{EventKind, SimKind};
use crate::graph::build_graph;
use crate::tracer::Trace;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Node-count ceiling above which [`ProfReport::analyze`] skips the
/// critical path (its reachability precompute is quadratic).
const CRITICAL_PATH_NODE_LIMIT: usize = 16_384;

/// Utilization summary of one track.
#[derive(Clone, Debug)]
pub struct TrackSummary {
    /// Track name.
    pub name: String,
    /// Events recorded.
    pub events: usize,
    /// Events lost to ring wrap-around.
    pub dropped: u64,
    /// Total span time (ns) on this track.
    pub busy_ns: u64,
    /// Wall extent (ns): last end minus first start.
    pub span_ns: u64,
    /// `busy_ns / span_ns` (0 for empty or instant-only tracks).
    pub utilization: f64,
}

/// Whole-trace profile.
#[derive(Clone, Debug)]
pub struct ProfReport {
    /// Per-track summaries, in trace order.
    pub tracks: Vec<TrackSummary>,
    /// Duration-weighted critical path length (ns), when the trace is
    /// small enough to reconstruct the happens-before graph and the
    /// graph is acyclic.
    pub critical_path_ns: Option<u64>,
    /// Events lost to ring wrap-around, summed over every track. A
    /// nonzero value means the profile (and any certification) is based
    /// on an *incomplete* record.
    pub dropped: u64,
}

impl ProfReport {
    /// Profiles a collected trace.
    pub fn analyze(trace: &Trace) -> ProfReport {
        let tracks = trace
            .tracks
            .iter()
            .map(|t| {
                let busy_ns: u64 = t.events.iter().map(|e| e.dur).sum();
                let span_ns = match (
                    t.events.iter().map(|e| e.ts).min(),
                    t.events.iter().map(|e| e.ts + e.dur).max(),
                ) {
                    (Some(lo), Some(hi)) => hi - lo,
                    _ => 0,
                };
                TrackSummary {
                    name: t.name.clone(),
                    events: t.events.len(),
                    dropped: t.dropped,
                    busy_ns,
                    span_ns,
                    utilization: if span_ns > 0 {
                        busy_ns as f64 / span_ns as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let sync_nodes = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| {
                !matches!(
                    e.kind,
                    EventKind::Counter { .. } | EventKind::SimTask { .. }
                )
            })
            .count();
        let critical_path_ns = if sync_nodes <= CRITICAL_PATH_NODE_LIMIT {
            build_graph(trace).ok().map(|g| g.critical_path().0)
        } else {
            None
        };
        ProfReport {
            tracks,
            critical_path_ns,
            dropped: trace.tracks.iter().map(|t| t.dropped).sum(),
        }
    }

    /// Renders the profile as an aligned text table.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .tracks
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "{:width$}  {:>8}  {:>8}  {:>12}  {:>12}  {:>6}",
            "track", "events", "dropped", "busy (us)", "span (us)", "util"
        );
        for t in &self.tracks {
            // Tracks whose spans overlap (e.g. a simulator track holding
            // every node's concurrent service intervals) can sum to more
            // busy time than wall extent; the displayed utilization is
            // clamped so the column stays a percentage.
            let _ = writeln!(
                out,
                "{:width$}  {:>8}  {:>8}  {:>12.1}  {:>12.1}  {:>5.1}%",
                t.name,
                t.events,
                t.dropped,
                t.busy_ns as f64 / 1e3,
                t.span_ns as f64 / 1e3,
                t.utilization.min(1.0) * 100.0
            );
        }
        if let Some(cp) = self.critical_path_ns {
            let _ = writeln!(out, "critical path: {:.1} us", cp as f64 / 1e3);
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} event(s) dropped to ring wrap-around — trace is incomplete",
                self.dropped
            );
        }
        out
    }
}

/// Per-timestep dependence-analysis cost (ns) of one executor track,
/// grouped by its [`crate::EventKind::StepBegin`] markers. Span time
/// before the first marker is attributed to step 0's predecessor and
/// dropped. Returns `(step, cost_ns)` pairs in step order.
pub(crate) fn control_cost_per_step(trace: &Trace, track: &str) -> Vec<(u64, u64)> {
    let Some(t) = trace.track(track) else {
        return Vec::new();
    };
    let mut out: Vec<(u64, u64)> = Vec::new();
    let mut current: Option<u64> = None;
    for e in &t.events {
        match e.kind {
            EventKind::StepBegin { step } => {
                current = Some(step);
                if out.last().map(|(s, _)| *s) != Some(step) {
                    out.push((step, 0));
                }
            }
            EventKind::DepAnalysis { .. } if current.is_some() => {
                if let Some(last) = out.last_mut() {
                    last.1 += e.dur;
                }
            }
            _ => {}
        }
    }
    out
}

/// Per-timestep control cost (virtual ns) of one *simulator* track:
/// `Launch` + `Analysis` service time summed per `(node, step)`, then
/// the maximum over nodes for each step. Returns `(step, cost_ns)` in
/// step order.
pub fn sim_control_cost_per_step(trace: &Trace, track: &str) -> Vec<(u64, u64)> {
    let Some(t) = trace.track(track) else {
        return Vec::new();
    };
    let mut per: HashMap<(u32, u32), u64> = HashMap::new();
    for e in &t.events {
        if let EventKind::SimTask { kind, node, step } = e.kind {
            if matches!(kind, SimKind::Launch | SimKind::Analysis) {
                *per.entry((node, step)).or_insert(0) += e.dur;
            }
        }
    }
    let mut by_step: HashMap<u32, u64> = HashMap::new();
    for ((_node, step), cost) in per {
        let slot = by_step.entry(step).or_insert(0);
        *slot = (*slot).max(cost);
    }
    let mut out: Vec<(u64, u64)> = by_step.into_iter().map(|(s, c)| (s as u64, c)).collect();
    out.sort_unstable();
    out
}

/// Epoch-trace memoization summary of one executor track: how many
/// epochs captured/replayed/diverged, and how the per-epoch dependence
/// analysis cost amortized (the runtime-level answer to the paper's
/// O(N)-per-step control overhead).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemoSummary {
    /// Epochs whose analysis was captured as a template.
    pub captures: u64,
    /// Epochs fully replayed from a template (no analysis ran).
    pub hits: u64,
    /// Replay attempts that diverged and fell back to analysis.
    pub misses: u64,
    /// Cache invalidations (region-forest version changes).
    pub invalidations: u64,
    /// Point tasks replayed without analysis.
    pub replayed_tasks: u64,
    /// Dependence-analysis span time (ns) attributed to the first
    /// observed epoch (capture cost).
    pub first_epoch_analysis_ns: u64,
    /// Mean dependence-analysis span time (ns) per epoch over every
    /// epoch after the first (0 when there is at most one epoch).
    pub steady_state_analysis_ns: f64,
}

impl MemoSummary {
    /// Hit rate over the steady-state epochs: replays divided by every
    /// epoch after the first capture opportunity. 1.0 when every
    /// post-capture epoch replayed; 0 when no epochs were observed.
    pub fn steady_state_hit_rate(&self) -> f64 {
        let steady = self.captures + self.hits + self.misses;
        if steady <= 1 {
            return 0.0;
        }
        self.hits as f64 / (steady - 1) as f64
    }
}

/// Summarizes epoch-trace memoization on one executor track: counts the
/// memo events and splits the per-step analysis cost (from
/// `control_cost_per_step`) into the first epoch vs the steady state.
pub fn memo_summary(trace: &Trace, track: &str) -> MemoSummary {
    let mut s = MemoSummary::default();
    if let Some(t) = trace.track(track) {
        for e in &t.events {
            match e.kind {
                EventKind::MemoCapture { tasks, .. } => {
                    s.captures += 1;
                    let _ = tasks;
                }
                EventKind::MemoHit { tasks, .. } => {
                    s.hits += 1;
                    s.replayed_tasks += tasks as u64;
                }
                EventKind::MemoMiss { .. } => s.misses += 1,
                EventKind::MemoInvalidate { .. } => s.invalidations += 1,
                _ => {}
            }
        }
    }
    let per_step = control_cost_per_step(trace, track);
    if let Some(&(_, first)) = per_step.first() {
        s.first_epoch_analysis_ns = first;
        let rest = &per_step[1..];
        if !rest.is_empty() {
            s.steady_state_analysis_ns =
                rest.iter().map(|(_, c)| *c as f64).sum::<f64>() / rest.len() as f64;
        }
    }
    s
}

/// Integrity summary of a whole trace: what the silent-data-corruption
/// layer injected, caught, and did about it, aggregated across every
/// shard track. `detection_latency_epochs` reports how far detection
/// lagged injection — always 0 in this runtime (corruption is caught at
/// the first verification boundary after it occurs), but recorded so a
/// regression shows up as a number, not a silent correctness hole.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IntegritySummary {
    /// Corruptions detected at a checksum verification point.
    pub detected: u64,
    /// Detections at exchange (point-to-point payload) sites.
    pub exchange_detected: u64,
    /// Detections at resident-instance sites.
    pub resident_detected: u64,
    /// Detections at collective-contribution sites.
    pub collective_detected: u64,
    /// Corruptions repaired locally by retransmission.
    pub repaired: u64,
    /// Corrupted delivery attempts absorbed by local repair.
    pub repair_attempts: u64,
    /// Corruptions escalated to coordinated rollback.
    pub escalated: u64,
    /// Checkpoint restores observed (every escalation triggers one per
    /// shard).
    pub restores: u64,
    /// Maximum epochs between a corruption occurring and its detection.
    pub detection_latency_epochs: u64,
}

impl IntegritySummary {
    /// Every detection must be resolved: repaired in place or escalated
    /// to rollback. Repair absorbs one detection per corrupted attempt.
    pub fn coherent(&self) -> bool {
        self.detected == self.repair_attempts + self.escalated
            && self.repaired <= self.repair_attempts
    }
}

/// Summarizes the integrity events of every track in `trace`.
pub fn integrity_summary(trace: &Trace) -> IntegritySummary {
    use crate::event::CorruptSite;
    let mut s = IntegritySummary::default();
    for t in &trace.tracks {
        for e in &t.events {
            match e.kind {
                EventKind::CorruptDetected { site, .. } => {
                    s.detected += 1;
                    match site {
                        CorruptSite::Exchange => s.exchange_detected += 1,
                        CorruptSite::Resident => s.resident_detected += 1,
                        CorruptSite::Collective => s.collective_detected += 1,
                    }
                }
                EventKind::CorruptRepaired { attempts, .. } => {
                    s.repaired += 1;
                    s.repair_attempts += attempts as u64;
                }
                EventKind::CorruptEscalated { .. } => s.escalated += 1,
                EventKind::CheckpointRestore { epoch, to_epoch } => {
                    s.restores += 1;
                    let _ = (epoch, to_epoch);
                }
                _ => {}
            }
        }
    }
    s
}

/// Failover summary of a whole trace: what the elastic-membership layer
/// observed and did, aggregated across every track (the failover driver
/// records onto a dedicated `failover` track). The cause split uses the
/// trace convention: 0 = killed, 1 = panicked, 2 = hung.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FailoverSummary {
    /// Shard deaths observed (root causes only — one per loss).
    pub deaths: u64,
    /// Deaths by injected kill (cause 0).
    pub killed: u64,
    /// Deaths by shard panic (cause 1).
    pub panicked: u64,
    /// Deaths by hang past the timeout (cause 2).
    pub hung: u64,
    /// Membership epochs established (one per survived loss).
    pub membership_changes: u64,
    /// Checkpoint reconstructions onto a shrunken membership.
    pub reconstructions: u64,
    /// Subregion instances rebuilt across all reconstructions.
    pub insts_rebuilt: u64,
    /// Span time (ns) spent reconstructing checkpoints.
    pub reconstruct_ns: u64,
    /// Final membership after the last change (0 when none occurred).
    pub final_shards: u32,
}

impl FailoverSummary {
    /// Every death must be resolved by a membership change — a death
    /// with no change means the run fail-stopped (budget exhausted) or
    /// the record is truncated.
    pub fn coherent(&self) -> bool {
        self.deaths == self.membership_changes
    }
}

/// Summarizes the elastic-membership events of every track in `trace`.
pub fn failover_summary(trace: &Trace) -> FailoverSummary {
    let mut s = FailoverSummary::default();
    for t in &trace.tracks {
        for e in &t.events {
            match e.kind {
                EventKind::PeerDeath { cause, .. } => {
                    s.deaths += 1;
                    match cause {
                        0 => s.killed += 1,
                        1 => s.panicked += 1,
                        _ => s.hung += 1,
                    }
                }
                EventKind::MembershipChange { to_shards, .. } => {
                    s.membership_changes += 1;
                    s.final_shards = to_shards;
                }
                EventKind::FailoverReconstruct { insts, .. } => {
                    s.reconstructions += 1;
                    s.insts_rebuilt += insts as u64;
                    s.reconstruct_ns += e.dur;
                }
                _ => {}
            }
        }
    }
    s
}

/// Mean of the cost column of a per-step series (0 when empty).
pub fn mean_step_cost(series: &[(u64, u64)]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().map(|(_, c)| *c as f64).sum::<f64>() / series.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::tracer::Track;

    fn track(name: &str, events: Vec<Event>) -> Track {
        Track {
            name: name.into(),
            events,
            dropped: 0,
        }
    }

    #[test]
    fn utilization_and_table() {
        let trace = Trace {
            tracks: vec![track(
                "w0",
                vec![
                    Event {
                        ts: 0,
                        dur: 50,
                        kind: EventKind::Mark { name: "a" },
                    },
                    Event {
                        ts: 100,
                        dur: 50,
                        kind: EventKind::Mark { name: "b" },
                    },
                ],
            )],
        };
        let p = ProfReport::analyze(&trace);
        assert_eq!(p.tracks[0].busy_ns, 100);
        assert_eq!(p.tracks[0].span_ns, 150);
        assert!((p.tracks[0].utilization - 100.0 / 150.0).abs() < 1e-9);
        assert!(p.format_table().contains("w0"));
    }

    #[test]
    fn overlapping_spans_render_at_most_100_percent() {
        // Two fully overlapping 100 ns spans: busy 200 ns over a 100 ns
        // extent. The raw ratio stays available; the rendered column is
        // clamped to 100%.
        let trace = Trace {
            tracks: vec![track(
                "sim",
                vec![
                    Event {
                        ts: 0,
                        dur: 100,
                        kind: EventKind::Mark { name: "a" },
                    },
                    Event {
                        ts: 0,
                        dur: 100,
                        kind: EventKind::Mark { name: "b" },
                    },
                ],
            )],
        };
        let p = ProfReport::analyze(&trace);
        assert!((p.tracks[0].utilization - 2.0).abs() < 1e-9);
        let table = p.format_table();
        assert!(table.contains("100.0%"), "{table}");
        assert!(!table.contains("200.0%"), "{table}");
    }

    #[test]
    fn dropped_events_flag_the_profile_incomplete() {
        let mut t = track("w0", Vec::new());
        t.dropped = 17;
        let p = ProfReport::analyze(&Trace { tracks: vec![t] });
        assert_eq!(p.dropped, 17);
        assert!(p.format_table().contains("incomplete"));
    }

    #[test]
    fn executor_step_costs_group_by_step_begin() {
        let dep = |d: u64| Event {
            ts: 0,
            dur: d,
            kind: EventKind::DepAnalysis {
                launch: 0,
                pos: 0,
                checks: 1,
            },
        };
        let step = |s: u64| Event {
            ts: 0,
            dur: 0,
            kind: EventKind::StepBegin { step: s },
        };
        let trace = Trace {
            tracks: vec![track(
                "control",
                vec![step(0), dep(10), dep(5), step(1), dep(7)],
            )],
        };
        assert_eq!(
            control_cost_per_step(&trace, "control"),
            vec![(0, 15), (1, 7)]
        );
        assert!(control_cost_per_step(&trace, "absent").is_empty());
    }

    #[test]
    fn integrity_summary_counts_and_coherence() {
        use crate::event::CorruptSite;
        let ev = |kind| Event {
            ts: 0,
            dur: 0,
            kind,
        };
        let trace = Trace {
            tracks: vec![
                track(
                    "shard-0",
                    vec![
                        // Two corrupted attempts on one exchange, then repair.
                        ev(EventKind::CorruptDetected {
                            site: CorruptSite::Exchange,
                            id: 3,
                            sub: 1,
                            epoch: 2,
                        }),
                        ev(EventKind::CorruptDetected {
                            site: CorruptSite::Exchange,
                            id: 3,
                            sub: 1,
                            epoch: 2,
                        }),
                        ev(EventKind::CorruptRepaired {
                            site: CorruptSite::Exchange,
                            id: 3,
                            sub: 1,
                            attempts: 2,
                        }),
                        ev(EventKind::CheckpointRestore {
                            epoch: 4,
                            to_epoch: 2,
                        }),
                    ],
                ),
                track(
                    "shard-1",
                    vec![
                        ev(EventKind::CorruptDetected {
                            site: CorruptSite::Resident,
                            id: 0,
                            sub: 0,
                            epoch: 4,
                        }),
                        ev(EventKind::CorruptEscalated { shard: 1, epoch: 4 }),
                        ev(EventKind::CheckpointRestore {
                            epoch: 4,
                            to_epoch: 2,
                        }),
                    ],
                ),
            ],
        };
        let s = integrity_summary(&trace);
        assert_eq!(s.detected, 3);
        assert_eq!(s.exchange_detected, 2);
        assert_eq!(s.resident_detected, 1);
        assert_eq!(s.repaired, 1);
        assert_eq!(s.repair_attempts, 2);
        assert_eq!(s.escalated, 1);
        assert_eq!(s.restores, 2);
        assert!(s.coherent(), "{s:?}");
        // A detection with no resolution breaks coherence.
        let bad = integrity_summary(&Trace {
            tracks: vec![track(
                "s",
                vec![ev(EventKind::CorruptDetected {
                    site: CorruptSite::Collective,
                    id: 1,
                    sub: 0,
                    epoch: 0,
                })],
            )],
        });
        assert!(!bad.coherent());
        assert_eq!(
            integrity_summary(&Trace { tracks: vec![] }),
            IntegritySummary::default()
        );
    }

    #[test]
    fn memo_summary_counts_and_amortization() {
        let dep = |d: u64| Event {
            ts: 0,
            dur: d,
            kind: EventKind::DepAnalysis {
                launch: 0,
                pos: 0,
                checks: 1,
            },
        };
        let step = |s: u64| Event {
            ts: 0,
            dur: 0,
            kind: EventKind::StepBegin { step: s },
        };
        let instant = |kind| Event {
            ts: 0,
            dur: 0,
            kind,
        };
        let trace = Trace {
            tracks: vec![track(
                "control",
                vec![
                    step(0),
                    dep(100),
                    dep(50),
                    instant(EventKind::MemoCapture {
                        epoch: 0,
                        key: 7,
                        tasks: 2,
                    }),
                    step(1),
                    instant(EventKind::MemoHit {
                        epoch: 1,
                        key: 7,
                        tasks: 2,
                    }),
                    step(2),
                    instant(EventKind::MemoHit {
                        epoch: 2,
                        key: 7,
                        tasks: 2,
                    }),
                ],
            )],
        };
        let s = memo_summary(&trace, "control");
        assert_eq!(s.captures, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
        assert_eq!(s.replayed_tasks, 4);
        assert_eq!(s.first_epoch_analysis_ns, 150);
        assert_eq!(s.steady_state_analysis_ns, 0.0);
        assert_eq!(s.steady_state_hit_rate(), 1.0);
        assert_eq!(memo_summary(&trace, "absent"), MemoSummary::default());
    }

    #[test]
    fn failover_summary_counts_causes_and_coherence() {
        let ev = |dur, kind| Event { ts: 0, dur, kind };
        let trace = Trace {
            tracks: vec![track(
                "failover",
                vec![
                    ev(
                        0,
                        EventKind::PeerDeath {
                            shard: 2,
                            cause: 0,
                            epoch: 3,
                        },
                    ),
                    ev(
                        120,
                        EventKind::FailoverReconstruct {
                            to_shards: 3,
                            insts: 9,
                            epoch: 2,
                        },
                    ),
                    ev(
                        0,
                        EventKind::MembershipChange {
                            from_shards: 4,
                            to_shards: 3,
                            dead_shard: 2,
                            epoch: 2,
                        },
                    ),
                    ev(
                        0,
                        EventKind::PeerDeath {
                            shard: 1,
                            cause: 2,
                            epoch: 0,
                        },
                    ),
                    ev(
                        80,
                        EventKind::FailoverReconstruct {
                            to_shards: 2,
                            insts: 6,
                            epoch: 2,
                        },
                    ),
                    ev(
                        0,
                        EventKind::MembershipChange {
                            from_shards: 3,
                            to_shards: 2,
                            dead_shard: 1,
                            epoch: 2,
                        },
                    ),
                ],
            )],
        };
        let s = failover_summary(&trace);
        assert_eq!(s.deaths, 2);
        assert_eq!(s.killed, 1);
        assert_eq!(s.panicked, 0);
        assert_eq!(s.hung, 1);
        assert_eq!(s.membership_changes, 2);
        assert_eq!(s.reconstructions, 2);
        assert_eq!(s.insts_rebuilt, 15);
        assert_eq!(s.reconstruct_ns, 200);
        assert_eq!(s.final_shards, 2);
        assert!(s.coherent(), "{s:?}");
        // A death without a membership change (budget exhausted) is
        // incoherent — the profiler flags it rather than hiding it.
        let bad = failover_summary(&Trace {
            tracks: vec![track(
                "failover",
                vec![ev(
                    0,
                    EventKind::PeerDeath {
                        shard: 0,
                        cause: 1,
                        epoch: 0,
                    },
                )],
            )],
        });
        assert!(!bad.coherent());
        assert_eq!(
            failover_summary(&Trace { tracks: vec![] }),
            FailoverSummary::default()
        );
    }

    #[test]
    fn sim_step_costs_take_max_over_nodes() {
        let sim = |kind: SimKind, node: u32, step: u32, dur: u64| Event {
            ts: 0,
            dur,
            kind: EventKind::SimTask { kind, node, step },
        };
        let trace = Trace {
            tracks: vec![track(
                "sim",
                vec![
                    sim(SimKind::Launch, 0, 0, 10),
                    sim(SimKind::Analysis, 0, 0, 5),
                    sim(SimKind::Launch, 1, 0, 12),
                    sim(SimKind::Compute, 1, 0, 1000), // not control cost
                    sim(SimKind::Launch, 0, 1, 9),
                ],
            )],
        };
        // Step 0: node 0 costs 15, node 1 costs 12 → max 15.
        assert_eq!(
            sim_control_cost_per_step(&trace, "sim"),
            vec![(0, 15), (1, 9)]
        );
        assert!((mean_step_cost(&[(0, 15), (1, 9)]) - 12.0).abs() < 1e-9);
    }
}
