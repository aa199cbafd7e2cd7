//! Critical-path blame attribution: *where the bound on end-to-end
//! runtime actually went*.
//!
//! `crate::graph::EventGraph::critical_path` finds the longest
//! duration-weighted dependence chain through a trace. This module
//! decomposes that chain into phases — dependence analysis, copies,
//! barrier/collective waits, kernel execution, memo replay — per track
//! and per epoch, which is the paper's argument rendered as a table:
//! the implicit executor's critical path is dominated by `DepAnalysis`
//! blame on the control track (O(N) per step, §1), while a
//! control-replicated run of the same program attributes that time to
//! `Exec`/`Copy` instead (O(1) per-shard launches, §3.5).
//!
//! ## Wait enrichment
//!
//! The executors record synchronization as an *arrive* event stamped
//! before the blocking wait and a zero-duration *leave* instant after
//! it, so the wait lives in the timestamp gap, not in any span. Blame
//! attribution first *enriches* the trace: every zero-duration
//! `BarrierLeave`/`CollectiveLeave` is widened to cover the gap back to
//! its matching same-track arrive, making waits path-weighted. The
//! blame components therefore sum to the critical-path length of the
//! enriched graph by construction (covered by a property test).

use crate::event::{EventKind, SimKind};
use crate::graph::build_graph;
use crate::tracer::{Trace, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log2 buckets in an idle-gap histogram (covers up to
/// 2^39 ns ≈ 9 minutes per gap).
pub(crate) const IDLE_BUCKETS: usize = 40;

/// The phases critical-path time is attributed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Control-thread dynamic dependence analysis (implicit executor).
    DepAnalysis,
    /// Dependence bookkeeping replayed from a memoized template.
    MemoReplay,
    /// Copy issue (extract + send) and apply (receive + scatter) time.
    Copy,
    /// Time blocked at a phase barrier.
    BarrierWait,
    /// Time blocked in a dynamic collective (§4.4).
    CollectiveWait,
    /// Application kernel execution.
    Exec,
    /// Shared-log control work: sequencer appends/combines and replica
    /// batch consumption (`log_exec`).
    LogControl,
    /// Everything else on the path (launches, drains, checkpoints).
    Other,
}

impl Phase {
    /// Number of phases (length of a [`Blame`] vector).
    pub(crate) const COUNT: usize = 8;

    /// All phases, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::DepAnalysis,
        Phase::MemoReplay,
        Phase::Copy,
        Phase::BarrierWait,
        Phase::CollectiveWait,
        Phase::Exec,
        Phase::LogControl,
        Phase::Other,
    ];

    /// Stable snake_case name (used in bench artifacts and tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::DepAnalysis => "dep_analysis",
            Phase::MemoReplay => "memo_replay",
            Phase::Copy => "copy",
            Phase::BarrierWait => "barrier_wait",
            Phase::CollectiveWait => "collective_wait",
            Phase::Exec => "exec",
            Phase::LogControl => "log_control",
            Phase::Other => "other",
        }
    }

    /// Index into a [`Blame`] vector.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A per-phase decomposition of some span of time, nanoseconds.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Blame {
    /// Nanoseconds attributed to each phase, indexed by
    /// `Phase::index`.
    pub ns: [u64; Phase::COUNT],
}

impl Blame {
    /// Nanoseconds attributed to `p`.
    pub fn get(&self, p: Phase) -> u64 {
        self.ns[p.index()]
    }

    /// Adds `ns` nanoseconds of blame to `p`.
    pub fn add(&mut self, p: Phase, ns: u64) {
        self.ns[p.index()] += ns;
    }

    /// Sum over all phases.
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Componentwise accumulation.
    pub(crate) fn merge(&mut self, other: &Blame) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
    }
}

/// The full critical-path blame decomposition of one trace.
pub struct BlameReport {
    /// Length of the (wait-enriched) critical path, nanoseconds. Equals
    /// `total.total()` by construction.
    pub critical_path_ns: u64,
    /// Nodes on the critical path.
    pub path_nodes: usize,
    /// Whole-path blame.
    pub total: Blame,
    /// Blame per track the path visited (track name, blame), in trace
    /// track order.
    pub per_track: Vec<(String, Blame)>,
    /// Blame per epoch (the latest `StepBegin` step on the recording
    /// track; events before the first step land in epoch 0).
    pub per_epoch: Vec<(u64, Blame)>,
}

impl BlameReport {
    /// Renders the blame table: one row per phase with share of the
    /// critical path, then per-track and per-epoch sections.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "critical path: {:.3} ms over {} nodes",
            self.critical_path_ns as f64 / 1e6,
            self.path_nodes
        )
        .unwrap();
        writeln!(out, "{:>16}  {:>14}  {:>6}", "phase", "ns", "%").unwrap();
        let total = self.critical_path_ns.max(1);
        // Every phase prints, including 0.0% rows: blame tables from
        // different strategies stay column-aligned and diffable.
        for p in Phase::ALL {
            let ns = self.total.get(p);
            writeln!(
                out,
                "{:>16}  {:>14}  {:>5.1}%",
                p.name(),
                ns,
                ns as f64 * 100.0 / total as f64
            )
            .unwrap();
        }
        if !self.per_track.is_empty() {
            writeln!(out, "-- per track --").unwrap();
            for (name, b) in &self.per_track {
                writeln!(out, "{:>16}  {:>14}  {}", name, b.total(), top_phase(b)).unwrap();
            }
        }
        if !self.per_epoch.is_empty() {
            writeln!(out, "-- per epoch --").unwrap();
            for (epoch, b) in &self.per_epoch {
                writeln!(out, "{:>16}  {:>14}  {}", epoch, b.total(), top_phase(b)).unwrap();
            }
        }
        out
    }
}

fn top_phase(b: &Blame) -> &'static str {
    Phase::ALL
        .into_iter()
        .max_by_key(|p| b.get(*p))
        .filter(|p| b.get(*p) > 0)
        .map(Phase::name)
        .unwrap_or("-")
}

/// Which phase a critical-path node's duration belongs to.
pub fn classify(kind: &EventKind) -> Phase {
    match kind {
        EventKind::DepAnalysis { .. } => Phase::DepAnalysis,
        EventKind::MemoReplay { .. } => Phase::MemoReplay,
        EventKind::TaskRun { .. } => Phase::Exec,
        EventKind::CopyIssue { .. } | EventKind::CopyApply { .. } => Phase::Copy,
        EventKind::BarrierArrive { .. } | EventKind::BarrierLeave { .. } => Phase::BarrierWait,
        EventKind::CollectiveArrive { .. } | EventKind::CollectiveLeave { .. } => {
            Phase::CollectiveWait
        }
        EventKind::LogAppend { .. }
        | EventKind::LogCombine { .. }
        | EventKind::LogConsume { .. } => Phase::LogControl,
        _ => Phase::Other,
    }
}

/// Clones `trace` with synchronization waits made path-weighted: each
/// zero-duration `BarrierLeave`/`CollectiveLeave` is moved back to its
/// matching same-track arrive's timestamp and widened to cover the gap
/// (see module docs).
pub(crate) fn enrich_waits(trace: &Trace) -> Trace {
    let tracks = trace
        .tracks
        .iter()
        .map(|t| {
            let mut last_bar: Option<u64> = None;
            let mut last_col: Option<u64> = None;
            let events = t
                .events
                .iter()
                .map(|e| {
                    let mut e = *e;
                    match e.kind {
                        EventKind::BarrierArrive { .. } => last_bar = Some(e.ts),
                        EventKind::CollectiveArrive { .. } => last_col = Some(e.ts),
                        EventKind::BarrierLeave { .. } if e.dur == 0 => {
                            if let Some(a) = last_bar.take() {
                                e.dur = e.ts.saturating_sub(a);
                                e.ts = a;
                            }
                        }
                        EventKind::CollectiveLeave { .. } if e.dur == 0 => {
                            if let Some(a) = last_col.take() {
                                e.dur = e.ts.saturating_sub(a);
                                e.ts = a;
                            }
                        }
                        _ => {}
                    }
                    e
                })
                .collect();
            Track {
                name: t.name.clone(),
                events,
                dropped: t.dropped,
            }
        })
        .collect();
    Trace { tracks }
}

/// Computes the critical-path blame decomposition of `trace`. `Err`
/// means the trace is not a well-formed execution record (see
/// [`build_graph`]).
pub fn blame_report(trace: &Trace) -> Result<BlameReport, String> {
    let enriched = enrich_waits(trace);
    // Epoch of each event: the latest StepBegin on the same track.
    let mut step_of: Vec<Vec<u64>> = Vec::with_capacity(enriched.tracks.len());
    for t in &enriched.tracks {
        let mut cur = 0u64;
        let mut v = Vec::with_capacity(t.events.len());
        for e in &t.events {
            if let EventKind::StepBegin { step } = e.kind {
                cur = step;
            }
            v.push(cur);
        }
        step_of.push(v);
    }
    let g = build_graph(&enriched)?;
    let (critical_path_ns, path) = g.critical_path();
    let mut total = Blame::default();
    let mut per_track: BTreeMap<usize, Blame> = BTreeMap::new();
    let mut per_epoch: BTreeMap<u64, Blame> = BTreeMap::new();
    for &v in &path {
        let node = &g.nodes[v as usize];
        let dur = node.event.dur;
        if dur == 0 {
            continue;
        }
        let phase = classify(&node.event.kind);
        total.add(phase, dur);
        per_track.entry(node.track).or_default().add(phase, dur);
        let epoch = step_of[node.track][node.idx];
        per_epoch.entry(epoch).or_default().add(phase, dur);
    }
    Ok(BlameReport {
        critical_path_ns,
        path_nodes: path.len(),
        total,
        per_track: per_track
            .into_iter()
            .map(|(ti, b)| (enriched.tracks[ti].name.clone(), b))
            .collect(),
        per_epoch: per_epoch.into_iter().collect(),
    })
}

/// Max/mean shard busy time and the idle-gap distribution — the
/// load-imbalance companion to the blame table.
pub struct ImbalanceReport {
    /// Tracks measured (shard/worker tracks and tracks that run tasks
    /// when present, else every track with at least one span).
    pub tracks: usize,
    /// Busiest track's total span time, nanoseconds.
    pub max_busy_ns: u64,
    /// Mean span time over the measured tracks, nanoseconds.
    pub mean_busy_ns: f64,
    /// `max_busy_ns / mean_busy_ns` (1.0 = perfectly balanced, 0 when
    /// nothing was measured).
    pub imbalance: f64,
    /// Histogram of gaps between consecutive spans on the same track:
    /// bucket `i` counts gaps in `[2^i, 2^(i+1))` nanoseconds.
    pub idle_hist: [u64; IDLE_BUCKETS],
}

impl ImbalanceReport {
    /// Renders the imbalance summary plus the nonempty histogram rows.
    pub fn format(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "load imbalance over {} tracks: max busy {:.3} ms, mean {:.3} ms, max/mean {:.2}",
            self.tracks,
            self.max_busy_ns as f64 / 1e6,
            self.mean_busy_ns / 1e6,
            self.imbalance
        )
        .unwrap();
        for (i, &c) in self.idle_hist.iter().enumerate() {
            if c > 0 {
                writeln!(out, "  idle [{}, {}) ns: {}", 1u64 << i, 1u64 << (i + 1), c).unwrap();
            }
        }
        out
    }
}

fn log2_bucket(ns: u64) -> usize {
    ((63 - ns.leading_zeros()) as usize).min(IDLE_BUCKETS - 1)
}

/// Computes the load-imbalance report for `trace`. Shard and worker
/// tracks (`shard-*` / `worker-*`) and every track that runs a task are
/// measured when present; otherwise every track carrying at least one
/// span counts. The implicit control thread is worker 0 and records its
/// kernel runs on its own track: there its analysis and memo replay
/// spans are control work, not a worker's, and do not count as busy.
pub fn imbalance_report(trace: &Trace) -> ImbalanceReport {
    let executor_tracks: Vec<&Track> = trace
        .tracks
        .iter()
        .filter(|t| {
            t.name.starts_with("shard-")
                || t.name.starts_with("worker-")
                || t.events
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::TaskRun { .. }))
        })
        .collect();
    let tracks: Vec<&Track> = if executor_tracks.is_empty() {
        trace
            .tracks
            .iter()
            .filter(|t| t.events.iter().any(|e| e.dur > 0))
            .collect()
    } else {
        executor_tracks
    };
    let mut max_busy_ns = 0u64;
    let mut sum_busy = 0u64;
    let mut idle_hist = [0u64; IDLE_BUCKETS];
    for t in &tracks {
        let work = || {
            t.events.iter().filter(|e| {
                e.dur > 0 && !matches!(classify(&e.kind), Phase::DepAnalysis | Phase::MemoReplay)
            })
        };
        let busy: u64 = work().map(|e| e.dur).sum();
        max_busy_ns = max_busy_ns.max(busy);
        sum_busy += busy;
        // Idle gaps between consecutive spans, in timestamp order.
        let mut spans: Vec<(u64, u64)> = work().map(|e| (e.ts, e.ts + e.dur)).collect();
        spans.sort_unstable();
        let mut frontier: Option<u64> = None;
        for (start, end) in spans {
            if let Some(f) = frontier {
                if start > f {
                    idle_hist[log2_bucket(start - f)] += 1;
                }
            }
            frontier = Some(frontier.map_or(end, |f| f.max(end)));
        }
    }
    let n = tracks.len();
    let mean_busy_ns = if n == 0 {
        0.0
    } else {
        sum_busy as f64 / n as f64
    };
    ImbalanceReport {
        tracks: n,
        max_busy_ns,
        mean_busy_ns,
        imbalance: if mean_busy_ns > 0.0 {
            max_busy_ns as f64 / mean_busy_ns
        } else {
            0.0
        },
        idle_hist,
    }
}

/// Blame decomposition of a *simulated* schedule (a track of `SimTask`
/// spans in virtual time): per step, the node with the largest total
/// service bounds that step, and its per-kind service decomposes it.
/// Returns `(total bound ns, blame)`, or `None` if the track is
/// missing or carries no sim tasks.
pub fn sim_blame(trace: &Trace, track: &str) -> Option<(u64, Blame)> {
    let t = trace.track(track)?;
    // (step, node) -> per-phase service.
    let mut per: BTreeMap<(u32, u32), Blame> = BTreeMap::new();
    for e in &t.events {
        if let EventKind::SimTask { kind, node, step } = e.kind {
            let phase = match kind {
                SimKind::Analysis => Phase::DepAnalysis,
                SimKind::Compute => Phase::Exec,
                SimKind::Copy => Phase::Copy,
                SimKind::Collective => Phase::CollectiveWait,
                SimKind::Log => Phase::LogControl,
                SimKind::Launch | SimKind::Other => Phase::Other,
            };
            per.entry((step, node)).or_default().add(phase, e.dur);
        }
    }
    if per.is_empty() {
        return None;
    }
    let mut blame = Blame::default();
    let mut cur_step = None;
    let mut step_max: Option<Blame> = None;
    let flush = |sm: &mut Option<Blame>, blame: &mut Blame| {
        if let Some(b) = sm.take() {
            blame.merge(&b);
        }
    };
    for ((step, _), b) in per {
        if cur_step != Some(step) {
            flush(&mut step_max, &mut blame);
            cur_step = Some(step);
        }
        let better = match &step_max {
            None => true,
            Some(m) => b.total() > m.total(),
        };
        if better {
            step_max = Some(b);
        }
    }
    flush(&mut step_max, &mut blame);
    Some((blame.total(), blame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(ts: u64, dur: u64, kind: EventKind) -> Event {
        Event { ts, dur, kind }
    }

    fn run(l: u32, p: u32) -> EventKind {
        EventKind::TaskRun {
            launch: l,
            pos: p,
            task: 0,
        }
    }

    fn launch(l: u32, p: u32) -> EventKind {
        EventKind::TaskLaunch {
            launch: l,
            pos: p,
            task: 0,
        }
    }

    fn trace_of(tracks: Vec<(&str, Vec<Event>)>) -> Trace {
        Trace {
            tracks: tracks
                .into_iter()
                .map(|(name, events)| Track {
                    name: name.into(),
                    events,
                    dropped: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn chain_with_barrier_wait() {
        // run(10) ... barrier arrive@10, leave@25 (15 ns wait) ... run(5).
        let trace = trace_of(vec![(
            "shard-0",
            vec![
                ev(0, 10, run(0, 0)),
                ev(10, 0, EventKind::BarrierArrive { generation: 0 }),
                ev(25, 0, EventKind::BarrierLeave { generation: 0 }),
                ev(25, 5, run(1, 0)),
            ],
        )]);
        let r = blame_report(&trace).unwrap();
        assert_eq!(r.critical_path_ns, 30);
        assert_eq!(r.total.get(Phase::Exec), 15);
        assert_eq!(r.total.get(Phase::BarrierWait), 15);
        assert_eq!(r.total.total(), r.critical_path_ns);
    }

    #[test]
    fn diamond_attributes_analysis_and_longest_arm() {
        let trace = trace_of(vec![
            (
                "control",
                vec![
                    ev(0, 0, launch(0, 0)),
                    ev(
                        0,
                        50,
                        EventKind::DepAnalysis {
                            launch: 0,
                            pos: 0,
                            checks: 1,
                        },
                    ),
                    ev(50, 0, launch(1, 0)),
                    ev(
                        50,
                        1,
                        EventKind::DepAnalysis {
                            launch: 1,
                            pos: 0,
                            checks: 1,
                        },
                    ),
                    ev(80, 0, EventKind::Drain),
                ],
            ),
            ("worker-0", vec![ev(51, 10, run(0, 0))]),
            ("worker-1", vec![ev(51, 20, run(1, 0))]),
        ]);
        let r = blame_report(&trace).unwrap();
        // launch0 -> analysis0(50) -> launch1 -> run1(20) -> drain.
        assert_eq!(r.critical_path_ns, 70);
        assert_eq!(r.total.get(Phase::DepAnalysis), 50);
        assert_eq!(r.total.get(Phase::Exec), 20);
        assert_eq!(r.total.total(), r.critical_path_ns);
        // Track attribution: analysis on control, exec on worker-1.
        let control = r.per_track.iter().find(|(n, _)| n == "control").unwrap();
        assert_eq!(control.1.get(Phase::DepAnalysis), 50);
        let w1 = r.per_track.iter().find(|(n, _)| n == "worker-1").unwrap();
        assert_eq!(w1.1.get(Phase::Exec), 20);
    }

    #[test]
    fn fork_join_copies_are_copy_blame() {
        let trace = trace_of(vec![
            (
                "shard-0",
                vec![
                    ev(0, 10, run(0, 0)),
                    ev(
                        10,
                        5,
                        EventKind::CopyIssue {
                            copy: 0,
                            pair: 0,
                            seq: 0,
                            elements: 4,
                            dst_shard: 1,
                        },
                    ),
                ],
            ),
            (
                "shard-1",
                vec![
                    ev(
                        20,
                        8,
                        EventKind::CopyApply {
                            copy: 0,
                            pair: 0,
                            seq: 0,
                            region: 1,
                            inst: 7,
                            fields: 1,
                            reduce: false,
                        },
                    ),
                    ev(28, 4, run(1, 0)),
                ],
            ),
        ]);
        let r = blame_report(&trace).unwrap();
        assert_eq!(r.critical_path_ns, 27);
        assert_eq!(r.total.get(Phase::Copy), 13);
        assert_eq!(r.total.get(Phase::Exec), 14);
    }

    #[test]
    fn per_epoch_splits_at_step_begin() {
        let trace = trace_of(vec![(
            "shard-0",
            vec![
                ev(0, 0, EventKind::StepBegin { step: 0 }),
                ev(0, 10, run(0, 0)),
                ev(10, 0, EventKind::StepBegin { step: 1 }),
                ev(10, 30, run(1, 0)),
            ],
        )]);
        let r = blame_report(&trace).unwrap();
        assert_eq!(r.per_epoch.len(), 2);
        assert_eq!(
            r.per_epoch[0],
            (0, {
                let mut b = Blame::default();
                b.add(Phase::Exec, 10);
                b
            })
        );
        assert_eq!(r.per_epoch[1].1.get(Phase::Exec), 30);
    }

    #[test]
    fn blame_sums_to_critical_path_on_random_traces() {
        // Deterministic pseudo-random chains/forks: components must sum
        // to the critical-path length for every generated trace.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let workers = 1 + (next() % 4) as usize;
            let launches = 1 + (next() % 12) as u32;
            let mut control = Vec::new();
            let mut worker_events: Vec<Vec<Event>> = vec![Vec::new(); workers];
            let mut ts = 0u64;
            for l in 0..launches {
                control.push(ev(ts, 0, launch(l, 0)));
                let analysis = next() % 40;
                control.push(ev(
                    ts,
                    analysis,
                    EventKind::DepAnalysis {
                        launch: l,
                        pos: 0,
                        checks: 1,
                    },
                ));
                ts += analysis;
                let w = (next() % workers as u64) as usize;
                worker_events[w].push(ev(ts + next() % 10, next() % 100, run(l, 0)));
            }
            control.push(ev(ts, 0, EventKind::Drain));
            let mut tracks = vec![("control".to_string(), control)];
            for (w, evs) in worker_events.into_iter().enumerate() {
                tracks.push((format!("worker-{w}"), evs));
            }
            let trace = Trace {
                tracks: tracks
                    .into_iter()
                    .map(|(name, events)| Track {
                        name,
                        events,
                        dropped: 0,
                    })
                    .collect(),
            };
            let r = blame_report(&trace).unwrap();
            assert_eq!(
                r.total.total(),
                r.critical_path_ns,
                "blame components must sum to the critical-path length"
            );
            let per_track_sum: u64 = r.per_track.iter().map(|(_, b)| b.total()).sum();
            let per_epoch_sum: u64 = r.per_epoch.iter().map(|(_, b)| b.total()).sum();
            assert_eq!(per_track_sum, r.critical_path_ns);
            assert_eq!(per_epoch_sum, r.critical_path_ns);
        }
    }

    #[test]
    fn one_thread_that_analyses_and_runs_is_one_timeline() {
        // The implicit control thread is worker 0: it analyses launch 0
        // and runs it, then launch 1, then analyses launch 2, whose one
        // point runs on worker 1.
        let analysis = |l| EventKind::DepAnalysis {
            launch: l,
            pos: 0,
            checks: 1,
        };
        let control = vec![
            ev(0, 0, launch(0, 0)),
            ev(0, 10, analysis(0)),
            ev(10, 30, run(0, 0)),
            ev(40, 0, launch(1, 0)),
            ev(40, 10, analysis(1)),
            ev(50, 30, run(1, 0)),
            ev(80, 0, launch(2, 0)),
            ev(80, 5, analysis(2)),
            ev(85, 0, EventKind::Drain),
        ];
        let worker1 = vec![ev(85, 40, run(2, 0))];
        let trace = trace_of(vec![
            ("control", control.clone()),
            ("worker-1", worker1.clone()),
        ]);
        let r = blame_report(&trace).unwrap();
        // Both analyses and both runs of the control thread lie on one
        // path, which ends in worker 1's run.
        assert_eq!(r.critical_path_ns, 10 + 30 + 10 + 30 + 40);
        assert_eq!(r.total.get(Phase::DepAnalysis), 20);
        assert_eq!(r.total.get(Phase::Exec), 100);
        assert_eq!(r.total.total(), r.critical_path_ns);
        // The control thread counts as worker 0, busy for its runs only.
        let imb = imbalance_report(&trace);
        assert_eq!(imb.tracks, 2);
        assert_eq!(imb.max_busy_ns, 60);
        assert!((imb.mean_busy_ns - 50.0).abs() < 1e-9);
        // The same runs on a track of their own lose the program order
        // with the analysis: the path no longer holds all five spans.
        let (analysis_only, runs): (Vec<Event>, Vec<Event>) = control
            .into_iter()
            .partition(|e| !matches!(e.kind, EventKind::TaskRun { .. }));
        let split = trace_of(vec![
            ("control", analysis_only),
            ("worker-0", runs),
            ("worker-1", worker1),
        ]);
        assert!(blame_report(&split).unwrap().critical_path_ns < 120);
    }

    #[test]
    fn imbalance_ignores_non_shard_tracks_when_shards_exist() {
        let trace = trace_of(vec![
            ("shard-0", vec![ev(0, 100, run(0, 0))]),
            ("shard-1", vec![ev(0, 20, run(0, 1)), ev(80, 20, run(1, 1))]),
            (
                "hybrid",
                vec![ev(0, 100_000, EventKind::Pass { name: "x" })],
            ),
        ]);
        let r = imbalance_report(&trace);
        assert_eq!(r.tracks, 2);
        assert_eq!(r.max_busy_ns, 100);
        assert!((r.mean_busy_ns - 70.0).abs() < 1e-9);
        assert!((r.imbalance - 100.0 / 70.0).abs() < 1e-9);
        // shard-1 idles from 40 to 80: one gap of 60 ns in bucket 5.
        assert_eq!(r.idle_hist[5], 1);
        assert_eq!(r.idle_hist.iter().sum::<u64>(), 1);
    }

    #[test]
    fn sim_blame_takes_the_bounding_node_per_step() {
        let sim = |kind, node, step| EventKind::SimTask { kind, node, step };
        let trace = trace_of(vec![(
            "cr/n2",
            vec![
                // Step 0: node 0 does 30 (20 compute + 10 copy), node 1
                // does 5. Step 1: node 1 does 40 analysis.
                ev(0, 20, sim(SimKind::Compute, 0, 0)),
                ev(20, 10, sim(SimKind::Copy, 0, 0)),
                ev(0, 5, sim(SimKind::Compute, 1, 0)),
                ev(30, 40, sim(SimKind::Analysis, 1, 1)),
            ],
        )]);
        let (total, blame) = sim_blame(&trace, "cr/n2").unwrap();
        assert_eq!(total, 70);
        assert_eq!(blame.get(Phase::Exec), 20);
        assert_eq!(blame.get(Phase::Copy), 10);
        assert_eq!(blame.get(Phase::DepAnalysis), 40);
        assert!(sim_blame(&trace, "missing").is_none());
    }
}
