//! Happens-before graph reconstruction from a collected trace.
//!
//! Nodes are the *synchronizing* events of the trace (task launches and
//! runs, copy issue/apply pairs, barrier and collective generations,
//! drains). Edges come from:
//!
//! * **program order** — consecutive nodes on the same track were
//!   recorded by the same thread;
//! * **launch order** — `TaskLaunch(l, p)` precedes `TaskRun(l, p)`;
//! * **recorded dependences** — each [`EventKind::DepEdge`] event adds
//!   `TaskRun(from) → TaskRun(to)`;
//! * **copies** — `CopyIssue(c, pair, seq)` precedes the matching
//!   `CopyApply(c, pair, seq)` (the point-to-point synchronization of
//!   the consumer-applied protocol, §3.4);
//! * **barriers / collectives** — the *o*-th arrival on every track
//!   precedes the *o*-th departure on every track (sound because
//!   control flow is replicated, so shards execute synchronization
//!   operations in the same order);
//! * **drains** — every task launched on a track before a
//!   [`EventKind::Drain`] has its run ordered before the drain.
//!
//! The graph is acyclic for any well-formed execution;
//! [`build_graph`] returns `Err` if a cycle is detected (a corrupted
//! log). Reachability is precomputed as per-node bitsets in topological
//! order — quadratic in node count, sized for validation-scale traces
//! (the Spy consumer), not for profiling-scale ones.

use crate::event::{Event, EventKind};
use crate::tracer::Trace;
use std::collections::HashMap;

/// One graph node: a synchronizing event and where it was recorded.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Index of the track in the source [`Trace`].
    pub track: usize,
    /// Index of the event within its track (orders nodes recorded by
    /// the same thread).
    pub idx: usize,
    /// The event itself.
    pub event: Event,
}

/// The reconstructed happens-before graph.
pub struct EventGraph {
    /// All nodes, in trace scan order.
    pub nodes: Vec<Node>,
    /// `CopyApply` nodes with no matching `CopyIssue` — evidence of a
    /// corrupted or truncated log.
    pub unmatched_applies: Vec<u32>,
    succ: Vec<Vec<u32>>,
    runs: HashMap<(u32, u32), u32>,
    reach: Vec<Vec<u64>>,
}

impl EventGraph {
    /// Node executing task `(launch, pos)`, if its run was recorded.
    pub fn run_of(&self, launch: u32, pos: u32) -> Option<u32> {
        self.runs.get(&(launch, pos)).copied()
    }

    /// Does `a` happen before (or equal) `b`?
    pub fn reaches(&self, a: u32, b: u32) -> bool {
        if a == b {
            return true;
        }
        let w = (b / 64) as usize;
        self.reach[a as usize][w] & (1u64 << (b % 64)) != 0
    }

    /// Longest duration-weighted path through the graph: total
    /// nanoseconds and the node sequence, source to sink.
    pub(crate) fn critical_path(&self) -> (u64, Vec<u32>) {
        let n = self.nodes.len();
        if n == 0 {
            return (0, Vec::new());
        }
        // Topological order again (the graph is known acyclic here).
        let order = toposort(&self.succ).expect("validated acyclic");
        // best[v] = max cost of a path ending at v, inclusive of v.
        let mut best = vec![0u64; n];
        let mut prev = vec![u32::MAX; n];
        for &v in &order {
            let vi = v as usize;
            best[vi] += self.nodes[vi].event.dur;
            for &s in &self.succ[vi] {
                let si = s as usize;
                if best[vi] > best[si] {
                    best[si] = best[vi];
                    prev[si] = v;
                }
            }
        }
        let (mut at, _) = best
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, c)| (i as u32, *c))
            .unwrap();
        let total = best[at as usize];
        let mut path = vec![at];
        while prev[at as usize] != u32::MAX {
            at = prev[at as usize];
            path.push(at);
        }
        path.reverse();
        (total, path)
    }
}

fn is_node(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::TaskLaunch { .. }
            | EventKind::TaskRun { .. }
            | EventKind::Drain
            | EventKind::CopyIssue { .. }
            | EventKind::CopyApply { .. }
            | EventKind::BarrierArrive { .. }
            | EventKind::BarrierLeave { .. }
            | EventKind::CollectiveArrive { .. }
            | EventKind::CollectiveLeave { .. }
            | EventKind::DepAnalysis { .. }
            | EventKind::MemoReplay { .. }
            | EventKind::LogAppend { .. }
            | EventKind::LogCombine { .. }
            | EventKind::LogConsume { .. }
    )
}

/// Reconstructs the happens-before graph of `trace`. `Err` means the
/// log is not a well-formed execution record (an ordering cycle).
pub fn build_graph(trace: &Trace) -> Result<EventGraph, String> {
    let mut nodes = Vec::new();
    for (ti, track) in trace.tracks.iter().enumerate() {
        for (ei, e) in track.events.iter().enumerate() {
            if is_node(&e.kind) {
                nodes.push(Node {
                    track: ti,
                    idx: ei,
                    event: *e,
                });
            }
        }
    }
    let n = nodes.len();
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];

    // Index maps built in one scan.
    let mut runs: HashMap<(u32, u32), u32> = HashMap::new();
    let mut launches: HashMap<(u32, u32), u32> = HashMap::new();
    let mut issues: HashMap<(u32, u32, u32), Vec<u32>> = HashMap::new();
    let mut applies: HashMap<(u32, u32, u32), Vec<u32>> = HashMap::new();
    // Barrier / collective groups, keyed by per-track occurrence index
    // (replicated control flow makes occurrence counts line up).
    let mut bar_arrive: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut bar_leave: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut col_arrive: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut col_leave: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut occ: HashMap<(usize, u8), u64> = HashMap::new();
    let bump = |occ: &mut HashMap<(usize, u8), u64>, track: usize, which: u8| -> u64 {
        let c = occ.entry((track, which)).or_insert(0);
        let v = *c;
        *c += 1;
        v
    };

    for (i, node) in nodes.iter().enumerate() {
        let i = i as u32;
        match node.event.kind {
            EventKind::TaskRun { launch, pos, .. } => {
                runs.insert((launch, pos), i);
            }
            EventKind::TaskLaunch { launch, pos, .. } => {
                launches.insert((launch, pos), i);
            }
            EventKind::CopyIssue {
                copy, pair, seq, ..
            } => issues.entry((copy, pair, seq)).or_default().push(i),
            EventKind::CopyApply {
                copy, pair, seq, ..
            } => applies.entry((copy, pair, seq)).or_default().push(i),
            EventKind::BarrierArrive { .. } => {
                let o = bump(&mut occ, node.track, 0);
                bar_arrive.entry(o).or_default().push(i);
            }
            EventKind::BarrierLeave { .. } => {
                let o = bump(&mut occ, node.track, 1);
                bar_leave.entry(o).or_default().push(i);
            }
            EventKind::CollectiveArrive { .. } => {
                let o = bump(&mut occ, node.track, 2);
                col_arrive.entry(o).or_default().push(i);
            }
            EventKind::CollectiveLeave { .. } => {
                let o = bump(&mut occ, node.track, 3);
                col_leave.entry(o).or_default().push(i);
            }
            _ => {}
        }
    }

    // Program order: consecutive nodes on the same track.
    let mut last_on_track: HashMap<usize, u32> = HashMap::new();
    // Drain bookkeeping: launches on a track since its last drain.
    let mut pending: HashMap<usize, Vec<(u32, u32)>> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        let i = i as u32;
        if let Some(&p) = last_on_track.get(&node.track) {
            succ[p as usize].push(i);
        }
        last_on_track.insert(node.track, i);
        match node.event.kind {
            EventKind::TaskLaunch { launch, pos, .. } => {
                pending.entry(node.track).or_default().push((launch, pos));
            }
            EventKind::Drain => {
                for (l, p) in pending.entry(node.track).or_default().drain(..) {
                    if let Some(&r) = runs.get(&(l, p)) {
                        if r != i {
                            succ[r as usize].push(i);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Launch precedes run.
    for ((l, p), &launch_node) in &launches {
        if let Some(&run_node) = runs.get(&(*l, *p)) {
            if launch_node != run_node {
                succ[launch_node as usize].push(run_node);
            }
        }
    }

    // Recorded dependence edges (events, not nodes — scan the trace).
    for track in &trace.tracks {
        for e in &track.events {
            if let EventKind::DepEdge {
                from_launch,
                from_pos,
                to_launch,
                to_pos,
            } = e.kind
            {
                if let (Some(&a), Some(&b)) = (
                    runs.get(&(from_launch, from_pos)),
                    runs.get(&(to_launch, to_pos)),
                ) {
                    if a != b {
                        succ[a as usize].push(b);
                    }
                }
            }
        }
    }

    // Copy issue → matching apply; applies without an issue are
    // reported as corruption evidence.
    let mut unmatched_applies = Vec::new();
    for (key, apps) in &applies {
        let iss = issues.get(key).map(|v| v.as_slice()).unwrap_or(&[]);
        for (k, &a) in apps.iter().enumerate() {
            match iss.get(k) {
                Some(&s) => succ[s as usize].push(a),
                None => unmatched_applies.push(a),
            }
        }
    }
    unmatched_applies.sort_unstable();

    // Every arrival at synchronization occurrence o precedes every
    // departure from it.
    for (arrivals, leaves) in [(&bar_arrive, &bar_leave), (&col_arrive, &col_leave)] {
        for (o, arr) in arrivals {
            if let Some(lvs) = leaves.get(o) {
                for &a in arr {
                    for &l in lvs {
                        if a != l {
                            succ[a as usize].push(l);
                        }
                    }
                }
            }
        }
    }

    for s in &mut succ {
        s.sort_unstable();
        s.dedup();
    }

    let topo = toposort(&succ).ok_or_else(|| {
        "trace is not a valid execution record: happens-before cycle detected".to_string()
    })?;

    // Reachability bitsets, filled source-to-sink so each node's row is
    // complete before its successors read it.
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n];
    for &v in topo.iter().rev() {
        let vi = v as usize;
        let mut row = vec![0u64; words];
        for &s in &succ[vi] {
            let si = s as usize;
            row[si / 64] |= 1u64 << (si % 64);
            for (w, bits) in reach[si].iter().enumerate() {
                row[w] |= bits;
            }
        }
        reach[vi] = row;
    }

    Ok(EventGraph {
        nodes,
        unmatched_applies,
        succ,
        runs,
        reach,
    })
}

/// Kahn's algorithm; `None` on a cycle.
fn toposort(succ: &[Vec<u32>]) -> Option<Vec<u32>> {
    let n = succ.len();
    let mut indeg = vec![0u32; n];
    for s in succ {
        for &t in s {
            indeg[t as usize] += 1;
        }
    }
    let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &s in &succ[v as usize] {
            let si = s as usize;
            indeg[si] -= 1;
            if indeg[si] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Trace, Track};

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
    fn program_order_and_launch_edges() {
        let trace = trace_of(vec![
            (
                "control",
                vec![ev(0, 0, launch(0, 0)), ev(1, 0, launch(1, 0))],
            ),
            ("worker", vec![ev(2, 5, run(0, 0)), ev(8, 5, run(1, 0))]),
        ]);
        let g = build_graph(&trace).unwrap();
        let l0 = 0;
        let l1 = 1;
        let r0 = g.run_of(0, 0).unwrap();
        let r1 = g.run_of(1, 0).unwrap();
        assert!(g.reaches(l0, l1));
        assert!(g.reaches(l0, r0));
        assert!(g.reaches(l1, r1));
        assert!(g.reaches(r0, r1), "program order on the worker track");
        assert!(!g.reaches(r1, r0));
        assert!(!g.reaches(r0, l1), "no edge from a run back to control");
    }

    #[test]
    fn dep_edges_and_drain() {
        let trace = trace_of(vec![
            (
                "control",
                vec![
                    ev(0, 0, launch(0, 0)),
                    ev(1, 0, launch(1, 0)),
                    ev(
                        2,
                        0,
                        EventKind::DepEdge {
                            from_launch: 0,
                            from_pos: 0,
                            to_launch: 1,
                            to_pos: 0,
                        },
                    ),
                    ev(3, 0, EventKind::Drain),
                ],
            ),
            ("w0", vec![ev(2, 5, run(0, 0))]),
            ("w1", vec![ev(2, 5, run(1, 0))]),
        ]);
        let g = build_graph(&trace).unwrap();
        let r0 = g.run_of(0, 0).unwrap();
        let r1 = g.run_of(1, 0).unwrap();
        assert!(g.reaches(r0, r1), "recorded dependence edge");
        // Both runs reach the drain.
        let drain = g
            .nodes
            .iter()
            .position(|n| matches!(n.event.kind, EventKind::Drain))
            .unwrap() as u32;
        assert!(g.reaches(r0, drain));
        assert!(g.reaches(r1, drain));
    }

    #[test]
    fn copy_edges_match_by_occurrence() {
        let trace = trace_of(vec![
            (
                "shard-0",
                vec![ev(
                    0,
                    1,
                    EventKind::CopyIssue {
                        copy: 7,
                        pair: 0,
                        seq: 0,
                        elements: 4,
                        dst_shard: 1,
                    },
                )],
            ),
            (
                "shard-1",
                vec![ev(
                    5,
                    1,
                    EventKind::CopyApply {
                        copy: 7,
                        pair: 0,
                        seq: 0,
                        region: 3,
                        inst: 99,
                        fields: 1,
                        reduce: false,
                    },
                )],
            ),
        ]);
        let g = build_graph(&trace).unwrap();
        assert!(g.reaches(0, 1), "issue happens-before its apply");
        assert!(g.unmatched_applies.is_empty());
    }

    #[test]
    fn unmatched_apply_is_reported() {
        let trace = trace_of(vec![(
            "shard-1",
            vec![ev(
                5,
                1,
                EventKind::CopyApply {
                    copy: 7,
                    pair: 0,
                    seq: 0,
                    region: 3,
                    inst: 99,
                    fields: 1,
                    reduce: false,
                },
            )],
        )]);
        let g = build_graph(&trace).unwrap();
        assert_eq!(g.unmatched_applies.len(), 1);
    }

    #[test]
    fn collective_orders_all_arrivals_before_all_leaves() {
        let arrive = EventKind::CollectiveArrive { generation: 0 };
        let leave = EventKind::CollectiveLeave { generation: 0 };
        let trace = trace_of(vec![
            (
                "shard-0",
                vec![ev(0, 0, run(0, 0)), ev(1, 1, arrive), ev(2, 0, leave)],
            ),
            (
                "shard-1",
                vec![ev(0, 0, run(0, 1)), ev(1, 1, arrive), ev(2, 0, leave)],
            ),
        ]);
        let g = build_graph(&trace).unwrap();
        let r0 = g.run_of(0, 0).unwrap();
        let r1 = g.run_of(0, 1).unwrap();
        // Work before shard 0's arrival is visible after shard 1's
        // departure, and vice versa.
        let leave1 = 5; // last node of shard-1's track
        let leave0 = 2;
        assert!(g.reaches(r0, leave1));
        assert!(g.reaches(r1, leave0));
        // But runs on different shards stay unordered.
        assert!(!g.reaches(r0, r1));
        assert!(!g.reaches(r1, r0));
    }

    #[test]
    fn cycle_is_rejected() {
        // Two dependence edges forming a cycle between two runs.
        let dep = |a: u32, b: u32| EventKind::DepEdge {
            from_launch: a,
            from_pos: 0,
            to_launch: b,
            to_pos: 0,
        };
        let trace = trace_of(vec![
            ("w0", vec![ev(0, 1, run(0, 0))]),
            ("w1", vec![ev(0, 1, run(1, 0))]),
            ("control", vec![ev(2, 0, dep(0, 1)), ev(3, 0, dep(1, 0))]),
        ]);
        assert!(build_graph(&trace).is_err());
    }

    #[test]
    fn critical_path_is_duration_weighted() {
        let trace = trace_of(vec![
            (
                "control",
                vec![ev(0, 0, launch(0, 0)), ev(1, 0, launch(1, 0))],
            ),
            ("w0", vec![ev(2, 100, run(0, 0))]),
            ("w1", vec![ev(2, 10, run(1, 0))]),
        ]);
        let g = build_graph(&trace).unwrap();
        let (cost, path) = g.critical_path();
        assert_eq!(cost, 100);
        let last = *path.last().unwrap();
        assert!(matches!(
            g.nodes[last as usize].event.kind,
            EventKind::TaskRun { launch: 0, .. }
        ));
    }
}
