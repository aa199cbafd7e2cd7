//! Property tests for the discrete-event engine: on random DAGs over
//! random resources, the schedule must respect dependencies, resource
//! capacity bounds, and the standard makespan lower bounds, and it must
//! replay identically.
//!
//! The 64 DAGs per property come from the seeded runner in
//! `tests/support/prop.rs`; a failure names its seed.

#[path = "../../../tests/support/prop.rs"]
mod prop;

use prop::Gen;
use regent_machine::{Sim, SimResult, SimTaskId};
use std::collections::HashSet;

/// DAGs drawn per property.
const CASES: u64 = 64;

/// Seeds of past failures, replayed by every property first.
const REGRESSIONS: &[u64] = &[];

#[derive(Debug, Clone)]
struct RandomDag {
    /// Resource capacities.
    resources: Vec<u32>,
    /// (resource index, duration, completion delay).
    tasks: Vec<(usize, f64, f64)>,
    /// Edges (i, j) with i < j (acyclic by construction).
    edges: Vec<(usize, usize)>,
}

impl RandomDag {
    /// 1–3 resources of 1–3 servers, 1–39 tasks of duration `[0, 5)`
    /// and completion delay `[0, 1)`, and up to 59 forward edges.
    fn draw(g: &mut Gen) -> RandomDag {
        let resources = g.vec(1..4, |g| g.range(1u32..4));
        let tasks = g.vec(1..40, |g| {
            (g.range(0..resources.len()), g.unit(5.0), g.unit(1.0))
        });
        let nt = tasks.len();
        let edges = g
            .vec(0..60, |g| (g.range(0..nt), g.range(0..nt)))
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        RandomDag {
            resources,
            tasks,
            edges,
        }
    }

    /// Builds the DAG into a fresh simulation (each edge once) and runs
    /// it.
    fn run(&self) -> SimResult {
        let mut sim = Sim::new();
        let rids: Vec<_> = self
            .resources
            .iter()
            .map(|&s| sim.add_resource(s))
            .collect();
        let tids: Vec<SimTaskId> = self
            .tasks
            .iter()
            .map(|&(r, d, cd)| sim.add_task_delayed(rids[r], d, cd))
            .collect();
        let mut dedup = HashSet::new();
        for &(a, b) in &self.edges {
            if dedup.insert((a, b)) {
                sim.add_dep(tids[a], tids[b]);
            }
        }
        sim.run()
    }

    /// Total service time on resource `ri`.
    fn work_on(&self, ri: usize) -> f64 {
        self.tasks
            .iter()
            .filter(|&&(r, _, _)| r == ri)
            .map(|&(_, d, _)| d)
            .sum()
    }
}

#[test]
fn schedule_is_feasible() {
    prop::check(
        "schedule_is_feasible",
        CASES,
        REGRESSIONS,
        RandomDag::draw,
        |dag| {
            let result = dag.run();

            // 1. Dependencies respected: succ finish ≥ pred finish +
            //    succ's duration.
            for &(a, b) in &dag.edges {
                let fa = result.finish_times[a];
                let fb = result.finish_times[b];
                let (_, db, cb) = dag.tasks[b];
                assert!(
                    fb + 1e-9 >= fa + db + cb,
                    "edge ({a},{b}): {fa} -> {fb}, dur {db}"
                );
            }

            // 2. Makespan ≥ every task's own span.
            for (i, &(_, d, cd)) in dag.tasks.iter().enumerate() {
                assert!(
                    result.finish_times[i] + 1e-9 >= d + cd,
                    "task {i} finishes before its own span"
                );
                assert!(
                    result.makespan + 1e-9 >= result.finish_times[i],
                    "task {i} finishes after the makespan"
                );
            }

            // 3. Resource capacity: busy time ≤ makespan × servers, and
            //    busy time == Σ durations on that resource.
            for (ri, &servers) in dag.resources.iter().enumerate() {
                let total = dag.work_on(ri);
                assert!(
                    (result.busy_time[ri] - total).abs() < 1e-6,
                    "resource {ri} busy {} for work {total}",
                    result.busy_time[ri]
                );
                if total > 0.0 {
                    assert!(
                        result.busy_time[ri] <= result.makespan * servers as f64 + 1e-6,
                        "resource {ri} over capacity"
                    );
                }
            }

            // 4. Makespan ≥ work bound: max over resources of
            //    total/(servers).
            for (ri, &servers) in dag.resources.iter().enumerate() {
                assert!(
                    result.makespan + 1e-6 >= dag.work_on(ri) / servers as f64,
                    "makespan {} under the work bound of resource {ri}",
                    result.makespan
                );
            }
        },
    );
}

#[test]
fn deterministic_replay() {
    prop::check(
        "deterministic_replay",
        CASES,
        REGRESSIONS,
        RandomDag::draw,
        |dag| {
            let (r1, r2) = (dag.run(), dag.run());
            assert_eq!(r1.makespan, r2.makespan);
            assert_eq!(r1.finish_times, r2.finish_times);
        },
    );
}
