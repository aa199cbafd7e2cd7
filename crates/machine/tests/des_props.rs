//! Property tests for the discrete-event engine: on random DAGs over
//! random resources, the schedule must respect dependencies, resource
//! capacity bounds, and the standard makespan lower bounds, and it must
//! replay identically.
//!
//! Each of the 64 DAGs is drawn from its own seed through
//! `regent_fault::splitmix64`, so the suite runs offline in the default
//! `cargo test`, and every assertion names the seed that broke it.

use regent_fault::splitmix64;
use regent_machine::{Sim, SimResult, SimTaskId};
use std::collections::HashSet;

/// DAGs drawn per property.
const CASES: u64 = 64;

#[derive(Debug, Clone)]
struct RandomDag {
    /// Resource capacities.
    resources: Vec<u32>,
    /// (resource index, duration, completion delay).
    tasks: Vec<(usize, f64, f64)>,
    /// Edges (i, j) with i < j (acyclic by construction).
    edges: Vec<(usize, usize)>,
}

/// A SplitMix64 stream keyed by one seed.
struct Draw(u64);

impl Draw {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `lo..hi`.
    fn below(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.u64() % (hi - lo)
    }

    /// Uniform in `[0, scale)`.
    fn unit(&mut self, scale: f64) -> f64 {
        scale * (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl RandomDag {
    /// 1–3 resources of 1–3 servers, 1–39 tasks of duration `[0, 5)`
    /// and completion delay `[0, 1)`, and up to 59 forward edges.
    fn draw(seed: u64) -> RandomDag {
        let mut d = Draw(splitmix64(seed));
        let resources: Vec<u32> = (0..d.below(1, 4)).map(|_| d.below(1, 4) as u32).collect();
        let tasks: Vec<(usize, f64, f64)> = (0..d.below(1, 40))
            .map(|_| {
                let r = d.below(0, 100) as usize % resources.len();
                (r, d.unit(5.0), d.unit(1.0))
            })
            .collect();
        let nt = tasks.len() as u64;
        let edges = (0..d.below(0, 60))
            .map(|_| (d.below(0, nt) as usize, d.below(0, nt) as usize))
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
    for seed in 0..CASES {
        let dag = RandomDag::draw(seed);
        let result = dag.run();

        // 1. Dependencies respected: succ finish ≥ pred finish + succ's
        //    duration.
        for &(a, b) in &dag.edges {
            let fa = result.finish_times[a];
            let fb = result.finish_times[b];
            let (_, db, cb) = dag.tasks[b];
            assert!(
                fb + 1e-9 >= fa + db + cb,
                "seed {seed}: edge ({a},{b}): {fa} -> {fb}, dur {db}"
            );
        }

        // 2. Makespan ≥ every task's own span.
        for (i, &(_, d, cd)) in dag.tasks.iter().enumerate() {
            assert!(
                result.finish_times[i] + 1e-9 >= d + cd,
                "seed {seed}: task {i} finishes before its own span"
            );
            assert!(
                result.makespan + 1e-9 >= result.finish_times[i],
                "seed {seed}: task {i} finishes after the makespan"
            );
        }

        // 3. Resource capacity: busy time ≤ makespan × servers, and
        //    busy time == Σ durations on that resource.
        for (ri, &servers) in dag.resources.iter().enumerate() {
            let total = dag.work_on(ri);
            assert!(
                (result.busy_time[ri] - total).abs() < 1e-6,
                "seed {seed}: resource {ri} busy {} for work {total}",
                result.busy_time[ri]
            );
            if total > 0.0 {
                assert!(
                    result.busy_time[ri] <= result.makespan * servers as f64 + 1e-6,
                    "seed {seed}: resource {ri} over capacity"
                );
            }
        }

        // 4. Makespan ≥ work bound: max over resources of
        //    total/(servers).
        for (ri, &servers) in dag.resources.iter().enumerate() {
            assert!(
                result.makespan + 1e-6 >= dag.work_on(ri) / servers as f64,
                "seed {seed}: makespan {} under the work bound of resource {ri}",
                result.makespan
            );
        }
    }
}

#[test]
fn deterministic_replay() {
    for seed in 0..CASES {
        let dag = RandomDag::draw(seed);
        let (r1, r2) = (dag.run(), dag.run());
        assert_eq!(r1.makespan, r2.makespan, "seed {seed}");
        assert_eq!(r1.finish_times, r2.finish_times, "seed {seed}");
    }
}
