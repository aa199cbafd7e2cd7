//! DES determinism: `Sim::run` must produce the same `SimResult` on
//! repeated runs and under permuted task-insertion order. This is what
//! lets the figures and the per-model pins assert exact equalities.

use regent_machine::{Sim, SimResult};
use regent_trace::SimKind;

/// A small two-resource workload: per (node, step) one Copy feeding
/// one Compute, with cross-step chains. `order` permutes the insertion
/// order of the (node, step) cells; the logical DAG and the tags are
/// identical for every permutation.
fn build(order: &[(u32, u32)]) -> SimResult {
    let mut sim = Sim::new();
    let nic = sim.add_resource(2);
    let core = sim.add_resource(4);
    // BTreeMap: the chain-dependency insertion order below must itself
    // be deterministic for the permutation assertions to be meaningful.
    let mut cells = std::collections::BTreeMap::new();
    for &(node, step) in order {
        let c = sim.add_task_delayed(nic, 1e-6 * (node + 1) as f64, 1e-6);
        sim.tag(c, SimKind::Copy, node, step);
        let t = sim.add_task(core, 1e-5 * (step + 1) as f64);
        sim.tag(t, SimKind::Compute, node, step);
        sim.add_dep(c, t);
        cells.insert((node, step), (c, t));
    }
    // Chain steps: each cell's compute waits on the same node's
    // previous-step compute (insertion-order independent).
    for (&(node, step), &(_, t)) in &cells {
        if step > 0 {
            if let Some(&(_, prev)) = cells.get(&(node, step - 1)) {
                sim.add_dep(prev, t);
            }
        }
    }
    sim.run()
}

fn grid(nodes: u32, steps: u32) -> Vec<(u32, u32)> {
    (0..nodes)
        .flat_map(|n| (0..steps).map(move |s| (n, s)))
        .collect()
}

/// A deterministic permutation (SplitMix64-keyed sort — no external
/// RNG, no banned `Math.random` analogue).
fn permuted(mut v: Vec<(u32, u32)>, seed: u64) -> Vec<(u32, u32)> {
    v.sort_by_key(|&(n, s)| regent_fault::splitmix64(seed ^ ((n as u64) << 32) ^ s as u64));
    v
}

fn assert_same(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.busy_time, b.busy_time, "{what}: busy_time");
}

#[test]
fn repeated_runs_identical_without_faults() {
    let order = grid(4, 5);
    let a = build(&order);
    let b = build(&order);
    assert_same(&a, &b, "repeat");
    assert_eq!(a.finish_times, b.finish_times);
}

#[test]
fn insertion_order_does_not_change_schedule() {
    let base = grid(4, 5);
    let a = build(&base);
    for seed in 0..4 {
        let b = build(&permuted(base.clone(), seed));
        assert_same(&a, &b, "permutation");
    }
}
