//! DES determinism: `Sim::run` must produce the same `SimResult` on
//! repeated runs and under permuted task-insertion order, with and
//! without an active fault plan (same seed ⇒ same schedule). This is
//! what makes fault-injection experiments reproducible and lets the
//! resilience tests assert exact equalities.

use regent_fault::{FaultPlan, RetryPolicy};
use regent_machine::{
    simulate, MachineConfig, Model, PhaseSpec, ResilienceSpec, Sim, SimOptions, SimResult,
    TimestepSpec,
};
use regent_trace::SimKind;

/// A small two-resource workload: per (node, step) one Copy feeding
/// one Compute, with cross-step chains. `order` permutes the insertion
/// order of the (node, step) cells; the logical DAG and the tags are
/// identical for every permutation.
fn build(order: &[(u32, u32)], plan: Option<&FaultPlan>) -> SimResult {
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
    if let Some(p) = plan {
        sim.set_faults(p.clone(), RetryPolicy::default());
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
    assert_eq!(a.faults, b.faults, "{what}: fault stats");
}

#[test]
fn repeated_runs_identical_without_faults() {
    let order = grid(4, 5);
    let a = build(&order, None);
    let b = build(&order, None);
    assert_same(&a, &b, "fault-free repeat");
    assert_eq!(a.finish_times, b.finish_times);
}

#[test]
fn repeated_runs_identical_with_faults() {
    let plan = FaultPlan::new(1234)
        .with_loss_rate(0.3)
        .with_dup_rate(0.1)
        .with_delay(0.1, 1e-4)
        .slow_node(1, 0.0, 1.0, 2.0);
    let order = grid(4, 5);
    let a = build(&order, Some(&plan));
    let b = build(&order, Some(&plan));
    assert_same(&a, &b, "faulted repeat");
    assert_eq!(a.finish_times, b.finish_times);
    assert!(a.faults.messages_lost > 0, "plan should have bitten");
}

#[test]
fn insertion_order_does_not_change_schedule() {
    let base = grid(4, 5);
    let a = build(&base, None);
    for seed in 0..4 {
        let b = build(&permuted(base.clone(), seed), None);
        assert_same(&a, &b, "fault-free permutation");
    }
}

#[test]
fn insertion_order_does_not_change_faulted_schedule() {
    // Fault decisions are keyed on (kind, node, step, occurrence), not
    // on task ids, so permuting construction order must not re-roll
    // any message's fate.
    let plan = FaultPlan::new(77).with_loss_rate(0.25).with_dup_rate(0.1);
    let base = grid(4, 5);
    let a = build(&base, Some(&plan));
    assert!(a.faults.messages_lost > 0);
    for seed in 0..4 {
        let b = build(&permuted(base.clone(), seed), Some(&plan));
        assert_same(&a, &b, "faulted permutation");
    }
}

#[test]
fn different_seed_different_schedule() {
    let base = grid(6, 6);
    let a = build(&base, Some(&FaultPlan::new(1).with_loss_rate(0.3)));
    let b = build(&base, Some(&FaultPlan::new(2).with_loss_rate(0.3)));
    assert_ne!(
        a.faults.messages_lost, b.faults.messages_lost,
        "distinct seeds should produce distinct loss patterns"
    );
}

#[test]
fn resilient_scenario_is_deterministic() {
    let machine = MachineConfig::piz_daint(4);
    let spec = TimestepSpec {
        num_nodes: 4,
        elements_per_node: 1000,
        phases: vec![PhaseSpec {
            name: "w".into(),
            tasks_per_node: 3,
            task_compute_s: 1e-4,
            copies: vec![],
            collective: true,
            consumes_collective: false,
        }],
    };
    let plan = FaultPlan::new(5).crash_shard(2, 3).with_loss_rate(0.1);
    let resilient = || {
        let mut opts = SimOptions {
            plan: Some(&plan),
            resilience: Some(ResilienceSpec {
                ckpt_interval: 2,
                ..ResilienceSpec::default()
            }),
            trace: None,
        };
        simulate(Model::Cr, &machine, &spec, 6, &mut opts)
    };
    let a = resilient();
    let b = resilient();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.goodput_per_node, b.goodput_per_node);
    assert_eq!(a.faults, b.faults);
    // And the implicit model stays deterministic too.
    let implicit = || {
        simulate(
            Model::Implicit,
            &machine,
            &spec,
            3,
            &mut SimOptions::default(),
        )
    };
    let c = implicit();
    let d = implicit();
    assert_eq!(c.makespan, d.makespan);
}
