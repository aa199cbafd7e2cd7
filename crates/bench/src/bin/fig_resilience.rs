//! Resilience figure (beyond the paper's evaluation): behavior of the
//! control-replicated execution under deterministic fault injection.
//!
//! Part 1 simulates the Stencil workload on a fixed machine under a
//! sweep of fault plans — message loss rates, a transient node
//! slowdown, and a mid-run node crash recovered from checkpoints at
//! several intervals — and prints makespan, goodput, overhead, and
//! recovery metrics for each. Part 2 runs the *real* SPMD executor on
//! the Stencil app with an injected shard crash across checkpoint
//! intervals and verifies recovery is bit-identical to the fault-free
//! run (the executor's recovery contract). Part 3 is the integrity
//! study: simulated detection/repair under a corruption-rate sweep,
//! then the real executor under silent bit flips — detected by
//! checksums, repaired by retransmission or rollback, Spy-certified,
//! bit-identical — and the checksum layer's rate-0 overhead on the
//! fig6 stencil's steady-state epochs (the number EXPERIMENTS.md
//! reports).
//!
//! Accepts `--max-nodes N` (simulated machine size, default 64),
//! `--steps S` (time steps, default 10), and `--corrupt <seed>,<rate>`
//! (overrides Part 3's default seed 11, rate 0.25).

use regent_apps::stencil;
use regent_apps::stencil::stencil_spec;
use regent_bench::parse_args;
use regent_cr::{control_replicate, CrOptions};
use regent_ir::Store;
use regent_machine::{
    format_resilience_table, simulate, FaultPlan, MachineConfig, Model, ResilienceSpec,
    ScenarioResult, SimOptions,
};
use regent_runtime::{run, Compiled, ResilienceOptions, RunOptions, RunResult};
use regent_trace::{integrity_summary, validate, Tracer};

fn main() {
    let runner = parse_args();
    let nodes = if runner.max_nodes == 1024 {
        64 // default machine for this figure; 1024 is parse_args' default
    } else {
        runner.max_nodes
    };
    let steps = if runner.steps == 5 { 10 } else { runner.steps };

    simulator_sweep(nodes, steps);
    real_executor_recovery();
    let (seed, rate) = runner.corrupt.unwrap_or((11, 0.25));
    corruption_study(nodes, steps, seed, rate);
}

/// Stencil on the simulated machine under CR, with `plan`'s faults and,
/// given `resilience`, the crash + checkpoint–restart model.
fn stencil_under_cr(
    nodes: usize,
    steps: u64,
    plan: Option<&FaultPlan>,
    resilience: Option<ResilienceSpec>,
) -> ScenarioResult {
    let machine = MachineConfig::piz_daint(nodes);
    let spec = stencil_spec(nodes, &machine);
    let mut opts = SimOptions {
        plan,
        resilience,
        trace: None,
    };
    simulate(Model::Cr, &machine, &spec, steps, &mut opts)
}

/// Part 1: the machine-model sweep.
fn simulator_sweep(nodes: usize, steps: u64) {
    let baseline = stencil_under_cr(nodes, steps, None, None);
    let mut rows: Vec<(String, ScenarioResult)> = vec![("fault-free".into(), baseline)];

    for rate in [0.001, 0.01, 0.05] {
        let plan = FaultPlan::from_seed_rate(42, rate);
        rows.push((
            format!("loss {:>5.1}%", rate * 100.0),
            stencil_under_cr(nodes, steps, Some(&plan), None),
        ));
    }

    // A transient 4× slowdown of node 0 for the middle third of the run.
    let window = baseline.makespan / 3.0;
    let slow = FaultPlan::new(42).slow_node(0, window, window, 4.0);
    rows.push((
        "slowdown 4x".into(),
        stencil_under_cr(nodes, steps, Some(&slow), None),
    ));

    // A node crash mid-run, recovered from checkpoints every K steps
    // (K=0: no checkpointing, replay everything since step 0). The
    // crash step is odd so it never lands exactly on a checkpoint.
    let crash_step = (steps / 2) | 1;
    for k in [0u64, 1, 2, 4] {
        let plan = FaultPlan::new(42).crash_shard(1, crash_step);
        let rspec = ResilienceSpec {
            ckpt_interval: k,
            ..ResilienceSpec::default()
        };
        rows.push((
            format!("crash @{crash_step} K={k}"),
            stencil_under_cr(nodes, steps, Some(&plan), Some(rspec)),
        ));
    }

    println!("=== Resilience: Stencil on {nodes} nodes, {steps} steps (simulated) ===");
    print!("{}", format_resilience_table(&rows, baseline.makespan));
    println!();
}

/// Part 2: the real SPMD executor's checkpoint–restart contract.
fn real_executor_recovery() {
    let ns = 4;
    let cfg = stencil::StencilConfig {
        n: 40,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 6,
    };
    let mk = || {
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    };

    let (prog, mut store) = mk();
    let roots = prog.root_regions();
    let spmd = control_replicate(prog, &CrOptions::new(ns)).unwrap();
    let plain = run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());

    println!("=== Resilience: real SPMD executor (Stencil, {ns} shards, crash at epoch 3) ===");
    println!(
        "{:>6}  {:>11}  {:>8}  {:>14}  {:>12}",
        "K", "checkpoints", "restores", "epochs replayed", "bit-identical"
    );
    for k in [1u64, 2, 4] {
        let opts = ResilienceOptions {
            checkpoint_interval: k,
            plan: FaultPlan::new(42).crash_shard(1, 3),
            ..Default::default()
        };
        let (prog_r, mut store_r) = mk();
        let spmd_r = control_replicate(prog_r, &CrOptions::new(ns)).unwrap();
        let res = run(
            Compiled::Spmd(&spmd_r),
            &mut store_r,
            &RunOptions::default().with_resilience(opts.clone()),
        );
        assert_eq!(plain.env, res.env, "recovered scalar env diverged");
        for &root in &roots {
            let ia = store.instance_in(&spmd.forest, root);
            let ib = store_r.instance_in(&spmd_r.forest, root);
            for (fid, def) in spmd.forest.fields(root).iter() {
                for pt in spmd.forest.domain(root).iter() {
                    let identical = match def.ty {
                        regent_region::FieldType::F64 => {
                            ia.read_f64(fid, pt).to_bits() == ib.read_f64(fid, pt).to_bits()
                        }
                        regent_region::FieldType::I64 => {
                            ia.read_i64(fid, pt) == ib.read_i64(fid, pt)
                        }
                    };
                    assert!(
                        identical,
                        "field {:?} diverged at {:?} (K={k})",
                        def.name, pt
                    );
                }
            }
        }
        let per = &res.per_shard[0];
        println!(
            "{:>6}  {:>11}  {:>8}  {:>14}  {:>12}",
            k, per.checkpoints, per.restores, per.epochs_replayed, "yes"
        );
    }
    println!();
    println!("recovered region contents and scalars are bit-identical to the fault-free run");
}

/// Part 3: the end-to-end integrity layer.
fn corruption_study(nodes: usize, steps: u64, seed: u64, rate: f64) {
    // 3a. Simulated detection/repair under a corruption-rate sweep:
    // every silent flip is caught by the receiver's checksum and
    // repaired by a backoff retransmission, at a makespan cost.
    let baseline = stencil_under_cr(nodes, steps, None, None);
    println!("=== Integrity: Stencil on {nodes} nodes, {steps} steps (simulated, seed {seed}) ===");
    println!(
        "{:>12}  {:>9}  {:>9}  {:>9}  {:>10}  {:>10}",
        "corrupt rate", "injected", "detected", "repaired", "escalated", "overhead"
    );
    for r in [0.001, 0.01, 0.05] {
        let plan = FaultPlan::new(seed).with_corrupt_rate(r);
        let res = stencil_under_cr(nodes, steps, Some(&plan), None);
        let f = &res.faults;
        assert_eq!(
            f.corruptions_injected, f.corruptions_detected,
            "a silent flip escaped the checksums"
        );
        println!(
            "{:>11.1}%  {:>9}  {:>9}  {:>9}  {:>10}  {:>9.2}%",
            r * 100.0,
            f.corruptions_injected,
            f.corruptions_detected,
            f.corruptions_repaired,
            f.corruptions_escalated,
            (res.makespan / baseline.makespan - 1.0) * 100.0
        );
    }
    println!();

    // 3b. The real SPMD executor under silent bit flips: payload
    // corruption repairs by retransmission, resident corruption
    // escalates to coordinated rollback; the run must end bit-identical
    // to the fault-free one and the Spy must certify the repaired trace.
    let ns = 4;
    let cfg = stencil::StencilConfig {
        n: 64,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 8,
    };
    let mk = || {
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    };
    let (prog, mut store) = mk();
    let roots = prog.root_regions();
    let spmd = control_replicate(prog, &CrOptions::new(ns)).unwrap();
    let plain = run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());

    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(seed).with_corrupt_rate(rate),
        ..Default::default()
    };
    let (prog_c, mut store_c) = mk();
    let spmd_c = control_replicate(prog_c, &CrOptions::new(ns)).unwrap();
    let tracer = Tracer::enabled();
    let res = run(
        Compiled::Spmd(&spmd_c),
        &mut store_c,
        &RunOptions::traced(&tracer).with_resilience(opts.clone()),
    );
    let trace = tracer.take();
    assert_bit_identical(&plain, &spmd, &store, &spmd_c, &store_c, &res, &roots);

    let s = integrity_summary(&trace);
    assert!(s.coherent(), "incoherent integrity summary: {s:?}");
    assert_eq!(s.detected, res.stats.corruptions_detected);
    let oracle = regent_cr::ForestOracle::new(&spmd_c.forest);
    let report = validate(&trace, &oracle).expect("corrupted-run trace must stay well-formed");
    assert!(
        report.ok(),
        "spy violations on repaired trace:\n{:?}",
        report.violations
    );
    println!(
        "=== Integrity: real SPMD executor (Stencil, {ns} shards, seed {seed}, rate {rate}) ==="
    );
    println!(
        "injected {}  detected {}  repaired {}  escalated {}  rollbacks {}",
        res.stats.corruptions_injected,
        res.stats.corruptions_detected,
        res.stats.corruptions_repaired,
        res.stats.corruptions_escalated,
        res.per_shard.iter().map(|s| s.restores).max().unwrap_or(0),
    );
    println!(
        "final state bit-identical to fault-free run: yes; Spy certified {} dependences",
        report.certified
    );
    println!();

    // 3c. Checksum overhead at rate 0 on the fig6 stencil's
    // steady-state epochs: the integrity layer seals every instance and
    // verifies every frame, but never finds anything — the cost of
    // always-on detection.
    let overhead_cfg = stencil::StencilConfig {
        n: 256,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 20,
    };
    let mk = || {
        let (prog, h) = stencil::stencil_program(overhead_cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    };
    let time_with = |integrity: bool| {
        // Both configurations checkpoint identically; the delta is
        // pure seal/verify work. Best of 3 to shed scheduler noise.
        (0..3)
            .map(|_| {
                let opts = ResilienceOptions {
                    checkpoint_interval: 4,
                    integrity,
                    ..Default::default()
                };
                let (prog, mut store) = mk();
                let spmd = control_replicate(prog, &CrOptions::new(ns)).unwrap();
                let t0 = std::time::Instant::now();
                let res = run(
                    Compiled::Spmd(&spmd),
                    &mut store,
                    &RunOptions::default().with_resilience(opts.clone()),
                );
                let dt = t0.elapsed().as_secs_f64();
                assert_eq!(res.stats.corruptions_detected, 0);
                dt
            })
            .fold(f64::INFINITY, f64::min)
    };
    let base = time_with(false);
    let sealed = time_with(true);
    println!("=== Integrity: checksum overhead at rate 0 (fig6 stencil, real executor) ===");
    println!(
        "{}x{} points, {} steps, {ns} shards: base {:.1} ms, integrity {:.1} ms ({:+.1}% overhead)",
        overhead_cfg.n,
        overhead_cfg.n,
        overhead_cfg.steps,
        base * 1e3,
        sealed * 1e3,
        (sealed / base - 1.0) * 100.0
    );
    println!();
}

/// Asserts the corrupted-then-repaired run ended bit-identical to the
/// fault-free one: scalar environment and every field of every root
/// region.
fn assert_bit_identical(
    plain: &RunResult,
    spmd: &regent_cr::SpmdProgram,
    store: &Store,
    spmd_c: &regent_cr::SpmdProgram,
    store_c: &Store,
    res: &RunResult,
    roots: &[regent_region::RegionId],
) {
    assert_eq!(plain.env, res.env, "repaired scalar env diverged");
    for &root in roots {
        let ia = store.instance_in(&spmd.forest, root);
        let ib = store_c.instance_in(&spmd_c.forest, root);
        for (fid, def) in spmd.forest.fields(root).iter() {
            for pt in spmd.forest.domain(root).iter() {
                let identical = match def.ty {
                    regent_region::FieldType::F64 => {
                        ia.read_f64(fid, pt).to_bits() == ib.read_f64(fid, pt).to_bits()
                    }
                    regent_region::FieldType::I64 => ia.read_i64(fid, pt) == ib.read_i64(fid, pt),
                };
                assert!(identical, "field {:?} diverged at {:?}", def.name, pt);
            }
        }
    }
}
