//! Checkpoint–restart recovery on the evaluation applications: for
//! every app, a resilient run with injected shard crashes must produce
//! region contents and scalar environments *bit-identical* to the
//! fault-free run of the same strategy (tolerance 0.0 — replay re-executes the exact
//! same kernels on the exact same snapshots), and the Spy validator
//! must certify the recovered trace like any other: replayed work gets
//! fresh trace identities, so the happens-before graph stays sound.

mod common;

use common::Strategy::{Hybrid, Spmd};
use common::{
    assert_recovers, assert_refill_recovers, compare_roots, forest, mk_circuit, mk_miniaero,
    mk_pennant, mk_stencil,
};
use regent_apps::stencil;
use regent_cr::SpmdStmt;
use regent_ir::{Program, Store};
use regent_runtime::{run, Compiled, FaultPlan, ResilienceOptions, RunOptions};

type Mk = fn() -> (Program, Store);

/// Stencil and Circuit with their tolerance against the interpreter.
fn stencil_and_circuit() -> [(&'static str, Mk, f64); 2] {
    [("stencil", mk_stencil, 0.0), ("circuit", mk_circuit, 1e-12)]
}

/// Checkpoints every 4 epochs, and a crash at epoch 1, 2 or 3: every
/// shard rolls back to the epoch-0 snapshot, which is the fill (nothing
/// precedes either app's loop), so the image is refilled from the store
/// (and resealed, with the integrity layer on).
#[test]
fn refill_recovers_stencil_and_circuit() {
    for (app, mk, tol) in stencil_and_circuit() {
        for integrity in [false, true] {
            for epoch in 1..=3 {
                let opts = ResilienceOptions {
                    checkpoint_interval: 4,
                    plan: FaultPlan::new(epoch).crash_shard(1, epoch),
                    integrity,
                };
                let res = assert_refill_recovers(Spmd, mk, 3, tol, &opts);
                assert_eq!(
                    res.per_shard[0].epochs_replayed, epoch,
                    "{app}: a crash at epoch {epoch} replays from epoch 0"
                );
            }
        }
    }
}

/// The same rollback to the fill, escalated from a resident bit flip:
/// the refill must overwrite it and reseal every instance, so that every
/// later flip is caught (injected == detected).
#[test]
fn refill_recovers_under_resident_corruption() {
    let plan = FaultPlan::new(11).with_corrupt_rate(0.25);
    assert!(
        (1..4).any(|epoch| plan.resident_corruption(epoch, 3).is_some()),
        "the plan flips a resident bit before the first copied snapshot"
    );
    for (app, mk, tol) in stencil_and_circuit() {
        let opts = ResilienceOptions {
            checkpoint_interval: 4,
            plan: plan.clone(),
            ..Default::default()
        };
        let s = assert_refill_recovers(Spmd, mk, 3, tol, &opts).stats;
        assert!(s.corruptions_escalated >= 1, "{app}: nothing escalated");
        assert_eq!(
            s.corruptions_injected, s.corruptions_detected,
            "{app}: a flip escaped"
        );
    }
}

/// Removes every temporary reset from `body`, so that a reduction
/// temporary carries its partial sums from one epoch into the next.
fn strip_resets(body: &mut Vec<SpmdStmt>) {
    body.retain(|s| !matches!(s, SpmdStmt::ResetTemp(_)));
    for s in body {
        match s {
            SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => strip_resets(body),
            SpmdStmt::If {
                then_body,
                else_body,
                ..
            } => {
                strip_resets(then_body);
                strip_resets(else_body);
            }
            _ => {}
        }
    }
}

/// Circuit without its temporary resets: the charge temporaries then
/// accumulate across epochs, so a rollback to the fill must reset them
/// to their identity too, not only refill the use instances.
#[test]
fn refill_restores_temporaries_that_carry_state() {
    let stripped = || {
        let (prog, store) = mk_circuit();
        let mut compiled = Spmd.compile(prog, 3);
        let Compiled::Spmd(spmd) = &mut compiled else {
            unreachable!("compiled for SPMD")
        };
        strip_resets(&mut spmd.body);
        (compiled, store)
    };
    let roots = mk_circuit().0.root_regions();
    let (plain, mut want) = stripped();
    let rp = run(plain.as_ref(), &mut want, &RunOptions::default());
    let (crashed, mut got) = stripped();
    let opts = RunOptions::default().with_resilience(ResilienceOptions {
        checkpoint_interval: 4,
        plan: FaultPlan::new(5).crash_shard(0, 2),
        ..Default::default()
    });
    let rc = run(crashed.as_ref(), &mut got, &opts);
    assert_eq!(rc.per_shard[0].epochs_replayed, 2);
    assert_eq!(rp.env, rc.env);
    let (a, b) = ((forest(&plain), &want), (forest(&crashed), &got));
    compare_roots("stripped circuit", &roots, a, b, 0.0);
}

#[test]
fn stencil_recovers_bit_identical() {
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(7).crash_shard(1, 3),
        ..Default::default()
    };
    for strategy in [Spmd, Hybrid] {
        let res = assert_recovers(strategy, mk_stencil, 3, &opts);
        assert_eq!(res.per_shard[0].restores, 1, "{strategy:?}");
        assert_eq!(res.per_shard[0].epochs_replayed, 1, "{strategy:?}");
    }
}

#[test]
fn circuit_recovers_bit_identical() {
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(13).crash_shard(2, 3),
        ..Default::default()
    };
    let res = assert_recovers(Spmd, mk_circuit, 3, &opts);
    assert!(res.per_shard[0].restores > 0);
}

#[test]
fn miniaero_recovers_bit_identical() {
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(21).crash_shard(0, 2),
        ..Default::default()
    };
    let res = assert_recovers(Spmd, mk_miniaero, 3, &opts);
    assert!(res.per_shard[0].restores > 0);
}

#[test]
fn pennant_recovers_bit_identical() {
    // PENNANT's outer loop is a While driven by a Min-reduced dt — the
    // rollback must restore the replicated scalar state so every shard
    // re-derives the same trip decisions.
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(33).crash_shard(1, 2),
        ..Default::default()
    };
    assert_recovers(Spmd, || mk_pennant(2e-2), 3, &opts);
}

#[test]
fn stencil_seeded_plan_recovers() {
    // The REGENT_FAULT_SEED-shaped plan (seeded single crash, K=2):
    // what the CI fault smoke exercises on every app test.
    let mk = || {
        let cfg = stencil::StencilConfig {
            n: 32,
            ntx: 2,
            nty: 2,
            radius: 2,
            steps: 5,
        };
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    };
    for seed in [42u64, 7, 99] {
        let opts = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::seeded_crash(seed, 4, 4),
            ..Default::default()
        };
        assert_recovers(Spmd, mk, 4, &opts);
    }
}
