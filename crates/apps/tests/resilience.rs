//! Checkpoint–restart recovery on the evaluation applications: for
//! every app, a resilient run with injected shard crashes must produce
//! region contents and scalar environments *bit-identical* to the
//! fault-free run of the same strategy (tolerance 0.0 — replay re-executes the exact
//! same kernels on the exact same snapshots), and the Spy validator
//! must certify the recovered trace like any other: replayed work gets
//! fresh trace identities, so the happens-before graph stays sound.

mod common;

use common::Strategy::{Hybrid, Spmd};
use common::{assert_recovers, mk_circuit, mk_miniaero, mk_pennant, mk_stencil};
use regent_apps::stencil;
use regent_ir::Store;
use regent_runtime::{FaultPlan, ResilienceOptions};

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
