//! Fault injection under the **shared-log** executor: checkpoint
//! recovery from injected shard crashes must leave region contents and
//! the scalar environment *bit-identical* to the fault-free log run,
//! and the Spy validator must certify the recovered trace (replayed
//! work gets fresh trace identities, so the happens-before graph stays
//! sound). Also covers the supervisor-facing transient path: a log job
//! killed by an injected transient fault is retried *from scratch*
//! (the sequencer cannot re-derive skipped scalar feedback, so log
//! jobs carry no rescue slot), and the retry is bit-identical too.

mod common;

use common::{
    assert_recovers, certify, compare_roots, mk_circuit, mk_pennant, mk_stencil, Strategy::Log,
};
use regent_cr::{control_replicate, CrOptions};
use regent_runtime::{
    classify_failure, run, CancelToken, Compiled, FailureClass, FaultPlan, ResilienceOptions,
    RunOptions,
};
use regent_trace::Tracer;

#[test]
fn stencil_log_recovers_bit_identical() {
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(7).crash_shard(1, 3),
        ..Default::default()
    };
    let res = assert_recovers(Log, mk_stencil, 3, &opts);
    assert!(
        res.stats.restores > 0,
        "the injected crash never rolled back"
    );
}

#[test]
fn circuit_log_recovers_bit_identical() {
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(13).crash_shard(2, 3),
        ..Default::default()
    };
    let res = assert_recovers(Log, mk_circuit, 3, &opts);
    assert!(res.stats.restores > 0);
}

#[test]
fn pennant_log_recovers_bit_identical() {
    // While-loop app: the rollback must restore the sequencer's
    // replicated scalar state so the Min-reduced dt re-derives the
    // same trip decisions through the log.
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(33).crash_shard(1, 2),
        ..Default::default()
    };
    assert_recovers(Log, || mk_pennant(2e-2), 3, &opts);
}

#[test]
fn stencil_log_seeded_plans_recover() {
    // The REGENT_FAULT_SEED-shaped plan (seeded single crash): the CI
    // fault-smoke configuration, through the log executor.
    for seed in [42u64, 7, 99] {
        let opts = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::seeded_crash(seed, 3, 4),
            ..Default::default()
        };
        assert_recovers(Log, mk_stencil, 3, &opts);
    }
}

#[test]
fn log_transient_fault_then_scratch_retry_bit_identical() {
    // A transient fault (injected through the cancel token's epoch
    // hook — the service supervisor's mechanism) kills the whole log
    // run with a TRANSIENT-classified unwind; the retry starts from
    // scratch and must be bit-identical to the fault-free run. This is
    // exactly the supervisor's retry path for log jobs, which carry no
    // rescue slot.
    let (prog_a, mut store_a) = mk_stencil();
    let roots = prog_a.root_regions();
    let spmd_a = control_replicate(prog_a, &CrOptions::new(3)).unwrap();
    let plain = run(Compiled::Log(&spmd_a), &mut store_a, &RunOptions::default());

    let (prog_b, mut store_b) = mk_stencil();
    let spmd_b = control_replicate(prog_b, &CrOptions::new(3)).unwrap();
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        cancel: Some(CancelToken::with_transient_at(2)),
        ..Default::default()
    };
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(
            Compiled::Log(&spmd_b),
            &mut store_b,
            &RunOptions::default().with_resilience(opts.clone()),
        );
    }))
    .expect_err("the injected transient must kill the run");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "opaque".to_string());
    assert_eq!(
        classify_failure(&msg),
        FailureClass::Transient,
        "unexpected failure class for: {msg}"
    );

    // Scratch retry (fresh program, store, and clean options), traced
    // and certified like any healthy run.
    let (prog_c, mut store_c) = mk_stencil();
    let spmd_c = control_replicate(prog_c, &CrOptions::new(3)).unwrap();
    let tracer = Tracer::enabled();
    let retry = run(
        Compiled::Log(&spmd_c),
        &mut store_c,
        &RunOptions::traced(&tracer).with_resilience(ResilienceOptions {
            checkpoint_interval: 2,
            ..Default::default()
        }),
    );
    assert_eq!(plain.env, retry.env, "scratch retry env diverged");
    let (a, c) = ((&spmd_a.forest, &store_a), (&spmd_c.forest, &store_c));
    compare_roots("plain vs scratch retry", &roots, a, c, 0.0);
    certify("scratch retry", &spmd_c.forest, &tracer.take());
}
