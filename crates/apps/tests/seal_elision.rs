//! The integrity layer skips the write-point re-seals that no check can
//! read, and no check can tell: each evaluation app runs guarded at
//! checkpoint intervals 1–4 under a seeded corruption rate, every flip
//! injected is detected, and the results are bit-identical to a
//! fault-free run of the same strategy, with the recovered trace
//! Spy-certified. Every sweep the runs pass fail-stops on an unsealed
//! column.

mod common;

use common::Strategy::{Hybrid, Spmd};
use common::{assert_recovers, mk_circuit, mk_miniaero, mk_pennant, mk_stencil};
use regent_ir::{Program, Store};
use regent_runtime::{FaultPlan, ResilienceOptions};

/// Runs `mk`'s program guarded at intervals 1–4 with resident and
/// in-flight corruption, under both strategies that replicate a loop.
fn invisible(app: &str, mk: fn() -> (Program, Store)) {
    let mut escalated = 0;
    for checkpoint_interval in 1..=4 {
        for strategy in [Spmd, Hybrid] {
            let opts = ResilienceOptions {
                checkpoint_interval,
                plan: FaultPlan::new(11).with_corrupt_rate(0.25),
                integrity: true,
            };
            let s = assert_recovers(strategy, mk, 3, &opts).stats;
            let label = format!("{app}/{strategy:?} at interval {checkpoint_interval}");
            assert!(s.corruptions_injected > 0, "{label}: nothing injected");
            assert_eq!(
                s.corruptions_injected, s.corruptions_detected,
                "{label}: a flip escaped"
            );
            escalated += s.corruptions_escalated;
        }
    }
    assert!(escalated > 0, "{app}: no resident flip was injected");
}

#[test]
fn stencil_checks_see_no_elided_seal() {
    invisible("stencil", mk_stencil);
}

#[test]
fn circuit_checks_see_no_elided_seal() {
    invisible("circuit", mk_circuit);
}

#[test]
fn miniaero_checks_see_no_elided_seal() {
    invisible("miniaero", mk_miniaero);
}

#[test]
fn pennant_checks_see_no_elided_seal() {
    invisible("pennant", || mk_pennant(2e-3));
}
