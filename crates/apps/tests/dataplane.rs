//! Data-plane differential matrix: every evaluation application must
//! produce identical results over the exchange rings, however many
//! frames one copy statement addresses to one peer.
//!
//! The matrix: {stencil, circuit, MiniAero, PENNANT} × {SPMD, hybrid,
//! shared-log}. Each cell is
//! compared against the sequential reference (bit-exact for stencil,
//! app tolerance elsewhere — the same contracts as `differential.rs`)
//! and Spy-certified from its trace.
//!
//! On top of the matrix, the resilience protocols are regressed over
//! the rings: checkpointed crash recovery and corruption retransmission
//! must stay bit-identical, and an unrecoverable mid-exchange shard
//! death must unwind its peers *promptly* (ring seals / barrier
//! poisoning, not the hang timeout) with the pinned diagnostics.
//!
//! A ring's capacity is derived from the exchange schedule, so no copy
//! statement may be too large for it: `wide_statement_completes` runs a
//! Stencil whose one copy statement addresses 320 frames to the peer
//! shard in each direction — more than the fixed 256-slot rings of
//! earlier versions held, where both producers parked on a full ring
//! and the run died with "likely deadlock".
//!
//! The hang timeout is an option of a run, so nothing here touches the
//! environment: every run is under a 5 s timeout (against the default
//! 30) that keeps a regression from stalling the suite — nothing here
//! may come near it. (Shards always run on pinned resident members;
//! `team.rs` checks two concurrent teams' threads and CPUs.)

mod common;

use common::{compare_roots, forest, mk_stencil, spmd_family_agrees, Strategy};
use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_cr::{control_replicate, CrOptions};
use regent_ir::{interp, Program, Store};
use regent_runtime::{run, Compiled, FaultPlan, ResilienceOptions, RunOptions};
use std::time::Duration;

/// A plain run of this suite, under its 5 s timeout.
fn opts() -> RunOptions {
    RunOptions {
        hang_timeout: Duration::from_secs(5),
        ..RunOptions::default()
    }
}

type AppFactory = Box<dyn Fn() -> (Program, Store)>;

/// The four evaluation apps at differential-test sizes, with their
/// reduction tolerances (0.0 ⇒ bit-exact vs the sequential reference).
fn apps() -> Vec<(&'static str, AppFactory, f64)> {
    vec![
        (
            "stencil",
            Box::new(|| {
                let cfg = stencil::StencilConfig {
                    n: 32,
                    ntx: 2,
                    nty: 2,
                    radius: 2,
                    steps: 4,
                };
                let (prog, h) = stencil::stencil_program(cfg);
                let mut store = Store::new(&prog);
                stencil::init_stencil(&prog, &mut store, &h);
                (prog, store)
            }) as AppFactory,
            0.0,
        ),
        (
            "circuit",
            Box::new(|| {
                let cfg = circuit::CircuitConfig {
                    pieces: 6,
                    nodes_per_piece: 30,
                    wires_per_piece: 90,
                    cross_fraction: 0.12,
                    steps: 3,
                    substeps: 3,
                    seed: 42,
                };
                let g = circuit::generate_graph(&cfg);
                let (prog, h) = circuit::circuit_program(cfg, &g);
                let mut store = Store::new(&prog);
                circuit::init_circuit(&prog, &mut store, &h, &g);
                (prog, store)
            }),
            1e-12,
        ),
        (
            "miniaero",
            Box::new(|| {
                let cfg = miniaero::MiniAeroConfig {
                    nx: 12,
                    ny: 4,
                    nz: 3,
                    pieces: 4,
                    steps: 3,
                    dt: 5e-4,
                };
                let mesh = miniaero::build_mesh(&cfg);
                let (prog, h) = miniaero::miniaero_program(cfg, &mesh);
                let mut store = Store::new(&prog);
                miniaero::init_miniaero(&prog, &mut store, &h, &cfg, &mesh);
                (prog, store)
            }),
            1e-11,
        ),
        (
            "pennant",
            Box::new(|| {
                let cfg = pennant::PennantConfig {
                    nzx: 10,
                    nzy: 5,
                    pieces: 3,
                    tstop: 2e-2,
                    dtmax: 2e-2,
                };
                let mesh = pennant::build_mesh(&cfg);
                let (prog, h) = pennant::pennant_program(cfg, &mesh);
                let mut store = Store::new(&prog);
                pennant::init_pennant(&prog, &mut store, &h, &cfg, &mesh);
                (prog, store)
            }),
            1e-11,
        ),
    ]
}

/// One matrix cell: the app through SPMD, hybrid, and shared-log, each
/// certified and compared.
fn run_cell(label: &str, mk: &dyn Fn() -> (Program, Store), ns: usize, tol: f64) {
    let (prog_seq, mut store_seq) = mk();
    let roots = prog_seq.root_regions();
    let (env_seq, _) = interp::run(&prog_seq, &mut store_seq);
    let reference = (&env_seq[..], &prog_seq.forest, &store_seq);
    spmd_family_agrees(label, mk, ns, tol, reference, &roots, &opts());
}

/// Crash recovery and corruption retransmission over the rings: both
/// must be bit-identical to the plain SPMD run, with the fault
/// machinery demonstrably exercised.
fn run_resilience_cell(label: &str) {
    let mk = mk_stencil;
    let ns = 3;
    let (prog_a, mut store_a) = mk();
    let roots = prog_a.root_regions();
    let spmd_a = control_replicate(prog_a, &CrOptions::new(ns)).unwrap();
    let plain = run(Compiled::Spmd(&spmd_a), &mut store_a, &opts());

    // Crash + rollback: shard 1 dies at epoch 3, replays from the
    // last snapshot, and the result is bit-identical.
    let crash_opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(7).crash_shard(1, 3),
        ..Default::default()
    };
    let (prog_b, mut store_b) = mk();
    let spmd_b = control_replicate(prog_b, &CrOptions::new(ns)).unwrap();
    let recovered = run(
        Compiled::Spmd(&spmd_b),
        &mut store_b,
        &opts().with_resilience(crash_opts.clone()),
    );
    assert_eq!(
        plain.env, recovered.env,
        "{label}: env diverged after recovery"
    );
    assert!(
        recovered.per_shard[0].restores >= 1,
        "{label}: crash never rolled back"
    );
    compare_roots(
        &format!("{label}/crash"),
        &roots,
        (&spmd_a.forest, &store_a),
        (&spmd_b.forest, &store_b),
        0.0,
    );

    // Corruption + retransmission: every injected flip detected, the
    // result still bit-identical, useful-work stats unchanged.
    let corrupt_opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(3).with_corrupt_rate(0.2),
        ..Default::default()
    };
    let (prog_c, mut store_c) = mk();
    let spmd_c = control_replicate(prog_c, &CrOptions::new(ns)).unwrap();
    let repaired = run(
        Compiled::Spmd(&spmd_c),
        &mut store_c,
        &opts().with_resilience(corrupt_opts.clone()),
    );
    assert_eq!(
        plain.env, repaired.env,
        "{label}: env diverged under corruption"
    );
    let st = &repaired.stats;
    assert!(
        st.corruptions_detected >= 1,
        "{label}: seed injected nothing"
    );
    assert_eq!(
        st.corruptions_injected, st.corruptions_detected,
        "{label}: a silent flip escaped the checksums"
    );
    assert_eq!(plain.stats.tasks_executed, repaired.stats.tasks_executed);
    assert_eq!(plain.stats.messages_sent, repaired.stats.messages_sent);
    compare_roots(
        &format!("{label}/corruption"),
        &roots,
        (&spmd_a.forest, &store_a),
        (&spmd_c.forest, &store_c),
        0.0,
    );
}

/// A shard that dies unrecoverably mid-exchange (its retry budget
/// exhausts while producing) must take the whole run down *promptly*:
/// peers unwind through sealed rings / the poisoned barrier, not the
/// hang timeout, and the combined diagnostic names the root cause.
fn run_peer_death_cell(label: &str) {
    let t0 = std::time::Instant::now();
    let handle = std::thread::spawn(|| {
        let cfg = stencil::StencilConfig {
            n: 32,
            ntx: 2,
            nty: 2,
            radius: 2,
            steps: 4,
        };
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        let spmd = control_replicate(prog, &CrOptions::new(2)).unwrap();
        // Rate 1.0: every transmission corrupts, so the producer burns
        // its whole retry budget and dies mid-exchange.
        let doomed = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::new(5).with_corrupt_rate(1.0),
            ..Default::default()
        };
        run(
            Compiled::Spmd(&spmd),
            &mut store,
            &opts().with_resilience(doomed),
        );
    });
    let err = handle.join().expect_err("run should fail, not hang");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("unrecoverable exchange corruption"),
        "{label}: diagnostic should carry the root cause: {msg}"
    );
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(20),
        "{label}: failure took {:?} — survivors likely hung on the dead peer",
        t0.elapsed()
    );
}

#[test]
fn data_plane_matrix() {
    let ns = 3;
    for (name, mk, tol) in &apps() {
        run_cell(name, mk, ns, *tol);
    }
    // The fault protocols ride the same transport.
    run_resilience_cell("resilience");
    run_peer_death_cell("peer death");
}

/// Stencil cut into 2 × 320 tiles on 2 shards: shard 0 owns one column
/// of tiles, shard 1 the other, so the one copy statement of a step
/// addresses 320 frames to the peer in each direction — and, with
/// corruption injected, up to a retry budget's worth of frames per
/// message. Every strategy must finish well inside the hang timeout,
/// bit-identical to the interpreter.
#[test]
fn wide_statement_completes() {
    let mk = || {
        let cfg = stencil::StencilConfig {
            n: 640,
            ntx: 2,
            nty: 320,
            radius: 2,
            steps: 2,
        };
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    };
    let (prog_seq, mut store_seq) = mk();
    let roots = prog_seq.root_regions();
    let (env_seq, _) = interp::run(&prog_seq, &mut store_seq);

    let corrupting = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(3).with_corrupt_rate(0.2),
        integrity: true,
    };
    for strategy in Strategy::ALL {
        for resilience in [None, Some(&corrupting)] {
            let kind = if resilience.is_some() {
                "corrupting"
            } else {
                "plain"
            };
            let label = format!("2x320 {strategy:?} {kind}");
            let (prog, mut store) = mk();
            let compiled = strategy.compile(prog, 2);
            let opts = match resilience {
                Some(r) => opts().with_resilience(r.clone()),
                None => opts(),
            };
            let r = run(compiled.as_ref(), &mut store, &opts);
            assert_eq!(env_seq, r.env, "{label}: env diverged");
            assert!(
                r.stats.messages_sent >= 2 * 2 * 320,
                "{label}: the statement should carry 320 frames each way, every step ({:?})",
                r.stats.messages_sent
            );
            if resilience.is_some() {
                assert!(
                    r.stats.corruptions_detected >= 1,
                    "{label}: seed injected nothing"
                );
                assert_eq!(
                    r.stats.corruptions_injected, r.stats.corruptions_detected,
                    "{label}: a silent flip escaped the checksums"
                );
            }
            compare_roots(
                &label,
                &roots,
                (&prog_seq.forest, &store_seq),
                (forest(&compiled), &store),
                0.0,
            );
        }
    }
}
