//! Data-plane differential matrix: every evaluation application must
//! produce identical results no matter which transport carries the
//! shard exchanges and whether shard threads are pinned.
//!
//! The matrix: {SPSC ring (default), legacy mpsc channel} ×
//! {`REGENT_PIN_CORES` off, on} × {stencil, circuit, MiniAero,
//! PENNANT} × {SPMD, hybrid, shared-log}. Each cell is compared
//! against the sequential reference (bit-exact for stencil, app
//! tolerance elsewhere — the same contracts as `differential.rs`) and
//! Spy-certified from its trace.
//!
//! On top of the matrix, the resilience protocols are regressed on
//! both planes: checkpointed crash recovery and corruption
//! retransmission must stay bit-identical, and an unrecoverable
//! mid-exchange shard death must unwind its peers *promptly* (ring
//! seals / barrier poisoning, not the hang timeout) with the same
//! diagnostics the channel plane produced.
//!
//! `REGENT_DATA_PLANE` and `REGENT_PIN_CORES` are process-global, so
//! the whole matrix lives in ONE sequential `#[test]` in its own
//! binary (the `env_opts.rs` idiom); the executors re-read the
//! variables at every launch, which is what makes the toggling valid.

mod common;

use common::{compare_roots, mk_stencil, spmd_family_agrees};
use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_cr::{control_replicate, CrOptions};
use regent_ir::{interp, Program, Store};
use regent_runtime::{run, Compiled, FaultPlan, ResilienceOptions, RunOptions};

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

/// One matrix cell: the app through SPMD, hybrid, and shared-log under
/// the *current* environment, each certified and compared.
fn run_cell(label: &str, mk: &dyn Fn() -> (Program, Store), ns: usize, tol: f64) {
    let (prog_seq, mut store_seq) = mk();
    let roots = prog_seq.root_regions();
    let (env_seq, _) = interp::run(&prog_seq, &mut store_seq);
    let reference = (&env_seq[..], &prog_seq.forest, &store_seq);
    spmd_family_agrees(label, mk, ns, tol, reference, &roots);
}

/// Crash recovery and corruption retransmission on the current plane:
/// both must be bit-identical to the plain SPMD run, with the fault
/// machinery demonstrably exercised.
fn run_resilience_cell(label: &str) {
    let mk = mk_stencil;
    let ns = 3;
    let (prog_a, mut store_a) = mk();
    let roots = prog_a.root_regions();
    let spmd_a = control_replicate(prog_a, &CrOptions::new(ns)).unwrap();
    let plain = run(
        Compiled::Spmd(&spmd_a),
        &mut store_a,
        &RunOptions::default(),
    );

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
        &RunOptions::default().with_resilience(crash_opts.clone()),
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
        &RunOptions::default().with_resilience(corrupt_opts.clone()),
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
/// 30 s hang timeout, and the combined diagnostic names the root
/// cause. Identical contract on both planes.
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
        let opts = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::new(5).with_corrupt_rate(1.0),
            ..Default::default()
        };
        run(
            Compiled::Spmd(&spmd),
            &mut store,
            &RunOptions::default().with_resilience(opts.clone()),
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

/// One sequential matrix (see module docs for why one `#[test]`).
#[test]
fn data_plane_matrix() {
    let ns = 3;
    for plane in ["ring", "channel"] {
        for pin in ["0", "1"] {
            std::env::set_var("REGENT_DATA_PLANE", plane);
            std::env::set_var("REGENT_PIN_CORES", pin);
            let label = format!("plane={plane} pin={pin}");
            for (name, mk, tol) in &apps() {
                run_cell(&format!("{name} {label}"), mk, ns, *tol);
            }
            // The fault protocols ride the same transport; regress
            // them per plane (pinning is orthogonal — once is enough).
            if pin == "0" {
                run_resilience_cell(&label);
                run_peer_death_cell(&label);
            }
        }
    }
    std::env::remove_var("REGENT_DATA_PLANE");
    std::env::remove_var("REGENT_PIN_CORES");
}
