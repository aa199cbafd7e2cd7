//! Cross-executor differential harness: every evaluation application,
//! executed through every executor path in the stack, must agree.
//!
//! For each app (and several sizes / shard counts / seeds):
//!
//! * **sequential** (`regent_ir::interp`) — the reference semantics;
//! * **implicit** — must match the reference *bit-for-bit* (dynamic
//!   dependence analysis serializes reductions, so no reassociation);
//! * **implicit + memo** — epoch-trace replay must match the plain
//!   implicit run bit-for-bit and record at least one template hit;
//! * **SPMD** (control replication) — matches the reference under the
//!   app's reduction tolerance (0.0 for Stencil, which has none);
//! * **hybrid** (range-local replication, §2.2) — must match the SPMD
//!   run bit-for-bit: the apps' bodies are a single replicable range,
//!   so both paths execute the identical sharded schedule;
//! * **log** (shared-log control replication) — a single sequencer
//!   appends the control program to a flat-combining launch log and
//!   per-shard executors tail it; the data plane is the SPMD one, so
//!   regions must match the SPMD run bit-for-bit and the env must
//!   match the sequential reference exactly.
//!
//! Every traced run is additionally certified by the Legion Spy-style
//! validator: the happens-before graph reconstructed from the event log
//! must order every overlapping-privilege pair — including the edges a
//! memoized run *replays* instead of re-deriving.

mod common;

use common::{certify, compare_roots, spmd_family_agrees};
use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_ir::{interp, Program, Store};
use regent_runtime::{execute_implicit, ImplicitOptions, MemoCache, RunOptions};
use regent_trace::{memo_summary, Tracer};

/// Runs one program factory through all five executor paths and checks
/// the full agreement matrix described in the module docs.
fn differential(name: &str, mk: &dyn Fn() -> (Program, Store), shard_counts: &[usize], tol: f64) {
    // Sequential reference.
    let (prog_seq, mut store_seq) = mk();
    let roots = prog_seq.root_regions();
    let (env_seq, _) = interp::run(&prog_seq, &mut store_seq);

    // Implicit, traced: bit-identical to the reference.
    let (prog_imp, mut store_imp) = mk();
    let tracer = Tracer::enabled();
    let opts = ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(4)
    };
    let (env_imp, istats) = execute_implicit(&prog_imp, &mut store_imp, opts);
    assert_eq!(env_seq, env_imp, "{name}: implicit env diverged");
    assert!(istats.tasks_launched > 0);
    compare_roots(
        &format!("{name}/implicit"),
        &roots,
        (&prog_seq.forest, &store_seq),
        (&prog_imp.forest, &store_imp),
        0.0,
    );
    certify(
        &format!("{name}/implicit"),
        &prog_imp.forest,
        &tracer.take(),
    );

    // Implicit + memo, traced: bit-identical to the implicit run, with
    // at least one epoch replayed from a captured template.
    let (prog_memo, mut store_memo) = mk();
    let tracer = Tracer::enabled();
    let opts = ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(4)
    }
    .with_memo(MemoCache::shared());
    let (env_memo, mstats) = execute_implicit(&prog_memo, &mut store_memo, opts);
    assert_eq!(env_imp, env_memo, "{name}: memoized env diverged");
    assert!(
        mstats.memo_hits >= 1,
        "{name}: no template hit (captures={}, misses={})",
        mstats.memo_captures,
        mstats.memo_misses
    );
    assert!(mstats.memo_replayed_tasks > 0);
    compare_roots(
        &format!("{name}/memo"),
        &roots,
        (&prog_imp.forest, &store_imp),
        (&prog_memo.forest, &store_memo),
        0.0,
    );
    certify(&format!("{name}/memo"), &prog_memo.forest, &tracer.take());

    let reference = (&env_seq[..], &prog_seq.forest, &store_seq);
    for &ns in shard_counts {
        spmd_family_agrees(name, mk, ns, tol, reference, &roots, &RunOptions::default());
    }
}

#[test]
fn differential_stencil() {
    // Stencil has no reductions: every path is bit-exact. Two sizes.
    for (n, ntx, nty, steps) in [(32u64, 2usize, 2usize, 4u64), (40, 4, 2, 5)] {
        let mk = move || {
            let cfg = stencil::StencilConfig {
                n,
                ntx,
                nty,
                radius: 2,
                steps,
            };
            let (prog, h) = stencil::stencil_program(cfg);
            let mut store = Store::new(&prog);
            stencil::init_stencil(&prog, &mut store, &h);
            (prog, store)
        };
        differential(&format!("stencil n={n}"), &mk, &[1, 2, 3], 0.0);
    }
}

#[test]
fn differential_circuit() {
    // Two seeds: different random graphs, hence different ghost-node
    // communication patterns.
    for seed in [42u64, 1234] {
        let mk = move || {
            let cfg = circuit::CircuitConfig {
                pieces: 6,
                nodes_per_piece: 30,
                wires_per_piece: 90,
                cross_fraction: 0.12,
                steps: 4,
                substeps: 4,
                seed,
            };
            let g = circuit::generate_graph(&cfg);
            let (prog, h) = circuit::circuit_program(cfg, &g);
            let mut store = Store::new(&prog);
            circuit::init_circuit(&prog, &mut store, &h, &g);
            (prog, store)
        };
        differential(&format!("circuit seed={seed}"), &mk, &[1, 3], 1e-12);
    }
}

#[test]
fn differential_miniaero() {
    let mk = || {
        let cfg = miniaero::MiniAeroConfig {
            nx: 12,
            ny: 4,
            nz: 3,
            pieces: 4,
            steps: 4,
            dt: 5e-4,
        };
        let mesh = miniaero::build_mesh(&cfg);
        let (prog, h) = miniaero::miniaero_program(cfg, &mesh);
        let mut store = Store::new(&prog);
        miniaero::init_miniaero(&prog, &mut store, &h, &cfg, &mesh);
        (prog, store)
    };
    differential("miniaero", &mk, &[1, 3], 1e-11);
}

#[test]
fn differential_pennant() {
    // PENNANT's While loop is driven by a Min-reduced dt: every
    // executor must take the same trip count for the stores to agree.
    let mk = || {
        let cfg = pennant::PennantConfig {
            nzx: 10,
            nzy: 5,
            pieces: 3,
            tstop: 3e-2,
            dtmax: 2e-2,
        };
        let mesh = pennant::build_mesh(&cfg);
        let (prog, h) = pennant::pennant_program(cfg, &mesh);
        let mut store = Store::new(&prog);
        pennant::init_pennant(&prog, &mut store, &h, &cfg, &mesh);
        (prog, store)
    };
    differential("pennant", &mk, &[1, 2, 3], 1e-11);
}

/// The Fig. 6 acceptance shape: a memoized stencil run long enough to
/// reach steady state reports a ≥90% hit rate, with per-epoch analysis
/// cost collapsing to near zero after the first (captured) epoch.
#[test]
fn memoized_stencil_amortizes_analysis() {
    let cfg = stencil::StencilConfig {
        n: 48,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 12,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    let tracer = Tracer::enabled();
    let opts = ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(4)
    }
    .with_memo(MemoCache::shared());
    let (_, stats) = execute_implicit(&prog, &mut store, opts);
    let summary = memo_summary(&tracer.take(), "control");
    assert_eq!(summary.captures, 1, "{summary:?}");
    assert!(
        summary.steady_state_hit_rate() >= 0.9,
        "steady-state hit rate {:.2} ({summary:?})",
        summary.steady_state_hit_rate()
    );
    assert!(
        summary.steady_state_analysis_ns < summary.first_epoch_analysis_ns as f64 / 10.0,
        "analysis not amortized: first {} ns, steady {} ns",
        summary.first_epoch_analysis_ns,
        summary.steady_state_analysis_ns
    );
    assert_eq!(stats.memo_hits, 11, "one capture + 11 replays");
}
