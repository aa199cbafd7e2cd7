//! Silent-data-corruption survival on the evaluation applications: for
//! every app and several corruption seeds, an SPMD run with seeded
//! bit flips injected into exchange payloads, collective contributions,
//! and resident instances must
//!
//! * detect every injected flip at a checksum verification point,
//! * repair it (payload retransmission) or escalate it (coordinated
//!   rollback of resident corruption), and
//! * finish with region contents and scalar environments *bit-identical*
//!   to the fault-free run, with the Spy certifying the repaired trace.
//!
//! This is the end-to-end contract of the integrity layer: corruption
//! is invisible in the results, visible in the trace.

use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_cr::{control_replicate, CrOptions, ForestOracle, SpmdProgram};
use regent_ir::{Program, Store};
use regent_region::FieldType;
use regent_runtime::{run, Compiled, FaultPlan, ResilienceOptions, RunOptions, RunResult};
use regent_trace::{integrity_summary, validate, Tracer};

/// Runs `mk`'s program fault-free and under corruption (traced),
/// asserts bit-identical results and a coherent, Spy-certified trace,
/// and returns the corrupted run's result for extra assertions.
fn assert_survives_corruption(
    mk: impl Fn() -> (Program, Store),
    ns: usize,
    seed: u64,
    rate: f64,
) -> RunResult {
    let (prog_a, mut store_a) = mk();
    let roots = prog_a.root_regions();
    let spmd_a = control_replicate(prog_a, &CrOptions::new(ns)).unwrap();
    let plain = run(
        Compiled::Spmd(&spmd_a),
        &mut store_a,
        &RunOptions::default(),
    );

    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(seed).with_corrupt_rate(rate),
        ..Default::default()
    };
    let (prog_b, mut store_b) = mk();
    let spmd_b = control_replicate(prog_b, &CrOptions::new(ns)).unwrap();
    let tracer = Tracer::enabled();
    let corrupted = run(
        Compiled::Spmd(&spmd_b),
        &mut store_b,
        &RunOptions::traced(&tracer).with_resilience(opts.clone()),
    );
    let trace = tracer.take();

    // Values: bit-identical env and regions; useful-work stats exclude
    // retransmits and replays, so they match the fault-free run too.
    assert_eq!(
        plain.env, corrupted.env,
        "scalar env diverged under corruption (seed {seed})"
    );
    assert_eq!(plain.stats.tasks_executed, corrupted.stats.tasks_executed);
    assert_eq!(plain.stats.copies_executed, corrupted.stats.copies_executed);
    assert_eq!(plain.stats.messages_sent, corrupted.stats.messages_sent);
    assert_eq!(plain.stats.collectives, corrupted.stats.collectives);
    for root in roots {
        compare_root(&spmd_a, &store_a, &spmd_b, &store_b, root, seed);
    }

    // Every injected flip was caught, and the trace's event record
    // balances: detections resolve into repairs or escalations.
    let st = &corrupted.stats;
    assert!(
        st.corruptions_detected >= 1,
        "seed {seed} injected nothing — raise the rate or change the seed"
    );
    assert_eq!(
        st.corruptions_injected, st.corruptions_detected,
        "a silent flip escaped the checksums (seed {seed})"
    );
    assert!(
        st.corruptions_repaired + st.corruptions_escalated >= 1,
        "detections must resolve (seed {seed}): {st:?}"
    );
    let s = integrity_summary(&trace);
    assert!(s.coherent(), "incoherent integrity summary: {s:?}");
    assert_eq!(s.detected, st.corruptions_detected);
    assert_eq!(s.escalated, st.corruptions_escalated);

    // Ordering: the Spy certifies the repaired trace like any other.
    let oracle = ForestOracle::new(&spmd_b.forest);
    let report = validate(&trace, &oracle).expect("structurally valid corrupted-run log");
    assert!(
        report.ok(),
        "spy violations on repaired trace (seed {seed}):\n{:?}",
        report.violations
    );
    assert!(report.certified > 0, "no dependences were exercised");
    corrupted
}

fn compare_root(
    spmd_a: &SpmdProgram,
    store_a: &Store,
    spmd_b: &SpmdProgram,
    store_b: &Store,
    root: regent_region::RegionId,
    seed: u64,
) {
    let ia = store_a.instance_in(&spmd_a.forest, root);
    let ib = store_b.instance_in(&spmd_b.forest, root);
    for (fid, def) in spmd_a.forest.fields(root).iter() {
        for pt in spmd_a.forest.domain(root).iter() {
            match def.ty {
                FieldType::F64 => {
                    let a = ia.read_f64(fid, pt);
                    let b = ib.read_f64(fid, pt);
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "field {:?} at {:?} (seed {seed}): plain={a} repaired={b}",
                        def.name,
                        pt
                    );
                }
                FieldType::I64 => {
                    assert_eq!(
                        ia.read_i64(fid, pt),
                        ib.read_i64(fid, pt),
                        "field {:?} at {:?} (seed {seed})",
                        def.name,
                        pt
                    );
                }
            }
        }
    }
}

#[test]
fn stencil_survives_corruption() {
    let mk = || {
        let cfg = stencil::StencilConfig {
            n: 40,
            ntx: 4,
            nty: 2,
            radius: 2,
            steps: 5,
        };
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    };
    let mut escalations = 0;
    for seed in [3, 11, 29] {
        let res = assert_survives_corruption(mk, 3, seed, 0.2);
        escalations += res.stats.corruptions_escalated;
    }
    // Across the seeds at this rate, at least one resident corruption
    // exercised the rollback path (not just payload retransmits).
    assert!(escalations >= 1, "no seed escalated — deterministic check");
}

#[test]
fn circuit_survives_corruption() {
    let mk = || {
        let cfg = circuit::CircuitConfig {
            pieces: 6,
            nodes_per_piece: 30,
            wires_per_piece: 90,
            cross_fraction: 0.12,
            steps: 4,
            substeps: 3,
            seed: 42,
        };
        let g = circuit::generate_graph(&cfg);
        let (prog, h) = circuit::circuit_program(cfg, &g);
        let mut store = Store::new(&prog);
        circuit::init_circuit(&prog, &mut store, &h, &g);
        (prog, store)
    };
    for seed in [13, 77] {
        assert_survives_corruption(mk, 3, seed, 0.15);
    }
}

#[test]
fn miniaero_survives_corruption() {
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
    for seed in [21, 57] {
        assert_survives_corruption(mk, 3, seed, 0.15);
    }
}

#[test]
fn pennant_survives_corruption() {
    // PENNANT's outer While is driven by a Min-reduced dt: corrupted
    // collective contributions must repair before the fold, or every
    // shard's trip count would diverge.
    let mk = || {
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
    };
    for seed in [33, 5] {
        assert_survives_corruption(mk, 3, seed, 0.15);
    }
}
