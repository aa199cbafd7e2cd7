//! Each evaluation application, end-to-end through control
//! replication: build the implicit program, transform (§3), execute on
//! the multithreaded SPMD runtime, and compare every region against
//! the sequential reference.
//!
//! Apps without region reductions (Stencil) must match bit-for-bit.
//! Apps with reductions (Circuit, MiniAero, PENNANT) are compared with
//! a tight relative tolerance: reduction copies apply per-temporary
//! partial sums, which reassociates the (associative, commutative but
//! not exactly associative in floating point) fold the sequential
//! interpreter performs element-by-element — the same freedom Legion's
//! reduction instances have.

use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_cr::{control_replicate, CrOptions};
use regent_geometry::DynPoint;
use regent_ir::{interp, Program, Store};
use regent_region::{FieldType, RegionForest, RegionId};
use regent_runtime::{run, Compiled, RunOptions};

/// Compares all root regions of two executions.
fn compare_stores(prog: &Program, seq: &Store, forest_cr: &RegionForest, cr: &Store, rel_tol: f64) {
    for root in prog.root_regions() {
        let a = seq.instance(prog, root);
        let b = cr.instance_in(forest_cr, root);
        let fields = prog.forest.fields(root);
        for (fid, def) in fields.iter() {
            for p in prog.forest.domain(root).iter() {
                match def.ty {
                    FieldType::F64 => {
                        let x = a.read_f64(fid, p);
                        let y = b.read_f64(fid, p);
                        let scale = x.abs().max(y.abs()).max(1.0);
                        assert!(
                            (x - y).abs() <= rel_tol * scale,
                            "{:?}.{} at {:?}: seq={x} cr={y}",
                            root,
                            def.name,
                            p
                        );
                    }
                    FieldType::I64 => {
                        assert_eq!(a.read_i64(fid, p), b.read_i64(fid, p));
                    }
                }
            }
        }
    }
}

#[test]
fn stencil_through_cr_bit_exact() {
    let cfg = stencil::StencilConfig {
        n: 40,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 5,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut seq_store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut seq_store, &h);
    let (seq_env, _) = interp::run(&prog, &mut seq_store);

    for ns in [1, 2, 3, 8] {
        let (prog2, h2) = stencil::stencil_program(cfg);
        let mut cr_store = Store::new(&prog2);
        stencil::init_stencil(&prog2, &mut cr_store, &h2);
        let spmd = control_replicate(prog2, &CrOptions::new(ns)).unwrap();
        let result = run(Compiled::Spmd(&spmd), &mut cr_store, &RunOptions::default());
        assert_eq!(seq_env, result.env);
        compare_stores(&prog, &seq_store, &spmd.forest, &cr_store, 0.0);
        // Exactly one coherence copy per step: tiles → halo on the
        // `in` field.
        assert_eq!(spmd.count_copies(), 1);
    }
}

#[test]
fn circuit_through_cr() {
    let cfg = circuit::CircuitConfig {
        pieces: 6,
        nodes_per_piece: 40,
        wires_per_piece: 150,
        cross_fraction: 0.12,
        steps: 6,
        substeps: 8,
        seed: 42,
    };
    let g = circuit::generate_graph(&cfg);
    let (prog, h) = circuit::circuit_program(cfg, &g);
    let mut seq_store = Store::new(&prog);
    circuit::init_circuit(&prog, &mut seq_store, &h, &g);
    interp::run(&prog, &mut seq_store);

    for ns in [1, 2, 4] {
        let g2 = circuit::generate_graph(&cfg);
        let (prog2, h2) = circuit::circuit_program(cfg, &g2);
        let mut cr_store = Store::new(&prog2);
        circuit::init_circuit(&prog2, &mut cr_store, &h2, &g2);
        let spmd = control_replicate(prog2, &CrOptions::new(ns)).unwrap();
        let result = run(Compiled::Spmd(&spmd), &mut cr_store, &RunOptions::default());
        compare_stores(&prog, &seq_store, &spmd.forest, &cr_store, 1e-12);
        if ns > 1 {
            assert!(result.stats.messages_sent > 0);
        }
    }
}

/// The accelerated shallow pass (interval tree, run-level repeats
/// dropped by stamping) against the all-pairs oracle, on the partitions
/// of Circuit's node region: the aliased ghost images there overlap in
/// hundreds of runs per pair of pieces.
#[test]
fn circuit_ghost_shallow_pairs_match_naive() {
    use regent_region::intersect::{shallow_intersections_naive, shallow_intersections_of};
    use regent_region::PartitionId;
    let cfg = circuit::CircuitConfig {
        pieces: 8,
        nodes_per_piece: 200,
        wires_per_piece: 800,
        cross_fraction: 0.3,
        steps: 1,
        substeps: 1,
        seed: 7,
    };
    let g = circuit::generate_graph(&cfg);
    let (prog, h) = circuit::circuit_program(cfg, &g);
    let forest = &prog.forest;
    let node_partitions: Vec<Vec<_>> = (0..forest.num_partitions() as u32)
        .map(|p| forest.partition(PartitionId(p)))
        .filter(|p| forest.root_of(p.parent) == h.nodes)
        .map(|p| {
            p.iter()
                .map(|(c, r)| (c, forest.domain(r).clone()))
                .collect()
        })
        .collect();
    assert_eq!(node_partitions.len(), 2, "owned blocks and ghost images");
    let mut multi_run_pairs = 0;
    for src in &node_partitions {
        for dst in &node_partitions {
            let fast = shallow_intersections_of(src, dst);
            assert_eq!(fast, shallow_intersections_naive(src, dst));
            multi_run_pairs += fast
                .iter()
                .filter(|pair| {
                    let of = |list: &[(DynPoint, regent_geometry::Domain)], c| {
                        list.iter().find(|(k, _)| *k == c).unwrap().1.clone()
                    };
                    of(src, pair.src)
                        .intersect(&of(dst, pair.dst))
                        .rects()
                        .len()
                        > 1
                })
                .count();
        }
    }
    assert!(multi_run_pairs > 0, "no pair exercised the repeat filter");
}

#[test]
fn miniaero_through_cr() {
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
    let mut seq_store = Store::new(&prog);
    miniaero::init_miniaero(&prog, &mut seq_store, &h, &cfg, &mesh);
    interp::run(&prog, &mut seq_store);

    for ns in [1, 3, 4] {
        let mesh2 = miniaero::build_mesh(&cfg);
        let (prog2, h2) = miniaero::miniaero_program(cfg, &mesh2);
        let mut cr_store = Store::new(&prog2);
        miniaero::init_miniaero(&prog2, &mut cr_store, &h2, &cfg, &mesh2);
        let spmd = control_replicate(prog2, &CrOptions::new(ns)).unwrap();
        run(Compiled::Spmd(&spmd), &mut cr_store, &RunOptions::default());
        compare_stores(&prog, &seq_store, &spmd.forest, &cr_store, 1e-11);
    }
}

#[test]
fn pennant_through_cr() {
    let cfg = pennant::PennantConfig {
        nzx: 10,
        nzy: 5,
        pieces: 3,
        tstop: 3e-2,
        dtmax: 2e-2,
    };
    let mesh = pennant::build_mesh(&cfg);
    let (prog, h) = pennant::pennant_program(cfg, &mesh);
    let mut seq_store = Store::new(&prog);
    pennant::init_pennant(&prog, &mut seq_store, &h, &cfg, &mesh);
    let (seq_env, seq_stats) = interp::run(&prog, &mut seq_store);
    assert!(seq_stats.loop_iterations >= 2, "needs several dt steps");

    for ns in [1, 2, 3, 5] {
        let mesh2 = pennant::build_mesh(&cfg);
        let (prog2, h2) = pennant::pennant_program(cfg, &mesh2);
        let mut cr_store = Store::new(&prog2);
        pennant::init_pennant(&prog2, &mut cr_store, &h2, &cfg, &mesh2);
        let spmd = control_replicate(prog2, &CrOptions::new(ns)).unwrap();
        let result = run(Compiled::Spmd(&spmd), &mut cr_store, &RunOptions::default());
        // The dynamically-computed dt sequence must agree (it controls
        // the While trip count); scalar collectives preserve fold
        // order, so the env matches exactly.
        assert_eq!(seq_env, result.env, "ns={ns}");
        assert!(result.stats.collectives > 0);
        compare_stores(&prog, &seq_store, &spmd.forest, &cr_store, 1e-11);
    }
}

#[test]
fn implicit_executor_runs_apps() {
    use regent_runtime::{execute_implicit, ImplicitOptions};
    // Stencil under the implicit executor: bit-exact (no reductions).
    let cfg = stencil::StencilConfig {
        n: 32,
        ntx: 2,
        nty: 2,
        radius: 2,
        steps: 3,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut s1 = Store::new(&prog);
    stencil::init_stencil(&prog, &mut s1, &h);
    interp::run(&prog, &mut s1);
    let (prog2, h2) = stencil::stencil_program(cfg);
    let mut s2 = Store::new(&prog2);
    stencil::init_stencil(&prog2, &mut s2, &h2);
    let (_, stats) = execute_implicit(&prog2, &mut s2, ImplicitOptions::with_workers(4));
    assert!(stats.tasks_launched > 0);
    let inst1 = s1.instance(&prog, h.grid);
    let inst2 = s2.instance(&prog2, h2.grid);
    for p in prog.forest.domain(h.grid).iter() {
        assert_eq!(inst1.read_f64(h.f_out, p), inst2.read_f64(h2.f_out, p));
    }
}

#[test]
fn stencil_halo_traffic_scales_with_boundary() {
    // The elements exchanged per step are the tile boundaries, not the
    // tile interiors — O(√elements), the property §3.3 relies on.
    let small = stencil::StencilConfig {
        n: 24,
        ntx: 2,
        nty: 2,
        radius: 1,
        steps: 1,
    };
    let large = stencil::StencilConfig {
        n: 48,
        ntx: 2,
        nty: 2,
        radius: 1,
        steps: 1,
    };
    let volumes: Vec<u64> = [small, large]
        .into_iter()
        .map(|cfg| {
            let (prog, h) = stencil::stencil_program(cfg);
            let mut store = Store::new(&prog);
            stencil::init_stencil(&prog, &mut store, &h);
            let spmd = control_replicate(prog, &CrOptions::new(4)).unwrap();
            let r = run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());
            r.stats.elements_sent
        })
        .collect();
    // Grid area ×4, boundary ×2: traffic should roughly double, far
    // below 4×.
    assert!(volumes[1] > volumes[0]);
    assert!(
        volumes[1] < volumes[0] * 3,
        "traffic grew like area: {volumes:?}"
    );
}

#[test]
fn circuit_equilibrium_preserved_under_cr() {
    // Physical invariant after CR execution: total charge conserved.
    let cfg = circuit::CircuitConfig {
        steps: 20,
        ..Default::default()
    };
    let g = circuit::generate_graph(&cfg);
    let (prog, h) = circuit::circuit_program(cfg, &g);
    let mut store = Store::new(&prog);
    circuit::init_circuit(&prog, &mut store, &h, &g);
    let total = |store: &Store, forest: &RegionForest| -> f64 {
        let inst = store.instance_in(forest, RegionId(0));
        forest
            .domain(h.nodes)
            .iter()
            .map(|p: DynPoint| inst.read_f64(h.f_voltage, p) * inst.read_f64(h.f_cap, p))
            .sum()
    };
    let before = total(&store, &prog.forest);
    let spmd = control_replicate(prog, &CrOptions::new(3)).unwrap();
    run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());
    let after = total(&store, &spmd.forest);
    assert!((before - after).abs() < 1e-9 * before.abs().max(1.0));
}
