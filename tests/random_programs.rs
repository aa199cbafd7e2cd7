//! Property-based end-to-end test: for randomized programs over
//! randomized partition geometry — block partitions, arbitrary image
//! partitions (random access functions `h`), reduction scatters, and
//! random shard counts / transform options — control-replicated SPMD
//! execution must reproduce the sequential interpreter's results.
//!
//! This is the paper's key guarantee exercised adversarially: "the
//! control replication transformation is guaranteed to succeed for any
//! programmer-specified partitions of the data, even though the
//! partitions can be arbitrary" (§1).
//!
//! Gated behind the `proptest-tests` cargo feature: proptest is not
//! part of the offline dependency set, so the default `cargo test`
//! skips this file (see the workspace Cargo.toml for how to restore
//! the dev-dependency).

#![cfg(feature = "proptest-tests")]

use control_replication::cr::{control_replicate, CrOptions, SyncMode};
use control_replication::geometry::{Domain, DynPoint};
use control_replication::ir::{
    expr::c, interp, Privilege, Program, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl,
};
use control_replication::region::{ops, FieldSpace, FieldType, ReductionOp, RegionId};
use control_replication::runtime::{run, Compiled, RunOptions};
use proptest::prelude::*;
use std::sync::Arc;

/// Parameters of a random program.
#[derive(Debug, Clone)]
struct Params {
    n: u64,
    parts: usize,
    steps: u64,
    // h(i) = (i*mul + off) mod n — arbitrary, possibly non-local and
    // non-injective gather map.
    h_mul: i64,
    h_off: i64,
    // scatter map for the reduction.
    s_mul: i64,
    s_off: i64,
    shards: usize,
    barrier_sync: bool,
    optimize_placement: bool,
    skip_disjoint: bool,
}

fn arb_params() -> impl Strategy<Value = Params> {
    (
        16u64..80,
        2usize..7,
        1u64..4,
        1i64..12,
        0i64..32,
        1i64..9,
        0i64..16,
        1usize..7,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(n, parts, steps, h_mul, h_off, s_mul, s_off, shards, bs, op, sd)| Params {
                n,
                parts,
                steps,
                h_mul,
                h_off,
                s_mul,
                s_off,
                shards,
                barrier_sync: bs,
                optimize_placement: op,
                skip_disjoint: sd,
            },
        )
}

/// Builds the random program: two region trees A and B.
///
/// Per step:
/// 1. `TF`: write `b` of PB[i] from `a` of PA[i].
/// 2. `TG`: write `a` of PA[j] from a gather `b[h(j·…)]` through the
///    image partition QB.
/// 3. `TR`: reduce-add `g(a)` into B through the scatter image GB.
/// 4. `TC`: fold the reduction accumulator field `acc` into `b` and
///    clear it (read-write sweep giving the reduction a flush path).
fn build(p: &Params) -> Program {
    let n = p.n;
    let h_mul = p.h_mul;
    let h_off = p.h_off;
    let s_mul = p.s_mul;
    let s_off = p.s_off;
    let h = move |i: i64| (i * h_mul + h_off).rem_euclid(n as i64);
    let s = move |i: i64| (i * s_mul + s_off).rem_euclid(n as i64);

    let mut b = ProgramBuilder::new();
    let fsa = FieldSpace::of(&[("a", FieldType::F64)]);
    let fa = fsa.lookup("a").unwrap();
    let fsb = FieldSpace::of(&[("b", FieldType::F64), ("acc", FieldType::F64)]);
    let fb = fsb.lookup("b").unwrap();
    let facc = fsb.lookup("acc").unwrap();
    let ra = b.forest.create_region(Domain::range(n), fsa);
    let rb = b.forest.create_region(Domain::range(n), fsb);
    let pa = ops::block(&mut b.forest, ra, p.parts);
    let pb = ops::block(&mut b.forest, rb, p.parts);
    let qb = ops::image(&mut b.forest, rb, pa, move |pt, sink| {
        sink.push(DynPoint::from(h(pt.coord(0))));
    });
    let gb = ops::image(&mut b.forest, rb, pa, move |pt, sink| {
        sink.push(DynPoint::from(s(pt.coord(0))));
    });

    let tf = b.task(TaskDecl {
        name: "TF".into(),
        params: vec![RegionParam::read_write(&[fb]), RegionParam::read(&[fa])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for q in dom.iter() {
                let v = ctx.read_f64(1, fa, q);
                ctx.write_f64(0, fb, q, 0.5 * v + 0.25);
            }
        }),
        cost_per_element: 1.0,
    });
    let tg = b.task(TaskDecl {
        name: "TG".into(),
        params: vec![RegionParam::read_write(&[fa]), RegionParam::read(&[fb])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for q in dom.iter() {
                let v = ctx.read_f64(1, fb, DynPoint::from(h(q.coord(0))));
                ctx.write_f64(0, fa, q, 0.75 * v - 0.125);
            }
        }),
        cost_per_element: 1.0,
    });
    let tr = b.task(TaskDecl {
        name: "TR".into(),
        params: vec![
            RegionParam::read(&[fa]),
            RegionParam {
                privilege: Privilege::Reduce(ReductionOp::Add),
                fields: vec![facc],
            },
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for q in dom.iter() {
                let v = ctx.read_f64(0, fa, q);
                ctx.reduce_f64(1, facc, DynPoint::from(s(q.coord(0))), v * 0.125);
            }
        }),
        cost_per_element: 1.0,
    });
    let tc = b.task(TaskDecl {
        name: "TC".into(),
        params: vec![RegionParam::read_write(&[fb, facc])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for q in dom.iter() {
                let acc = ctx.read_f64(0, facc, q);
                let v = ctx.read_f64(0, fb, q);
                ctx.write_f64(0, fb, q, v + acc);
                ctx.write_f64(0, facc, q, 0.0);
            }
        }),
        cost_per_element: 1.0,
    });

    let parts = p.parts as u64;
    let l = b.for_loop(c(p.steps as f64));
    b.index_launch(tf, parts, vec![RegionArg::Part(pb), RegionArg::Part(pa)]);
    b.index_launch(tg, parts, vec![RegionArg::Part(pa), RegionArg::Part(qb)]);
    b.index_launch(tr, parts, vec![RegionArg::Part(pa), RegionArg::Part(gb)]);
    b.index_launch(tc, parts, vec![RegionArg::Part(pb)]);
    b.end(l);
    b.build()
}

fn init(prog: &Program, store: &mut Store) {
    store.fill_f64(
        prog,
        RegionId(0),
        regent_region_field(prog, RegionId(0), "a"),
        |q| ((q.coord(0) * 37) % 11) as f64 - 5.0,
    );
    store.fill_f64(
        prog,
        RegionId(1),
        regent_region_field(prog, RegionId(1), "b"),
        |q| ((q.coord(0) * 13) % 7) as f64,
    );
}

fn regent_region_field(
    prog: &Program,
    r: RegionId,
    name: &str,
) -> control_replication::region::FieldId {
    prog.forest.fields(r).lookup(name).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn cr_matches_sequential_on_random_programs(p in arb_params()) {
        // Sequential reference.
        let prog = build(&p);
        let mut seq = Store::new(&prog);
        init(&prog, &mut seq);
        let (seq_env, _) = interp::run(&prog, &mut seq);

        // Control replicated.
        let prog2 = build(&p);
        let mut crs = Store::new(&prog2);
        init(&prog2, &mut crs);
        let mut opts = CrOptions::new(p.shards);
        opts.sync = if p.barrier_sync { SyncMode::Barrier } else { SyncMode::PointToPoint };
        opts.optimize_placement = p.optimize_placement;
        opts.skip_disjoint_pairs = p.skip_disjoint;
        let spmd = control_replicate(prog2, &opts).expect("transform must succeed");
        let result = run(Compiled::Spmd(&spmd), &mut crs, &RunOptions::default());
        prop_assert_eq!(seq_env.clone(), result.env);

        // The implicitly parallel executor must agree as well (it
        // serializes reductions, so it is bit-identical to sequential).
        let prog3 = build(&p);
        let mut imp = Store::new(&prog3);
        init(&prog3, &mut imp);
        let (imp_env, _) = control_replication::runtime::execute_implicit(
            &prog3,
            &mut imp,
            control_replication::runtime::ImplicitOptions::with_workers(
                1 + (p.shards % 3),
            ),
        );
        prop_assert_eq!(seq_env, imp_env);

        for root in [RegionId(0), RegionId(1)] {
            let a = seq.instance(&prog, root);
            let b = crs.instance_in(&spmd.forest, root);
            let c_imp = imp.instance(&prog3, root);
            let fields = prog.forest.fields(root);
            for (fid, def) in fields.iter() {
                for q in prog.forest.domain(root).iter() {
                    let x = a.read_f64(fid, q);
                    let y = b.read_f64(fid, q);
                    let scale = x.abs().max(y.abs()).max(1.0);
                    prop_assert!(
                        (x - y).abs() <= 1e-12 * scale,
                        "{:?}.{} at {:?}: seq={} cr={} ({:?})",
                        root, def.name, q, x, y, p
                    );
                    // Implicit executor: bit-identical.
                    prop_assert_eq!(x, c_imp.read_f64(fid, q));
                }
            }
        }
    }
}
