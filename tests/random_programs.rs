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
//! Every random program runs under each SPMD-family strategy (SPMD,
//! shared-log, hybrid), each compiled program twice from fresh stores
//! so the second run reuses the shards' parked images, and under the
//! implicit executor with and without memoization. Cases come from the
//! seeded runner in `tests/support/prop.rs`; a failure names its seed.

#[path = "support/prop.rs"]
mod prop;

use control_replication::cr::{
    control_replicate, replicate_ranges, CrOptions, HybridProgram, Segment, SpmdProgram, SyncMode,
};
use control_replication::geometry::{Domain, DynPoint};
use control_replication::ir::{
    expr::c, interp, Privilege, Program, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl,
};
use control_replication::region::{
    ops, FieldSpace, FieldType, ReductionOp, RegionForest, RegionId,
};
use control_replication::runtime::{
    execute_implicit, run, Compiled, ImplicitOptions, MemoCache, RunOptions,
};
use prop::Gen;
use std::sync::Arc;

/// Random programs drawn.
const CASES: u64 = 24;

/// Seeds of past failures, replayed first.
const REGRESSIONS: &[u64] = &[];

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

impl Params {
    fn draw(g: &mut Gen) -> Params {
        Params {
            n: g.range(16u64..80),
            parts: g.range(2usize..7),
            steps: g.range(1u64..4),
            h_mul: g.range(1i64..12),
            h_off: g.range(0i64..32),
            s_mul: g.range(1i64..9),
            s_off: g.range(0i64..16),
            shards: g.range(1usize..7),
            barrier_sync: g.bool(),
            optimize_placement: g.bool(),
            skip_disjoint: g.bool(),
        }
    }
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

/// A program built from `p` with its initial values, in a fresh store.
fn fresh(p: &Params) -> (Program, Store) {
    let prog = build(p);
    let mut store = Store::new(&prog);
    init(&prog, &mut store);
    (prog, store)
}

/// Every field of both roots of `got` against the sequential `seq`,
/// within `tol` relative to the larger magnitude (0: bit for bit).
fn agrees(what: &str, seq: (&Program, &Store), got: (&RegionForest, &Store), tol: f64) {
    let (prog, seq) = seq;
    for root in [RegionId(0), RegionId(1)] {
        let a = seq.instance(prog, root);
        let b = got.1.instance_in(got.0, root);
        for (fid, def) in prog.forest.fields(root).iter() {
            for q in prog.forest.domain(root).iter() {
                let (x, y) = (a.read_f64(fid, q), b.read_f64(fid, q));
                let scale = x.abs().max(y.abs()).max(1.0);
                assert!(
                    (x - y).abs() <= tol * scale,
                    "{what}: {root:?}.{} at {q:?}: seq={x} got={y}",
                    def.name
                );
            }
        }
    }
}

/// The replicated programs of a compiled one: the whole program, or
/// the hybrid's replicated segments.
fn replicated(compiled: &Compiled<SpmdProgram, HybridProgram>) -> Vec<&SpmdProgram> {
    match compiled {
        Compiled::Spmd(spmd) | Compiled::Log(spmd) => vec![spmd],
        Compiled::Hybrid(hybrid) => hybrid
            .segments
            .iter()
            .filter_map(|s| match s {
                Segment::Replicated(spmd) => Some(spmd),
                Segment::Sequential(_) => None,
            })
            .collect(),
    }
}

#[test]
fn cr_matches_sequential_on_random_programs() {
    prop::check(
        "cr_matches_sequential_on_random_programs",
        CASES,
        REGRESSIONS,
        Params::draw,
        |p| {
            // Sequential reference.
            let (prog, mut seq) = fresh(p);
            let (seq_env, _) = interp::run(&prog, &mut seq);
            let reference = (&prog, &seq);

            // Control replicated, under each control source: SPMD
            // reductions may reassociate (1e-12); the scalar environment
            // is exact.
            let mut opts = CrOptions::new(p.shards);
            opts.sync = if p.barrier_sync {
                SyncMode::Barrier
            } else {
                SyncMode::PointToPoint
            };
            opts.optimize_placement = p.optimize_placement;
            opts.skip_disjoint_pairs = p.skip_disjoint;
            let compile = |prog| control_replicate(prog, &opts).expect("transform must succeed");
            let strategies: [(&str, Compiled<SpmdProgram, HybridProgram>); 3] = [
                ("spmd", Compiled::Spmd(compile(build(p)))),
                ("log", Compiled::Log(compile(build(p)))),
                (
                    "hybrid",
                    Compiled::Hybrid(
                        replicate_ranges(build(p), &opts).expect("transform must succeed"),
                    ),
                ),
            ];
            for (name, compiled) in &strategies {
                let forest = match compiled {
                    Compiled::Spmd(spmd) | Compiled::Log(spmd) => &spmd.forest,
                    Compiled::Hybrid(hybrid) => &hybrid.base.forest,
                };
                // Twice, from fresh stores: the second run refills the
                // images the first one parked.
                for pass in ["first", "reused"] {
                    let (_, mut store) = fresh(p);
                    let result = run(compiled.as_ref(), &mut store, &RunOptions::default());
                    let what = format!("{name} ({pass} run)");
                    assert_eq!(seq_env, result.env, "{what}: env");
                    agrees(&what, reference, (forest, &store), 1e-12);
                }
                for spmd in replicated(compiled) {
                    assert_eq!(
                        spmd.idle_images(),
                        spmd.num_shards,
                        "{name}: one image a shard"
                    );
                }
            }

            // The implicitly parallel executor must agree as well, with
            // and without memoization (it serializes reductions, so it
            // is bit-identical to sequential).
            let workers = 1 + (p.shards % 3);
            for (name, opts) in [
                ("implicit", ImplicitOptions::with_workers(workers)),
                (
                    "memo",
                    ImplicitOptions::with_workers(workers).with_memo(MemoCache::shared()),
                ),
            ] {
                let (prog, mut store) = fresh(p);
                let (env, _) = execute_implicit(&prog, &mut store, opts);
                assert_eq!(seq_env, env, "{name}: env");
                agrees(name, reference, (&prog.forest, &store), 0.0);
            }
        },
    );
}
