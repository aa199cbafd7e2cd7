//! End-to-end equivalence: for a battery of programs, the SPMD
//! execution of the control-replicated program and the implicitly
//! parallel execution must both produce region contents and scalar
//! environments *bit-identical* to the sequential reference
//! interpreter — the paper's correctness contract (sequential
//! semantics, §1).

use regent_cr::{control_replicate, CrOptions, SyncMode};
use regent_geometry::{Domain, DynPoint};
use regent_ir::{
    expr::{c, var},
    interp, Privilege, Program, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl,
};
use regent_region::{ops, FieldSpace, FieldType, ReductionOp, RegionId};
use regent_runtime::{execute_implicit, run, Compiled, ImplicitOptions, RunOptions};
use std::sync::Arc;

/// Runs `program` sequentially and control-replicated with `ns` shards,
/// compares every root region field and the scalar env, and returns the
/// SPMD result for extra assertions.
fn assert_equivalent(
    mk: impl Fn() -> (Program, Box<dyn Fn(&Program, &mut Store)>),
    ns: usize,
    opts_mod: impl Fn(&mut CrOptions),
) -> regent_runtime::RunResult {
    // Sequential reference.
    let (prog_seq, init) = mk();
    let mut store_seq = Store::new(&prog_seq);
    init(&prog_seq, &mut store_seq);
    let (env_seq, _) = interp::run(&prog_seq, &mut store_seq);

    // Control-replicated.
    let (prog_cr, init) = mk();
    let mut store_cr = Store::new(&prog_cr);
    init(&prog_cr, &mut store_cr);
    let mut opts = CrOptions::new(ns);
    opts_mod(&mut opts);
    let forest_snapshot_roots = prog_cr.root_regions();
    let spmd = control_replicate(prog_cr, &opts).expect("control replication failed");
    let result = run(Compiled::Spmd(&spmd), &mut store_cr, &RunOptions::default());

    assert_eq!(env_seq, result.env, "scalar env mismatch (ns={ns})");
    for root in forest_snapshot_roots {
        compare_roots(&prog_seq, &store_seq, &spmd.forest, &store_cr, root, ns);
    }
    result
}

fn compare_roots(
    prog_seq: &Program,
    store_seq: &Store,
    forest_cr: &regent_region::RegionForest,
    store_cr: &Store,
    root: RegionId,
    ns: usize,
) {
    let seq_inst = store_seq.instance(prog_seq, root);
    let cr_inst = store_cr.instance_in(forest_cr, root);
    let fields = prog_seq.forest.fields(root);
    for (fid, def) in fields.iter() {
        for p in prog_seq.forest.domain(root).iter() {
            match def.ty {
                FieldType::F64 => {
                    let a = seq_inst.read_f64(fid, p);
                    let b = cr_inst.read_f64(fid, p);
                    assert!(
                        a == b || (a.is_nan() && b.is_nan()),
                        "field {:?} at {:?}: seq={} cr={} (ns={ns})",
                        def.name,
                        p,
                        a,
                        b
                    );
                }
                FieldType::I64 => {
                    assert_eq!(
                        seq_inst.read_i64(fid, p),
                        cr_inst.read_i64(fid, p),
                        "field {:?} at {:?} (ns={ns})",
                        def.name,
                        p
                    );
                }
            }
        }
    }
}

type InitFn = Box<dyn Fn(&Program, &mut Store)>;
type ProgramFactory = (Program, InitFn);

/// Fig. 2: two regions A, B; TF writes PB[i] reading PA[i]; TG writes
/// PA[j] reading the shifted ghost QB[j]. T time steps.
fn fig2_program(n: u64, parts: usize, steps: u64) -> ProgramFactory {
    let mut b = ProgramBuilder::new();
    let fsa = FieldSpace::of(&[("a", FieldType::F64)]);
    let fa = fsa.lookup("a").unwrap();
    let fsb = FieldSpace::of(&[("b", FieldType::F64)]);
    let fb = fsb.lookup("b").unwrap();
    let ra = b.forest.create_region(Domain::range(n), fsa);
    let rb = b.forest.create_region(Domain::range(n), fsb);
    let pa = ops::block(&mut b.forest, ra, parts);
    let pb = ops::block(&mut b.forest, rb, parts);
    // h(j) = (j*17 + 3) mod n: an arbitrary scatter (not affine-local).
    let h = move |j: i64| (j * 17 + 3).rem_euclid(n as i64);
    let qb = ops::image(&mut b.forest, rb, pa, move |p, sink| {
        sink.push(DynPoint::from(h(p.coord(0))));
    });
    let tf = b.task(TaskDecl {
        name: "TF".into(),
        params: vec![RegionParam::read_write(&[fb]), RegionParam::read(&[fa])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for p in dom.iter() {
                let v = ctx.read_f64(1, fa, p);
                ctx.write_f64(0, fb, p, 2.0 * v + 1.0);
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
            for p in dom.iter() {
                let v = ctx.read_f64(1, fb, DynPoint::from(h(p.coord(0))));
                ctx.write_f64(0, fa, p, v * 0.5 - 3.0);
            }
        }),
        cost_per_element: 1.0,
    });
    let l = b.for_loop(c(steps as f64));
    b.index_launch(
        tf,
        parts as u64,
        vec![RegionArg::Part(pb), RegionArg::Part(pa)],
    );
    b.index_launch(
        tg,
        parts as u64,
        vec![RegionArg::Part(pa), RegionArg::Part(qb)],
    );
    b.end(l);
    let prog = b.build();
    let init: InitFn = Box::new(move |prog, store| {
        store.fill_f64(prog, RegionId(0), fa, |p| (p.coord(0) as f64).sin() * 8.0);
        store.fill_f64(prog, RegionId(1), fb, |p| p.coord(0) as f64 - 4.0);
    });
    (prog, init)
}

#[test]
fn fig2_spmd_matches_sequential() {
    for ns in [1, 2, 3, 4, 7] {
        let r = assert_equivalent(|| fig2_program(64, 8, 5), ns, |_| {});
        assert_eq!(r.stats.tasks_executed, 8 * 2 * 5);
        if ns > 1 {
            assert!(r.stats.messages_sent > 0, "cross-shard traffic expected");
        }
    }
}

#[test]
fn fig2_barrier_mode_matches() {
    assert_equivalent(|| fig2_program(48, 6, 4), 3, |o| o.sync = SyncMode::Barrier);
}

#[test]
fn fig2_no_placement_opt_matches() {
    assert_equivalent(
        || fig2_program(48, 6, 4),
        4,
        |o| o.optimize_placement = false,
    );
}

#[test]
fn fig2_no_disjoint_skipping_matches() {
    // Emitting copies between *all* pairs must still be correct — the
    // static skipping is an optimization only.
    assert_equivalent(
        || fig2_program(48, 6, 3),
        3,
        |o| o.skip_disjoint_pairs = false,
    );
}

#[test]
fn fig2_more_shards_than_launch_points() {
    // parts=3, ns=5: some shards own nothing.
    assert_equivalent(|| fig2_program(30, 3, 4), 5, |_| {});
}

/// Scatter-add via reduction privilege: edges reduce into nodes through
/// an aliased ghost partition; a second task reads and rescales nodes.
fn reduction_program(nodes_n: u64, edges_n: u64, parts: usize, steps: u64) -> ProgramFactory {
    let mut b = ProgramBuilder::new();
    let nfs = FieldSpace::of(&[("q", FieldType::F64), ("v", FieldType::F64)]);
    let q = nfs.lookup("q").unwrap();
    let v = nfs.lookup("v").unwrap();
    let efs = FieldSpace::of(&[("src", FieldType::I64), ("w", FieldType::F64)]);
    let esrc = efs.lookup("src").unwrap();
    let ew = efs.lookup("w").unwrap();
    let rn = b.forest.create_region(Domain::range(nodes_n), nfs);
    let re = b.forest.create_region(Domain::range(edges_n), efs);
    let pn = ops::block(&mut b.forest, rn, parts);
    let pe = ops::block(&mut b.forest, re, parts);
    // Edge e targets node (e * 7 + 1) mod nodes_n.
    let tgt = move |e: i64| (e * 7 + 1).rem_euclid(nodes_n as i64);
    // Ghost partition of nodes: image of edge blocks through tgt.
    let gn = ops::image(&mut b.forest, rn, pe, move |p, sink| {
        sink.push(DynPoint::from(tgt(p.coord(0))));
    });
    let scatter = b.task(TaskDecl {
        name: "scatter".into(),
        params: vec![
            RegionParam::read(&[esrc, ew]),
            RegionParam {
                privilege: Privilege::Reduce(ReductionOp::Add),
                fields: vec![q],
            },
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for e in dom.iter() {
                let n = ctx.read_i64(0, esrc, e);
                let w = ctx.read_f64(0, ew, e);
                ctx.reduce_f64(1, q, DynPoint::from(n), w);
            }
        }),
        cost_per_element: 1.0,
    });
    let update = b.task(TaskDecl {
        name: "update".into(),
        params: vec![RegionParam::read_write(&[q, v])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for p in dom.iter() {
                let qv = ctx.read_f64(0, q, p);
                let vv = ctx.read_f64(0, v, p);
                ctx.write_f64(0, v, p, vv + 0.125 * qv);
                ctx.write_f64(0, q, p, 0.0); // clear accumulator
            }
        }),
        cost_per_element: 1.0,
    });
    let l = b.for_loop(c(steps as f64));
    b.index_launch(
        scatter,
        parts as u64,
        vec![RegionArg::Part(pe), RegionArg::Part(gn)],
    );
    b.index_launch(update, parts as u64, vec![RegionArg::Part(pn)]);
    b.end(l);
    let prog = b.build();
    let init: InitFn = Box::new(move |prog, store| {
        store.fill_i64(prog, RegionId(1), esrc, move |p| tgt(p.coord(0)));
        store.fill_f64(prog, RegionId(1), ew, |p| 0.25 * (p.coord(0) % 5) as f64);
    });
    (prog, init)
}

#[test]
fn reduction_spmd_matches_sequential() {
    for ns in [1, 2, 4, 6] {
        let r = assert_equivalent(|| reduction_program(32, 96, 8, 4), ns, |_| {});
        // Reduction copies must actually flow.
        assert!(r.stats.copies_executed > 0);
    }
}

#[test]
fn reduction_barrier_mode_matches() {
    assert_equivalent(
        || reduction_program(32, 96, 8, 3),
        4,
        |o| o.sync = SyncMode::Barrier,
    );
}

/// Dynamic time stepping: dt computed by a Min scalar reduction feeds a
/// While loop condition (§4.4).
fn dt_program(n: u64, parts: usize) -> ProgramFactory {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(n), fs);
    let p = ops::block(&mut b.forest, r, parts);
    let advance = b.task(TaskDecl {
        name: "advance".into(),
        params: vec![RegionParam::read_write(&[x])],
        num_scalar_args: 1,
        returns_value: true,
        kernel: Arc::new(move |ctx| {
            let dt = ctx.scalars[0];
            let dom = ctx.domain(0).clone();
            let mut local_min = f64::INFINITY;
            for pt in dom.iter() {
                let v = ctx.read_f64(0, x, pt);
                let nv = v + dt * 0.5;
                ctx.write_f64(0, x, pt, nv);
                local_min = local_min.min(nv.abs() + 0.125);
            }
            ctx.set_return(local_min);
        }),
        cost_per_element: 1.0,
    });
    let t = b.scalar("t", 0.0);
    let dt = b.scalar("dt", 0.25);
    let w = b.while_loop(var(t).lt(c(2.0)));
    b.index_launch_full(
        advance,
        parts as u64,
        vec![RegionArg::Part(p)],
        vec![var(dt)],
        Some((dt, ReductionOp::Min)),
    );
    b.set_scalar(t, var(t).add(var(dt)));
    b.end(w);
    let prog = b.build();
    let init: InitFn = Box::new(move |prog, store| {
        store.fill_f64(prog, RegionId(0), x, |p| {
            ((p.coord(0) * 13) % 7) as f64 - 3.0
        });
    });
    (prog, init)
}

#[test]
fn scalar_reduction_while_matches() {
    for ns in [1, 2, 3, 5] {
        let r = assert_equivalent(|| dt_program(40, 5), ns, |_| {});
        assert!(r.stats.collectives > 0, "collectives expected");
    }
}

#[test]
fn implicit_executor_matches_sequential() {
    for workers in [1, 2, 8] {
        // fig2 program.
        let (prog, init) = fig2_program(64, 8, 5);
        let mut store_seq = Store::new(&prog);
        init(&prog, &mut store_seq);
        let (env_seq, _) = interp::run(&prog, &mut store_seq);

        let (prog2, init2) = fig2_program(64, 8, 5);
        let mut store_imp = Store::new(&prog2);
        init2(&prog2, &mut store_imp);
        let (env_imp, stats) = execute_implicit(
            &prog2,
            &mut store_imp,
            ImplicitOptions::with_workers(workers),
        );
        assert_eq!(env_seq, env_imp);
        assert_eq!(stats.tasks_launched, 80);
        assert!(stats.dependence_checks > 0);
        for root in prog.root_regions() {
            compare_roots(&prog, &store_seq, &prog2.forest, &store_imp, root, workers);
        }
    }
}

#[test]
fn implicit_executor_reductions_and_scalars() {
    let (prog, init) = reduction_program(32, 96, 8, 4);
    let mut s1 = Store::new(&prog);
    init(&prog, &mut s1);
    let (e1, _) = interp::run(&prog, &mut s1);
    let (prog2, init2) = reduction_program(32, 96, 8, 4);
    let mut s2 = Store::new(&prog2);
    init2(&prog2, &mut s2);
    let (e2, _) = execute_implicit(&prog2, &mut s2, ImplicitOptions::with_workers(4));
    assert_eq!(e1, e2);
    for root in prog.root_regions() {
        compare_roots(&prog, &s1, &prog2.forest, &s2, root, 4);
    }

    let (prog, init) = dt_program(40, 5);
    let mut s1 = Store::new(&prog);
    init(&prog, &mut s1);
    let (e1, _) = interp::run(&prog, &mut s1);
    let (prog2, init2) = dt_program(40, 5);
    let mut s2 = Store::new(&prog2);
    init2(&prog2, &mut s2);
    let (e2, _) = execute_implicit(&prog2, &mut s2, ImplicitOptions::with_workers(3));
    assert_eq!(e1, e2);
}

#[test]
fn cr_stats_fig2() {
    let (prog, _) = fig2_program(64, 8, 5);
    let spmd = control_replicate(prog, &CrOptions::new(4)).unwrap();
    // PB's write emits exactly one copy (to QB); PA's write emits none
    // (PA's tree has no other use).
    assert_eq!(spmd.count_copies(), 1);
    assert_eq!(spmd.stats.copies_inserted, 1);
}

/// §4.5 structure: one region with a disjoint top-level
/// {private, ghost} partition, a private working partition PB, a ghost
/// working partition SB (writer), and an aliased ghost halo QB
/// (reader). The region tree proves PB ⊥ QB, so only SB's write needs a
/// copy.
fn hierarchical_program(n: u64, parts: usize, steps: u64) -> ProgramFactory {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("xin", FieldType::F64), ("xout", FieldType::F64)]);
    let xin = fs.lookup("xin").unwrap();
    let xout = fs.lookup("xout").unwrap();
    let r = b.forest.create_region(Domain::range(n), fs);
    // Block of the whole region; the halo pattern reads neighbors.
    let blocks = ops::block(&mut b.forest, r, parts);
    let halo = ops::image(&mut b.forest, r, blocks, |p, sink| {
        sink.push(DynPoint::from(p.coord(0) - 1));
        sink.push(DynPoint::from(p.coord(0) + 1));
    });
    // Ghost elements: touched by some *other* block's halo.
    let mut ghost = Domain::empty(1);
    for (c, h) in b.forest.partition(halo).iter().collect::<Vec<_>>() {
        let own = b.forest.domain(b.forest.subregion(blocks, c)).clone();
        ghost = ghost.union(&b.forest.domain(h).subtract(&own));
    }
    let private = b.forest.domain(r).subtract(&ghost);
    let top = b.forest.create_partition(
        r,
        regent_region::Disjointness::Disjoint,
        vec![(DynPoint::from(0), private), (DynPoint::from(1), ghost)],
    );
    let all_private = b.forest.subregion_i(top, 0);
    let all_ghost = b.forest.subregion_i(top, 1);
    // PB: private halves of each block; SB: ghost halves; QB: halos
    // clipped to ghost.
    let pb = ops::restrict(&mut b.forest, all_private, blocks);
    let sb = ops::restrict(&mut b.forest, all_ghost, blocks);
    let qb = ops::restrict(&mut b.forest, all_ghost, halo);
    // Double-buffered stencil: `compute` writes xout from the xin halo;
    // `commit` copies xout back into xin. Field-granular privileges keep
    // the launches parallel (the write of xout never conflicts with the
    // halo read of xin).
    let compute = b.task(TaskDecl {
        name: "compute".into(),
        params: vec![
            RegionParam::read_write(&[xout]), // private out
            RegionParam::read_write(&[xout]), // owned ghost out
            RegionParam::read(&[xin]),        // private in
            RegionParam::read(&[xin]),        // owned ghost in
            RegionParam::read(&[xin]),        // halo in
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let halo_dom = ctx.domain(4).clone();
            let mut acc = 0.0;
            for p in halo_dom.iter() {
                acc += ctx.read_f64(4, xin, p);
            }
            for arg in [0usize, 1] {
                let dom = ctx.domain(arg).clone();
                for p in dom.iter() {
                    let v = ctx.read_f64(arg + 2, xin, p);
                    ctx.write_f64(arg, xout, p, v * 1.5 + 1.0 + acc * 1e-3);
                }
            }
        }),
        cost_per_element: 1.0,
    });
    let commit = b.task(TaskDecl {
        name: "commit".into(),
        params: vec![
            RegionParam::read_write(&[xin]), // private
            RegionParam::read_write(&[xin]), // owned ghost
            RegionParam::read(&[xout]),      // private
            RegionParam::read(&[xout]),      // owned ghost
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            for arg in [0usize, 1] {
                let dom = ctx.domain(arg).clone();
                for p in dom.iter() {
                    let v = ctx.read_f64(arg + 2, xout, p);
                    ctx.write_f64(arg, xin, p, v);
                }
            }
        }),
        cost_per_element: 1.0,
    });
    let l = b.for_loop(c(steps as f64));
    b.index_launch(
        compute,
        parts as u64,
        vec![
            RegionArg::Part(pb),
            RegionArg::Part(sb),
            RegionArg::Part(pb),
            RegionArg::Part(sb),
            RegionArg::Part(qb),
        ],
    );
    b.index_launch(
        commit,
        parts as u64,
        vec![
            RegionArg::Part(pb),
            RegionArg::Part(sb),
            RegionArg::Part(pb),
            RegionArg::Part(sb),
        ],
    );
    b.end(l);
    let prog = b.build();
    let init: InitFn = Box::new(move |prog, store| {
        store.fill_f64(prog, RegionId(0), xin, |p| (p.coord(0) % 9) as f64 * 0.5);
    });
    (prog, init)
}

#[test]
fn hierarchical_spmd_matches_sequential() {
    for ns in [1, 2, 4] {
        assert_equivalent(|| hierarchical_program(64, 8, 4), ns, |_| {});
    }
}

#[test]
fn hierarchical_tree_prunes_copies() {
    // With static skipping: PB (under all_private) is provably disjoint
    // from QB and SB (under all_ghost) — its write emits no copies.
    // Only SB → QB survives (both under all_ghost, may alias).
    let (prog, _) = hierarchical_program(64, 8, 4);
    let spmd = control_replicate(prog, &CrOptions::new(4)).unwrap();
    assert!(
        spmd.stats.pairs_proven_disjoint > 0,
        "§4.5 pruning expected"
    );
    let with_skip = spmd.count_copies();
    // Ablation: without the region-tree pruning, both writers copy to
    // every same-tree use.
    let (prog2, _) = hierarchical_program(64, 8, 4);
    let mut o = CrOptions::new(4);
    o.skip_disjoint_pairs = false;
    o.optimize_placement = false;
    let spmd2 = control_replicate(prog2, &o).unwrap();
    assert!(
        spmd2.count_copies() > with_skip,
        "without: {}, with: {}",
        spmd2.count_copies(),
        with_skip
    );
    // The ablated program is still correct, just wasteful.
    assert_equivalent(
        || hierarchical_program(64, 8, 4),
        3,
        |o| {
            o.skip_disjoint_pairs = false;
            o.optimize_placement = false;
        },
    );
}

#[test]
fn mapping_is_agnostic_to_results() {
    // §4.2: "The techniques described in this paper are agnostic to
    // the mapping used" — adversarial mappers change scheduling, never
    // results.
    use regent_runtime::{DefaultMapper, SingleWorkerMapper, TaskKindMapper};
    let (prog, init) = reduction_program(32, 96, 8, 4);
    let mut sref = Store::new(&prog);
    init(&prog, &mut sref);
    let (env_ref, _) = interp::run(&prog, &mut sref);

    let mappers: Vec<std::sync::Arc<dyn regent_runtime::Mapper>> = vec![
        std::sync::Arc::new(DefaultMapper),
        std::sync::Arc::new(SingleWorkerMapper),
        std::sync::Arc::new(TaskKindMapper),
    ];
    for mapper in mappers {
        let (prog2, init2) = reduction_program(32, 96, 8, 4);
        let mut s2 = Store::new(&prog2);
        init2(&prog2, &mut s2);
        let opts = ImplicitOptions {
            mapper,
            ..ImplicitOptions::with_workers(4)
        };
        let (env, _) = execute_implicit(&prog2, &mut s2, opts);
        assert_eq!(env_ref, env);
        for root in prog.root_regions() {
            compare_roots(&prog, &sref, &prog2.forest, &s2, root, 4);
        }
    }
}

/// Conditional control flow driven by a reduced scalar: the If branch
/// taken depends on a Max reduction from the previous step, so all
/// shards must take the same branch every iteration (§4.4's replicated
/// scalar state).
fn conditional_program(n: u64, parts: usize, steps: u64) -> ProgramFactory {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(n), fs);
    let p = ops::block(&mut b.forest, r, parts);
    let grow = b.task(TaskDecl {
        name: "grow".into(),
        params: vec![RegionParam::read_write(&[x])],
        num_scalar_args: 0,
        returns_value: true,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            let mut mx = f64::NEG_INFINITY;
            for q in dom.iter() {
                let v = ctx.read_f64(0, x, q) * 1.5 + 0.25;
                ctx.write_f64(0, x, q, v);
                mx = mx.max(v);
            }
            ctx.set_return(mx);
        }),
        cost_per_element: 1.0,
    });
    let damp = b.task(TaskDecl {
        name: "damp".into(),
        params: vec![RegionParam::read_write(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for q in dom.iter() {
                let v = ctx.read_f64(0, x, q);
                ctx.write_f64(0, x, q, v * 0.25);
            }
        }),
        cost_per_element: 1.0,
    });
    let peak = b.scalar("peak", 0.0);
    let hits = b.scalar("damp_count", 0.0);
    let l = b.for_loop(c(steps as f64));
    b.index_launch_full(
        grow,
        parts as u64,
        vec![RegionArg::Part(p)],
        vec![],
        Some((peak, ReductionOp::Max)),
    );
    // if peak > 10: damp everything (and count how often).
    let cond = var(peak).lt(c(10.0)); // 1.0 when peak < 10
    b.push_if(
        cond,
        vec![],
        vec![
            regent_ir::Stmt::IndexLaunch(regent_ir::IndexLaunch {
                task: damp,
                launch_domain: (0..parts as i64)
                    .map(regent_geometry::DynPoint::from)
                    .collect(),
                args: vec![RegionArg::Part(p)],
                scalar_args: vec![],
                reduce_result: None,
            }),
            regent_ir::Stmt::SetScalar {
                var: hits,
                expr: var(hits).add(c(1.0)),
            },
        ],
    );
    b.end(l);
    let prog = b.build();
    let init: InitFn = Box::new(move |prog, store| {
        store.fill_f64(prog, RegionId(0), x, |q| (q.coord(0) % 5) as f64 * 0.5);
    });
    (prog, init)
}

#[test]
fn conditional_on_reduced_scalar_matches() {
    for ns in [1, 2, 4] {
        let r = assert_equivalent(|| conditional_program(32, 4, 8), ns, |_| {});
        // The damp branch fired at least once (peak exceeds 10 while
        // growing 1.5× per step).
        assert!(r.env[1] >= 1.0, "damp never fired: env={:?}", r.env);
    }
}

#[test]
fn zero_trip_loops_and_dynamic_counts() {
    // A For whose trip count is a scalar computed at runtime — zero on
    // the first run (so copies, resets and collectives never fire) and
    // non-trivial on the second.
    let build = |count: f64| -> ProgramFactory {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let q = ops::image(&mut b.forest, r, p, |pt, sink| {
            sink.push(DynPoint::from(pt.coord(0) + 1));
        });
        let w = b.task(TaskDecl {
            name: "w".into(),
            params: vec![RegionParam::read_write(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let dom = ctx.domain(0).clone();
                for pt in dom.iter() {
                    let v = ctx.read_f64(0, x, pt);
                    ctx.write_f64(0, x, pt, v + 1.0);
                }
            }),
            cost_per_element: 1.0,
        });
        let rd = b.task(TaskDecl {
            name: "rd".into(),
            params: vec![RegionParam::read_write(&[x]), RegionParam::read(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(|_| {}),
            cost_per_element: 1.0,
        });
        let n = b.scalar("n", count);
        let l = b.for_loop(var(n));
        b.index_launch(w, 4, vec![RegionArg::Part(p)]);
        b.end(l);
        // A second (empty-body-allowed) use of q so coherence matters.
        let _ = (rd, q);
        let prog = b.build();
        let init: InitFn = Box::new(move |prog, store| {
            store.fill_f64(prog, RegionId(0), x, |pt| pt.coord(0) as f64);
        });
        (prog, init)
    };
    for count in [0.0, 3.0] {
        for ns in [1, 3] {
            assert_equivalent(|| build(count), ns, |_| {});
        }
    }
}
