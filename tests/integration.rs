//! Cross-crate integration tests on the public API of the workspace
//! root: projection normalization feeding control replication, target
//! detection, and the full pipeline on mixed programs.

use control_replication::cr::{control_replicate, find_replicable_ranges, CrOptions};
use control_replication::geometry::Domain;
use control_replication::ir::{
    expr::c, interp, normalize_projections, Program, ProgramBuilder, Projection, RegionArg,
    RegionParam, Store, TaskDecl,
};
use control_replication::region::{ops, FieldSpace, FieldType, RegionId};
use control_replication::runtime::{run, Compiled, RunOptions};
use std::sync::Arc;

/// A ring-shift program: every step, task i reads its right neighbour's
/// block through the projected argument `p[(i+1) mod NT]` and writes
/// its own block — the `p[f(i)]` form §2.2 requires normalizing.
fn ring_shift_program(n: u64, parts: u64, steps: u64) -> (Program, regent_region::FieldId) {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("cur", FieldType::F64), ("nxt", FieldType::F64)]);
    let cur = fs.lookup("cur").unwrap();
    let nxt = fs.lookup("nxt").unwrap();
    let r = b.forest.create_region(Domain::range(n), fs);
    let p = ops::block(&mut b.forest, r, parts as usize);
    let shift = b.task(TaskDecl {
        name: "shift".into(),
        params: vec![RegionParam::read_write(&[nxt]), RegionParam::read(&[cur])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            // New block value = sum of the neighbour block's elements
            // plus own index.
            let src = ctx.domain(1).clone();
            let mut acc = 0.0;
            for q in src.iter() {
                acc += ctx.read_f64(1, cur, q);
            }
            let dst = ctx.domain(0).clone();
            for q in dst.iter() {
                ctx.write_f64(0, nxt, q, acc + q.coord(0) as f64);
            }
        }),
        cost_per_element: 1.0,
    });
    let commit = b.task(TaskDecl {
        name: "commit".into(),
        params: vec![RegionParam::read_write(&[cur]), RegionParam::read(&[nxt])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for q in dom.iter() {
                let v = ctx.read_f64(1, nxt, q);
                ctx.write_f64(0, cur, q, v);
            }
        }),
        cost_per_element: 1.0,
    });
    let l = b.for_loop(c(steps as f64));
    b.index_launch(
        shift,
        parts,
        vec![
            RegionArg::Part(p),
            RegionArg::PartProj(
                p,
                Projection::AffineOffset {
                    offset: 1,
                    modulus: Some(parts),
                },
            ),
        ],
    );
    b.index_launch(commit, parts, vec![RegionArg::Part(p), RegionArg::Part(p)]);
    b.end(l);
    (b.build(), cur)
}

#[test]
fn projected_arguments_normalize_and_replicate() {
    let (prog, cur) = ring_shift_program(48, 6, 4);
    let mut seq = Store::new(&prog);
    seq.fill_f64(&prog, RegionId(0), cur, |p| (p.coord(0) % 5) as f64);
    let (_, _) = interp::run(&prog, &mut seq);

    for ns in [1, 2, 4] {
        let (prog2, cur2) = ring_shift_program(48, 6, 4);
        let mut crs = Store::new(&prog2);
        crs.fill_f64(&prog2, RegionId(0), cur2, |p| (p.coord(0) % 5) as f64);
        // control_replicate normalizes projections internally (§2.2).
        let spmd = control_replicate(prog2, &CrOptions::new(ns)).unwrap();
        run(Compiled::Spmd(&spmd), &mut crs, &RunOptions::default());
        let a = seq.instance(&prog, RegionId(0));
        let b = crs.instance_in(&spmd.forest, RegionId(0));
        for p in prog.forest.domain(RegionId(0)).iter() {
            assert_eq!(a.read_f64(cur, p), b.read_f64(cur, p), "at {p:?} ns={ns}");
        }
    }
}

#[test]
fn normalization_is_explicitly_available() {
    let (mut prog, _) = ring_shift_program(24, 4, 2);
    let before = prog.forest.num_partitions();
    let stats = normalize_projections(&mut prog);
    assert_eq!(stats.rewritten, 1);
    assert_eq!(prog.forest.num_partitions(), before + 1);
    // Idempotent.
    let again = normalize_projections(&mut prog);
    assert_eq!(again.rewritten, 0);
}

#[test]
fn mixed_program_ranges_detected() {
    // A program with a non-replicable single launch between two
    // replicable loops: the analysis reports two maximal ranges
    // (§2.2: "applied automatically to the largest set of statements
    // that meet the requirements").
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(16), fs);
    let p = ops::block(&mut b.forest, r, 4);
    let t = b.task(TaskDecl {
        name: "t".into(),
        params: vec![RegionParam::read_write(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(|_| {}),
        cost_per_element: 1.0,
    });
    let l = b.for_loop(c(2.0));
    b.index_launch(t, 4, vec![RegionArg::Part(p)]);
    b.end(l);
    b.call(t, vec![r]); // single launch: not replicable
    let l = b.for_loop(c(2.0));
    b.index_launch(t, 4, vec![RegionArg::Part(p)]);
    b.end(l);
    let prog = b.build();
    let ranges = find_replicable_ranges(&prog, &prog.body);
    assert_eq!(ranges.len(), 2);
    assert_eq!((ranges[0].start, ranges[0].end), (0, 1));
    assert_eq!((ranges[1].start, ranges[1].end), (2, 3));
}

#[test]
fn whole_region_read_argument_is_broadcast() {
    // A read-only whole-region argument in an index launch: every
    // shard holds a replica, refreshed by copies from writers.
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("sum", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let sum = fs.lookup("sum").unwrap();
    let r = b.forest.create_region(Domain::range(16), fs);
    let p = ops::block(&mut b.forest, r, 4);
    // Task: x[p] += global_sum_readout — reads the whole region,
    // writes its own block.
    let t = b.task(TaskDecl {
        name: "gather_all".into(),
        params: vec![RegionParam::read_write(&[sum]), RegionParam::read(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let whole = ctx.domain(1).clone();
            let mut acc = 0.0;
            for q in whole.iter() {
                acc += ctx.read_f64(1, x, q);
            }
            let own = ctx.domain(0).clone();
            for q in own.iter() {
                ctx.write_f64(0, sum, q, acc);
            }
        }),
        cost_per_element: 1.0,
    });
    let upd = b.task(TaskDecl {
        name: "update_x".into(),
        params: vec![RegionParam::read_write(&[x]), RegionParam::read(&[sum])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let own = ctx.domain(0).clone();
            for q in own.iter() {
                let v = ctx.read_f64(0, x, q);
                let s = ctx.read_f64(1, sum, q);
                ctx.write_f64(0, x, q, v + 1e-3 * s);
            }
        }),
        cost_per_element: 1.0,
    });
    let l = b.for_loop(c(3.0));
    b.index_launch(t, 4, vec![RegionArg::Part(p), RegionArg::Region(r)]);
    b.index_launch(upd, 4, vec![RegionArg::Part(p), RegionArg::Part(p)]);
    b.end(l);
    let prog = b.build();

    let run_seq = || {
        let mut b2 = Store::new(&prog);
        b2.fill_f64(&prog, r, x, |p| p.coord(0) as f64);
        let _ = interp::run(&prog, &mut b2);
        b2
    };
    let seq = run_seq();

    // Rebuild for CR (same closure-free structure, deterministic).
    let mut crs = Store::new(&prog);
    crs.fill_f64(&prog, r, x, |p| p.coord(0) as f64);
    // We can't reuse `prog` (moved), so clone pieces via a fresh build:
    // here simply re-run through CR on a second identical build.
    let rebuild = || {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64), ("sum", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let sum = fs.lookup("sum").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(TaskDecl {
            name: "gather_all".into(),
            params: vec![RegionParam::read_write(&[sum]), RegionParam::read(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let whole = ctx.domain(1).clone();
                let mut acc = 0.0;
                for q in whole.iter() {
                    acc += ctx.read_f64(1, x, q);
                }
                let own = ctx.domain(0).clone();
                for q in own.iter() {
                    ctx.write_f64(0, sum, q, acc);
                }
            }),
            cost_per_element: 1.0,
        });
        let upd = b.task(TaskDecl {
            name: "update_x".into(),
            params: vec![RegionParam::read_write(&[x]), RegionParam::read(&[sum])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let own = ctx.domain(0).clone();
                for q in own.iter() {
                    let v = ctx.read_f64(0, x, q);
                    let s = ctx.read_f64(1, sum, q);
                    ctx.write_f64(0, x, q, v + 1e-3 * s);
                }
            }),
            cost_per_element: 1.0,
        });
        let l = b.for_loop(c(3.0));
        b.index_launch(t, 4, vec![RegionArg::Part(p), RegionArg::Region(r)]);
        b.index_launch(upd, 4, vec![RegionArg::Part(p), RegionArg::Part(p)]);
        b.end(l);
        b.build()
    };
    for ns in [1, 2, 3] {
        let prog2 = rebuild();
        let mut crs = Store::new(&prog2);
        crs.fill_f64(&prog2, RegionId(0), x, |p| p.coord(0) as f64);
        let spmd = control_replicate(prog2, &CrOptions::new(ns)).unwrap();
        run(Compiled::Spmd(&spmd), &mut crs, &RunOptions::default());
        let a = seq.instance(&prog, RegionId(0));
        let bb = crs.instance_in(&spmd.forest, RegionId(0));
        for q in prog.forest.domain(RegionId(0)).iter() {
            assert_eq!(a.read_f64(x, q), bb.read_f64(x, q), "x at {q:?} ns={ns}");
            assert_eq!(a.read_f64(sum, q), bb.read_f64(sum, q), "sum at {q:?}");
        }
    }
}

#[test]
fn hybrid_range_local_replication_matches_sequential() {
    // §2.2: control replication "need not be applied only at the top
    // level" — a mixed program with a non-replicable single launch
    // between two replicable loops runs hybrid: the loops as SPMD
    // shards, the single launch sequentially, with region data and a
    // scalar threading through all segments.
    use control_replication::cr::replicate_ranges;
    use control_replication::ir::expr::var;

    let build = || {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(24), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let scale = b.scalar("scale", 2.0);
        let bump = b.task(TaskDecl {
            name: "bump".into(),
            params: vec![RegionParam::read_write(&[x])],
            num_scalar_args: 1,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let s = ctx.scalars[0];
                let dom = ctx.domain(0).clone();
                for q in dom.iter() {
                    let v = ctx.read_f64(0, x, q);
                    ctx.write_f64(0, x, q, v * s + 1.0);
                }
            }),
            cost_per_element: 1.0,
        });
        let whole = b.task(TaskDecl {
            name: "whole_region_pass".into(),
            params: vec![RegionParam::read_write(&[x])],
            num_scalar_args: 0,
            returns_value: true,
            kernel: Arc::new(move |ctx| {
                // A global, non-replicable pass: normalizes by the max.
                let dom = ctx.domain(0).clone();
                let mut mx: f64 = 1.0;
                for q in dom.iter() {
                    mx = mx.max(ctx.read_f64(0, x, q).abs());
                }
                for q in dom.iter() {
                    let v = ctx.read_f64(0, x, q);
                    ctx.write_f64(0, x, q, v / mx);
                }
                ctx.set_return(mx);
            }),
            cost_per_element: 1.0,
        });
        let peak = b.scalar("peak", 0.0);
        // Replicable range 1.
        let l = b.for_loop(c(3.0));
        b.index_launch_full(bump, 4, vec![RegionArg::Part(p)], vec![var(scale)], None);
        b.end(l);
        // Sequential segment: whole-region normalize, returns the peak.
        b.call_full(whole, vec![r], vec![], Some(peak));
        // Replicable range 2: uses the scalar produced sequentially.
        let l = b.for_loop(c(2.0));
        b.index_launch_full(bump, 4, vec![RegionArg::Part(p)], vec![var(peak)], None);
        b.end(l);
        (b.build(), x)
    };

    // Sequential reference.
    let (prog, x) = build();
    let mut seq = Store::new(&prog);
    seq.fill_f64(&prog, RegionId(0), x, |q| (q.coord(0) % 7) as f64 - 3.0);
    let (seq_env, _) = interp::run(&prog, &mut seq);

    for ns in [1, 2, 3] {
        let (prog2, x2) = build();
        let mut store = Store::new(&prog2);
        store.fill_f64(&prog2, RegionId(0), x2, |q| (q.coord(0) % 7) as f64 - 3.0);
        let hybrid = replicate_ranges(prog2, &CrOptions::new(ns)).unwrap();
        assert_eq!(hybrid.num_replicated(), 2);
        let result = run(
            Compiled::Hybrid(&hybrid),
            &mut store,
            &RunOptions::default(),
        );
        assert_eq!(seq_env, result.env, "ns={ns}");
        assert_eq!(result.replicated_segments, 2);
        assert!(result.sequential_tasks >= 1);
        let a = seq.instance(&prog, RegionId(0));
        let b = store.instance(&hybrid.base, RegionId(0));
        for q in prog.forest.domain(RegionId(0)).iter() {
            assert_eq!(a.read_f64(x, q), b.read_f64(x, q), "at {q:?} ns={ns}");
        }
    }
}
