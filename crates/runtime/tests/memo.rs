//! Negative-path and lifecycle tests for epoch-trace memoization: the
//! transparent-fallback contract of `crates/runtime/src/memo.rs`.
//!
//! Capture → replay must be bit-identical to the sequential reference;
//! structural forest mutations must invalidate the cache and recapture;
//! epochs that diverge from the predicted template (extra launches,
//! missing launches, flipped branches) must fall back to full analysis
//! mid-epoch and still produce correct results; and a memoized implicit
//! run must agree bit-for-bit with a checkpoint–restart SPMD recovery
//! under the seeded fault plans the `REGENT_FAULT_SEED` CI smoke uses.

use regent_cr::{control_replicate, CrOptions};
use regent_geometry::{Domain, DynPoint};
use regent_ir::{
    expr::{c, var},
    interp, IndexLaunch, Program, ProgramBuilder, RegionArg, RegionParam, Stmt, Store, TaskDecl,
};
use regent_region::{ops, FieldSpace, FieldType, RegionId};
use regent_runtime::{
    execute_implicit, run, Compiled, FaultPlan, ImplicitOptions, MemoCache, ResilienceOptions,
    RunOptions,
};
use regent_trace::{memo_summary, EventKind, Tracer};
use std::sync::Arc;

type InitFn = Box<dyn Fn(&Program, &mut Store)>;

/// A two-phase halo program: every epoch launches `diffuse` (writes `y`
/// from a shifted read of `x`) then `fold` (writes `x` from `y`), so a
/// captured template carries real intra-epoch dependence edges.
fn halo_program(n: u64, parts: usize, steps: u64) -> (Program, InitFn) {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let y = fs.lookup("y").unwrap();
    let r = b.forest.create_region(Domain::range(n), fs);
    let p = ops::block(&mut b.forest, r, parts);
    let halo = ops::image(&mut b.forest, r, p, move |pt, sink| {
        sink.push(DynPoint::from((pt.coord(0) + 1).rem_euclid(n as i64)));
    });
    let diffuse = b.task(TaskDecl {
        name: "diffuse".into(),
        params: vec![RegionParam::read_write(&[y]), RegionParam::read(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for pt in dom.iter() {
                let v = ctx.read_f64(1, x, DynPoint::from((pt.coord(0) + 1).rem_euclid(n as i64)));
                ctx.write_f64(0, y, pt, 0.5 * v + 1.0);
            }
        }),
        cost_per_element: 1.0,
    });
    let fold = b.task(TaskDecl {
        name: "fold".into(),
        params: vec![RegionParam::read_write(&[x]), RegionParam::read(&[y])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for pt in dom.iter() {
                let v = ctx.read_f64(1, y, pt);
                ctx.write_f64(0, x, pt, v * 1.25 - 0.5);
            }
        }),
        cost_per_element: 1.0,
    });
    let l = b.for_loop(c(steps as f64));
    b.index_launch(
        diffuse,
        parts as u64,
        vec![RegionArg::Part(p), RegionArg::Part(halo)],
    );
    b.index_launch(
        fold,
        parts as u64,
        vec![RegionArg::Part(p), RegionArg::Part(p)],
    );
    b.end(l);
    let prog = b.build();
    let init: InitFn = Box::new(move |prog, store| {
        store.fill_f64(prog, RegionId(0), x, |pt| (pt.coord(0) as f64).cos() * 4.0);
        store.fill_f64(prog, RegionId(0), y, |_| 0.0);
    });
    (prog, init)
}

/// A program whose epoch shape flips after `flip_at` iterations: a
/// counter scalar drives an If between one and two index launches.
/// `grow == true` adds the second launch *after* the flip (the replayed
/// prefix matches and the divergence fires mid-epoch); `grow == false`
/// removes it (the epoch ends with the template expecting more).
fn phased_program(n: u64, parts: usize, steps: u64, flip_at: f64, grow: bool) -> (Program, InitFn) {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(n), fs);
    let p = ops::block(&mut b.forest, r, parts);
    let scale = b.task(TaskDecl {
        name: "scale".into(),
        params: vec![RegionParam::read_write(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for pt in dom.iter() {
                let v = ctx.read_f64(0, x, pt);
                ctx.write_f64(0, x, pt, v * 1.01 + 0.125);
            }
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
            for pt in dom.iter() {
                let v = ctx.read_f64(0, x, pt);
                ctx.write_f64(0, x, pt, v * 0.75);
            }
        }),
        cost_per_element: 1.0,
    });
    let i = b.scalar("i", 0.0);
    let launch = |task| {
        Stmt::IndexLaunch(IndexLaunch {
            task,
            launch_domain: (0..parts as i64).map(DynPoint::from).collect(),
            args: vec![RegionArg::Part(p)],
            scalar_args: vec![],
            reduce_result: None,
        })
    };
    let short = vec![launch(scale)];
    let long = vec![launch(scale), launch(damp)];
    let (before, after) = if grow { (short, long) } else { (long, short) };
    let l = b.for_loop(c(steps as f64));
    b.push_if(var(i).lt(c(flip_at)), before, after);
    b.set_scalar(i, var(i).add(c(1.0)));
    b.end(l);
    let prog = b.build();
    let init: InitFn = Box::new(move |prog, store| {
        store.fill_f64(prog, RegionId(0), x, |pt| pt.coord(0) as f64 * 0.5 - 3.0);
    });
    (prog, init)
}

/// Bit-compares every root region of two executions.
fn assert_bits_equal(prog: &Program, a: &Store, b: &Store, what: &str) {
    for root in prog.root_regions() {
        let ia = a.instance(prog, root);
        let ib = b.instance(prog, root);
        for (fid, def) in prog.forest.fields(root).iter() {
            for pt in prog.forest.domain(root).iter() {
                let va = ia.read_f64(fid, pt);
                let vb = ib.read_f64(fid, pt);
                assert!(
                    va.to_bits() == vb.to_bits(),
                    "{what}: field {:?} at {:?}: {va} vs {vb}",
                    def.name,
                    pt
                );
            }
        }
    }
}

fn memo_opts(tracer: &Arc<Tracer>, cache: Arc<std::sync::Mutex<MemoCache>>) -> ImplicitOptions {
    ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(4)
    }
    .with_memo(cache)
}

fn count_events(trace: &regent_trace::Trace, pred: impl Fn(&EventKind) -> bool) -> usize {
    trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| pred(&e.kind))
        .count()
}

#[test]
fn capture_then_replay_is_bit_identical() {
    let steps = 6u64;
    let parts = 4usize;
    let (prog, init) = halo_program(64, parts, steps);
    let mut seq = Store::new(&prog);
    init(&prog, &mut seq);
    let (env_seq, _) = interp::run(&prog, &mut seq);

    let (prog2, init2) = halo_program(64, parts, steps);
    let mut store = Store::new(&prog2);
    init2(&prog2, &mut store);
    let tracer = Tracer::enabled();
    let (env, stats) =
        execute_implicit(&prog2, &mut store, memo_opts(&tracer, MemoCache::shared()));
    assert_eq!(env_seq, env);
    assert_bits_equal(&prog, &seq, &store, "memoized replay");

    // One capture, every later epoch a full replay of 2 launches ×
    // `parts` points each.
    assert_eq!(stats.memo_captures, 1);
    assert_eq!(stats.memo_hits, steps - 1);
    assert_eq!(stats.memo_misses, 0);
    assert_eq!(stats.memo_invalidations, 0);
    assert_eq!(stats.memo_replayed_tasks, (steps - 1) * 2 * parts as u64);

    // The trace shows the same story, and the per-epoch analysis cost
    // collapses to zero on replayed epochs (no DepAnalysis spans).
    let trace = tracer.take();
    assert_eq!(
        count_events(&trace, |k| matches!(k, EventKind::MemoCapture { .. })),
        1
    );
    assert_eq!(
        count_events(&trace, |k| matches!(k, EventKind::MemoHit { .. })),
        (steps - 1) as usize
    );
    let summary = memo_summary(&trace, "control");
    assert_eq!(summary.hits, steps - 1);
    assert!(summary.first_epoch_analysis_ns > 0);
    assert_eq!(summary.steady_state_analysis_ns, 0.0);
}

#[test]
fn shared_cache_replays_from_the_first_epoch() {
    let steps = 4u64;
    let cache = MemoCache::shared();
    let (prog, init) = halo_program(48, 3, steps);
    let mut s1 = Store::new(&prog);
    init(&prog, &mut s1);
    let (_, first) = execute_implicit(
        &prog,
        &mut s1,
        memo_opts(&Tracer::disabled(), cache.clone()),
    );
    assert_eq!(first.memo_captures, 1);

    // Same structure, fresh run, same cache: the persisted prediction
    // replays even epoch 0 — no captures at all.
    let (prog2, init2) = halo_program(48, 3, steps);
    let mut s2 = Store::new(&prog2);
    init2(&prog2, &mut s2);
    let (_, second) = execute_implicit(&prog2, &mut s2, memo_opts(&Tracer::disabled(), cache));
    assert_eq!(second.memo_captures, 0);
    assert_eq!(second.memo_hits, steps);
    assert_eq!(second.memo_misses, 0);
    assert_bits_equal(&prog, &s1, &s2, "second memoized run");
}

#[test]
fn forest_mutation_invalidates_and_recaptures() {
    let steps = 5u64;
    let parts = 3usize;
    let cache = MemoCache::shared();
    let (prog, init) = halo_program(48, parts, steps);
    let mut s1 = Store::new(&prog);
    init(&prog, &mut s1);
    execute_implicit(
        &prog,
        &mut s1,
        memo_opts(&Tracer::disabled(), cache.clone()),
    );

    // Structurally mutate the second program's forest before running:
    // an extra partition bumps the forest version, so the cached
    // templates (validated against the old version) must be dropped.
    let (mut prog2, init2) = halo_program(48, parts, steps);
    ops::block(&mut prog2.forest, RegionId(0), parts + 1);
    let mut s2 = Store::new(&prog2);
    init2(&prog2, &mut s2);
    let tracer = Tracer::enabled();
    let (_, stats) = execute_implicit(&prog2, &mut s2, memo_opts(&tracer, cache));
    assert_eq!(stats.memo_invalidations, 1);
    assert_eq!(stats.memo_captures, 1, "must recapture after invalidation");
    assert_eq!(stats.memo_hits, steps - 1);
    let trace = tracer.take();
    assert_eq!(
        count_events(&trace, |k| matches!(k, EventKind::MemoInvalidate { .. })),
        1
    );
    // The extra partition changes no semantics: results still match.
    assert_bits_equal(&prog, &s1, &s2, "post-invalidation run");
}

#[test]
fn divergent_epochs_fall_back_to_analysis() {
    // `grow`: the epoch gains a launch after the flip — the replayed
    // prefix matches, then the extra launch diverges mid-epoch.
    // `shrink`: the epoch loses a launch — the template expects more at
    // the epoch boundary. Both must miss exactly once, re-capture the
    // new shape silently, and replay it for the remaining epochs.
    let steps = 8u64;
    let flip_at = 3.0;
    for grow in [true, false] {
        let (prog, init) = phased_program(48, 3, steps, flip_at, grow);
        let mut seq = Store::new(&prog);
        init(&prog, &mut seq);
        let (env_seq, _) = interp::run(&prog, &mut seq);

        let (prog2, init2) = phased_program(48, 3, steps, flip_at, grow);
        let mut store = Store::new(&prog2);
        init2(&prog2, &mut store);
        let tracer = Tracer::enabled();
        let (env, stats) =
            execute_implicit(&prog2, &mut store, memo_opts(&tracer, MemoCache::shared()));
        assert_eq!(env_seq, env, "grow={grow}");
        assert_bits_equal(&prog, &seq, &store, "divergent run");

        assert_eq!(stats.memo_captures, 1, "grow={grow}");
        assert_eq!(stats.memo_misses, 1, "grow={grow}");
        assert_eq!(stats.memo_hits, steps - 2, "grow={grow}");
        let trace = tracer.take();
        assert_eq!(
            count_events(&trace, |k| matches!(k, EventKind::MemoMiss { .. })),
            1,
            "grow={grow}"
        );
        let summary = memo_summary(&trace, "control");
        assert_eq!(summary.misses, 1);
        assert_eq!(summary.hits, steps - 2);
    }
}

#[test]
fn memoized_implicit_matches_fault_seeded_spmd_recovery() {
    // The REGENT_FAULT_SEED interop shape: the same program through (a)
    // the memoized implicit executor and (b) SPMD with a seeded crash
    // plan and checkpoint–restart recovery. Both paths must land on the
    // reference bits — memoization on one side and rollback-replay on
    // the other are both invisible to the results.
    let steps = 6u64;
    let parts = 4usize;
    let (prog, init) = halo_program(64, parts, steps);
    let mut memo_store = Store::new(&prog);
    init(&prog, &mut memo_store);
    let (env_memo, stats) = execute_implicit(
        &prog,
        &mut memo_store,
        memo_opts(&Tracer::disabled(), MemoCache::shared()),
    );
    assert!(stats.memo_hits >= 1);

    for seed in [1u64, 42] {
        let (prog2, init2) = halo_program(64, parts, steps);
        let mut store = Store::new(&prog2);
        init2(&prog2, &mut store);
        let spmd = control_replicate(prog2, &CrOptions::new(parts)).unwrap();
        let opts = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::seeded_crash(seed, parts, 4),
            ..Default::default()
        };
        let r = run(
            Compiled::Spmd(&spmd),
            &mut store,
            &RunOptions::default().with_resilience(opts.clone()),
        );
        assert_eq!(env_memo, r.env, "seed={seed}");
        // Roots live in both forests with identical domains; compare
        // against the memoized implicit store bit-for-bit.
        for root in prog.root_regions() {
            let ia = memo_store.instance(&prog, root);
            let ib = store.instance_in(&spmd.forest, root);
            for (fid, _) in prog.forest.fields(root).iter() {
                for pt in prog.forest.domain(root).iter() {
                    assert_eq!(
                        ia.read_f64(fid, pt).to_bits(),
                        ib.read_f64(fid, pt).to_bits(),
                        "seed={seed} at {pt:?}"
                    );
                }
            }
        }
    }
}
