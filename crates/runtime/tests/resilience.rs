//! Resilient SPMD execution: checkpoint–restart under a deterministic
//! fault plan must recover *bit-identical* region contents and scalar
//! environments, and a shard that dies (panicking kernel) must fail the
//! whole run in bounded time with a diagnostic instead of deadlocking
//! the surviving shards.

use regent_cr::{control_replicate, CrOptions, ForestOracle};
use regent_fault::FaultPlan;
use regent_geometry::{Domain, DynPoint};
use regent_ir::{
    expr::{c, var},
    Program, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl,
};
use regent_region::{ops, FieldSpace, FieldType, ReductionOp, RegionId};
use regent_runtime::{run, Compiled, ResilienceOptions, RunOptions, RunResult};
use regent_trace::{integrity_summary, validate, Tracer};
use std::sync::Arc;

type InitFn = Box<dyn Fn(&Program, &mut Store)>;

/// A halo-exchange stencil over a For loop: cross-shard copies every
/// iteration, so a rollback must re-drive the message protocol too.
fn stencil_program(n: u64, parts: usize, steps: u64) -> (Program, InitFn) {
    stencil_shaped(n, parts, false, &[steps])
}

/// [`stencil_program`] with one outer loop per entry of `loops` (its
/// trip count) and, when `scale_first`, a launch that rescales `x`
/// before the first loop.
fn stencil_shaped(n: u64, parts: usize, scale_first: bool, loops: &[u64]) -> (Program, InitFn) {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let y = fs.lookup("y").unwrap();
    let r = b.forest.create_region(Domain::range(n), fs);
    let p = ops::block(&mut b.forest, r, parts);
    let halo = ops::image(&mut b.forest, r, p, move |pt, sink| {
        let i = pt.coord(0);
        sink.push(DynPoint::from((i - 1).rem_euclid(n as i64)));
        sink.push(DynPoint::from((i + 1).rem_euclid(n as i64)));
    });
    let sweep = b.task(TaskDecl {
        name: "sweep".into(),
        params: vec![RegionParam::read_write(&[y]), RegionParam::read(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for pt in dom.iter() {
                let i = pt.coord(0);
                let l = ctx.read_f64(1, x, DynPoint::from((i - 1).rem_euclid(n as i64)));
                let rr = ctx.read_f64(1, x, DynPoint::from((i + 1).rem_euclid(n as i64)));
                ctx.write_f64(0, y, pt, 0.5 * (l + rr) + 0.125);
            }
        }),
    });
    let commit = b.task(TaskDecl {
        name: "commit".into(),
        params: vec![RegionParam::read_write(&[x]), RegionParam::read(&[y])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            for pt in dom.iter() {
                let v = ctx.read_f64(1, y, pt);
                ctx.write_f64(0, x, pt, v);
            }
        }),
    });
    if scale_first {
        let scale = b.task(TaskDecl {
            name: "scale".into(),
            params: vec![RegionParam::read_write(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let dom = ctx.domain(0).clone();
                for pt in dom.iter() {
                    let v = ctx.read_f64(0, x, pt);
                    ctx.write_f64(0, x, pt, 2.0 * v + 1.0);
                }
            }),
        });
        b.index_launch(scale, parts as u64, vec![RegionArg::Part(p)]);
    }
    for &steps in loops {
        let l = b.for_loop(c(steps as f64));
        b.index_launch(
            sweep,
            parts as u64,
            vec![RegionArg::Part(p), RegionArg::Part(halo)],
        );
        b.index_launch(
            commit,
            parts as u64,
            vec![RegionArg::Part(p), RegionArg::Part(p)],
        );
        b.end(l);
    }
    let prog = b.build();
    let init: InitFn = Box::new(move |prog, store| {
        store.fill_f64(prog, RegionId(0), x, |pt| ((pt.coord(0) * 7) % 11) as f64);
    });
    (prog, init)
}

/// A While loop driven by a Min-reduced scalar: rollback must restore
/// the replicated scalar environment so every shard re-takes the same
/// branches.
fn while_program(n: u64, parts: usize) -> (Program, InitFn) {
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
        store.fill_f64(prog, RegionId(0), x, |pt| {
            ((pt.coord(0) * 13) % 7) as f64 - 3.0
        });
    });
    (prog, init)
}

/// Runs `mk` fault-free and resilient with `opts`, asserting the final
/// scalar env and every root-region field come out bit-identical.
fn assert_recovery_bit_identical(
    mk: impl Fn() -> (Program, InitFn),
    ns: usize,
    opts: &ResilienceOptions,
) -> (RunResult, RunResult) {
    let (prog_a, init) = mk();
    let mut store_a = Store::new(&prog_a);
    init(&prog_a, &mut store_a);
    let roots = prog_a.root_regions();
    let spmd_a = control_replicate(prog_a, &CrOptions::new(ns)).unwrap();
    let plain = run(
        Compiled::Spmd(&spmd_a),
        &mut store_a,
        &RunOptions::default(),
    );

    let (prog_b, init) = mk();
    let mut store_b = Store::new(&prog_b);
    init(&prog_b, &mut store_b);
    let spmd_b = control_replicate(prog_b, &CrOptions::new(ns)).unwrap();
    let resilient = run(
        Compiled::Spmd(&spmd_b),
        &mut store_b,
        &RunOptions::default().with_resilience(opts.clone()),
    );

    assert_eq!(plain.env, resilient.env, "scalar env diverged (ns={ns})");
    // Useful-work stats exclude replays, so they too must match the
    // fault-free run exactly.
    assert_eq!(plain.stats.tasks_executed, resilient.stats.tasks_executed);
    assert_eq!(plain.stats.copies_executed, resilient.stats.copies_executed);
    assert_eq!(plain.stats.messages_sent, resilient.stats.messages_sent);
    assert_eq!(plain.stats.elements_sent, resilient.stats.elements_sent);
    assert_eq!(plain.stats.collectives, resilient.stats.collectives);
    for root in roots {
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
                            "field {:?} at {:?}: plain={a} recovered={b} (ns={ns})",
                            def.name,
                            pt
                        );
                    }
                    FieldType::I64 => {
                        assert_eq!(ia.read_i64(fid, pt), ib.read_i64(fid, pt));
                    }
                }
            }
        }
    }
    (plain, resilient)
}

#[test]
fn crash_recovery_is_bit_identical_stencil() {
    for ns in [2, 3, 4] {
        let opts = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::new(9).crash_shard(1 % ns as u32, 3),
            ..Default::default()
        };
        let (_, res) = assert_recovery_bit_identical(|| stencil_program(48, 6, 6), ns, &opts);
        // Crash at epoch 3, snapshots at 0 and 2 ⇒ replay epochs 2..3.
        let per = &res.per_shard[0];
        assert_eq!(per.restores, 1, "ns={ns}");
        assert_eq!(per.epochs_replayed, 1, "ns={ns}");
        assert!(per.checkpoints >= 2, "ns={ns}");
    }
}

#[test]
fn crash_recovery_without_periodic_checkpoints_replays_from_start() {
    // interval 0: only the mandatory epoch-0 snapshot exists, so a
    // crash at epoch 4 replays all four completed epochs.
    let opts = ResilienceOptions {
        checkpoint_interval: 0,
        plan: FaultPlan::new(3).crash_shard(2, 4),
        ..Default::default()
    };
    let (_, res) = assert_recovery_bit_identical(|| stencil_program(48, 6, 6), 3, &opts);
    let per = &res.per_shard[0];
    assert_eq!(per.checkpoints, 1);
    assert_eq!(per.restores, 1);
    assert_eq!(per.epochs_replayed, 4);
}

/// A launch before the outer loop writes the image, so the loop's
/// first snapshot copies it instead of naming the fill: a crash before
/// the next snapshot must restore the rescaled state, not refill the
/// store's.
#[test]
fn refill_is_not_taken_after_a_launch_before_the_loop() {
    for epoch in 1..=3 {
        let opts = ResilienceOptions {
            checkpoint_interval: 4,
            plan: FaultPlan::new(epoch).crash_shard(1, epoch),
            ..Default::default()
        };
        let mk = || stencil_shaped(48, 6, true, &[6]);
        let (_, res) = assert_recovery_bit_identical(mk, 3, &opts);
        assert_eq!(res.per_shard[0].epochs_replayed, epoch);
    }
}

/// The second outer loop's first snapshot copies what the first loop
/// computed: a crash inside the second loop rolls back to it, not to
/// the fill.
#[test]
fn refill_is_not_taken_at_a_second_outer_loop() {
    // Loop one runs epochs 0–1, loop two epochs 2–5 (snapshots at 2
    // and 4).
    for epoch in [3, 5] {
        let opts = ResilienceOptions {
            checkpoint_interval: 4,
            plan: FaultPlan::new(epoch).crash_shard(2, epoch),
            ..Default::default()
        };
        let mk = || stencil_shaped(48, 6, false, &[2, 4]);
        let (_, res) = assert_recovery_bit_identical(mk, 3, &opts);
        assert_eq!(res.per_shard[0].restores, 1);
        assert_eq!(res.per_shard[0].epochs_replayed, 1);
    }
}

#[test]
fn multiple_crashes_recover() {
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(11)
            .crash_shard(0, 1)
            .crash_shard(3, 3)
            .crash_shard(1, 5),
        ..Default::default()
    };
    let (_, res) = assert_recovery_bit_identical(|| stencil_program(64, 8, 7), 4, &opts);
    assert_eq!(res.per_shard[0].restores, 3);
}

#[test]
fn crash_recovery_while_loop_with_collective() {
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(5).crash_shard(1, 3),
        ..Default::default()
    };
    let (plain, res) = assert_recovery_bit_identical(|| while_program(40, 5), 3, &opts);
    // Replayed epochs re-ran their collectives (synchronization still
    // happens) without inflating the useful-work counter.
    assert_eq!(res.stats.collectives, plain.stats.collectives);
    assert!(res.per_shard[0].epochs_replayed > 0);
}

#[test]
fn crash_beyond_program_never_fires() {
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(1).crash_shard(0, 1000),
        ..Default::default()
    };
    let (plain, res) = assert_recovery_bit_identical(|| stencil_program(48, 6, 4), 3, &opts);
    assert_eq!(res.per_shard[0].restores, 0);
    assert_eq!(plain.stats.tasks_executed, res.stats.tasks_executed);
}

#[test]
fn seeded_crash_plans_recover_across_seeds() {
    // The CI smoke path: any REGENT_FAULT_SEED-derived plan must
    // recover bit-identically. Sweep a few seeds directly (the env
    // variable itself is process-global, so tests inject the plan).
    for seed in [1u64, 7, 42, 1234] {
        let opts = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::seeded_crash(seed, 4, 4),
            ..Default::default()
        };
        assert_recovery_bit_identical(|| stencil_program(48, 4, 6), 4, &opts);
    }
}

#[test]
fn panicking_shard_fails_fast_with_diagnostic() {
    // Satellite regression: one shard's kernel dies mid-run; the peers
    // are blocked in copy receives and collectives. The run must fail
    // within bounded time (poisoned primitives + disconnected
    // channels), not hang, and the panic must name the failed shard.
    let t0 = std::time::Instant::now();
    let handle = std::thread::spawn(|| {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let y = fs.lookup("y").unwrap();
        let n = 32u64;
        let parts = 4usize;
        let r = b.forest.create_region(Domain::range(n), fs);
        let p = ops::block(&mut b.forest, r, parts);
        let halo = ops::image(&mut b.forest, r, p, move |pt, sink| {
            sink.push(DynPoint::from((pt.coord(0) + 1).rem_euclid(n as i64)));
        });
        let bad = b.task(TaskDecl {
            name: "bad".into(),
            params: vec![RegionParam::read_write(&[y]), RegionParam::read(&[x])],
            num_scalar_args: 1,
            returns_value: true,
            kernel: Arc::new(move |ctx| {
                if ctx.scalars[0] >= 2.0 && ctx.launch_point.coord(0) == 0 {
                    panic!("kernel bug: deliberate failure for the resilience test");
                }
                let dom = ctx.domain(0).clone();
                for pt in dom.iter() {
                    let v =
                        ctx.read_f64(1, x, DynPoint::from((pt.coord(0) + 1).rem_euclid(n as i64)));
                    ctx.write_f64(0, y, pt, v + 1.0);
                }
                ctx.set_return(1.0);
            }),
        });
        let commit = b.task(TaskDecl {
            name: "commit".into(),
            params: vec![RegionParam::read_write(&[x]), RegionParam::read(&[y])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let dom = ctx.domain(0).clone();
                for pt in dom.iter() {
                    let v = ctx.read_f64(1, y, pt);
                    ctx.write_f64(0, x, pt, v);
                }
            }),
        });
        let it = b.scalar("it", 0.0);
        let acc = b.scalar("acc", 0.0);
        let l = b.for_loop(c(6.0));
        b.index_launch_full(
            bad,
            parts as u64,
            vec![RegionArg::Part(p), RegionArg::Part(halo)],
            vec![var(it)],
            Some((acc, ReductionOp::Add)),
        );
        b.index_launch(
            commit,
            parts as u64,
            vec![RegionArg::Part(p), RegionArg::Part(p)],
        );
        b.set_scalar(it, var(it).add(c(1.0)));
        b.end(l);
        let prog = b.build();
        let mut store = Store::new(&prog);
        store.fill_f64(&prog, RegionId(0), x, |pt| pt.coord(0) as f64);
        let spmd = control_replicate(prog, &CrOptions::new(parts)).unwrap();
        run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());
    });
    let err = handle.join().expect_err("run should fail, not hang");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("shard 0 panicked"),
        "diagnostic should name the failed shard: {msg}"
    );
    assert!(
        msg.contains("deliberate failure"),
        "diagnostic should carry the original payload: {msg}"
    );
    // Far below the 30 s hang timeout: poisoning makes failure prompt.
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(20),
        "failure took {:?} — survivors likely hung",
        t0.elapsed()
    );
}

// ---------------------------------------------------------------------
// Integrity layer: silent-data-corruption injection, detection, and
// repair (exchange retransmission) or escalation (resident rollback).

#[test]
fn exchange_corruption_detected_and_repaired_bit_identical() {
    // Several seeds at a rate high enough to corrupt real frames: the
    // receive-side checksum must catch every injected flip, repair via
    // the producer's proactive retransmissions, and leave the results
    // bit-identical to a fault-free run.
    let mut any_detected = false;
    for seed in [3u64, 11, 29] {
        let opts = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::new(seed).with_corrupt_rate(0.05),
            ..Default::default()
        };
        let (_, res) = assert_recovery_bit_identical(|| stencil_program(48, 6, 8), 3, &opts);
        let s = &res.stats;
        assert_eq!(
            s.corruptions_injected, s.corruptions_detected,
            "every injected corruption must be detected and vice versa (seed={seed})"
        );
        if s.corruptions_detected > 0 {
            any_detected = true;
            assert!(
                s.corruptions_repaired + s.corruptions_escalated > 0,
                "detections without repair or escalation (seed={seed})"
            );
        }
    }
    assert!(any_detected, "rate 0.05 never fired across three seeds");
}

#[test]
fn resident_corruption_escalates_to_coordinated_rollback() {
    // Golden stream (see regent-fault): plan seed 11 at rate 0.25 over
    // 4 shards schedules a resident corruption at epoch 1 (victim
    // shard 2) — within a 6-epoch run. The victim must detect the seal
    // mismatch and every shard must roll back together.
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(11).with_corrupt_rate(0.25),
        ..Default::default()
    };
    let (_, res) = assert_recovery_bit_identical(|| stencil_program(64, 8, 6), 4, &opts);
    assert_eq!(
        res.stats.corruptions_escalated, 1,
        "exactly one resident corruption is scheduled within 6 epochs"
    );
    for (shard, per) in res.per_shard.iter().enumerate() {
        assert!(
            per.restores >= 1,
            "shard {shard} did not take part in the coordinated rollback"
        );
    }
    assert_eq!(
        res.stats.corruptions_injected,
        res.stats.corruptions_detected
    );
}

#[test]
fn collective_corruption_repairs_through_while_loop() {
    // The While program reduces a scalar every epoch: corrupted
    // collective frames must be rejected before the fold and
    // re-produced, keeping the replicated scalar environment (and the
    // loop trip count) bit-identical.
    for seed in [7u64, 13] {
        let opts = ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::new(seed).with_corrupt_rate(0.2),
            ..Default::default()
        };
        let (_, res) = assert_recovery_bit_identical(|| while_program(40, 5), 3, &opts);
        assert_eq!(
            res.stats.corruptions_injected,
            res.stats.corruptions_detected
        );
    }
}

#[test]
fn corruption_composes_with_crash_recovery() {
    // Crashes and corruption from one plan: rollbacks triggered by
    // either cause must compose into a bit-identical recovery.
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(11).with_corrupt_rate(0.1).crash_shard(1, 3),
        ..Default::default()
    };
    let (_, res) = assert_recovery_bit_identical(|| stencil_program(48, 6, 8), 3, &opts);
    assert!(res.stats.restores >= 3, "crash restores on every shard");
}

#[test]
fn integrity_at_rate_zero_is_pure_overhead() {
    // integrity=true with corrupt_rate 0: seals, framing, and the
    // epoch-boundary verification sweep all run (this is the overhead
    // configuration EXPERIMENTS.md measures) but nothing fires.
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(5),
        integrity: true,
    };
    let (_, res) = assert_recovery_bit_identical(|| stencil_program(48, 6, 6), 3, &opts);
    assert_eq!(res.stats.corruptions_injected, 0);
    assert_eq!(res.stats.corruptions_detected, 0);
    assert_eq!(res.stats.restores, 0);
}

#[test]
fn corruption_trace_is_coherent_and_spy_certified() {
    // The traced corruption run must carry CorruptDetected marks whose
    // repairs/escalations balance (integrity_summary::coherent), and
    // the Spy must certify the repaired execution's happens-before
    // graph like any other.
    let (prog, init) = stencil_program(64, 8, 6);
    let mut store = Store::new(&prog);
    init(&prog, &mut store);
    let spmd = control_replicate(prog, &CrOptions::new(4)).unwrap();
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(11).with_corrupt_rate(0.25),
        ..Default::default()
    };
    let tracer = Tracer::enabled();
    let res = run(
        Compiled::Spmd(&spmd),
        &mut store,
        &RunOptions::traced(&tracer).with_resilience(opts.clone()),
    );
    let trace = tracer.take();

    let s = integrity_summary(&trace);
    assert!(s.detected > 0, "no corruption events in the trace");
    assert!(s.coherent(), "incoherent integrity summary: {s:?}");
    assert_eq!(s.detected, res.stats.corruptions_detected);
    assert_eq!(s.escalated, res.stats.corruptions_escalated);

    let oracle = ForestOracle::new(&spmd.forest);
    let report = validate(&trace, &oracle).expect("structurally valid corrupted-run log");
    assert!(
        report.ok(),
        "spy violations on repaired trace:\n{:?}",
        report.violations
    );
    assert!(report.certified > 0, "no dependences were exercised");
}
