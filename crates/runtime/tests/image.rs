//! The shard-image pool (`regent_cr::image`): a compiled program keeps
//! one image per shard between runs, a run takes its shard's image or
//! builds one, and only a team that joined cleanly puts them back.
//! Counted through the always-on metrics registry, which is
//! process-global: the tests of this binary take turns.

use regent_cr::{control_replicate, CrOptions, SpmdProgram};
use regent_geometry::{Domain, DynPoint};
use regent_ir::expr::{c, var};
use regent_ir::{
    ArgSlot, Privilege, ProgramBuilder, RegionArg, RegionParam, Store, TaskCtx, TaskDecl,
};
use regent_region::{ops, FieldSpace, FieldType, Instance, ReductionOp, RegionId};
use regent_runtime::{metrics, run, Compiled, Counter, RunOptions, Timer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

static TURN: Mutex<()> = Mutex::new(());

const N: u64 = 48;
const PARTS: usize = 4;
const SHARDS: usize = 2;

/// What the `sweep` kernel of [`program`] does at point 0 from the
/// second step on.
const BEHAVE: u8 = 0;
const PANIC: u8 = 1;
/// Bind `y` through the halo argument, which declares only `x`.
const BIND_UNDECLARED: u8 = 2;

/// A two-field halo sweep over six steps with a scalar reduction, whose
/// first kernel misbehaves on demand (`mode`).
fn program(mode: &Arc<AtomicU8>) -> (SpmdProgram, Store) {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let y = fs.lookup("y").unwrap();
    let r = b.forest.create_region(Domain::range(N), fs);
    let p = ops::block(&mut b.forest, r, PARTS);
    let halo = ops::image(&mut b.forest, r, p, move |pt, sink| {
        sink.push(DynPoint::from((pt.coord(0) + 1).rem_euclid(N as i64)));
    });
    let mode = Arc::clone(mode);
    let sweep = b.task(TaskDecl {
        name: "sweep".into(),
        params: vec![RegionParam::read_write(&[y]), RegionParam::read(&[x])],
        num_scalar_args: 1,
        returns_value: true,
        kernel: Arc::new(move |ctx| {
            if ctx.scalars[0] >= 1.0 && ctx.launch_point.coord(0) == 0 {
                match mode.load(Ordering::SeqCst) {
                    PANIC => panic!("kernel bug: deliberate failure for the image test"),
                    BIND_UNDECLARED => {
                        let _ = ctx.f64(1, y);
                    }
                    _ => {}
                }
            }
            let (next, out) = (ctx.f64(1, x), ctx.f64_mut(0, y));
            let mut sum = 0.0;
            for pt in ctx.domain(0).iter() {
                let i = pt.coord(0);
                let v = next.get1((i + 1).rem_euclid(N as i64)) + 1.0;
                out.set1(i, v);
                sum += v;
            }
            ctx.set_return(sum);
        }),
        cost_per_element: 1.0,
    });
    let commit = b.task(TaskDecl {
        name: "commit".into(),
        params: vec![RegionParam::read_write(&[x]), RegionParam::read(&[y])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let (from, to) = (ctx.f64(1, y), ctx.f64_mut(0, x));
            for pt in ctx.domain(0).iter() {
                to.set1(pt.coord(0), from.get1(pt.coord(0)));
            }
        }),
        cost_per_element: 1.0,
    });
    let it = b.scalar("it", 0.0);
    let acc = b.scalar("acc", 0.0);
    let l = b.for_loop(c(6.0));
    b.index_launch_full(
        sweep,
        PARTS as u64,
        vec![RegionArg::Part(p), RegionArg::Part(halo)],
        vec![var(it)],
        Some((acc, ReductionOp::Add)),
    );
    b.index_launch(
        commit,
        PARTS as u64,
        vec![RegionArg::Part(p), RegionArg::Part(p)],
    );
    b.set_scalar(it, var(it).add(c(1.0)));
    b.end(l);
    let prog = b.build();
    let mut store = Store::new(&prog);
    store.fill_f64(&prog, RegionId(0), x, |pt| ((pt.coord(0) * 5) % 13) as f64);
    let spmd = control_replicate(prog, &CrOptions::new(SHARDS)).unwrap();
    (spmd, store)
}

/// Runs `spmd` from `store`: the scalar environment and the root
/// region's checksum.
fn digest(spmd: &SpmdProgram, mut store: Store) -> (Vec<f64>, u64) {
    let r = run(Compiled::Spmd(spmd), &mut store, &RunOptions::default());
    (
        r.env,
        store.instance_in(&spmd.forest, RegionId(0)).checksum(),
    )
}

fn counter(c: Counter) -> u64 {
    metrics::global().aggregate().get(c)
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// The pool's accounting over plain runs: built once per shard, reused
/// by every later run, filled and flushed once per shard per run.
#[test]
fn images_are_built_once_and_reused() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mode = Arc::new(AtomicU8::new(BEHAVE));
    let (spmd, _) = program(&mode);
    assert_eq!(spmd.idle_images(), 0, "no image before the first run");
    let (builds, reuses) = (counter(Counter::ImageBuilds), counter(Counter::ImageReuses));
    let timers = || {
        let all = metrics::global().aggregate();
        (
            all.timer(Timer::ImageFillNs).count,
            all.timer(Timer::ImageFlushNs).count,
        )
    };
    let (fills, flushes) = timers();
    let first = digest(&spmd, program(&mode).1);
    assert_eq!(spmd.idle_images(), SHARDS);
    for _ in 0..3 {
        assert_eq!(digest(&spmd, program(&mode).1), first);
    }
    assert_eq!(spmd.idle_images(), SHARDS);
    if metrics::global().is_enabled() {
        assert_eq!(counter(Counter::ImageBuilds) - builds, SHARDS as u64);
        assert_eq!(counter(Counter::ImageReuses) - reuses, 3 * SHARDS as u64);
        let (fills_now, flushes_now) = timers();
        assert_eq!(fills_now - fills, 4 * SHARDS as u64);
        assert_eq!(flushes_now - flushes, 4 * SHARDS as u64);
    }
}

/// (c) Two threads run one compiled program at once: the second finds
/// no idle image and builds its own (take-or-build), both verify, and
/// afterwards the pool holds exactly one image per shard.
#[test]
fn concurrent_runs_of_one_program_take_or_build() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mode = Arc::new(AtomicU8::new(BEHAVE));
    let (spmd, store) = program(&mode);
    let want = digest(&spmd, store);
    for round in 0..4 {
        let got: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let store = program(&mode).1;
                    let spmd = &spmd;
                    s.spawn(move || digest(spmd, store))
                })
                .collect();
            runs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got, [want.clone(), want.clone()], "round {round}");
        assert_eq!(spmd.idle_images(), SHARDS, "round {round}: one a shard");
    }

    // The same without depending on the scheduler: hold every idle
    // image, as a run in flight does, and run meanwhile.
    let (schedule, _) = spmd.schedule();
    let held: Vec<_> = (0..SHARDS)
        .map(|shard| spmd.take_image(&schedule.layouts[shard], shard))
        .collect();
    assert!(held.iter().all(|(_, built)| !built));
    assert_eq!(spmd.idle_images(), 0);
    let builds = counter(Counter::ImageBuilds);
    assert_eq!(digest(&spmd, program(&mode).1), want);
    if metrics::global().is_enabled() {
        assert_eq!(counter(Counter::ImageBuilds) - builds, SHARDS as u64);
    }
    for (shard, (image, _)) in held.into_iter().enumerate() {
        spmd.put_image(shard, image);
    }
    assert_eq!(spmd.idle_images(), SHARDS, "the later put is dropped");
}

/// (d) A run that panics in a kernel drops the images it took; the
/// next run of the program rebuilds them and verifies.
#[test]
fn a_panicking_run_drops_its_images_and_the_next_rebuilds() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mode = Arc::new(AtomicU8::new(BEHAVE));
    let (spmd, store) = program(&mode);
    let want = digest(&spmd, store);
    assert_eq!(spmd.idle_images(), SHARDS);

    mode.store(PANIC, Ordering::SeqCst);
    let store = program(&mode).1;
    let err = catch_unwind(AssertUnwindSafe(|| digest(&spmd, store)))
        .expect_err("the armed kernel panics");
    assert!(panic_text(err).contains("deliberate failure"));
    assert_eq!(spmd.idle_images(), 0, "an unwound team puts nothing back");

    mode.store(BEHAVE, Ordering::SeqCst);
    let builds = counter(Counter::ImageBuilds);
    assert_eq!(digest(&spmd, program(&mode).1), want);
    assert_eq!(spmd.idle_images(), SHARDS);
    if metrics::global().is_enabled() {
        assert_eq!(counter(Counter::ImageBuilds) - builds, SHARDS as u64);
    }
}

/// (f) The halo instance stores only `x`, the one field its use
/// declares. A kernel that binds `y` through it is still refused at
/// bind, by the privilege check — not later, by an index out of bounds.
#[test]
fn an_undeclared_field_fails_at_bind() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mode = Arc::new(AtomicU8::new(BIND_UNDECLARED));
    let (spmd, store) = program(&mode);
    let halo_use = spmd
        .uses
        .iter()
        .find(|u| u.fields.len() == 1)
        .expect("the halo use declares x alone");
    assert!(halo_use.reads && !halo_use.writes);
    let err = catch_unwind(AssertUnwindSafe(|| digest(&spmd, store)))
        .expect_err("binding an undeclared field panics");
    let msg = panic_text(err);
    assert!(msg.contains("undeclared field"), "{msg}");

    // The same on a bare instance built with a field subset.
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
    let (x, y) = (fs.lookup("x").unwrap(), fs.lookup("y").unwrap());
    let dom = Domain::range(8);
    let mut inst = Instance::with_fields(dom.clone(), &fs, &[x]);
    assert_eq!((inst.column(x).len(), inst.column(y).len()), (8, 0));
    let declared = [x];
    // SAFETY: `inst` outlives the context and nothing else touches it.
    let slots = [unsafe { ArgSlot::new(&dom, Privilege::ReadWrite, &declared, &mut inst) }];
    let ctx = TaskCtx::new(&slots, &[], DynPoint::from(0));
    ctx.f64_mut(0, x).set1(3, 1.5);
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = ctx.f64(0, y);
    }))
    .expect_err("y was not declared");
    assert!(panic_text(err).contains("undeclared field"));
}
