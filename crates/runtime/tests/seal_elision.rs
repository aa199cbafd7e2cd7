//! A write point re-seals only when a check can read the seal before
//! the next iteration retakes it: the epochs of the program's last
//! outermost loop, when its body is flat, skip their re-seals unless
//! the next boundary sweeps. Each case pins the count of column seals a
//! guarded run takes and checks its results against a plain run bit for
//! bit; every sweep it passes fail-stops on an unsealed column. Counted
//! through the always-on metrics registry, which is process-global: the
//! tests of this binary take turns, and each counts what its run adds.

use regent_cr::{control_replicate, CrOptions};
use regent_geometry::{Domain, DynPoint};
use regent_ir::expr::{c, var};
use regent_ir::{
    IndexLaunch, Program, ProgramBuilder, RegionArg, RegionParam, Stmt, Store, TaskDecl,
};
use regent_region::{ops, FieldSpace, FieldType, RegionId};
use regent_runtime::{metrics, run, Compiled, Counter, ResilienceOptions, RunOptions};
use std::sync::{Arc, Mutex};

const N: u64 = 64;
const PARTS: usize = 4;

/// Serializes the tests of this binary around the global registry.
static REGISTRY: Mutex<()> = Mutex::new(());

/// How the test program's outermost loops hold its two launches.
enum Shape {
    /// `for 3 { body }` then `for 3 { body }`.
    TwoLoops,
    /// `for 4 { if 1 < 2 { body } }`.
    IfBody,
    /// `while k < 7 { body; k = k + 1 }`.
    While,
}

/// A 1-D stencil: `sweep` reads x through a halo partition and writes y,
/// `commit` copies y back into x, so every epoch writes both columns of
/// each block and refreshes the halo with a copy.
fn program(shape: Shape) -> Program {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let y = fs.lookup("y").unwrap();
    let r = b.forest.create_region(Domain::range(N), fs);
    let p = ops::block(&mut b.forest, r, PARTS);
    let halo = ops::image(&mut b.forest, r, p, move |pt, sink| {
        let i = pt.coord(0);
        sink.push(DynPoint::from((i - 1).rem_euclid(N as i64)));
        sink.push(DynPoint::from((i + 1).rem_euclid(N as i64)));
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
                let l = ctx.read_f64(1, x, DynPoint::from((i - 1).rem_euclid(N as i64)));
                let rr = ctx.read_f64(1, x, DynPoint::from((i + 1).rem_euclid(N as i64)));
                ctx.write_f64(0, y, pt, 0.5 * (l + rr) + 0.25);
            }
        }),
        cost_per_element: 1.0,
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
        cost_per_element: 1.0,
    });
    let body = [
        (sweep, vec![RegionArg::Part(p), RegionArg::Part(halo)]),
        (commit, vec![RegionArg::Part(p), RegionArg::Part(p)]),
    ];
    let flat = |b: &mut ProgramBuilder| {
        for (task, args) in body.clone() {
            b.index_launch(task, PARTS as u64, args);
        }
    };
    match shape {
        Shape::TwoLoops => {
            for _ in 0..2 {
                let l = b.for_loop(c(3.0));
                flat(&mut b);
                b.end(l);
            }
        }
        Shape::IfBody => {
            let launches = body.clone().map(|(task, args)| {
                Stmt::IndexLaunch(IndexLaunch {
                    task,
                    launch_domain: (0..PARTS as i64).map(DynPoint::from).collect(),
                    args,
                    scalar_args: vec![],
                    reduce_result: None,
                })
            });
            let l = b.for_loop(c(4.0));
            b.push_if(c(1.0).lt(c(2.0)), launches.into(), vec![]);
            b.end(l);
        }
        Shape::While => {
            let k = b.scalar("k", 0.0);
            let l = b.while_loop(var(k).lt(c(7.0)));
            flat(&mut b);
            b.set_scalar(k, var(k).add(c(1.0)));
            b.end(l);
        }
    }
    b.build()
}

/// What a guarded run of `shape` at `checkpoint_interval` did.
struct Counted {
    /// Column seals taken at write points.
    seals: u64,
    /// The seals one epoch's write points take.
    per_epoch: u64,
    /// Outermost-loop epochs run.
    epochs: u64,
}

/// Runs `shape` plain and guarded at `checkpoint_interval`, checks the
/// two runs agree bit for bit, and counts the guarded run's seals.
fn guarded(shape: fn() -> Program, checkpoint_interval: u64) -> Counted {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let x = regent_region::FieldId(0);
    let fresh = || {
        let prog = shape();
        let mut store = Store::new(&prog);
        store.fill_f64(&prog, RegionId(0), x, |pt| ((pt.coord(0) * 7) % 11) as f64);
        (control_replicate(prog, &CrOptions::new(2)).unwrap(), store)
    };
    let (plain, mut want) = fresh();
    let explicit = RunOptions::default().with_resilience(ResilienceOptions::default());
    let reference = run(Compiled::Spmd(&plain), &mut want, &explicit);

    let (spmd, mut got) = fresh();
    let registry = metrics::global();
    let before = registry.aggregate().get(Counter::ColumnSeals);
    let opts = RunOptions::default().with_resilience(ResilienceOptions {
        checkpoint_interval,
        integrity: true,
        ..Default::default()
    });
    let res = run(Compiled::Spmd(&spmd), &mut got, &opts);
    let seals = registry.aggregate().get(Counter::ColumnSeals) - before;

    assert_eq!(reference.env, res.env);
    let root = RegionId(0);
    let a = want.instance_in(&plain.forest, root);
    let b = got.instance_in(&spmd.forest, root);
    for (f, _) in spmd.forest.fields(root).iter() {
        let bits = |col: &[f64]| col.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(a.f64_col(f)),
            bits(b.f64_col(f)),
            "field {f:?} differs"
        );
    }
    // Two shards count each statement; each launch writes one column
    // of every block, each copy one column of every halo instance.
    let epochs = res.stats.tasks_executed / (2 * PARTS as u64);
    let copies = res.stats.copies_executed / 2;
    assert_eq!(copies % epochs, 0, "{copies} copies over {epochs} epochs");
    let per_epoch = 2 * PARTS as u64 + PARTS as u64 * (copies / epochs);
    Counted {
        seals,
        per_epoch,
        epochs,
    }
}

#[test]
fn the_loop_before_another_reseals_every_epoch() {
    // Interval 0: only the first boundary of each loop sweeps. The
    // first loop feeds the second loop's first sweep, so all three of
    // its epochs re-seal; the second loop is the last and skips all.
    let two = guarded(|| program(Shape::TwoLoops), 0);
    assert_eq!(two.epochs, 6);
    assert_eq!(two.seals, 3 * two.per_epoch);
}

#[test]
fn a_body_holding_an_if_elides_nothing() {
    let branchy = guarded(|| program(Shape::IfBody), 0);
    assert_eq!(branchy.epochs, 4);
    assert_eq!(branchy.seals, 4 * branchy.per_epoch);
}

#[test]
fn a_while_loop_reseals_before_each_due_boundary() {
    // Seven epochs (0..=6) at interval 3: the boundaries of epochs 3
    // and 6 sweep, so epochs 2 and 5 re-seal. A `while` may always go
    // on, but no boundary after epoch 6 would sweep.
    let w = guarded(|| program(Shape::While), 3);
    assert_eq!(w.epochs, 7);
    assert_eq!(w.seals, 2 * w.per_epoch);
    // Every boundary sweeps at interval 1, so every epoch re-seals, the
    // last one too: the `while` might go on into epoch 7.
    let every = guarded(|| program(Shape::While), 1);
    assert_eq!(every.seals, 7 * every.per_epoch);
}
