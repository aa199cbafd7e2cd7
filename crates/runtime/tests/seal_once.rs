//! The integrity layer re-seals what a copy statement wrote once per
//! destination instance, after the statement's last pair — not once
//! per pair. Counted through the always-on metrics registry, which is
//! process-global: this binary holds the one test that reads it.

use regent_cr::{control_replicate, CrOptions};
use regent_geometry::{Domain, DynPoint};
use regent_ir::{expr::c, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl};
use regent_region::{ops, FieldSpace, FieldType, RegionId};
use regent_runtime::{metrics, run, Compiled, Counter, ResilienceOptions, RunOptions, Timer};
use std::sync::Arc;

#[test]
fn a_copy_statement_hashes_each_destination_column_once() {
    const N: u64 = 64;
    const PARTS: usize = 4;
    const STEPS: u64 = 3;
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let y = fs.lookup("y").unwrap();
    let r = b.forest.create_region(Domain::range(N), fs);
    let p = ops::block(&mut b.forest, r, PARTS);
    // Each halo subregion is its block's two outer neighbours, which
    // live in two different blocks: two pairs into one instance.
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
                ctx.write_f64(0, y, pt, 0.5 * (l + rr));
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
    let l = b.for_loop(c(STEPS as f64));
    b.index_launch(
        sweep,
        PARTS as u64,
        vec![RegionArg::Part(p), RegionArg::Part(halo)],
    );
    b.index_launch(
        commit,
        PARTS as u64,
        vec![RegionArg::Part(p), RegionArg::Part(p)],
    );
    b.end(l);
    let prog = b.build();
    let mut store = Store::new(&prog);
    store.fill_f64(&prog, RegionId(0), x, |pt| ((pt.coord(0) * 7) % 11) as f64);
    let spmd = control_replicate(prog, &CrOptions::new(2)).unwrap();

    let registry = metrics::global();
    registry.reset();
    let guarded = ResilienceOptions {
        integrity: true,
        ..Default::default()
    };
    let res = run(
        Compiled::Spmd(&spmd),
        &mut store,
        &RunOptions::default().with_resilience(guarded),
    );
    let m = registry.aggregate();

    let copies = res.stats.copies_executed / 2; // each shard counts each statement
    let pairs_applied = m.get(Counter::CopiesApplied);
    assert!(
        pairs_applied >= 2 * PARTS as u64 * copies,
        "every halo instance takes two pairs per statement \
         ({pairs_applied} applied over {copies} statements)"
    );
    // Per step: `sweep` re-seals y and `commit` re-seals x on each of
    // the PARTS blocks, and each copy statement re-seals x on each of
    // the PARTS halo instances — once each, though two pairs wrote it.
    let launches = 2 * PARTS as u64 * STEPS;
    assert_eq!(
        m.get(Counter::ColumnSeals),
        launches + PARTS as u64 * copies,
        "{copies} copy statements, {pairs_applied} pairs applied"
    );
    // One integrity bracket per launch and per copy statement's
    // consumer phase on each shard, one per producer phase that framed
    // something, one per verified frame, and the boundary sweeps:
    // far fewer than one per pair and per frame end.
    let brackets = m.timer(Timer::IntegrityNs).count;
    assert!(
        brackets <= 2 * (2 * STEPS + 2 * copies) + res.stats.messages_sent + 2 * (STEPS + 1),
        "{brackets} integrity brackets"
    );
}
