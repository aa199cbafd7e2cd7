//! Quickstart: the paper's running example (Fig. 2) end to end.
//!
//! Builds an implicitly parallel program with two regions, a block
//! partition of each, and an image partition capturing an arbitrary
//! access function `h`; control-replicates it; executes it on the
//! multithreaded SPMD runtime; and checks the result against the
//! sequential interpreter.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use control_replication::cr::{control_replicate, CrOptions};
use control_replication::geometry::{Domain, DynPoint};
use control_replication::ir::{
    expr::c, interp, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl,
};
use control_replication::region::{ops, FieldSpace, FieldType, RegionId};
use control_replication::runtime::{run, Compiled, RunOptions};
use std::sync::Arc;

const N: u64 = 1 << 16; // elements per region
const NT: u64 = 16; // launch points ("tiles")
const STEPS: u64 = 10;

fn main() {
    let h = |i: i64| (i * 31 + 7).rem_euclid(N as i64);
    let fa = control_replication::region::FieldId(0);

    // --- Sequential reference ------------------------------------------
    let init = |prog: &control_replication::ir::Program, store: &mut Store| {
        store.fill_f64(prog, RegionId(0), fa, |p| (p.coord(0) % 97) as f64);
    };
    let prog_seq = build_program(h);
    let mut seq_store = Store::new(&prog_seq);
    init(&prog_seq, &mut seq_store);
    let t0 = std::time::Instant::now();
    interp::run(&prog_seq, &mut seq_store);
    let t_seq = t0.elapsed();

    // --- Control replication + SPMD execution --------------------------
    // (The transform consumes its input program, so build a second one.)
    let shards = std::thread::available_parallelism().map_or(4, |v| v.get().clamp(2, 8));
    println!("control-replicating for {shards} shards…");
    let rebuilt = build_program(h);
    let mut cr_store = Store::new(&rebuilt);
    init(&rebuilt, &mut cr_store);
    let spmd = control_replicate(rebuilt, &CrOptions::new(shards)).expect("CR failed");
    println!(
        "  inserted {} coherence copies, proved {} pairs disjoint",
        spmd.stats.copies_inserted, spmd.stats.pairs_proven_disjoint,
    );
    let t1 = std::time::Instant::now();
    let result = run(Compiled::Spmd(&spmd), &mut cr_store, &RunOptions::default());
    let t_cr = t1.elapsed();
    println!(
        "  shallow intersections: {:.2} ms, complete: {:.2} ms, {} exchange pairs",
        result.setup.shallow_seconds * 1e3,
        result.setup.complete_seconds * 1e3,
        result.setup.num_pairs
    );
    println!(
        "  {} point tasks executed, {} cross-shard messages, {} elements moved",
        result.stats.tasks_executed, result.stats.messages_sent, result.stats.elements_sent
    );

    // --- Verify ----------------------------------------------------------
    let seq_inst = seq_store.instance(&prog_seq, RegionId(0));
    let cr_inst = cr_store.instance_in(&spmd.forest, RegionId(0));
    let mut checked = 0u64;
    for p in prog_seq.forest.domain(RegionId(0)).iter() {
        assert_eq!(
            seq_inst.read_f64(fa, p),
            cr_inst.read_f64(fa, p),
            "mismatch at {p:?}"
        );
        checked += 1;
    }
    println!(
        "verified {checked} elements bit-identical to sequential semantics \
         (seq {t_seq:.2?}, SPMD {t_cr:.2?})"
    );
}

/// Builds the Fig. 2 program around the access function `h`.
fn build_program(
    h: impl Fn(i64) -> i64 + Copy + Send + Sync + 'static,
) -> control_replication::ir::Program {
    let mut b = ProgramBuilder::new();
    let fs_a = FieldSpace::of(&[("a", FieldType::F64)]);
    let fa = fs_a.lookup("a").unwrap();
    let fs_b = FieldSpace::of(&[("b", FieldType::F64)]);
    let fb = fs_b.lookup("b").unwrap();
    let ra = b.forest.create_region(Domain::range(N), fs_a);
    let rb = b.forest.create_region(Domain::range(N), fs_b);
    let pa = ops::block(&mut b.forest, ra, NT as usize);
    let pb = ops::block(&mut b.forest, rb, NT as usize);
    let qb = ops::image(&mut b.forest, rb, pa, move |p, sink| {
        sink.push(DynPoint::from(h(p.coord(0))));
    });
    let tf = b.task(TaskDecl {
        name: "TF".into(),
        params: vec![RegionParam::read_write(&[fb]), RegionParam::read(&[fa])],
        num_scalar_args: 0,
        returns_value: false,
        // Kernels bind each field once — privilege, declared field and
        // column type are checked here — and then index the views.
        // Both arguments cover the same ids, so each unit-stride run of
        // argument 0 is a plain slice of either field.
        kernel: Arc::new(move |ctx| {
            let (out, vin) = (ctx.f64_mut(0, fb), ctx.f64(1, fa));
            for run in ctx.rows(0) {
                let (out, vin) = (out.row(run), vin.row(run));
                for k in 0..run.len {
                    out.set(k, 0.5 * vin.get(k) + 1.0);
                }
            }
        }),
    });
    let tg = b.task(TaskDecl {
        name: "TG".into(),
        params: vec![RegionParam::read_write(&[fa]), RegionParam::read(&[fb])],
        num_scalar_args: 0,
        returns_value: false,
        // Argument 1 is the image of `h`: a sparse set of ids, read by
        // coordinate (`get1`) wherever `h` points.
        kernel: Arc::new(move |ctx| {
            let (out, vin) = (ctx.f64_mut(0, fa), ctx.f64(1, fb));
            for run in ctx.rows(0) {
                let out = out.row(run);
                let first = run.start.coord(0);
                for k in 0..run.len {
                    out.set(k, 0.9 * vin.get1(h(first + k as i64)));
                }
            }
        }),
    });
    let l = b.for_loop(c(STEPS as f64));
    b.index_launch(tf, NT, vec![RegionArg::Part(pb), RegionArg::Part(pa)]);
    b.index_launch(tg, NT, vec![RegionArg::Part(pa), RegionArg::Part(qb)]);
    b.end(l);
    b.build()
}
