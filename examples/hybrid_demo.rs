//! Hybrid demo: control replication as a *local* transformation (§2.2).
//!
//! A program with a non-replicable global pass between two replicable
//! simulation loops runs hybrid: the loops execute as SPMD shards, the
//! global pass sequentially, with region data and scalars threading
//! through every segment.
//!
//! ```text
//! cargo run --release --example hybrid_demo
//! ```

use control_replication::cr::{replicate_ranges, CrOptions, Segment};
use control_replication::geometry::Domain;
use control_replication::ir::{
    expr::{c, var},
    interp, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl,
};
use control_replication::region::{ops, FieldSpace, FieldType, RegionId};
use control_replication::runtime::{run, Compiled, RunOptions};
use std::sync::Arc;

const N: u64 = 4096;
const PARTS: u64 = 8;

fn build() -> (control_replication::ir::Program, regent_region::FieldId) {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(N), fs);
    let p = ops::block(&mut b.forest, r, PARTS as usize);
    let diffuse = b.task(TaskDecl {
        name: "diffuse".into(),
        params: vec![RegionParam::read_write(&[x])],
        num_scalar_args: 1,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let s = ctx.scalars[0];
            let dom = ctx.domain(0).clone();
            for q in dom.iter() {
                let v = ctx.read_f64(0, x, q);
                ctx.write_f64(0, x, q, v * (1.0 - s) + s * (q.coord(0) % 17) as f64);
            }
        }),
    });
    // A global pass no index launch can express: sorts nothing, but
    // computes a whole-region norm and rescales — inherently single.
    let normalize = b.task(TaskDecl {
        name: "global_normalize".into(),
        params: vec![RegionParam::read_write(&[x])],
        num_scalar_args: 0,
        returns_value: true,
        kernel: Arc::new(move |ctx| {
            let dom = ctx.domain(0).clone();
            let mut norm = 0.0;
            for q in dom.iter() {
                let v = ctx.read_f64(0, x, q);
                norm += v * v;
            }
            let norm = norm.sqrt().max(1e-12);
            for q in dom.iter() {
                let v = ctx.read_f64(0, x, q);
                ctx.write_f64(0, x, q, v / norm);
            }
            ctx.set_return(norm);
        }),
    });
    let rate = b.scalar("rate", 0.25);
    let norm = b.scalar("norm", 0.0);
    // Replicable range 1: five diffusion steps.
    let l = b.for_loop(c(5.0));
    b.index_launch_full(
        diffuse,
        PARTS,
        vec![RegionArg::Part(p)],
        vec![var(rate)],
        None,
    );
    b.end(l);
    // Sequential global pass.
    b.call_full(normalize, vec![r], vec![], Some(norm));
    // Replicable range 2: three more steps with a rate derived from the
    // sequentially-computed norm.
    b.set_scalar(rate, c(1.0).add(var(norm)).mul(c(1e-4)));
    let l = b.for_loop(c(3.0));
    b.index_launch_full(
        diffuse,
        PARTS,
        vec![RegionArg::Part(p)],
        vec![var(rate)],
        None,
    );
    b.end(l);
    (b.build(), x)
}

fn main() {
    // Sequential reference.
    let (prog, x) = build();
    let mut seq = Store::new(&prog);
    seq.fill_f64(&prog, RegionId(0), x, |q| (q.coord(0) % 13) as f64);
    let (seq_env, _) = interp::run(&prog, &mut seq);

    // Hybrid execution.
    let (prog2, x2) = build();
    let mut store = Store::new(&prog2);
    store.fill_f64(&prog2, RegionId(0), x2, |q| (q.coord(0) % 13) as f64);
    let hybrid = replicate_ranges(prog2, &CrOptions::new(4)).expect("hybrid CR");
    println!("program split into {} segments:", hybrid.segments.len());
    for (i, s) in hybrid.segments.iter().enumerate() {
        match s {
            Segment::Replicated(spmd) => println!(
                "  #{i}: SPMD ({} shards, {} copies, {} uses)",
                spmd.num_shards,
                spmd.count_copies(),
                spmd.uses.len()
            ),
            Segment::Sequential(stmts) => {
                println!("  #{i}: sequential ({} stmt(s))", stmts.len())
            }
        }
    }
    let result = run(
        Compiled::Hybrid(&hybrid),
        &mut store,
        &RunOptions::default(),
    );
    println!(
        "ran {} replicated segments ({} SPMD tasks, {} msgs) and {} sequential task(s)",
        result.replicated_segments,
        result.stats.tasks_executed,
        result.stats.messages_sent,
        result.sequential_tasks
    );
    assert_eq!(seq_env, result.env);
    let a = seq.instance(&prog, RegionId(0));
    let b = store.instance(&hybrid.base, RegionId(0));
    for q in prog.forest.domain(RegionId(0)).iter() {
        assert_eq!(a.read_f64(x, q), b.read_f64(x, q));
    }
    println!(
        "norm computed sequentially = {:.4}; hybrid result bit-identical to sequential ✓",
        result.env[1]
    );
}
