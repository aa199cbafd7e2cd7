//! Stencil demo: the PRK 2-D star stencil (§5.1 / Fig. 6 workload) run
//! three ways — sequential reference, implicitly parallel (Legion-style
//! dynamic dependence analysis), and control-replicated SPMD — with
//! results cross-checked bit-for-bit. The SPMD run is recorded with the
//! structured tracer: an ASCII timeline of the shard schedules is
//! printed and the log is certified by the Spy-style dependence
//! validator.
//!
//! ```text
//! cargo run --release --example stencil_demo [grid_side]
//! ```

use control_replication::apps::stencil::{
    init_stencil, reference_stencil, stencil_program, StencilConfig,
};
use control_replication::cr::{control_replicate, CrOptions, ForestOracle};
use control_replication::geometry::DynPoint;
use control_replication::ir::{interp, Store};
use control_replication::runtime::{execute_implicit, run, Compiled, ImplicitOptions, RunOptions};
use control_replication::trace::{ascii_timeline, validate, Tracer};
use std::time::Instant;

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("grid side"))
        .unwrap_or(256);
    let cfg = StencilConfig {
        n,
        ntx: 4,
        nty: 4,
        radius: 2,
        steps: 10,
    };
    println!(
        "PRK star stencil: {}×{} grid, radius {}, {} steps, {}×{} tiles",
        cfg.n, cfg.n, cfg.radius, cfg.steps, cfg.ntx, cfg.nty
    );

    // Sequential.
    let (prog, h) = stencil_program(cfg);
    let mut seq = Store::new(&prog);
    init_stencil(&prog, &mut seq, &h);
    let t = Instant::now();
    let (_, stats) = interp::run(&prog, &mut seq);
    println!(
        "sequential      : {:>8.1} ms  ({} point tasks)",
        t.elapsed().as_secs_f64() * 1e3,
        stats.tasks_executed
    );

    // Implicit parallel.
    let (prog_i, h_i) = stencil_program(cfg);
    let mut imp = Store::new(&prog_i);
    init_stencil(&prog_i, &mut imp, &h_i);
    let t = Instant::now();
    let (_, istats) = execute_implicit(&prog_i, &mut imp, ImplicitOptions::with_workers(4));
    println!(
        "implicit (4 wk) : {:>8.1} ms  ({} tasks, {} dependence checks, {} edges)",
        t.elapsed().as_secs_f64() * 1e3,
        istats.tasks_launched,
        istats.dependence_checks,
        istats.dependence_edges
    );

    // Control-replicated SPMD.
    let (prog_c, h_c) = stencil_program(cfg);
    let mut crs = Store::new(&prog_c);
    init_stencil(&prog_c, &mut crs, &h_c);
    let spmd = control_replicate(prog_c, &CrOptions::new(4)).expect("CR");
    let tracer = Tracer::enabled();
    let t = Instant::now();
    let r = run(
        Compiled::Spmd(&spmd),
        &mut crs,
        &RunOptions::traced(&tracer),
    );
    println!(
        "CR SPMD (4 sh)  : {:>8.1} ms  ({} tasks, {} msgs, {} halo elements)",
        t.elapsed().as_secs_f64() * 1e3,
        r.stats.tasks_executed,
        r.stats.messages_sent,
        r.stats.elements_sent
    );

    // Verify everything against the direct reference computation.
    let reference = reference_stencil(cfg);
    let insts = [
        ("sequential", &seq, &prog.forest),
        ("implicit", &imp, &prog_i.forest),
        ("CR", &crs, &spmd.forest),
    ];
    for (name, store, forest) in insts {
        let inst = store.instance_in(forest, h.grid);
        for i in 0..cfg.n as i64 {
            for j in 0..cfg.n as i64 {
                let got = inst.read_f64(h.f_out, DynPoint::new(&[i, j]));
                let want = reference[i as usize][j as usize].1;
                assert!(
                    (got - want).abs() < 1e-11,
                    "{name} wrong at ({i},{j}): {got} vs {want}"
                );
            }
        }
    }
    println!("all three executions match the direct reference ✓");

    // The recorded SPMD schedule, and its certification: every
    // conflicting access pair must be ordered by program order or a
    // delivered copy (§3.4).
    let trace = tracer.take();
    println!("\n--- shard timeline ({} events) ---", trace.num_events());
    print!("{}", ascii_timeline(&trace, 72));
    let report = validate(&trace, &ForestOracle::new(&spmd.forest)).expect("well-formed log");
    println!("{}", report.summary());
    assert!(report.ok(), "spy violations: {:?}", report.violations);
}
