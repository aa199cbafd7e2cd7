//! PENNANT demo (§5.3 / Fig. 8 workload): Lagrangian hydrodynamics with
//! *dynamic time stepping* — the per-step dt comes from a Min scalar
//! reduction across all zones (§4.4's dynamic collective), driving the
//! `While` loop's replicated trip count.
//!
//! ```text
//! cargo run --release --example pennant_demo
//! ```

use control_replication::apps::pennant::{
    build_mesh, init_pennant, pennant_program, PennantConfig,
};
use control_replication::cr::{control_replicate, CrOptions};
use control_replication::ir::{interp, Store};
use control_replication::runtime::{run, Compiled, RunOptions};

fn main() {
    let cfg = PennantConfig {
        nzx: 24,
        nzy: 12,
        pieces: 4,
        tstop: 6e-2,
        dtmax: 2e-2,
    };
    println!(
        "PENNANT Sedov-like blast: {}×{} zones, {} pieces, tstop {}",
        cfg.nzx, cfg.nzy, cfg.pieces, cfg.tstop
    );
    let mesh = build_mesh(&cfg);

    // Sequential.
    let (prog, h) = pennant_program(cfg, &mesh);
    let mut seq = Store::new(&prog);
    init_pennant(&prog, &mut seq, &h, &cfg, &mesh);
    let (seq_env, seq_stats) = interp::run(&prog, &mut seq);
    println!(
        "sequential: {} dynamic steps, final t = {:.5}, final dt = {:.5}",
        seq_stats.loop_iterations, seq_env[0], seq_env[1]
    );

    // Control-replicated.
    let mesh2 = build_mesh(&cfg);
    let (prog_c, h_c) = pennant_program(cfg, &mesh2);
    let mut crs = Store::new(&prog_c);
    init_pennant(&prog_c, &mut crs, &h_c, &cfg, &mesh2);
    let spmd = control_replicate(prog_c, &CrOptions::new(4)).expect("CR");
    let r = run(Compiled::Spmd(&spmd), &mut crs, &RunOptions::default());
    println!(
        "CR SPMD   : final t = {:.5}, final dt = {:.5} ({} collectives, {} msgs)",
        r.env[0], r.env[1], r.stats.collectives, r.stats.messages_sent
    );
    assert_eq!(
        seq_env, r.env,
        "the dynamically-computed dt sequence must replicate exactly"
    );

    // The blast wave: report the radial extent of moving points.
    let inst = crs.instance_in(&spmd.forest, h_c.points);
    let mut moving = 0usize;
    let mut max_speed = 0.0f64;
    for p in spmd.forest.domain(h_c.points).iter() {
        let vx = inst.read_f64(h_c.f_vx, p);
        let vy = inst.read_f64(h_c.f_vy, p);
        let s = (vx * vx + vy * vy).sqrt();
        if s > 1e-9 {
            moving += 1;
        }
        max_speed = max_speed.max(s);
    }
    println!(
        "blast front: {moving} points moving, peak speed {max_speed:.3} \
         (dt sequence identical on every shard ✓)"
    );
}
