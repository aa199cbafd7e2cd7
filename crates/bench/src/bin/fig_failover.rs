//! `fig_failover` — the real SPMD executor's resilience (beyond the
//! paper's evaluation): live shard failover, checkpoint–restart, and
//! the integrity layer under silent bit flips.
//!
//! Part 1 sweeps the kill epoch on the fig6-shape stencil at 3 shards:
//! for each boundary the victim dies at, the run must complete on the
//! survivors bit-identically to the undisturbed run, and the report
//! shows the *failover cost* (extra wall time over the undisturbed
//! run: detection + membership agreement + checkpoint redistribution +
//! replay from the last boundary) next to the reconstruction slice the
//! driver timed itself. Part 2 sweeps the shard count at a fixed kill
//! epoch: reconstruction redistributes the *entire* committed
//! checkpoint onto the survivors (every instance moves to its new
//! owner, not just the victim's), so the instance count is a
//! membership-independent function of the partitioning and the cost
//! tracks total state size. Part 3 injects a shard crash across
//! checkpoint intervals and checks that coordinated rollback recovers
//! bit-identically. Part 4 runs the executor under silent bit flips
//! (seed 11, rate 0.25): payload corruption repairs by retransmission,
//! resident corruption escalates to rollback, and the Spy certifies
//! the repaired trace. Part 5 measures the checksum layer's overhead
//! at rate 0 on the fig6 stencil as a share of each run's own CPU time
//! (the statistic EXPERIMENTS.md reports).
//!
//! Every run is asserted bit-identical to the undisturbed one. The
//! rebuilt-instance counts are exact assertions in
//! `crates/apps/tests/failover.rs` (16 at every kill epoch and shard
//! count); the times depend on the host and are reported, not gated.
//! `--steps` sets the failover sweeps' length; the other parts run
//! fixed configurations.
//!
//! ```text
//! fig_failover [--steps 6]
//! ```

use regent_apps::stencil;
use regent_cr::{control_replicate, CrOptions, SpmdProgram};
use regent_ir::Store;
use regent_region::{FieldType, RegionId};
use regent_runtime::{
    metrics, panic_message, run, run_failover, Compiled, FailoverOptions, FaultPlan,
    ResilienceOptions, RunOptions, RunResult, Timer, FAILOVER_EXHAUSTED_PREFIX, SHARD_LOSS_PREFIX,
};
use regent_trace::{failover_summary, integrity_summary, validate, Tracer};
use std::time::Instant;

const NS: usize = 3;

/// The fig6-shape stencil on an `n`×`n` grid, initialized.
fn mk(n: u64, steps: u64) -> (regent_ir::Program, Store) {
    let cfg = stencil::StencilConfig {
        n,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    (prog, store)
}

/// One failover run: returns (wall seconds, reconstruct ns, instances
/// rebuilt) and asserts the result is bit-identical to `plain_env`.
fn failover_run(steps: u64, ns: usize, kill_epoch: u64, plain_env: &[f64]) -> (f64, u64, u64) {
    let (prog, mut store) = mk(40, steps);
    let mut spmd = control_replicate(prog, &CrOptions::new(ns)).unwrap();
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(42).kill_shard(1, kill_epoch),
        ..Default::default()
    };
    let tracer = Tracer::enabled();
    let t0 = Instant::now();
    let r = run_failover(
        Compiled::Spmd(&mut spmd),
        &mut store,
        &RunOptions::traced(&tracer).with_resilience(opts.clone()),
        &FailoverOptions::default(),
    );
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        r.final_shards,
        ns - 1,
        "the loss must shrink the membership"
    );
    assert_eq!(
        plain_env, r.run.env,
        "failover diverged from the undisturbed run"
    );
    let fo = failover_summary(&tracer.take());
    assert!(fo.coherent(), "incoherent failover record");
    (wall, fo.reconstruct_ns, fo.insts_rebuilt)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let steps: u64 = match args.as_slice() {
        [] => 6,
        [flag, n] if flag == "--steps" => n.parse().expect("--steps takes a count"),
        _ => panic!("unexpected arguments {args:?} (usage: fig_failover [--steps N])"),
    };

    // The injected losses unwind shard threads by design; keep their
    // poison cascades off stderr so CI logs stay readable.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // Root causes are shard losses and hang timeouts; the
        // survivors' collateral unwinds (sealed rings) carry the
        // copy-channel diagnostic. Failover giving up is reported.
        let m = panic_message(info.payload());
        let expected = !m.starts_with(FAILOVER_EXHAUSTED_PREFIX)
            && (m.contains(SHARD_LOSS_PREFIX)
                || m.contains("likely deadlock")
                || m.starts_with("copy channel closed"));
        if !expected {
            prev(info);
        }
    }));

    // Undisturbed baseline, best of 3.
    let plain = {
        let (prog, mut store) = mk(40, steps);
        let spmd = control_replicate(prog, &CrOptions::new(NS)).unwrap();
        run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default())
    };
    let mut plain_s = f64::INFINITY;
    for _ in 0..3 {
        let (prog, mut store) = mk(40, steps);
        let spmd = control_replicate(prog, &CrOptions::new(NS)).unwrap();
        let t0 = Instant::now();
        let r = run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());
        plain_s = plain_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(plain.env, r.env);
    }

    // Part 1: kill-epoch sweep at NS shards.
    println!("=== Failover: fig6 stencil 40x40, {steps} steps, {NS} shards, kill shard 1 ===");
    println!(
        "{:>10}  {:>12}  {:>14}  {:>14}  {:>6}  {:>13}",
        "kill epoch", "wall ms", "failover ms", "reconstruct us", "insts", "bit-identical"
    );
    println!(
        "{:>10}  {:>12.2}  {:>14}  {:>14}  {:>6}  {:>13}",
        "none",
        plain_s * 1e3,
        "-",
        "-",
        "-",
        "-"
    );
    for kill_epoch in [1u64, 2, 4] {
        let mut wall = f64::INFINITY;
        let mut recon_ns = 0u64;
        let mut insts = 0u64;
        for _ in 0..3 {
            let (w, r, n) = failover_run(steps, NS, kill_epoch, &plain.env);
            if w < wall {
                wall = w;
                recon_ns = r;
                insts = n;
            }
        }
        // The failover cost: everything between the kill and the run
        // being whole again — detection, agreement, reconstruction,
        // and replay from the last committed boundary.
        let failover_ms = (wall - plain_s).max(0.0) * 1e3;
        println!(
            "{:>10}  {:>12.2}  {:>14.2}  {:>14.1}  {:>6}  {:>13}",
            kill_epoch,
            wall * 1e3,
            failover_ms,
            recon_ns as f64 / 1e3,
            insts,
            "yes"
        );
    }
    println!();

    // Part 2: shard-count sweep at a fixed kill epoch. The rebuilt
    // instance count stays constant (the whole checkpoint is
    // redistributed); only the per-shard layout changes.
    println!("=== Failover: shard-count sweep (kill shard 1 @ epoch 2) ===");
    println!(
        "{:>7}  {:>12}  {:>14}  {:>6}",
        "shards", "wall ms", "reconstruct us", "insts"
    );
    for ns in [2usize, 4, 8] {
        let plain_ns = {
            let (prog, mut store) = mk(40, steps);
            let spmd = control_replicate(prog, &CrOptions::new(ns)).unwrap();
            run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default())
        };
        let (wall, recon_ns, insts) = failover_run(steps, ns, 2, &plain_ns.env);
        println!(
            "{:>7}  {:>12.2}  {:>14.1}  {:>6}",
            ns,
            wall * 1e3,
            recon_ns as f64 / 1e3,
            insts
        );
    }
    println!();

    checkpoint_restart();
    integrity();
    integrity_overhead();
}

/// Part 3: checkpoint–restart. Shard 1 crashes at epoch 3; every shard
/// rolls back to the last checkpoint and replays, for several
/// checkpoint intervals.
fn checkpoint_restart() {
    let ns = 4;
    let (prog, mut store) = mk(40, 6);
    let roots = prog.root_regions();
    let spmd = control_replicate(prog, &CrOptions::new(ns)).unwrap();
    let plain = run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());

    println!("=== Resilience: real SPMD executor (Stencil, {ns} shards, crash at epoch 3) ===");
    println!(
        "{:>6}  {:>11}  {:>8}  {:>14}  {:>12}",
        "K", "checkpoints", "restores", "epochs replayed", "bit-identical"
    );
    for k in [1u64, 2, 4] {
        let opts = ResilienceOptions {
            checkpoint_interval: k,
            plan: FaultPlan::new(42).crash_shard(1, 3),
            ..Default::default()
        };
        let (prog_r, mut store_r) = mk(40, 6);
        let spmd_r = control_replicate(prog_r, &CrOptions::new(ns)).unwrap();
        let res = run(
            Compiled::Spmd(&spmd_r),
            &mut store_r,
            &RunOptions::default().with_resilience(opts),
        );
        assert_bit_identical((&plain, &spmd, &store), (&res, &spmd_r, &store_r), &roots);
        let per = &res.per_shard[0];
        println!(
            "{:>6}  {:>11}  {:>8}  {:>14}  {:>12}",
            k, per.checkpoints, per.restores, per.epochs_replayed, "yes"
        );
    }
    println!();
    println!("recovered region contents and scalars are bit-identical to the fault-free run");
    println!();
}

/// Part 4: the real SPMD executor under silent bit flips at seed 11,
/// rate 0.25. The run must end bit-identical to the fault-free one and
/// the Spy must certify the repaired trace.
fn integrity() {
    let (ns, seed, rate) = (4, 11, 0.25);
    let (prog, mut store) = mk(64, 8);
    let roots = prog.root_regions();
    let spmd = control_replicate(prog, &CrOptions::new(ns)).unwrap();
    let plain = run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());

    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(seed).with_corrupt_rate(rate),
        ..Default::default()
    };
    let (prog_c, mut store_c) = mk(64, 8);
    let spmd_c = control_replicate(prog_c, &CrOptions::new(ns)).unwrap();
    let tracer = Tracer::enabled();
    let res = run(
        Compiled::Spmd(&spmd_c),
        &mut store_c,
        &RunOptions::traced(&tracer).with_resilience(opts),
    );
    let trace = tracer.take();
    assert_bit_identical((&plain, &spmd, &store), (&res, &spmd_c, &store_c), &roots);

    let s = integrity_summary(&trace);
    assert!(s.coherent(), "incoherent integrity summary: {s:?}");
    assert_eq!(s.detected, res.stats.corruptions_detected);
    let oracle = regent_cr::ForestOracle::new(&spmd_c.forest);
    let report = validate(&trace, &oracle).expect("corrupted-run trace must stay well-formed");
    assert!(
        report.ok(),
        "spy violations on repaired trace:\n{:?}",
        report.violations
    );
    println!(
        "=== Integrity: real SPMD executor (Stencil, {ns} shards, seed {seed}, rate {rate}) ==="
    );
    println!(
        "injected {}  detected {}  repaired {}  escalated {}  rollbacks {}",
        res.stats.corruptions_injected,
        res.stats.corruptions_detected,
        res.stats.corruptions_repaired,
        res.stats.corruptions_escalated,
        res.per_shard.iter().map(|s| s.restores).max().unwrap_or(0),
    );
    println!(
        "final state bit-identical to fault-free run: yes; Spy certified {} dependences",
        report.certified
    );
    println!();
}

/// Part 5: checksum overhead at rate 0 on the fig6 stencil. The
/// integrity layer seals every instance and verifies every frame, but
/// never finds anything — the cost of always-on detection. It is a
/// share measured inside each run, as `regent-perf`'s guard metrics
/// are: the `Timer::IntegrityNs` sum (seals, frame checksums, boundary
/// sweeps) over the rest of the run's process CPU time, which load
/// from outside the process does not stretch. A wall-clock A/B of two
/// ≈10 ms runs cannot resolve a cost this small.
fn integrity_overhead() {
    let (ns, n, steps) = (4, 256, 20);
    let opts = RunOptions::default().with_resilience(ResilienceOptions {
        checkpoint_interval: 4,
        integrity: true,
        ..Default::default()
    });
    let mut runs: Vec<(u64, u64)> = (0..3)
        .map(|_| {
            let (prog, mut store) = mk(n, steps);
            let spmd = control_replicate(prog, &CrOptions::new(ns)).unwrap();
            metrics::global().reset();
            let c0 = metrics::process_cpu_ns();
            let res = run(Compiled::Spmd(&spmd), &mut store, &opts);
            let cpu = metrics::process_cpu_ns().saturating_sub(c0);
            assert_eq!(res.stats.corruptions_detected, 0);
            let all = metrics::global().aggregate();
            (all.timer(Timer::IntegrityNs).sum_ns, cpu)
        })
        .collect();
    let share = |(integrity, cpu): (u64, u64)| {
        integrity as f64 / cpu.saturating_sub(integrity).max(1) as f64 * 100.0
    };
    runs.sort_by(|a, b| share(*a).total_cmp(&share(*b)));
    let (integrity, cpu) = runs[1];
    println!("=== Integrity: checksum overhead at rate 0 (fig6 stencil, real executor) ===");
    println!(
        "{n}x{n} points, {steps} steps, {ns} shards: integrity {:.2} ms of {:.1} ms process CPU, \
         {:.1}% overhead (median of 3; {:.1}–{:.1}%)",
        integrity as f64 / 1e6,
        cpu as f64 / 1e6,
        share(runs[1]),
        share(runs[0]),
        share(runs[2])
    );
    println!();
}

/// Asserts a recovered or repaired run ended bit-identical to the
/// fault-free one: scalar environment and every field of every root
/// region. Each side is (result, program, store).
fn assert_bit_identical(
    (plain, spmd, store): (&RunResult, &SpmdProgram, &Store),
    (res, spmd_r, store_r): (&RunResult, &SpmdProgram, &Store),
    roots: &[RegionId],
) {
    assert_eq!(plain.env, res.env, "recovered scalar env diverged");
    for &root in roots {
        let ia = store.instance_in(&spmd.forest, root);
        let ib = store_r.instance_in(&spmd_r.forest, root);
        for (fid, def) in spmd.forest.fields(root).iter() {
            for pt in spmd.forest.domain(root).iter() {
                let identical = match def.ty {
                    FieldType::F64 => {
                        ia.read_f64(fid, pt).to_bits() == ib.read_f64(fid, pt).to_bits()
                    }
                    FieldType::I64 => ia.read_i64(fid, pt) == ib.read_i64(fid, pt),
                };
                assert!(identical, "field {:?} diverged at {:?}", def.name, pt);
            }
        }
    }
}
