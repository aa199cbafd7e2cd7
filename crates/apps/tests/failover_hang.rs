//! Hang-detection failover: a shard that *stalls* (no panic, no exit —
//! it just stops producing) past `REGENT_HANG_TIMEOUT_MS` must be
//! blamed `Hung` by the peers waiting on its messages, evicted from
//! the membership, and the run completed bit-identically by the
//! survivors.
//!
//! This lives in its own test binary: `hang_timeout()` caches the env
//! var in a process-wide `OnceLock`, so the short timeout must be set
//! before any other test touches the exchange paths.

use regent_apps::stencil;
use regent_cr::{control_replicate, CrOptions};
use regent_ir::Store;
use regent_region::FieldType;
use regent_runtime::{
    classify_failure, run, run_failover, Compiled, DeathCause, FailoverOptions, FailureClass,
    FaultPlan, ResilienceOptions, RunOptions,
};

#[test]
fn stalled_shard_is_blamed_hung_and_evicted() {
    // Must precede the first hang_timeout() call in this process.
    std::env::set_var("REGENT_HANG_TIMEOUT_MS", "500");

    // Keep shard-loss poison cascades off stderr; real failures still
    // report.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| {
                classify_failure(m) != FailureClass::Permanent
                    || m.starts_with("copy channel closed")
            });
        if !expected {
            prev(info);
        }
    }));

    let mk = || {
        let cfg = stencil::StencilConfig {
            n: 40,
            ntx: 4,
            nty: 2,
            radius: 2,
            steps: 5,
        };
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    };

    let (prog_a, mut store_a) = mk();
    let roots = prog_a.root_regions();
    let spmd_a = control_replicate(prog_a, &CrOptions::new(3)).unwrap();
    let plain = run(
        Compiled::Spmd(&spmd_a),
        &mut store_a,
        &RunOptions::default(),
    );

    let (prog_b, mut store_b) = mk();
    let mut spmd_b = control_replicate(prog_b, &CrOptions::new(3)).unwrap();
    // Stall shard 1 for 4x the hang timeout at the epoch-2 boundary:
    // its peers' bounded waits expire first and blame it on the death
    // board; the woken victim then dies on the poisoned collectives.
    let opts = ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(17).stall_shard(1, 2, 2_000),
        ..Default::default()
    };
    let r = run_failover(
        Compiled::Spmd(&mut spmd_b),
        &mut store_b,
        &RunOptions::default().with_resilience(opts.clone()),
        &FailoverOptions::default(),
    );

    assert_eq!(r.attempts, 2, "the stall must cost exactly one attempt");
    assert_eq!(
        r.final_shards, 2,
        "the hung shard must leave the membership"
    );
    assert_eq!(r.deaths.len(), 1);
    assert_eq!(r.deaths[0].shard, 1, "blame must land on the stalled shard");
    assert_eq!(
        r.deaths[0].cause,
        DeathCause::Hung,
        "a stall is a hang, not a kill or panic"
    );

    assert_eq!(plain.env, r.run.env, "scalar env diverged after eviction");
    for &root in &roots {
        let ia = store_a.instance_in(&spmd_a.forest, root);
        let ib = store_b.instance_in(&spmd_b.forest, root);
        for (fid, def) in spmd_a.forest.fields(root).iter() {
            for pt in spmd_a.forest.domain(root).iter() {
                match def.ty {
                    FieldType::F64 => {
                        assert!(
                            ia.read_f64(fid, pt).to_bits() == ib.read_f64(fid, pt).to_bits(),
                            "field {:?} at {:?} diverged",
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
}
