//! End-to-end shard failover through the service: with
//! `cfg.failover` armed and a kill schedule in `cfg.kills`, a
//! supervised job whose shard dies mid-run completes on the surviving
//! membership with a digest bit-identical to the sequential reference
//! — the loss is absorbed inside one supervised attempt, invisible to
//! admission, retry accounting, and the caller except for the reported
//! shard count.

use regent_ir::interp;
use regent_runtime::FaultPlan;
use regent_serve::{digest_store, jobs, JobOutcome, JobSpec, Service, ServiceConfig, Strategy};

fn solo_digest(factory: &regent_serve::ProgramFactory) -> u64 {
    let (prog, mut store) = factory();
    let roots = prog.root_regions();
    let (env, _) = interp::run(&prog, &mut store);
    digest_store(&prog.forest, &store, &roots, &env)
}

#[test]
fn killed_shard_jobs_complete_on_survivors() {
    // Kill shard 1 at the epoch-2 boundary of every failover-routed
    // job of this service (what `REGENT_KILL=1@2` configures).
    let cfg = ServiceConfig {
        failover: Some(1),
        kills: Some(FaultPlan::default().kill_shard(1, 2)),
        ..ServiceConfig::new()
    };
    let svc = Service::start(cfg);
    let baseline = solo_digest(&jobs::stencil_factory(24, 6));

    // All three failover-capable strategies, 3 shards each.
    let strategies = [Strategy::Spmd, Strategy::Log, Strategy::Hybrid];
    let handles: Vec<_> = strategies
        .iter()
        .map(|&s| {
            let spec = JobSpec::new(
                1,
                format!("stencil-failover/{}", s.label()),
                s,
                3,
                8,
                jobs::stencil_factory(24, 6),
            );
            svc.submit(spec).expect("admitted")
        })
        .collect();

    for (h, &s) in handles.iter().zip(strategies.iter()) {
        match h.wait() {
            JobOutcome::Completed {
                attempts,
                digest,
                shards,
                ..
            } => {
                assert_eq!(
                    attempts,
                    1,
                    "{}: the loss must be absorbed inside the attempt, not retried",
                    s.label()
                );
                assert_eq!(
                    shards,
                    2,
                    "{}: the reported membership must reflect the eviction",
                    s.label()
                );
                // Stencil has no reductions, so the shrunken run is
                // bit-identical to the sequential reference.
                assert_eq!(digest, baseline, "{}: result diverged", s.label());
            }
            other => panic!("{}: expected completion, got {other:?}", s.label()),
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.quarantined, 0, "failover must not quarantine");
    svc.shutdown();
}
