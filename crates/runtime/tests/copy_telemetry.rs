//! The always-on registry times a copy statement once per phase, not
//! once per pair, and a launch once per shard, not once per point: on
//! each shard, each execution of a copy statement adds one
//! `CopyIssueNs` sample (its producer phase) and one `CopyWaitNs` sample
//! (its consumer phase), however many pairs it moves, and each launch
//! adds one `TaskRunNs` sample, however many points it runs, while
//! `CopiesIssued` / `CopiesApplied` still count every pair produced and
//! consumed and `Launches` / `TaskRuns` every point. Counted through the
//! process-global registry, so this binary holds the one test that
//! reads it, and it counts what its runs add rather than clearing the
//! registry.

use regent_apps::stencil;
use regent_cr::{control_replicate, CopyId, CrOptions, IntersectId, SpmdStmt};
use regent_ir::Store;
use regent_runtime::{metrics, run, Compiled, Counter, RunOptions, Timer};
use regent_trace::{EventKind, Tracer};
use std::collections::{HashMap, HashSet};

/// Every copy statement of `stmts`, nested ones included, by id.
fn copy_intersections(stmts: &[SpmdStmt], out: &mut HashMap<CopyId, IntersectId>) {
    for s in stmts {
        match s {
            SpmdStmt::Copy(c) => {
                out.insert(c.id, c.intersection);
            }
            SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => {
                copy_intersections(body, out)
            }
            SpmdStmt::If {
                then_body,
                else_body,
                ..
            } => {
                copy_intersections(then_body, out);
                copy_intersections(else_body, out);
            }
            _ => {}
        }
    }
}

#[test]
fn copy_timers_take_one_sample_per_statement_phase() {
    const SHARDS: usize = 2;
    let cfg = stencil::StencilConfig {
        n: 64,
        ntx: 8,
        nty: 8,
        radius: 2,
        steps: 3,
    };
    let (prog, _) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    let spmd = control_replicate(prog, &CrOptions::new(SHARDS)).unwrap();
    let registry = metrics::global();
    if !registry.is_enabled() {
        // `REGENT_METRICS_OFF`: nothing to count.
        return;
    }

    // The traced run says which statements ran on which shard and
    // which pairs each one produced and consumed.
    let tracer = Tracer::enabled();
    let before = registry.aggregate();
    let traced = run(
        Compiled::Spmd(&spmd),
        &mut store,
        &RunOptions::traced(&tracer),
    );
    let traced_added = registry.aggregate();
    let trace = tracer.take();
    let mut copies = HashMap::new();
    copy_intersections(&spmd.body, &mut copies);
    let (schedule, _) = spmd.schedule();
    let (mut issued, mut applied, mut points) = (0u64, 0u64, 0u64);
    let mut executions: HashSet<(usize, u32, u32)> = HashSet::new();
    let mut launches: HashSet<(usize, u32)> = HashSet::new();
    for shard in 0..SHARDS {
        let track = trace.track(&format!("shard-{shard}")).unwrap();
        for e in &track.events {
            match e.kind {
                EventKind::CopyIssue { copy, seq, .. } => {
                    issued += 1;
                    executions.insert((shard, copy, seq));
                }
                EventKind::CopyApply { copy, seq, .. } => {
                    applied += 1;
                    executions.insert((shard, copy, seq));
                }
                EventKind::TaskRun { launch, .. } => {
                    points += 1;
                    launches.insert((shard, launch));
                }
                _ => {}
            }
        }
    }
    // Each statement execution produces and consumes every pair of its
    // intersection once, across the shards.
    let pairs_per_run: u64 = executions
        .iter()
        .filter(|&&(shard, ..)| shard == 0)
        .map(|&(_, copy, _)| schedule.pairs[copies[&CopyId(copy)].0 as usize].len() as u64)
        .sum();
    assert!(pairs_per_run > 0, "the program exchanges");
    assert_eq!(issued, pairs_per_run, "one CopyIssue per pair produced");
    assert_eq!(applied, pairs_per_run, "one CopyApply per pair consumed");
    // Replicated control flow: every shard runs every statement.
    let statements = traced.stats.copies_executed;
    assert_eq!(executions.len() as u64, statements);
    assert!(
        pairs_per_run > 2 * statements,
        "several pairs per statement and shard: {pairs_per_run} pairs, {statements} statements"
    );

    // Two launches a step, each running points on every shard.
    let launches = launches.len() as u64;
    assert_eq!(launches, 2 * cfg.steps * SHARDS as u64);
    assert_eq!(points, traced.stats.tasks_executed);
    assert!(points > 2 * launches, "several points per launch and shard");

    // The same program untraced: the counters still count pairs and
    // points, the timers one sample per statement phase or launch per
    // shard.
    let untraced = run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());
    let after = registry.aggregate();
    assert_eq!(untraced.stats.copies_executed, statements);
    assert_eq!(untraced.stats.tasks_executed, points);
    for (from, to, what) in [
        (&before, &traced_added, "traced"),
        (&traced_added, &after, "untraced"),
    ] {
        let added = |c: Counter| to.get(c) - from.get(c);
        let samples = |t: Timer| to.timer(t).count - from.timer(t).count;
        assert_eq!(added(Counter::CopiesIssued), pairs_per_run, "{what}");
        assert_eq!(added(Counter::CopiesApplied), pairs_per_run, "{what}");
        assert_eq!(samples(Timer::CopyIssueNs), statements, "{what}");
        assert_eq!(samples(Timer::CopyWaitNs), statements, "{what}");
        assert_eq!(added(Counter::Launches), points, "{what}");
        assert_eq!(added(Counter::TaskRuns), points, "{what}");
        assert_eq!(samples(Timer::TaskRunNs), launches, "{what}");
    }
}
