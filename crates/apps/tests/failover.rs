//! Live shard failover on the evaluation applications: for every app,
//! killing a shard's *thread* mid-run (membership loss, not rollback)
//! must shrink the run to the survivors, reconstruct the victim's
//! subregion instances from the last coordinated checkpoint, and
//! produce region contents and scalar environments *bit-identical* to
//! an undisturbed run — with the recovered trace Spy-certified like any
//! other. One body (`assert_fails_over`) serves the three SPMD-family
//! strategies. Also covers the loss-budget fail-stop (a double failure
//! past `max_failovers` must quarantine cleanly, not hang), the
//! shared-log strategy's from-scratch failover, the hybrid per-segment
//! checkpoint remap, a retry that resumes from the committed checkpoint
//! and then rolls back to it, the death/membership pair a shrink leaves on the caller's
//! `failover` track, what epoch a membership change records, how many
//! instances a failover rebuilds (16 for fig_failover's Stencil at
//! every kill epoch and shard count, and beside a lagging survivor after
//! a kill or a kernel panic, resuming from the newest common cut),
//! hang-detection failover (a stalled shard is blamed and evicted under
//! a 500 ms `RunOptions::hang_timeout` while the other tests of this
//! binary run concurrently at the default), and seeded chaos schedules (the soak variant is `#[ignore]`d for the dedicated
//! CI job).

mod common;

use common::{
    certify, compare_roots, count_events, forest, mk_circuit, mk_miniaero, mk_pennant, mk_stencil,
    num_shards, replicated, trace_forest, Strategy,
};
use regent_apps::stencil;
use regent_cr::shard_layouts;
use regent_geometry::DynPoint;
use regent_ir::{Program, Stmt, Store};
use regent_runtime::{
    run, run_failover, DeathCause, Failover, FailoverOptions, FaultPlan, ResilienceOptions,
    RunOptions, RunResult, FAILOVER_EXHAUSTED_PREFIX, SHARD_LOSS_PREFIX,
};
use regent_trace::{failover_summary, EventKind, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Swallows the default stderr report for panics that are failover
/// control flow here (shard losses, hang timeouts, the expected budget
/// fail-stop, sealed rings) so test output stays readable. Genuine
/// assertion failures still report normally.
fn install_quiet_hook() {
    static HOOK: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| {
                    m.contains(SHARD_LOSS_PREFIX)
                        || m.contains("likely deadlock")
                        || m.starts_with(FAILOVER_EXHAUSTED_PREFIX)
                        || m.starts_with("copy channel closed")
                        || m.contains(INJECTED_PANIC)
                });
            if !expected {
                prev(info);
            }
        }));
    });
}

/// Runs `mk`'s program under `strategy` undisturbed at `ns` shards and
/// under [`run_failover`] with `plan`'s losses, asserts bit-identical
/// results, Spy-certifies the recovered trace, checks the failover
/// track's structured events, and returns the failover result and the
/// undisturbed one.
fn assert_fails_over(
    strategy: Strategy,
    mk: &dyn Fn() -> (Program, Store),
    ns: usize,
    plan: FaultPlan,
    fo: &FailoverOptions,
    expect_losses: Option<usize>,
) -> (Failover, RunResult) {
    install_quiet_hook();
    let (prog_a, mut store_a) = mk();
    let roots = prog_a.root_regions();
    let a = strategy.compile(prog_a, ns);
    let plain = run(a.as_ref(), &mut store_a, &RunOptions::default());

    let (prog_b, mut store_b) = mk();
    let mut b = strategy.compile(prog_b, ns);
    let tracer = Tracer::enabled();
    let opts = RunOptions::traced(&tracer).with_resilience(ResilienceOptions {
        checkpoint_interval: 2,
        plan,
        ..Default::default()
    });
    let r = run_failover(b.as_mut(), &mut store_b, &opts, fo);
    let trace = tracer.take();

    // Losses are opportunistic under a seeded chaos plan (a drawn kill
    // epoch past the app's last boundary never fires); membership
    // accounting is asserted either way.
    let losses = r.deaths.len();
    if let Some(expected) = expect_losses {
        assert_eq!(losses, expected, "{strategy:?}: losses survived");
    }
    assert_eq!(
        r.attempts as usize,
        losses + 1,
        "{strategy:?}: one attempt per loss"
    );
    assert_eq!(r.final_shards, ns - losses, "{strategy:?}: membership");
    assert_eq!(num_shards(&b), r.final_shards);

    // Values: bit-identical env and regions despite the re-sharding.
    assert_eq!(
        plain.env, r.run.env,
        "{strategy:?}: scalar env diverged across failover"
    );
    let label = format!("{strategy:?}: undisturbed vs failover");
    let (here_a, here_b) = ((forest(&a), &store_a), (forest(&b), &store_b));
    compare_roots(&label, &roots, here_a, here_b, 0.0);

    // Ordering: the Spy certifies the surviving attempt's trace.
    certify(
        &format!("{strategy:?}: failover trace"),
        trace_forest(&b),
        &trace,
    );

    // The failover track records one structured death and one
    // membership change per loss, and every membership change names
    // the checkpoint epoch the new membership resumes from: the epoch
    // of the reconstruction that preceded it, 0 when nothing was
    // reconstructed (no checkpoint committed, or — the log — no
    // resumable slot).
    assert_eq!(
        count_events(&trace, |k| matches!(k, EventKind::PeerDeath { .. })),
        losses,
        "{strategy:?}: PeerDeath events"
    );
    let mut changes = 0;
    let mut reconstructed = 0;
    let failover_track = trace.tracks.iter().filter(|t| t.name == "failover");
    for event in failover_track.flat_map(|t| &t.events) {
        match event.kind {
            EventKind::FailoverReconstruct { epoch, .. } => {
                assert_ne!(strategy, Strategy::Log, "the log has no resume path");
                reconstructed = reconstructed.max(epoch);
            }
            EventKind::MembershipChange { epoch, .. } => {
                assert_eq!(epoch, reconstructed, "{strategy:?}: resume epoch");
                reconstructed = 0;
                changes += 1;
            }
            _ => {}
        }
    }
    assert_eq!(changes, losses, "{strategy:?}: MembershipChange events");
    (r, plain)
}

/// Kill every shard at every checkpoint boundary: the differential
/// sweep the issue's acceptance names. One sweep per app keeps the
/// failure attribution per-app.
fn kill_sweep(mk: &dyn Fn() -> (Program, Store), ns: usize, epochs: &[u64]) {
    for victim in 0..ns as u32 {
        for &epoch in epochs {
            let (r, _) = assert_fails_over(
                Strategy::Spmd,
                mk,
                ns,
                FaultPlan::new(victim as u64).kill_shard(victim, epoch),
                &FailoverOptions::default(),
                Some(1),
            );
            assert_eq!(r.deaths[0].shard, victim);
            assert!(
                matches!(r.deaths[0].cause, DeathCause::Killed { epoch: e } if e == epoch),
                "wrong cause: {:?}",
                r.deaths[0].cause
            );
        }
    }
}

#[test]
fn stencil_failover_sweep() {
    kill_sweep(&mk_stencil, 3, &[1, 2, 3]);
}

#[test]
fn circuit_failover_sweep() {
    kill_sweep(&mk_circuit, 3, &[1, 2]);
}

#[test]
fn miniaero_failover_sweep() {
    kill_sweep(&mk_miniaero, 3, &[1, 2]);
}

#[test]
fn pennant_failover_sweep() {
    // PENNANT's outer loop is a While driven by a Min-reduced dt: the
    // reconstructed survivors must re-derive the same trip decisions.
    // dtmax well below tstop so the loop runs at least four steps —
    // the swept kill epochs must actually be reached.
    kill_sweep(&|| mk_pennant(5e-3), 3, &[1, 2]);
}

#[test]
fn double_failure_within_budget_shrinks_twice() {
    let fo = FailoverOptions { max_failovers: 2 };
    let (r, _) = assert_fails_over(
        Strategy::Spmd,
        &mk_stencil,
        3,
        FaultPlan::new(5).kill_shard(0, 1).kill_shard(1, 3),
        &fo,
        Some(2),
    );
    assert_eq!(r.final_shards, 1, "3 shards minus two losses");
}

/// The diagnostic a stencil run at `ns` shards under `plan` dies with:
/// through [`run_failover`] when `fo` is given, plain [`run`] otherwise.
fn stencil_diagnostic(
    strategy: Strategy,
    ns: usize,
    plan: FaultPlan,
    fo: Option<&FailoverOptions>,
) -> String {
    install_quiet_hook();
    let (prog, mut store) = mk_stencil();
    let mut compiled = strategy.compile(prog, ns);
    let opts = RunOptions::default().with_resilience(ResilienceOptions {
        checkpoint_interval: 2,
        plan,
        ..Default::default()
    });
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match fo {
        Some(fo) => drop(run_failover(compiled.as_mut(), &mut store, &opts, fo)),
        None => drop(run(compiled.as_ref(), &mut store, &opts)),
    }))
    .expect_err("the loss must fail the run");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string payload".into())
}

#[test]
fn unrecovered_loss_surfaces_its_root_cause() {
    // Shard 1 is killed with nothing to fail over; its neighbours die
    // in their halo exchanges ("copy channel closed: ... shard 1
    // died"), shard 0 first in scan order. Under every strategy the
    // run must surface the kill itself, not a victim's unwind.
    for strategy in Strategy::ALL {
        let msg = stencil_diagnostic(strategy, 3, FaultPlan::new(1).kill_shard(1, 2), None);
        let root = format!("shard 1 panicked: {SHARD_LOSS_PREFIX}: shard 1 killed at epoch 2");
        assert!(msg.starts_with(&root), "{strategy:?}: {msg}");
    }
}

#[test]
fn budget_exhausted_fails_permanently_not_hangs() {
    // Two losses against the default budget of one: the second loss
    // must fail-stop with the structured exhaustion diagnostic, which
    // wraps the loss it could not survive — never a hang.
    let plan = FaultPlan::new(5).kill_shard(0, 1).kill_shard(1, 3);
    let msg = stencil_diagnostic(Strategy::Spmd, 3, plan, Some(&FailoverOptions::default()));
    assert!(
        msg.starts_with(FAILOVER_EXHAUSTED_PREFIX),
        "unexpected diagnostic: {msg}"
    );
    assert!(msg.contains(SHARD_LOSS_PREFIX), "{msg}");
}

#[test]
fn membership_floor_fails_permanently() {
    // A loss at one shard leaves no survivor to shrink onto: it
    // fail-stops even with budget left.
    let fo = FailoverOptions { max_failovers: 4 };
    let msg = stencil_diagnostic(
        Strategy::Spmd,
        1,
        FaultPlan::new(5).kill_shard(0, 2),
        Some(&fo),
    );
    assert!(msg.starts_with(FAILOVER_EXHAUSTED_PREFIX), "{msg}");
    assert!(msg.contains("at 1 shards"), "{msg}");
    assert!(msg.contains(SHARD_LOSS_PREFIX), "{msg}");
}

#[test]
fn log_failover_retries_from_scratch() {
    // The shared-log strategy has no resume path (its sequencer cannot
    // re-derive consumed AllReduce feedback): a loss shrinks the
    // membership and re-executes from scratch. Proof: the surviving
    // attempt performs the *full* task count — the per-epoch task total
    // is the color count, independent of the shard count, so a resumed
    // run would report strictly fewer.
    let (r, plain) = assert_fails_over(
        Strategy::Log,
        &mk_stencil,
        3,
        FaultPlan::new(9).kill_shard(1, 2),
        &FailoverOptions::default(),
        Some(1),
    );
    assert_eq!(
        r.run.stats.tasks_executed, plain.stats.tasks_executed,
        "log failover must re-execute the whole program from scratch"
    );
}

#[test]
fn hybrid_failover_bit_identical() {
    // The failover loop carries the shrunken membership across every
    // replicated segment and remaps each segment's committed checkpoint
    // individually.
    assert_fails_over(
        Strategy::Hybrid,
        &mk_stencil,
        3,
        FaultPlan::new(11).kill_shard(1, 1),
        &FailoverOptions::default(),
        Some(1),
    );
}

#[test]
fn membership_change_names_the_resume_epoch() {
    // Checkpoints every 2 epochs, shard 1 killed at epoch 3: the
    // epoch-2 checkpoint is the last one committed (every shard the
    // victim exchanges with passed that boundary before the victim
    // could reach the next), so SPMD and hybrid resume from epoch 2 —
    // not from the kill epoch — and the log, which restarts, from 0.
    for (strategy, resume_epoch) in [
        (Strategy::Spmd, 2),
        (Strategy::Hybrid, 2),
        (Strategy::Log, 0),
    ] {
        let tracer = Tracer::enabled();
        let (prog, mut store) = mk_stencil();
        let mut compiled = strategy.compile(prog, 3);
        let opts = RunOptions::traced(&tracer).with_resilience(ResilienceOptions {
            checkpoint_interval: 2,
            plan: FaultPlan::new(19).kill_shard(1, 3),
            ..Default::default()
        });
        install_quiet_hook();
        run_failover(
            compiled.as_mut(),
            &mut store,
            &opts,
            &FailoverOptions::default(),
        );
        let trace = tracer.take();
        let epochs = |pick: &dyn Fn(&EventKind) -> Option<u64>| -> Vec<u64> {
            let events = trace.tracks.iter().flat_map(|t| &t.events);
            events.filter_map(|e| pick(&e.kind)).collect()
        };
        let changed = epochs(&|k| match *k {
            EventKind::MembershipChange { epoch, .. } => Some(epoch),
            _ => None,
        });
        let reconstructed = epochs(&|k| match *k {
            EventKind::FailoverReconstruct { epoch, .. } => Some(epoch),
            _ => None,
        });
        assert_eq!(changed, [resume_epoch], "{strategy:?}");
        if strategy == Strategy::Log {
            assert!(reconstructed.is_empty(), "the log has nothing to remap");
        } else {
            assert_eq!(reconstructed, changed, "{strategy:?}");
        }
    }
}

/// A committed shrink leaves its record on the caller's `failover`
/// track: the victim's `PeerDeath` and, after it, the
/// `MembershipChange` that evicted it.
#[test]
fn failover_leaves_death_then_membership_on_the_failover_track() {
    install_quiet_hook();
    let (prog, mut store) = mk_stencil();
    let mut compiled = Strategy::Spmd.compile(prog, 4);
    let tracer = Tracer::enabled();
    let opts = RunOptions::traced(&tracer).with_resilience(ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(23).kill_shard(3, 3),
        ..Default::default()
    });
    let r = run_failover(
        compiled.as_mut(),
        &mut store,
        &opts,
        &FailoverOptions::default(),
    );
    assert_eq!(r.final_shards, 3);

    let trace = tracer.take();
    let events: Vec<EventKind> = trace
        .track("failover")
        .expect("a recovered traced run has a failover track")
        .events
        .iter()
        .map(|e| e.kind)
        .collect();
    let death = events
        .iter()
        .position(
            |k| matches!(*k, EventKind::PeerDeath { shard, epoch, .. } if (shard, epoch) == (3, 3)),
        )
        .expect("no PeerDeath for shard 3 at epoch 3 on the failover track");
    assert!(
        events[death..].iter().any(|k| matches!(
            *k,
            EventKind::MembershipChange {
                from_shards: 4,
                to_shards: 3,
                dead_shard: 3,
                ..
            }
        )),
        "no MembershipChange evicting shard 3 after its death: {events:?}"
    );
}

/// fig_failover's run: Stencil n = 40 on 4×2 tiles, 6 steps.
fn mk_fig_failover() -> (Program, Store) {
    let cfg = stencil::StencilConfig {
        n: 40,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 6,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    (prog, store)
}

/// Kills shard 1 of fig_failover's run on `ns` shards at `kill_epoch`,
/// checkpointing every 2 epochs, and checks the survivors' result
/// bit-identical to the undisturbed run and the instances the failover
/// rebuilt. The whole committed checkpoint moves onto the survivors'
/// layouts, so the count is fixed by the partitioning: 16 at every kill
/// epoch and every shard count.
fn assert_rebuilds_16_instances(ns: usize, kill_epoch: u64) {
    let plan = FaultPlan::new(42).kill_shard(1, kill_epoch);
    assert_rebuilds_16_instances_of(&mk_fig_failover, ns, plan, &|| {});
}

/// [`assert_rebuilds_16_instances`] for the program `mk` makes under
/// `plan`, with `arm` called between the undisturbed run and the
/// failover, which must lose one shard. Returns the epoch the membership
/// change resumed from.
fn assert_rebuilds_16_instances_of(
    mk: &dyn Fn() -> (Program, Store),
    ns: usize,
    plan: FaultPlan,
    arm: &dyn Fn(),
) -> u64 {
    install_quiet_hook();
    let label = format!("{ns} shards, plan {:?}", plan.events);
    let (prog_a, mut store_a) = mk();
    let roots = prog_a.root_regions();
    let a = Strategy::Spmd.compile(prog_a, ns);
    let plain = run(a.as_ref(), &mut store_a, &RunOptions::default());

    arm();
    let (prog_b, mut store_b) = mk();
    let mut b = Strategy::Spmd.compile(prog_b, ns);
    let tracer = Tracer::enabled();
    let opts = RunOptions::traced(&tracer).with_resilience(ResilienceOptions {
        checkpoint_interval: 2,
        plan,
        ..Default::default()
    });
    let r = run_failover(b.as_mut(), &mut store_b, &opts, &FailoverOptions::default());
    assert_eq!(r.final_shards, ns - 1, "{label}: membership");
    assert_eq!(plain.env, r.run.env, "{label}: scalar env diverged");
    let (here_a, here_b) = ((forest(&a), &store_a), (forest(&b), &store_b));
    compare_roots(&label, &roots, here_a, here_b, 0.0);

    let trace = tracer.take();
    let summary = failover_summary(&trace);
    assert!(summary.coherent(), "{label}: incoherent failover record");
    assert_eq!(summary.insts_rebuilt, 16, "{label}: instances rebuilt");
    let held: usize = shard_layouts(replicated(&b))
        .iter()
        .map(|layout| layout.slots.len())
        .sum();
    assert_eq!(held, 16, "{label}: instances the survivors' layouts hold");
    let events = trace.tracks.iter().flat_map(|t| &t.events);
    let resumed = events.filter_map(|e| match e.kind {
        EventKind::MembershipChange { epoch, .. } => Some(epoch),
        _ => None,
    });
    resumed.max().expect("a failover changes the membership")
}

#[test]
fn failover_rebuilds_16_instances_kill_at_epoch_1() {
    assert_rebuilds_16_instances(3, 1);
}

#[test]
fn failover_rebuilds_16_instances_kill_at_epoch_2() {
    assert_rebuilds_16_instances(3, 2);
}

#[test]
fn failover_rebuilds_16_instances_kill_at_epoch_4() {
    assert_rebuilds_16_instances(3, 4);
}

#[test]
fn failover_rebuilds_16_instances_on_2_shards() {
    assert_rebuilds_16_instances(2, 2);
}

#[test]
fn failover_rebuilds_16_instances_on_4_shards() {
    assert_rebuilds_16_instances(4, 2);
}

#[test]
fn failover_rebuilds_16_instances_on_8_shards() {
    assert_rebuilds_16_instances(8, 2);
}

/// The message of [`lagging_fig_failover`]'s injected kernel panic.
const INJECTED_PANIC: &str = "injected kernel panic";

/// fig_failover's run with one more launch of `increment_in` before its
/// loop. Its kernel sleeps 300 ms on tile (0, 0) (shard 0 on 8 shards)
/// the first time it runs once `lag` is set, and panics on tile (0, 1)
/// (shard 1) in the launch that takes `countdown` from 1 to 0.
fn lagging_fig_failover(
    lag: &Arc<AtomicBool>,
    countdown: &Arc<AtomicU32>,
) -> impl Fn() -> (Program, Store) {
    let (lagging, victim) = (DynPoint::new(&[0, 0]), DynPoint::new(&[0, 1]));
    let (lag, countdown) = (Arc::clone(lag), Arc::clone(countdown));
    move || {
        let (mut prog, store) = mk_fig_failover();
        let task = prog
            .tasks
            .iter_mut()
            .find(|t| t.name == "increment_in")
            .expect("fig_failover's Stencil increments its input");
        let (kernel, lag, countdown) = (
            Arc::clone(&task.kernel),
            Arc::clone(&lag),
            Arc::clone(&countdown),
        );
        task.kernel = Arc::new(move |ctx| {
            if ctx.launch_point == lagging && lag.swap(false, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(300));
            }
            let tick = |n: u32| n.checked_sub(1);
            if ctx.launch_point == victim
                && countdown.fetch_update(Ordering::SeqCst, Ordering::SeqCst, tick) == Ok(1)
            {
                panic!("{INJECTED_PANIC}");
            }
            kernel(ctx)
        });
        let Stmt::For { body, .. } = &prog.body[0] else {
            panic!("fig_failover's Stencil is one loop");
        };
        let increment = body[1].clone();
        prog.body.insert(0, increment);
        (prog, store)
    }
}

/// A survivor that lags must not change what a kill rebuilds. On 8
/// shards, shard 0 (tile (0, 0), beside the victim, shard 1 on tile
/// (0, 1)) sleeps 300 ms before its first boundary; the plan then stalls
/// it for 300 ms at epoch 1 and kills shard 1 at epoch 2. While shard 0
/// lags, the shards far from it run ahead: they offer epoch 2 before it
/// has offered epoch 0, then epoch 4 before it has offered epoch 2. The
/// rescue slot must keep each cut until shard 0 offers it, or the retry
/// has nothing to rebuild from ("instances rebuilt, left: 0").
#[test]
fn failover_rebuilds_16_instances_beside_a_lagging_survivor() {
    let lag = Arc::new(AtomicBool::new(false));
    let never = Arc::new(AtomicU32::new(0));
    let mk = lagging_fig_failover(&lag, &never);
    let plan = FaultPlan::new(42).kill_shard(1, 2).stall_shard(0, 1, 300);
    assert_rebuilds_16_instances_of(&mk, 8, plan, &|| lag.store(true, Ordering::SeqCst));
}

/// The same lag, and a genuine panic instead of a scheduled kill: shard
/// 1's kernel panics in its epoch-2 launch of `increment_in` (its
/// fourth, after the one before the loop). A panic fires wherever the
/// kernel runs, not at a boundary, and the far shards have run ahead by
/// then; the retry must still resume from the newest cut every shard
/// has offered, epoch 2, and rebuild all 16 instances.
#[test]
fn a_panic_beside_a_lagging_survivor_resumes_from_the_newest_common_cut() {
    let lag = Arc::new(AtomicBool::new(false));
    let countdown = Arc::new(AtomicU32::new(0));
    let mk = lagging_fig_failover(&lag, &countdown);
    let plan = FaultPlan::new(42).stall_shard(0, 1, 300);
    let resumed = assert_rebuilds_16_instances_of(&mk, 8, plan, &|| {
        lag.store(true, Ordering::SeqCst);
        countdown.store(4, Ordering::SeqCst);
    });
    assert!(
        resumed >= 2,
        "resumed from epoch {resumed}, not the epoch-2 cut"
    );
}

/// Runs Stencil at 3 shards under `strategy` undisturbed, then through
/// [`run_failover`] with checkpoints every `interval` epochs under
/// `plan`, whose kill fails the first attempt. Checks that the
/// survivors' run is bit-identical to the undisturbed one, certifies
/// its trace, and checks that it fast-forwarded past the committed
/// epochs; returns the epoch the membership change resumed from and
/// the survivors' run.
fn resume_after_a_killed_attempt(
    strategy: Strategy,
    interval: u64,
    plan: FaultPlan,
) -> (u64, RunResult) {
    install_quiet_hook();
    let (prog_a, mut store_a) = mk_stencil();
    let roots = prog_a.root_regions();
    let a = strategy.compile(prog_a, 3);
    let plain = run(a.as_ref(), &mut store_a, &RunOptions::default());

    let (prog_b, mut store_b) = mk_stencil();
    let mut b = strategy.compile(prog_b, 3);
    let tracer = Tracer::enabled();
    let opts = RunOptions::traced(&tracer).with_resilience(ResilienceOptions {
        checkpoint_interval: interval,
        plan,
        ..Default::default()
    });
    let r = run_failover(b.as_mut(), &mut store_b, &opts, &FailoverOptions::default());
    let trace = tracer.take();
    assert_eq!(r.attempts, 2, "{strategy:?}: the kill must fail attempt 1");
    assert_eq!(r.final_shards, 2, "{strategy:?}");

    assert_eq!(plain.env, r.run.env, "scalar env diverged across resume");
    let (here_a, here_b) = ((forest(&a), &store_a), (forest(&b), &store_b));
    compare_roots("undisturbed vs resumed", &roots, here_a, here_b, 0.0);
    certify(
        &format!("{strategy:?}: resumed trace"),
        trace_forest(&b),
        &trace,
    );
    assert!(
        r.run.stats.tasks_executed < plain.stats.tasks_executed,
        "{strategy:?}: attempt 2 must fast-forward past committed epochs ({} vs {} tasks)",
        r.run.stats.tasks_executed,
        plain.stats.tasks_executed
    );
    let resumed: Vec<u64> = trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e.kind {
            EventKind::MembershipChange { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect();
    let [resume_epoch] = resumed[..] else {
        panic!("{strategy:?}: one membership change expected, got {resumed:?}");
    };
    (resume_epoch, r.run)
}

#[test]
fn rescue_resumes_across_attempts() {
    // A failed attempt leaves its committed per-segment checkpoints in
    // the failover loop's rescue, and the retry at N-1 fast-forwards
    // from them instead of re-executing from scratch.
    for strategy in [Strategy::Spmd, Strategy::Hybrid] {
        // The kill fires at epoch 2, after that boundary's checkpoint
        // was offered, so the epoch-2 checkpoint commits before the
        // attempt dies.
        let plan = FaultPlan::new(13).kill_shard(1, 2);
        let (resume_epoch, _) = resume_after_a_killed_attempt(strategy, 1, plan);
        assert!(resume_epoch >= 2, "epoch-2 snapshot must have committed");
    }
}

#[test]
fn resume_then_rollback_is_bit_identical() {
    // A resumed attempt keeps the committed part it installed as its
    // rollback target. Checkpoints every 2 epochs: attempt 1 commits
    // epoch 2 and dies there; attempt 2 resumes at N-1 at epoch 2,
    // whose checkpoint is then already live, and its crash at epoch 3
    // rolls every shard back to the installed part. Its one checkpoint
    // of its own is epoch 4's.
    for strategy in [Strategy::Spmd, Strategy::Hybrid] {
        let plan = FaultPlan::new(13).kill_shard(1, 2).crash_shard(0, 3);
        let (resume_epoch, r2) = resume_after_a_killed_attempt(strategy, 2, plan);
        assert_eq!(resume_epoch, 2, "{strategy:?}");
        assert_eq!(r2.per_shard.len(), 2, "{strategy:?}");
        for (shard, s) in r2.per_shard.iter().enumerate() {
            assert_eq!(s.restores, 1, "{strategy:?}: shard {shard}");
            assert_eq!(s.epochs_replayed, 1, "{strategy:?}: shard {shard}");
            assert_eq!(s.checkpoints, 1, "{strategy:?}: shard {shard}");
        }
    }
}

/// One seeded chaos case: a randomized kill schedule against one
/// strategy, asserting bit-identity with the undisturbed run, a
/// Spy-certified trace, and consistent membership accounting.
/// A shard that *stalls* (no panic, no exit — it just stops producing)
/// past the run's hang timeout must be blamed `Hung` by the peers
/// waiting on its messages, evicted from the membership, and the run
/// completed bit-identically by the survivors. The timeout is the
/// run's own: a second team in the same process, at the same time,
/// under the same stall but the default timeout, waits the stall out.
#[test]
fn stalled_shard_is_blamed_hung_and_evicted() {
    install_quiet_hook();
    let (prog_a, mut store_a) = mk_stencil();
    let roots = prog_a.root_regions();
    let a = Strategy::Spmd.compile(prog_a, 3);
    let plain = run(a.as_ref(), &mut store_a, &RunOptions::default());

    let (prog_b, mut store_b) = mk_stencil();
    let mut b = Strategy::Spmd.compile(prog_b, 3);
    // Stall shard 1 for 4x the hang timeout at the epoch-2 boundary:
    // its peers' bounded waits expire first and blame it on the death
    // board; the woken victim then dies on the poisoned collectives.
    let patient = RunOptions::default().with_resilience(ResilienceOptions {
        checkpoint_interval: 2,
        plan: FaultPlan::new(17).stall_shard(1, 2, 2_000),
        ..Default::default()
    });
    assert!(patient.hang_timeout > Duration::from_millis(2_000));
    let opts = RunOptions {
        hang_timeout: Duration::from_millis(500),
        ..patient.clone()
    };
    let (prog_c, mut store_c) = mk_stencil();
    let c = Strategy::Spmd.compile(prog_c, 3);
    let (r, waited_out) = std::thread::scope(|scope| {
        let patient = scope.spawn(|| run(c.as_ref(), &mut store_c, &patient));
        let r = run_failover(b.as_mut(), &mut store_b, &opts, &FailoverOptions::default());
        (
            r,
            patient
                .join()
                .expect("a stall inside the timeout is no failure"),
        )
    });
    assert_eq!(plain.env, waited_out.env, "the patient team diverged");
    assert_eq!(
        waited_out.per_shard.len(),
        3,
        "the patient team lost nobody"
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
    let (here_a, here_b) = ((forest(&a), &store_a), (forest(&b), &store_b));
    compare_roots("undisturbed vs evicted", &roots, here_a, here_b, 0.0);
}

fn chaos_case(mk: &dyn Fn() -> (Program, Store), ns: usize, seed: u64, strategy: Strategy) {
    let plan = FaultPlan::seeded_kill(seed, ns, 3);
    assert_fails_over(strategy, mk, ns, plan, &FailoverOptions::default(), None);
}

#[test]
fn failover_chaos_smoke() {
    // The non-ignored slice of the soak: a couple of seeds per
    // strategy on the cheapest app.
    for seed in [3, 8] {
        chaos_case(&mk_stencil, 3, seed, Strategy::Spmd);
    }
    chaos_case(&mk_stencil, 3, 5, Strategy::Hybrid);
    chaos_case(&mk_stencil, 3, 5, Strategy::Log);
}

/// The chaos soak the CI `failover-soak` job runs: randomized kill
/// schedules × four apps × all three failover-capable strategies.
/// `#[ignore]`d so the plain suite stays fast; run with
/// `cargo test -p regent-apps --test failover -- --ignored`.
#[test]
#[ignore = "chaos soak: run explicitly in the failover-soak CI job"]
fn failover_chaos_soak() {
    type AppFactory<'a> = &'a dyn Fn() -> (Program, Store);
    let pennant = || mk_pennant(5e-3);
    let apps: [(&str, AppFactory); 4] = [
        ("stencil", &mk_stencil),
        ("circuit", &mk_circuit),
        ("miniaero", &mk_miniaero),
        ("pennant", &pennant),
    ];
    for (name, mk) in apps {
        for strategy in Strategy::ALL {
            for seed in 0..4u64 {
                eprintln!("soak: {name}/{strategy:?} seed {seed}");
                chaos_case(mk, 3, seed, strategy);
            }
        }
    }
}
