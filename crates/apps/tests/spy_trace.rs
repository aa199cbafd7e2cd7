//! Legion Spy-style validation of real executions: run each evaluation
//! application through control replication with tracing enabled,
//! reconstruct the happens-before graph from the shard event logs, and
//! certify that every RAW/WAR/WAW dependence implied by the tasks'
//! privileges was actually ordered — by program order, a conflict edge,
//! or a delivered copy (§3.4's consumer-applied protocol).
//!
//! This is an independent correctness oracle beside the bit-identical
//! store comparisons of `cr_apps.rs`: those check the *values*, the Spy
//! checks the *ordering mechanism* that produced them.

use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_cr::{control_replicate, CrOptions, ForestOracle, SpmdProgram};
use regent_ir::Store;
use regent_runtime::{run, Compiled, RunOptions};
use regent_trace::{validate, EventKind, SpyReport, Trace, Tracer};

/// Runs an SPMD program with tracing and returns the recorded trace,
/// after checking that every instance id it records (the `inst` of task
/// accesses and copy applies) names an instance of one shard: the Spy
/// reads two accesses with one id as one piece of memory.
fn traced_run(spmd: &SpmdProgram, store: &mut Store) -> Trace {
    let tracer = Tracer::enabled();
    run(Compiled::Spmd(spmd), store, &RunOptions::traced(&tracer));
    let trace = tracer.take();
    let mut owner = std::collections::HashMap::new();
    for track in &trace.tracks {
        for e in &track.events {
            if let EventKind::TaskAccess { inst, .. } | EventKind::CopyApply { inst, .. } = e.kind {
                let first = owner.entry(inst).or_insert(&track.name);
                assert_eq!(*first, &track.name, "instance id {inst:#x} on two shards");
            }
        }
    }
    trace
}

fn certify(spmd: &SpmdProgram, trace: &Trace) -> SpyReport {
    let oracle = ForestOracle::new(&spmd.forest);
    let report = validate(trace, &oracle).expect("structurally valid log");
    assert!(
        report.ok(),
        "spy violations ({} tasks, {} pairs, {} certified):\n{:?}",
        report.tasks,
        report.pairs_checked,
        report.certified,
        report.violations
    );
    assert!(report.certified > 0, "no dependences were exercised");
    report
}

#[test]
fn spy_certifies_stencil() {
    let cfg = stencil::StencilConfig {
        n: 40,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 4,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    let spmd = control_replicate(prog, &CrOptions::new(3)).unwrap();
    let trace = traced_run(&spmd, &mut store);
    certify(&spmd, &trace);
    // Halo exchange across shards: certification must have rested on
    // actual copy deliveries, not just program order.
    let applies: usize = trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, EventKind::CopyApply { .. }))
        .count();
    assert!(applies > 0, "stencil must exchange halos across shards");
}

#[test]
fn spy_certifies_circuit() {
    let cfg = circuit::CircuitConfig {
        pieces: 6,
        nodes_per_piece: 30,
        wires_per_piece: 90,
        cross_fraction: 0.12,
        steps: 3,
        substeps: 4,
        seed: 42,
    };
    let g = circuit::generate_graph(&cfg);
    let (prog, h) = circuit::circuit_program(cfg, &g);
    let mut store = Store::new(&prog);
    circuit::init_circuit(&prog, &mut store, &h, &g);
    let spmd = control_replicate(prog, &CrOptions::new(3)).unwrap();
    let trace = traced_run(&spmd, &mut store);
    certify(&spmd, &trace);
}

#[test]
fn spy_certifies_miniaero() {
    let cfg = miniaero::MiniAeroConfig {
        nx: 12,
        ny: 4,
        nz: 3,
        pieces: 4,
        steps: 3,
        dt: 5e-4,
    };
    let mesh = miniaero::build_mesh(&cfg);
    let (prog, h) = miniaero::miniaero_program(cfg, &mesh);
    let mut store = Store::new(&prog);
    miniaero::init_miniaero(&prog, &mut store, &h, &cfg, &mesh);
    let spmd = control_replicate(prog, &CrOptions::new(3)).unwrap();
    let trace = traced_run(&spmd, &mut store);
    certify(&spmd, &trace);
}

#[test]
fn spy_certifies_pennant() {
    let cfg = pennant::PennantConfig {
        nzx: 10,
        nzy: 5,
        pieces: 3,
        tstop: 2e-2,
        dtmax: 2e-2,
    };
    let mesh = pennant::build_mesh(&cfg);
    let (prog, h) = pennant::pennant_program(cfg, &mesh);
    let mut store = Store::new(&prog);
    pennant::init_pennant(&prog, &mut store, &h, &cfg, &mesh);
    let spmd = control_replicate(prog, &CrOptions::new(3)).unwrap();
    let trace = traced_run(&spmd, &mut store);
    certify(&spmd, &trace);
}

#[test]
fn spy_certifies_stencil_under_implicit_executor() {
    use regent_runtime::{execute_implicit, ImplicitOptions};
    let cfg = stencil::StencilConfig {
        n: 32,
        ntx: 2,
        nty: 2,
        radius: 2,
        steps: 3,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    let tracer = Tracer::enabled();
    let opts = ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(4)
    };
    let (_, stats) = execute_implicit(&prog, &mut store, opts);
    assert!(stats.tasks_launched > 0);
    let trace = tracer.take();
    let oracle = ForestOracle::new(&prog.forest);
    let report = validate(&trace, &oracle).expect("structurally valid log");
    assert!(report.ok(), "spy violations: {:?}", report.violations);
    assert!(report.certified > 0);
}

/// Corrupting the log must be detected, in both the structural and the
/// semantic direction — this is what makes a passing Spy report
/// meaningful.
#[test]
fn spy_fails_on_corrupted_log() {
    let cfg = stencil::StencilConfig {
        n: 32,
        ntx: 2,
        nty: 2,
        radius: 2,
        steps: 3,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    let spmd = control_replicate(prog, &CrOptions::new(2)).unwrap();
    let trace = traced_run(&spmd, &mut store);
    let oracle = ForestOracle::new(&spmd.forest);
    assert!(validate(&trace, &oracle).unwrap().ok());

    // Drop every CopyApply: cross-shard RAW dependences lose their
    // delivery evidence → "missing-delivery" violations.
    let mut no_applies = Trace {
        tracks: trace.tracks.clone(),
    };
    let mut dropped = 0;
    for t in &mut no_applies.tracks {
        let before = t.events.len();
        t.events
            .retain(|e| !matches!(e.kind, EventKind::CopyApply { .. }));
        dropped += before - t.events.len();
    }
    assert!(dropped > 0, "trace had no applies to corrupt");
    let report = validate(&no_applies, &oracle).unwrap();
    assert!(!report.ok(), "stripped deliveries must fail certification");
    assert!(report
        .violations
        .iter()
        .any(|v| v.kind == "missing-delivery"));

    // Drop every CopyIssue instead: the surviving applies have no
    // producer → structural corruption, reported as an error.
    let mut no_issues = Trace {
        tracks: trace.tracks.clone(),
    };
    for t in &mut no_issues.tracks {
        t.events
            .retain(|e| !matches!(e.kind, EventKind::CopyIssue { .. }));
    }
    let err = validate(&no_issues, &oracle).unwrap_err();
    assert!(err.contains("no matching CopyIssue"), "{err}");
    let _ = h;
}
