//! Critical-path blame attribution on real executions of the four
//! evaluation applications.
//!
//! Two invariants per app, over both executors:
//!
//! 1. The per-phase blame decomposition sums exactly to the
//!    critical-path length (nothing on the path is unattributed).
//! 2. The SPMD executor attributes *strictly less* time to
//!    `DepAnalysis` than the implicit executor — the paper's central
//!    claim: control replication compiles the control thread's O(N)
//!    dynamic dependence analysis away entirely, so the SPMD trace
//!    contains no analysis at all while the implicit one must.

use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_cr::{control_replicate, CrOptions};
use regent_ir::{Program, Store};
use regent_runtime::{execute_implicit, run, Compiled, ImplicitOptions, RunOptions};
use regent_trace::{blame_report, classify, Blame, BlameReport, EventKind, Phase, Trace, Tracer};

/// One executor's observability record: the critical-path blame report
/// plus the whole-trace per-phase time (every span, on or off the
/// path).
struct ExecRecord {
    report: BlameReport,
    phase_totals: Blame,
}

/// Sums every span's duration into its phase, across all tracks.
fn phase_totals(trace: &Trace) -> Blame {
    let mut b = Blame::default();
    for t in &trace.tracks {
        for e in &t.events {
            if e.dur > 0 {
                b.add(classify(&e.kind), e.dur);
            }
        }
    }
    b
}

fn record(trace: &Trace, exec: &str) -> ExecRecord {
    ExecRecord {
        report: blame_report(trace).unwrap_or_else(|e| panic!("{exec} trace malformed: {e}")),
        phase_totals: phase_totals(trace),
    }
}

/// Runs an app under both executors with tracing and returns the two
/// records `(implicit, spmd)`. `build` constructs a fresh initialized
/// `(Program, Store)` pair per executor (programs are consumed by
/// `control_replicate`, so each run rebuilds its own).
fn blame_both(build: impl Fn() -> (Program, Store)) -> (ExecRecord, ExecRecord) {
    let (prog, mut store) = build();
    let tracer = Tracer::enabled();
    let opts = ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(4)
    };
    let (_, stats) = execute_implicit(&prog, &mut store, opts);
    assert!(stats.tasks_launched > 0);
    let implicit = record(&tracer.take(), "implicit");

    let (prog, mut store) = build();
    let spmd = control_replicate(prog, &CrOptions::new(3)).unwrap();
    let tracer = Tracer::enabled();
    run(
        Compiled::Spmd(&spmd),
        &mut store,
        &RunOptions::traced(&tracer),
    );
    let spmd_rec = record(&tracer.take(), "spmd");
    (implicit, spmd_rec)
}

/// The two invariants, applied to one app's pair of records.
fn assert_blame_invariants(app: &str, implicit: &ExecRecord, spmd: &ExecRecord) {
    for (exec, rec) in [("implicit", implicit), ("spmd", spmd)] {
        assert_eq!(
            rec.report.total.total(),
            rec.report.critical_path_ns,
            "{app}/{exec}: blame must sum to the critical-path length"
        );
        assert!(
            rec.report.critical_path_ns > 0,
            "{app}/{exec}: empty critical path"
        );
    }
    let imp_dep = implicit.phase_totals.get(Phase::DepAnalysis);
    let spmd_dep = spmd.phase_totals.get(Phase::DepAnalysis);
    assert!(
        imp_dep > 0,
        "{app}: implicit executor must spend time in dependence analysis"
    );
    assert_eq!(
        spmd_dep, 0,
        "{app}: the SPMD executor must record no dependence analysis at all"
    );
    assert!(
        spmd_dep < imp_dep,
        "{app}: SPMD DepAnalysis time ({spmd_dep} ns) must be strictly below implicit ({imp_dep} ns)"
    );
}

/// Pairwise dependence checks recorded by every `DepAnalysis` span of
/// a trace — the analysis *work*, which unlike its duration is a
/// function of the program and the strategy alone.
fn dep_checks(trace: &Trace) -> u64 {
    trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .map(|e| match e.kind {
            EventKind::DepAnalysis { checks, .. } => u64::from(checks),
            _ => 0,
        })
        .sum()
}

/// The shared-log executor's amortization acceptance: at 8 shards, the
/// per-replica once-per-batch dependence analysis must do strictly
/// less work than the implicit executor's per-task analysis of the
/// same program — while still being nonzero (the log path *does*
/// analyze, unlike SPMD whose compile-time transform removes analysis
/// entirely) — and its sequencer/consume time lands in the dedicated
/// `log_control` phase. Work is compared in checks, not nanoseconds:
/// an implicit check is a mask test and a table lookup, so the
/// durations of a few hundred of them and of the log's handful of
/// deduplicated analyses are both down in timer noise.
#[test]
fn blame_log_amortizes_analysis_below_implicit() {
    let cfg = stencil::StencilConfig {
        n: 64,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 4,
    };
    let build = || {
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    };

    let (prog, mut store) = build();
    let tracer = Tracer::enabled();
    let opts = ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(4)
    };
    let (_, stats) = execute_implicit(&prog, &mut store, opts);
    assert!(stats.tasks_launched > 0);
    let imp_checks = dep_checks(&tracer.take());
    assert!(imp_checks > 0, "implicit must analyze");

    let (prog, mut store) = build();
    let spmd = control_replicate(prog, &CrOptions::new(8)).unwrap();
    let tracer = Tracer::enabled();
    let r = run(
        Compiled::Log(&spmd),
        &mut store,
        &RunOptions::traced(&tracer),
    );
    assert!(r.log.batches > 0);
    let trace = tracer.take();
    let log_checks = dep_checks(&trace);
    let log = phase_totals(&trace);
    assert!(
        log_checks > 0,
        "the log executor's replica leaders must record their analysis"
    );
    assert!(
        log_checks < imp_checks,
        "per-replica per-batch analysis ({log_checks} checks) must amortize strictly \
         below implicit's per-task analysis ({imp_checks} checks) at 8 shards"
    );
    assert!(
        log.get(Phase::LogControl) > 0,
        "append/combine/consume time must land in the log_control phase"
    );
}

#[test]
fn blame_stencil() {
    let cfg = stencil::StencilConfig {
        n: 40,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 4,
    };
    let (implicit, spmd) = blame_both(|| {
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        (prog, store)
    });
    assert_blame_invariants("stencil", &implicit, &spmd);
}

#[test]
fn blame_circuit() {
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
    let (implicit, spmd) = blame_both(|| {
        let (prog, h) = circuit::circuit_program(cfg, &g);
        let mut store = Store::new(&prog);
        circuit::init_circuit(&prog, &mut store, &h, &g);
        (prog, store)
    });
    assert_blame_invariants("circuit", &implicit, &spmd);
}

#[test]
fn blame_miniaero() {
    let cfg = miniaero::MiniAeroConfig {
        nx: 12,
        ny: 4,
        nz: 3,
        pieces: 4,
        steps: 3,
        dt: 5e-4,
    };
    let mesh = miniaero::build_mesh(&cfg);
    let (implicit, spmd) = blame_both(|| {
        let (prog, h) = miniaero::miniaero_program(cfg, &mesh);
        let mut store = Store::new(&prog);
        miniaero::init_miniaero(&prog, &mut store, &h, &cfg, &mesh);
        (prog, store)
    });
    assert_blame_invariants("miniaero", &implicit, &spmd);
}

#[test]
fn blame_pennant() {
    let cfg = pennant::PennantConfig {
        nzx: 10,
        nzy: 5,
        pieces: 3,
        tstop: 2e-2,
        dtmax: 2e-2,
    };
    let mesh = pennant::build_mesh(&cfg);
    let (implicit, spmd) = blame_both(|| {
        let (prog, h) = pennant::pennant_program(cfg, &mesh);
        let mut store = Store::new(&prog);
        pennant::init_pennant(&prog, &mut store, &h, &cfg, &mesh);
        (prog, store)
    });
    assert_blame_invariants("pennant", &implicit, &spmd);
}
