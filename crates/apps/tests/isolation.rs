//! Concurrent runs stay isolated. Three runs of different apps under
//! different executors, each recording into a private tracer, share the
//! process with a fourth whose kernel panics. Each survivor must leave
//! exactly what it leaves running alone: a trace that Spy-certifies
//! against its own forest, blames its own critical path and holds as
//! many tasks and conflicting pairs, and a bit-identical store and
//! scalar environment. The panicking run fails on its own, with its
//! kernel's panic as the root cause.

mod common;

use common::{forest, mk_circuit, mk_pennant, mk_stencil, trace_forest, Strategy};
use regent_cr::ForestOracle;
use regent_ir::{Program, Store};
use regent_region::{FieldType, RegionForest, RegionId};
use regent_runtime::{execute_implicit, panic_message, run, ImplicitOptions, RunOptions};
use regent_trace::{blame_report, validate, Trace, Tracer};
use std::sync::Arc;

/// How a case runs: the implicit executor, or `run` for one of the
/// SPMD family.
#[derive(Clone, Copy, Debug)]
enum Exec {
    Implicit,
    Run(Strategy),
}

type Case = (&'static str, fn() -> (Program, Store), Exec);

/// PENNANT with a `While` loop of several steps.
fn mk_pennant_steps() -> (Program, Store) {
    mk_pennant(5e-3)
}

/// Distinct apps and distinct executors: a record that leaked into a
/// neighbour's tracer would certify against the wrong forest.
const CASES: [Case; 3] = [
    ("stencil/spmd", mk_stencil, Exec::Run(Strategy::Spmd)),
    ("circuit/implicit", mk_circuit, Exec::Implicit),
    ("pennant/log", mk_pennant_steps, Exec::Run(Strategy::Log)),
];

/// What a run leaves that must not depend on its neighbours.
struct Fingerprint {
    /// Distinct tasks and conflicting access pairs in its trace.
    tasks: usize,
    pairs: usize,
    /// The bits of its scalar environment, then of every root field.
    contents: Vec<u64>,
}

/// Checks `trace` against `trace_forest` and reads the fingerprint of a
/// finished run out of it, `env` and the `roots` of `store`.
fn fingerprint(
    label: &str,
    trace_forest: &RegionForest,
    (forest, store): (&RegionForest, &Store),
    roots: &[RegionId],
    env: &[f64],
    trace: &Trace,
) -> Fingerprint {
    let report = validate(trace, &ForestOracle::new(trace_forest))
        .unwrap_or_else(|e| panic!("{label}: corrupt log: {e}"));
    assert!(
        report.ok() && report.certified > 0,
        "{label}: {}",
        report.summary()
    );
    let blame = blame_report(trace).unwrap_or_else(|e| panic!("{label}: blame: {e}"));
    assert_eq!(
        blame.total.total(),
        blame.critical_path_ns,
        "{label}: blame does not sum to this run's own critical path"
    );
    let mut contents: Vec<u64> = env.iter().map(|v| v.to_bits()).collect();
    for &root in roots {
        let inst = store.instance_in(forest, root);
        for (fid, def) in forest.fields(root).iter() {
            contents.extend(forest.domain(root).iter().map(|p| match def.ty {
                FieldType::F64 => inst.read_f64(fid, p).to_bits(),
                FieldType::I64 => inst.read_i64(fid, p) as u64,
            }));
        }
    }
    Fingerprint {
        tasks: report.tasks,
        pairs: report.pairs_checked,
        contents,
    }
}

/// Runs one case under a private tracer.
fn run_case((label, mk, exec): Case) -> Fingerprint {
    let (prog, mut store) = mk();
    let roots = prog.root_regions();
    let tracer = Tracer::enabled();
    match exec {
        Exec::Implicit => {
            let opts = ImplicitOptions {
                tracer: Arc::clone(&tracer),
                ..ImplicitOptions::with_workers(2)
            };
            let (env, _) = execute_implicit(&prog, &mut store, opts);
            let here = (&prog.forest, &store);
            fingerprint(label, &prog.forest, here, &roots, &env, &tracer.take())
        }
        Exec::Run(strategy) => {
            let compiled = strategy.compile(prog, 2);
            let r = run(compiled.as_ref(), &mut store, &RunOptions::traced(&tracer));
            let here = (forest(&compiled), &store);
            let trace = tracer.take();
            fingerprint(label, trace_forest(&compiled), here, &roots, &r.env, &trace)
        }
    }
}

/// Stencil under SPMD with every kernel replaced by one that panics;
/// returns the diagnostic the run fails with.
fn run_bomb() -> String {
    let (mut prog, mut store) = mk_stencil();
    for task in &mut prog.tasks {
        task.kernel = Arc::new(|_| panic!("kernel bug: boom"));
    }
    let compiled = Strategy::Spmd.compile(prog, 2);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(compiled.as_ref(), &mut store, &RunOptions::default())
    }))
    .expect_err("the panicking kernel must fail its run");
    panic_message(payload.as_ref())
}

/// Runs every case alone, then all of them at once beside the panicking
/// run; returns the solo fingerprints, the concurrent ones and the
/// panicking run's diagnostic.
fn solo_and_beside_bomb() -> (Vec<Fingerprint>, Vec<Fingerprint>, String) {
    let solo: Vec<Fingerprint> = CASES.into_iter().map(run_case).collect();
    let (together, bomb) = std::thread::scope(|s| {
        let runs: Vec<_> = CASES
            .into_iter()
            .map(|case| s.spawn(move || run_case(case)))
            .collect();
        let bomb = s.spawn(run_bomb);
        let together: Vec<Fingerprint> = runs
            .into_iter()
            .map(|h| h.join().expect("a run beside the panicking one failed"))
            .collect();
        (together, bomb.join().expect("the bomb's failure is caught"))
    });
    (solo, together, bomb)
}

/// The panicking run fails on its own, reporting its kernel's panic as
/// the root cause, and every run beside it leaves the store and
/// environment of its solo run.
#[test]
fn panicking_run_leaves_neighbours_bit_identical() {
    let (solo, together, bomb) = solo_and_beside_bomb();
    assert!(bomb.starts_with("shard "), "{bomb}");
    assert!(bomb.contains("panicked: kernel bug: boom"), "{bomb}");
    for ((label, ..), (a, b)) in CASES.iter().zip(solo.iter().zip(&together)) {
        assert!(
            a.contents == b.contents,
            "{label}: the results differ from the solo run's"
        );
    }
}

/// Every concurrent run's private trace Spy-certifies against its own
/// forest, blames its own critical path and holds the tasks and
/// conflicting pairs of its solo run.
#[test]
fn concurrent_runs_certify_private_traces() {
    let (solo, together, _) = solo_and_beside_bomb();
    for ((label, ..), (a, b)) in CASES.iter().zip(solo.iter().zip(&together)) {
        assert_eq!(
            (a.tasks, a.pairs),
            (b.tasks, b.pairs),
            "{label}: the trace differs from the solo run's"
        );
    }
}
