//! The implicit executor extracts the parallelism the program exposes —
//! asserted on the *structure* of a traced run, never on its timing.
//!
//! A 2×1 Stencil launches `stencil(tile_i: RW out, halo_i: R in)` for
//! two tiles. `halo_1` overlaps `tile_0`, but one argument touches
//! `out` and the other `in`: the two point tasks share no field they
//! both write, so nothing may order them. `increment_in(tile_i: RW in)`
//! does conflict with both (each halo reaches into the other tile), so
//! it must stay ordered after both. The happens-before graph rebuilt
//! from the event log has to show exactly that, the Spy validator has
//! to certify the log, and the regions have to equal the sequential
//! interpreter's bit for bit — analysed or replayed from a memo
//! template.

use regent_apps::stencil;
use regent_cr::ForestOracle;
use regent_ir::{interp, Program, Store};
use regent_runtime::{execute_implicit, ImplicitOptions, ImplicitStats, MemoCache};
use regent_trace::{build_graph, validate, Trace, Tracer};

fn config(ntx: usize, nty: usize, steps: u64) -> stencil::StencilConfig {
    stencil::StencilConfig {
        n: 32,
        ntx,
        nty,
        radius: 2,
        steps,
    }
}

fn build(cfg: stencil::StencilConfig) -> (Program, Store, stencil::StencilHandles) {
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    (prog, store, h)
}

/// A traced two-worker implicit run, checked against `interp::run`.
fn traced_run(cfg: stencil::StencilConfig, memo: bool) -> (Program, Trace, ImplicitStats) {
    let (prog, mut store, h) = build(cfg);
    let tracer = Tracer::enabled();
    let mut opts = ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(2)
    };
    if memo {
        opts = opts.with_memo(MemoCache::shared());
    }
    let (_, stats) = execute_implicit(&prog, &mut store, opts);

    let (ref_prog, mut ref_store, _) = build(cfg);
    interp::run(&ref_prog, &mut ref_store);
    assert_eq!(
        store.instance(&prog, h.grid).checksum(),
        ref_store.instance(&ref_prog, h.grid).checksum(),
        "implicit run (memo={memo}) differs from the sequential interpreter"
    );
    (prog, tracer.take(), stats)
}

fn assert_stencil_structure(memo: bool) {
    let steps = 4;
    let (prog, trace, stats) = traced_run(config(2, 1, steps), memo);
    if memo {
        assert_eq!(stats.memo_captures, 1);
        assert_eq!(stats.memo_hits, steps - 1, "later epochs are replayed");
    }

    let oracle = ForestOracle::new(&prog.forest);
    let report = validate(&trace, &oracle).expect("structurally valid log");
    assert!(report.ok(), "spy violations: {:?}", report.violations);
    assert!(report.certified > 0);

    let g = build_graph(&trace).unwrap();
    let run = |launch: u64, pos: u32| {
        g.run_of(launch as u32, pos)
            .unwrap_or_else(|| panic!("no run recorded for launch {launch} point {pos}"))
    };
    for step in 0..steps {
        // Launches alternate: stencil, increment_in, stencil, …
        let (s0, s1) = (run(2 * step, 0), run(2 * step, 1));
        assert!(
            !g.reaches(s0, s1) && !g.reaches(s1, s0),
            "step {step} (memo={memo}): the two stencil tasks write disjoint tiles of `out` \
             and only read `in` — nothing may order them"
        );
        for pos in 0..2 {
            let inc = run(2 * step + 1, pos);
            assert!(
                g.reaches(s0, inc) && g.reaches(s1, inc),
                "step {step} (memo={memo}): increment_in[{pos}] overwrites `in` elements both \
                 stencil tasks read"
            );
        }
        let (i0, i1) = (run(2 * step + 1, 0), run(2 * step + 1, 1));
        assert!(!g.reaches(i0, i1) && !g.reaches(i1, i0));
    }
}

#[test]
fn stencil_points_of_one_launch_are_unordered() {
    assert_stencil_structure(false);
}

#[test]
fn stencil_points_stay_unordered_when_replayed() {
    assert_stencil_structure(true);
}

/// The window holds what a later task may still have to be ordered
/// after, not the history of the run: its peak is the same for 3 steps
/// and for 12, and every step past the first costs the same number of
/// checks (both counts are functions of the program, not of timing).
#[test]
fn window_does_not_grow_with_the_step_count() {
    let stats = |steps| traced_run(config(4, 4, steps), false).2;
    let (s3, s6, s12) = (stats(3), stats(6), stats(12));
    assert_eq!(s3.max_window, s12.max_window);
    // One step's records: 16 × (stencil: 2 accesses + increment_in: 1).
    assert!(s12.max_window <= 48, "max_window {}", s12.max_window);
    assert_eq!(
        s12.dependence_checks - s6.dependence_checks,
        2 * (s6.dependence_checks - s3.dependence_checks),
        "analysis work per step must not depend on how many steps came before"
    );
}
