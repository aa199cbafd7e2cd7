//! What the application suites share: the three SPMD-family strategies
//! as one value to iterate over, the evaluation apps at test sizes, and
//! the comparison / certification / recovery bodies that used to exist
//! once per strategy.

#![allow(dead_code)] // every test binary uses its own subset

use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_cr::hybrid::{replicate_ranges, HybridProgram, Segment};
use regent_cr::{control_replicate, CrOptions, ForestOracle, SpmdProgram};
use regent_ir::{Program, Store};
use regent_region::{FieldType, RegionForest, RegionId};
use regent_runtime::{run, Compiled, ResilienceOptions, RunOptions, RunResult};
use regent_trace::{validate, EventKind, Trace, Tracer};

/// A program compiled for (and tagged with) one strategy.
pub type Owned = Compiled<SpmdProgram, HybridProgram>;

/// The SPMD-family strategies, for tests that hold one body for all of
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    Spmd,
    Hybrid,
    Log,
}

impl Strategy {
    pub const ALL: [Strategy; 3] = [Strategy::Spmd, Strategy::Hybrid, Strategy::Log];

    pub fn compile(self, prog: Program, ns: usize) -> Owned {
        let opts = CrOptions::new(ns);
        match self {
            Strategy::Spmd => Compiled::Spmd(control_replicate(prog, &opts).unwrap()),
            Strategy::Log => Compiled::Log(control_replicate(prog, &opts).unwrap()),
            Strategy::Hybrid => Compiled::Hybrid(replicate_ranges(prog, &opts).unwrap()),
        }
    }
}

/// The forest the root store of `compiled` is addressed through.
pub fn forest(compiled: &Owned) -> &RegionForest {
    match compiled {
        Compiled::Spmd(spmd) | Compiled::Log(spmd) => &spmd.forest,
        Compiled::Hybrid(hybrid) => &hybrid.base.forest,
    }
}

/// The program the shards of `compiled` run: for a hybrid program, its
/// (single, in the apps) replicated segment.
pub fn replicated(compiled: &Owned) -> &SpmdProgram {
    match compiled {
        Compiled::Spmd(spmd) | Compiled::Log(spmd) => spmd,
        Compiled::Hybrid(hybrid) => hybrid
            .segments
            .iter()
            .find_map(|s| match s {
                Segment::Replicated(spmd) => Some(spmd),
                Segment::Sequential(_) => None,
            })
            .expect("hybrid program without a replicated segment"),
    }
}

/// The forest a trace of `compiled` names regions of: the replicated
/// program's, which holds the normalization partitions the shards
/// access.
pub fn trace_forest(compiled: &Owned) -> &RegionForest {
    &replicated(compiled).forest
}

/// The shard count of (every replicated segment of) `compiled`.
pub fn num_shards(compiled: &Owned) -> usize {
    replicated(compiled).num_shards
}

pub fn mk_stencil() -> (Program, Store) {
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
}

pub fn mk_circuit() -> (Program, Store) {
    let cfg = circuit::CircuitConfig {
        pieces: 6,
        nodes_per_piece: 30,
        wires_per_piece: 90,
        cross_fraction: 0.12,
        steps: 4,
        substeps: 3,
        seed: 42,
    };
    let g = circuit::generate_graph(&cfg);
    let (prog, h) = circuit::circuit_program(cfg, &g);
    let mut store = Store::new(&prog);
    circuit::init_circuit(&prog, &mut store, &h, &g);
    (prog, store)
}

pub fn mk_miniaero() -> (Program, Store) {
    let cfg = miniaero::MiniAeroConfig {
        nx: 12,
        ny: 4,
        nz: 3,
        pieces: 4,
        steps: 4,
        dt: 5e-4,
    };
    let mesh = miniaero::build_mesh(&cfg);
    let (prog, h) = miniaero::miniaero_program(cfg, &mesh);
    let mut store = Store::new(&prog);
    miniaero::init_miniaero(&prog, &mut store, &h, &cfg, &mesh);
    (prog, store)
}

/// PENNANT to `tstop` = 2e-2: `dtmax` = 2e-2 is the short run, a
/// `dtmax` well below it makes the `While` loop take several steps.
pub fn mk_pennant(dtmax: f64) -> (Program, Store) {
    let cfg = pennant::PennantConfig {
        nzx: 10,
        nzy: 5,
        pieces: 3,
        tstop: 2e-2,
        dtmax,
    };
    let mesh = pennant::build_mesh(&cfg);
    let (prog, h) = pennant::pennant_program(cfg, &mesh);
    let mut store = Store::new(&prog);
    pennant::init_pennant(&prog, &mut store, &h, &cfg, &mesh);
    (prog, store)
}

/// Compares every root region of two executions. `rel_tol == 0.0`
/// demands bit-identical f64 contents (NaN bit patterns included).
pub fn compare_roots(
    label: &str,
    roots: &[RegionId],
    (fa, sa): (&RegionForest, &Store),
    (fb, sb): (&RegionForest, &Store),
    rel_tol: f64,
) {
    for &root in roots {
        let ia = sa.instance_in(fa, root);
        let ib = sb.instance_in(fb, root);
        for (fid, def) in fa.fields(root).iter() {
            for p in fa.domain(root).iter() {
                match def.ty {
                    FieldType::F64 => {
                        let a = ia.read_f64(fid, p);
                        let b = ib.read_f64(fid, p);
                        let agree = if rel_tol == 0.0 {
                            a.to_bits() == b.to_bits()
                        } else {
                            (a - b).abs() <= rel_tol * a.abs().max(b.abs()).max(1.0)
                        };
                        assert!(
                            agree,
                            "{label}: field {:?} at {:?}: {a} vs {b}",
                            def.name, p
                        );
                    }
                    FieldType::I64 => {
                        assert_eq!(
                            ia.read_i64(fid, p),
                            ib.read_i64(fid, p),
                            "{label}: field {:?} at {:?}",
                            def.name,
                            p
                        );
                    }
                }
            }
        }
    }
}

/// Spy-certifies a trace against the given forest's overlap oracle.
pub fn certify(label: &str, forest: &RegionForest, trace: &Trace) {
    let oracle = ForestOracle::new(forest);
    let report = validate(trace, &oracle).unwrap_or_else(|e| panic!("{label}: corrupt log: {e}"));
    assert!(
        report.ok(),
        "{label}: spy violations ({} certified):\n{:?}",
        report.certified,
        report.violations
    );
    assert!(report.certified > 0, "{label}: no dependences exercised");
}

/// Number of events in `trace` (on any track) satisfying `pred`.
pub fn count_events(trace: &Trace, pred: impl Fn(&EventKind) -> bool) -> usize {
    trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| pred(&e.kind))
        .count()
}

/// One app through SPMD, hybrid and shared-log at `ns` shards under
/// `opts` (whose tracer is replaced), each traced and Spy-certified: SPMD matches the sequential `reference`
/// (its env exactly, its regions under `tol`); hybrid — the apps'
/// bodies are a single replicable range, so both paths execute the
/// identical sharded schedule — matches the SPMD run bit for bit; the
/// log shares the SPMD data plane, so its regions match the SPMD run
/// bit for bit, and scalar feedback keeps its env exact.
pub fn spmd_family_agrees(
    label: &str,
    mk: &dyn Fn() -> (Program, Store),
    ns: usize,
    tol: f64,
    (env_seq, forest_seq, store_seq): (&[f64], &RegionForest, &Store),
    roots: &[RegionId],
    opts: &RunOptions,
) {
    let cell = |strategy: Strategy| {
        let (prog, mut store) = mk();
        let compiled = strategy.compile(prog, ns);
        let tracer = Tracer::enabled();
        let traced = RunOptions {
            tracer: tracer.clone(),
            ..opts.clone()
        };
        let r = run(compiled.as_ref(), &mut store, &traced);
        let label = format!("{label}/{strategy:?} ns={ns}");
        certify(&label, trace_forest(&compiled), &tracer.take());
        (label, compiled, store, r)
    };
    let reference = (forest_seq, store_seq);

    let (label, spmd, store_spmd, r) = cell(Strategy::Spmd);
    let spmd_run = (forest(&spmd), &store_spmd);
    assert_eq!(env_seq, r.env, "{label}: env diverged");
    compare_roots(&label, roots, reference, spmd_run, tol);

    let (label, hybrid, store_h, rh) = cell(Strategy::Hybrid);
    assert!(
        matches!(&hybrid, Compiled::Hybrid(h) if h.num_replicated() == 1),
        "{label}: app body should be one replicable range"
    );
    assert_eq!(r.env, rh.env, "{label}: env diverged");
    compare_roots(&label, roots, spmd_run, (forest(&hybrid), &store_h), 0.0);

    let (label, log, store_l, rl) = cell(Strategy::Log);
    let log_run = (forest(&log), &store_l);
    assert_eq!(env_seq, rl.env, "{label}: env diverged");
    assert!(
        rl.log.batches > 0 && rl.log.appended_records > 0,
        "{label}: log never combined ({:?})",
        rl.log
    );
    compare_roots(&format!("{label} vs spmd"), roots, spmd_run, log_run, 0.0);
    compare_roots(&label, roots, reference, log_run, tol);
}

/// Runs `mk`'s program under `strategy` fault-free and resilient
/// (traced), asserts bit-identical results and equal useful-work
/// statistics, certifies the recovered trace, checks that a recovery
/// that happened left its marks in it, and returns the resilient
/// result for extra assertions.
pub fn assert_recovers(
    strategy: Strategy,
    mk: impl Fn() -> (Program, Store),
    ns: usize,
    opts: &ResilienceOptions,
) -> RunResult {
    let (prog_a, mut store_a) = mk();
    let roots = prog_a.root_regions();
    let a = strategy.compile(prog_a, ns);
    let plain = run(a.as_ref(), &mut store_a, &RunOptions::default());

    let (prog_b, mut store_b) = mk();
    let b = strategy.compile(prog_b, ns);
    let tracer = Tracer::enabled();
    let traced = RunOptions::traced(&tracer).with_resilience(opts.clone());
    let resilient = run(b.as_ref(), &mut store_b, &traced);
    let trace = tracer.take();

    // Values: bit-identical env and regions; useful-work stats exclude
    // replays and must also match the fault-free run.
    assert_eq!(
        plain.env, resilient.env,
        "scalar env diverged after recovery"
    );
    assert_eq!(plain.stats.tasks_executed, resilient.stats.tasks_executed);
    assert_eq!(plain.stats.copies_executed, resilient.stats.copies_executed);
    assert_eq!(plain.stats.messages_sent, resilient.stats.messages_sent);
    assert_eq!(plain.stats.collectives, resilient.stats.collectives);
    if strategy == Strategy::Log {
        // The log itself must have been exercised.
        assert!(resilient.log.batches > 0 && resilient.log.appended_records > 0);
    }
    let (here_a, here_b) = ((forest(&a), &store_a), (forest(&b), &store_b));
    compare_roots("plain vs recovered", &roots, here_a, here_b, 0.0);

    // Ordering: the Spy certifies the recovered trace.
    certify("recovered trace", trace_forest(&b), &trace);

    // The recovery actually happened and left its marks in the trace.
    if opts.plan.has_crashes() && resilient.per_shard[0].restores > 0 {
        let crashes = count_events(&trace, |k| matches!(k, EventKind::ShardCrash { .. }));
        let restores = count_events(&trace, |k| matches!(k, EventKind::CheckpointRestore { .. }));
        assert!(crashes > 0, "crash never recorded");
        assert_eq!(
            restores as u64, resilient.stats.restores,
            "every shard records each restore"
        );
    }
    resilient
}
