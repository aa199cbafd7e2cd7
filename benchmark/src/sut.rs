//! The adapter: every call from the benchmark into the system under
//! test goes through this file, and no other file names a `regent_*`
//! crate. A change that collapses or renames the system's public API
//! must keep these functions compiling (or re-point them in a
//! `benchmark` PR of its own); `benchmark/README.md` lists the surface.

use regent_apps::{circuit, pennant, stencil};
use regent_cr::{control_replicate, replicate_ranges, CrOptions};
use regent_ir::{interp, Stmt};
use regent_region::{ColumnData, ReductionOp, StripedFnv};
use regent_runtime::metrics::{self, process_cpu_ns};
use regent_runtime::{
    build_exchange_plan, execute_hybrid_traced, execute_implicit, execute_log_traced,
    execute_spmd_resilient_traced, execute_spmd_traced, ring, Counter, DynamicCollective,
    ImplicitOptions, MemoCache, ResilienceOptions, ShardBarrier, Timer,
};
use regent_trace::{blame_report, imbalance_report, Phase};
use std::sync::Arc;

pub use regent_cr::{HybridProgram, SpmdProgram};
pub use regent_ir::{Program, Store};
pub use regent_trace::json;
pub use regent_trace::Tracer;

/// Inputs of one application instance. Everything a workload varies is
/// here; the system receives only the generated inputs, never the seed
/// of a workload's name.
#[derive(Clone, Copy, Debug)]
pub enum AppConfig {
    Stencil(stencil::StencilConfig),
    Circuit(circuit::CircuitConfig),
    Pennant(pennant::PennantConfig),
}

/// `apps`: builds the implicitly parallel program and its initialised
/// store (input generation included: the Circuit graph, the PENNANT
/// mesh).
pub fn build_app(cfg: &AppConfig) -> (Program, Store) {
    match *cfg {
        AppConfig::Stencil(c) => {
            let (prog, h) = stencil::stencil_program(c);
            let mut store = Store::new(&prog);
            stencil::init_stencil(&prog, &mut store, &h);
            (prog, store)
        }
        AppConfig::Circuit(c) => {
            let g = circuit::generate_graph(&c);
            let (prog, h) = circuit::circuit_program(c, &g);
            let mut store = Store::new(&prog);
            circuit::init_circuit(&prog, &mut store, &h, &g);
            (prog, store)
        }
        AppConfig::Pennant(c) => {
            let mesh = pennant::build_mesh(&c);
            let (prog, h) = pennant::pennant_program(c, &mesh);
            let mut store = Store::new(&prog);
            pennant::init_pennant(&prog, &mut store, &h, &c, &mesh);
            (prog, store)
        }
    }
}

pub fn stencil_config(n: u64, ntx: usize, nty: usize, steps: u64) -> AppConfig {
    AppConfig::Stencil(stencil::StencilConfig {
        n,
        ntx,
        nty,
        radius: 2,
        steps,
    })
}

pub fn circuit_config(
    pieces: usize,
    nodes_per_piece: usize,
    wires_per_piece: usize,
    cross_fraction: f64,
    steps: u64,
    seed: u64,
) -> AppConfig {
    AppConfig::Circuit(circuit::CircuitConfig {
        pieces,
        nodes_per_piece,
        wires_per_piece,
        cross_fraction,
        steps,
        substeps: 1,
        seed,
    })
}

pub fn pennant_config(nzx: usize, nzy: usize, pieces: usize, dtmax: f64, tstop: f64) -> AppConfig {
    AppConfig::Pennant(pennant::PennantConfig {
        nzx,
        nzy,
        pieces,
        tstop,
        dtmax,
    })
}

/// A store holding a copy of `initial`'s contents: what every timed
/// run starts from.
pub fn fresh_store(program: &Program, initial: &Store) -> Store {
    let mut store = Store::new(program);
    for r in program.root_regions() {
        store
            .instance_mut(program, r)
            .clone_contents_from(initial.instance(program, r));
    }
    store
}

/// The region contents of a finished run, root by root in region-id
/// order: the columns (for tolerance comparison) and a checksum of
/// their bits (for bit-exact comparison).
pub struct Snapshot {
    pub columns: Vec<Vec<f64>>,
    pub int_columns: Vec<Vec<i64>>,
    pub digest: u64,
}

pub fn snapshot(program: &Program, store: &Store) -> Snapshot {
    let mut snap = Snapshot {
        columns: Vec::new(),
        int_columns: Vec::new(),
        digest: 0,
    };
    let mut h = StripedFnv::new();
    for r in program.root_regions() {
        let inst = store.instance(program, r);
        h.mix(inst.checksum());
        for (fid, _) in program.forest.fields(r).iter() {
            match inst.column(fid) {
                ColumnData::F64(v) => snap.columns.push(v.clone()),
                ColumnData::I64(v) => snap.int_columns.push(v.clone()),
            }
        }
    }
    snap.digest = h.finish();
    snap
}

/// `ir`: the sequential reference interpreter. Returns the scalar
/// environment, outer-loop trip count and point tasks executed.
pub fn run_sequential(program: &Program, store: &mut Store) -> (Vec<f64>, u64, u64) {
    let (env, stats) = interp::run(program, store);
    (env, stats.loop_iterations, stats.tasks_executed)
}

/// Elements named by the region arguments of every point task of one
/// outer-loop iteration — computed from region sizes, not measured.
pub fn elements_per_step(program: &Program) -> u64 {
    fn walk(program: &Program, stmts: &[Stmt], in_loop: bool) -> u64 {
        let mut total = 0;
        for s in stmts {
            match s {
                Stmt::IndexLaunch(il) if in_loop => {
                    for &i in &il.launch_domain {
                        for a in &il.args {
                            let r = interp::resolve_arg(program, a, i);
                            total += program.forest.domain(r).volume();
                        }
                    }
                }
                Stmt::SingleLaunch(sl) if in_loop => {
                    for &r in &sl.args {
                        total += program.forest.domain(r).volume();
                    }
                }
                Stmt::For { body, .. } | Stmt::While { body, .. } if !in_loop => {
                    total += walk(program, body, true);
                }
                _ => {}
            }
        }
        total
    }
    walk(program, &program.body, false)
}

/// `core`: whole-program control replication.
pub fn compile_spmd(program: Program, shards: usize) -> SpmdProgram {
    control_replicate(program, &CrOptions::new(shards)).expect("workload is replicable")
}

/// `core`: range-local control replication.
pub fn compile_hybrid(program: Program, shards: usize) -> HybridProgram {
    replicate_ranges(program, &CrOptions::new(shards)).expect("workload is replicable")
}

/// `core`: the transform's own statistics.
pub struct CompileCounts {
    pub copies_inserted: u64,
    pub copies_removed: u64,
    pub pairs_proven_disjoint: u64,
}

pub fn compile_counts(spmd: &SpmdProgram) -> CompileCounts {
    let s = &spmd.stats;
    CompileCounts {
        copies_inserted: (s.copies_inserted + s.reduction_copies_inserted) as u64,
        copies_removed: (s.copies_removed_redundant + s.copies_removed_dead) as u64,
        pairs_proven_disjoint: s.pairs_proven_disjoint as u64,
    }
}

/// `runtime.plan` + `region::intersect`: the dynamic intersection
/// evaluation every SPMD-family run performs at start-up.
pub struct PlanFacts {
    pub shallow_us: f64,
    pub complete_us: f64,
    pub pairs: u64,
    pub elements: u64,
}

pub fn build_plan(spmd: &SpmdProgram) -> PlanFacts {
    let s = build_exchange_plan(spmd).setup;
    PlanFacts {
        shallow_us: s.shallow_seconds * 1e6,
        complete_us: s.complete_seconds * 1e6,
        pairs: s.num_pairs as u64,
        elements: s.total_elements,
    }
}

/// What an executor reports about one run, beside the environment.
#[derive(Default, Clone, Copy)]
pub struct RunFacts {
    pub dep_checks: u64,
    pub dep_edges: u64,
    pub max_window: u64,
    pub memo_hits: u64,
    pub memo_captures: u64,
    pub memo_replayed_tasks: u64,
    pub messages: u64,
    pub elements: u64,
    pub checkpoints: u64,
    pub log_records: u64,
    pub log_batches: u64,
    pub log_max_cursor_lag: u64,
    pub hybrid_replicated_segments: u64,
    pub hybrid_sequential_tasks: u64,
}

/// `runtime.implicit` (+ `runtime.memo` when `memo` is set: a fresh
/// cache per run).
pub fn run_implicit(
    program: &Program,
    store: &mut Store,
    workers: usize,
    memo: bool,
    tracer: &Arc<Tracer>,
) -> (Vec<f64>, RunFacts) {
    let mut opts = ImplicitOptions {
        tracer: Arc::clone(tracer),
        ..ImplicitOptions::with_workers(workers)
    };
    if memo {
        opts = opts.with_memo(MemoCache::shared());
    }
    let (env, s) = execute_implicit(program, store, opts);
    let facts = RunFacts {
        dep_checks: s.dependence_checks,
        dep_edges: s.dependence_edges,
        max_window: s.max_window as u64,
        memo_hits: s.memo_hits,
        memo_captures: s.memo_captures,
        memo_replayed_tasks: s.memo_replayed_tasks,
        ..RunFacts::default()
    };
    (env, facts)
}

/// `runtime.spmd_exec`.
pub fn run_spmd(
    spmd: &SpmdProgram,
    store: &mut Store,
    tracer: &Arc<Tracer>,
) -> (Vec<f64>, RunFacts) {
    let r = execute_spmd_traced(spmd, store, tracer);
    let facts = RunFacts {
        messages: r.stats.messages_sent,
        elements: r.stats.elements_sent,
        ..RunFacts::default()
    };
    (r.env, facts)
}

/// `runtime.hybrid_exec`.
pub fn run_hybrid(
    hybrid: &HybridProgram,
    store: &mut Store,
    tracer: &Arc<Tracer>,
) -> (Vec<f64>, RunFacts) {
    let r = execute_hybrid_traced(hybrid, store, tracer);
    let facts = RunFacts {
        messages: r.spmd_stats.messages_sent,
        elements: r.spmd_stats.elements_sent,
        hybrid_replicated_segments: r.replicated_segments as u64,
        hybrid_sequential_tasks: r.sequential_tasks,
        ..RunFacts::default()
    };
    (r.env, facts)
}

/// `runtime.log_exec` / `runtime.launch_log`.
pub fn run_log(
    spmd: &SpmdProgram,
    store: &mut Store,
    tracer: &Arc<Tracer>,
) -> (Vec<f64>, RunFacts) {
    let r = execute_log_traced(spmd, store, tracer);
    let facts = RunFacts {
        messages: r.stats.messages_sent,
        elements: r.stats.elements_sent,
        log_records: r.log.appended_records,
        log_batches: r.log.batches,
        log_max_cursor_lag: r.log.max_cursor_lag,
        ..RunFacts::default()
    };
    (r.env, facts)
}

/// `runtime.spmd_exec` with integrity and checkpoints on and no faults
/// injected: the configuration `regent-serve` runs jobs under.
pub fn run_guarded(
    spmd: &SpmdProgram,
    store: &mut Store,
    tracer: &Arc<Tracer>,
) -> (Vec<f64>, RunFacts) {
    let opts = ResilienceOptions {
        checkpoint_interval: 4,
        integrity: true,
        ..ResilienceOptions::default()
    };
    let r = execute_spmd_resilient_traced(spmd, store, &opts, tracer);
    let facts = RunFacts {
        messages: r.stats.messages_sent,
        elements: r.stats.elements_sent,
        checkpoints: r.stats.checkpoints,
        ..RunFacts::default()
    };
    (r.env, facts)
}

/// `runtime.metrics`: clears the always-on registry before a run.
pub fn metrics_reset() {
    metrics::global().reset();
}

/// `runtime.metrics`: what the always-on registry gathered since the
/// last reset, over all threads.
pub struct RegistryFacts {
    pub ring_stalls: u64,
    pub pool_reuses: u64,
    pub pool_allocs: u64,
    pub log_analyses: u64,
    pub integrity_ns: u64,
    pub checkpoint_ns: u64,
}

pub fn metrics_read() -> RegistryFacts {
    let all = metrics::global().aggregate();
    RegistryFacts {
        ring_stalls: all.get(Counter::RingStalls),
        pool_reuses: all.get(Counter::PoolReuses),
        pool_allocs: all.get(Counter::PoolAllocs),
        log_analyses: all.get(Counter::LogAnalyses),
        integrity_ns: all.timer(Timer::IntegrityNs).sum_ns,
        checkpoint_ns: all.timer(Timer::CheckpointNs).sum_ns,
    }
}

pub fn cpu_ns() -> u64 {
    process_cpu_ns()
}

/// `trace::critical`: the critical path of one traced run split by
/// phase, nanoseconds; the phases sum to `critical_path`.
#[derive(Default, Clone, Copy)]
pub struct BlameFacts {
    pub critical_path: u64,
    pub dep_analysis: u64,
    pub memo_replay: u64,
    pub copy: u64,
    pub barrier_wait: u64,
    pub collective_wait: u64,
    pub exec: u64,
    pub log_control: u64,
    /// Sum over every phase, named above or not; equals
    /// `critical_path` when the report is sound.
    pub phase_sum: u64,
    /// Busiest track's busy time over the mean, minus one.
    pub imbalance: f64,
    pub events: u64,
    pub dropped: u64,
}

/// Drains `tracer` and attributes the run's critical path.
pub fn blame(tracer: &Tracer) -> BlameFacts {
    let trace = tracer.take();
    let report = blame_report(&trace).expect("trace of a finished run is well-formed");
    let b = &report.total;
    BlameFacts {
        critical_path: report.critical_path_ns,
        dep_analysis: b.get(Phase::DepAnalysis),
        memo_replay: b.get(Phase::MemoReplay),
        copy: b.get(Phase::Copy),
        barrier_wait: b.get(Phase::BarrierWait),
        collective_wait: b.get(Phase::CollectiveWait),
        exec: b.get(Phase::Exec),
        log_control: b.get(Phase::LogControl),
        phase_sum: b.total(),
        imbalance: imbalance_report(&trace).imbalance,
        events: trace.num_events() as u64,
        dropped: trace.tracks.iter().map(|t| t.dropped).sum(),
    }
}

/// `runtime.ring` probe: one producer thread pushes `n` words through
/// the public SPSC ring to one consumer; returns messages per second.
pub fn probe_ring(n: u64) -> f64 {
    let (mut tx, mut rx) = ring::<u64>(1024);
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..n {
                tx.send(i).expect("consumer outlives the producer");
            }
        });
        let mut sum = 0u64;
        for _ in 0..n {
            sum += rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("producer sends n words");
        }
        assert_eq!(sum, n * (n - 1) / 2);
    });
    n as f64 / t0.elapsed().as_secs_f64()
}

/// `runtime.collective` probes: `n` rounds of a 2-thread all-reduce
/// and of the 2-thread barrier; returns microseconds per round of each.
pub fn probe_collectives(n: u64) -> (f64, f64) {
    let coll = DynamicCollective::new(2);
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for shard in 0..2 {
            let coll = &coll;
            s.spawn(move || {
                for i in 0..n {
                    let v = coll.reduce(shard, (i + shard as u64) as f64, ReductionOp::Min);
                    assert_eq!(v, i as f64);
                }
            });
        }
    });
    let allreduce_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    let barrier = ShardBarrier::new(2);
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            let barrier = &barrier;
            s.spawn(move || {
                for _ in 0..n {
                    barrier.wait();
                }
            });
        }
    });
    let barrier_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    (allreduce_us, barrier_us)
}

/// `region::checksum` probe: the striped hasher the integrity layer
/// seals columns with, over one column of `words` f64s; returns MB/s.
pub fn probe_seal(words: usize) -> f64 {
    let col: Vec<f64> = (0..words).map(|i| i as f64 * 0.5).collect();
    let t0 = std::time::Instant::now();
    let mut h = StripedFnv::new();
    h.mix_f64s(std::hint::black_box(&col));
    std::hint::black_box(h.finish());
    (words * 8) as f64 / 1e6 / t0.elapsed().as_secs_f64()
}
