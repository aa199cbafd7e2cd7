//! The SPMD family's public surface: [`run`] executes a compiled
//! program under the control source its [`Compiled`] tag names, with
//! one options struct and one result type for all three strategies.
//! (`run_failover`, the membership-shrinking wrapper, lives in
//! [`crate::failover`].)

use crate::config::{self, Smoke};
use crate::hybrid_exec::{run_hybrid, HybridRunResult};
use crate::log_exec::{run_log, LogStats};
use crate::plan::SetupStats;
use crate::spmd_exec::{run_spmd, ResilienceOptions, ShardStats};
use regent_cr::hybrid::HybridProgram;
use regent_cr::SpmdProgram;
use regent_ir::Store;
use regent_trace::Tracer;
use std::sync::Arc;
use std::time::Duration;

/// A compiled program tagged with the control source that drives its
/// shards. `S` and `H` are the two compiled forms, owned or borrowed:
/// [`run`] takes them shared ([`Compiled::as_ref`]), `run_failover`
/// exclusive ([`Compiled::as_mut`]: a membership shrink rewrites
/// `num_shards` in place).
#[derive(Clone, Copy, Debug)]
pub enum Compiled<S, H> {
    /// Control replication proper (§3): every shard walks the whole
    /// replicated body.
    Spmd(S),
    /// Shared-log control replication: one sequencer walks the body
    /// once and the shards tail its launch log (see
    /// [`crate::log_exec`]).
    Log(S),
    /// Range-local control replication (§2.2): sequential segments run
    /// through the reference interpreter, each replicated segment as an
    /// SPMD team.
    Hybrid(H),
}

impl<S, H> Compiled<S, H> {
    /// The same tag over shared borrows (cf. `Option::as_ref`).
    pub fn as_ref(&self) -> Compiled<&S, &H> {
        match self {
            Compiled::Spmd(spmd) => Compiled::Spmd(spmd),
            Compiled::Log(spmd) => Compiled::Log(spmd),
            Compiled::Hybrid(hybrid) => Compiled::Hybrid(hybrid),
        }
    }

    /// The same tag over exclusive borrows (cf. `Option::as_mut`).
    pub fn as_mut(&mut self) -> Compiled<&mut S, &mut H> {
        match self {
            Compiled::Spmd(spmd) => Compiled::Spmd(spmd),
            Compiled::Log(spmd) => Compiled::Log(spmd),
            Compiled::Hybrid(hybrid) => Compiled::Hybrid(hybrid),
        }
    }
}

/// Options of one SPMD-family run. `RunOptions::default()` is a plain
/// run: tracing off, declared initial scalars, no resilience (unless
/// `REGENT_FAULT_SEED` / `REGENT_CORRUPT` arm the CI smoke upgrade),
/// and the process's hang timeout and pinning
/// ([`config::process`]) — a run that wants others sets the field.
#[derive(Clone)]
pub struct RunOptions {
    /// Event recorder: shard `s` records on track `shard-s`, the log
    /// sequencer on `log-seq`, the hybrid segment loop on `hybrid`.
    /// [`Tracer::disabled`] makes recording free.
    pub tracer: Arc<Tracer>,
    /// Initial scalar environment; `None` starts every scalar at its
    /// declared initial value.
    pub initial_env: Option<Vec<f64>>,
    /// Fault plan, checkpoint cadence, integrity layer, cancellation
    /// and cross-attempt rescue; `None` for a plain run.
    pub resilience: Option<ResilienceOptions>,
    /// How long a blocking wait of this run's team may stall before it
    /// panics with a "likely deadlock" diagnostic.
    pub hang_timeout: Duration,
    /// Pin shard thread `s` to core `s` (modulo the machine's).
    pub pin_cores: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        let env = config::process();
        RunOptions {
            tracer: Tracer::disabled(),
            initial_env: None,
            resilience: None,
            hang_timeout: env.hang_timeout,
            pin_cores: env.pin_cores,
        }
    }
}

impl RunOptions {
    /// A plain run recording into `tracer`.
    pub fn traced(tracer: &Arc<Tracer>) -> RunOptions {
        RunOptions {
            tracer: Arc::clone(tracer),
            ..RunOptions::default()
        }
    }

    /// These options with `resilience` set.
    pub fn with_resilience(mut self, resilience: ResilienceOptions) -> RunOptions {
        self.resilience = Some(resilience);
        self
    }

    pub(crate) fn ctx(&self) -> RunCtx<'_> {
        RunCtx {
            tracer: &self.tracer,
            initial_env: self.initial_env.as_deref(),
            resilience: self.resilience.as_ref(),
            hang_timeout: self.hang_timeout,
            pin_cores: self.pin_cores,
            smoke: config::process().smoke.as_ref(),
        }
    }
}

/// [`RunOptions`] by reference — what the executors pass down, so a
/// failover attempt or a hybrid segment can swap one field without
/// cloning the rest.
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a> {
    pub(crate) tracer: &'a Arc<Tracer>,
    pub(crate) initial_env: Option<&'a [f64]>,
    pub(crate) resilience: Option<&'a ResilienceOptions>,
    pub(crate) hang_timeout: Duration,
    pub(crate) pin_cores: bool,
    /// The CI fault smoke a run without `resilience` is upgraded by.
    pub(crate) smoke: Option<&'a Smoke>,
}

impl RunCtx<'_> {
    /// The scalar environment the run starts from: `initial_env`, or
    /// every one of `scalars` at its declared initial value.
    pub(crate) fn initial_env(&self, scalars: &[regent_ir::ScalarDecl]) -> Vec<f64> {
        match self.initial_env {
            Some(env) => env.to_vec(),
            None => scalars.iter().map(|s| s.init).collect(),
        }
    }
}

/// Result of an SPMD-family execution.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Final scalar environment (identical on all shards; shard 0's).
    pub env: Vec<f64>,
    /// Dynamic intersection sizes and timings (Table 1), summed over
    /// replicated segments. The timings are what *this run* paid: 0
    /// when the program's exchange schedule was already built by an
    /// earlier run.
    pub setup: SetupStats,
    /// Aggregated execution statistics.
    pub stats: ShardStats,
    /// Per-shard statistics (summed over replicated segments).
    pub per_shard: Vec<ShardStats>,
    /// Launch-log statistics; all zero unless the log drove the run.
    pub log: LogStats,
    /// Point tasks executed sequentially, outside replicated ranges
    /// (nonzero only for hybrid programs).
    pub sequential_tasks: u64,
    /// Replicated segments executed (1 for whole-program strategies).
    pub replicated_segments: usize,
}

/// Executes a compiled program against `store` (which holds the
/// initial region contents and receives the final ones). Results are
/// bit-identical to the sequential interpreter under every strategy.
pub fn run(
    compiled: Compiled<&SpmdProgram, &HybridProgram>,
    store: &mut Store,
    opts: &RunOptions,
) -> RunResult {
    run_ctx(compiled, store, opts.ctx())
}

pub(crate) fn run_ctx(
    compiled: Compiled<&SpmdProgram, &HybridProgram>,
    store: &mut Store,
    ctx: RunCtx<'_>,
) -> RunResult {
    match compiled {
        Compiled::Spmd(spmd) => run_spmd(spmd, store, ctx, 0),
        Compiled::Log(spmd) => run_log(spmd, store, ctx),
        Compiled::Hybrid(hybrid) => run_hybrid(hybrid, store, ctx),
    }
}

// ---- The benchmark adapter's surface -------------------------------
//
// `benchmark/src/sut.rs` pins these four names and signatures from
// outside the workspace and may only be re-pointed in a `benchmark` PR
// of its own. Each forwards to the function `run` dispatches to; they
// go when the adapter calls `run`. Nothing inside the workspace uses
// them (CI's `surface` step checks).

/// Benchmark adapter: `run(Compiled::Spmd(spmd), ..)` recording into
/// `tracer`.
pub fn execute_spmd_traced(
    spmd: &SpmdProgram,
    store: &mut Store,
    tracer: &Arc<Tracer>,
) -> RunResult {
    run_spmd(spmd, store, RunOptions::traced(tracer).ctx(), 0)
}

/// Benchmark adapter: `run(Compiled::Spmd(spmd), ..)` under `opts`,
/// recording into `tracer`.
pub fn execute_spmd_resilient_traced(
    spmd: &SpmdProgram,
    store: &mut Store,
    opts: &ResilienceOptions,
    tracer: &Arc<Tracer>,
) -> RunResult {
    let plain = RunOptions::traced(tracer);
    let ctx = RunCtx {
        resilience: Some(opts),
        ..plain.ctx()
    };
    run_spmd(spmd, store, ctx, 0)
}

/// Benchmark adapter: `run(Compiled::Log(spmd), ..)` recording into
/// `tracer`.
pub fn execute_log_traced(
    spmd: &SpmdProgram,
    store: &mut Store,
    tracer: &Arc<Tracer>,
) -> RunResult {
    run_log(spmd, store, RunOptions::traced(tracer).ctx())
}

/// Benchmark adapter: `run(Compiled::Hybrid(hybrid), ..)` recording
/// into `tracer`, in the result shape the adapter reads.
pub fn execute_hybrid_traced(
    hybrid: &HybridProgram,
    store: &mut Store,
    tracer: &Arc<Tracer>,
) -> HybridRunResult {
    run_hybrid(hybrid, store, RunOptions::traced(tracer).ctx()).into()
}
