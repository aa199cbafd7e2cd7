//! Executor for hybrid programs (§2.2's range-local application of
//! control replication): sequential segments run through the reference
//! interpreter, replicated segments through the shard-team driver, with
//! the root store and the scalar environment threading through all of
//! them.
//!
//! Every replicated segment re-initializes its shard instances from the
//! store and flushes written partitions back at its end — exactly the
//! initialization/finalization copies of §3.1 placed at the range
//! boundaries — and is one ordinary team run: same data plane, same
//! resilience options, its own rescue slot (keyed by segment index,
//! because resume tokens and epochs are segment-local coordinates).
//!
//! A traced run records a `Pass` span per segment on a `hybrid` control
//! track, bracketing the shard tracks the replicated segments produce.

use crate::metrics::{self, Counter};
use crate::run::{RunCtx, RunResult};
use crate::spmd_exec::{run_spmd, ShardStats};
use regent_cr::hybrid::{HybridProgram, Segment};
use regent_ir::{interp, Store};
use regent_trace::EventKind;

/// A hybrid [`RunResult`] in the shape the benchmark adapter reads
/// (returned only by the adapter forwarder for hybrid programs).
pub struct HybridRunResult {
    /// Final scalar environment.
    pub env: Vec<f64>,
    /// Aggregated SPMD statistics across all replicated segments.
    pub spmd_stats: ShardStats,
    /// Point tasks executed sequentially (outside replicated ranges).
    pub sequential_tasks: u64,
    /// Number of replicated segments executed.
    pub replicated_segments: usize,
}

impl From<RunResult> for HybridRunResult {
    fn from(r: RunResult) -> HybridRunResult {
        HybridRunResult {
            env: r.env,
            spmd_stats: r.stats,
            sequential_tasks: r.sequential_tasks,
            replicated_segments: r.replicated_segments,
        }
    }
}

/// The segment loop: a `Pass` span per segment on the `hybrid` track,
/// plus the usual shard tracks from each replicated segment.
pub(crate) fn run_hybrid(hybrid: &HybridProgram, store: &mut Store, ctx: RunCtx<'_>) -> RunResult {
    let mut tb = ctx.tracer.buffer("hybrid");
    let mut mx = metrics::global().handle("hybrid");
    let mut run = RunResult {
        env: ctx.initial_env(&hybrid.base.scalars),
        ..RunResult::default()
    };
    for segment in &hybrid.segments {
        let t0 = tb.now();
        match segment {
            Segment::Sequential(stmts) => {
                let stats = interp::run_stmts_in(&hybrid.base, store, stmts, &mut run.env);
                tb.span_since(
                    t0,
                    EventKind::Pass {
                        name: "segment-sequential",
                    },
                );
                run.sequential_tasks += stats.tasks_executed;
                mx.add(Counter::SequentialTasks, stats.tasks_executed);
            }
            Segment::Replicated(spmd) => {
                let seg_ctx = RunCtx {
                    initial_env: Some(&run.env),
                    ..ctx
                };
                let r = run_spmd(spmd, store, seg_ctx, run.replicated_segments);
                tb.span_since(
                    t0,
                    EventKind::Pass {
                        name: "segment-replicated",
                    },
                );
                run.env = r.env;
                run.stats.merge(&r.stats);
                run.setup.merge(&r.setup);
                if run.per_shard.len() < r.per_shard.len() {
                    run.per_shard
                        .resize(r.per_shard.len(), ShardStats::default());
                }
                for (total, shard) in run.per_shard.iter_mut().zip(&r.per_shard) {
                    total.merge(shard);
                }
                mx.incr(Counter::ReplicatedSegments);
                run.replicated_segments += 1;
            }
        }
    }
    tb.flush();
    drop(mx);
    metrics::global().export();
    run
}
