//! The metric names, units and bounds — the same list `BENCHMARK.json`
//! carries (a test keeps the two equal).

/// Shards of every SPMD-family run and workers of every implicit run.
/// The host has two cores; oversubscribed counts are not timed.
pub const SHARDS: usize = 2;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression. All are lower-is-better.
    pub bound: f64,
}

const fn end_to_end(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, bound }
}

pub const END_TO_END: [EndToEnd; 9] = [
    end_to_end("setup_s", "s", 0.25),
    end_to_end("seq_step_ms", "ms/step", 0.25),
    end_to_end("implicit_step_ms", "ms/step", 0.25),
    end_to_end("memo_step_ms", "ms/step", 0.25),
    end_to_end("spmd_step_ms", "ms/step", 0.25),
    end_to_end("hybrid_step_ms", "ms/step", 0.25),
    end_to_end("log_step_ms", "ms/step", 0.25),
    end_to_end("guarded_step_ms", "ms/step", 0.25),
    end_to_end("peak_rss_mb", "MB", 0.20),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The value is a count fixed by the inputs: it repeats exactly
    /// from round to round and run to run.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

/// An exact count of which more is better.
const fn count_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        exact: true,
    }
}

/// A count that depends on thread interleaving, so it may differ
/// between rounds.
const fn racy(name: &'static str, unit: &'static str) -> PerLayer {
    timing(name, unit)
}

pub const PER_LAYER: [PerLayer; 59] = [
    // apps
    timing("apps.build_ms", "ms"),
    count("apps.tasks_per_step", "count/step"),
    count("apps.elements_per_step", "count/step"),
    // ir (interpreter + kernels)
    timing("ir.interp_ns_per_element", "ns/element"),
    // core (the CR compiler)
    timing("core.cr_compile_us", "us"),
    timing("core.hybrid_compile_us", "us"),
    count("core.copies_inserted", "count"),
    count_up("core.copies_removed", "count"),
    count_up("core.pairs_proven_disjoint", "count"),
    // region
    timing("region.intersect_shallow_us", "us"),
    timing("region.intersect_complete_us", "us"),
    count("region.plan_pairs", "count"),
    count("region.plan_elements", "count"),
    rate("region.seal_mb_per_s", "MB/s"),
    // runtime.plan
    timing("plan.build_ms", "ms"),
    // runtime.implicit
    count("implicit.dep_checks_per_step", "count/step"),
    racy("implicit.dep_edges_per_step", "count/step"),
    count("implicit.max_window", "count"),
    timing("implicit.dep_analysis_ms", "ms/step"),
    timing("implicit.exec_ms", "ms/step"),
    timing("implicit.other_ms", "ms/step"),
    // runtime.memo
    count_up("memo.hit_rate", "ratio"),
    count("memo.captures", "count"),
    count_up("memo.replayed_tasks_per_step", "count/step"),
    timing("memo.replay_ms", "ms/step"),
    // runtime.spmd_exec
    count("spmd.msgs_per_step", "count/step"),
    count("spmd.elems_per_step", "count/step"),
    timing("spmd.copy_ms", "ms/step"),
    timing("spmd.exec_ms", "ms/step"),
    timing("spmd.barrier_wait_ms", "ms/step"),
    timing("spmd.collective_wait_ms", "ms/step"),
    timing("spmd.other_ms", "ms/step"),
    timing("spmd.critical_path_ms", "ms/step"),
    timing("spmd.shard_imbalance_pct", "%"),
    timing("spmd.cpu_over_wall", "ratio"),
    // runtime.ring / runtime.pool
    rate("ring.msgs_per_s", "1/s"),
    racy("ring.full_stalls", "count"),
    rate("pool.reuse_ratio", "ratio"),
    // runtime.collective
    timing("collective.allreduce_us", "us"),
    timing("barrier.wait_us", "us"),
    // runtime.launch_log / log_exec
    count("log.records_per_step", "count/step"),
    racy("log.batches_per_step", "count/step"),
    racy("log.max_cursor_lag", "count"),
    racy("log.analyses", "count"),
    timing("log.control_ms", "ms/step"),
    // runtime.hybrid_exec
    count_up("hybrid.replicated_segments", "count"),
    count("hybrid.sequential_tasks", "count"),
    // integrity + checkpoint
    timing("guard.integrity_cpu_ms", "ms/step"),
    count("guard.checkpoints", "count"),
    timing("guard.checkpoint_ms", "ms/step"),
    timing("guard.overhead_pct", "%"),
    // trace / runtime.metrics
    timing("trace.overhead_pct.implicit", "%"),
    timing("trace.overhead_pct.memo", "%"),
    timing("trace.overhead_pct.spmd", "%"),
    timing("trace.overhead_pct.hybrid", "%"),
    timing("trace.overhead_pct.log", "%"),
    timing("trace.overhead_pct.guarded", "%"),
    racy("trace.events", "count"),
    count("trace.dropped", "count"),
];
