//! Service tuning knobs. [`ServiceConfig::from_env`] takes the ones a
//! deployment (or the CI soak job) reshapes without recompiling from
//! the process's parsed environment (`regent_runtime::config`); the
//! rest are fields.

use regent_fault::{FaultPlan, RetryBackoff};
use regent_runtime::FailoverOptions;
use regent_trace::Tracer;
use std::sync::Arc;
use std::time::Duration;

/// Everything a [`Service`](crate::Service) needs to know at start-up.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (`REGENT_SERVE_WORKERS`,
    /// default 2). Each worker runs one job at a time.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before admission rejects
    /// with [`Overloaded`](crate::Overloaded) (`REGENT_SERVE_QUEUE`,
    /// default 16).
    pub queue_depth: usize,
    /// Cost budget: a job is shed when the queued cost plus its own
    /// [`cost`](crate::JobSpec::cost) would exceed this
    /// (`REGENT_SERVE_SHED_BUDGET`, default 256 cost units).
    pub shed_budget: u64,
    /// Per-job wall-clock deadline measured from *admission* and
    /// spanning all retry attempts (default none).
    pub deadline: Option<Duration>,
    /// Retry schedule for transient failures; delays are seeded
    /// per-(job, attempt) so reruns are reproducible.
    pub retry: RetryBackoff,
    /// Initial per-tenant shard allocation cap (default 4). A job
    /// asking for more shards than its tenant's current cap runs at
    /// the cap.
    pub shard_cap: usize,
    /// Sheds a tenant absorbs before its shard cap is halved, floor 1
    /// (`REGENT_SERVE_DEGRADE`, default 0 = degradation off).
    pub degrade_after: u32,
    /// Seed for fault injection (`REGENT_FAULT_SEED`): arms seeded
    /// in-run crash schedules for SPMD/log jobs and supervisor-level
    /// transient faults on a deterministic ~25% of first attempts.
    pub fault_seed: Option<u64>,
    /// Checkpoint cadence handed to resilient executors (epochs).
    pub checkpoint_interval: u64,
    /// Live shard failover: `Some(max)` routes SPMD/log/hybrid jobs
    /// through the elastic-membership drivers, surviving up to `max`
    /// shard losses per job by shrinking membership and reconstructing
    /// survivors from the last checkpoint (`REGENT_FAILOVER` enables
    /// it with a budget of 1). `None` keeps the classic fail-stop
    /// executors.
    pub failover: Option<u32>,
    /// Shard-kill schedule added to every failover-routed job
    /// (`REGENT_KILL`), so deployments can drive chaos soaks through
    /// the service. Ignored without [`failover`](Self::failover).
    pub kills: Option<FaultPlan>,
    /// Trace sink for `Job*` supervisor events and executor spans.
    /// Use [`Tracer::disabled`] when no trace is wanted.
    pub tracer: Arc<Tracer>,
    /// Scoped per-job tracing: when set, each attempt runs its
    /// executor under a private recorder, and the successful attempt's
    /// trace rides back on
    /// [`JobOutcome::Completed`](crate::JobOutcome::Completed) —
    /// independently Spy-certifiable even when jobs interleave.
    pub trace_jobs: bool,
    /// Directory per-job traces are dumped to as
    /// `tenant<t>-job<id>-<strategy>.trace.json`
    /// (`REGENT_SERVE_TRACE_DIR`; setting it implies
    /// [`trace_jobs`](Self::trace_jobs)). `None` keeps traces
    /// in-memory only.
    pub trace_dir: Option<std::path::PathBuf>,
}

impl ServiceConfig {
    /// Defaults suitable for tests: small pool, generous budgets, no
    /// deadline, no fault injection, tracing off.
    pub fn new() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_depth: 16,
            shed_budget: 256,
            deadline: None,
            retry: RetryBackoff::default(),
            shard_cap: 4,
            degrade_after: 0,
            fault_seed: None,
            checkpoint_interval: 2,
            failover: None,
            kills: None,
            tracer: Tracer::disabled(),
            trace_jobs: false,
            trace_dir: None,
        }
    }

    /// [`ServiceConfig::new`] with what the process environment
    /// names on top: the five `REGENT_SERVE_*` knobs,
    /// `REGENT_FAULT_SEED`, `REGENT_FAILOVER` and `REGENT_KILL`.
    pub fn from_env() -> ServiceConfig {
        let env = regent_runtime::config::process();
        let base = ServiceConfig::new();
        ServiceConfig {
            trace_jobs: env.serve_trace_dir.is_some(),
            trace_dir: env.serve_trace_dir.clone(),
            workers: env
                .serve_workers
                .map_or(base.workers, |n| n.max(1) as usize),
            queue_depth: env.serve_queue.map_or(base.queue_depth, |n| n as usize),
            shed_budget: env.serve_shed_budget.unwrap_or(base.shed_budget),
            degrade_after: env.serve_degrade.map_or(base.degrade_after, |n| n as u32),
            fault_seed: env.smoke.and_then(|smoke| smoke.fault_seed),
            failover: env
                .failover
                .then(|| FailoverOptions::default().max_failovers),
            kills: env.kills.clone(),
            ..base
        }
    }

    /// Builder-style tracer override.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> ServiceConfig {
        self.tracer = tracer;
        self
    }

    /// Builder-style scoped per-job tracing (see
    /// [`trace_jobs`](Self::trace_jobs)).
    pub fn with_job_tracing(mut self) -> ServiceConfig {
        self.trace_jobs = true;
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServiceConfig::new();
        assert!(c.workers >= 1);
        assert!(c.queue_depth > 0);
        assert!(c.deadline.is_none());
        assert!(c.fault_seed.is_none());
    }
}
