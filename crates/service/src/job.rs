//! Job descriptions, outcomes, and the handle a client waits on.

use regent_ir::interp::Store;
use regent_ir::Program;
use std::sync::{Arc, Condvar, Mutex};

/// Which executor a job runs under. All six strategies produce
/// bit-identical (or tolerance-identical, for reduction-reassociating
/// apps) results on the same program — the choice trades analysis
/// cost against parallelism, not correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Reference sequential interpreter.
    Sequential,
    /// Implicitly parallel single-node executor.
    Implicit,
    /// Implicit executor with epoch memoization (per-tenant cache).
    MemoImplicit,
    /// Control-replicated SPMD executor (supports checkpoint/rescue).
    Spmd,
    /// Hybrid range-replicated executor.
    Hybrid,
    /// Shared-log executor.
    Log,
}

impl Strategy {
    /// All strategies, in the order benches sweep them.
    pub const ALL: [Strategy; 6] = [
        Strategy::Sequential,
        Strategy::Implicit,
        Strategy::MemoImplicit,
        Strategy::Spmd,
        Strategy::Hybrid,
        Strategy::Log,
    ];

    /// Stable label for artifacts and logs.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Sequential => "seq",
            Strategy::Implicit => "implicit",
            Strategy::MemoImplicit => "memo",
            Strategy::Spmd => "spmd",
            Strategy::Hybrid => "hybrid",
            Strategy::Log => "log",
        }
    }
}

/// Builds a fresh `(Program, Store)` pair for one attempt. Called
/// once per attempt on the worker thread, so every attempt (and every
/// retry) starts from an isolated region forest — no state is shared
/// between jobs except what the supervisor explicitly threads through
/// (per-tenant memo caches, the per-job rescue slot).
pub type ProgramFactory = Arc<dyn Fn() -> (Program, Store) + Send + Sync>;

/// A unit of admitted work.
#[derive(Clone)]
pub struct JobSpec {
    /// Tenant this job bills to (fairness + isolation domain).
    pub tenant: u32,
    /// Human-readable name for logs and traces.
    pub name: String,
    /// Execution strategy.
    pub strategy: Strategy,
    /// Requested shard count (clamped to the tenant's current cap).
    pub shards: usize,
    /// Abstract cost estimate in shed-budget units. Admission control
    /// sums these; it does not need them to be accurate, only
    /// monotone in actual work.
    pub cost: u64,
    /// Program builder (see [`ProgramFactory`]).
    pub factory: ProgramFactory,
    /// Test/fault hook: force a supervisor-injected transient fault at
    /// this epoch on the *first* attempt (overrides the seeded
    /// injection decision). `None` defers to `REGENT_FAULT_SEED`.
    pub inject_transient_at: Option<u64>,
}

impl JobSpec {
    /// A job with the given identity running `factory`'s program.
    pub fn new(
        tenant: u32,
        name: impl Into<String>,
        strategy: Strategy,
        shards: usize,
        cost: u64,
        factory: ProgramFactory,
    ) -> JobSpec {
        JobSpec {
            tenant,
            name: name.into(),
            strategy,
            shards,
            cost,
            factory,
            inject_transient_at: None,
        }
    }

    /// Builder-style transient-injection override (tests).
    pub fn with_transient_at(mut self, epoch: u64) -> JobSpec {
        self.inject_transient_at = Some(epoch);
        self
    }
}

/// Admission rejection: the service is at capacity and queueing this
/// job would break the latency bound for everyone already admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// Jobs queued at rejection time.
    pub queued: usize,
    /// Queued cost plus the rejected job's cost.
    pub projected_cost: u64,
    /// The shed budget the projection exceeded (or `0` when the queue
    /// depth, not the cost budget, was the binding limit).
    pub budget: u64,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "overloaded: {} queued, projected cost {} over budget {}",
            self.queued, self.projected_cost, self.budget
        )
    }
}

impl std::error::Error for Overloaded {}

/// Terminal state of an admitted job. Every admitted job reaches
/// exactly one of these (shed jobs never get a handle — `submit`
/// returns `Err(Overloaded)` instead).
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job ran to completion (possibly after retries).
    Completed {
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
        /// Final scalar environment.
        env: Vec<f64>,
        /// Order-independent digest over `env` and every root-region
        /// field value — two runs with equal digests produced
        /// bit-identical results.
        digest: u64,
        /// Shards the job actually ran on (post-degradation).
        shards: usize,
        /// This job's own executor trace, present when the service ran
        /// with scoped per-job tracing
        /// ([`ServiceConfig::trace_jobs`](crate::ServiceConfig::trace_jobs)).
        /// Records only the *successful* attempt — failed attempts'
        /// recorders are discarded so retries cannot pollute the
        /// certified record.
        trace: Option<std::sync::Arc<regent_trace::Trace>>,
    },
    /// Cancelled cooperatively: deadline budget exhausted or an
    /// explicit supervisor cancel.
    Cancelled {
        /// Structured diagnostic from the cancellation unwind.
        reason: String,
    },
    /// The job failed permanently (a non-retryable panic, or its retry
    /// budget ran dry); its worker pool was recycled.
    Quarantined {
        /// The panic message that condemned it.
        error: String,
    },
}

impl JobOutcome {
    /// Whether the job completed (with or without retries).
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }

    /// Attempts consumed, when completed.
    pub fn attempts(&self) -> Option<u32> {
        match self {
            JobOutcome::Completed { attempts, .. } => Some(*attempts),
            _ => None,
        }
    }

    /// The result digest, when completed.
    pub fn digest(&self) -> Option<u64> {
        match self {
            JobOutcome::Completed { digest, .. } => Some(*digest),
            _ => None,
        }
    }

    /// This job's scoped executor trace, when completed under
    /// per-job tracing.
    pub fn trace(&self) -> Option<&regent_trace::Trace> {
        match self {
            JobOutcome::Completed { trace, .. } => trace.as_deref(),
            _ => None,
        }
    }
}

pub(crate) type Shared = Arc<(Mutex<Option<JobOutcome>>, Condvar)>;

/// A client's handle on an admitted job.
#[derive(Clone)]
pub struct JobHandle {
    /// Service-assigned job id (unique per service instance; also the
    /// `job` field of this job's trace events).
    pub job: u64,
    pub(crate) shared: Shared,
}

impl JobHandle {
    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> JobOutcome {
        let (m, cv) = &*self.shared;
        let mut g = m.lock().expect("job outcome poisoned");
        while g.is_none() {
            g = cv.wait(g).expect("job outcome poisoned");
        }
        g.clone().unwrap()
    }

    /// The outcome if the job already finished, without blocking.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.shared.0.lock().expect("job outcome poisoned").clone()
    }
}
