//! `regent-serve` — a long-running job supervisor over the executor
//! family.
//!
//! Everything below this crate executes *one* control program and
//! returns; a deployment runs *many*, from mutually distrustful
//! tenants, on a machine with finite shards. This crate is the layer
//! in between: a [`Service`] admits jobs (any app over any of the six
//! execution strategies) into a bounded queue, schedules them fairly
//! across a worker pool, and wraps every run in a robustness
//! envelope so that one tenant's misfortune — a deadline overrun, a
//! transient fault, even a panicking kernel — never leaks into
//! another tenant's results.
//!
//! # Admission control and load shedding
//!
//! [`Service::submit`] is the only entry point and it can say no: a
//! job is rejected with [`Overloaded`] when the queue is at depth or
//! when the *projected cost* (queued cost + the new job's
//! [`JobSpec::cost`]) exceeds the shed budget. Rejecting at the door
//! keeps queueing delay bounded — the alternative, an unbounded queue,
//! converts overload into unbounded latency for everyone (including
//! jobs that would have met their deadlines).
//!
//! # Fairness and isolation
//!
//! Each tenant gets its own FIFO; workers pick the next job by
//! round-robin over tenants with queued work, so a tenant flooding the
//! queue delays itself, not its neighbours. Isolation of mutable state
//! is by construction: every attempt builds a fresh `Program`/`Store`
//! pair from the job's factory (region forests are never shared), and
//! memoization caches are per-tenant.
//!
//! # The robustness envelope
//!
//! Every attempt runs under `catch_unwind` with a [`CancelToken`](regent_runtime::CancelToken)
//! threaded through the executor's epoch boundary. The unwind message
//! is classified by `regent_fault::classify_failure`:
//!
//! * **Cancelled** (deadline budget exhausted, explicit cancel) — the
//!   job ends [`JobOutcome::Cancelled`]. The deadline is fixed at
//!   admission, so retries spend the *same* budget, not a fresh one.
//! * **Transient** (injected fault, likely-deadlock diagnostics) — the
//!   job is retried with seeded exponential backoff. Every attempt of
//!   a job is handed the same [`Rescue`](regent_runtime::Rescue), so an
//!   SPMD or hybrid retry fast-forwards to the last committed
//!   checkpoint instead of recomputing from scratch (the log strategy
//!   has no resumable slot and restarts).
//! * **Permanent** (a genuine bug) — the job is quarantined
//!   ([`JobOutcome::Quarantined`]) and the worker that ran it recycles
//!   itself: it spawns a replacement thread and exits, so any state a
//!   foreign panic may have poisoned dies with it.
//!
//! Sustained pressure degrades gracefully: after a configurable number
//! of sheds, a tenant's shard allocation is halved (floor 1), trading
//! that tenant's parallelism for everyone's admission rate.
//!
//! # Observability
//!
//! Counters and queue-wait timers land on the global
//! [`metrics`](regent_runtime::metrics) registry (exported via
//! `REGENT_METRICS`, scrapeable live via `REGENT_METRICS_ADDR`);
//! `JobAdmit`/`JobShed`/`JobRetry`/`JobDegrade` trace events are
//! recorded when the service is built with an enabled tracer, and
//! `regent-prof` renders them as a per-tenant service summary plus a
//! `queue_wait` blame row.
//!
//! With scoped per-job tracing
//! ([`ServiceConfig::trace_jobs`] / `REGENT_SERVE_TRACE_DIR`), each
//! attempt additionally runs its executor under a private recorder:
//! every completed job carries its own independently Spy-certifiable
//! trace on [`JobOutcome::Completed`], even when jobs of different
//! apps and strategies interleave on the pool. Completions and sheds
//! feed the live telemetry plane ([`regent_runtime::live`]) for
//! sliding-window p50/p99 and SLO burn-rate gauges, and job milestones
//! are noted on the crash-surviving flight recorder
//! ([`regent_trace::flight`]), which dumps a certifiable black box on
//! every Permanent failure.

mod config;
mod job;
pub mod jobs;
mod supervisor;

pub use config::ServiceConfig;
pub use job::{JobHandle, JobOutcome, JobSpec, Overloaded, ProgramFactory, Strategy};
pub use supervisor::{digest_store, Service, ServiceStats};
