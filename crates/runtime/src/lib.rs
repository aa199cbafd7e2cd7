//! # regent-runtime
//!
//! Execution engines for the control-replication stack (§4 of *Control
//! Replication*, SC'17):
//!
//! * [`implicit`] — the Legion-style implicitly parallel executor: a
//!   single control thread performing dynamic dependence analysis over
//!   a worker pool. This is the "Regent w/o CR" baseline whose control
//!   overhead grows with the machine.
//! * [`run()`] / [`run_failover`] — the SPMD family's two entry points:
//!   a [`Compiled`] program (control replication, range-local hybrid,
//!   or shared-log) runs on one shard-team driver (`team`: one thread
//!   per shard) and, with live failover, inside one membership-shrinking
//!   loop ([`failover`]).
//! * [`spmd_exec`] — the per-shard engine every strategy drives:
//!   distributed per-shard instances, consumer-applied copy messages as
//!   point-to-point synchronization (§3.4), checkpoint–restart and the
//!   integrity layer.
//! * [`hybrid_exec`] — range-local control replication (§2.2): a loop
//!   over segments, each replicated one a team run.
//! * [`plan`] — the dynamic intersection evaluation (§3.3) with the
//!   shallow/complete timings of Table 1.
//! * [`collective`] — the scalar dynamic collective (§4.4) and a
//!   reusable barrier (Fig. 4c mode).
//! * [`memo`] — epoch-trace memoization for the implicit executor:
//!   capture one epoch's dependence analysis as a template, replay it
//!   on structurally identical epochs, invalidate on region-forest
//!   changes.
//! * [`launch_log`] / [`log_exec`] — shared-log control replication: a
//!   single sequencer runs the control program once, appending leaf
//!   statements to an epoch-segmented flat-combining operation log;
//!   per-shard executors tail the log with lock-free cursors and
//!   replica leaders amortize dependence analysis to once per replica
//!   per batch.
//! * [`metrics`] — always-on per-shard counters and latency histograms
//!   (launches, copies, waits, memo hits, retransmits), aggregated at
//!   executor shutdown and exported via `REGENT_METRICS=<path>` as
//!   JSON.
//! * [`live`] / [`scrape`] — the live telemetry plane: sliding-window
//!   latency/goodput series with SLO burn-rate gauges, served mid-run
//!   from a dependency-free HTTP scrape endpoint
//!   (`REGENT_METRICS_ADDR=<host:port>`).
//! * [`mod@ring`] / [`pool`] — the lock-free data plane: bounded SPSC
//!   rings with batched publication carrying the exchange messages
//!   (one ring per ordered shard pair, its capacity derived from the
//!   exchange schedule), pooled payload buffers, and core pinning
//!   behind [`RunOptions::pin_cores`].
//! * [`config`] — the process environment: every `REGENT_*` variable
//!   is parsed once, there, into a typed [`EnvConfig`] that supplies
//!   the defaults of the options structs and configures the telemetry
//!   singletons; no executor reads the environment.
//!
//! Every executor is tested to produce results bit-identical to the
//! sequential reference interpreter in `regent-ir`.
//!
//! Tracing is an option, not an entry point: [`ImplicitOptions::tracer`]
//! and [`RunOptions::tracer`] take a [`regent_trace::Tracer`]. The
//! implicit executor records its control thread (launches,
//! dependence-analysis spans, conflict edges, drains) and its workers
//! (task runs); the SPMD family records one track per shard (runs,
//! accesses, copy issues/applies, collective generations). The default
//! is a disabled tracer, which records nothing.

#![warn(missing_docs)]

pub mod cancel;
pub mod collective;
pub mod config;
pub mod failover;
pub mod hybrid_exec;
pub mod implicit;
pub mod launch_log;
pub mod live;
pub mod log_exec;
pub mod mapper;
pub mod memo;
pub mod metrics;
pub mod plan;
pub mod pool;
pub mod ring;
pub mod run;
pub mod scrape;
pub mod spmd_exec;
mod team;
mod wait;

pub use cancel::CancelToken;
pub use collective::{DynamicCollective, FramedScalar, ShardBarrier};
pub use config::{EnvConfig, Smoke};
pub use failover::{run_failover, Failover, FailoverOptions};
pub use hybrid_exec::HybridRunResult;
pub use implicit::{execute_implicit, ImplicitOptions, ImplicitStats};
pub use launch_log::{Batch, LaunchLog, LogCursor};
pub use live::{live, BurnRates, LivePlane, SlidingCount, SlidingHist, SloConfig};
pub use log_exec::LogStats;
pub use mapper::{DefaultMapper, Mapper, SingleWorkerMapper, TaskKindMapper};
pub use memo::{epoch_key, launch_sig, EpochTemplate, MemoCache, MemoStats};
pub use metrics::{flight, prom_escape, Counter, Hist, MetricsHandle, MetricsRegistry, Timer};
pub use plan::{
    build_exchange_plan, ExchangePlan, ExchangeSchedule, InstKey, PairPlan, SetupStats,
};
pub use pool::ChunkPool;
pub use run::{
    execute_hybrid_traced, execute_log_traced, execute_spmd_resilient_traced, execute_spmd_traced,
    run, Compiled, RunOptions, RunResult,
};
pub use scrape::{fetch as fetch_metrics, start_at as start_scrape_at, ScrapeServer};

pub use ring::{
    copy_mesh, ring, ring_with_timeout, CachePadded, RingReceiver, RingSender, SendError,
};

pub use regent_fault::{
    classify_failure, DeathCause, FailureClass, FaultPlan, PeerDeath, RetryBackoff, RetryPolicy,
    CANCEL_PREFIX, FAILOVER_EXHAUSTED_PREFIX, SHARD_LOSS_PREFIX, TRANSIENT_PREFIX,
};
pub use spmd_exec::{DeathBoard, Rescue, ResilienceOptions, ShardStats};
pub use team::panic_message;
