//! # regent-runtime
//!
//! Execution engines for the control-replication stack (§4 of *Control
//! Replication*, SC'17):
//!
//! * [`implicit`] — the Legion-style implicitly parallel executor: a
//!   single control thread performing dynamic dependence analysis over
//!   a worker pool. This is the "Regent w/o CR" baseline whose control
//!   overhead grows with the machine.
//! * [`spmd_exec`] — the multithreaded SPMD executor for
//!   control-replicated programs: one thread per shard, distributed
//!   per-shard instances, consumer-applied copy messages as
//!   point-to-point synchronization (§3.4).
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
//!   JSON plus Prometheus text.
//! * [`live`] / [`scrape`] — the live telemetry plane: sliding-window
//!   latency/goodput series with SLO burn-rate gauges, served mid-run
//!   from a dependency-free HTTP scrape endpoint
//!   (`REGENT_METRICS_ADDR=<host:port>`).
//! * [`mod@ring`] / [`pool`] — the lock-free data plane: bounded SPSC
//!   rings with batched publication carrying the exchange messages
//!   (one ring per ordered shard pair; `REGENT_DATA_PLANE=channel`
//!   restores the legacy mpsc mesh), pooled payload buffers, and
//!   core pinning behind `REGENT_PIN_CORES`.
//!
//! Both executors are tested to produce results bit-identical to the
//! sequential reference interpreter in `regent-ir`.
//!
//! Every executor has a `*_traced` variant accepting a
//! [`regent_trace::Tracer`]: the implicit executor records its control
//! thread (launches, dependence-analysis spans, conflict edges, drains)
//! and its workers (task runs), the SPMD executor records one track per
//! shard (runs, accesses, copy issues/applies, collective generations).
//! The plain entry points pass a disabled tracer and record nothing.

#![warn(missing_docs)]

pub mod cancel;
pub mod collective;
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
pub mod scrape;
pub mod spmd_exec;

pub use cancel::CancelToken;
pub use collective::{hang_timeout, DynamicCollective, FramedScalar, ShardBarrier};
pub use failover::{
    execute_hybrid_failover, execute_hybrid_failover_traced, execute_log_failover,
    execute_log_failover_traced, execute_spmd_failover, execute_spmd_failover_traced,
    failover_enabled, FailoverOptions, FailoverRunResult, HybridFailoverRunResult,
    LogFailoverRunResult,
};
pub use hybrid_exec::{
    execute_hybrid, execute_hybrid_resilient, execute_hybrid_resilient_traced,
    execute_hybrid_traced, HybridRescue, HybridRunResult,
};
pub use implicit::{execute_implicit, ImplicitOptions, ImplicitStats};
pub use launch_log::{batch_limit_from_env, replicas_from_env, Batch, LaunchLog, LogCursor};
pub use live::{live, BurnRates, LivePlane, SlidingCount, SlidingHist, SloConfig};
pub use log_exec::{
    execute_log, execute_log_resilient, execute_log_resilient_traced, execute_log_traced,
    LogRunResult, LogStats,
};
pub use mapper::{DefaultMapper, Mapper, SingleWorkerMapper, TaskKindMapper};
pub use memo::{epoch_key, launch_sig, EpochTemplate, MemoCache, MemoStats};
pub use metrics::{
    export_env as export_metrics_env, prom_escape, Counter, Hist, MetricsHandle, MetricsRegistry,
    Timer,
};
pub use plan::{
    build_exchange_plan, ExchangePlan, ExchangeSchedule, InstKey, PairPlan, SetupStats,
};
pub use pool::ChunkPool;
pub use scrape::{fetch as fetch_metrics, start_env as start_scrape_env, ScrapeServer};

pub use ring::{
    copy_mesh, data_plane_from_env, pin_cores_enabled, pin_thread_to_core, ring, ring_cap_from_env,
    Backoff, CachePadded, CopyRx, CopyTx, DataPlane, RingReceiver, RingSender, SendError,
};

pub use regent_fault::{
    classify_failure, DeathCause, FailureClass, FaultPlan, PeerDeath, RetryBackoff, RetryPolicy,
    CANCEL_PREFIX, FAILOVER_EXHAUSTED_PREFIX, SHARD_LOSS_PREFIX, TRANSIENT_PREFIX,
};
pub use spmd_exec::{
    execute_spmd, execute_spmd_resilient, execute_spmd_resilient_traced, execute_spmd_traced,
    execute_spmd_with_env, execute_spmd_with_env_resilient_traced, execute_spmd_with_env_traced,
    DeathBoard, RescueSlot, ResilienceOptions, ShardStats, SpmdRunResult,
};
