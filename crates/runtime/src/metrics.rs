//! Always-on, low-overhead runtime metrics.
//!
//! Tracing ([`regent_trace`]) records *everything* and is therefore
//! opt-in; this registry records *aggregates* — per-shard counters and
//! log2-bucket latency histograms for the operations the paper's
//! analysis cares about (launches, dependence analysis, copies,
//! barrier/collective waits, memo hits, retransmits) — cheaply enough
//! to stay on in every run. Each executor thread owns a
//! [`MetricsHandle`] (no locks on the hot path); handles merge into the
//! process-global [`MetricsRegistry`] when dropped, and the executors
//! export it at shutdown: with `REGENT_METRICS=<path>` in the process
//! environment the aggregated registry is written to `<path>` as JSON
//! (the document flight dumps attach too; Prometheus text is the
//! scrape endpoint's job, [`crate::scrape`]). `REGENT_METRICS_OFF`
//! disables collection entirely (the A/B switch the overhead
//! measurement in EXPERIMENTS.md uses). Both are fixed when [`global`]
//! first runs ([`crate::config::process`]).

use crate::config;
use regent_trace::json::escape_into;
use regent_trace::FlightRecorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Monotonic event counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Task launches issued (control thread or shard).
    Launches,
    /// Point-task kernels executed.
    TaskRuns,
    /// Copy messages extracted and sent (producer side).
    CopiesIssued,
    /// Copy messages received and applied (consumer side).
    CopiesApplied,
    /// Barrier waits entered.
    BarrierWaits,
    /// Dynamic-collective waits entered (§4.4).
    CollectiveWaits,
    /// Pairwise region dependence checks performed.
    DepChecks,
    /// Epochs fully replayed from a memoized template.
    MemoHits,
    /// Replay attempts that diverged back to analysis.
    MemoMisses,
    /// Epoch templates captured.
    MemoCaptures,
    /// Point tasks whose dependence bookkeeping was replayed.
    MemoReplayedTasks,
    /// Corrupted/lost delivery attempts absorbed by retransmission.
    Retransmits,
    /// Checkpoint snapshots taken.
    Checkpoints,
    /// Checkpoint rollbacks performed.
    Restores,
    /// Point tasks executed sequentially (hybrid segments).
    SequentialTasks,
    /// Replicated segments executed (hybrid programs).
    ReplicatedSegments,
    /// Records appended to the shared launch log (sequencer side).
    LogAppends,
    /// Batches published by the flat combiner.
    LogCombinedBatches,
    /// Records combined into published batches.
    LogCombinedRecords,
    /// Sum of per-batch consumer cursor lags (replica leaders).
    LogCursorLag,
    /// Per-replica per-batch dependence analyses run.
    LogAnalyses,
    /// Jobs admitted into a service shard pool.
    JobsAdmitted,
    /// Jobs rejected by admission control (`Overloaded`).
    JobsShed,
    /// Job retry attempts after transient failures.
    JobsRetried,
    /// Tenant shard-allocation reductions under sustained pressure.
    JobsDegraded,
    /// Jobs that ran to completion under supervision.
    JobsCompleted,
    /// Jobs quarantined after a permanent (non-retryable) failure.
    JobsQuarantined,
    /// Exchange payload buffers served from the shard's freelist.
    PoolReuses,
    /// Exchange payload buffers that had to be freshly allocated.
    PoolAllocs,
    /// Ring sends that found the ring full and had to wait
    /// (back-pressure stalls on the lock-free data plane).
    RingStalls,
    /// Executor attempts launched by the failover driver (1 per run
    /// when nothing dies).
    FailoverAttempts,
    /// Shard deaths observed by the failover driver (kills, panics,
    /// hangs).
    PeerDeaths,
    /// Membership epochs committed: each is one shard evicted and the
    /// mesh rebuilt one smaller.
    MembershipShrinks,
    /// Exchange schedules built: a run that finds its program's
    /// schedule already cached adds nothing here.
    ScheduleBuilds,
    /// Instance columns rehashed at a write-completion point (launch
    /// completion, the end of a copy statement, reduction-temp reset)
    /// by the integrity layer.
    ColumnSeals,
    /// Shard images built: once per shard per compiled program (and
    /// again after a shard-count change, or when two runs of one
    /// program overlap).
    ImageBuilds,
    /// Runs of a shard that took an image an earlier run left.
    ImageReuses,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 37;

    /// All counters, in declaration order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Launches,
        Counter::TaskRuns,
        Counter::CopiesIssued,
        Counter::CopiesApplied,
        Counter::BarrierWaits,
        Counter::CollectiveWaits,
        Counter::DepChecks,
        Counter::MemoHits,
        Counter::MemoMisses,
        Counter::MemoCaptures,
        Counter::MemoReplayedTasks,
        Counter::Retransmits,
        Counter::Checkpoints,
        Counter::Restores,
        Counter::SequentialTasks,
        Counter::ReplicatedSegments,
        Counter::LogAppends,
        Counter::LogCombinedBatches,
        Counter::LogCombinedRecords,
        Counter::LogCursorLag,
        Counter::LogAnalyses,
        Counter::JobsAdmitted,
        Counter::JobsShed,
        Counter::JobsRetried,
        Counter::JobsDegraded,
        Counter::JobsCompleted,
        Counter::JobsQuarantined,
        Counter::PoolReuses,
        Counter::PoolAllocs,
        Counter::RingStalls,
        Counter::FailoverAttempts,
        Counter::PeerDeaths,
        Counter::MembershipShrinks,
        Counter::ScheduleBuilds,
        Counter::ColumnSeals,
        Counter::ImageBuilds,
        Counter::ImageReuses,
    ];

    /// Stable snake_case name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Launches => "launches",
            Counter::TaskRuns => "task_runs",
            Counter::CopiesIssued => "copies_issued",
            Counter::CopiesApplied => "copies_applied",
            Counter::BarrierWaits => "barrier_waits",
            Counter::CollectiveWaits => "collective_waits",
            Counter::DepChecks => "dep_checks",
            Counter::MemoHits => "memo_hits",
            Counter::MemoMisses => "memo_misses",
            Counter::MemoCaptures => "memo_captures",
            Counter::MemoReplayedTasks => "memo_replayed_tasks",
            Counter::Retransmits => "retransmits",
            Counter::Checkpoints => "checkpoints",
            Counter::Restores => "restores",
            Counter::SequentialTasks => "sequential_tasks",
            Counter::ReplicatedSegments => "replicated_segments",
            Counter::LogAppends => "log_appends",
            Counter::LogCombinedBatches => "log_combined_batches",
            Counter::LogCombinedRecords => "log_combined_records",
            Counter::LogCursorLag => "log_cursor_lag",
            Counter::LogAnalyses => "log_analyses",
            Counter::JobsAdmitted => "jobs_admitted",
            Counter::JobsShed => "jobs_shed",
            Counter::JobsRetried => "jobs_retried",
            Counter::JobsDegraded => "jobs_degraded",
            Counter::JobsCompleted => "jobs_completed",
            Counter::JobsQuarantined => "jobs_quarantined",
            Counter::PoolReuses => "pool_reuses",
            Counter::PoolAllocs => "pool_allocs",
            Counter::RingStalls => "ring_stalls",
            Counter::FailoverAttempts => "failover_attempts",
            Counter::PeerDeaths => "peer_deaths",
            Counter::MembershipShrinks => "membership_shrinks",
            Counter::ScheduleBuilds => "schedule_builds",
            Counter::ColumnSeals => "column_seals",
            Counter::ImageBuilds => "image_builds",
            Counter::ImageReuses => "image_reuses",
        }
    }

    /// One-line description, emitted as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Counter::Launches => "Task launches issued (control thread or shard)",
            Counter::TaskRuns => "Point-task kernels executed",
            Counter::CopiesIssued => "Copy messages extracted and sent (producer side)",
            Counter::CopiesApplied => "Copy messages received and applied (consumer side)",
            Counter::BarrierWaits => "Barrier waits entered",
            Counter::CollectiveWaits => "Dynamic-collective waits entered",
            Counter::DepChecks => "Pairwise region dependence checks performed",
            Counter::MemoHits => "Epochs fully replayed from a memoized template",
            Counter::MemoMisses => "Replay attempts that diverged back to analysis",
            Counter::MemoCaptures => "Epoch templates captured",
            Counter::MemoReplayedTasks => "Point tasks whose dependence bookkeeping was replayed",
            Counter::Retransmits => "Corrupted or lost deliveries absorbed by retransmission",
            Counter::Checkpoints => "Checkpoint snapshots taken",
            Counter::Restores => "Checkpoint rollbacks performed",
            Counter::SequentialTasks => "Point tasks executed sequentially (hybrid segments)",
            Counter::ReplicatedSegments => "Replicated segments executed (hybrid programs)",
            Counter::LogAppends => "Records appended to the shared launch log",
            Counter::LogCombinedBatches => "Batches published by the flat combiner",
            Counter::LogCombinedRecords => "Records combined into published batches",
            Counter::LogCursorLag => "Sum of per-batch consumer cursor lags",
            Counter::LogAnalyses => "Per-replica per-batch dependence analyses run",
            Counter::JobsAdmitted => "Jobs admitted into a service shard pool",
            Counter::JobsShed => "Jobs rejected by admission control",
            Counter::JobsRetried => "Job retry attempts after transient failures",
            Counter::JobsDegraded => "Tenant shard-allocation reductions under pressure",
            Counter::JobsCompleted => "Jobs that ran to completion under supervision",
            Counter::JobsQuarantined => "Jobs quarantined after a permanent failure",
            Counter::PoolReuses => "Exchange payload buffers served from the freelist",
            Counter::PoolAllocs => "Exchange payload buffers freshly allocated",
            Counter::RingStalls => "Ring sends stalled on back-pressure",
            Counter::FailoverAttempts => "Executor attempts launched by the failover driver",
            Counter::PeerDeaths => "Shard deaths observed by the failover driver",
            Counter::MembershipShrinks => "Membership epochs committed (one eviction each)",
            Counter::ScheduleBuilds => "Exchange schedules built (cache misses)",
            Counter::ColumnSeals => "Instance columns rehashed at write-completion points",
            Counter::ImageBuilds => "Shard images built (instances allocated, run lists computed)",
            Counter::ImageReuses => "Shard runs that reused the program's image",
        }
    }

    fn index(self) -> usize {
        Counter::ALL.iter().position(|c| *c == self).unwrap()
    }
}

/// Latency histograms (all in nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Timer {
    /// Kernel execution time per point task.
    TaskRunNs,
    /// Dependence-analysis time per task (implicit executor).
    DepAnalysisNs,
    /// Producer-side copy time (extract + send).
    CopyIssueNs,
    /// Consumer-side copy time (blocking receive + apply).
    CopyWaitNs,
    /// Time blocked at a barrier.
    BarrierWaitNs,
    /// Time blocked in a dynamic collective.
    CollectiveWaitNs,
    /// Checkpoint snapshot time.
    CheckpointNs,
    /// Checkpoint restore time.
    RestoreNs,
    /// Flat-combining round time (sequencer side).
    LogCombineNs,
    /// Per-replica per-batch dependence-analysis time.
    LogAnalysisNs,
    /// Time a supervised job waited in the service admission queue.
    QueueWaitNs,
    /// Time spent in the integrity layer: sealing instance columns,
    /// verifying seals at epoch boundaries, and checksumming exchange frames.
    IntegrityNs,
    /// Mean-time-to-repair: from the failover driver catching a failed
    /// attempt to the next attempt being ready to launch (membership
    /// agreement + checkpoint remap; excludes replayed epochs).
    MttrNs,
    /// Time reconstructing the dead shard's subregion instances onto
    /// the survivors from the last committed checkpoint.
    FailoverReconstructNs,
    /// Time building an exchange schedule (the §3.3 inspector:
    /// intersections plus gather/scatter offsets), per build.
    ScheduleBuildNs,
    /// Time filling a shard's image from the store at the start of a
    /// run (seals dropped, declared columns copied in, temporaries
    /// identity-filled), per shard per run.
    ImageFillNs,
    /// Time flushing a shard's written partition instances back into
    /// the store at the end of a run, per shard per run.
    ImageFlushNs,
}

impl Timer {
    /// Number of timers.
    pub const COUNT: usize = 17;

    /// All timers, in declaration order.
    pub const ALL: [Timer; Timer::COUNT] = [
        Timer::TaskRunNs,
        Timer::DepAnalysisNs,
        Timer::CopyIssueNs,
        Timer::CopyWaitNs,
        Timer::BarrierWaitNs,
        Timer::CollectiveWaitNs,
        Timer::CheckpointNs,
        Timer::RestoreNs,
        Timer::LogCombineNs,
        Timer::LogAnalysisNs,
        Timer::QueueWaitNs,
        Timer::IntegrityNs,
        Timer::MttrNs,
        Timer::FailoverReconstructNs,
        Timer::ScheduleBuildNs,
        Timer::ImageFillNs,
        Timer::ImageFlushNs,
    ];

    /// Stable snake_case name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            Timer::TaskRunNs => "task_run_ns",
            Timer::DepAnalysisNs => "dep_analysis_ns",
            Timer::CopyIssueNs => "copy_issue_ns",
            Timer::CopyWaitNs => "copy_wait_ns",
            Timer::BarrierWaitNs => "barrier_wait_ns",
            Timer::CollectiveWaitNs => "collective_wait_ns",
            Timer::CheckpointNs => "checkpoint_ns",
            Timer::RestoreNs => "restore_ns",
            Timer::LogCombineNs => "log_combine_ns",
            Timer::LogAnalysisNs => "log_analysis_ns",
            Timer::QueueWaitNs => "queue_wait_ns",
            Timer::IntegrityNs => "integrity_ns",
            Timer::MttrNs => "mttr_ns",
            Timer::FailoverReconstructNs => "failover_reconstruct_ns",
            Timer::ScheduleBuildNs => "schedule_build_ns",
            Timer::ImageFillNs => "image_fill_ns",
            Timer::ImageFlushNs => "image_flush_ns",
        }
    }

    /// One-line description, emitted as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Timer::TaskRunNs => "Kernel execution time per point task (ns)",
            Timer::DepAnalysisNs => "Dependence-analysis time per task (ns)",
            Timer::CopyIssueNs => "Producer-side copy time: extract + send (ns)",
            Timer::CopyWaitNs => "Consumer-side copy time: receive + apply (ns)",
            Timer::BarrierWaitNs => "Time blocked at a barrier (ns)",
            Timer::CollectiveWaitNs => "Time blocked in a dynamic collective (ns)",
            Timer::CheckpointNs => "Checkpoint snapshot time (ns)",
            Timer::RestoreNs => "Checkpoint restore time (ns)",
            Timer::LogCombineNs => "Flat-combining round time, sequencer side (ns)",
            Timer::LogAnalysisNs => "Per-replica per-batch dependence-analysis time (ns)",
            Timer::QueueWaitNs => "Time a job waited in the service admission queue (ns)",
            Timer::IntegrityNs => "Time sealing, verifying, and checksumming instances (ns)",
            Timer::MttrNs => "Mean-time-to-repair per failover attempt (ns)",
            Timer::FailoverReconstructNs => "Time reconstructing dead-shard instances (ns)",
            Timer::ScheduleBuildNs => "Time building an exchange schedule, per build (ns)",
            Timer::ImageFillNs => "Time filling a shard image from the store, per shard run (ns)",
            Timer::ImageFlushNs => "Time flushing a shard image into the store, per shard run (ns)",
        }
    }

    fn index(self) -> usize {
        Timer::ALL.iter().position(|t| *t == self).unwrap()
    }
}

/// Number of log2 buckets per histogram (covers single nanoseconds up
/// to ~9 simulated minutes per sample).
pub const HIST_BUCKETS: usize = 40;

/// A log2-bucket latency histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also absorbs 0 ns samples).
/// The terminal bucket is an *overflow* bucket: samples at or above
/// `2^(HIST_BUCKETS-1)` ns saturate into it, and exposition reports
/// them only under `le="+Inf"` — never under a finite bound they may
/// exceed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Sample counts per log2 bucket.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let b = if ns == 0 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Componentwise accumulation.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Mean sample, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) in nanoseconds, linearly
    /// interpolated within the landing log2 bucket. Returns 0 when
    /// empty. A quantile landing in the overflow bucket is reported as
    /// that bucket's lower bound (the histogram records no upper bound
    /// there), so tail estimates saturate rather than fabricate.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let prev = cum as f64;
            cum += n;
            if (cum as f64) >= rank {
                let lo = if i == 0 { 0.0 } else { (1u128 << i) as f64 };
                if i == HIST_BUCKETS - 1 {
                    return lo;
                }
                let hi = (1u128 << (i + 1)) as f64;
                let frac = ((rank - prev) / n as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
        }
        (1u128 << (HIST_BUCKETS - 1)) as f64
    }
}

/// One shard's (or thread's) complete metric state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSet {
    /// Counter values, indexed by [`Counter::ALL`] order.
    pub counters: [u64; Counter::COUNT],
    /// Histograms, indexed by [`Timer::ALL`] order.
    pub timers: [Hist; Timer::COUNT],
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet {
            counters: [0; Counter::COUNT],
            timers: [Hist::default(); Timer::COUNT],
        }
    }
}

impl MetricSet {
    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Histogram of `t`.
    pub fn timer(&self, t: Timer) -> &Hist {
        &self.timers[t.index()]
    }

    /// Componentwise accumulation.
    pub fn merge(&mut self, other: &MetricSet) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.timers.iter_mut().zip(other.timers.iter()) {
            a.merge(b);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.timers.iter().all(|t| t.count == 0)
    }
}

/// Nanoseconds of CPU time consumed by the calling thread
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike a wall clock, time spent
/// descheduled does not accumulate, so a probe bracketing a short
/// section does not blow up when a preemption lands inside it — the
/// right clock for sub-millisecond instrumented sections on a busy
/// machine. Falls back to the wall clock where the raw syscall is
/// unavailable.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Nanoseconds of CPU time consumed by the whole process
/// (`CLOCK_PROCESS_CPUTIME_ID`) — the load-immune denominator for
/// "share of useful work" statistics: background load stretches wall
/// clock but not CPU time. Falls back to the wall clock where the raw
/// syscall is unavailable.
pub fn process_cpu_ns() -> u64 {
    clock_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn clock_ns(clockid: usize) -> u64 {
    let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
    let ret: isize;
    // SAFETY: clock_gettime(clockid, &mut ts) writes `ts` only for
    // the duration of the call.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 228isize => ret, // __NR_clock_gettime
            in("rdi") clockid,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret == 0 {
        ts[0] as u64 * 1_000_000_000 + ts[1] as u64
    } else {
        wall_fallback_ns()
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn clock_ns(clockid: usize) -> u64 {
    let mut ts = [0i64; 2];
    let ret: isize;
    // SAFETY: as above; aarch64 passes the syscall number in x8.
    unsafe {
        std::arch::asm!(
            "svc #0",
            inlateout("x0") clockid => ret,
            in("x1") ts.as_mut_ptr(),
            in("x8") 113usize, // __NR_clock_gettime
            options(nostack),
        );
    }
    if ret == 0 {
        ts[0] as u64 * 1_000_000_000 + ts[1] as u64
    } else {
        wall_fallback_ns()
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn clock_ns(_clockid: usize) -> u64 {
    wall_fallback_ns()
}

fn wall_fallback_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The process-global registry. Threads record into private
/// [`MetricsHandle`]s; dropped handles merge here under their label.
pub struct MetricsRegistry {
    enabled: bool,
    /// Where [`MetricsRegistry::export`] writes, if anywhere.
    file: Option<PathBuf>,
    store: Mutex<BTreeMap<String, MetricSet>>,
}

/// The global registry: collecting unless the process turned telemetry
/// off, exporting to the process's metrics file.
pub fn global() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let env = config::process();
        MetricsRegistry {
            enabled: env.telemetry,
            file: env.metrics_file.clone(),
            store: Mutex::new(BTreeMap::new()),
        }
    })
}

/// The global flight recorder (`regent_trace::flight`): recording
/// unless the process turned telemetry off, dumping into the process's
/// flight directory.
pub fn flight() -> &'static FlightRecorder {
    regent_trace::flight::global(|| {
        let env = config::process();
        (env.telemetry, env.flight_dir.clone())
    })
}

impl MetricsRegistry {
    /// Is collection on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Writes the registry as JSON to the file it was built with.
    /// Called by every executor at shutdown; without a file (or with
    /// collection off) this is a no-op. Write failures are reported to
    /// stderr, never fatal.
    pub(crate) fn export(&self) {
        let Some(path) = self.file.as_ref().filter(|_| self.enabled) else {
            return;
        };
        if let Err(e) = std::fs::write(path, self.to_json()) {
            eprintln!("REGENT_METRICS: cannot write {}: {e}", path.display());
        }
    }

    /// A private recording handle for one thread, merged back under
    /// `label` when dropped.
    pub fn handle(&'static self, label: &str) -> MetricsHandle {
        MetricsHandle {
            enabled: self.enabled,
            label: label.to_string(),
            epoch: Instant::now(),
            set: Box::default(),
            registry: self,
        }
    }

    fn absorb(&self, label: &str, set: &MetricSet) {
        if set.is_empty() {
            return;
        }
        let mut store = self.store.lock().unwrap();
        store.entry(label.to_string()).or_default().merge(set);
    }

    /// Per-label snapshots, label-sorted.
    pub fn per_label(&self) -> Vec<(String, MetricSet)> {
        let store = self.store.lock().unwrap();
        store.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Everything merged into one set.
    pub fn aggregate(&self) -> MetricSet {
        let mut total = MetricSet::default();
        for (_, set) in self.per_label() {
            total.merge(&set);
        }
        total
    }

    /// Clears all recorded state (tests and A/B measurements).
    pub fn reset(&self) {
        self.store.lock().unwrap().clear();
    }

    /// Flat `(name, value)` pairs of the aggregate — nonzero counters
    /// plus count/mean per nonempty histogram — the metrics snapshot
    /// embedded in bench artifacts.
    pub fn snapshot_flat(&self) -> Vec<(String, f64)> {
        let total = self.aggregate();
        let mut out = Vec::new();
        for c in Counter::ALL {
            let v = total.get(c);
            if v > 0 {
                out.push((c.name().to_string(), v as f64));
            }
        }
        for t in Timer::ALL {
            let h = total.timer(t);
            if h.count > 0 {
                out.push((format!("{}_count", t.name()), h.count as f64));
                out.push((format!("{}_mean", t.name()), h.mean_ns()));
            }
        }
        out
    }

    /// Serializes the registry as JSON:
    /// `{"metricsSchema":1,"labels":{…},"total":{…}}`.
    pub fn to_json(&self) -> String {
        fn write_set(out: &mut String, set: &MetricSet) {
            out.push_str("{\"counters\":{");
            let mut first = true;
            for c in Counter::ALL {
                let v = set.get(c);
                if v == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                write!(out, "\"{}\":{v}", c.name()).unwrap();
            }
            out.push_str("},\"timers\":{");
            let mut first = true;
            for t in Timer::ALL {
                let h = set.timer(t);
                if h.count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                write!(
                    out,
                    "\"{}\":{{\"count\":{},\"sum_ns\":{},\"buckets\":{{",
                    t.name(),
                    h.count,
                    h.sum_ns
                )
                .unwrap();
                let mut bfirst = true;
                for (i, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    if !bfirst {
                        out.push(',');
                    }
                    bfirst = false;
                    write!(out, "\"{i}\":{n}").unwrap();
                }
                out.push_str("}}");
            }
            out.push_str("}}");
        }
        let mut out = String::from("{\"metricsSchema\":1,\"labels\":{");
        for (i, (label, set)) in self.per_label().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, label);
            out.push_str("\":");
            write_set(&mut out, set);
        }
        out.push_str("},\"total\":");
        write_set(&mut out, &self.aggregate());
        out.push('}');
        out
    }

    /// Serializes the registry as Prometheus text exposition:
    /// `# HELP`/`# TYPE` metadata per family, escaped label values,
    /// cumulative `le` buckets with the overflow bucket reported only
    /// under `+Inf`, one series per label.
    pub fn to_prometheus(&self) -> String {
        let labels = self.per_label();
        let mut out = String::new();
        for c in Counter::ALL {
            if labels.iter().all(|(_, s)| s.get(c) == 0) {
                continue;
            }
            writeln!(out, "# HELP regent_{}_total {}", c.name(), c.help()).unwrap();
            writeln!(out, "# TYPE regent_{}_total counter", c.name()).unwrap();
            for (label, set) in &labels {
                let v = set.get(c);
                if v > 0 {
                    writeln!(
                        out,
                        "regent_{}_total{{shard=\"{}\"}} {v}",
                        c.name(),
                        prom_escape(label)
                    )
                    .unwrap();
                }
            }
        }
        for t in Timer::ALL {
            if labels.iter().all(|(_, s)| s.timer(t).count == 0) {
                continue;
            }
            writeln!(out, "# HELP regent_{} {}", t.name(), t.help()).unwrap();
            writeln!(out, "# TYPE regent_{} histogram", t.name()).unwrap();
            for (label, set) in &labels {
                let h = set.timer(t);
                if h.count == 0 {
                    continue;
                }
                let label = prom_escape(label);
                let mut cum = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    cum += n;
                    // The terminal bucket is the overflow bucket: its
                    // samples may exceed 2^HIST_BUCKETS, so they are
                    // reported only under the +Inf bound below.
                    if i == HIST_BUCKETS - 1 {
                        break;
                    }
                    writeln!(
                        out,
                        "regent_{}_bucket{{shard=\"{label}\",le=\"{}\"}} {cum}",
                        t.name(),
                        1u128 << (i + 1)
                    )
                    .unwrap();
                }
                writeln!(
                    out,
                    "regent_{}_bucket{{shard=\"{label}\",le=\"+Inf\"}} {}",
                    t.name(),
                    h.count
                )
                .unwrap();
                writeln!(
                    out,
                    "regent_{}_sum{{shard=\"{label}\"}} {}",
                    t.name(),
                    h.sum_ns
                )
                .unwrap();
                writeln!(
                    out,
                    "regent_{}_count{{shard=\"{label}\"}} {}",
                    t.name(),
                    h.count
                )
                .unwrap();
            }
        }
        out
    }
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline per the text-exposition spec.
pub fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One thread's private recording handle (see [`MetricsRegistry`]).
/// All methods are no-ops when collection is disabled.
pub struct MetricsHandle {
    enabled: bool,
    label: String,
    epoch: Instant,
    set: Box<MetricSet>,
    registry: &'static MetricsRegistry,
}

impl MetricsHandle {
    /// Is this handle recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increments `c` by one.
    pub fn incr(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Increments `c` by `by`.
    pub fn add(&mut self, c: Counter, by: u64) {
        if self.enabled && by > 0 {
            self.set.counters[c.index()] += by;
        }
    }

    /// An opaque start stamp for [`MetricsHandle::record_since`]
    /// (0 — no clock read — when disabled).
    pub fn start(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records the elapsed time since `t0` (from
    /// [`MetricsHandle::start`]) into `t`.
    pub fn record_since(&mut self, t0: u64, t: Timer) {
        if self.enabled {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.set.timers[t.index()].record(now.saturating_sub(t0));
        }
    }

    /// An opaque thread-CPU-time start stamp for
    /// [`MetricsHandle::record_cpu_since`] (0 — no clock read — when
    /// disabled). Use for short sections whose measurement must not
    /// absorb a preemption gap; see [`thread_cpu_ns`].
    pub fn start_cpu(&self) -> u64 {
        if self.enabled {
            thread_cpu_ns()
        } else {
            0
        }
    }

    /// Records the thread-CPU time since `t0` (from
    /// [`MetricsHandle::start_cpu`]) into `t`.
    pub fn record_cpu_since(&mut self, t0: u64, t: Timer) {
        if self.enabled {
            let now = thread_cpu_ns();
            self.set.timers[t.index()].record(now.saturating_sub(t0));
        }
    }

    /// Records an externally measured duration into `t`.
    pub fn record_ns(&mut self, t: Timer, ns: u64) {
        if self.enabled {
            self.set.timers[t.index()].record(ns);
        }
    }

    /// Merges the buffered set into the registry now and resets the
    /// buffer. Long-lived handles (service worker threads) call this
    /// at job boundaries so mid-run scrapes see fresh counters; the
    /// implicit merge on drop only covers handles that die promptly.
    pub fn flush(&mut self) {
        if self.enabled {
            self.registry.absorb(&self.label, &self.set);
            *self.set = MetricSet::default();
        }
    }
}

impl Drop for MetricsHandle {
    fn drop(&mut self) {
        if self.enabled {
            self.registry.absorb(&self.label, &self.set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_and_means() {
        let mut h = Hist::default();
        h.record(0);
        h.record(1);
        h.record(1023); // bucket 9
        h.record(1024); // bucket 10
        assert_eq!(h.count, 4);
        assert_eq!(h.sum_ns, 2048);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.mean_ns(), 512.0);
        let mut g = Hist::default();
        g.merge(&h);
        g.merge(&h);
        assert_eq!(g.count, 8);
        assert_eq!(g.buckets[0], 4);
    }

    #[test]
    fn handles_merge_into_registry_and_export() {
        let registry = global();
        if !registry.is_enabled() {
            return; // REGENT_METRICS_OFF set for this test process
        }
        registry.reset();
        {
            let mut h = registry.handle("test-shard-0");
            h.incr(Counter::Launches);
            h.add(Counter::Retransmits, 3);
            h.record_ns(Timer::TaskRunNs, 500);
            let mut h2 = registry.handle("test-shard-1");
            h2.incr(Counter::Launches);
            let t0 = h2.start();
            h2.record_since(t0, Timer::CopyWaitNs);
        }
        let total = registry.aggregate();
        assert_eq!(total.get(Counter::Launches), 2);
        assert_eq!(total.get(Counter::Retransmits), 3);
        assert_eq!(total.timer(Timer::TaskRunNs).count, 1);
        assert_eq!(total.timer(Timer::CopyWaitNs).count, 1);

        let json = registry.to_json();
        let v = regent_trace::json::parse(&json).expect("metrics JSON must parse");
        assert_eq!(
            v.get("total")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("launches")
                .unwrap()
                .as_num(),
            Some(2.0)
        );
        let prom = registry.to_prometheus();
        assert!(prom.contains("regent_launches_total{shard=\"test-shard-0\"} 1"));
        assert!(prom.contains("regent_task_run_ns_bucket"));
        assert!(prom.contains("le=\"+Inf\""));

        let flat = registry.snapshot_flat();
        assert!(flat.iter().any(|(n, v)| n == "launches" && *v == 2.0));
        registry.reset();
        assert!(registry.aggregate().is_empty());
    }

    /// `REGENT_METRICS=<path>` means one file, JSON; no `.prom` twin.
    #[test]
    fn export_writes_the_json_document_only() {
        let path = std::env::temp_dir().join(format!("regent-metrics-{}.json", std::process::id()));
        let registry = MetricsRegistry {
            enabled: true,
            file: Some(path.clone()),
            store: Mutex::new(BTreeMap::new()),
        };
        let mut set = MetricSet::default();
        set.counters[Counter::TaskRuns.index()] = 3;
        registry.absorb("shard-0", &set);
        registry.export();
        let text = std::fs::read_to_string(&path).expect("export wrote the file");
        let doc = regent_trace::json::parse(&text).expect("metrics JSON must parse");
        let total = doc.get("total").unwrap().get("counters").unwrap();
        assert_eq!(total.get("task_runs").unwrap().as_num(), Some(3.0));
        let mut twin = path.clone().into_os_string();
        twin.push(".prom");
        assert!(!std::path::Path::new(&twin).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_publishes_midlife_and_never_double_counts() {
        let registry = global();
        if !registry.is_enabled() {
            return; // REGENT_METRICS_OFF set for this test process
        }
        // Unique label: no reset(), so this cannot race other tests
        // that share the global registry.
        let label = "test-flush-worker";
        let mut h = registry.handle(label);
        h.add(Counter::JobsAdmitted, 2);
        h.flush();
        let mid = |reg: &MetricsRegistry| {
            reg.per_label()
                .into_iter()
                .find(|(l, _)| l == label)
                .map(|(_, s)| s.get(Counter::JobsAdmitted))
                .unwrap_or(0)
        };
        // Visible to a scrape while the handle is still alive...
        assert_eq!(mid(registry), 2);
        h.incr(Counter::JobsAdmitted);
        drop(h); // ...and the drop-merge only adds the post-flush tail.
        assert_eq!(mid(registry), 3);
    }

    #[test]
    fn hist_quantiles_interpolate_and_saturate() {
        let mut h = Hist::default();
        for _ in 0..99 {
            h.record(1000); // bucket 9: [512, 1024)
        }
        h.record(1 << 62); // overflow bucket
        let p50 = h.quantile_ns(0.5);
        assert!((512.0..1024.0).contains(&p50), "p50 = {p50}");
        // The tail quantile lands in the overflow bucket and must
        // saturate at its lower bound, not invent an upper bound.
        assert_eq!(h.quantile_ns(0.999), (1u128 << (HIST_BUCKETS - 1)) as f64);
        assert_eq!(Hist::default().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn prometheus_exposition_is_spec_compliant() {
        // Golden-output check for the counter and histogram families of
        // the service queue, the exchange schedule and the shard images. Uses a private registry so parallel tests touching
        // the global one cannot perturb the golden text.
        let registry = MetricsRegistry {
            enabled: true,
            file: None,
            store: Mutex::new(BTreeMap::new()),
        };
        let mut set = MetricSet::default();
        set.counters[Counter::JobsAdmitted.index()] = 1;
        set.timers[Timer::QueueWaitNs.index()].record(700); // bucket 9
        set.timers[Timer::QueueWaitNs.index()].record(1 << 62); // overflow bucket
        set.counters[Counter::ScheduleBuilds.index()] = 1;
        set.timers[Timer::ScheduleBuildNs.index()].record(3); // bucket 1
        set.counters[Counter::ImageBuilds.index()] = 2;
        set.counters[Counter::ImageReuses.index()] = 6;
        set.timers[Timer::ImageFillNs.index()].record(5); // bucket 2
        set.timers[Timer::ImageFlushNs.index()].record(9); // bucket 3
        registry.absorb("tenant-1/quote\"back\\slash", &set);
        let prom = registry.to_prometheus();
        let expected = "\
# HELP regent_jobs_admitted_total Jobs admitted into a service shard pool
# TYPE regent_jobs_admitted_total counter
regent_jobs_admitted_total{shard=\"tenant-1/quote\\\"back\\\\slash\"} 1
# HELP regent_schedule_builds_total Exchange schedules built (cache misses)
# TYPE regent_schedule_builds_total counter
regent_schedule_builds_total{shard=\"tenant-1/quote\\\"back\\\\slash\"} 1
# HELP regent_image_builds_total Shard images built (instances allocated, run lists computed)
# TYPE regent_image_builds_total counter
regent_image_builds_total{shard=\"tenant-1/quote\\\"back\\\\slash\"} 2
# HELP regent_image_reuses_total Shard runs that reused the program's image
# TYPE regent_image_reuses_total counter
regent_image_reuses_total{shard=\"tenant-1/quote\\\"back\\\\slash\"} 6
# HELP regent_queue_wait_ns Time a job waited in the service admission queue (ns)
# TYPE regent_queue_wait_ns histogram
regent_queue_wait_ns_bucket{shard=\"tenant-1/quote\\\"back\\\\slash\",le=\"1024\"} 1
regent_queue_wait_ns_bucket{shard=\"tenant-1/quote\\\"back\\\\slash\",le=\"+Inf\"} 2
regent_queue_wait_ns_sum{shard=\"tenant-1/quote\\\"back\\\\slash\"} 4611686018427388604
regent_queue_wait_ns_count{shard=\"tenant-1/quote\\\"back\\\\slash\"} 2
# HELP regent_schedule_build_ns Time building an exchange schedule, per build (ns)
# TYPE regent_schedule_build_ns histogram
regent_schedule_build_ns_bucket{shard=\"tenant-1/quote\\\"back\\\\slash\",le=\"4\"} 1
regent_schedule_build_ns_bucket{shard=\"tenant-1/quote\\\"back\\\\slash\",le=\"+Inf\"} 1
regent_schedule_build_ns_sum{shard=\"tenant-1/quote\\\"back\\\\slash\"} 3
regent_schedule_build_ns_count{shard=\"tenant-1/quote\\\"back\\\\slash\"} 1
# HELP regent_image_fill_ns Time filling a shard image from the store, per shard run (ns)
# TYPE regent_image_fill_ns histogram
regent_image_fill_ns_bucket{shard=\"tenant-1/quote\\\"back\\\\slash\",le=\"8\"} 1
regent_image_fill_ns_bucket{shard=\"tenant-1/quote\\\"back\\\\slash\",le=\"+Inf\"} 1
regent_image_fill_ns_sum{shard=\"tenant-1/quote\\\"back\\\\slash\"} 5
regent_image_fill_ns_count{shard=\"tenant-1/quote\\\"back\\\\slash\"} 1
# HELP regent_image_flush_ns Time flushing a shard image into the store, per shard run (ns)
# TYPE regent_image_flush_ns histogram
regent_image_flush_ns_bucket{shard=\"tenant-1/quote\\\"back\\\\slash\",le=\"16\"} 1
regent_image_flush_ns_bucket{shard=\"tenant-1/quote\\\"back\\\\slash\",le=\"+Inf\"} 1
regent_image_flush_ns_sum{shard=\"tenant-1/quote\\\"back\\\\slash\"} 9
regent_image_flush_ns_count{shard=\"tenant-1/quote\\\"back\\\\slash\"} 1
";
        assert_eq!(prom, expected);
        // Overflow samples must never appear under a finite le bound.
        assert!(!prom.contains(&format!("le=\"{}\"", 1u128 << HIST_BUCKETS)));
    }

    #[test]
    fn prom_escape_handles_specials() {
        assert_eq!(prom_escape("plain"), "plain");
        assert_eq!(prom_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn disabled_handle_records_nothing() {
        // A handle constructed with collection off must not touch the
        // clock or the store.
        let registry = global();
        registry.reset();
        let mut h = MetricsHandle {
            enabled: false,
            label: "off".into(),
            epoch: Instant::now(),
            set: Box::default(),
            registry,
        };
        h.incr(Counter::Launches);
        assert_eq!(h.start(), 0);
        h.record_since(0, Timer::TaskRunNs);
        drop(h);
        assert!(!registry.per_label().iter().any(|(label, _)| label == "off"));
    }
}
