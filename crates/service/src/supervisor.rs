//! The supervisor proper: bounded admission, per-tenant fair
//! dispatch, and the robustness envelope each attempt runs inside.
//!
//! ## Threading model
//!
//! One scheduler mutex guards the tenant map and the queue accounting;
//! workers block on a condvar when idle and the service blocks on a
//! second condvar during drain-shutdown. Jobs execute *outside* the
//! lock — the lock is held only to pick/queue work, so admission stays
//! responsive while every worker is busy.
//!
//! ## Scoped per-job recorders
//!
//! Concurrent jobs would interleave events on identically-named shard
//! tracks if they shared one recorder, which breaks the happens-before
//! certification the profiler relies on. The service therefore splits
//! the trace plane in two: the configured service tracer records only
//! `Job*` events (admission spans carrying queue wait, sheds, retries,
//! degradations), while each *attempt* of each job runs its executor
//! under a private [`Tracer`] of its own. Only the successful
//! attempt's recorder survives — failed attempts are discarded, the
//! same discipline the failover driver applies to its inner per-attempt
//! tracers — so every completed job carries an independently
//! Spy-certifiable trace on
//! [`JobOutcome::Completed`](crate::JobOutcome), no matter how many
//! neighbours ran beside it. With
//! [`trace_dir`](crate::ServiceConfig::trace_dir) set
//! (`REGENT_SERVE_TRACE_DIR`), each trace is also dumped as
//! `tenant<t>-job<id>-<strategy>.trace.json`.
//!
//! Completions and sheds additionally feed the live telemetry plane
//! ([`regent_runtime::live`]) for sliding-window latency/goodput
//! gauges, and job milestones are noted on the always-on flight
//! recorder ([`regent_runtime::flight`]) so a Permanent failure dumps a
//! certifiable black box even on otherwise untraced runs.

use crate::config::ServiceConfig;
use crate::job::{JobHandle, JobOutcome, JobSpec, Overloaded, Shared, Strategy};
use regent_cr::hybrid::replicate_ranges;
use regent_cr::{control_replicate, CrOptions};
use regent_fault::splitmix64;
use regent_ir::{interp, Store};
use regent_region::{FieldType, RegionForest, RegionId};
use regent_runtime::live::live;
use regent_runtime::metrics::{self, flight, Counter, Timer};
use regent_runtime::{
    classify_failure, execute_implicit, panic_message, run, run_failover, CancelToken, Compiled,
    FailoverOptions, FailureClass, FaultPlan, ImplicitOptions, MemoCache, Rescue,
    ResilienceOptions, RunOptions, CANCEL_PREFIX,
};
use regent_trace::{export_chrome, EventKind, Trace, TraceBuf, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// An admitted job waiting for a worker.
struct QueuedJob {
    id: u64,
    spec: JobSpec,
    /// Tracer-clock timestamp at admission (0 when tracing is off).
    submitted_ts: u64,
    /// Wall clock at admission, for queue-wait metrics.
    submitted_at: Instant,
    /// Absolute deadline, fixed at admission and spanning retries.
    deadline_at: Option<Instant>,
    shared: Shared,
}

/// Per-tenant scheduler state: the isolation and fairness domain.
struct TenantState {
    /// Current shard allocation cap (halved under sustained shedding).
    shard_cap: usize,
    /// Sheds since the last degradation step.
    sheds: u32,
    /// This tenant's private epoch-memoization cache.
    memo: Arc<Mutex<MemoCache>>,
    queue: VecDeque<QueuedJob>,
}

struct Sched {
    tenants: BTreeMap<u32, TenantState>,
    queued: usize,
    queued_cost: u64,
    /// Last tenant served; the next pick is the smallest tenant id
    /// strictly greater (wrapping), giving round-robin over tenants.
    rr_cursor: u32,
    shutdown: bool,
    live_workers: usize,
}

/// Monotonic service counters (also mirrored onto the global metrics
/// registry; these exist so tests can assert without cross-test
/// interference on the process-global registry).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Jobs accepted by admission control.
    pub admitted: u64,
    /// Jobs rejected with [`Overloaded`].
    pub shed: u64,
    /// Jobs that reached [`JobOutcome::Completed`].
    pub completed: u64,
    /// Jobs that reached [`JobOutcome::Cancelled`].
    pub cancelled: u64,
    /// Jobs that reached [`JobOutcome::Quarantined`].
    pub quarantined: u64,
    /// Retry attempts across all jobs.
    pub retried: u64,
    /// Degradation steps (tenant shard-cap halvings).
    pub degraded: u64,
}

#[derive(Default)]
struct AtomicStats {
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    quarantined: AtomicU64,
    retried: AtomicU64,
    degraded: AtomicU64,
}

struct State {
    cfg: ServiceConfig,
    sched: Mutex<Sched>,
    /// Workers wait here for queued work (or shutdown).
    work_cv: Condvar,
    /// `shutdown` waits here for the last worker to exit.
    drain_cv: Condvar,
    /// Submit-side trace events (sheds, degradations) — submissions
    /// come from arbitrary client threads, so the buffer is shared.
    submit_buf: Mutex<TraceBuf>,
    stats: AtomicStats,
    next_job: AtomicU64,
    next_worker: AtomicU64,
}

/// A running job supervisor. Dropping the handle abandons the workers;
/// call [`Service::shutdown`] for a drained, clean stop.
pub struct Service {
    state: Arc<State>,
}

/// Installs (once per process) a panic hook that swallows the default
/// stderr report for *expected* supervised unwinds — deadline cancels
/// and injected transient faults are control flow here, not crashes.
/// Permanent failures (the quarantine path) still report normally, and
/// dump the flight-recorder black box (`REGENT_FLIGHT_DIR`) before the
/// unwind leaves the panic site — the post-mortem survives even if the
/// process dies before reaching the quarantine path.
fn install_quiet_hook() {
    static HOOK: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected =
                classify_failure(&panic_message(info.payload())) != FailureClass::Permanent;
            if !expected {
                flight().note("flight", EventKind::Mark { name: "panic" });
                flight().dump("panic", Some(&metrics::global().to_json()));
                prev(info);
            }
        }));
    });
}

impl Service {
    /// Starts the worker pool and returns the submission handle.
    pub fn start(cfg: ServiceConfig) -> Service {
        install_quiet_hook();
        let tracer = Arc::clone(&cfg.tracer);
        let workers = cfg.workers.max(1);
        let state = Arc::new(State {
            sched: Mutex::new(Sched {
                tenants: BTreeMap::new(),
                queued: 0,
                queued_cost: 0,
                rr_cursor: u32::MAX,
                shutdown: false,
                live_workers: workers,
            }),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            submit_buf: Mutex::new(tracer.buffer("service")),
            stats: AtomicStats::default(),
            next_job: AtomicU64::new(1),
            next_worker: AtomicU64::new(0),
            cfg,
        });
        for _ in 0..workers {
            spawn_worker(&state);
        }
        Service { state }
    }

    /// Admits a job or sheds it with [`Overloaded`]. Admission is the
    /// only place load is rejected; once admitted, a job always
    /// reaches exactly one [`JobOutcome`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Overloaded> {
        let st = &self.state;
        let id = st.next_job.fetch_add(1, Ordering::Relaxed);
        let submitted_ts = st.submit_buf.lock().expect("submit buf poisoned").now();

        let mut g = st.sched.lock().expect("scheduler poisoned");
        assert!(!g.shutdown, "submit after shutdown");
        let s = &mut *g;
        let projected_cost = s.queued_cost.saturating_add(spec.cost);
        let over_depth = s.queued >= st.cfg.queue_depth;
        let over_cost = projected_cost > st.cfg.shed_budget;
        if over_depth || over_cost {
            let queued = s.queued;
            let tenant = tenant_entry(&mut s.tenants, spec.tenant, &st.cfg);
            tenant.sheds += 1;
            let mut degrade = None;
            if st.cfg.degrade_after > 0
                && tenant.sheds >= st.cfg.degrade_after
                && tenant.shard_cap > 1
            {
                let from = tenant.shard_cap as u32;
                tenant.shard_cap = (tenant.shard_cap / 2).max(1);
                tenant.sheds = 0;
                degrade = Some((from, tenant.shard_cap as u32));
            }
            drop(g);

            st.stats.shed.fetch_add(1, Ordering::Relaxed);
            let mut mh = metrics::global().handle("service-admission");
            mh.incr(Counter::JobsShed);
            live().record_shed(spec.tenant);
            let shed_event = EventKind::JobShed {
                job: id,
                tenant: spec.tenant,
                queued: queued as u32,
            };
            flight().note("service", shed_event);
            let mut tb = st.submit_buf.lock().expect("submit buf poisoned");
            tb.instant(shed_event);
            if let Some((from_shards, to_shards)) = degrade {
                st.stats.degraded.fetch_add(1, Ordering::Relaxed);
                mh.incr(Counter::JobsDegraded);
                let degrade_event = EventKind::JobDegrade {
                    tenant: spec.tenant,
                    from_shards,
                    to_shards,
                };
                flight().note("service", degrade_event);
                tb.instant(degrade_event);
            }
            return Err(Overloaded {
                queued,
                projected_cost,
                budget: if over_cost { st.cfg.shed_budget } else { 0 },
            });
        }

        let shared: Shared = Arc::new((Mutex::new(None), Condvar::new()));
        let deadline_at = st.cfg.deadline.map(|d| Instant::now() + d);
        let cost = spec.cost;
        let tenant_id = spec.tenant;
        tenant_entry(&mut s.tenants, tenant_id, &st.cfg)
            .queue
            .push_back(QueuedJob {
                id,
                spec,
                submitted_ts,
                submitted_at: Instant::now(),
                deadline_at,
                shared: Arc::clone(&shared),
            });
        s.queued += 1;
        s.queued_cost = s.queued_cost.saturating_add(cost);
        drop(g);

        st.stats.admitted.fetch_add(1, Ordering::Relaxed);
        st.work_cv.notify_one();
        Ok(JobHandle { job: id, shared })
    }

    /// Jobs currently queued (not running).
    pub fn queue_len(&self) -> usize {
        self.state.sched.lock().expect("scheduler poisoned").queued
    }

    /// A tenant's current shard cap (degradation-aware); `None` until
    /// the tenant has submitted at least once.
    pub fn tenant_shard_cap(&self, tenant: u32) -> Option<usize> {
        self.state
            .sched
            .lock()
            .expect("scheduler poisoned")
            .tenants
            .get(&tenant)
            .map(|t| t.shard_cap)
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.state.stats;
        ServiceStats {
            admitted: s.admitted.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            quarantined: s.quarantined.load(Ordering::Relaxed),
            retried: s.retried.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
        }
    }

    /// Drain-shutdown: stops admitting, lets workers finish everything
    /// queued, and returns once the pool has exited and all trace
    /// buffers have flushed (so `tracer.take()` sees every event).
    pub fn shutdown(self) {
        let st = &self.state;
        {
            let mut g = st.sched.lock().expect("scheduler poisoned");
            g.shutdown = true;
            st.work_cv.notify_all();
            while g.live_workers > 0 {
                g = st.drain_cv.wait(g).expect("scheduler poisoned");
            }
        }
        st.submit_buf.lock().expect("submit buf poisoned").flush();
    }
}

fn tenant_entry<'a>(
    tenants: &'a mut BTreeMap<u32, TenantState>,
    tenant: u32,
    cfg: &ServiceConfig,
) -> &'a mut TenantState {
    tenants.entry(tenant).or_insert_with(|| TenantState {
        shard_cap: cfg.shard_cap,
        sheds: 0,
        memo: MemoCache::shared(),
        queue: VecDeque::new(),
    })
}

fn spawn_worker(state: &Arc<State>) {
    let st = Arc::clone(state);
    let n = st.next_worker.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(format!("serve-worker-{n}"))
        .spawn(move || worker_loop(st, n))
        .expect("spawn service worker");
}

/// Round-robin pick across tenants with queued work. Returns the job
/// plus the tenant context it runs under (shard cap, memo cache) and
/// the post-pick queue depth.
#[allow(clippy::type_complexity)]
fn pick_fair(s: &mut Sched) -> Option<(QueuedJob, usize, Arc<Mutex<MemoCache>>, u32)> {
    let ready: Vec<u32> = s
        .tenants
        .iter()
        .filter(|(_, t)| !t.queue.is_empty())
        .map(|(&id, _)| id)
        .collect();
    let next = *ready
        .iter()
        .find(|&&t| t > s.rr_cursor)
        .or_else(|| ready.first())?;
    s.rr_cursor = next;
    let (job, cap, memo) = {
        let t = s.tenants.get_mut(&next).expect("ready tenant exists");
        let job = t.queue.pop_front().expect("ready tenant has work");
        (job, t.shard_cap, Arc::clone(&t.memo))
    };
    s.queued -= 1;
    s.queued_cost = s.queued_cost.saturating_sub(job.spec.cost);
    Some((job, cap, memo, s.queued as u32))
}

fn worker_loop(st: Arc<State>, n: u64) {
    let track = format!("serve-worker-{n}");
    let mut tb = st.cfg.tracer.buffer(&track);
    let mut mh = metrics::global().handle(&track);
    loop {
        let picked = {
            let mut g = st.sched.lock().expect("scheduler poisoned");
            loop {
                if let Some(p) = pick_fair(&mut g) {
                    break Some(p);
                }
                if g.shutdown {
                    break None;
                }
                g = st.work_cv.wait(g).expect("scheduler poisoned");
            }
        };
        let Some((job, shard_cap, memo, queued)) = picked else {
            tb.flush();
            let mut g = st.sched.lock().expect("scheduler poisoned");
            g.live_workers -= 1;
            st.drain_cv.notify_all();
            return;
        };

        let wait_end = tb.now();
        let admit_event = EventKind::JobAdmit {
            job: job.id,
            tenant: job.spec.tenant,
            queued,
        };
        flight().note("service", admit_event);
        tb.push(
            job.submitted_ts,
            wait_end.saturating_sub(job.submitted_ts),
            admit_event,
        );
        mh.incr(Counter::JobsAdmitted);
        mh.record_ns(
            Timer::QueueWaitNs,
            job.submitted_at.elapsed().as_nanos() as u64,
        );

        let outcome = run_supervised(&st, &job, shard_cap, &memo, &mut tb, &mut mh);
        let quarantined = matches!(outcome, JobOutcome::Quarantined { .. });
        match &outcome {
            JobOutcome::Completed { .. } => {
                st.stats.completed.fetch_add(1, Ordering::Relaxed);
                mh.incr(Counter::JobsCompleted);
                // Client-visible latency (queue wait + attempts) feeds
                // the sliding-window SLO gauges.
                live().record_completion(
                    job.spec.tenant,
                    job.spec.strategy.label(),
                    job.submitted_at.elapsed().as_nanos() as u64,
                );
            }
            JobOutcome::Cancelled { .. } => {
                st.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                flight().note(
                    "flight",
                    EventKind::Mark {
                        name: "job_cancelled",
                    },
                );
            }
            JobOutcome::Quarantined { .. } => {
                st.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                mh.incr(Counter::JobsQuarantined);
                // A Permanent failure is exactly what the black box
                // exists for: milestone + dump with the metrics state.
                flight().note(
                    "flight",
                    EventKind::Mark {
                        name: "job_quarantined",
                    },
                );
                flight().dump("job-quarantined", Some(&metrics::global().to_json()));
            }
        }
        deliver(&job.shared, outcome);
        tb.flush();
        // Publish this worker's buffered counters so a mid-run scrape
        // sees job totals that are at most one job stale, not held
        // back until the worker thread exits.
        mh.flush();

        if quarantined {
            // Recycle the pool slot: anything the foreign panic may
            // have left half-poisoned on this thread dies with it; the
            // replacement inherits the live-worker slot (spawned
            // before we exit, so drain-shutdown never undercounts).
            spawn_worker(&st);
            return;
        }
    }
}

fn deliver(shared: &Shared, outcome: JobOutcome) {
    let (m, cv) = &**shared;
    *m.lock().expect("job outcome poisoned") = Some(outcome);
    cv.notify_all();
}

/// The robustness envelope: retry loop, deadline accounting, failure
/// classification, rescue-slot plumbing.
fn run_supervised(
    st: &State,
    job: &QueuedJob,
    shard_cap: usize,
    memo: &Arc<Mutex<MemoCache>>,
    tb: &mut TraceBuf,
    mh: &mut metrics::MetricsHandle,
) -> JobOutcome {
    let cfg = &st.cfg;
    let spec = &job.spec;
    let shards = spec.shards.clamp(1, shard_cap.max(1));
    // Supervisor-level transient injection: explicit hook first, else
    // a seeded ~25% of jobs fault at a seeded epoch — on the first
    // attempt only (re-arming the same epoch would defeat every
    // retry).
    let inject = spec.inject_transient_at.or_else(|| {
        cfg.fault_seed.and_then(|seed| {
            let h = splitmix64(seed ^ splitmix64(job.id));
            h.is_multiple_of(4).then(|| 1 + ((h >> 8) % 3))
        })
    });
    // The rescue is shared across attempts so a retry resumes from the
    // last committed checkpoint of every replicated segment (one for
    // SPMD jobs). The shared-log strategy has no resumable slot and
    // retries from scratch — its sequencer cannot re-derive consumed
    // `AllReduce` feedback.
    let rescue = Arc::new(Rescue::new());
    // Live failover: survive shard deaths inside an attempt by
    // shrinking membership instead of burning a supervisor retry.
    let failover = cfg.failover.map(|max_failovers| FailoverOptions {
        max_failovers,
        min_shards: 1,
    });

    let mut attempt: u32 = 0;
    loop {
        let budget = match job.deadline_at {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    return JobOutcome::Cancelled {
                        reason: format!(
                            "{CANCEL_PREFIX}: deadline budget exhausted before attempt {}",
                            attempt + 1
                        ),
                    };
                }
                Some(d - now)
            }
            None => None,
        };
        let transient = if attempt == 0 { inject } else { None };
        let token = CancelToken::with_budget_and_transient(budget, transient);
        // Each attempt records into its own scoped tracer: a failed
        // attempt's events are discarded with it (same discipline as
        // the failover driver's inner tracers), so the trace delivered
        // with the outcome certifies exactly the run that produced the
        // result.
        let job_tracer = if cfg.trace_jobs {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_once(
                cfg,
                spec,
                job.id,
                shards,
                &token,
                transient,
                &rescue,
                failover.as_ref(),
                memo,
                &job_tracer,
            )
        }));
        match run {
            Ok((env, digest, final_shards)) => {
                let trace = cfg
                    .trace_jobs
                    .then(|| Arc::new(job_tracer.take()))
                    .inspect(|t| dump_job_trace(cfg, spec, job.id, t));
                return JobOutcome::Completed {
                    attempts: attempt + 1,
                    env,
                    digest,
                    shards: final_shards,
                    trace,
                };
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                match classify_failure(&msg) {
                    FailureClass::Cancelled => return JobOutcome::Cancelled { reason: msg },
                    FailureClass::Transient if cfg.retry.may_retry(attempt) => {
                        attempt += 1;
                        st.stats.retried.fetch_add(1, Ordering::Relaxed);
                        mh.incr(Counter::JobsRetried);
                        let retry_event = EventKind::JobRetry {
                            job: job.id,
                            tenant: spec.tenant,
                            attempt,
                        };
                        flight().note("service", retry_event);
                        tb.instant(retry_event);
                        let delay =
                            cfg.retry
                                .delay_ms(cfg.fault_seed.unwrap_or(0), job.id, attempt - 1);
                        std::thread::sleep(Duration::from_millis(delay));
                    }
                    FailureClass::Transient => {
                        return JobOutcome::Quarantined {
                            error: format!("retry budget exhausted: {msg}"),
                        }
                    }
                    FailureClass::Permanent => return JobOutcome::Quarantined { error: msg },
                }
            }
        }
    }
}

/// Writes a completed job's scoped trace to the configured dump
/// directory. Write failures are reported, never fatal — losing a
/// trace artifact must not fail the job that produced it.
fn dump_job_trace(cfg: &ServiceConfig, spec: &JobSpec, job_id: u64, trace: &Trace) {
    let Some(dir) = &cfg.trace_dir else { return };
    let path = dir.join(format!(
        "tenant{}-job{}-{}.trace.json",
        spec.tenant,
        job_id,
        spec.strategy.label()
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, export_chrome(trace)))
    {
        eprintln!("regent-serve: cannot write {}: {e}", path.display());
    }
}

/// One attempt: build the program fresh (isolation by construction)
/// and run it under the requested strategy, recording executor events
/// onto this attempt's scoped `tracer`. Returns the final scalar
/// environment, the result digest, and the final shard membership
/// (smaller than `shards` when live failover shrank the run).
#[allow(clippy::too_many_arguments)]
fn run_once(
    cfg: &ServiceConfig,
    spec: &JobSpec,
    job_id: u64,
    shards: usize,
    token: &CancelToken,
    transient: Option<u64>,
    rescue: &Arc<Rescue>,
    failover: Option<&FailoverOptions>,
    memo: &Arc<Mutex<MemoCache>>,
    tracer: &Arc<Tracer>,
) -> (Vec<f64>, u64, usize) {
    let (prog, mut store) = (spec.factory)();
    let roots = prog.root_regions();
    // In-run seeded crash schedule (recovered by checkpoints inside
    // the executor — distinct from the supervisor-level transient,
    // which kills the whole attempt). Under live failover the
    // configured shard-kill schedule rides along so deployments can
    // drive chaos soaks through the service.
    let mut plan = cfg
        .fault_seed
        .map(|s| FaultPlan::seeded_crash(splitmix64(s ^ job_id), shards, 4))
        .unwrap_or_default();
    if let (Some(_), Some(kills)) = (failover, &cfg.kills) {
        plan.events.extend(&kills.events);
    }
    let mut compiled = match spec.strategy {
        Strategy::Sequential | Strategy::Implicit | Strategy::MemoImplicit => {
            // These executors have no epoch-boundary hook: surface the
            // injected transient (and any already-fired deadline) at
            // the attempt boundary. Deadline granularity is therefore
            // the whole attempt for these strategies.
            token.check_boundary(0, transient.unwrap_or(u64::MAX));
            let env = if matches!(spec.strategy, Strategy::Sequential) {
                // The interpreter records nothing: say so, so that the
                // job's trace is not an empty document.
                tracer.buffer("sequential").instant(EventKind::Mark {
                    name: "interpreter run (untraced)",
                });
                interp::run(&prog, &mut store).0
            } else {
                let mut opts = ImplicitOptions::with_workers(shards);
                if matches!(spec.strategy, Strategy::MemoImplicit) {
                    opts = opts.with_memo(Arc::clone(memo));
                }
                opts.tracer = Arc::clone(tracer);
                execute_implicit(&prog, &mut store, opts).0
            };
            let digest = digest_store(&prog.forest, &store, &roots, &env);
            return (env, digest, shards);
        }
        Strategy::Hybrid => {
            // Sequential segments have no epoch-boundary hook, so the
            // injected transient still surfaces at the attempt
            // boundary; replicated segments check the token (and the
            // deadline) at their own epoch boundaries.
            token.check_boundary(0, transient.unwrap_or(u64::MAX));
            let hybrid = replicate_ranges(prog, &CrOptions::new(shards));
            Compiled::Hybrid(hybrid.expect("replicate_ranges"))
        }
        Strategy::Spmd | Strategy::Log => {
            let spmd = control_replicate(prog, &CrOptions::new(shards)).expect("control_replicate");
            if matches!(spec.strategy, Strategy::Log) {
                Compiled::Log(spmd)
            } else {
                Compiled::Spmd(spmd)
            }
        }
    };
    let opts = RunOptions::traced(tracer).with_resilience(ResilienceOptions {
        checkpoint_interval: cfg.checkpoint_interval,
        plan,
        cancel: Some(token.clone()),
        rescue: Some(Arc::clone(rescue)),
        ..ResilienceOptions::default()
    });
    let (r, final_shards) = match failover {
        Some(fo) => {
            let r = run_failover(compiled.as_mut(), &mut store, &opts, fo);
            (r.run, r.final_shards)
        }
        None => (run(compiled.as_ref(), &mut store, &opts), shards),
    };
    let forest = match &compiled {
        Compiled::Spmd(spmd) | Compiled::Log(spmd) => &spmd.forest,
        Compiled::Hybrid(hybrid) => &hybrid.base.forest,
    };
    let digest = digest_store(forest, &store, &roots, &r.env);
    (r.env, digest, final_shards)
}

/// Order-dependent digest over the scalar environment and every root
/// region's field contents (exact f64 bit patterns). Equal digests on
/// runs of the same program ⇒ bit-identical results; used to assert
/// tenant isolation (a neighbour's panic must not perturb results).
pub fn digest_store(forest: &RegionForest, store: &Store, roots: &[RegionId], env: &[f64]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &v in env {
        h = splitmix64(h ^ v.to_bits());
    }
    for &root in roots {
        let inst = store.instance_in(forest, root);
        for (fid, def) in forest.fields(root).iter() {
            for p in forest.domain(root).iter() {
                let bits = match def.ty {
                    FieldType::F64 => inst.read_f64(fid, p).to_bits(),
                    FieldType::I64 => inst.read_i64(fid, p) as u64,
                };
                h = splitmix64(h ^ bits);
            }
        }
    }
    h
}
