//! A discrete-event simulation engine.
//!
//! The engine executes a DAG of *sim-tasks* over a set of *resources*
//! (FIFO multi-server queues: node core pools, the control thread of
//! the implicit runtime, per-node NICs). Time is virtual; the engine is
//! deterministic. This is the substitute substrate for the paper's
//! 1024-node Piz Daint runs (see DESIGN.md): the quantities being
//! studied — control-thread serialization, halo transfer time,
//! collective latency — are modeled explicitly, while task compute
//! costs are supplied by the workload builders.

//!
//! With an enabled tracer ([`Sim::run_traced`]) the engine records a
//! `SimTask` span for every service interval, tagged via [`Sim::tag`]
//! with its model-level meaning (launch, analysis, compute, copy,
//! collective) and (node, step) coordinates. Virtual seconds map to
//! trace nanoseconds 1:1e9, so the Chrome exporter renders simulated
//! timelines exactly like real ones.

use regent_fault::{FaultPlan, FaultStats, MessageFate, RetryPolicy};
use regent_trace::{EventKind as TraceEventKind, SimKind, TraceBuf, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Identifier of a sim-task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SimTaskId(pub u32);

/// Identifier of a resource (multi-server FIFO queue).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ResourceId(pub u32);

/// A unit of simulated work.
#[derive(Clone, Debug)]
pub struct SimTask {
    /// Time the task occupies the resource (its service), in seconds.
    pub duration: f64,
    /// The resource that must serve this task.
    pub resource: ResourceId,
    /// Extra delay between service completion and dependents being
    /// released (e.g. network latency after NIC serialization).
    pub completion_delay: f64,
    /// Tasks that cannot start before this one completes.
    pub dependents: Vec<SimTaskId>,
    /// Number of unsatisfied dependencies.
    pub num_deps: u32,
}

/// A resource: `servers` parallel servers with a shared FIFO queue.
#[derive(Clone, Debug)]
pub struct Resource {
    /// Number of parallel servers (e.g. cores on a node).
    pub servers: u32,
}

/// The simulation: build tasks and resources, then [`Sim::run`].
pub struct Sim {
    tasks: Vec<SimTask>,
    resources: Vec<Resource>,
    /// Trace tags parallel to `tasks`: (kind, node, step).
    meta: Vec<(SimKind, u32, u32)>,
    /// Stable per-task message keys, parallel to `tasks` — a pure
    /// function of the task's `(kind, node, step)` tag plus its
    /// occurrence number within that tag, so fault decisions do not
    /// depend on construction order.
    keys: Vec<u64>,
    /// Occurrence counters behind `keys`.
    occurrence: HashMap<(u8, u32, u32), u64>,
    /// Active fault plan, if any.
    faults: Option<(FaultPlan, RetryPolicy)>,
}

/// Results of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Completion time of the last task (the makespan), seconds.
    pub makespan: f64,
    /// Completion time of every task, seconds.
    pub finish_times: Vec<f64>,
    /// Total busy time per resource, seconds (for utilization studies).
    pub busy_time: Vec<f64>,
    /// What the fault plan actually did (all-zero without one).
    pub faults: FaultStats,
    /// True when the run completed only because some message was
    /// forced through after exhausting [`RetryPolicy::max_attempts`]
    /// (persistent loss) or delivered corrupt with the retry budget
    /// spent. The makespan is still well-defined — the retry loop is
    /// bounded, so even a 100% loss or corruption rate terminates —
    /// but a real transport would have reported the run failed.
    pub failed: bool,
}

#[derive(PartialEq)]
struct Event {
    time: f64,
    kind: EventKind,
    /// Primary tie-break: the subject task's stable order key (tag
    /// hash for tagged tasks, insertion index for untagged ones), so
    /// same-time event ordering — and thus FIFO queue order under
    /// contention — does not depend on construction order.
    order: u64,
    /// Last-resort tie-break for determinism.
    seq: u64,
}

#[derive(PartialEq)]
enum EventKind {
    /// A task's dependencies are satisfied; it joins its resource queue.
    Ready(SimTaskId),
    /// A server finishes serving a task.
    ServerDone(ResourceId, SimTaskId),
    /// A task's completion delay has elapsed; release dependents.
    Complete(SimTaskId),
}

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .unwrap()
            .then(self.order.cmp(&other.order))
            .then(self.seq.cmp(&other.seq))
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Sim {
            tasks: Vec::new(),
            resources: Vec::new(),
            meta: Vec::new(),
            keys: Vec::new(),
            occurrence: HashMap::new(),
            faults: None,
        }
    }

    /// Arms a fault plan: slowdown windows stretch service times,
    /// and `Copy`-tagged tasks are subject to seeded loss (timeout +
    /// exponential-backoff retransmit under `retry`), duplication,
    /// delay, and — when the plan has a
    /// [`corrupt rate`](FaultPlan::with_corrupt_rate) — silent payload
    /// corruption detected by the receiver's checksum and repaired by
    /// retransmission under the same bounded attempt budget. Without
    /// this call the simulation is perfectly reliable.
    pub fn set_faults(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.faults = Some((plan, retry));
    }

    /// Adds a resource with `servers` parallel servers.
    pub fn add_resource(&mut self, servers: u32) -> ResourceId {
        assert!(servers > 0);
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource { servers });
        id
    }

    /// Adds a task; dependencies are added afterwards with
    /// [`Sim::add_dep`].
    pub fn add_task(&mut self, resource: ResourceId, duration: f64) -> SimTaskId {
        self.add_task_delayed(resource, duration, 0.0)
    }

    /// Adds a task with a post-service completion delay.
    pub fn add_task_delayed(
        &mut self,
        resource: ResourceId,
        duration: f64,
        completion_delay: f64,
    ) -> SimTaskId {
        assert!(duration >= 0.0 && completion_delay >= 0.0);
        let id = SimTaskId(self.tasks.len() as u32);
        self.tasks.push(SimTask {
            duration,
            resource,
            completion_delay,
            dependents: Vec::new(),
            num_deps: 0,
        });
        self.meta.push((SimKind::Other, 0, 0));
        let key = self.stable_key(SimKind::Other, 0, 0);
        self.keys.push(key);
        id
    }

    /// Tags a task with its model-level meaning for tracing, and keys
    /// it for fault decisions.
    pub fn tag(&mut self, t: SimTaskId, kind: SimKind, node: u32, step: u32) {
        self.meta[t.0 as usize] = (kind, node, step);
        self.keys[t.0 as usize] = self.stable_key(kind, node, step);
    }

    /// Message key from a tag plus its occurrence count within that
    /// tag: the k-th Copy on (node, step) gets the same key no matter
    /// in which order the workload builder created the tasks.
    fn stable_key(&mut self, kind: SimKind, node: u32, step: u32) -> u64 {
        let occ = self
            .occurrence
            .entry((sim_kind_code(kind), node, step))
            .or_insert(0);
        let k =
            regent_fault::message_key(sim_kind_code(kind) as u64, node as u64, step as u64, *occ);
        *occ += 1;
        k
    }

    /// Declares that `after` cannot start before `before` completes.
    pub fn add_dep(&mut self, before: SimTaskId, after: SimTaskId) {
        self.tasks[before.0 as usize].dependents.push(after);
        self.tasks[after.0 as usize].num_deps += 1;
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    /// If the dependence graph is cyclic (some task never becomes
    /// ready).
    pub fn run(self) -> SimResult {
        let tracer = Tracer::disabled();
        let mut tb = tracer.buffer("sim");
        self.run_traced(&mut tb)
    }

    /// [`Sim::run`] recording a `SimTask` span per service interval
    /// into `tb` (virtual seconds × 1e9 → trace nanoseconds).
    pub fn run_traced(mut self, tb: &mut TraceBuf) -> SimResult {
        let n = self.tasks.len();
        let faults = self.faults.take();
        let mut fstats = FaultStats::default();
        let mut attempts: Vec<u32> = vec![0; n];
        // Per-task count of corrupt deliveries so far, to credit one
        // `corruptions_repaired` when a clean copy finally lands.
        let mut corrupt_tries: Vec<u32> = vec![0; n];
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        // Stable same-time ordering: tagged tasks order by their tag
        // key (construction-order independent), untagged ones by
        // insertion index (plain FIFO).
        let order: Vec<u64> = self
            .meta
            .iter()
            .zip(&self.keys)
            .enumerate()
            .map(|(i, (&(kind, _, _), &key))| {
                if kind == SimKind::Other {
                    i as u64
                } else {
                    key
                }
            })
            .collect();
        let push = |heap: &mut BinaryHeap<Reverse<Event>>, seq: &mut u64, time, kind| {
            let tid = match kind {
                EventKind::Ready(t) | EventKind::ServerDone(_, t) | EventKind::Complete(t) => t,
            };
            *seq += 1;
            heap.push(Reverse(Event {
                time,
                kind,
                order: order[tid.0 as usize],
                seq: *seq,
            }));
        };

        // Per-resource state: free servers + FIFO queue.
        let mut free: Vec<u32> = self.resources.iter().map(|r| r.servers).collect();
        let mut queues: Vec<std::collections::VecDeque<SimTaskId>> =
            self.resources.iter().map(|_| Default::default()).collect();
        let mut busy_time: Vec<f64> = vec![0.0; self.resources.len()];

        let mut remaining: Vec<u32> = self.tasks.iter().map(|t| t.num_deps).collect();
        let mut finish: Vec<f64> = vec![f64::NAN; n];
        let mut completed = 0usize;

        for (i, t) in self.tasks.iter().enumerate() {
            if t.num_deps == 0 {
                push(
                    &mut heap,
                    &mut seq,
                    0.0,
                    EventKind::Ready(SimTaskId(i as u32)),
                );
            }
        }

        let mut makespan = 0.0f64;
        while let Some(Reverse(ev)) = heap.pop() {
            let now = ev.time;
            match ev.kind {
                EventKind::Ready(tid) => {
                    let r = self.tasks[tid.0 as usize].resource;
                    if free[r.0 as usize] > 0 {
                        free[r.0 as usize] -= 1;
                        let d = effective_duration(&self.tasks, &self.meta, &faults, tid, now);
                        busy_time[r.0 as usize] += d;
                        record_service(tb, &self.meta, tid, now, d);
                        push(&mut heap, &mut seq, now + d, EventKind::ServerDone(r, tid));
                    } else {
                        queues[r.0 as usize].push_back(tid);
                    }
                }
                EventKind::ServerDone(r, tid) => {
                    // Free the server (possibly starting the next queued
                    // task), then schedule completion after the delay.
                    if let Some(next) = queues[r.0 as usize].pop_front() {
                        let d = effective_duration(&self.tasks, &self.meta, &faults, next, now);
                        busy_time[r.0 as usize] += d;
                        record_service(tb, &self.meta, next, now, d);
                        push(&mut heap, &mut seq, now + d, EventKind::ServerDone(r, next));
                    } else {
                        free[r.0 as usize] += 1;
                    }
                    // Decide the delivery fate of Copy-tagged tasks
                    // under the fault plan: a lost message re-queues on
                    // its resource after a backoff (retransmission pays
                    // the NIC again), a duplicate charges the NIC a
                    // second serialization, a delayed one completes
                    // late.
                    let mut delay = self.tasks[tid.0 as usize].completion_delay;
                    if let Some((plan, retry)) = &faults {
                        if self.meta[tid.0 as usize].0 == SimKind::Copy {
                            let att = attempts[tid.0 as usize];
                            match plan.message_fate(self.keys[tid.0 as usize], att) {
                                MessageFate::Lose if att < retry.max_attempts => {
                                    let backoff = retry.backoff_delay(att);
                                    fstats.messages_lost += 1;
                                    fstats.retries += 1;
                                    fstats.total_backoff_s += backoff;
                                    attempts[tid.0 as usize] = att + 1;
                                    push(&mut heap, &mut seq, now + backoff, EventKind::Ready(tid));
                                    continue;
                                }
                                MessageFate::Lose => {
                                    // Out of retries: force the message
                                    // through so the run terminates (a
                                    // real transport would escalate).
                                    fstats.forced_deliveries += 1;
                                }
                                MessageFate::Duplicate => {
                                    fstats.messages_duplicated += 1;
                                    busy_time[r.0 as usize] += self.tasks[tid.0 as usize].duration;
                                }
                                MessageFate::Delay => {
                                    fstats.messages_delayed += 1;
                                    delay += plan.delay_s;
                                }
                                MessageFate::Deliver => {}
                            }
                            // Independently of the transport fate, the
                            // payload of a delivered message may arrive
                            // bit-flipped; the receiver detects the
                            // checksum mismatch and asks for a
                            // retransmission. Corrupt retransmits share
                            // the loss retries' attempt budget (so a
                            // 100% corruption rate still terminates) but
                            // are counted separately — they are repairs,
                            // not losses.
                            if plan
                                .payload_corruption(self.keys[tid.0 as usize], att)
                                .is_some()
                            {
                                fstats.corruptions_injected += 1;
                                fstats.corruptions_detected += 1;
                                if att < retry.max_attempts {
                                    let backoff = retry.backoff_delay(att);
                                    fstats.total_backoff_s += backoff;
                                    attempts[tid.0 as usize] = att + 1;
                                    corrupt_tries[tid.0 as usize] += 1;
                                    push(&mut heap, &mut seq, now + backoff, EventKind::Ready(tid));
                                    continue;
                                }
                                // Out of retries: accept the corrupted
                                // payload so the run terminates, and
                                // escalate — the result reports failure.
                                fstats.corruptions_escalated += 1;
                            } else if corrupt_tries[tid.0 as usize] > 0 {
                                fstats.corruptions_repaired += 1;
                            }
                        }
                    }
                    if delay == 0.0 {
                        push(&mut heap, &mut seq, now, EventKind::Complete(tid));
                    } else {
                        push(&mut heap, &mut seq, now + delay, EventKind::Complete(tid));
                    }
                }
                EventKind::Complete(tid) => {
                    finish[tid.0 as usize] = now;
                    makespan = makespan.max(now);
                    completed += 1;
                    let deps = std::mem::take(&mut self.tasks[tid.0 as usize].dependents);
                    for d in deps {
                        remaining[d.0 as usize] -= 1;
                        if remaining[d.0 as usize] == 0 {
                            push(&mut heap, &mut seq, now, EventKind::Ready(d));
                        }
                    }
                }
            }
        }
        assert_eq!(
            completed, n,
            "simulation deadlocked: dependence graph is cyclic"
        );
        let failed = fstats.forced_deliveries > 0 || fstats.corruptions_escalated > 0;
        SimResult {
            makespan,
            finish_times: finish,
            busy_time,
            faults: fstats,
            failed,
        }
    }
}

/// How long `tid` occupies its resource starting at `now`: the base duration
/// stretched by any slowdown window covering the node at that moment.
fn effective_duration(
    tasks: &[SimTask],
    meta: &[(SimKind, u32, u32)],
    faults: &Option<(FaultPlan, RetryPolicy)>,
    tid: SimTaskId,
    now: f64,
) -> f64 {
    let d = tasks[tid.0 as usize].duration;
    match faults {
        Some((plan, _)) => d * plan.slowdown_factor(meta[tid.0 as usize].1, now),
        None => d,
    }
}

/// Stable small code per [`SimKind`] for occurrence bucketing.
fn sim_kind_code(k: SimKind) -> u8 {
    match k {
        SimKind::Launch => 0,
        SimKind::Analysis => 1,
        SimKind::Compute => 2,
        SimKind::Copy => 3,
        SimKind::Collective => 4,
        SimKind::Other => 5,
        SimKind::Log => 6,
    }
}

/// Records one service interval as a `SimTask` span (virtual seconds
/// scaled to nanoseconds).
fn record_service(tb: &mut TraceBuf, meta: &[(SimKind, u32, u32)], t: SimTaskId, now: f64, d: f64) {
    if tb.is_enabled() {
        let (kind, node, step) = meta[t.0 as usize];
        tb.push(
            (now * 1e9) as u64,
            (d * 1e9) as u64,
            TraceEventKind::SimTask { kind, node, step },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_chain() {
        let mut sim = Sim::new();
        let r = sim.add_resource(1);
        let a = sim.add_task(r, 1.0);
        let b = sim.add_task(r, 2.0);
        let c = sim.add_task(r, 3.0);
        sim.add_dep(a, b);
        sim.add_dep(b, c);
        let res = sim.run();
        assert_eq!(res.makespan, 6.0);
        assert_eq!(res.finish_times, vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn parallel_servers() {
        let mut sim = Sim::new();
        let r = sim.add_resource(2);
        for _ in 0..4 {
            sim.add_task(r, 1.0);
        }
        let res = sim.run();
        // 4 unit tasks on 2 servers: 2 waves.
        assert_eq!(res.makespan, 2.0);
        assert_eq!(res.busy_time[0], 4.0);
    }

    #[test]
    fn queueing_is_fifo() {
        let mut sim = Sim::new();
        let r = sim.add_resource(1);
        let a = sim.add_task(r, 5.0);
        let b = sim.add_task(r, 1.0);
        let c = sim.add_task(r, 1.0);
        let res = sim.run();
        // Ready order a, b, c → finishes 5, 6, 7.
        assert_eq!(res.finish_times[a.0 as usize], 5.0);
        assert_eq!(res.finish_times[b.0 as usize], 6.0);
        assert_eq!(res.finish_times[c.0 as usize], 7.0);
    }

    #[test]
    fn completion_delay_releases_late() {
        let mut sim = Sim::new();
        let nic = sim.add_resource(1);
        let core = sim.add_resource(1);
        // A message: 1s serialization on the NIC + 2s flight.
        let msg = sim.add_task_delayed(nic, 1.0, 2.0);
        let work = sim.add_task(core, 1.0);
        sim.add_dep(msg, work);
        let res = sim.run();
        assert_eq!(res.finish_times[msg.0 as usize], 3.0);
        assert_eq!(res.makespan, 4.0);
        // The NIC was only busy for the serialization part.
        assert_eq!(res.busy_time[nic.0 as usize], 1.0);
    }

    #[test]
    fn diamond_dag() {
        let mut sim = Sim::new();
        let r = sim.add_resource(4);
        let a = sim.add_task(r, 1.0);
        let b = sim.add_task(r, 2.0);
        let c = sim.add_task(r, 3.0);
        let d = sim.add_task(r, 1.0);
        sim.add_dep(a, b);
        sim.add_dep(a, c);
        sim.add_dep(b, d);
        sim.add_dep(c, d);
        let res = sim.run();
        assert_eq!(res.makespan, 5.0); // 1 + max(2,3) + 1
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn cycle_detected() {
        let mut sim = Sim::new();
        let r = sim.add_resource(1);
        let a = sim.add_task(r, 1.0);
        let b = sim.add_task(r, 1.0);
        sim.add_dep(a, b);
        sim.add_dep(b, a);
        sim.run();
    }

    #[test]
    fn traced_run_records_service_spans() {
        let tracer = Tracer::enabled();
        let mut sim = Sim::new();
        let r = sim.add_resource(1);
        let a = sim.add_task(r, 1.0);
        let b = sim.add_task(r, 2.0);
        sim.add_dep(a, b);
        sim.tag(a, SimKind::Launch, 3, 7);
        sim.tag(b, SimKind::Compute, 3, 7);
        let mut tb = tracer.buffer("sim");
        let res = sim.run_traced(&mut tb);
        tb.flush();
        assert_eq!(res.makespan, 3.0);
        let trace = tracer.take();
        let track = trace.track("sim").unwrap();
        assert_eq!(track.events.len(), 2);
        // Spans in service order with virtual-seconds × 1e9 timestamps.
        assert_eq!(track.events[0].ts, 0);
        assert_eq!(track.events[0].dur, 1_000_000_000);
        assert_eq!(track.events[1].ts, 1_000_000_000);
        assert_eq!(track.events[1].dur, 2_000_000_000);
        match track.events[1].kind {
            TraceEventKind::SimTask { kind, node, step } => {
                assert_eq!(kind, SimKind::Compute);
                assert_eq!(node, 3);
                assert_eq!(step, 7);
            }
            ref k => panic!("unexpected event {k:?}"),
        }
    }

    #[test]
    fn slowdown_window_stretches_service() {
        let build = || {
            let mut sim = Sim::new();
            let r = sim.add_resource(1);
            let a = sim.add_task(r, 1.0);
            let b = sim.add_task(r, 1.0);
            sim.add_dep(a, b);
            sim.tag(a, SimKind::Compute, 2, 0);
            sim.tag(b, SimKind::Compute, 2, 1);
            (sim, a, b)
        };
        // Fault-free: back-to-back unit tasks.
        let (sim, _, _) = build();
        assert_eq!(sim.run().makespan, 2.0);
        // Node 2 is 3× slower during [0.5, 1.5): task a starts at 0
        // (outside the window, unaffected — windows apply at service
        // start), b starts at 1.0 inside it and takes 3s.
        let (mut sim, a, b) = build();
        sim.set_faults(
            FaultPlan::new(1).slow_node(2, 0.5, 1.0, 3.0),
            RetryPolicy::default(),
        );
        let res = sim.run();
        assert_eq!(res.finish_times[a.0 as usize], 1.0);
        assert_eq!(res.finish_times[b.0 as usize], 4.0);
    }

    #[test]
    fn lost_copies_retry_and_complete() {
        let mut sim = Sim::new();
        let nic = sim.add_resource(1);
        let core = sim.add_resource(1);
        let mut copies = Vec::new();
        for i in 0..50 {
            let c = sim.add_task_delayed(nic, 1e-6, 1e-6);
            sim.tag(c, SimKind::Copy, 0, i);
            let w = sim.add_task(core, 1e-6);
            sim.add_dep(c, w);
            copies.push(c);
        }
        sim.set_faults(
            FaultPlan::new(7).with_loss_rate(0.4),
            RetryPolicy::default(),
        );
        let res = sim.run();
        assert!(res.faults.messages_lost > 5, "{:?}", res.faults);
        assert_eq!(res.faults.retries, res.faults.messages_lost);
        assert!(res.faults.total_backoff_s > 0.0);
        // Every copy completed despite losses, and retransmissions
        // made the run strictly slower than the fault-free one.
        assert!(res.finish_times.iter().all(|t| !t.is_nan()));
        assert!(!res.failed, "no retry budget exhausted at rate 0.4");
    }

    #[test]
    fn total_loss_terminates_bounded_and_reports_failure() {
        // Loss rate 1.0: every transmission is lost. The retry loop
        // must stop at `max_attempts` per message and force the
        // delivery — reporting a failed run — instead of livelocking.
        let retry = RetryPolicy::default();
        let mut sim = Sim::new();
        let nic = sim.add_resource(1);
        for i in 0..4 {
            let c = sim.add_task(nic, 1e-6);
            sim.tag(c, SimKind::Copy, 0, i);
        }
        sim.set_faults(FaultPlan::new(3).with_loss_rate(1.0), retry);
        let res = sim.run();
        assert!(res.failed, "exhausted retries must mark the run failed");
        assert_eq!(res.faults.forced_deliveries, 4);
        assert_eq!(res.faults.retries, 4 * retry.max_attempts as u64);
        assert_eq!(res.faults.retries, res.faults.messages_lost);
        assert!(res.finish_times.iter().all(|t| !t.is_nan()));
        assert!(res.makespan.is_finite());
    }

    #[test]
    fn corrupt_copies_retransmit_and_repair() {
        let build = |rate: f64| {
            let mut sim = Sim::new();
            let nic = sim.add_resource(2);
            for i in 0..60 {
                let c = sim.add_task_delayed(nic, 1e-6, 1e-6);
                sim.tag(c, SimKind::Copy, 0, i);
            }
            sim.set_faults(
                FaultPlan::new(9).with_corrupt_rate(rate),
                RetryPolicy::default(),
            );
            sim.run()
        };
        let res = build(0.3);
        assert!(res.faults.corruptions_injected > 5, "{:?}", res.faults);
        assert_eq!(
            res.faults.corruptions_injected,
            res.faults.corruptions_detected
        );
        assert_eq!(
            res.faults.corruptions_escalated, 0,
            "rate 0.3 never exhausts the retry budget"
        );
        assert!(res.faults.corruptions_repaired > 0);
        // Corruption retransmits never masquerade as losses.
        assert_eq!(res.faults.messages_lost, 0);
        assert_eq!(res.faults.retries, 0);
        assert!(!res.failed);
        // Rate 1.0: every attempt is corrupt; each copy burns its
        // budget, escalates, and the run reports failure — bounded.
        let res = build(1.0);
        assert!(res.failed);
        assert_eq!(res.faults.corruptions_escalated, 60);
        assert_eq!(res.faults.corruptions_repaired, 0);
        assert!(res.finish_times.iter().all(|t| !t.is_nan()));
    }

    #[test]
    fn delayed_and_duplicated_copies() {
        let build = |plan: Option<FaultPlan>| {
            let mut sim = Sim::new();
            let nic = sim.add_resource(4);
            for i in 0..100 {
                let c = sim.add_task_delayed(nic, 1e-6, 1e-6);
                sim.tag(c, SimKind::Copy, 0, i);
            }
            if let Some(p) = plan {
                sim.set_faults(p, RetryPolicy::default());
            }
            sim.run()
        };
        let clean = build(None);
        let delayed = build(Some(FaultPlan::new(5).with_delay(0.5, 1e-3)));
        assert!(delayed.faults.messages_delayed > 10);
        assert!(delayed.makespan > clean.makespan);
        let duped = build(Some(FaultPlan::new(5).with_dup_rate(0.5)));
        assert!(duped.faults.messages_duplicated > 10);
        // Duplicates charge the NIC a second serialization.
        assert!(duped.busy_time[0] > clean.busy_time[0]);
    }

    #[test]
    fn zero_duration_tasks() {
        let mut sim = Sim::new();
        let r = sim.add_resource(1);
        let a = sim.add_task(r, 0.0);
        let b = sim.add_task(r, 0.0);
        sim.add_dep(a, b);
        let res = sim.run();
        assert_eq!(res.makespan, 0.0);
    }
}
