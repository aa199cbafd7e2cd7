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
    /// Stable per-task keys, parallel to `tasks` — a pure function of
    /// the task's `(kind, node, step)` tag plus its occurrence number
    /// within that tag, so the order of same-time events does not
    /// depend on construction order.
    keys: Vec<u64>,
    /// Occurrence counters behind `keys`.
    occurrence: HashMap<(u8, u32, u32), u64>,
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
        }
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
    /// it for same-time event ordering.
    pub fn tag(&mut self, t: SimTaskId, kind: SimKind, node: u32, step: u32) {
        self.meta[t.0 as usize] = (kind, node, step);
        self.keys[t.0 as usize] = self.stable_key(kind, node, step);
    }

    /// Order key from a tag plus its occurrence count within that tag:
    /// the k-th Copy on (node, step) gets the same key no matter in
    /// which order the workload builder created the tasks.
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
    pub(crate) fn num_tasks(&self) -> usize {
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
    pub(crate) fn run_traced(mut self, tb: &mut TraceBuf) -> SimResult {
        let n = self.tasks.len();
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
                        let d = self.tasks[tid.0 as usize].duration;
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
                        let d = self.tasks[next.0 as usize].duration;
                        busy_time[r.0 as usize] += d;
                        record_service(tb, &self.meta, next, now, d);
                        push(&mut heap, &mut seq, now + d, EventKind::ServerDone(r, next));
                    } else {
                        free[r.0 as usize] += 1;
                    }
                    let delay = self.tasks[tid.0 as usize].completion_delay;
                    push(&mut heap, &mut seq, now + delay, EventKind::Complete(tid));
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
        SimResult {
            makespan,
            finish_times: finish,
            busy_time,
        }
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
