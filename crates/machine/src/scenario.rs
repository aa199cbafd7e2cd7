//! Execution-model scenarios: build a discrete-event task graph for a
//! workload under each of the paper's execution models and measure the
//! simulated throughput. One entry point, [`simulate`], takes the
//! [`Model`]:
//!
//! * [`Model::Cr`] — Regent **with control replication**: every node
//!   runs a long-lived shard that launches its own tasks (cheap,
//!   §3.5), exchanges halos point-to-point (§3.4), and participates in
//!   dynamic collectives (§4.4).
//! * [`Model::Implicit`] — Regent **without control replication**: a
//!   single control thread on node 0 pays the dynamic-analysis cost
//!   for *every* task in the machine (§1's O(N) control overhead), with
//!   deferred execution pipelining the launches.
//! * [`Model::ImplicitMemo`] — the same single control thread with
//!   epoch-trace memoization: full analysis only on the first step
//!   (template capture), replay cost on every later step. The control
//!   thread stays serial, so this amortizes the O(N) analysis without
//!   replicating control.
//! * [`Model::Log`] — **shared-log control replication**: one
//!   sequencer appends the control program to an operation log (cost
//!   independent of machine size); per-node replica executors tail it,
//!   paying dependence analysis once per replica per batch before
//!   issuing their shard launches at CR cost.
//! * [`Model::Mpi`] — hand-written SPMD references (MPI,
//!   MPI+OpenMP, MPI+Kokkos): no runtime overhead, all cores compute,
//!   bulk-synchronous neighbor exchanges.
//!
//! Every model builds the same task graph: per node and phase the point
//! tasks on the node's compute cores, the phase's copies on the source
//! nodes' NICs, and the collective. In the paper the only difference
//! between the models is who issues a point task and at what cost, and
//! so it is here: each model contributes one *issue rule* (the launch,
//! analysis or log ops in front of each point task, and what the
//! collective gates), and the MPI references add their per-core compute
//! chunks and per-rank blocking messages. The per-model costs are
//! [`MachineConfig`] fields, read by those rules alone.
//!
//! With [`SimOptions::trace`] set, every sim-task is tagged with its
//! model-level meaning and the simulated schedule is recorded into a
//! [`TraceBuf`]. Per-step control cost extracted from such traces
//! (`regent_trace::sim_control_cost_per_step`) is the simulator's
//! evidence for the paper's O(N)-vs-O(1) control-overhead claim.

use crate::des::{ResourceId, Sim, SimTaskId};
use crate::model::{noise_multiplier, MachineConfig, PhaseSpec, TimestepSpec};
use regent_trace::{SimKind, TraceBuf, Tracer};

/// Result of simulating one configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioResult {
    /// Simulated wall time for all steps, seconds.
    pub makespan: f64,
    /// Application elements processed per second per node.
    pub throughput_per_node: f64,
    /// Sim-tasks in the generated graph (diagnostics).
    pub graph_size: usize,
}

/// Builds a machine-readable bench-artifact entry from a simulated
/// schedule recorded on `track`: the wall time is the track's extent
/// (virtual nanoseconds), the critical-path length and its phase blame
/// come from [`regent_trace::sim_blame`]. Returns `None` when the
/// trace has no such track or the track recorded no spans. The
/// simulator is deterministic, so entries produced here are bit-stable
/// across machines — which is what lets checked-in baselines be
/// compared exactly in CI.
pub fn sim_bench_entry(
    app: &str,
    size: &str,
    shards: u32,
    executor: &str,
    trace: &regent_trace::Trace,
    track: &str,
) -> Option<regent_trace::BenchEntry> {
    let t = trace.tracks.iter().find(|t| t.name == track)?;
    let wall_ns = t.events.iter().map(|e| e.ts + e.dur).max()?;
    let (critical_path_ns, blame) = regent_trace::sim_blame(trace, track)?;
    Some(regent_trace::BenchEntry {
        app: app.to_string(),
        size: size.to_string(),
        shards,
        executor: executor.to_string(),
        wall_ns,
        critical_path_ns,
        blame,
    })
}

/// The execution model a [`simulate`] call builds its task graph for
/// (see the module docs).
#[derive(Clone, Copy, Debug)]
pub enum Model {
    /// Regent with control replication.
    Cr,
    /// Regent without control replication: one control thread.
    Implicit,
    /// [`Model::Implicit`] with epoch-trace memoization.
    ImplicitMemo,
    /// Shared-log control replication.
    Log,
    /// A hand-written bulk-synchronous SPMD reference.
    Mpi(MpiVariant),
}

/// Options of one [`simulate`] call; the default is an untraced run.
#[derive(Default)]
pub struct SimOptions<'a> {
    /// Records the simulated schedule here. CR shards tag `Launch`
    /// spans; the implicit models put every `Analysis` span on node 0 —
    /// the single control thread, which is exactly what the per-step
    /// control-cost profile shows growing with machine size — and, with
    /// memoization, tag replayed steps `Launch`; the log model tags the
    /// sequencer's append spans [`SimKind::Log`] (phase
    /// `log_control` under `sim_blame`), the replicas' first-step
    /// analysis spans `Analysis`, and their steady-state consume spans
    /// `Log`.
    pub trace: Option<&'a mut TraceBuf>,
}

/// Simulates `steps` time steps of `spec` on `machine` under `model`.
pub fn simulate(
    model: Model,
    machine: &MachineConfig,
    spec: &TimestepSpec,
    steps: u64,
    opts: &mut SimOptions<'_>,
) -> ScenarioResult {
    let mut graph = TaskGraph::new(model, machine, spec);
    for step in 0..steps {
        graph.step(step);
    }
    let sim = graph.sim;
    let graph_size = sim.num_tasks();
    let res = match opts.trace.as_deref_mut() {
        Some(tb) => sim.run_traced(tb),
        None => sim.run_traced(&mut Tracer::disabled().buffer("sim")),
    };
    let executed = spec.elements_per_node as f64 * steps as f64;
    ScenarioResult {
        makespan: res.makespan,
        throughput_per_node: executed / res.makespan,
        graph_size,
    }
}

/// Configuration of a hand-written SPMD reference.
#[derive(Clone, Copy, Debug)]
pub struct MpiVariant {
    /// MPI ranks per node (1 = MPI+OpenMP / MPI+Kokkos rank-per-node;
    /// `cores_per_node` = flat MPI rank-per-core).
    pub ranks_per_node: u32,
    /// Compute-time multiplier relative to the Regent kernel (models
    /// e.g. OpenMP overheads or data-layout advantages).
    pub compute_multiplier: f64,
    /// Multiplier on the machine's noise fraction (threaded runtimes
    /// amplify noise through their intra-node fork/join barriers).
    pub noise_scale: f64,
    /// Fixed per-phase serial cost per node (thread fork/join, OpenMP
    /// barrier).
    pub sync_cost: f64,
}

impl MpiVariant {
    /// Flat MPI, one rank per core.
    pub fn rank_per_core(machine: &MachineConfig) -> Self {
        MpiVariant {
            ranks_per_node: machine.cores_per_node,
            compute_multiplier: 1.0,
            noise_scale: 1.0,
            sync_cost: 0.0,
        }
    }

    /// One rank per node with threaded compute (OpenMP/Kokkos):
    /// fork/join per phase and stronger noise amplification.
    pub fn rank_per_node() -> Self {
        MpiVariant {
            ranks_per_node: 1,
            compute_multiplier: 1.0,
            noise_scale: 2.5,
            sync_cost: 15.0e-6,
        }
    }
}

/// The task graph of one [`simulate`] call, shared by every model (see
/// the module docs). The issue rules are [`TaskGraph::issue`], the
/// log's [`TaskGraph::append`] and [`TaskGraph::consume`], and the
/// collective gates chosen in [`TaskGraph::phase`]. Node `i` hosts
/// slot `i`: one shard (CR, log), one rank group (MPI), or the point
/// tasks the control thread issues to it (implicit).
struct TaskGraph<'a> {
    sim: Sim,
    model: Model,
    machine: &'a MachineConfig,
    spec: &'a TimestepSpec,
    compute: Vec<ResourceId>,
    /// Issue resources: one per node (CR, log), the single control
    /// thread (implicit), none (MPI).
    control: Vec<ResourceId>,
    /// The log's sequencer, and the op its next append waits behind.
    sequencer: Option<ResourceId>,
    last_seq: Option<SimTaskId>,
    nic: Vec<ResourceId>,
    /// Per issue lane (a slot; under implicit, the control thread): the
    /// tail of its serial issue chain.
    last_launch: Vec<Option<SimTaskId>>,
    /// Tasks of the previous phase per slot, and copies inbound per slot.
    prev_tasks: Vec<Vec<SimTaskId>>,
    inbound: Vec<Vec<SimTaskId>>,
    /// The latest collective, until the issue rule has consumed it.
    pending_collective: Option<SimTaskId>,
    noise_key: u64,
}

impl<'a> TaskGraph<'a> {
    fn new(model: Model, machine: &'a MachineConfig, spec: &'a TimestepSpec) -> Self {
        let n = spec.num_nodes;
        let mut sim = Sim::new();
        // The MPI references compute on every core; Legion keeps one
        // for the runtime.
        let cores = match model {
            Model::Mpi(_) => machine.cores_per_node,
            _ => machine.regent_compute_cores(),
        };
        let compute = (0..n).map(|_| sim.add_resource(cores)).collect();
        let sequencer = matches!(model, Model::Log).then(|| sim.add_resource(1));
        let lanes = match model {
            Model::Cr | Model::Log => n,
            Model::Implicit | Model::ImplicitMemo => 1,
            Model::Mpi(_) => 0,
        };
        let control = (0..lanes).map(|_| sim.add_resource(1)).collect();
        let nic = (0..n).map(|_| sim.add_resource(1)).collect();
        TaskGraph {
            sim,
            model,
            machine,
            spec,
            compute,
            control,
            sequencer,
            last_seq: None,
            nic,
            last_launch: vec![None; lanes],
            prev_tasks: vec![Vec::new(); n],
            inbound: vec![Vec::new(); n],
            pending_collective: None,
            noise_key: 0,
        }
    }

    /// Emits one time step, phase by phase.
    fn step(&mut self, step: u64) {
        let spec = self.spec;
        for phase in &spec.phases {
            self.phase(phase, step);
        }
    }

    /// Emits one phase: per slot, the issue rule's ops and the point
    /// tasks (OS noise stretches their durations), then the exchange
    /// and the collective.
    fn phase(&mut self, phase: &PhaseSpec, step: u64) {
        let m = self.machine;
        // The collective gates the next issue op (implicit: the control
        // thread blocks on the reduced scalar), the whole next phase
        // (MPI's bulk-synchronous all-reduce), or only the phases that
        // read it (CR and the log: deferred execution overlaps its
        // latency everywhere else, §3.4).
        let (issue_gate, compute_gate) = match self.model {
            Model::Implicit | Model::ImplicitMemo => (self.pending_collective.take(), None),
            Model::Mpi(_) => (None, self.pending_collective.take()),
            Model::Cr | Model::Log => (
                None,
                self.pending_collective
                    .filter(|_| phase.consumes_collective),
            ),
        };
        // MPI splits each node's phase work evenly over its cores, and
        // its threaded variants amplify the noise.
        let (count, work, noise) = match self.model {
            Model::Mpi(v) => {
                let total =
                    phase.tasks_per_node as f64 * phase.task_compute_s * v.compute_multiplier;
                let chunks = m.cores_per_node;
                (
                    chunks,
                    total / chunks as f64 + v.sync_cost,
                    m.noise_fraction * v.noise_scale,
                )
            }
            _ => (phase.tasks_per_node, phase.task_compute_s, m.noise_fraction),
        };
        let batch = self.append(phase, step);
        let mut cur: Vec<Vec<SimTaskId>> = vec![Vec::new(); self.spec.num_nodes];
        for (node, tasks) in cur.iter_mut().enumerate() {
            if let Some(batch) = batch {
                self.consume(batch, phase, node, step);
            }
            for _ in 0..count {
                let op = self.issue(phase, node, step, issue_gate);
                self.noise_key += 1;
                let dur = work * noise_multiplier(noise, self.noise_key);
                let t = self.sim.add_task(self.compute[node], dur);
                self.sim.tag(t, SimKind::Compute, node as u32, step as u32);
                if let Some(op) = op {
                    self.sim.add_dep(op, t);
                }
                for &p in self.prev_tasks[node]
                    .iter()
                    .chain(&self.inbound[node])
                    .chain(&compute_gate)
                {
                    self.sim.add_dep(p, t);
                }
                tasks.push(t);
            }
        }
        self.exchange(phase, step, &cur);
        if phase.collective {
            self.collective(step, &cur);
        }
        self.prev_tasks = cur;
    }

    /// The issue rule: the op issuing one point task of `slot`, chained
    /// behind its lane's previous op and `gate`. CR and the log launch
    /// on the slot's own control resource at shard-launch cost (§3.5).
    /// Implicit runs dynamic analysis for every task in the machine on
    /// the one control thread (node 0), at a cost growing with the
    /// in-flight window (§1), and ships the op to its node; memoized,
    /// only step 0 pays it (template capture) and later steps replay
    /// each task at shard-launch cost. MPI issues nothing.
    fn issue(
        &mut self,
        phase: &PhaseSpec,
        slot: usize,
        step: u64,
        gate: Option<SimTaskId>,
    ) -> Option<SimTaskId> {
        let m = self.machine;
        let (lane, op) = match self.model {
            Model::Mpi(_) => return None,
            Model::Cr | Model::Log => {
                let op = self.sim.add_task(self.control[slot], m.shard_launch_time);
                self.sim.tag(op, SimKind::Launch, slot as u32, step as u32);
                (slot, op)
            }
            Model::Implicit | Model::ImplicitMemo => {
                let in_flight = self.spec.num_nodes as f64 * phase.tasks_per_node as f64;
                let (cost, kind) = if matches!(self.model, Model::ImplicitMemo) && step > 0 {
                    (m.shard_launch_time, SimKind::Launch)
                } else {
                    let analysis = m.task_analysis_time + m.task_analysis_window_cost * in_flight;
                    (analysis, SimKind::Analysis)
                };
                let op = self
                    .sim
                    .add_task_delayed(self.control[0], cost, m.network_latency);
                self.sim.tag(op, kind, 0, step as u32);
                (0, op)
            }
        };
        self.chain(lane, op, gate);
        Some(op)
    }

    /// Appends `op` to `lane`'s serial issue chain, behind `gate`.
    fn chain(&mut self, lane: usize, op: SimTaskId, gate: Option<SimTaskId>) {
        if let Some(prev) = self.last_launch[lane] {
            self.sim.add_dep(prev, op);
        }
        if let Some(g) = gate {
            self.sim.add_dep(g, op);
        }
        self.last_launch[lane] = Some(op);
    }

    /// The log's sequencer op for a phase: it runs the control program
    /// once, appending one record per index launch and publishing the
    /// batch — O(tasks_per_node) work, independent of the machine size.
    /// `None` for every other model.
    fn append(&mut self, phase: &PhaseSpec, step: u64) -> Option<SimTaskId> {
        let seq = self.sequencer?;
        let m = self.machine;
        let combine = m.shard_launch_time * (phase.tasks_per_node as f64 + 1.0);
        let op = self.sim.add_task_delayed(seq, combine, m.network_latency);
        self.sim.tag(op, SimKind::Log, 0, step as u32);
        if let Some(prev) = self.last_seq {
            self.sim.add_dep(prev, op);
        }
        self.last_seq = Some(op);
        Some(op)
    }

    /// A log replica consuming `batch` ahead of its shard launches:
    /// full dependence analysis only the first time a signature pair is
    /// seen (step 0), a cheap dedup-hit consume after — once per replica
    /// per batch, not per task.
    fn consume(&mut self, batch: SimTaskId, phase: &PhaseSpec, node: usize, step: u64) {
        let m = self.machine;
        let (cost, kind) = if step == 0 {
            (
                m.task_analysis_time * phase.tasks_per_node as f64,
                SimKind::Analysis,
            )
        } else {
            (m.shard_launch_time, SimKind::Log)
        };
        let op = self.sim.add_task(self.control[node], cost);
        self.sim.tag(op, kind, node as u32, step as u32);
        self.sim.add_dep(batch, op);
        self.chain(node, op, None);
    }

    /// MPI ranks per node: each logical exchange volume is split into
    /// one message per rank, and every rank joins the collective. One
    /// for the Regent models.
    fn ranks(&self) -> u32 {
        match self.model {
            Model::Mpi(v) => v.ranks_per_node.max(1),
            _ => 1,
        }
    }

    /// Point-to-point exchanges (§3.4): each copy leaves the source
    /// node's NIC after the source slot's phase tasks, and only the
    /// destination slot waits — except under MPI, whose blocking
    /// exchange holds both ends.
    fn exchange(&mut self, phase: &PhaseSpec, step: u64, cur: &[Vec<SimTaskId>]) {
        let m = self.machine;
        let ranks = self.ranks();
        let mut inbound: Vec<Vec<SimTaskId>> = vec![Vec::new(); self.spec.num_nodes];
        for e in &phase.copies {
            let src = e.src as usize;
            for _ in 0..ranks {
                let c = self.sim.add_task_delayed(
                    self.nic[src],
                    m.message_overhead + e.bytes / ranks as f64 / m.network_bandwidth,
                    m.network_latency,
                );
                self.sim.tag(c, SimKind::Copy, src as u32, step as u32);
                for &t in &cur[e.src as usize] {
                    self.sim.add_dep(t, c);
                }
                inbound[e.dst as usize].push(c);
                if matches!(self.model, Model::Mpi(_)) {
                    inbound[e.src as usize].push(c);
                }
            }
        }
        self.inbound = inbound;
    }

    /// The dynamic collective (§4.4) over every point task of the
    /// phase, on the root slot's control resource (MPI: its NIC). It
    /// stays pending until the issue rule consumes it; the log's
    /// sequencer blocks on it too (shard 0 feeds the fold back).
    fn collective(&mut self, step: u64, cur: &[Vec<SimTaskId>]) {
        let resource = match self.model {
            Model::Mpi(_) => self.nic[0],
            _ => self.control[0],
        };
        let participants = self.spec.num_nodes * self.ranks() as usize;
        let j =
            self.sim
                .add_task_delayed(resource, 0.0, self.machine.collective_latency(participants));
        self.sim.tag(j, SimKind::Collective, 0, step as u32);
        for &t in cur.iter().flatten() {
            self.sim.add_dep(t, j);
        }
        self.pending_collective = Some(j);
        if self.sequencer.is_some() {
            self.last_seq = Some(j);
        }
    }
}

#[cfg(test)]
fn run_plain(
    model: Model,
    machine: &MachineConfig,
    spec: &TimestepSpec,
    steps: u64,
) -> ScenarioResult {
    simulate(model, machine, spec, steps, &mut SimOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CopyEdge, PhaseSpec};

    /// A stencil-like spec: ring exchange of 1 MB, one ~3 ms task per
    /// Regent compute core (11 on a 12-core node — tiling to the
    /// available cores avoids wave quantization, which is how real
    /// mappers configure these codes).
    fn ring_spec(n: usize) -> TimestepSpec {
        let copies: Vec<CopyEdge> = (0..n as u32)
            .flat_map(|i| {
                let left = (i + n as u32 - 1) % n as u32;
                let right = (i + 1) % n as u32;
                [
                    CopyEdge {
                        src: i,
                        dst: left,
                        bytes: 1.0e6,
                    },
                    CopyEdge {
                        src: i,
                        dst: right,
                        bytes: 1.0e6,
                    },
                ]
            })
            .collect();
        TimestepSpec {
            num_nodes: n,
            elements_per_node: 1_000_000,
            phases: vec![PhaseSpec {
                name: "step".into(),
                tasks_per_node: 11,
                task_compute_s: 3.0e-3,
                copies,
                collective: false,
                consumes_collective: false,
            }],
        }
    }

    #[test]
    fn cr_scales_implicit_does_not() {
        let machine1 = MachineConfig::piz_daint(1);
        let machine64 = MachineConfig::piz_daint(64);
        let s1 = ring_spec(1);
        let s64 = ring_spec(64);
        let steps = 5;

        let cr1 = run_plain(Model::Cr, &machine1, &s1, steps);
        let cr64 = run_plain(Model::Cr, &machine64, &s64, steps);
        let eff_cr = cr64.throughput_per_node / cr1.throughput_per_node;
        assert!(eff_cr > 0.9, "CR efficiency at 64 nodes: {eff_cr}");

        let im1 = run_plain(Model::Implicit, &machine1, &s1, steps);
        let im64 = run_plain(Model::Implicit, &machine64, &s64, steps);
        let eff_im = im64.throughput_per_node / im1.throughput_per_node;
        assert!(
            eff_im < 0.5,
            "implicit should collapse at 64 nodes: {eff_im}"
        );
        // At one node the two are comparable.
        let ratio = im1.throughput_per_node / cr1.throughput_per_node;
        assert!(ratio > 0.7 && ratio < 1.3, "single node ratio {ratio}");
    }

    #[test]
    fn memoization_amortizes_implicit_analysis() {
        let machine = MachineConfig::piz_daint(64);
        let spec = ring_spec(64);
        let steps = 5;
        let plain = run_plain(Model::Implicit, &machine, &spec, steps);
        let memo = run_plain(Model::ImplicitMemo, &machine, &spec, steps);
        // Replayed steps skip the O(N) analysis: memoization must beat
        // the plain implicit run at scale, but a single serial control
        // thread still launches every task, so it cannot beat CR.
        assert!(
            memo.makespan < plain.makespan,
            "memo {} vs plain {}",
            memo.makespan,
            plain.makespan
        );
        let cr = run_plain(Model::Cr, &machine, &spec, steps);
        assert!(memo.makespan >= cr.makespan * 0.99);

        // The traced profile shows the amortization curve: step 0 pays
        // the analysis cost, steady-state steps read far cheaper.
        let tracer = Tracer::enabled();
        let mut tb = tracer.buffer("sim");
        let mut opts = SimOptions {
            trace: Some(&mut tb),
        };
        simulate(Model::ImplicitMemo, &machine, &spec, steps, &mut opts);
        drop(tb);
        let trace = tracer.take();
        let per_step = regent_trace::sim_control_cost_per_step(&trace, "sim");
        assert_eq!(per_step.len(), steps as usize);
        let first = per_step[0].1 as f64;
        for &(_, c) in &per_step[1..] {
            assert!(
                (c as f64) < first / 5.0,
                "steady-state step cost {c} should be well under the capture cost {first}"
            );
        }
    }

    #[test]
    fn log_scales_like_cr_and_blames_log_control() {
        let machine1 = MachineConfig::piz_daint(1);
        let machine64 = MachineConfig::piz_daint(64);
        let steps = 5;
        let l1 = run_plain(Model::Log, &machine1, &ring_spec(1), steps);
        let l64 = run_plain(Model::Log, &machine64, &ring_spec(64), steps);
        // The sequencer appends one record per index launch — cost
        // independent of N — and replicas analyze once per batch, so
        // the model weak-scales like CR, not like implicit.
        let eff = l64.throughput_per_node / l1.throughput_per_node;
        assert!(eff > 0.9, "log efficiency at 64 nodes: {eff}");
        let cr64 = run_plain(Model::Cr, &machine64, &ring_spec(64), steps);
        assert!(
            l64.makespan >= cr64.makespan * 0.99,
            "the log path adds sequencer latency, it cannot beat CR: {} vs {}",
            l64.makespan,
            cr64.makespan
        );

        // The traced schedule blames sequencer time on `log_control`
        // and keeps per-replica analysis to the first step only.
        let tracer = Tracer::enabled();
        let mut tb = tracer.buffer("sim");
        let mut opts = SimOptions {
            trace: Some(&mut tb),
        };
        simulate(Model::Log, &machine64, &ring_spec(64), steps, &mut opts);
        drop(tb);
        let trace = tracer.take();
        let (_, blame) = regent_trace::sim_blame(&trace, "sim").unwrap();
        assert!(blame.get(regent_trace::Phase::LogControl) > 0);
        let per_step = regent_trace::sim_control_cost_per_step(&trace, "sim");
        assert_eq!(per_step.len(), steps as usize);
        let first = per_step[0].1 as f64;
        for &(_, c) in &per_step[1..] {
            assert!(
                (c as f64) < first,
                "steady-state control cost {c} must sit under the first-batch analysis {first}"
            );
        }
    }

    #[test]
    fn mpi_comparable_to_cr() {
        let machine = MachineConfig::piz_daint(64);
        let spec = ring_spec(64);
        let cr = run_plain(Model::Cr, &machine, &spec, 5);
        let mpi = run_plain(
            Model::Mpi(MpiVariant::rank_per_core(&machine)),
            &machine,
            &spec,
            5,
        );
        // MPI uses all 12 cores (no dedicated runtime core): somewhat
        // faster per node, same order of magnitude.
        let ratio = mpi.throughput_per_node / cr.throughput_per_node;
        assert!(ratio > 0.9 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn collective_costs_grow_with_scale() {
        let mut spec_small = ring_spec(2);
        spec_small.phases[0].collective = true;
        let mut spec_big = ring_spec(256);
        spec_big.phases[0].collective = true;
        let m2 = MachineConfig::piz_daint(2);
        let m256 = MachineConfig::piz_daint(256);
        let a = run_plain(Model::Cr, &m2, &spec_small, 3);
        let b = run_plain(Model::Cr, &m256, &spec_big, 3);
        // Efficiency stays high but strictly below 1 due to collective
        // latency.
        let eff = b.throughput_per_node / a.throughput_per_node;
        assert!(eff > 0.8 && eff <= 1.0, "eff {eff}");
    }

    #[test]
    fn deterministic() {
        let machine = MachineConfig::piz_daint(16);
        let spec = ring_spec(16);
        let a = run_plain(Model::Cr, &machine, &spec, 3);
        let b = run_plain(Model::Cr, &machine, &spec, 3);
        assert_eq!(a.makespan, b.makespan);
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;
    use crate::model::{CopyEdge, MachineConfig, PhaseSpec, TimestepSpec};

    /// Two-phase step with an expensive collective: when no phase
    /// consumes the result, CR overlaps its latency entirely; when the
    /// first phase of the next step consumes it, the latency lands on
    /// the critical path (§5.3's latency-hiding effect).
    fn spec(n: usize, consumed: bool) -> TimestepSpec {
        TimestepSpec {
            num_nodes: n,
            elements_per_node: 1000,
            phases: vec![
                PhaseSpec {
                    name: "work".into(),
                    tasks_per_node: 11,
                    task_compute_s: 1e-3,
                    copies: vec![],
                    collective: false,
                    consumes_collective: consumed,
                },
                PhaseSpec {
                    name: "dt".into(),
                    tasks_per_node: 11,
                    task_compute_s: 1e-4,
                    copies: vec![],
                    collective: true,
                    consumes_collective: false,
                },
            ],
        }
    }

    #[test]
    fn unconsumed_collective_latency_is_hidden() {
        let mut machine = MachineConfig::piz_daint(64);
        machine.noise_fraction = 0.0;
        // Make the collective grotesquely slow so the difference is
        // unambiguous.
        machine.network_latency = 2e-4;
        let free = run_plain(Model::Cr, &machine, &spec(64, false), 5);
        let gated = run_plain(Model::Cr, &machine, &spec(64, true), 5);
        assert!(
            free.makespan < gated.makespan,
            "overlap should beat gating: {} vs {}",
            free.makespan,
            gated.makespan
        );
        // The gated version pays ~one collective latency per step.
        let delta = gated.makespan - free.makespan;
        let one_collective = machine.collective_latency(64);
        assert!(delta > 2.0 * one_collective, "delta {delta}");
    }

    #[test]
    fn noise_hurts_bsp_more_than_cr() {
        // The noise-amplification mechanism behind Fig. 8's reference
        // efficiencies: with identical noise, bulk-synchronous MPI
        // loses more throughput than point-to-point CR.
        let mk_spec = |n: usize| {
            let copies = (0..n as u32)
                .flat_map(|i| {
                    let l = (i + n as u32 - 1) % n as u32;
                    [CopyEdge {
                        src: i,
                        dst: l,
                        bytes: 1e4,
                    }]
                })
                .collect::<Vec<_>>();
            TimestepSpec {
                num_nodes: n,
                elements_per_node: 1000,
                phases: vec![PhaseSpec {
                    name: "w".into(),
                    tasks_per_node: 11,
                    task_compute_s: 1e-3,
                    copies,
                    collective: true, // global sync each step
                    consumes_collective: false,
                }],
            }
        };
        let mut machine = MachineConfig::piz_daint(128);
        machine.noise_fraction = 0.05;
        let spec = mk_spec(128);
        let cr = run_plain(Model::Cr, &machine, &spec, 5);
        let mpi = run_plain(
            Model::Mpi(MpiVariant::rank_per_core(&machine)),
            &machine,
            &spec,
            5,
        );
        // Compare slowdowns against the noise-free baselines.
        let mut quiet = machine.clone();
        quiet.noise_fraction = 0.0;
        let cr0 = run_plain(Model::Cr, &quiet, &spec, 5);
        let mpi0 = run_plain(
            Model::Mpi(MpiVariant::rank_per_core(&quiet)),
            &quiet,
            &spec,
            5,
        );
        let cr_loss = cr.makespan / cr0.makespan;
        let mpi_loss = mpi.makespan / mpi0.makespan;
        assert!(
            mpi_loss > cr_loss,
            "BSP should amplify noise more: cr {cr_loss:.3} vs mpi {mpi_loss:.3}"
        );
    }
}
