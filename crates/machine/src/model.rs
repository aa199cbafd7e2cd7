//! Machine and workload descriptions for the distributed simulator.
//!
//! [`MachineConfig`] approximates a Piz Daint-like Cray XC50 (12-core
//! nodes, ~1 µs network latency, ~10 GB/s injection bandwidth) plus the
//! runtime cost parameters that drive the paper's scaling phenomena:
//! the per-task dynamic-analysis time of the single control thread
//! (implicit execution, §1) and the much smaller per-task cost of a
//! shard launching its own local work (§3.5).

/// Description of the simulated cluster and runtime costs.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Nodes in the machine.
    pub num_nodes: usize,
    /// Cores per node (Piz Daint XC50: 12).
    pub cores_per_node: u32,
    /// One-way network latency, seconds.
    pub network_latency: f64,
    /// Per-node injection bandwidth, bytes/second.
    pub network_bandwidth: f64,
    /// Per-message software overhead (MPI match/progress or runtime
    /// active-message handling), seconds.
    pub message_overhead: f64,
    /// Control-thread base cost per task launch in the implicit model
    /// (Legion's dynamic dependence analysis, mapping, and
    /// completion-event processing — the O(N) per-step term of §1).
    pub task_analysis_time: f64,
    /// Additional per-task analysis cost per in-flight task: the
    /// dependence-analysis window grows with the machine (every node's
    /// tasks are in flight at the single control thread), making
    /// per-task cost super-linear in node count — this is what turns
    /// the implicit model's decline into the sharp collapse of
    /// Figs. 6–9.
    pub task_analysis_window_cost: f64,
    /// Per-task launch cost inside a shard (local analysis only; §3.5
    /// amortizes the global cost away).
    pub shard_launch_time: f64,
    /// Whether the Regent/Legion models dedicate one core per node to
    /// the runtime (§5.3: "the underlying Legion runtime requires a
    /// core be dedicated to analysis of tasks").
    pub dedicate_runtime_core: bool,
    /// OS-noise level: task durations are stretched by
    /// `1 + noise_fraction × Exp(1)` samples (deterministic, hashed).
    /// Bulk-synchronous execution amplifies this with scale (the
    /// classic noise-amplification effect), which is what separates
    /// the reference codes' efficiencies at 1024 nodes in Figs. 6–8;
    /// point-to-point-synchronized CR absorbs more of it.
    pub noise_fraction: f64,
}

/// Deterministic noise multiplier for a task identified by `key`:
/// `1 + fraction × Exp(1)` via [`regent_fault::splitmix64`].
pub(crate) fn noise_multiplier(fraction: f64, key: u64) -> f64 {
    if fraction == 0.0 {
        return 1.0;
    }
    let z = regent_fault::splitmix64(key);
    // Uniform in (0,1], then exponential tail.
    let u = ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    1.0 + fraction * (-u.ln())
}

impl MachineConfig {
    /// A Piz Daint-like configuration with `num_nodes` nodes.
    pub fn piz_daint(num_nodes: usize) -> Self {
        MachineConfig {
            num_nodes,
            cores_per_node: 12,
            network_latency: 1.5e-6,
            network_bandwidth: 10.0e9,
            message_overhead: 1.0e-6,
            task_analysis_time: 1.0e-4,
            task_analysis_window_cost: 1.0e-6,
            shard_launch_time: 10.0e-6,
            dedicate_runtime_core: true,
            noise_fraction: 0.01,
        }
    }

    /// Compute cores available to application kernels under a
    /// Legion-style runtime.
    pub fn regent_compute_cores(&self) -> u32 {
        if self.dedicate_runtime_core && self.cores_per_node > 1 {
            self.cores_per_node - 1
        } else {
            self.cores_per_node
        }
    }

    /// Latency of a tree-based collective over `participants` ranks.
    pub(crate) fn collective_latency(&self, participants: usize) -> f64 {
        let stages = (participants.max(1) as f64).log2().ceil();
        2.0 * stages * (self.network_latency + self.message_overhead)
    }
}

/// A point-to-point transfer in a communication phase.
#[derive(Clone, Copy, Debug)]
pub struct CopyEdge {
    /// Producing node.
    pub src: u32,
    /// Consuming node.
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: f64,
}

/// One phase of a time step: an index launch (its per-node share of
/// point tasks), followed by an optional exchange and/or collective.
#[derive(Clone, Debug)]
pub struct PhaseSpec {
    /// Label for diagnostics.
    pub name: String,
    /// Point tasks owned by each node.
    pub tasks_per_node: u32,
    /// Compute time of one point task, seconds.
    pub task_compute_s: f64,
    /// Inter-node copies that the *next* phase's consumers wait for.
    pub copies: Vec<CopyEdge>,
    /// Scalar all-reduce closing the phase (e.g. a dt computation).
    pub collective: bool,
    /// True when this phase *consumes* the most recent collective's
    /// result (e.g. `advance_points` needs dt). Control replication's
    /// deferred execution lets every other phase overlap the
    /// collective's latency (§3.4: point-to-point operators "do not
    /// block the main thread"; §5.3: Regent "hides the latency of the
    /// global scalar reduction"); bulk-synchronous references block at
    /// the all-reduce itself.
    pub consumes_collective: bool,
}

/// The communication-and-compute shape of one application time step at
/// a given node count.
#[derive(Clone, Debug)]
pub struct TimestepSpec {
    /// Node count this spec was generated for.
    pub num_nodes: usize,
    /// Elements of application state per node (for throughput
    /// reporting).
    pub elements_per_node: u64,
    /// Phases in issue order.
    pub phases: Vec<PhaseSpec>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_and_collective_scale() {
        let m = MachineConfig::piz_daint(64);
        assert!(m.collective_latency(1024) > m.collective_latency(2));
        assert_eq!(m.regent_compute_cores(), 11);
        let mut m2 = m.clone();
        m2.dedicate_runtime_core = false;
        assert_eq!(m2.regent_compute_cores(), 12);
    }
}
