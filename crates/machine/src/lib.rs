//! # regent-machine
//!
//! A discrete-event simulator of a distributed-memory machine — the
//! substitute for the paper's 1024-node Piz Daint runs (see the
//! substitution table in DESIGN.md).
//!
//! * [`des`] — the event-driven engine (task DAGs over multi-server
//!   resources).
//! * [`model`] — machine description (nodes, cores, network, runtime
//!   cost parameters) and workload time-step specifications.
//! * [`scenario`] — the execution models of the evaluation behind one
//!   [`simulate`] call: Regent with CR, Regent without CR (single
//!   control thread, optionally memoized), shared-log CR, and
//!   hand-written MPI(+X) references.
//! * [`metrics`] — weak-scaling series/efficiency reporting.
//!
//! The engine (`Sim::run_traced`) and every scenario
//! ([`SimOptions::trace`]) can record the simulated schedule as
//! `SimTask` spans into a `regent-trace` buffer (virtual seconds × 1e9
//! → nanoseconds), so simulated runs can be profiled and exported
//! exactly like real executor runs.

#![warn(missing_docs)]

pub mod des;
pub mod metrics;
pub mod model;
pub mod scenario;

pub use des::{Resource, ResourceId, Sim, SimResult, SimTask, SimTaskId};
pub use metrics::{
    format_resilience_table, format_table, node_counts_to, trace_series, ScalePoint, ScalingSeries,
};
pub use model::{CopyEdge, MachineConfig, PhaseSpec, TimestepSpec};
pub use regent_fault::{parse_corrupt_spec, FaultPlan, FaultStats, RetryPolicy};
pub use scenario::{
    sim_bench_entry, simulate, Model, MpiVariant, ResilienceSpec, ScenarioResult, SimOptions,
};
