//! # regent-trace
//!
//! A Legion Prof / Legion Spy-style observability subsystem for the
//! control-replication stack: structured event recording from every
//! executor, the discrete-event machine simulator, and the CR compiler
//! pipeline, plus three consumers of the recorded stream:
//!
//! * [`prof`] — timeline profiling: per-track utilization, per-timestep
//!   control-thread analysis cost (the O(N)-vs-O(1) evidence at the
//!   heart of the paper), and critical-path length through the
//!   task/copy/sync DAG.
//! * [`spy`] — event-graph validation: reconstructs the executed
//!   happens-before graph and certifies that every RAW/WAR/WAW
//!   dependence implied by the tasks' privileges (§2.1) was actually
//!   ordered — an independent correctness oracle beside bit-identical
//!   region equivalence.
//! * [`chrome`] — the one trace file format: a hand-rolled (no serde)
//!   Chrome `trace_event` document, loadable in `chrome://tracing` /
//!   Perfetto, carrying the lossless `regentTracks` sidecar; plus an
//!   `ascii` timeline for terminals. [`json`] is the matching
//!   minimal parser used to round-trip-check exports.
//! * [`critical`] — critical-path *blame* attribution: decomposes the
//!   longest dependence chain by phase (analysis / copy / waits /
//!   exec), per track and per epoch, plus a load-imbalance report.
//! * [`serial`] — the sidecar's wire form, derived from the
//!   [`event`] table, and [`import_trace`], which reads a trace file
//!   back for the `regent-prof` CLI; [`export_chrome`] embeds the
//!   sidecar, so every trace file (`--trace`) is both
//!   Perfetto-loadable and re-analyzable.
//! * [`artifact`] — the machine-readable bench-result schema the
//!   figure binaries' `--json` merges into.
//!
//! ## Recording model
//!
//! A shared [`Tracer`] hands out per-worker [`TraceBuf`]s. Each buffer
//! is owned by exactly one thread and records into a private ring
//! (no locks, no atomics on the hot path); buffers flush into the
//! tracer's central store at quiescence (explicitly or on drop). When
//! the tracer is disabled, recording is zero-cost: no timestamp reads,
//! no event storage, and no allocation (see `tests/zero_alloc.rs`).
//!
//! Timestamps are monotonic nanoseconds from the tracer's epoch
//! ([`std::time::Instant`]); the simulator records *virtual* time on
//! the same scale.

#![warn(missing_docs)]

pub mod artifact;
pub(crate) mod ascii;
pub mod chrome;
pub mod critical;
pub mod event;
pub mod graph;
pub mod json;
pub mod prof;
pub mod ring;
pub mod serial;
pub mod spy;
pub mod tracer;

pub use artifact::{merge_into_file, parse_entries, BenchEntry};
pub use ascii::ascii_timeline;
pub use chrome::export_chrome;
pub use critical::{
    blame_report, classify, imbalance_report, sim_blame, Blame, BlameReport, Phase,
};
pub use event::{fields_mask, CorruptSite, Event, EventKind, PrivCode, SimKind};
pub use graph::build_graph;
pub use prof::{
    failover_summary, integrity_summary, mean_step_cost, memo_summary, sim_control_cost_per_step,
    ProfReport,
};
pub use ring::Ring;
pub use serial::import_trace;
pub use spy::{validate, OverlapOracle, SpyReport};
pub use tracer::{Trace, TraceBuf, Tracer, Track};
