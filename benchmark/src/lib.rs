//! `regent-perf`: the repository's benchmark, as a library so that the
//! binary and the smoke test share it. See `benchmark/README.md`.

pub mod bench;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod sut;
pub mod workloads;
