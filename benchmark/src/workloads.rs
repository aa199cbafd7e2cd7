//! The four workloads. Sizes are frozen here; `--seed` reaches the
//! system only through the inputs generated from it (the Circuit
//! graph), and `--quick` divides the step count by four.

use crate::sut::{self, AppConfig};

pub struct Workload {
    pub name: &'static str,
    /// Relative tolerance against the sequential reference
    /// (`apps/tests/differential.rs`): 0 demands bit-exact agreement.
    pub tolerance: f64,
    /// The frozen parameters, as recorded in every result file.
    pub params: &'static str,
    config: fn(seed: u64, divide_steps: u64) -> AppConfig,
}

impl Workload {
    pub fn config(&self, seed: u64, quick: bool) -> AppConfig {
        (self.config)(seed, if quick { 4 } else { 1 })
    }
}

pub const WORKLOADS: [Workload; 4] = [
    // Kernel-bound: two big tiles, four tasks a step, almost no control
    // or exchange.
    Workload {
        name: "stencil_bulk",
        tolerance: 0.0,
        params: "stencil n=128 tiles=2x1 radius=2 steps=4",
        config: |_, div| sut::stencil_config(128, 2, 1, 4 / div),
    },
    // Control-bound: the same kernels cut into 64 launch points.
    Workload {
        name: "stencil_fine",
        tolerance: 0.0,
        params: "stencil n=128 tiles=8x8 radius=2 steps=4",
        config: |_, div| sut::stencil_config(128, 8, 8, 4 / div),
    },
    // Transport-bound: irregular ghost exchange with reduction copies
    // over a seeded random graph, little compute per wire.
    Workload {
        name: "circuit_sparse",
        tolerance: 1e-12,
        params: "circuit pieces=8 nodes/piece=500 wires/piece=2000 cross=0.3 substeps=1 steps=3 graph=seed",
        config: |seed, div| sut::circuit_config(8, 500, 2000, 0.3, (3 / div).max(1), seed),
    },
    // Sync-bound: hundreds of sub-millisecond epochs, each closed by a
    // Min all-reduce that feeds the loop condition.
    Workload {
        name: "pennant_dt",
        tolerance: 1e-11,
        params: "pennant zones=48x24 pieces=8 dtmax=1e-3 tstop=0.024",
        config: |_, div| sut::pennant_config(48, 24, 8, 1e-3, 0.024 / div as f64),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
