//! Table 1: running times of the dynamic region intersections (§3.3)
//! for each application at 64 and 1024 nodes.
//!
//! These are *measured*, not simulated: each application's real
//! partitions are built at the given piece count and the compiled
//! program's intersection declarations are evaluated through the same
//! two-phase (shallow, then complete) machinery the SPMD runtime uses.
//! Per-piece problem sizes are scaled down from the paper's (whose
//! 40k²-points-per-node inputs need a supercomputer's memory); the
//! *structure* — pieces, neighbours, O(1) intersections per region —
//! is preserved, which is what the shallow phase's O(N log N) cost
//! depends on. Expect the same shape as the paper: shallow times grow
//! roughly linearly in node count and stay in the hundreds of
//! milliseconds; complete times are small and (for the per-shard
//! phase) scale-independent. The last timing column is not in the
//! paper's table: it is the inspector's extra step of turning element
//! sets into the storage runs the executors copy, which grows with the
//! rows exchanged rather than with the pieces. Beside the pair count
//! stand the run count and the bytes the run lists take (12 a run).

use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_cr::{control_replicate, CrOptions};
use regent_runtime::build_exchange_plan;
use std::mem::size_of_val;

fn measure(name: &str, pieces: usize, build: impl FnOnce() -> regent_ir::Program) {
    let prog = build();
    let spmd = control_replicate(prog, &CrOptions::new(pieces)).expect("CR failed");
    let plan = build_exchange_plan(&spmd);
    let run_bytes: usize = plan
        .pairs
        .iter()
        .flatten()
        .map(|p| size_of_val(p.runs.runs()))
        .sum();
    println!(
        "{:<10} {:>6}  {:>12.1}  {:>12.1}  {:>12.1}  {:>8}  {:>9}  {:>9.2}",
        name,
        pieces,
        plan.setup.shallow_seconds * 1e3,
        plan.setup.complete_seconds * 1e3,
        plan.setup.runs_seconds * 1e3,
        plan.setup.num_pairs,
        plan.setup.num_runs,
        run_bytes as f64 / 1e6
    );
}

fn main() {
    let scales: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("node counts"))
        .collect();
    let scales = if scales.is_empty() {
        vec![64, 1024]
    } else {
        scales
    };
    println!(
        "{:<10} {:>6}  {:>12}  {:>12}  {:>12}  {:>8}  {:>9}  {:>9}",
        "App", "Nodes", "Shallow (ms)", "Complete (ms)", "Runs (ms)", "Pairs", "Runs", "Run MB"
    );
    for &n in &scales {
        measure("Circuit", n, || {
            let cfg = circuit::CircuitConfig {
                pieces: n,
                nodes_per_piece: 256,
                wires_per_piece: 1024,
                cross_fraction: 0.1,
                steps: 1,
                substeps: 1,
                seed: 7,
            };
            let g = circuit::generate_graph(&cfg);
            circuit::circuit_program(cfg, &g).0
        });
        measure("MiniAero", n, || {
            let cfg = miniaero::MiniAeroConfig {
                nx: 4 * n,
                ny: 8,
                nz: 8,
                pieces: n,
                steps: 1,
                dt: 1e-3,
            };
            let mesh = miniaero::build_mesh(&cfg);
            miniaero::miniaero_program(cfg, &mesh).0
        });
        measure("PENNANT", n, || {
            let cfg = pennant::PennantConfig {
                nzx: 8 * n,
                nzy: 32,
                pieces: n,
                tstop: 1e-9,
                dtmax: 1e-9,
            };
            let mesh = pennant::build_mesh(&cfg);
            pennant::pennant_program(cfg, &mesh).0
        });
        measure("Stencil", n, || {
            let (ntx, nty) = stencil::near_square(n);
            let cfg = stencil::StencilConfig {
                n: 128 * (ntx.max(nty) as u64),
                ntx,
                nty,
                radius: 2,
                steps: 1,
            };
            stencil::stencil_program(cfg).0
        });
    }
}
