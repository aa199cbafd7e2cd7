//! Weak-scaling sandbox: sweep any of the four applications across a
//! node range on the simulated machine and print the Fig. 6–9-style
//! comparison plus where the implicit version's control overhead
//! crosses the per-step compute (the scalability argument of §1).
//!
//! ```text
//! cargo run --release --example weak_scaling -- stencil 256
//! cargo run --release --example weak_scaling -- pennant 1024
//! ```

use control_replication::apps::{circuit, miniaero, pennant, stencil};
use control_replication::machine::{
    format_table, node_counts_to, simulate, MachineConfig, Model, ScalingSeries, SimOptions,
    TimestepSpec,
};

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "stencil".into());
    let max_nodes: usize = std::env::args()
        .nth(2)
        .map(|a| a.parse().expect("max nodes"))
        .unwrap_or(128);
    let spec_of: fn(usize, &MachineConfig) -> TimestepSpec = match app.as_str() {
        "stencil" => stencil::stencil_spec,
        "miniaero" => miniaero::miniaero_spec,
        "pennant" => pennant::pennant_spec,
        "circuit" => circuit::circuit_spec,
        other => panic!("unknown app {other}; use stencil|miniaero|pennant|circuit"),
    };

    let steps = 4;
    let mut cr = ScalingSeries::new("Regent (with CR)");
    let mut nocr = ScalingSeries::new("Regent (w/o CR)");
    let mut crossover = None;
    for nodes in node_counts_to(max_nodes) {
        let machine = MachineConfig::piz_daint(nodes);
        let spec = spec_of(nodes, &machine);
        // §1's argument: the control thread does O(N) work per step.
        let control_per_step: f64 = spec
            .phases
            .iter()
            .map(|p| {
                let inflight = nodes as f64 * p.tasks_per_node as f64;
                inflight
                    * (machine.task_analysis_time + machine.task_analysis_window_cost * inflight)
            })
            .sum();
        let compute_per_step: f64 = spec
            .phases
            .iter()
            .map(|p| {
                p.task_compute_s
                    * (p.tasks_per_node as f64 / machine.regent_compute_cores() as f64).ceil()
            })
            .sum();
        if crossover.is_none() && control_per_step > compute_per_step {
            crossover = Some(nodes);
        }
        let run = |model| simulate(model, &machine, &spec, steps, &mut SimOptions::default());
        cr.push(nodes, run(Model::Cr));
        nocr.push(nodes, run(Model::Implicit));
    }
    println!("=== {app}: weak scaling (throughput per node) ===");
    println!("{}", format_table(&[cr.clone(), nocr.clone()]));
    if let Some(n) = crossover {
        println!(
            "control overhead exceeds per-step compute at ~{n} nodes — the \
             single control thread becomes the bottleneck there (§1)."
        );
    }
    if let (Some(e1), Some(e2)) = (cr.efficiency_at(max_nodes), nocr.efficiency_at(max_nodes)) {
        println!(
            "parallel efficiency at {max_nodes} nodes: with CR {:.1}%, without {:.1}%",
            e1 * 100.0,
            e2 * 100.0
        );
    }
}
