//! Circuit demo (§5.4 / Fig. 9 workload): a sparse circuit on a random
//! unstructured graph, run through control replication with reduction
//! privileges (§4.3) doing the cross-piece charge scatter.
//!
//! Prints the voltage relaxation over time and the exchange statistics.
//!
//! ```text
//! cargo run --release --example circuit_demo [pieces]
//! ```

use control_replication::apps::circuit::{
    circuit_program, generate_graph, init_circuit, CircuitConfig,
};
use control_replication::cr::{control_replicate, CrOptions};
use control_replication::ir::{interp, Store};
use control_replication::runtime::{run, Compiled, RunOptions};

fn main() {
    let pieces: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("pieces"))
        .unwrap_or(8);
    let cfg = CircuitConfig {
        pieces,
        nodes_per_piece: 512,
        wires_per_piece: 2048,
        cross_fraction: 0.1,
        steps: 5,
        substeps: 10,
        seed: 2017,
    };
    println!(
        "circuit: {} pieces × ({} nodes + {} wires), {:.0}% crossing wires",
        cfg.pieces,
        cfg.nodes_per_piece,
        cfg.wires_per_piece,
        cfg.cross_fraction * 100.0
    );

    let graph = generate_graph(&cfg);

    // Watch the voltage spread relax over several rounds of 5 steps.
    let spread = |store: &Store,
                  forest: &control_replication::region::RegionForest,
                  h: &control_replication::apps::circuit::CircuitHandles| {
        let inst = store.instance_in(forest, h.nodes);
        let mut mx = f64::MIN;
        let mut mn = f64::MAX;
        for p in forest.domain(h.nodes).iter() {
            let v = inst.read_f64(h.f_voltage, p);
            mx = mx.max(v);
            mn = mn.min(v);
        }
        mx - mn
    };

    // Sequential reference for one round.
    let (prog, h) = circuit_program(cfg, &graph);
    let mut seq = Store::new(&prog);
    init_circuit(&prog, &mut seq, &h, &graph);
    interp::run(&prog, &mut seq);
    let seq_spread = spread(&seq, &prog.forest, &h);

    // Control-replicated rounds.
    let (prog_c, h_c) = circuit_program(cfg, &graph);
    let mut store = Store::new(&prog_c);
    init_circuit(&prog_c, &mut store, &h_c, &graph);
    println!(
        "voltage spread before: {:.4}",
        spread(&store, &prog_c.forest, &h_c)
    );
    let spmd = control_replicate(prog_c, &CrOptions::new(4)).expect("CR");
    for round in 1..=4 {
        let r = run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default());
        println!(
            "round {round}: spread {:.4}  ({} msgs, {} elements exchanged)",
            spread(&store, &spmd.forest, &h_c),
            r.stats.messages_sent,
            r.stats.elements_sent
        );
    }
    let one_round = {
        // Re-run one round from scratch to compare against sequential.
        let (prog2, h2) = circuit_program(cfg, &graph);
        let mut s2 = Store::new(&prog2);
        init_circuit(&prog2, &mut s2, &h2, &graph);
        let spmd2 = control_replicate(prog2, &CrOptions::new(4)).unwrap();
        run(Compiled::Spmd(&spmd2), &mut s2, &RunOptions::default());
        spread(&s2, &spmd2.forest, &h2)
    };
    assert!(
        (one_round - seq_spread).abs() < 1e-9 * seq_spread.max(1.0),
        "CR round diverged from sequential: {one_round} vs {seq_spread}"
    );
    println!("first round matches sequential execution ✓");
}
