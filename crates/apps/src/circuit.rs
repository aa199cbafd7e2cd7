//! Circuit: sparse circuit simulation on an unstructured graph (§5.4),
//! after the Legion paper's canonical example.
//!
//! The circuit is a set of *pieces*; each piece owns nodes and wires.
//! A fraction of wires cross piece boundaries. Each time step:
//!
//! 1. `calc_new_currents` — per wire, update current from the voltage
//!    difference of its endpoints (reads node voltages through the
//!    aliased *ghost node* partition — the image of wire endpoints).
//! 2. `distribute_charge` — per wire, deposit charge on its endpoints
//!    (reduce-add through the ghost partition, §4.3).
//! 3. `update_voltages` — per node, integrate charge into voltage
//!    (read-write on the disjoint node partition).
//!
//! "The input for this problem was a randomly generated sparse graph
//! with 100k edges and 25k vertices per compute node."

use crate::rng::SplitMix64;
use regent_geometry::{Domain, DynPoint};
use regent_ir::{expr::c, Privilege, Program, ProgramBuilder, RegionArg, RegionParam, TaskDecl};
use regent_machine::{CopyEdge, MachineConfig, PhaseSpec, TimestepSpec};
use regent_region::{ops, FieldSpace, FieldType, ReductionOp, RegionId};
use std::sync::Arc;

/// Configuration of a circuit run.
#[derive(Clone, Copy, Debug)]
pub struct CircuitConfig {
    /// Number of pieces (one per launch point).
    pub pieces: usize,
    /// Nodes per piece.
    pub nodes_per_piece: usize,
    /// Wires per piece.
    pub wires_per_piece: usize,
    /// Fraction of wires whose far end is in another piece.
    pub cross_fraction: f64,
    /// Time steps.
    pub steps: u64,
    /// Inner RLC substeps per wire per time step.
    pub substeps: u32,
    /// RNG seed for graph generation.
    pub seed: u64,
}

impl Default for CircuitConfig {
    fn default() -> Self {
        CircuitConfig {
            pieces: 4,
            nodes_per_piece: 64,
            wires_per_piece: 256,
            cross_fraction: 0.1,
            steps: 4,
            substeps: 10,
            seed: 0xC1C1_0001,
        }
    }
}

/// The generated graph: wire endpoints, in piece-major node numbering.
pub struct CircuitGraph {
    /// Per wire: (in node, out node).
    pub endpoints: Vec<(i64, i64)>,
    /// Total nodes.
    pub num_nodes: u64,
    /// Total wires.
    pub num_wires: u64,
}

/// Generates the random sparse graph: wires attach to a random node of
/// their own piece and, with probability `cross_fraction`, to a random
/// node of a *neighbouring* piece (ring topology — matching the O(1)
/// neighbours-per-piece property of scalable codes, §3.3).
pub fn generate_graph(cfg: &CircuitConfig) -> CircuitGraph {
    let mut rng = SplitMix64::new(cfg.seed);
    let npp = cfg.nodes_per_piece as i64;
    let mut endpoints = Vec::with_capacity(cfg.pieces * cfg.wires_per_piece);
    for piece in 0..cfg.pieces as i64 {
        for _ in 0..cfg.wires_per_piece {
            let a = piece * npp + rng.gen_range(npp as u64) as i64;
            let b = if cfg.pieces > 1 && rng.gen_bool(cfg.cross_fraction) {
                let dir = if rng.gen_bool(0.5) { 1 } else { -1 };
                let other = (piece + dir).rem_euclid(cfg.pieces as i64);
                other * npp + rng.gen_range(npp as u64) as i64
            } else {
                piece * npp + rng.gen_range(npp as u64) as i64
            };
            endpoints.push((a, b));
        }
    }
    CircuitGraph {
        endpoints,
        num_nodes: (cfg.pieces * cfg.nodes_per_piece) as u64,
        num_wires: (cfg.pieces * cfg.wires_per_piece) as u64,
    }
}

/// Handles for initialization/verification.
pub struct CircuitHandles {
    /// Node region.
    pub nodes: RegionId,
    /// Wire region.
    pub wires: RegionId,
    /// Node voltage.
    pub f_voltage: regent_region::FieldId,
    /// Node accumulated charge.
    pub f_charge: regent_region::FieldId,
    /// Node capacitance (inverse integrated each step).
    pub f_cap: regent_region::FieldId,
    /// Wire endpoint pointers.
    pub f_in: regent_region::FieldId,
    /// Wire endpoint pointers.
    pub f_out: regent_region::FieldId,
    /// Wire current.
    pub f_current: regent_region::FieldId,
    /// Wire conductance.
    pub f_cond: regent_region::FieldId,
    /// Wire inductance.
    pub f_ind: regent_region::FieldId,
}

/// Builds the implicitly parallel circuit program over a generated
/// graph.
pub fn circuit_program(cfg: CircuitConfig, graph: &CircuitGraph) -> (Program, CircuitHandles) {
    let mut b = ProgramBuilder::new();
    let nfs = FieldSpace::of(&[
        ("voltage", FieldType::F64),
        ("charge", FieldType::F64),
        ("cap", FieldType::F64),
    ]);
    let f_voltage = nfs.lookup("voltage").unwrap();
    let f_charge = nfs.lookup("charge").unwrap();
    let f_cap = nfs.lookup("cap").unwrap();
    let wfs = FieldSpace::of(&[
        ("in", FieldType::I64),
        ("out", FieldType::I64),
        ("current", FieldType::F64),
        ("cond", FieldType::F64),
        ("ind", FieldType::F64),
    ]);
    let f_in = wfs.lookup("in").unwrap();
    let f_out = wfs.lookup("out").unwrap();
    let f_current = wfs.lookup("current").unwrap();
    let f_cond = wfs.lookup("cond").unwrap();
    let f_ind = wfs.lookup("ind").unwrap();

    let nodes = b.forest.create_region(Domain::range(graph.num_nodes), nfs);
    let wires = b.forest.create_region(Domain::range(graph.num_wires), wfs);
    // Application-specific partitioning (§6: "explicit language support
    // for partitioning allows control replication to leverage
    // application-specific partitioning algorithms"): nodes and wires
    // by piece, ghost nodes = image of wire endpoints.
    let pn = ops::block(&mut b.forest, nodes, cfg.pieces);
    let pw = ops::block(&mut b.forest, wires, cfg.pieces);
    let endpoints = graph.endpoints.clone();
    let gn = ops::image(&mut b.forest, nodes, pw, move |w, sink| {
        let (a, bnode) = endpoints[w.coord(0) as usize];
        sink.push(DynPoint::from(a));
        sink.push(DynPoint::from(bnode));
    });

    let substeps = cfg.substeps.max(1);
    let calc_currents = b.task(TaskDecl {
        name: "calc_new_currents".into(),
        params: vec![
            RegionParam::read_write(&[f_current]),
            RegionParam::read(&[f_in, f_out, f_cond, f_ind]),
            RegionParam::read(&[f_voltage]),
        ],
        num_scalar_args: 1, // dt
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dt = ctx.scalars[0];
            let dt_sub = dt / substeps as f64;
            let current = ctx.f64_mut(0, f_current);
            let (ends_in, ends_out) = (ctx.i64(1, f_in), ctx.i64(1, f_out));
            let (cond, ind) = (ctx.f64(1, f_cond), ctx.f64(1, f_ind));
            let voltage = ctx.f64(2, f_voltage);
            for run in ctx.rows(0) {
                let current = current.row(run);
                let (ends_in, ends_out) = (ends_in.row(run), ends_out.row(run));
                let (cond, ind) = (cond.row(run), ind.row(run));
                for w in 0..run.len {
                    let g = cond.get(w);
                    let l = ind.get(w);
                    let va = voltage.get1(ends_in.get(w));
                    let vb = voltage.get1(ends_out.get(w));
                    // Inner RLC solve: L·di/dt = Δv − i/g, integrated
                    // explicitly over the substeps.
                    let dv = va - vb;
                    let mut i_now = current.get(w);
                    for _ in 0..substeps {
                        i_now += dt_sub * (dv - i_now / g) / l;
                    }
                    current.set(w, i_now);
                }
            }
        }),
        cost_per_element: 3.0 + 2.0 * substeps as f64,
    });
    let distribute = b.task(TaskDecl {
        name: "distribute_charge".into(),
        params: vec![
            RegionParam::read(&[f_in, f_out, f_current]),
            RegionParam {
                privilege: Privilege::Reduce(ReductionOp::Add),
                fields: vec![f_charge],
            },
        ],
        num_scalar_args: 1, // dt
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dt = ctx.scalars[0];
            let (ends_in, ends_out) = (ctx.i64(0, f_in), ctx.i64(0, f_out));
            let current = ctx.f64(0, f_current);
            let charge = ctx.f64_reduce(1, f_charge);
            for run in ctx.rows(0) {
                let (ends_in, ends_out) = (ends_in.row(run), ends_out.row(run));
                let current = current.row(run);
                for w in 0..run.len {
                    let i = current.get(w);
                    charge.fold1(ends_in.get(w), -dt * i);
                    charge.fold1(ends_out.get(w), dt * i);
                }
            }
        }),
        cost_per_element: 2.0,
    });
    let update = b.task(TaskDecl {
        name: "update_voltages".into(),
        params: vec![RegionParam::read_write(&[f_voltage, f_charge, f_cap])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let voltage = ctx.f64_mut(0, f_voltage);
            let charge = ctx.f64_mut(0, f_charge);
            let cap = ctx.f64(0, f_cap);
            for run in ctx.rows(0) {
                let (voltage, charge, cap) = (voltage.row(run), charge.row(run), cap.row(run));
                for p in 0..run.len {
                    voltage.set(p, voltage.get(p) + charge.get(p) / cap.get(p));
                    charge.set(p, 0.0);
                }
            }
        }),
        cost_per_element: 2.0,
    });

    let dt = b.scalar("dt", 1e-2);
    let l = b.for_loop(c(cfg.steps as f64));
    b.index_launch_full(
        calc_currents,
        cfg.pieces as u64,
        vec![
            RegionArg::Part(pw),
            RegionArg::Part(pw),
            RegionArg::Part(gn),
        ],
        vec![regent_ir::expr::var(dt)],
        None,
    );
    b.index_launch_full(
        distribute,
        cfg.pieces as u64,
        vec![RegionArg::Part(pw), RegionArg::Part(gn)],
        vec![regent_ir::expr::var(dt)],
        None,
    );
    b.index_launch(update, cfg.pieces as u64, vec![RegionArg::Part(pn)]);
    b.end(l);

    (
        b.build(),
        CircuitHandles {
            nodes,
            wires,
            f_voltage,
            f_charge,
            f_cap,
            f_in,
            f_out,
            f_current,
            f_cond,
            f_ind,
        },
    )
}

/// Initializes circuit state: deterministic pseudo-random voltages and
/// conductances, unit-ish capacitances, graph connectivity.
pub fn init_circuit(
    program: &Program,
    store: &mut regent_ir::Store,
    h: &CircuitHandles,
    graph: &CircuitGraph,
) {
    store.fill_f64(program, h.nodes, h.f_voltage, |p| {
        ((p.coord(0) * 2654435761 % 1000) as f64) / 500.0 - 1.0
    });
    store.fill_f64(program, h.nodes, h.f_charge, |_| 0.0);
    store.fill_f64(program, h.nodes, h.f_cap, |p| {
        1.0 + ((p.coord(0) * 40503 % 100) as f64) / 100.0
    });
    store.fill_i64(program, h.wires, h.f_in, |w| {
        graph.endpoints[w.coord(0) as usize].0
    });
    store.fill_i64(program, h.wires, h.f_out, |w| {
        graph.endpoints[w.coord(0) as usize].1
    });
    store.fill_f64(program, h.wires, h.f_current, |_| 0.0);
    store.fill_f64(program, h.wires, h.f_cond, |w| {
        0.1 + ((w.coord(0) * 48271 % 50) as f64) / 100.0
    });
    store.fill_f64(program, h.wires, h.f_ind, |w| {
        0.2 + ((w.coord(0) * 69621 % 30) as f64) / 100.0
    });
}

/// Builds the machine-simulation spec for Fig. 9: 100k wires + 25k
/// nodes per node of the machine, ring-neighbour ghost exchanges.
///
/// Per-phase volumes follow the graph structure: the ghost update and
/// charge reductions move `cross_fraction × wires_per_piece` endpoint
/// values to each ring neighbour.
pub fn circuit_spec(nodes: usize, machine: &MachineConfig) -> TimestepSpec {
    let wires_per_node: u64 = 100_000;
    let nodes_per_node: u64 = 25_000;
    // Calibration for Fig. 9's ~80 k graph-nodes/s/node flat CR line
    // (~0.31 s per step per node): wire kernels do an inner RLC solve,
    // ~6 µs per wire-op per core.
    let per_wire = 6.1e-6;
    let tasks = machine.regent_compute_cores();
    let wire_work = wires_per_node as f64 * 3.0 * per_wire / tasks as f64;
    let node_work = nodes_per_node as f64 * 2.0 * per_wire / tasks as f64;
    let cross = 0.10;
    // Each piece exchanges ghost voltages / charge contributions with
    // its two ring neighbours.
    let ghost_bytes = wires_per_node as f64 * cross / 2.0 * 8.0;
    let ring = |copies: &mut Vec<CopyEdge>, bytes: f64| {
        for i in 0..nodes as u32 {
            let l = (i + nodes as u32 - 1) % nodes as u32;
            let r = (i + 1) % nodes as u32;
            if l != i {
                copies.push(CopyEdge {
                    src: i,
                    dst: l,
                    bytes,
                });
            }
            if r != i && r != l {
                copies.push(CopyEdge {
                    src: i,
                    dst: r,
                    bytes,
                });
            }
        }
    };
    let mut ghost_v = Vec::new();
    ring(&mut ghost_v, ghost_bytes);
    let mut charge = Vec::new();
    ring(&mut charge, ghost_bytes);
    TimestepSpec {
        num_nodes: nodes,
        elements_per_node: nodes_per_node,
        phases: vec![
            PhaseSpec {
                name: "calc_new_currents".into(),
                tasks_per_node: tasks,
                task_compute_s: wire_work,
                copies: charge, // charge reductions flow after this phase
                collective: false,
                consumes_collective: false,
            },
            PhaseSpec {
                name: "distribute_charge".into(),
                tasks_per_node: tasks,
                task_compute_s: wire_work * 0.7,
                copies: ghost_v, // ghost voltages refresh after update
                collective: false,
                consumes_collective: false,
            },
            PhaseSpec {
                name: "update_voltages".into(),
                tasks_per_node: tasks,
                task_compute_s: node_work,
                copies: vec![],
                collective: false,
                consumes_collective: false,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_ir::{interp, Store};

    #[test]
    fn graph_generation_properties() {
        let cfg = CircuitConfig::default();
        let g = generate_graph(&cfg);
        assert_eq!(g.num_wires as usize, cfg.pieces * cfg.wires_per_piece);
        let npp = cfg.nodes_per_piece as i64;
        let mut crossing = 0usize;
        for (i, &(a, b)) in g.endpoints.iter().enumerate() {
            let piece = (i / cfg.wires_per_piece) as i64;
            assert_eq!(a / npp, piece, "in-endpoint stays in piece");
            assert!(b >= 0 && (b as u64) < g.num_nodes);
            if b / npp != piece {
                crossing += 1;
                // Ring topology: neighbours only.
                let d = (b / npp - piece).rem_euclid(cfg.pieces as i64);
                assert!(d == 1 || d == cfg.pieces as i64 - 1);
            }
        }
        let frac = crossing as f64 / g.endpoints.len() as f64;
        assert!(frac > 0.03 && frac < 0.2, "crossing fraction {frac}");
        // Deterministic.
        let g2 = generate_graph(&cfg);
        assert_eq!(g.endpoints, g2.endpoints);
    }

    #[test]
    fn charge_is_conserved() {
        // Sum of voltages*cap (total charge) is invariant under the
        // update because every wire deposits +q and −q.
        let cfg = CircuitConfig::default();
        let g = generate_graph(&cfg);
        let (prog, h) = circuit_program(cfg, &g);
        regent_ir::validate(&prog).unwrap();
        let mut store = Store::new(&prog);
        init_circuit(&prog, &mut store, &h, &g);
        let total_before: f64 = {
            let inst = store.instance(&prog, h.nodes);
            prog.forest
                .domain(h.nodes)
                .iter()
                .map(|p| inst.read_f64(h.f_voltage, p) * inst.read_f64(h.f_cap, p))
                .sum()
        };
        interp::run(&prog, &mut store);
        let total_after: f64 = {
            let inst = store.instance(&prog, h.nodes);
            prog.forest
                .domain(h.nodes)
                .iter()
                .map(|p| inst.read_f64(h.f_voltage, p) * inst.read_f64(h.f_cap, p))
                .sum()
        };
        assert!(
            (total_before - total_after).abs() < 1e-9 * total_before.abs().max(1.0),
            "charge drifted: {total_before} -> {total_after}"
        );
    }

    #[test]
    fn currents_settle_toward_equilibrium() {
        // With enough steps the voltage spread shrinks.
        let cfg = CircuitConfig {
            steps: 50,
            ..Default::default()
        };
        let g = generate_graph(&cfg);
        let (prog, h) = circuit_program(cfg, &g);
        let mut store = Store::new(&prog);
        init_circuit(&prog, &mut store, &h, &g);
        let spread = |store: &Store, prog: &Program| {
            let inst = store.instance(prog, h.nodes);
            let vs: Vec<f64> = prog
                .forest
                .domain(h.nodes)
                .iter()
                .map(|p| inst.read_f64(h.f_voltage, p))
                .collect();
            let mx = vs.iter().cloned().fold(f64::MIN, f64::max);
            let mn = vs.iter().cloned().fold(f64::MAX, f64::min);
            mx - mn
        };
        let before = spread(&store, &prog);
        interp::run(&prog, &mut store);
        let after = spread(&store, &prog);
        assert!(after < before, "spread {before} -> {after}");
    }

    #[test]
    fn spec_ring_edges() {
        let m = MachineConfig::piz_daint(8);
        let spec = circuit_spec(8, &m);
        // Two ring exchanges of 2 edges per node each.
        assert_eq!(spec.phases[0].copies.len(), 16);
        assert_eq!(spec.phases[1].copies.len(), 16);
    }
}
