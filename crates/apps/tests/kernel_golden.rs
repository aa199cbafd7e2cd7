//! Golden digests of the four applications' kernels.
//!
//! The differential suite compares executors against each other, and
//! every executor runs the *same* kernels — so a slip while rewriting a
//! kernel (an operand swapped, a fold reassociated) moves all of them
//! together and nothing notices. These digests were recorded from
//! `interp::run` at the commit *before* the kernels were ported to
//! field views (PR 14's parent, 9ec2306): the `Instance::checksum()` of
//! every root region, in region-id order, and the bits of the final
//! scalar environment, for one fixed configuration of each app. The
//! kernels must reproduce them bit for bit, in debug and release builds.
//!
//! After a deliberate change to a kernel's arithmetic, re-record from
//! the failing assertion's `left:` line (it prints the digests in hex).

use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_ir::{interp, Program, Store};

/// What a finished run leaves behind: root-region checksums in
/// region-id order, then the scalar environment's bits.
#[derive(PartialEq)]
struct Golden {
    regions: Vec<u64>,
    env: Vec<u64>,
}

impl std::fmt::Debug for Golden {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regions {:#x?} env {:#x?}", self.regions, self.env)
    }
}

fn run(program: &Program, store: &mut Store) -> Golden {
    regent_ir::validate(program).unwrap();
    let (env, _) = interp::run(program, store);
    Golden {
        regions: program
            .root_regions()
            .into_iter()
            .map(|r| store.instance(program, r).checksum())
            .collect(),
        env: env.iter().map(|v| v.to_bits()).collect(),
    }
}

#[test]
fn stencil_kernels() {
    // Uneven tiles (37 = 13 + 12 + 12 by 19 + 18), so halos clip at the
    // grid edge and tiles straddle the skipped boundary ring.
    let cfg = stencil::StencilConfig {
        n: 37,
        ntx: 3,
        nty: 2,
        radius: 2,
        steps: 3,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    assert_eq!(
        run(&prog, &mut store),
        Golden {
            regions: vec![STENCIL_GRID],
            env: vec![],
        }
    );
}

#[test]
fn circuit_kernels() {
    let cfg = circuit::CircuitConfig {
        pieces: 5,
        nodes_per_piece: 48,
        wires_per_piece: 160,
        cross_fraction: 0.15,
        steps: 3,
        substeps: 3,
        seed: 0xC1C1_0014,
    };
    let graph = circuit::generate_graph(&cfg);
    let (prog, h) = circuit::circuit_program(cfg, &graph);
    let mut store = Store::new(&prog);
    circuit::init_circuit(&prog, &mut store, &h, &graph);
    assert_eq!(
        run(&prog, &mut store),
        Golden {
            regions: CIRCUIT_REGIONS.to_vec(),
            env: CIRCUIT_ENV.to_vec(),
        }
    );
}

#[test]
fn pennant_kernels() {
    let cfg = pennant::PennantConfig {
        nzx: 10,
        nzy: 7,
        pieces: 3,
        tstop: 5e-2,
        dtmax: 2e-2,
    };
    let mesh = pennant::build_mesh(&cfg);
    let (prog, h) = pennant::pennant_program(cfg, &mesh);
    let mut store = Store::new(&prog);
    pennant::init_pennant(&prog, &mut store, &h, &cfg, &mesh);
    assert_eq!(
        run(&prog, &mut store),
        Golden {
            regions: PENNANT_REGIONS.to_vec(),
            env: PENNANT_ENV.to_vec(),
        }
    );
}

#[test]
fn miniaero_kernels() {
    let cfg = miniaero::MiniAeroConfig {
        nx: 9,
        ny: 3,
        nz: 4,
        pieces: 3,
        steps: 2,
        dt: 1e-3,
    };
    let mesh = miniaero::build_mesh(&cfg);
    let (prog, h) = miniaero::miniaero_program(cfg, &mesh);
    let mut store = Store::new(&prog);
    miniaero::init_miniaero(&prog, &mut store, &h, &cfg, &mesh);
    assert_eq!(
        run(&prog, &mut store),
        Golden {
            regions: MINIAERO_REGIONS.to_vec(),
            env: vec![],
        }
    );
}

const STENCIL_GRID: u64 = 0x8f6b_f610_f48a_6ec3;
/// Nodes, wires.
const CIRCUIT_REGIONS: [u64; 2] = [0xbe45_8b09_e30c_7a83, 0xd605_9259_6d53_057b];
/// `dt` (never assigned: 1e-2).
const CIRCUIT_ENV: [u64; 1] = [0x3f84_7ae1_47ae_147b];
/// Zones, points.
const PENNANT_REGIONS: [u64; 2] = [0xc651_76d5_217b_d1d5, 0x0078_035a_499b_02c1];
/// `t`, `dt` after the `While` loop ended.
const PENNANT_ENV: [u64; 2] = [0x3faa_5b3e_c689_4ba5, 0x3f8b_7ef7_307b_e7a5];
/// Cells, faces.
const MINIAERO_REGIONS: [u64; 2] = [0xfccd_d6fe_a1ad_d556, 0xa2a7_980e_5f6a_2094];
