//! Stencil: the PRK 2-D star-shaped stencil benchmark (§5.1).
//!
//! "The code performs a stencil of configurable shape and radius over a
//! regular grid. Our experiments used a radius-2 star-shaped stencil on
//! a grid of double-precision floating point values with 40k² grid
//! points per node."
//!
//! The implicitly parallel program is the PRK iteration: each time step
//! applies `out += star(in)` (reading a cross-shaped halo around each
//! tile) and then `in += 1.0`. Tiles are a 2-D block partition; the
//! halo partition is the star-image of each tile, which aliases
//! neighbouring tiles — exactly the multiple-partition structure
//! control replication leverages.

use regent_geometry::{Domain, DynPoint, DynRect};
use regent_ir::{expr::c, Program, ProgramBuilder, RegionArg, RegionParam, TaskDecl};
use regent_machine::{CopyEdge, MachineConfig, PhaseSpec, TimestepSpec};
use regent_region::{ops, Color, Disjointness, FieldSpace, FieldType, RegionId};
use std::sync::Arc;

/// Configuration of a Stencil run.
#[derive(Clone, Copy, Debug)]
pub struct StencilConfig {
    /// Grid side length (the grid is `n × n`).
    pub n: u64,
    /// Tiles along x.
    pub ntx: usize,
    /// Tiles along y.
    pub nty: usize,
    /// Stencil radius (PRK default 2).
    pub radius: i64,
    /// Time steps.
    pub steps: u64,
}

impl Default for StencilConfig {
    fn default() -> Self {
        StencilConfig {
            n: 64,
            ntx: 2,
            nty: 2,
            radius: 2,
            steps: 4,
        }
    }
}

/// Handles to the program's regions/fields for initialization and
/// verification.
pub struct StencilHandles {
    /// The grid region.
    pub grid: RegionId,
    /// Input field.
    pub f_in: regent_region::FieldId,
    /// Output field.
    pub f_out: regent_region::FieldId,
}

/// The PRK star-stencil weights for radius `r`: `w(±k) = 1/(2kr)` on
/// each arm.
pub(crate) fn star_weight(r: i64, k: i64) -> f64 {
    1.0 / (2.0 * k as f64 * r as f64)
}

/// Builds the implicitly parallel Stencil program.
pub fn stencil_program(cfg: StencilConfig) -> (Program, StencilHandles) {
    assert!(cfg.radius >= 1);
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("in", FieldType::F64), ("out", FieldType::F64)]);
    let f_in = fs.lookup("in").unwrap();
    let f_out = fs.lookup("out").unwrap();
    let grid_rect = DynRect::new(
        DynPoint::new(&[0, 0]),
        DynPoint::new(&[cfg.n as i64 - 1, cfg.n as i64 - 1]),
    );
    let grid = b.forest.create_region(Domain::from_rect(grid_rect), fs);
    let tiles = ops::block2d(&mut b.forest, grid, cfg.ntx, cfg.nty);
    let colors: Vec<Color> = b.forest.partition(tiles).iter().map(|(c, _)| c).collect();

    // Halo partition: for each tile, the cross-shaped star image —
    // the tile extended by `radius` along x and along y (no corners),
    // clipped to the grid. Built directly as rectangle unions (the
    // image of the star stencil over a rectangle), classified aliased.
    let halo_subdomains: Vec<(Color, Domain)> = colors
        .iter()
        .map(|&col| {
            let tile = b.forest.domain(b.forest.subregion(tiles, col)).bounds();
            let row_band = DynRect::new(
                DynPoint::new(&[tile.lo().coord(0) - cfg.radius, tile.lo().coord(1)]),
                DynPoint::new(&[tile.hi().coord(0) + cfg.radius, tile.hi().coord(1)]),
            );
            let col_band = DynRect::new(
                DynPoint::new(&[tile.lo().coord(0), tile.lo().coord(1) - cfg.radius]),
                DynPoint::new(&[tile.hi().coord(0), tile.hi().coord(1) + cfg.radius]),
            );
            let dom = Domain::from_rects([
                row_band.intersection(&grid_rect),
                col_band.intersection(&grid_rect),
            ]);
            (col, dom)
        })
        .collect();
    let halo = b
        .forest
        .create_partition(grid, Disjointness::Aliased, halo_subdomains);

    let radius = cfg.radius;
    let n = cfg.n as i64;
    let weights: Vec<f64> = (1..=radius).map(|k| star_weight(radius, k)).collect();
    let stencil_task = b.task(TaskDecl {
        name: "stencil".into(),
        params: vec![
            RegionParam::read_write(&[f_out]),
            RegionParam::read(&[f_in]),
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let out = ctx.f64_mut(0, f_out);
            let vin = ctx.f64(1, f_in);
            let r = radius as usize;
            // The row's star sums, built arm by arm: no view can alias
            // it, so each pass below is a plain vector loop.
            let mut acc: Vec<f64> = Vec::new();
            for run in ctx.rows(0) {
                let (i, j0) = (run.start.coord(0), run.start.coord(1));
                // PRK skips the boundary ring of width `radius`.
                let (lo, hi) = (j0.max(radius), (j0 + run.len as i64).min(n - radius));
                if i < radius || i >= n - radius || lo >= hi {
                    continue;
                }
                let len = (hi - lo) as usize;
                let out = out.row2(i, lo, len);
                // Row `i` itself, widened by the radius on both sides:
                // its `±k` windows are the right and left arms.
                let mid = vin.row2(i, lo - radius, len + 2 * r);
                acc.clear();
                acc.resize(len, 0.0);
                // Each element adds its terms in the reference order.
                for (k, &w) in (1..=radius).zip(&weights) {
                    let below = vin.row2(i + k, lo, len);
                    let above = vin.row2(i - k, lo, len);
                    let ku = k as usize;
                    let right = mid.sub(r + ku, len);
                    let left = mid.sub(r - ku, len);
                    for (e, a) in acc.iter_mut().enumerate() {
                        *a += w * below.get(e);
                        *a -= w * above.get(e);
                        *a += w * right.get(e);
                        *a -= w * left.get(e);
                    }
                }
                for (e, &a) in acc.iter().enumerate() {
                    out.set(e, out.get(e) + a);
                }
            }
        }),
    });
    let add_task = b.task(TaskDecl {
        name: "increment_in".into(),
        params: vec![RegionParam::read_write(&[f_in])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let vin = ctx.f64_mut(0, f_in);
            for run in ctx.rows(0) {
                let vin = vin.row(run);
                for e in 0..run.len {
                    vin.set(e, vin.get(e) + 1.0);
                }
            }
        }),
    });

    let l = b.for_loop(c(cfg.steps as f64));
    b.index_launch_colors(
        stencil_task,
        colors.clone(),
        vec![RegionArg::Part(tiles), RegionArg::Part(halo)],
    );
    b.index_launch_colors(add_task, colors, vec![RegionArg::Part(tiles)]);
    b.end(l);

    (b.build(), StencilHandles { grid, f_in, f_out })
}

/// The PRK initial condition: `in(i,j) = i + j`, `out = 0`.
pub fn init_stencil(program: &Program, store: &mut regent_ir::Store, h: &StencilHandles) {
    store.fill_f64(program, h.grid, h.f_in, |p| {
        (p.coord(0) + p.coord(1)) as f64
    });
    store.fill_f64(program, h.grid, h.f_out, |_| 0.0);
}

/// Direct reference computation of the expected `out` value after
/// `steps` iterations (closed form: each step adds `star(in_t)` where
/// `in_t = in_0 + t`; the star of a constant is 0 and the star of
/// `i + j` is 0 too… except near boundaries, so we compute honestly).
pub fn reference_stencil(cfg: StencilConfig) -> Vec<Vec<(f64, f64)>> {
    let n = cfg.n as usize;
    let r = cfg.radius;
    let mut fin: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| (i + j) as f64).collect())
        .collect();
    let mut fout = vec![vec![0.0f64; n]; n];
    for _ in 0..cfg.steps {
        for i in 0..n {
            for j in 0..n {
                let (ii, jj) = (i as i64, j as i64);
                if ii < r || ii >= n as i64 - r || jj < r || jj >= n as i64 - r {
                    continue;
                }
                let mut acc = 0.0;
                for k in 1..=r {
                    let w = star_weight(r, k);
                    acc += w * fin[(ii + k) as usize][j];
                    acc -= w * fin[(ii - k) as usize][j];
                    acc += w * fin[i][(jj + k) as usize];
                    acc -= w * fin[i][(jj - k) as usize];
                }
                fout[i][j] += acc;
            }
        }
        for row in fin.iter_mut() {
            for v in row.iter_mut() {
                *v += 1.0;
            }
        }
    }
    (0..n)
        .map(|i| (0..n).map(|j| (fin[i][j], fout[i][j])).collect())
        .collect()
}

/// Builds the machine-simulation time-step spec for `nodes` nodes
/// (Fig. 6 workload: 40k² points per node, radius-2 star).
///
/// Nodes form a near-square grid; each exchanges `radius × side`
/// element rows/columns with its 4 neighbours. Per-node compute is
/// tiled one task per Regent compute core. The per-element compute
/// rate is calibrated so a single node matches the paper's ~1.4×10⁹
/// points/s (Fig. 6's flat CR line).
pub fn stencil_spec(nodes: usize, machine: &MachineConfig) -> TimestepSpec {
    let points_per_node: u64 = 40_000 * 40_000;
    let side = 40_000.0_f64; // per-node tile side
                             // Near-square node grid.
    let (nx, ny) = near_square(nodes);
    // Calibration: a node sustains ~1.45e9 pts/s on the 9-point
    // radius-2 star (memory-bandwidth bound) → ~6.2e-9 s per point per
    // compute core including memory traffic.
    let per_point = 6.2e-9;
    let tasks = machine.regent_compute_cores();
    let task_compute = points_per_node as f64 * per_point / machine.cores_per_node as f64
        * (machine.cores_per_node as f64 / tasks as f64);
    let halo_bytes = 2.0 * side * 8.0; // radius 2 × side × f64
    let mut copies = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            let me = (i * ny + j) as u32;
            let mut push = |di: i64, dj: i64| {
                let (ni, nj) = (i as i64 + di, j as i64 + dj);
                if ni >= 0 && ni < nx as i64 && nj >= 0 && nj < ny as i64 {
                    copies.push(CopyEdge {
                        src: me,
                        dst: (ni as usize * ny + nj as usize) as u32,
                        bytes: halo_bytes,
                    });
                }
            };
            push(-1, 0);
            push(1, 0);
            push(0, -1);
            push(0, 1);
        }
    }
    TimestepSpec {
        num_nodes: nodes,
        elements_per_node: points_per_node,
        phases: vec![
            PhaseSpec {
                name: "stencil".into(),
                tasks_per_node: tasks,
                task_compute_s: task_compute,
                copies: vec![],
                collective: false,
                consumes_collective: false,
            },
            PhaseSpec {
                name: "increment".into(),
                tasks_per_node: tasks,
                // `in += 1` is ~1/9 the stencil work.
                task_compute_s: task_compute / 9.0,
                copies,
                collective: false,
                consumes_collective: false,
            },
        ],
    }
}

/// Factors `n` into the most-square `(a, b)` with `a * b = n`.
pub fn near_square(n: usize) -> (usize, usize) {
    let mut a = (n as f64).sqrt() as usize;
    while a > 1 && !n.is_multiple_of(a) {
        a -= 1;
    }
    (a.max(1), n / a.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_ir::{interp, Store};

    /// Runs `cfg` on the interpreter and compares `in` and `out` with
    /// [`reference_stencil`] bit for bit: the kernel adds each
    /// element's terms in the reference's order.
    fn assert_matches_reference(cfg: StencilConfig) {
        let (prog, h) = stencil_program(cfg);
        regent_ir::validate(&prog).unwrap();
        let mut store = Store::new(&prog);
        init_stencil(&prog, &mut store, &h);
        interp::run(&prog, &mut store);
        let reference = reference_stencil(cfg);
        let inst = store.instance(&prog, h.grid);
        for i in 0..cfg.n as i64 {
            for j in 0..cfg.n as i64 {
                let p = DynPoint::new(&[i, j]);
                let (rin, rout) = reference[i as usize][j as usize];
                assert_eq!(inst.read_f64(h.f_in, p), rin, "in at ({i},{j}) of {cfg:?}");
                assert_eq!(
                    inst.read_f64(h.f_out, p).to_bits(),
                    rout.to_bits(),
                    "out at ({i},{j}) of {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn matches_reference() {
        let shape = |n, ntx, nty, radius, steps| StencilConfig {
            n,
            ntx,
            nty,
            radius,
            steps,
        };
        // Small uneven grids, then the benchmark's bulk and fine shapes.
        for cfg in [
            shape(24, 3, 2, 2, 3),
            shape(40, 3, 5, 3, 2),
            shape(128, 2, 1, 2, 4),
            shape(128, 8, 8, 2, 4),
        ] {
            assert_matches_reference(cfg);
        }
    }

    #[test]
    fn radius_one_and_uneven_tiles() {
        assert_matches_reference(StencilConfig {
            n: 17,
            ntx: 3,
            nty: 4,
            radius: 1,
            steps: 2,
        });
    }

    #[test]
    fn near_square_factors() {
        assert_eq!(near_square(1), (1, 1));
        assert_eq!(near_square(4), (2, 2));
        assert_eq!(near_square(8), (2, 4));
        assert_eq!(near_square(1024), (32, 32));
        assert_eq!(near_square(7), (1, 7));
    }

    #[test]
    fn spec_shape() {
        let m = MachineConfig::piz_daint(4);
        let spec = stencil_spec(4, &m);
        assert_eq!(spec.num_nodes, 4);
        // 2x2 grid: each node has 2 neighbors → 8 edges.
        assert_eq!(spec.phases[1].copies.len(), 8);
        assert_eq!(spec.phases.len(), 2);
    }

    #[test]
    fn star_weights() {
        assert_eq!(star_weight(2, 1), 0.25);
        assert_eq!(star_weight(2, 2), 0.125);
        assert_eq!(star_weight(1, 1), 0.5);
    }
}

#[cfg(test)]
mod spec_invariant_tests {
    use super::*;
    use crate::circuit;
    use crate::miniaero;
    use crate::pennant;
    use regent_machine::MachineConfig;

    /// Every app's spec must satisfy the invariants the simulator
    /// assumes: positive task counts and compute times, copy endpoints
    /// in range, and per-node elements matching the paper's workload.
    #[test]
    fn all_specs_are_well_formed() {
        for nodes in [1usize, 2, 7, 64] {
            let m = MachineConfig::piz_daint(nodes);
            let specs = [
                ("stencil", stencil_spec(nodes, &m)),
                ("miniaero", miniaero::miniaero_spec(nodes, &m)),
                ("pennant", pennant::pennant_spec(nodes, &m)),
                ("circuit", circuit::circuit_spec(nodes, &m)),
            ];
            for (name, spec) in specs {
                assert_eq!(spec.num_nodes, nodes, "{name}");
                assert!(spec.elements_per_node > 0, "{name}");
                assert!(!spec.phases.is_empty(), "{name}");
                for ph in &spec.phases {
                    assert!(ph.tasks_per_node > 0, "{name}/{}", ph.name);
                    assert!(ph.task_compute_s > 0.0, "{name}/{}", ph.name);
                    for e in &ph.copies {
                        assert!((e.src as usize) < nodes, "{name}/{}", ph.name);
                        assert!((e.dst as usize) < nodes, "{name}/{}", ph.name);
                        assert!(e.src != e.dst, "{name}/{}: self copy", ph.name);
                        assert!(e.bytes > 0.0, "{name}/{}", ph.name);
                    }
                }
            }
        }
    }

    #[test]
    fn paper_workload_sizes() {
        let m = MachineConfig::piz_daint(4);
        assert_eq!(stencil_spec(4, &m).elements_per_node, 40_000 * 40_000);
        assert_eq!(miniaero::miniaero_spec(4, &m).elements_per_node, 512 * 1024);
        assert_eq!(pennant::pennant_spec(4, &m).elements_per_node, 7_400_000);
        assert_eq!(circuit::circuit_spec(4, &m).elements_per_node, 25_000);
    }
}
