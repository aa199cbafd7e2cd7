//! MiniAero: an explicit solver for the compressible Navier–Stokes
//! equations on a 3-D unstructured mesh (§5.2), after the Mantevo
//! mini-app.
//!
//! The mesh is a hex grid treated as unstructured: cells carry the five
//! conserved variables (ρ, ρu, ρv, ρw, E) plus residuals; faces carry
//! connectivity (left/right cell pointers) and geometry. A time step
//! is a four-stage Jameson-style Runge–Kutta integration (the
//! mini-app's scheme):
//!
//! 1. `save_state` — per cell, snapshot `u₀ = u`.
//! 2. per stage k = 1..4: `compute_face_flux` — per face, a
//!    Rusanov-type numerical flux from the two adjacent cell states
//!    (read through the aliased *ghost cell* partition), reduce-added
//!    into both cells' residuals — then `apply_stage` — per cell,
//!    `u = u₀ + (dt / (5 − k)) · R(u)`, clearing the residual.
//!
//! The task/region/communication structure (face loop gathering from
//! and scattering to cells across partition boundaries, one halo
//! refresh per stage) is exactly the mini-app's; the flux physics is a
//! reduced first-order variant (substitution documented in DESIGN.md).

use regent_geometry::{Domain, DynPoint};
use regent_ir::{expr::c, Privilege, Program, ProgramBuilder, RegionArg, RegionParam, TaskDecl};
use regent_machine::{CopyEdge, MachineConfig, PhaseSpec, TimestepSpec};
use regent_region::{ops, FieldSpace, FieldType, ReductionOp, RegionId};
use std::sync::Arc;

/// Gas constant γ for the ideal-gas EOS.
pub(crate) const GAMMA: f64 = 1.4;

/// Configuration of a MiniAero run.
#[derive(Clone, Copy, Debug)]
pub struct MiniAeroConfig {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z.
    pub nz: usize,
    /// Mesh pieces (blocks along x).
    pub pieces: usize,
    /// Time steps (RK stages).
    pub steps: u64,
    /// Time-step size.
    pub dt: f64,
}

impl Default for MiniAeroConfig {
    fn default() -> Self {
        MiniAeroConfig {
            nx: 16,
            ny: 4,
            nz: 4,
            pieces: 4,
            steps: 3,
            dt: 1e-3,
        }
    }
}

/// The unstructured view of the hex mesh: interior faces with left and
/// right cell ids.
pub struct AeroMesh {
    /// Per face: (left cell, right cell).
    pub faces: Vec<(i64, i64)>,
    /// Total cells.
    pub num_cells: u64,
}

/// Enumerates the interior faces of the `nx × ny × nz` hex mesh.
/// Cells are numbered x-major so a block partition of cell ids is a
/// slab decomposition along x (faces between slabs are the halo).
pub fn build_mesh(cfg: &MiniAeroConfig) -> AeroMesh {
    let (nx, ny, nz) = (cfg.nx as i64, cfg.ny as i64, cfg.nz as i64);
    let cell = |x: i64, y: i64, z: i64| x * ny * nz + y * nz + z;
    let mut faces = Vec::new();
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                if x + 1 < nx {
                    faces.push((cell(x, y, z), cell(x + 1, y, z)));
                }
                if y + 1 < ny {
                    faces.push((cell(x, y, z), cell(x, y + 1, z)));
                }
                if z + 1 < nz {
                    faces.push((cell(x, y, z), cell(x, y, z + 1)));
                }
            }
        }
    }
    AeroMesh {
        faces,
        num_cells: (nx * ny * nz) as u64,
    }
}

/// The five conserved fields plus residuals, and the face fields.
pub struct AeroHandles {
    /// Cell region.
    pub cells: RegionId,
    /// Face region.
    pub faces: RegionId,
    /// Conserved state fields (ρ, ρu, ρv, ρw, E).
    pub state: [regent_region::FieldId; 5],
    /// Residual fields.
    pub resid: [regent_region::FieldId; 5],
    /// Face left/right cell pointers.
    pub f_left: regent_region::FieldId,
    /// Right pointer.
    pub f_right: regent_region::FieldId,
}

/// Pressure from conserved state (ideal gas).
fn pressure(u: [f64; 5]) -> f64 {
    let ke = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0].max(1e-300);
    (GAMMA - 1.0) * (u[4] - ke)
}

/// Rusanov flux through a unit face with normal along `axis`
/// (0 = x, 1 = y, 2 = z) between states `l` and `r`.
pub(crate) fn rusanov_flux(l: [f64; 5], r: [f64; 5], axis: usize) -> [f64; 5] {
    let f = |u: [f64; 5]| -> [f64; 5] {
        let rho = u[0].max(1e-300);
        let vel = [u[1] / rho, u[2] / rho, u[3] / rho];
        let p = pressure(u);
        let vn = vel[axis];
        let mut flux = [u[0] * vn, u[1] * vn, u[2] * vn, u[3] * vn, (u[4] + p) * vn];
        flux[1 + axis] += p;
        flux
    };
    let wave = |u: [f64; 5]| -> f64 {
        let rho = u[0].max(1e-300);
        let a = (GAMMA * pressure(u).max(0.0) / rho).sqrt();
        (u[1 + axis] / rho).abs() + a
    };
    let fl = f(l);
    let fr = f(r);
    let s = wave(l).max(wave(r));
    let mut out = [0.0; 5];
    for k in 0..5 {
        out[k] = 0.5 * (fl[k] + fr[k]) - 0.5 * s * (r[k] - l[k]);
    }
    out
}

/// Builds the implicitly parallel MiniAero program.
pub fn miniaero_program(cfg: MiniAeroConfig, mesh: &AeroMesh) -> (Program, AeroHandles) {
    let mut b = ProgramBuilder::new();
    let cfs = FieldSpace::of(&[
        ("rho", FieldType::F64),
        ("mx", FieldType::F64),
        ("my", FieldType::F64),
        ("mz", FieldType::F64),
        ("e", FieldType::F64),
        ("r0", FieldType::F64),
        ("r1", FieldType::F64),
        ("r2", FieldType::F64),
        ("r3", FieldType::F64),
        ("r4", FieldType::F64),
        ("u0_0", FieldType::F64),
        ("u0_1", FieldType::F64),
        ("u0_2", FieldType::F64),
        ("u0_3", FieldType::F64),
        ("u0_4", FieldType::F64),
    ]);
    let state = [
        cfs.lookup("rho").unwrap(),
        cfs.lookup("mx").unwrap(),
        cfs.lookup("my").unwrap(),
        cfs.lookup("mz").unwrap(),
        cfs.lookup("e").unwrap(),
    ];
    let resid = [
        cfs.lookup("r0").unwrap(),
        cfs.lookup("r1").unwrap(),
        cfs.lookup("r2").unwrap(),
        cfs.lookup("r3").unwrap(),
        cfs.lookup("r4").unwrap(),
    ];
    let saved = [
        cfs.lookup("u0_0").unwrap(),
        cfs.lookup("u0_1").unwrap(),
        cfs.lookup("u0_2").unwrap(),
        cfs.lookup("u0_3").unwrap(),
        cfs.lookup("u0_4").unwrap(),
    ];
    let ffs = FieldSpace::of(&[
        ("left", FieldType::I64),
        ("right", FieldType::I64),
        ("axis", FieldType::I64),
    ]);
    let f_left = ffs.lookup("left").unwrap();
    let f_right = ffs.lookup("right").unwrap();
    let f_axis = ffs.lookup("axis").unwrap();

    let cells = b.forest.create_region(Domain::range(mesh.num_cells), cfs);
    let faces = b
        .forest
        .create_region(Domain::range(mesh.faces.len() as u64), ffs);
    let pc = ops::block(&mut b.forest, cells, cfg.pieces);
    // Faces partitioned by the piece of their left cell (a preimage
    // through the left pointer — disjoint by construction).
    let face_left: Vec<i64> = mesh.faces.iter().map(|&(l, _)| l).collect();
    let pf = ops::preimage(&mut b.forest, faces, pc, move |f| {
        DynPoint::from(face_left[f.coord(0) as usize])
    });
    // Ghost cells per piece: both endpoints of the piece's faces.
    let eps = mesh.faces.clone();
    let gc = ops::image(&mut b.forest, cells, pf, move |f, sink| {
        let (l, r) = eps[f.coord(0) as usize];
        sink.push(DynPoint::from(l));
        sink.push(DynPoint::from(r));
    });

    let flux_task = b.task(TaskDecl {
        name: "compute_face_flux".into(),
        params: vec![
            RegionParam::read(&[f_left, f_right, f_axis]),
            RegionParam::read(&state),
            RegionParam {
                privilege: Privilege::Reduce(ReductionOp::Add),
                fields: resid.to_vec(),
            },
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let (left, right) = (ctx.i64(0, f_left), ctx.i64(0, f_right));
            let axis = ctx.i64(0, f_axis);
            let state = state.map(|f| ctx.f64(1, f));
            let resid = resid.map(|f| ctx.f64_reduce(2, f));
            for run in ctx.rows(0) {
                let (left, right, axis) = (left.row(run), right.row(run), axis.row(run));
                for f in 0..run.len {
                    let (l, r) = (left.get(f), right.get(f));
                    let mut ul = [0.0; 5];
                    let mut ur = [0.0; 5];
                    for k in 0..5 {
                        ul[k] = state[k].get1(l);
                        ur[k] = state[k].get1(r);
                    }
                    let flux = rusanov_flux(ul, ur, axis.get(f) as usize);
                    for k in 0..5 {
                        resid[k].fold1(l, -flux[k]);
                        resid[k].fold1(r, flux[k]);
                    }
                }
            }
        }),
    });
    let dt = cfg.dt;
    // Snapshot task: u₀ = u at the start of each RK step.
    let save_task = b.task(TaskDecl {
        name: "save_state".into(),
        params: vec![RegionParam::read_write(
            &state
                .iter()
                .chain(saved.iter())
                .copied()
                .collect::<Vec<_>>(),
        )],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let state = state.map(|f| ctx.f64(0, f));
            let saved = saved.map(|f| ctx.f64_mut(0, f));
            for run in ctx.rows(0) {
                for k in 0..5 {
                    let (state, saved) = (state[k].row(run), saved[k].row(run));
                    for p in 0..run.len {
                        saved.set(p, state.get(p));
                    }
                }
            }
        }),
    });
    // Stage task: u = u₀ + α·dt·R(u), residual cleared. The stage
    // coefficient α arrives as a scalar argument.
    let apply_task = b.task(TaskDecl {
        name: "apply_stage".into(),
        params: vec![RegionParam::read_write(
            &state
                .iter()
                .chain(resid.iter())
                .chain(saved.iter())
                .copied()
                .collect::<Vec<_>>(),
        )],
        num_scalar_args: 1,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let alpha_dt = ctx.scalars[0];
            let state = state.map(|f| ctx.f64_mut(0, f));
            let resid = resid.map(|f| ctx.f64_mut(0, f));
            let saved = saved.map(|f| ctx.f64(0, f));
            for run in ctx.rows(0) {
                for k in 0..5 {
                    let (state, resid) = (state[k].row(run), resid[k].row(run));
                    let saved = saved[k].row(run);
                    for p in 0..run.len {
                        state.set(p, saved.get(p) + alpha_dt * resid.get(p));
                        resid.set(p, 0.0);
                    }
                }
            }
        }),
    });

    let l = b.for_loop(c(cfg.steps as f64));
    b.index_launch(save_task, cfg.pieces as u64, vec![RegionArg::Part(pc)]);
    // Jameson low-storage RK4: α_k = 1/(5−k) for k = 1..4.
    for stage in 1..=4u32 {
        let alpha = 1.0 / (5.0 - stage as f64);
        b.index_launch(
            flux_task,
            cfg.pieces as u64,
            vec![
                RegionArg::Part(pf),
                RegionArg::Part(gc),
                RegionArg::Part(gc),
            ],
        );
        b.index_launch_full(
            apply_task,
            cfg.pieces as u64,
            vec![RegionArg::Part(pc)],
            vec![c(alpha * dt)],
            None,
        );
    }
    b.end(l);

    // Stash the axis of each face into the region at init time via the
    // handles (see init_miniaero).
    (
        b.build(),
        AeroHandles {
            cells,
            faces,
            state,
            resid,
            f_left,
            f_right,
        },
    )
}

/// Initializes a Sod-like shock tube along x: high density/pressure in
/// the left half, low in the right, fluid at rest.
pub fn init_miniaero(
    program: &Program,
    store: &mut regent_ir::Store,
    h: &AeroHandles,
    cfg: &MiniAeroConfig,
    mesh: &AeroMesh,
) {
    let half = (cfg.nx / 2) as i64 * (cfg.ny * cfg.nz) as i64;
    store.fill_f64(program, h.cells, h.state[0], |p| {
        if p.coord(0) < half {
            1.0
        } else {
            0.125
        }
    });
    for k in 1..4 {
        store.fill_f64(program, h.cells, h.state[k], |_| 0.0);
    }
    store.fill_f64(program, h.cells, h.state[4], |p| {
        // E = p/(γ-1) for a gas at rest.
        let pr = if p.coord(0) < half { 1.0 } else { 0.1 };
        pr / (GAMMA - 1.0)
    });
    for k in 0..5 {
        store.fill_f64(program, h.cells, h.resid[k], |_| 0.0);
    }
    let faces = mesh.faces.clone();
    store.fill_i64(program, h.faces, h.f_left, |f| faces[f.coord(0) as usize].0);
    let faces = mesh.faces.clone();
    store.fill_i64(program, h.faces, h.f_right, |f| {
        faces[f.coord(0) as usize].1
    });
    // Axis: faces between x-neighbours have |l-r| = ny*nz, y-neighbours
    // nz, z-neighbours 1.
    let (ny, nz) = (cfg.ny as i64, cfg.nz as i64);
    let faces = mesh.faces.clone();
    let axis_field = program
        .forest
        .fields(h.faces)
        .lookup("axis")
        .expect("axis field");
    store.fill_i64(program, h.faces, axis_field, move |f| {
        let (l, r) = faces[f.coord(0) as usize];
        let d = (r - l).abs();
        if d == ny * nz {
            0
        } else if d == nz {
            1
        } else {
            2
        }
    });
}

/// Builds the machine-simulation spec for Fig. 7: 512k cells per node,
/// slab decomposition, one RK4 step = 4 stages of flux + apply.
pub fn miniaero_spec(nodes: usize, machine: &MachineConfig) -> TimestepSpec {
    let cells_per_node: u64 = 512 * 1024;
    // Calibration: Fig. 7's CR line sits at ~1.5e6 cells/s/node for the
    // full RK4 step (~340 ms per step per node) → ~1.8 µs per cell per
    // core per stage (3 face fluxes + state update).
    let per_cell_stage = 1.78e-6;
    let tasks = machine.regent_compute_cores();
    let stage_compute = cells_per_node as f64 * per_cell_stage / tasks as f64;
    // Slab halo: one x-plane of cells each way, 5 conserved fields.
    let plane_cells = (cells_per_node as f64).powf(2.0 / 3.0);
    let halo_bytes = plane_cells * 5.0 * 8.0;
    let mut copies = Vec::new();
    for i in 0..nodes as u32 {
        if i > 0 {
            copies.push(CopyEdge {
                src: i,
                dst: i - 1,
                bytes: halo_bytes,
            });
        }
        if (i as usize) < nodes - 1 {
            copies.push(CopyEdge {
                src: i,
                dst: i + 1,
                bytes: halo_bytes,
            });
        }
    }
    // 4 RK stages; each = flux (with the ghost exchange afterwards)
    // and apply.
    let mut phases = Vec::new();
    for stage in 0..4 {
        phases.push(PhaseSpec {
            name: format!("flux{stage}"),
            tasks_per_node: tasks,
            task_compute_s: stage_compute * 0.8,
            copies: vec![],
            collective: false,
            consumes_collective: false,
        });
        phases.push(PhaseSpec {
            name: format!("apply{stage}"),
            tasks_per_node: tasks,
            task_compute_s: stage_compute * 0.2,
            copies: copies.clone(),
            collective: false,
            consumes_collective: false,
        });
    }
    TimestepSpec {
        num_nodes: nodes,
        elements_per_node: cells_per_node,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_ir::{interp, Store};

    /// Total mass/momentum/energy of the gas (conserved quantities).
    fn totals(program: &Program, store: &Store, h: &AeroHandles) -> [f64; 5] {
        let inst = store.instance(program, h.cells);
        let mut tot = [0.0; 5];
        for p in program.forest.domain(h.cells).iter() {
            for (k, t) in tot.iter_mut().enumerate() {
                *t += inst.read_f64(h.state[k], p);
            }
        }
        tot
    }

    #[test]
    fn mesh_face_counts() {
        let cfg = MiniAeroConfig::default();
        let mesh = build_mesh(&cfg);
        let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
        let expect = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1);
        assert_eq!(mesh.faces.len(), expect);
        assert_eq!(mesh.num_cells, (nx * ny * nz) as u64);
        for &(l, r) in &mesh.faces {
            assert!(l < r, "left cell id below right");
            assert!((r as u64) < mesh.num_cells);
        }
    }

    #[test]
    fn conservation_under_time_stepping() {
        let cfg = MiniAeroConfig::default();
        let mesh = build_mesh(&cfg);
        let (prog, h) = miniaero_program(cfg, &mesh);
        regent_ir::validate(&prog).unwrap();
        let mut store = Store::new(&prog);
        init_miniaero(&prog, &mut store, &h, &cfg, &mesh);
        let before = totals(&prog, &store, &h);
        interp::run(&prog, &mut store);
        let after = totals(&prog, &store, &h);
        // Interior fluxes cancel exactly; boundary faces don't exist
        // (no flux through the domain boundary) → exact conservation.
        for k in 0..5 {
            assert!(
                (before[k] - after[k]).abs() < 1e-9 * before[k].abs().max(1.0),
                "component {k}: {} -> {}",
                before[k],
                after[k]
            );
        }
        // And the shock actually moves: momentum becomes non-zero
        // somewhere even though the total stays ~0.
        let inst = store.instance(&prog, h.cells);
        let any_moving = prog
            .forest
            .domain(h.cells)
            .iter()
            .any(|p| inst.read_f64(h.state[1], p).abs() > 1e-9);
        assert!(any_moving, "expansion should induce momentum");
    }

    #[test]
    fn rusanov_flux_symmetry() {
        let u = [1.0, 0.1, 0.0, 0.0, 2.5];
        // Identical states: flux reduces to the analytic flux, no
        // dissipation term.
        let f = rusanov_flux(u, u, 0);
        let rho = u[0];
        let vx = u[1] / rho;
        let p = pressure(u);
        assert!((f[0] - u[0] * vx).abs() < 1e-12);
        assert!((f[1] - (u[1] * vx + p)).abs() < 1e-12);
        // Mirrored states along x produce mirrored mass flux.
        let l = [1.0, 0.2, 0.0, 0.0, 2.5];
        let r = [1.0, -0.2, 0.0, 0.0, 2.5];
        let f_lr = rusanov_flux(l, r, 0);
        let f_rl = rusanov_flux(r, l, 0);
        assert!((f_lr[0] + f_rl[0]).abs() < 1e-12);
    }

    #[test]
    fn spec_shape() {
        let m = MachineConfig::piz_daint(4);
        let spec = miniaero_spec(4, &m);
        assert_eq!(spec.phases.len(), 8); // 4 RK stages × 2
                                          // Slab chain: 2*(nodes-1) edges per exchange.
        assert_eq!(spec.phases[1].copies.len(), 6);
    }
}
