//! PENNANT: Lagrangian staggered-grid hydrodynamics on a 2-D
//! unstructured mesh (§5.3), after the Los Alamos proxy app.
//!
//! State lives on a staggered mesh: thermodynamic variables on *zones*
//! (quad cells), kinematics on *points* (vertices). One time step:
//!
//! 1. `zone_state` — per zone: gather the four corner points (through
//!    the aliased *ghost point* partition), compute area/volume,
//!    density and EOS pressure.
//! 2. `point_forces` — per zone: scatter pressure forces to the four
//!    corners (reduce-add through the ghost point partition, §4.3).
//! 3. `advance_points` — per point: integrate velocity and position
//!    (read-write on the disjoint point partition).
//! 4. `zone_dt` — per zone: a CFL estimate, min-reduced into the `dt`
//!    scalar that drives the `While` time loop (§4.4's dynamic time
//!    stepping — PENNANT is the paper's example of "dt in the next
//!    timestep").
//!
//! Physics is a reduced ideal-gas variant of the proxy app with the
//! same region/partition/communication structure (see DESIGN.md).

use regent_geometry::{Domain, DynPoint};
use regent_ir::{
    expr::{c, var},
    Privilege, Program, ProgramBuilder, RegionArg, RegionParam, TaskDecl,
};
use regent_machine::{CopyEdge, MachineConfig, PhaseSpec, TimestepSpec};
use regent_region::{ops, FieldSpace, FieldType, ReductionOp, RegionId};
use std::sync::Arc;

/// EOS γ.
pub(crate) const GAMMA: f64 = 5.0 / 3.0;

/// Configuration of a PENNANT run.
#[derive(Clone, Copy, Debug)]
pub struct PennantConfig {
    /// Zones along x.
    pub nzx: usize,
    /// Zones along y.
    pub nzy: usize,
    /// Mesh pieces (column blocks of zones).
    pub pieces: usize,
    /// Simulated end time (the While loop runs until `t >= tstop`).
    pub tstop: f64,
    /// Maximum dt (initial value; CFL may shrink it).
    pub dtmax: f64,
}

impl Default for PennantConfig {
    fn default() -> Self {
        PennantConfig {
            nzx: 12,
            nzy: 6,
            pieces: 3,
            tstop: 4e-2,
            dtmax: 2e-2,
        }
    }
}

/// The quad mesh connectivity: each zone's four corner point ids.
pub struct PennantMesh {
    /// Per zone: corner points (counter-clockwise).
    pub zone_points: Vec<[i64; 4]>,
    /// Total points.
    pub num_points: u64,
    /// Total zones.
    pub num_zones: u64,
}

/// Builds the rectangular quad mesh (`nzx × nzy` zones,
/// `(nzx+1) × (nzy+1)` points, x-major point numbering).
pub fn build_mesh(cfg: &PennantConfig) -> PennantMesh {
    let (nzx, nzy) = (cfg.nzx as i64, cfg.nzy as i64);
    let npy = nzy + 1;
    let pt = |x: i64, y: i64| x * npy + y;
    let mut zone_points = Vec::with_capacity((nzx * nzy) as usize);
    for x in 0..nzx {
        for y in 0..nzy {
            zone_points.push([pt(x, y), pt(x + 1, y), pt(x + 1, y + 1), pt(x, y + 1)]);
        }
    }
    PennantMesh {
        zone_points,
        num_points: ((nzx + 1) * npy) as u64,
        num_zones: (nzx * nzy) as u64,
    }
}

/// Region/field handles.
pub struct PennantHandles {
    /// Zone region.
    pub zones: RegionId,
    /// Point region.
    pub points: RegionId,
    /// Point coordinates.
    pub f_px: regent_region::FieldId,
    /// Point coordinates.
    pub f_py: regent_region::FieldId,
    /// Point velocities.
    pub f_vx: regent_region::FieldId,
    /// Point velocities.
    pub f_vy: regent_region::FieldId,
    /// Point forces.
    pub f_fx: regent_region::FieldId,
    /// Point forces.
    pub f_fy: regent_region::FieldId,
    /// Point mass.
    pub f_pm: regent_region::FieldId,
    /// Zone corner pointers.
    pub f_zp: [regent_region::FieldId; 4],
    /// Zone mass.
    pub f_zm: regent_region::FieldId,
    /// Zone internal energy.
    pub f_ze: regent_region::FieldId,
    /// Zone volume (area).
    pub f_zvol: regent_region::FieldId,
    /// Zone pressure.
    pub f_zp_pres: regent_region::FieldId,
}

/// Builds the implicitly parallel PENNANT program.
pub fn pennant_program(cfg: PennantConfig, mesh: &PennantMesh) -> (Program, PennantHandles) {
    let mut b = ProgramBuilder::new();
    let pfs = FieldSpace::of(&[
        ("px", FieldType::F64),
        ("py", FieldType::F64),
        ("vx", FieldType::F64),
        ("vy", FieldType::F64),
        ("fx", FieldType::F64),
        ("fy", FieldType::F64),
        ("pm", FieldType::F64),
    ]);
    let f_px = pfs.lookup("px").unwrap();
    let f_py = pfs.lookup("py").unwrap();
    let f_vx = pfs.lookup("vx").unwrap();
    let f_vy = pfs.lookup("vy").unwrap();
    let f_fx = pfs.lookup("fx").unwrap();
    let f_fy = pfs.lookup("fy").unwrap();
    let f_pm = pfs.lookup("pm").unwrap();
    let zfs = FieldSpace::of(&[
        ("zp0", FieldType::I64),
        ("zp1", FieldType::I64),
        ("zp2", FieldType::I64),
        ("zp3", FieldType::I64),
        ("zm", FieldType::F64),
        ("ze", FieldType::F64),
        ("zvol", FieldType::F64),
        ("zpres", FieldType::F64),
    ]);
    let f_zp = [
        zfs.lookup("zp0").unwrap(),
        zfs.lookup("zp1").unwrap(),
        zfs.lookup("zp2").unwrap(),
        zfs.lookup("zp3").unwrap(),
    ];
    let f_zm = zfs.lookup("zm").unwrap();
    let f_ze = zfs.lookup("ze").unwrap();
    let f_zvol = zfs.lookup("zvol").unwrap();
    let f_zpres = zfs.lookup("zpres").unwrap();

    let zones = b.forest.create_region(Domain::range(mesh.num_zones), zfs);
    let points = b.forest.create_region(Domain::range(mesh.num_points), pfs);
    let pz = ops::block(&mut b.forest, zones, cfg.pieces);
    let pp = ops::block(&mut b.forest, points, cfg.pieces);
    // Ghost points: the corners of each piece's zones (aliased — pieces
    // share their boundary points).
    let zp = mesh.zone_points.clone();
    let gp = ops::image(&mut b.forest, points, pz, move |z, sink| {
        for &p in &zp[z.coord(0) as usize] {
            sink.push(DynPoint::from(p));
        }
    });

    // 1. Zone geometry + EOS.
    let zone_state = b.task(TaskDecl {
        name: "zone_state".into(),
        params: vec![
            RegionParam::read_write(&[f_zvol, f_zpres]),
            RegionParam::read(&[f_zp[0], f_zp[1], f_zp[2], f_zp[3], f_zm, f_ze]),
            RegionParam::read(&[f_px, f_py]),
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let (zvol, zpres) = (ctx.f64_mut(0, f_zvol), ctx.f64_mut(0, f_zpres));
            let corners = f_zp.map(|f| ctx.i64(1, f));
            let (zm, ze) = (ctx.f64(1, f_zm), ctx.f64(1, f_ze));
            let (px, py) = (ctx.f64(2, f_px), ctx.f64(2, f_py));
            for run in ctx.rows(0) {
                let (zvol, zpres) = (zvol.row(run), zpres.row(run));
                let corners = corners.map(|v| v.row(run));
                let (zm, ze) = (zm.row(run), ze.row(run));
                for z in 0..run.len {
                    let mut xs = [0.0; 4];
                    let mut ys = [0.0; 4];
                    for k in 0..4 {
                        let p = corners[k].get(z);
                        xs[k] = px.get1(p);
                        ys[k] = py.get1(p);
                    }
                    // Shoelace area of the quad.
                    let mut area = 0.0;
                    for k in 0..4 {
                        let k2 = (k + 1) % 4;
                        area += xs[k] * ys[k2] - xs[k2] * ys[k];
                    }
                    area = 0.5 * area.abs().max(1e-12);
                    let rho = zm.get(z) / area;
                    let pres = (GAMMA - 1.0) * rho * ze.get(z);
                    zvol.set(z, area);
                    zpres.set(z, pres);
                }
            }
        }),
    });

    // 2. Corner force scatter.
    let point_forces = b.task(TaskDecl {
        name: "point_forces".into(),
        params: vec![
            RegionParam::read(&[f_zp[0], f_zp[1], f_zp[2], f_zp[3], f_zpres]),
            RegionParam::read(&[f_px, f_py]),
            RegionParam {
                privilege: Privilege::Reduce(ReductionOp::Add),
                fields: vec![f_fx, f_fy],
            },
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let corners = f_zp.map(|f| ctx.i64(0, f));
            let zpres = ctx.f64(0, f_zpres);
            let (px, py) = (ctx.f64(1, f_px), ctx.f64(1, f_py));
            let (fx, fy) = (ctx.f64_reduce(2, f_fx), ctx.f64_reduce(2, f_fy));
            for run in ctx.rows(0) {
                let corners = corners.map(|v| v.row(run));
                let zpres = zpres.row(run);
                for z in 0..run.len {
                    let pres = zpres.get(z);
                    let mut pts = [0; 4];
                    let mut xs = [0.0; 4];
                    let mut ys = [0.0; 4];
                    for k in 0..4 {
                        pts[k] = corners[k].get(z);
                        xs[k] = px.get1(pts[k]);
                        ys[k] = py.get1(pts[k]);
                    }
                    // Pressure force on each corner: p × the outward edge
                    // normal of the half-edges adjacent to the corner.
                    for (k, &pt) in pts.iter().enumerate() {
                        let prev = (k + 3) % 4;
                        let next = (k + 1) % 4;
                        let nx = 0.5 * (ys[next] - ys[prev]);
                        let ny = -0.5 * (xs[next] - xs[prev]);
                        fx.fold1(pt, pres * nx);
                        fy.fold1(pt, pres * ny);
                    }
                }
            }
        }),
    });

    // 3. Point kinematics.
    let advance = b.task(TaskDecl {
        name: "advance_points".into(),
        params: vec![RegionParam::read_write(&[
            f_px, f_py, f_vx, f_vy, f_fx, f_fy, f_pm,
        ])],
        num_scalar_args: 1, // dt
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let dt = ctx.scalars[0];
            let (px, py) = (ctx.f64_mut(0, f_px), ctx.f64_mut(0, f_py));
            let (vx, vy) = (ctx.f64_mut(0, f_vx), ctx.f64_mut(0, f_vy));
            let (fx, fy) = (ctx.f64_mut(0, f_fx), ctx.f64_mut(0, f_fy));
            let pm = ctx.f64(0, f_pm);
            for run in ctx.rows(0) {
                let (px, py) = (px.row(run), py.row(run));
                let (vx, vy) = (vx.row(run), vy.row(run));
                let (fx, fy) = (fx.row(run), fy.row(run));
                let pm = pm.row(run);
                for p in 0..run.len {
                    let m = pm.get(p).max(1e-12);
                    let new_vx = vx.get(p) + dt * fx.get(p) / m;
                    let new_vy = vy.get(p) + dt * fy.get(p) / m;
                    vx.set(p, new_vx);
                    vy.set(p, new_vy);
                    px.set(p, px.get(p) + dt * new_vx);
                    py.set(p, py.get(p) + dt * new_vy);
                    fx.set(p, 0.0);
                    fy.set(p, 0.0);
                }
            }
        }),
    });

    // 4. CFL estimate per zone.
    let dtmax = cfg.dtmax;
    let zone_dt = b.task(TaskDecl {
        name: "zone_dt".into(),
        params: vec![RegionParam::read(&[f_zvol, f_zpres, f_zm])],
        num_scalar_args: 0,
        returns_value: true,
        kernel: Arc::new(move |ctx| {
            let (zvol, zpres, zm) = (ctx.f64(0, f_zvol), ctx.f64(0, f_zpres), ctx.f64(0, f_zm));
            let mut dt = dtmax;
            for run in ctx.rows(0) {
                let (zvol, zpres, zm) = (zvol.row(run), zpres.row(run), zm.row(run));
                for z in 0..run.len {
                    let vol = zvol.get(z).max(1e-12);
                    let pres = zpres.get(z).max(1e-12);
                    let rho = zm.get(z) / vol;
                    let cs = (GAMMA * pres / rho.max(1e-12)).sqrt();
                    let dx = vol.sqrt();
                    dt = dt.min(0.25 * dx / cs.max(1e-12));
                }
            }
            ctx.set_return(dt);
        }),
    });

    let t = b.scalar("t", 0.0);
    let dt = b.scalar("dt", cfg.dtmax);
    let w = b.while_loop(var(t).lt(c(cfg.tstop)));
    b.index_launch(
        zone_state,
        cfg.pieces as u64,
        vec![
            RegionArg::Part(pz),
            RegionArg::Part(pz),
            RegionArg::Part(gp),
        ],
    );
    b.index_launch(
        point_forces,
        cfg.pieces as u64,
        vec![
            RegionArg::Part(pz),
            RegionArg::Part(gp),
            RegionArg::Part(gp),
        ],
    );
    b.index_launch_full(
        advance,
        cfg.pieces as u64,
        vec![RegionArg::Part(pp)],
        vec![var(dt)],
        None,
    );
    b.set_scalar(t, var(t).add(var(dt)));
    b.index_launch_full(
        zone_dt,
        cfg.pieces as u64,
        vec![RegionArg::Part(pz)],
        vec![],
        Some((dt, ReductionOp::Min)),
    );
    b.end(w);

    (
        b.build(),
        PennantHandles {
            zones,
            points,
            f_px,
            f_py,
            f_vx,
            f_vy,
            f_fx,
            f_fy,
            f_pm,
            f_zp,
            f_zm,
            f_ze,
            f_zvol,
            f_zp_pres: f_zpres,
        },
    )
}

/// Initializes a Sedov-like problem: unit-density gas at rest on a unit
/// mesh with an energy spike in the corner zone.
pub fn init_pennant(
    program: &Program,
    store: &mut regent_ir::Store,
    h: &PennantHandles,
    cfg: &PennantConfig,
    mesh: &PennantMesh,
) {
    let npy = (cfg.nzy + 1) as i64;
    let dx = 1.0 / cfg.nzx as f64;
    let dy = 1.0 / cfg.nzy as f64;
    store.fill_f64(program, h.points, h.f_px, |p| {
        (p.coord(0) / npy) as f64 * dx
    });
    store.fill_f64(program, h.points, h.f_py, |p| {
        (p.coord(0) % npy) as f64 * dy
    });
    for f in [h.f_vx, h.f_vy, h.f_fx, h.f_fy] {
        store.fill_f64(program, h.points, f, |_| 0.0);
    }
    store.fill_f64(program, h.points, h.f_pm, |_| dx * dy);
    let zp = mesh.zone_points.clone();
    for k in 0..4 {
        let zp = zp.clone();
        store.fill_i64(program, h.zones, h.f_zp[k], move |z| {
            zp[z.coord(0) as usize][k]
        });
    }
    store.fill_f64(program, h.zones, h.f_zm, |_| dx * dy);
    store.fill_f64(program, h.zones, h.f_ze, |z| {
        if z.coord(0) == 0 {
            10.0
        } else {
            0.1
        }
    });
    store.fill_f64(program, h.zones, h.f_zvol, |_| dx * dy);
    store.fill_f64(program, h.zones, h.f_zp_pres, |_| 0.0);
}

/// Builds the machine-simulation spec for Fig. 8: 7.4M zones per node,
/// column decomposition, four phases with a scalar collective closing
/// the step (the dt reduction).
pub fn pennant_spec(nodes: usize, machine: &MachineConfig) -> TimestepSpec {
    let zones_per_node: u64 = 7_400_000;
    // Calibration: Fig. 8's CR line sits near ~14e6 zones/s/node →
    // ~0.53 s per step per node across the four phases → ~0.79 µs per
    // zone per core. PENNANT is compute-bound (cache-blocked kernels).
    let per_zone_total = 7.9e-7;
    let tasks = machine.regent_compute_cores();
    let phase_cost = |frac: f64| zones_per_node as f64 * per_zone_total * frac / tasks as f64;
    // Column decomposition: boundary points of one column of zones.
    let col_points = (zones_per_node as f64).sqrt();
    let ghost_bytes = col_points * 4.0 * 8.0; // px, py, fx, fy
    let mut copies = Vec::new();
    for i in 0..nodes as u32 {
        if i > 0 {
            copies.push(CopyEdge {
                src: i,
                dst: i - 1,
                bytes: ghost_bytes,
            });
        }
        if (i as usize) < nodes - 1 {
            copies.push(CopyEdge {
                src: i,
                dst: i + 1,
                bytes: ghost_bytes,
            });
        }
    }
    TimestepSpec {
        num_nodes: nodes,
        elements_per_node: zones_per_node,
        phases: vec![
            PhaseSpec {
                name: "zone_state".into(),
                tasks_per_node: tasks,
                task_compute_s: phase_cost(0.3),
                copies: vec![],
                collective: false,
                consumes_collective: false,
            },
            PhaseSpec {
                name: "point_forces".into(),
                tasks_per_node: tasks,
                task_compute_s: phase_cost(0.4),
                copies: copies.clone(),
                collective: false,
                consumes_collective: false,
            },
            PhaseSpec {
                name: "advance_points".into(),
                tasks_per_node: tasks,
                task_compute_s: phase_cost(0.2),
                copies,
                collective: false,
                // Needs the dt produced by the previous step's
                // zone_dt collective.
                consumes_collective: true,
            },
            PhaseSpec {
                name: "zone_dt".into(),
                tasks_per_node: tasks,
                task_compute_s: phase_cost(0.1),
                copies: vec![],
                collective: true, // the global dt min-reduction
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
    fn mesh_connectivity() {
        let cfg = PennantConfig::default();
        let mesh = build_mesh(&cfg);
        assert_eq!(mesh.num_zones as usize, cfg.nzx * cfg.nzy);
        assert_eq!(mesh.num_points as usize, (cfg.nzx + 1) * (cfg.nzy + 1));
        for zp in &mesh.zone_points {
            for &p in zp {
                assert!(p >= 0 && (p as u64) < mesh.num_points);
            }
            // Corners are distinct.
            let mut s = zp.to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4);
        }
    }

    #[test]
    fn sedov_blast_expands() {
        let cfg = PennantConfig::default();
        let mesh = build_mesh(&cfg);
        let (prog, h) = pennant_program(cfg, &mesh);
        regent_ir::validate(&prog).unwrap();
        let mut store = Store::new(&prog);
        init_pennant(&prog, &mut store, &h, &cfg, &mesh);
        let (env, stats) = interp::run(&prog, &mut store);
        // The While loop ran some steps and advanced t beyond tstop.
        assert!(stats.loop_iterations >= 2);
        assert!(env[0] >= cfg.tstop);
        // dt was dynamically reduced below dtmax by the CFL condition.
        assert!(env[1] < cfg.dtmax);
        // The blast pushed the points near the energy spike outward.
        let inst = store.instance(&prog, h.points);
        let p0 = DynPoint::from(0);
        let moved = inst.read_f64(h.f_px, p0).abs() + inst.read_f64(h.f_py, p0).abs();
        // Corner point is pushed into negative x/y (outward from the
        // hot zone) or at least moved.
        assert!(moved > 0.0, "blast should move the corner point");
        // Points remain finite.
        for p in prog.forest.domain(h.points).iter() {
            assert!(inst.read_f64(h.f_px, p).is_finite());
            assert!(inst.read_f64(h.f_py, p).is_finite());
        }
    }

    #[test]
    fn momentum_is_bounded_symmetric() {
        // Forces from a uniform-pressure region cancel on interior
        // points: with uniform energy everywhere, interior points feel
        // zero net force after one step.
        let cfg = PennantConfig {
            nzx: 6,
            nzy: 6,
            pieces: 2,
            tstop: 1e-9, // exactly one step
            dtmax: 1e-9,
        };
        let mesh = build_mesh(&cfg);
        let (prog, h) = pennant_program(cfg, &mesh);
        let mut store = Store::new(&prog);
        init_pennant(&prog, &mut store, &h, &cfg, &mesh);
        // Uniform energy.
        store.fill_f64(&prog, h.zones, h.f_ze, |_| 1.0);
        interp::run(&prog, &mut store);
        let inst = store.instance(&prog, h.points);
        let npy = (cfg.nzy + 1) as i64;
        for p in prog.forest.domain(h.points).iter() {
            let (x, y) = (p.coord(0) / npy, p.coord(0) % npy);
            let interior = x > 0 && x < cfg.nzx as i64 && y > 0 && y < cfg.nzy as i64;
            if interior {
                let v = inst.read_f64(h.f_vx, p).abs() + inst.read_f64(h.f_vy, p).abs();
                assert!(v < 1e-10, "interior point {p:?} moved: {v}");
            }
        }
    }

    #[test]
    fn spec_has_collective() {
        let m = MachineConfig::piz_daint(4);
        let spec = pennant_spec(4, &m);
        assert!(spec.phases.iter().any(|p| p.collective));
        assert_eq!(spec.phases.len(), 4);
    }
}
