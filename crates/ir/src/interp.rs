//! The sequential reference interpreter.
//!
//! Regent programs have *sequential execution semantics* (§1): whatever
//! any parallel or control-replicated execution produces must match what
//! this interpreter produces. It implements the shared-memory region
//! semantics of §3 directly — every region tree is backed by a single
//! root instance, subregion arguments are views into it, and statements
//! run strictly in program order. Both the implicitly parallel executor
//! and the SPMD executor (see `regent-runtime`) are tested against it.

use crate::expr::ScalarExpr;
use crate::program::{IndexLaunch, Program, RegionArg, SingleLaunch, Stmt};
use crate::task::{ArgSlot, TaskCtx};
use regent_geometry::DynPoint;
use regent_region::{Instance, RegionId};
use std::collections::HashMap;

/// Storage for a program's data: one instance per region-tree root.
pub struct Store {
    instances: HashMap<RegionId, Instance>,
}

impl Store {
    /// Allocates zero-initialized instances for every root region of the
    /// program.
    pub fn new(program: &Program) -> Self {
        Store::from_forest(&program.forest)
    }

    /// Allocates zero-initialized instances for every root region of a
    /// forest.
    pub(crate) fn from_forest(forest: &regent_region::RegionForest) -> Self {
        let mut instances = HashMap::new();
        for i in 0..forest.num_regions() as u32 {
            let r = RegionId(i);
            if forest.region(r).parent.is_none() {
                let dom = forest.domain(r).clone();
                let fields = forest.fields(r);
                instances.insert(r, Instance::new(dom, fields));
            }
        }
        Store { instances }
    }

    /// The root instance backing `region` (any region in the tree).
    pub fn instance(&self, program: &Program, region: RegionId) -> &Instance {
        self.instance_in(&program.forest, region)
    }

    /// Forest-based variant of [`Store::instance`].
    pub fn instance_in(&self, forest: &regent_region::RegionForest, region: RegionId) -> &Instance {
        let root = forest.root_of(region);
        &self.instances[&root]
    }

    /// Mutable access to the root instance backing `region`.
    pub fn instance_mut(&mut self, program: &Program, region: RegionId) -> &mut Instance {
        self.instance_mut_in(&program.forest, region)
    }

    /// Forest-based variant of [`Store::instance_mut`].
    pub fn instance_mut_in(
        &mut self,
        forest: &regent_region::RegionForest,
        region: RegionId,
    ) -> &mut Instance {
        let root = forest.root_of(region);
        self.instances.get_mut(&root).unwrap()
    }

    /// Fills an f64 field of a region from a function of the point
    /// (initialization helper used by applications and tests).
    pub fn fill_f64(
        &mut self,
        program: &Program,
        region: RegionId,
        field: regent_region::FieldId,
        mut f: impl FnMut(DynPoint) -> f64,
    ) {
        let dom = program.forest.domain(region).clone();
        let inst = self.instance_mut(program, region);
        for p in dom.iter() {
            inst.write_f64(field, p, f(p));
        }
    }

    /// Fills an i64 field of a region from a function of the point.
    pub fn fill_i64(
        &mut self,
        program: &Program,
        region: RegionId,
        field: regent_region::FieldId,
        mut f: impl FnMut(DynPoint) -> i64,
    ) {
        let dom = program.forest.domain(region).clone();
        let inst = self.instance_mut(program, region);
        for p in dom.iter() {
            inst.write_i64(field, p, f(p));
        }
    }
}

/// Execution statistics collected by the interpreter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InterpStats {
    /// Total point tasks executed.
    pub tasks_executed: u64,
    /// Index launches processed.
    pub index_launches: u64,
    /// Loop iterations executed.
    pub loop_iterations: u64,
}

/// Runs a program to completion with sequential semantics.
///
/// Returns the final scalar environment and execution statistics.
pub fn run(program: &Program, store: &mut Store) -> (Vec<f64>, InterpStats) {
    let mut env: Vec<f64> = program.scalars.iter().map(|s| s.init).collect();
    let mut stats = InterpStats::default();
    run_stmts(program, store, &program.body, &mut env, &mut stats);
    (env, stats)
}

/// Runs an arbitrary statement slice against an existing store and
/// scalar environment (used by the hybrid range-local driver in
/// `regent-runtime`).
pub fn run_stmts_in(
    program: &Program,
    store: &mut Store,
    stmts: &[Stmt],
    env: &mut Vec<f64>,
) -> InterpStats {
    let mut stats = InterpStats::default();
    run_stmts(program, store, stmts, env, &mut stats);
    stats
}

fn run_stmts(
    program: &Program,
    store: &mut Store,
    stmts: &[Stmt],
    env: &mut Vec<f64>,
    stats: &mut InterpStats,
) {
    for s in stmts {
        match s {
            Stmt::IndexLaunch(il) => run_index_launch(program, store, il, env, stats),
            Stmt::SingleLaunch(sl) => run_single_launch(program, store, sl, env, stats),
            Stmt::For { count, body } => {
                let n = count.eval(env).max(0.0) as u64;
                for _ in 0..n {
                    stats.loop_iterations += 1;
                    run_stmts(program, store, body, env, stats);
                }
            }
            Stmt::While { cond, body } => {
                while cond.eval(env) != 0.0 {
                    stats.loop_iterations += 1;
                    run_stmts(program, store, body, env, stats);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if cond.eval(env) != 0.0 {
                    run_stmts(program, store, then_body, env, stats);
                } else {
                    run_stmts(program, store, else_body, env, stats);
                }
            }
            Stmt::SetScalar { var, expr } => {
                env[var.0 as usize] = expr.eval(env);
            }
        }
    }
}

/// Resolves an index-launch argument to the concrete region for launch
/// point `i`.
pub fn resolve_arg(program: &Program, arg: &RegionArg, i: regent_region::Color) -> RegionId {
    match arg {
        RegionArg::Part(p) => program.forest.subregion(*p, i),
        RegionArg::PartProj(p, proj) => program.forest.subregion(*p, proj.apply(i)),
        RegionArg::Region(r) => *r,
    }
}

fn eval_scalar_args(exprs: &[ScalarExpr], env: &[f64]) -> Vec<f64> {
    exprs.iter().map(|e| e.eval(env)).collect()
}

fn run_index_launch(
    program: &Program,
    store: &mut Store,
    il: &IndexLaunch,
    env: &mut [f64],
    stats: &mut InterpStats,
) {
    stats.index_launches += 1;
    let decl = program.task(il.task);
    let scalar_args = eval_scalar_args(&il.scalar_args, env);
    let mut reduced: Option<f64> = None;
    for &i in &il.launch_domain {
        let regions: Vec<RegionId> = il.args.iter().map(|a| resolve_arg(program, a, i)).collect();
        let ret = execute_point_task(program, store, il.task, &regions, &scalar_args, i);
        stats.tasks_executed += 1;
        if let Some((_, op)) = il.reduce_result {
            let v =
                ret.unwrap_or_else(|| panic!("task {} did not set its return value", decl.name));
            reduced = Some(match reduced {
                None => v,
                Some(acc) => op.fold(acc, v),
            });
        }
    }
    if let Some((var, op)) = il.reduce_result {
        // An empty launch domain is rejected by validation, but be safe.
        env[var.0 as usize] = reduced.unwrap_or_else(|| op.identity());
    }
}

fn run_single_launch(
    program: &Program,
    store: &mut Store,
    sl: &SingleLaunch,
    env: &mut [f64],
    stats: &mut InterpStats,
) {
    let scalar_args = eval_scalar_args(&sl.scalar_args, env);
    let ret = execute_point_task(
        program,
        store,
        sl.task,
        &sl.args,
        &scalar_args,
        DynPoint::from(0),
    );
    stats.tasks_executed += 1;
    if let Some(var) = sl.result {
        env[var.0 as usize] = ret.unwrap_or_else(|| {
            panic!(
                "task {} did not set its return value",
                program.task(sl.task).name
            )
        });
    }
}

/// Executes one point task against root-instance storage (the
/// shared-memory implementation: every argument views its tree's root
/// instance).
pub(crate) fn execute_point_task(
    program: &Program,
    store: &mut Store,
    task: crate::task::TaskId,
    regions: &[RegionId],
    scalar_args: &[f64],
    point: DynPoint,
) -> Option<f64> {
    let decl = program.task(task);
    debug_assert_eq!(regions.len(), decl.params.len());
    let slots: Vec<ArgSlot> = regions
        .iter()
        .zip(&decl.params)
        .map(|(&r, param)| {
            let inst: *mut Instance = store.instance_mut(program, r);
            // SAFETY: the store outlives the kernel call; the
            // interpreter runs one kernel at a time on one thread, and
            // slots that alias the same root instance are what the
            // `Cell`-style views of `TaskCtx` are for.
            unsafe {
                ArgSlot::new(
                    program.forest.domain(r),
                    param.privilege,
                    &param.fields,
                    inst,
                )
            }
        })
        .collect();
    let mut ctx = TaskCtx::new(&slots, scalar_args, point);
    (decl.kernel)(&mut ctx);
    ctx.return_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{c, var};
    use crate::program::ProgramBuilder;
    use crate::task::{Privilege, RegionParam, TaskDecl};
    use regent_geometry::Domain;
    use regent_region::{ops, FieldSpace, FieldType, ReductionOp};
    use std::sync::Arc;

    /// Builds the doubling program: for t in 0..T { forall i: x *= 2 }.
    fn doubling_program(n: u64, parts: usize, steps: f64) -> Program {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(n), fs);
        let p = ops::block(&mut b.forest, r, parts);
        let t = b.task(TaskDecl {
            name: "double".into(),
            params: vec![RegionParam::read_write(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let dom = ctx.domain(0).clone();
                for pt in dom.iter() {
                    let v = ctx.read_f64(0, x, pt);
                    ctx.write_f64(0, x, pt, v * 2.0);
                }
            }),
        });
        let l = b.for_loop(c(steps));
        b.index_launch(t, parts as u64, vec![crate::program::RegionArg::Part(p)]);
        b.end(l);
        b.build()
    }

    #[test]
    fn doubling_runs() {
        let prog = doubling_program(16, 4, 3.0);
        let mut store = Store::new(&prog);
        let x = prog
            .forest
            .fields(regent_region::RegionId(0))
            .lookup("x")
            .unwrap();
        store.fill_f64(&prog, regent_region::RegionId(0), x, |p| p.coord(0) as f64);
        let (_, stats) = run(&prog, &mut store);
        assert_eq!(stats.index_launches, 3);
        assert_eq!(stats.tasks_executed, 12);
        let inst = store.instance(&prog, regent_region::RegionId(0));
        for i in 0..16i64 {
            assert_eq!(inst.read_f64(x, DynPoint::from(i)), i as f64 * 8.0);
        }
    }

    #[test]
    fn scalar_reduction_min() {
        // forall i: return min over block — reduce into dt.
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(TaskDecl {
            name: "local_min".into(),
            params: vec![RegionParam::read(&[x])],
            num_scalar_args: 0,
            returns_value: true,
            kernel: Arc::new(move |ctx| {
                let mut m = f64::INFINITY;
                let dom = ctx.domain(0).clone();
                for pt in dom.iter() {
                    m = m.min(ctx.read_f64(0, x, pt));
                }
                ctx.set_return(m);
            }),
        });
        let dt = b.scalar("dt", 0.0);
        b.index_launch_full(
            t,
            4,
            vec![crate::program::RegionArg::Part(p)],
            vec![],
            Some((dt, ReductionOp::Min)),
        );
        let prog = b.build();
        let mut store = Store::new(&prog);
        store.fill_f64(&prog, regent_region::RegionId(0), x, |p| {
            (p.coord(0) as f64 - 5.0).abs()
        });
        let (env, _) = run(&prog, &mut store);
        assert_eq!(env[dt.0 as usize], 0.0); // element 5 has value 0
    }

    #[test]
    fn region_reduction_privilege() {
        // Edges reduce-add into a shared node region.
        let mut b = ProgramBuilder::new();
        let nfs = FieldSpace::of(&[("q", FieldType::F64)]);
        let q = nfs.lookup("q").unwrap();
        let nodes = b.forest.create_region(Domain::range(4), nfs);
        let efs = FieldSpace::of(&[("tgt", FieldType::I64)]);
        let tgt = efs.lookup("tgt").unwrap();
        let edges = b.forest.create_region(Domain::range(8), efs);
        let pe = ops::block(&mut b.forest, edges, 2);
        let t = b.task(TaskDecl {
            name: "scatter".into(),
            params: vec![
                RegionParam::read(&[tgt]),
                RegionParam {
                    privilege: Privilege::Reduce(ReductionOp::Add),
                    fields: vec![q],
                },
            ],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let dom = ctx.domain(0).clone();
                for e in dom.iter() {
                    let n = ctx.read_i64(0, tgt, e);
                    ctx.reduce_f64(1, q, DynPoint::from(n), 1.0);
                }
            }),
        });
        b.index_launch(
            t,
            2,
            vec![
                crate::program::RegionArg::Part(pe),
                crate::program::RegionArg::Region(nodes),
            ],
        );
        let prog = b.build();
        let mut store = Store::new(&prog);
        store.fill_i64(&prog, edges, tgt, |p| p.coord(0) % 4);
        run(&prog, &mut store);
        let inst = store.instance(&prog, nodes);
        for i in 0..4i64 {
            assert_eq!(inst.read_f64(q, DynPoint::from(i)), 2.0);
        }
    }

    #[test]
    fn while_and_if() {
        let mut b = ProgramBuilder::new();
        let i = b.scalar("i", 0.0);
        let acc = b.scalar("acc", 0.0);
        let w = b.while_loop(var(i).lt(c(5.0)));
        b.set_scalar(acc, var(acc).add(var(i)));
        b.set_scalar(i, var(i).add(c(1.0)));
        b.end(w);
        let prog = b.build();
        let mut store = Store::new(&prog);
        let (env, stats) = run(&prog, &mut store);
        assert_eq!(env[acc.0 as usize], 10.0);
        assert_eq!(stats.loop_iterations, 5);
    }

    #[test]
    fn scalar_args_passed() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(4), fs);
        let p = ops::block(&mut b.forest, r, 2);
        let t = b.task(TaskDecl {
            name: "set".into(),
            params: vec![RegionParam::read_write(&[x])],
            num_scalar_args: 1,
            returns_value: false,
            kernel: Arc::new(move |ctx| {
                let v = ctx.scalars[0];
                let dom = ctx.domain(0).clone();
                for pt in dom.iter() {
                    ctx.write_f64(0, x, pt, v);
                }
            }),
        });
        b.index_launch_full(
            t,
            2,
            vec![crate::program::RegionArg::Part(p)],
            vec![c(4.0).mul(c(2.5))],
            None,
        );
        let prog = b.build();
        let mut store = Store::new(&prog);
        run(&prog, &mut store);
        let inst = store.instance(&prog, r);
        assert_eq!(inst.read_f64(x, DynPoint::from(3)), 10.0);
    }
}

#[cfg(test)]
mod branch_tests {
    use super::*;
    use crate::expr::{c, var};
    use crate::program::ProgramBuilder;
    use crate::task::{RegionParam, TaskDecl};
    use regent_geometry::Domain;
    use regent_region::{FieldSpace, FieldType};
    use std::sync::Arc;

    #[test]
    fn if_else_branches() {
        let mut b = ProgramBuilder::new();
        let x = b.scalar("x", 3.0);
        let y = b.scalar("y", 0.0);
        b.push_if(
            var(x).lt(c(5.0)),
            vec![crate::program::Stmt::SetScalar {
                var: y,
                expr: c(1.0),
            }],
            vec![crate::program::Stmt::SetScalar {
                var: y,
                expr: c(2.0),
            }],
        );
        b.push_if(
            var(x).lt(c(1.0)),
            vec![crate::program::Stmt::SetScalar {
                var: x,
                expr: c(-1.0),
            }],
            vec![crate::program::Stmt::SetScalar {
                var: x,
                expr: c(-2.0),
            }],
        );
        let prog = b.build();
        let mut store = Store::new(&prog);
        let (env, _) = run(&prog, &mut store);
        assert_eq!(env, vec![-2.0, 1.0]);
    }

    #[test]
    fn single_launch_result_binding() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(6), fs);
        let sum = b.task(TaskDecl {
            name: "sum".into(),
            params: vec![RegionParam::read(&[x])],
            num_scalar_args: 1,
            returns_value: true,
            kernel: Arc::new(move |ctx| {
                let scale = ctx.scalars[0];
                let dom = ctx.domain(0).clone();
                let mut acc = 0.0;
                for p in dom.iter() {
                    acc += ctx.read_f64(0, x, p);
                }
                ctx.set_return(acc * scale);
            }),
        });
        let out = b.scalar("out", 0.0);
        b.call_full(sum, vec![r], vec![c(2.0)], Some(out));
        let prog = b.build();
        let mut store = Store::new(&prog);
        store.fill_f64(&prog, r, x, |p| p.coord(0) as f64);
        let (env, stats) = run(&prog, &mut store);
        assert_eq!(env[out.0 as usize], 30.0); // (0+..+5) * 2
        assert_eq!(stats.tasks_executed, 1);
    }

    #[test]
    fn nested_loops_iterate_product() {
        let mut b = ProgramBuilder::new();
        let n = b.scalar("n", 0.0);
        let outer = b.for_loop(c(3.0));
        let inner = b.for_loop(c(4.0));
        b.set_scalar(n, var(n).add(c(1.0)));
        b.end(inner);
        b.end(outer);
        let prog = b.build();
        let mut store = Store::new(&prog);
        let (env, stats) = run(&prog, &mut store);
        assert_eq!(env[0], 12.0);
        assert_eq!(stats.loop_iterations, 3 + 12);
    }
}
