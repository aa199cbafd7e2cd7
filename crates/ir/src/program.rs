//! Programs: statements, launches, and the program builder.
//!
//! A program is the implicitly parallel source form of Fig. 2: a region
//! forest built by partitioning operators, a set of task declarations,
//! scalar state, and a statement list whose workhorse is the *index
//! launch* — a forall-style loop of task calls (`for i in I do
//! TF(PB[i], PA[i]) end`), the unit control replication operates on
//! (§2.2).

use crate::expr::{ScalarExpr, ScalarId};
use crate::task::{TaskDecl, TaskId};
use regent_geometry::DynPoint;
use regent_region::{Color, PartitionId, RegionForest, RegionId};
use std::fmt;
use std::sync::Arc;

/// How an index launch derives the region argument for launch point `i`.
#[derive(Clone)]
pub enum RegionArg {
    /// `p[i]` — the subregion of `p` colored by the launch point.
    Part(PartitionId),
    /// `p[f(i)]` — a projected access. §2.2 requires these to be
    /// normalized to the `q[i]` form by introducing a new partition; the
    /// [`crate::normalize`] pass does so, and the control-replication
    /// compiler rejects unnormalized programs.
    PartProj(PartitionId, Projection),
    /// A whole region passed unsliced (legal only in single launches and
    /// in index launches with reduce privilege on the argument).
    Region(RegionId),
}

impl fmt::Debug for RegionArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionArg::Part(p) => write!(f, "{p:?}[i]"),
            RegionArg::PartProj(p, _) => write!(f, "{p:?}[f(i)]"),
            RegionArg::Region(r) => write!(f, "{r:?}"),
        }
    }
}

/// A pure projection function `f` applied to the launch point (§2.2:
/// "f is a pure function").
#[derive(Clone)]
pub enum Projection {
    /// `f(i) = i + offset`, wrapped into `[0, modulus)` when given
    /// (1-D launch domains only).
    AffineOffset {
        /// Offset added to the launch index.
        offset: i64,
        /// Optional wrap-around modulus (periodic boundary patterns).
        modulus: Option<u64>,
    },
    /// Arbitrary pure function of the launch point.
    Fn(Arc<dyn Fn(Color) -> Color + Send + Sync>),
}

impl Projection {
    /// Applies the projection to a launch point.
    pub(crate) fn apply(&self, i: Color) -> Color {
        match self {
            Projection::AffineOffset { offset, modulus } => {
                let mut v = i.coord(0) + offset;
                if let Some(m) = modulus {
                    v = v.rem_euclid(*m as i64);
                }
                DynPoint::from(v)
            }
            Projection::Fn(f) => f(i),
        }
    }
}

/// A forall-style loop of task calls over a launch domain of colors.
#[derive(Clone, Debug)]
pub struct IndexLaunch {
    /// The task to launch at every point.
    pub task: TaskId,
    /// The launch domain (the index space `I` of Fig. 2 line 17).
    pub launch_domain: Vec<Color>,
    /// Region arguments, one per task parameter.
    pub args: Vec<RegionArg>,
    /// Scalar arguments, evaluated in the issuing control context.
    pub scalar_args: Vec<ScalarExpr>,
    /// When present, the tasks' scalar returns are reduced with the
    /// operator into the variable (§4.4 dynamic collective).
    pub reduce_result: Option<(ScalarId, regent_region::ReductionOp)>,
}

/// A single task call on concrete regions.
#[derive(Clone, Debug)]
pub struct SingleLaunch {
    /// The task to call.
    pub task: TaskId,
    /// Region arguments.
    pub args: Vec<RegionId>,
    /// Scalar arguments.
    pub scalar_args: Vec<ScalarExpr>,
    /// Destination for the task's scalar return, if any.
    pub result: Option<ScalarId>,
}

/// A program statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// Index launch (the parallel inner loops of Fig. 1a).
    IndexLaunch(IndexLaunch),
    /// Single task call.
    SingleLaunch(SingleLaunch),
    /// Counted sequential loop; the trip count is evaluated at entry.
    For {
        /// Trip count expression (truncated to u64).
        count: ScalarExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// While loop over a scalar condition (non-zero = true), e.g.
    /// dynamic time stepping.
    While {
        /// Condition, re-evaluated before each iteration.
        cond: ScalarExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Conditional.
    If {
        /// Condition (non-zero = true).
        cond: ScalarExpr,
        /// Taken when the condition is non-zero.
        then_body: Vec<Stmt>,
        /// Taken otherwise.
        else_body: Vec<Stmt>,
    },
    /// Scalar assignment.
    SetScalar {
        /// Destination variable.
        var: ScalarId,
        /// Value expression.
        expr: ScalarExpr,
    },
}

/// Declaration of a scalar variable.
#[derive(Clone, Debug)]
pub struct ScalarDecl {
    /// Name for diagnostics.
    pub name: String,
    /// Initial value.
    pub init: f64,
}

/// A complete implicitly parallel program.
pub struct Program {
    /// The region forest (regions + partitions) the program runs over.
    pub forest: RegionForest,
    /// Task declarations.
    pub tasks: Vec<TaskDecl>,
    /// Scalar variable declarations.
    pub scalars: Vec<ScalarDecl>,
    /// Top-level statement list.
    pub body: Vec<Stmt>,
}

impl Program {
    /// The declaration of `t`.
    pub fn task(&self, t: TaskId) -> &TaskDecl {
        &self.tasks[t.0 as usize]
    }

    /// All root regions referenced anywhere in the forest (the regions a
    /// store must allocate).
    pub fn root_regions(&self) -> Vec<RegionId> {
        (0..self.forest.num_regions() as u32)
            .map(RegionId)
            .filter(|&r| self.forest.region(r).parent.is_none())
            .collect()
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Program:")?;
        writeln!(
            f,
            "  {} tasks, {} scalars, forest: {} regions / {} partitions",
            self.tasks.len(),
            self.scalars.len(),
            self.forest.num_regions(),
            self.forest.num_partitions()
        )?;
        fmt_stmts(f, &self.body, 2)
    }
}

fn fmt_stmts(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], indent: usize) -> fmt::Result {
    for s in stmts {
        match s {
            Stmt::IndexLaunch(il) => writeln!(
                f,
                "{:indent$}forall i in |{}|: {:?}({:?})",
                "",
                il.launch_domain.len(),
                il.task,
                il.args,
                indent = indent
            )?,
            Stmt::SingleLaunch(sl) => writeln!(
                f,
                "{:indent$}call {:?}({:?})",
                "",
                sl.task,
                sl.args,
                indent = indent
            )?,
            Stmt::For { count, body } => {
                writeln!(f, "{:indent$}for {count:?}:", "", indent = indent)?;
                fmt_stmts(f, body, indent + 2)?;
            }
            Stmt::While { cond, body } => {
                writeln!(f, "{:indent$}while {cond:?}:", "", indent = indent)?;
                fmt_stmts(f, body, indent + 2)?;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                writeln!(f, "{:indent$}if {cond:?}:", "", indent = indent)?;
                fmt_stmts(f, then_body, indent + 2)?;
                if !else_body.is_empty() {
                    writeln!(f, "{:indent$}else:", "", indent = indent)?;
                    fmt_stmts(f, else_body, indent + 2)?;
                }
            }
            Stmt::SetScalar { var, expr } => {
                writeln!(f, "{:indent$}{var:?} = {expr:?}", "", indent = indent)?
            }
        }
    }
    Ok(())
}

/// Fluent builder for [`Program`]s.
///
/// Owns the forest during construction so partitioning operators and
/// statement construction interleave naturally; see the crate examples.
pub struct ProgramBuilder {
    /// The forest under construction (public: partitioning operators
    /// from `regent_region::ops` are applied directly to it).
    pub forest: RegionForest,
    tasks: Vec<TaskDecl>,
    scalars: Vec<ScalarDecl>,
    body: Vec<Stmt>,
    /// Stack of open nested bodies (loops/ifs under construction).
    stack: Vec<Vec<Stmt>>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder {
            forest: RegionForest::new(),
            tasks: Vec::new(),
            scalars: Vec::new(),
            body: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Registers a task declaration, returning its id.
    pub fn task(&mut self, decl: TaskDecl) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(decl);
        id
    }

    /// Declares a scalar variable.
    pub fn scalar(&mut self, name: &str, init: f64) -> ScalarId {
        let id = ScalarId(self.scalars.len() as u32);
        self.scalars.push(ScalarDecl {
            name: name.to_string(),
            init,
        });
        id
    }

    fn push(&mut self, s: Stmt) {
        match self.stack.last_mut() {
            Some(top) => top.push(s),
            None => self.body.push(s),
        }
    }

    /// Emits an index launch over the 1-D launch domain `0..n`.
    pub fn index_launch(&mut self, task: TaskId, n: u64, args: Vec<RegionArg>) {
        self.index_launch_full(task, n, args, vec![], None);
    }

    /// Emits an index launch with scalar arguments and optional scalar
    /// reduction.
    pub fn index_launch_full(
        &mut self,
        task: TaskId,
        n: u64,
        args: Vec<RegionArg>,
        scalar_args: Vec<ScalarExpr>,
        reduce_result: Option<(ScalarId, regent_region::ReductionOp)>,
    ) {
        let launch_domain = (0..n as i64).map(DynPoint::from).collect();
        self.push(Stmt::IndexLaunch(IndexLaunch {
            task,
            launch_domain,
            args,
            scalar_args,
            reduce_result,
        }));
    }

    /// Emits an index launch over an explicit color list (e.g. the 2-D
    /// colors of a `block2d` partition).
    pub fn index_launch_colors(&mut self, task: TaskId, colors: Vec<Color>, args: Vec<RegionArg>) {
        self.push(Stmt::IndexLaunch(IndexLaunch {
            task,
            launch_domain: colors,
            args,
            scalar_args: vec![],
            reduce_result: None,
        }));
    }

    /// Emits a single task call.
    pub fn call(&mut self, task: TaskId, args: Vec<RegionId>) {
        self.call_full(task, args, vec![], None);
    }

    /// Emits a single task call with scalar arguments and an optional
    /// result binding.
    pub fn call_full(
        &mut self,
        task: TaskId,
        args: Vec<RegionId>,
        scalar_args: Vec<ScalarExpr>,
        result: Option<ScalarId>,
    ) {
        self.push(Stmt::SingleLaunch(SingleLaunch {
            task,
            args,
            scalar_args,
            result,
        }));
    }

    /// Emits a scalar assignment.
    pub fn set_scalar(&mut self, var: ScalarId, expr: ScalarExpr) {
        self.push(Stmt::SetScalar { var, expr });
    }

    /// Emits a conditional with explicit branch bodies.
    pub fn push_if(&mut self, cond: ScalarExpr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) {
        self.push(Stmt::If {
            cond,
            then_body,
            else_body,
        });
    }

    /// Opens a counted loop; statements emitted until [`Self::end`] form
    /// its body.
    pub fn for_loop(&mut self, count: ScalarExpr) -> LoopToken {
        self.stack.push(Vec::new());
        LoopToken(LoopKind::For(count))
    }

    /// Opens a while loop.
    pub fn while_loop(&mut self, cond: ScalarExpr) -> LoopToken {
        self.stack.push(Vec::new());
        LoopToken(LoopKind::While(cond))
    }

    /// Closes the innermost open loop.
    pub fn end(&mut self, token: LoopToken) {
        let body = self.stack.pop().expect("no open loop");
        let stmt = match token.0 {
            LoopKind::For(count) => Stmt::For { count, body },
            LoopKind::While(cond) => Stmt::While { cond, body },
        };
        self.push(stmt);
    }

    /// Finalizes the program.
    ///
    /// # Panics
    /// If a loop is still open.
    pub fn build(self) -> Program {
        assert!(self.stack.is_empty(), "unclosed loop in program builder");
        Program {
            forest: self.forest,
            tasks: self.tasks,
            scalars: self.scalars,
            body: self.body,
        }
    }
}

/// Token returned by loop-opening builder methods; spend it with
/// [`ProgramBuilder::end`].
#[must_use]
pub struct LoopToken(LoopKind);

enum LoopKind {
    For(ScalarExpr),
    While(ScalarExpr),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::c;

    #[test]
    fn builder_nesting() {
        let mut b = ProgramBuilder::new();
        let t = b.scalar("t", 0.0);
        let l = b.for_loop(c(10.0));
        b.set_scalar(t, c(1.0));
        b.end(l);
        let prog = b.build();
        assert_eq!(prog.body.len(), 1);
        match &prog.body[0] {
            Stmt::For { body, .. } => assert_eq!(body.len(), 1),
            other => panic!("expected For, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unclosed loop")]
    fn unclosed_loop_panics() {
        let mut b = ProgramBuilder::new();
        let _tok = b.for_loop(c(1.0));
        let _ = b.build();
    }

    #[test]
    fn projection_affine() {
        let p = Projection::AffineOffset {
            offset: -1,
            modulus: Some(4),
        };
        assert_eq!(p.apply(DynPoint::from(0)), DynPoint::from(3));
        assert_eq!(p.apply(DynPoint::from(2)), DynPoint::from(1));
        let q = Projection::AffineOffset {
            offset: 2,
            modulus: None,
        };
        assert_eq!(q.apply(DynPoint::from(5)), DynPoint::from(7));
    }

    #[test]
    fn projection_fn() {
        let p = Projection::Fn(Arc::new(|c: Color| DynPoint::from(c.coord(0) * 2)));
        assert_eq!(p.apply(DynPoint::from(3)), DynPoint::from(6));
    }
}
