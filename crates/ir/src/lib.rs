//! # regent-ir
//!
//! The implicitly parallel task IR — a Rust rendition of the Regent
//! subset that control replication targets (§2 of *Control Replication*,
//! SC'17).
//!
//! * [`task`] — task declarations with strict privileges and the
//!   privilege-checked kernel context.
//! * [`program`] — statements (index launches, loops, scalar ops) and
//!   the program builder.
//! * [`expr`] — replicable scalar expressions.
//! * [`normalize`] — the `p[f(i)]` → `q[i]` projection normalization of
//!   §2.2.
//! * [`validate`](crate::validate()) — structural well-formedness checks
//!   (also the name of the module hosting them).
//! * [`interp`] — the sequential reference interpreter defining the
//!   semantics every parallel execution must preserve.

#![warn(missing_docs)]

pub mod expr;
pub mod interp;
pub mod normalize;
pub mod program;
pub mod task;
pub mod validate;

pub use expr::{ScalarExpr, ScalarId};
pub use interp::Store;
pub use normalize::normalize_projections;
pub use program::{
    IndexLaunch, Program, ProgramBuilder, Projection, RegionArg, ScalarDecl, SingleLaunch, Stmt,
};
pub use task::{ArgSlot, KernelFn, Privilege, RegionParam, TaskCtx, TaskDecl, TaskId};
pub use validate::validate;
