//! # regent-apps
//!
//! The four applications of the paper's evaluation (§5), each provided
//! in two forms:
//!
//! 1. a real, runnable implicitly parallel [`regent_ir::Program`] with
//!    actual kernels — executed by the sequential interpreter, the
//!    implicit executor, and (after control replication) the SPMD
//!    executor, with cross-checked results; and
//! 2. a [`regent_machine::TimestepSpec`] generator reproducing the
//!    paper's full-scale workload shape (task counts, compute costs,
//!    halo volumes) for the weak-scaling figures.
//!
//! * [`stencil`] — PRK 2-D star stencil, radius 2 (Fig. 6).
//! * [`miniaero`] — 3-D unstructured compressible Navier–Stokes
//!   (Fig. 7).
//! * [`pennant`] — 2-D Lagrangian hydrodynamics with dynamic dt
//!   (Fig. 8).
//! * [`circuit`] — sparse circuit simulation on a random graph
//!   (Fig. 9).

#![warn(missing_docs)]

pub mod circuit;
pub mod miniaero;
pub mod pennant;
pub mod stencil;
