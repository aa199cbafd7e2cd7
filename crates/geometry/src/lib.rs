//! # regent-geometry
//!
//! Geometric substrate for the control-replication stack: integer points,
//! axis-aligned rectangles with inclusive bounds, and *domains* —
//! possibly-sparse point sets represented as disjoint unions of
//! rectangles.
//!
//! Logical regions (see the `regent-region` crate) are collections of
//! elements indexed by a domain; the partitioning sublanguage of the
//! source programming model (§2.1 of *Control Replication*, SC'17) slices
//! domains into subdomains, and the dynamic half of the copy intersection
//! optimization (§3.3) computes exact intersections between them. All of
//! that set algebra lives here.
//!
//! One point/rectangle family serves every layer: [`DynPoint`] and
//! [`DynRect`] carry their dimension (1..=[`MAX_DIM`]) at runtime, so
//! the compiler, the region layer and the executors handle 1-D
//! unstructured meshes and 2-D/3-D grids alike, and [`Domain`] is a
//! disjoint union of [`DynRect`]s.

#![warn(missing_docs)]

pub mod domain;
pub(crate) mod dynrect;

pub use domain::Domain;
pub use dynrect::{DynPoint, DynRect, MAX_DIM};
