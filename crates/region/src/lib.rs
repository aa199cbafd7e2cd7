//! # regent-region
//!
//! Logical regions with first-class partitioning — the programming-model
//! substrate control replication leverages (§2 of *Control Replication*,
//! SC'17).
//!
//! * [`forest`] — the region forest: regions, partitions, region trees,
//!   and the static disjointness analysis of §2.3.
//! * [`ops`] — the partitioning sublanguage: `block`, `image`,
//!   `preimage`, `by_color`, restriction and color-wise set operations,
//!   with per-operator static disjointness classification.
//! * [`field`] — field spaces (per-element payload schemas).
//! * [`instance`] — physical instances (columnar storage of one
//!   domain × one field space) and [`view`] — their fields bound once
//!   and indexed at accessor speed, which is how kernels touch data.
//! * [`hierarchy`] — the private/ghost hierarchical region trees of
//!   §4.5.
//! * [`intersect`] — dynamic shallow/complete region intersections
//!   (§3.3), accelerated by an [`interval`] tree (unstructured) and a
//!   [`bvh`] (structured).
//! * [`checksum`] — the striped FNV-1a hasher the integrity layer
//!   seals instances and frames exchange payloads with.

#![warn(missing_docs)]

pub mod bvh;
pub mod checksum;
pub mod field;
pub mod forest;
pub mod hierarchy;
pub mod instance;
pub mod intersect;
pub mod interval;
pub mod ops;
pub mod view;

pub use checksum::{striped_fnv, StripedFnv};
pub use field::{FieldDef, FieldId, FieldSpace, FieldType};
pub use forest::{Color, Disjointness, PartitionId, RegionForest, RegionId};
pub use hierarchy::{private_ghost_split, PrivateGhost};
pub use instance::{
    copy_fields, reduce_fields, ColumnData, CopyRuns, DomainIndexer, Instance, ReductionOp,
};
pub use intersect::{CompleteIntersection, OverlapPair};
pub use view::{Element, FieldView, Read, ReadWrite, Readable, Reduce, Row, Rows, Run};

// Re-export the geometric vocabulary for downstream convenience.
pub use regent_geometry::{Domain, DynPoint, DynRect};
