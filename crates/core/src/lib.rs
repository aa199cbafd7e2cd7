//! # regent-cr — control replication
//!
//! The paper's primary contribution (*Control Replication: Compiling
//! Implicit Parallelism to Efficient SPMD with Logical Regions*,
//! SC'17): a compiler transformation turning implicitly parallel
//! programs over logical regions into long-running SPMD shards with
//! explicit copies and point-to-point synchronization.
//!
//! * [`analysis`] — partition-granularity access collection, the
//!   region-tree disjointness test lifted to uses, and target detection
//!   (§2.2–2.3).
//! * [`replicate`] — the transform pipeline: data replication (§3.1),
//!   region reductions (§4.3), scalar reductions (§4.4),
//!   synchronization insertion (§3.4), shard creation (§3.5).
//! * [`placement`] — copy placement optimization (§3.2).
//! * [`spmd`] — the SPMD target form, including the intersection
//!   declarations evaluated dynamically at startup (§3.3).
//! * [`schedule`] — that evaluation: the exchange pairs and their
//!   storage runs, memoized per compiled program.
//! * [`image`] — a shard's instances, mapped once per compiled program:
//!   the slot layout, the instances kept between runs, and the run
//!   lists that fill them from the store and flush them back.
//!
//! Execution engines for the SPMD form live in `regent-runtime`; a
//! discrete-event distributed machine model lives in `regent-machine`.

#![warn(missing_docs)]

pub mod analysis;
pub mod hybrid;
pub mod image;
pub mod placement;
pub mod replicate;
pub mod schedule;
pub mod spmd;

pub use analysis::{bases_provably_disjoint, collect_accesses, find_replicable_ranges};
pub use hybrid::{replicate_ranges, HybridProgram, Segment};
pub use image::{shard_layouts, ShardImage, ShardLayout, SlotInfo};
pub use placement::MembershipRemap;
pub use replicate::{control_replicate, CrOptions, SyncMode};
pub use schedule::{build_exchange_plan, ExchangeSchedule, InstKey, SetupStats};
pub use spmd::{
    block_range, owner_of, CopyId, CopySource, CopyStmt, DomainId, ForestOracle, IntersectId,
    LaunchId, SpmdArg, SpmdLaunch, SpmdProgram, SpmdStmt, TempId, UseBase, UseDecl,
};
