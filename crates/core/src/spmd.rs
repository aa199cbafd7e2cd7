//! The SPMD target form produced by control replication.
//!
//! A [`SpmdProgram`] is the Fig. 4d result: a single *shard body* that
//! every shard executes with its own slice of each launch domain, plus
//! the allocation tables (partition instances, whole-region replicas,
//! reduction temporaries) and the intersection declarations the runtime
//! evaluates dynamically (§3.3). Synchronization is implicit in the
//! consumer-applied copy protocol (§3.4): the producer shard of a copy
//! pair sends, the consumer shard receives and applies at its own copy
//! point — receives are the point-to-point synchronization, and an
//! optional global-barrier mode reproduces the naive Fig. 4c scheme for
//! ablation.

use crate::image::ImagePool;
use crate::schedule::{build_exchange_plan, ExchangeSchedule};
use regent_ir::{ScalarExpr, ScalarId, TaskDecl, TaskId};
use regent_region::{Color, FieldId, PartitionId, ReductionOp, RegionForest, RegionId};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Index into [`SpmdProgram::launch_domains`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DomainId(pub u32);

/// Index into [`SpmdProgram::temps`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TempId(pub u32);

/// Index into [`SpmdProgram::intersects`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IntersectId(pub u32);

/// Unique id of a copy statement (stable across placement passes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CopyId(pub u32);

/// Unique id of a launch statement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LaunchId(pub u32);

/// A *data use*: the storage-bearing entity a shard allocates instances
/// for. Copies and intersections are declared between uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UseBase {
    /// A partition: shard `x` holds one instance per owned color.
    Part(PartitionId),
    /// A whole region replicated on every shard.
    Whole(RegionId),
}

/// Allocation record for one use.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// What is being allocated.
    pub base: UseBase,
    /// The launch domain whose block distribution assigns ownership of
    /// partition colors (unused for whole-region uses).
    pub domain: DomainId,
    /// Union of all fields accessed through this use.
    pub fields: Vec<FieldId>,
    /// True when some launch reads through this use.
    pub reads: bool,
    /// True when some launch writes through this use.
    pub writes: bool,
    /// True when some launch reduces through this use.
    pub reduces: bool,
}

impl UseDecl {
    /// Instances are materialized only for uses that are read or
    /// written directly; reduce-only uses exist purely as temp shapes.
    pub fn needs_instances(&self) -> bool {
        self.reads || self.writes
    }
}

/// A reduction temporary (§4.3): per-launch-point storage initialized to
/// the operator identity, folded into destination instances by reduction
/// copies.
#[derive(Clone, Debug)]
pub struct TempDecl {
    /// The shape of the temp: one instance per owned color of the
    /// partition, or one whole-region instance per shard.
    pub base: UseBase,
    /// The launch domain assigning ownership.
    pub domain: DomainId,
    /// Reduction operator.
    pub op: ReductionOp,
    /// Fields reduced.
    pub fields: Vec<FieldId>,
}

/// Source of a copy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CopySource {
    /// A use's instances (normal coherence copy).
    Use(usize),
    /// A reduction temp (reduction copy, §4.3).
    Temp(TempId),
}

/// An intersection declaration: the runtime computes, once at startup
/// (the paper's LICM hoists them there, §3.3), the shallow pair list and
/// the per-pair exact element sets between two use/temp shapes.
#[derive(Clone, Debug)]
pub struct IntersectDecl {
    /// Source shape.
    pub src: CopySource,
    /// Destination use (index into [`SpmdProgram::uses`]).
    pub dst: usize,
}

/// A copy statement: move (or fold) field data from `src` to `dst` over
/// the precomputed intersection pairs.
#[derive(Clone, Debug)]
pub struct CopyStmt {
    /// Stable id.
    pub id: CopyId,
    /// Source shape.
    pub src: CopySource,
    /// Destination use (index into [`SpmdProgram::uses`]).
    pub dst: usize,
    /// Fields moved.
    pub fields: Vec<FieldId>,
    /// `Some(op)` makes this a reduction copy.
    pub reduction: Option<ReductionOp>,
    /// Which precomputed intersection drives the pair list.
    pub intersection: IntersectId,
}

/// One region argument of an SPMD launch.
#[derive(Clone, Copy, Debug)]
pub enum SpmdArg {
    /// Read or write through a use's instances.
    Use(usize),
    /// Fold into a reduction temp.
    Temp(TempId),
}

/// An index launch restricted to the executing shard's owned colors.
#[derive(Clone, Debug)]
pub struct SpmdLaunch {
    /// Stable id.
    pub id: LaunchId,
    /// The task.
    pub task: TaskId,
    /// The launch domain (ownership splitter).
    pub domain: DomainId,
    /// Region arguments.
    pub args: Vec<SpmdArg>,
    /// Scalar arguments (evaluated in the shard's replicated env).
    pub scalar_args: Vec<ScalarExpr>,
    /// Local scalar reduction; the matching [`SpmdStmt::AllReduce`] is
    /// emitted immediately after by the transform (§4.4).
    pub reduce_result: Option<(ScalarId, ReductionOp)>,
}

/// A statement of the replicated shard body.
#[derive(Clone, Debug)]
pub enum SpmdStmt {
    /// Launch the shard's owned points of an index launch.
    Launch(SpmdLaunch),
    /// Exchange/fold data between shards.
    Copy(CopyStmt),
    /// Reset a reduction temp to the operator identity.
    ResetTemp(TempId),
    /// Fold a scalar across all shards with a dynamic collective
    /// (§4.4) and broadcast the result.
    AllReduce {
        /// The scalar variable.
        var: ScalarId,
        /// Fold operator.
        op: ReductionOp,
    },
    /// Replicated scalar assignment.
    SetScalar {
        /// Destination.
        var: ScalarId,
        /// Value.
        expr: ScalarExpr,
    },
    /// Counted loop (replicated trip count).
    For {
        /// Trip count expression.
        count: ScalarExpr,
        /// Body.
        body: Vec<SpmdStmt>,
    },
    /// While loop (replicated condition).
    While {
        /// Condition.
        cond: ScalarExpr,
        /// Body.
        body: Vec<SpmdStmt>,
    },
    /// Conditional (replicated condition).
    If {
        /// Condition.
        cond: ScalarExpr,
        /// Then branch.
        then_body: Vec<SpmdStmt>,
        /// Else branch.
        else_body: Vec<SpmdStmt>,
    },
    /// Global barrier — emitted only in the naive synchronization mode
    /// (Fig. 4c) for the ablation study.
    Barrier,
}

/// Statistics reported by the transform passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrStats {
    /// Coherence copies inserted by data replication (§3.1).
    pub copies_inserted: usize,
    /// Reduction copies inserted (§4.3).
    pub reduction_copies_inserted: usize,
    /// Copies removed as redundant (available-copy analysis, §3.2).
    pub copies_removed_redundant: usize,
    /// Copies removed as dead (liveness, §3.2).
    pub copies_removed_dead: usize,
    /// Copy pairs statically skipped because the region tree proves the
    /// partitions disjoint (§3.1 / §4.5).
    pub pairs_proven_disjoint: usize,
    /// Scalar collectives emitted (§4.4).
    pub scalar_collectives: usize,
    /// Barriers emitted (naive mode only).
    pub barriers: usize,
}

impl CrStats {
    /// Records the transform's statistics as `Counter` events on a
    /// `cr-stats` track, so compile-time decisions (copies inserted and
    /// removed, pairs proven disjoint) land in the same trace file as
    /// the execution they shaped.
    pub fn emit_trace(&self, tracer: &std::sync::Arc<regent_trace::Tracer>) {
        let mut tb = tracer.buffer("cr-stats");
        let counters: [(&'static str, usize); 7] = [
            ("copies_inserted", self.copies_inserted),
            ("reduction_copies_inserted", self.reduction_copies_inserted),
            ("copies_removed_redundant", self.copies_removed_redundant),
            ("copies_removed_dead", self.copies_removed_dead),
            ("pairs_proven_disjoint", self.pairs_proven_disjoint),
            ("scalar_collectives", self.scalar_collectives),
            ("barriers", self.barriers),
        ];
        for (i, (name, v)) in counters.into_iter().enumerate() {
            tb.push(
                i as u64,
                0,
                regent_trace::EventKind::Counter {
                    name,
                    value: v as f64,
                },
            );
        }
        tb.flush();
    }
}

/// A [`regent_trace::OverlapOracle`] backed by the real region forest:
/// two regions may alias only when they belong to the same tree and
/// their domains actually intersect. This is what lets the Spy
/// validator skip access pairs the region system proves independent.
pub struct ForestOracle<'a> {
    forest: &'a RegionForest,
}

impl<'a> ForestOracle<'a> {
    /// Creates an oracle over `forest`.
    pub fn new(forest: &'a RegionForest) -> Self {
        ForestOracle { forest }
    }
}

impl regent_trace::OverlapOracle for ForestOracle<'_> {
    fn overlaps(&self, a: u32, b: u32) -> bool {
        let n = self.forest.num_regions() as u32;
        if a >= n || b >= n {
            // Unknown region ids: stay conservative.
            return true;
        }
        let (a, b) = (RegionId(a), RegionId(b));
        self.forest.root_of(a) == self.forest.root_of(b) && !self.forest.dynamically_disjoint(a, b)
    }
}

/// The complete SPMD program: replicated body + allocation and
/// intersection tables.
pub struct SpmdProgram {
    /// The region forest (moved from the source program, possibly with
    /// normalization partitions added).
    pub forest: RegionForest,
    /// Task declarations (shared with the source).
    pub tasks: Vec<TaskDecl>,
    /// Scalar declarations.
    pub scalars: Vec<regent_ir::ScalarDecl>,
    /// Number of shards the body was compiled for.
    pub num_shards: usize,
    /// Deduplicated launch domains (color lists).
    pub launch_domains: Vec<Vec<Color>>,
    /// Data uses (instance allocation table).
    pub uses: Vec<UseDecl>,
    /// Reduction temporaries.
    pub temps: Vec<TempDecl>,
    /// Intersection declarations the runtime evaluates at startup.
    pub intersects: Vec<IntersectDecl>,
    /// The replicated shard body.
    pub body: Vec<SpmdStmt>,
    /// Transform statistics.
    pub stats: CrStats,
    /// The memoized exchange schedule ([`SpmdProgram::schedule`]).
    pub(crate) schedule: Mutex<Option<Arc<ExchangeSchedule>>>,
    /// The shard images idle between runs ([`SpmdProgram::take_image`]),
    /// under the schedule's rule: built on first use, keyed on
    /// `num_shards`, dropped with the program.
    pub(crate) images: ImagePool,
}

impl SpmdProgram {
    /// The program's exchange schedule: evaluated on first use, then
    /// shared read-only by every shard of every run of every executor.
    /// Also says whether this call had to build it.
    ///
    /// The schedule is a function of the forest, the launch domains,
    /// the use/temp/intersection tables and `num_shards`. Only
    /// `num_shards` is ever changed after compilation (failover shrinks
    /// it in place), so it is the cache key: a schedule built for
    /// another shard count is replaced.
    pub fn schedule(&self) -> (Arc<ExchangeSchedule>, bool) {
        let mut slot = self
            .schedule
            .lock()
            .expect("an earlier schedule build panicked");
        if let Some(hit) = slot.as_ref().filter(|s| s.num_shards == self.num_shards) {
            return (Arc::clone(hit), false);
        }
        let built = Arc::new(build_exchange_plan(self));
        *slot = Some(Arc::clone(&built));
        (built, true)
    }

    /// The task declaration for `t`.
    pub fn task(&self, t: TaskId) -> &TaskDecl {
        &self.tasks[t.0 as usize]
    }

    /// The colors shard `shard` owns within launch domain `d`
    /// (§3.5: `SI = block(I, X)` — a block split of the color list).
    pub fn owned_colors(&self, d: DomainId, shard: usize) -> &[Color] {
        let domain = &self.launch_domains[d.0 as usize];
        let (start, end) = block_range(domain.len(), self.num_shards, shard);
        &domain[start..end]
    }

    /// The shard owning position `pos` of launch domain `d`.
    pub fn owner_of_pos(&self, d: DomainId, pos: usize) -> usize {
        owner_of(
            self.launch_domains[d.0 as usize].len(),
            self.num_shards,
            pos,
        )
    }

    /// The shard owning color `c` of launch domain `d`, or `None` when
    /// the color is not in the domain.
    pub fn owner_of_color(&self, d: DomainId, c: Color) -> Option<usize> {
        let domain = &self.launch_domains[d.0 as usize];
        domain
            .iter()
            .position(|&x| x == c)
            .map(|pos| self.owner_of_pos(d, pos))
    }

    /// Total number of copy statements in the body.
    pub fn count_copies(&self) -> usize {
        fn walk(stmts: &[SpmdStmt], n: &mut usize) {
            for s in stmts {
                match s {
                    SpmdStmt::Copy(_) => *n += 1,
                    SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => walk(body, n),
                    SpmdStmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, n);
                        walk(else_body, n);
                    }
                    _ => {}
                }
            }
        }
        let mut n = 0;
        walk(&self.body, &mut n);
        n
    }
}

/// The `[start, end)` slice of `len` items that block-distribution
/// assigns to `shard` out of `num_shards` (remainder spread over the
/// leading shards, matching `Rect::block_split`).
pub fn block_range(len: usize, num_shards: usize, shard: usize) -> (usize, usize) {
    let base = len / num_shards;
    let rem = len % num_shards;
    let start = shard * base + shard.min(rem);
    let size = base + usize::from(shard < rem);
    (start, start + size)
}

/// The shard owning position `pos` under block distribution.
pub fn owner_of(len: usize, num_shards: usize, pos: usize) -> usize {
    debug_assert!(pos < len);
    let base = len / num_shards;
    let rem = len % num_shards;
    let big = rem * (base + 1);
    if pos < big {
        pos / (base + 1)
    } else {
        // base == 0 here would mean more shards than items, in which
        // case every position is below `big`.
        debug_assert!(
            base > 0,
            "position {pos} beyond block distribution of {len} items"
        );
        rem + (pos - big) / base
    }
}

impl fmt::Debug for SpmdProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SpmdProgram: {} shards, {} uses, {} temps, {} intersections, {} copies",
            self.num_shards,
            self.uses.len(),
            self.temps.len(),
            self.intersects.len(),
            self.count_copies()
        )?;
        fmt_stmts(f, &self.body, 2)
    }
}

fn fmt_stmts(f: &mut fmt::Formatter<'_>, stmts: &[SpmdStmt], indent: usize) -> fmt::Result {
    for s in stmts {
        match s {
            SpmdStmt::Launch(l) => writeln!(
                f,
                "{:indent$}launch {:?} task={:?} args={:?}",
                "",
                l.id,
                l.task,
                l.args,
                indent = indent
            )?,
            SpmdStmt::Copy(c) => writeln!(
                f,
                "{:indent$}copy {:?} {:?} -> use#{} {}",
                "",
                c.id,
                c.src,
                c.dst,
                if c.reduction.is_some() {
                    "(reduce)"
                } else {
                    ""
                },
                indent = indent
            )?,
            SpmdStmt::ResetTemp(t) => writeln!(f, "{:indent$}reset {:?}", "", t, indent = indent)?,
            SpmdStmt::AllReduce { var, op } => writeln!(
                f,
                "{:indent$}allreduce {:?} {:?}",
                "",
                var,
                op,
                indent = indent
            )?,
            SpmdStmt::SetScalar { var, expr } => {
                writeln!(f, "{:indent$}{var:?} = {expr:?}", "", indent = indent)?
            }
            SpmdStmt::For { count, body } => {
                writeln!(f, "{:indent$}for {count:?}:", "", indent = indent)?;
                fmt_stmts(f, body, indent + 2)?;
            }
            SpmdStmt::While { cond, body } => {
                writeln!(f, "{:indent$}while {cond:?}:", "", indent = indent)?;
                fmt_stmts(f, body, indent + 2)?;
            }
            SpmdStmt::If {
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
            SpmdStmt::Barrier => writeln!(f, "{:indent$}barrier", "", indent = indent)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_all() {
        for len in [0usize, 1, 5, 10, 17] {
            for ns in [1usize, 2, 3, 7] {
                let mut covered = 0;
                let mut prev_end = 0;
                for s in 0..ns {
                    let (a, b) = block_range(len, ns, s);
                    assert_eq!(a, prev_end);
                    prev_end = b;
                    covered += b - a;
                }
                assert_eq!(covered, len, "len={len} ns={ns}");
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn owner_matches_range() {
        for len in [1usize, 4, 9, 16, 23] {
            for ns in [1usize, 2, 3, 5, 8] {
                for pos in 0..len {
                    let owner = owner_of(len, ns, pos);
                    let (a, b) = block_range(len, ns, owner);
                    assert!(a <= pos && pos < b, "len={len} ns={ns} pos={pos}");
                }
            }
        }
    }

    #[test]
    fn balanced_distribution() {
        // Sizes differ by at most one.
        for len in [10usize, 11, 99] {
            for ns in [3usize, 4, 7] {
                let sizes: Vec<usize> = (0..ns)
                    .map(|s| {
                        let (a, b) = block_range(len, ns, s);
                        b - a
                    })
                    .collect();
                let mx = sizes.iter().max().unwrap();
                let mn = sizes.iter().min().unwrap();
                assert!(mx - mn <= 1);
            }
        }
    }
}
