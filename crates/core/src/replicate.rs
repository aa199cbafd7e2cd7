//! The control replication transform (§3).
//!
//! Pipeline, mirroring the paper's phases:
//!
//! 1. *Target checks* — validation, projection normalization (§2.2),
//!    access collection (§2.3).
//! 2. *Data replication* (§3.1) — every use gets its own storage;
//!    coherence copies are inserted after each writing launch toward
//!    every aliased read use; statically-disjoint pairs are skipped
//!    using the region tree (this is where hierarchical private/ghost
//!    trees, §4.5, pay off).
//! 3. *Region reductions* (§4.3) — reduce-privilege arguments are
//!    redirected to identity-initialized temporaries; reduction copies
//!    fold them into every overlapping instance.
//! 4. *Scalar reductions* (§4.4) — index launches returning scalars
//!    fold locally, then a dynamic collective folds across shards.
//! 5. *Copy placement* (§3.2) — redundant and dead copies are removed
//!    (see [`crate::placement`]).
//! 6. *Synchronization* (§3.4) — the default consumer-applied protocol
//!    needs no separate statements (receives are the point-to-point
//!    sync); the naive mode brackets every copy with global barriers as
//!    in Fig. 4c.
//! 7. *Shard creation* (§3.5) — the body is emitted once; ownership is
//!    a block distribution of each launch domain over `num_shards`.

use crate::analysis::{bases_provably_disjoint, collect_accesses, AccessSummary, CrError};
use crate::placement;
use crate::spmd::{
    CopyId, CopySource, CopyStmt, CrStats, DomainId, IntersectDecl, IntersectId, LaunchId, SpmdArg,
    SpmdLaunch, SpmdProgram, SpmdStmt, TempDecl, TempId, UseBase, UseDecl,
};
use regent_geometry::Domain;
use regent_ir::{normalize_projections, validate, Privilege, Program, RegionArg, Stmt};
use regent_region::{Color, RegionForest};
use regent_trace::{EventKind, TraceBuf, Tracer};
use std::collections::HashMap;

/// Synchronization strategy (§3.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SyncMode {
    /// Point-to-point: the consumer-applied copy protocol synchronizes
    /// exactly the shards with non-empty intersections.
    #[default]
    PointToPoint,
    /// Naive global barriers around every copy (Fig. 4c) — ablation.
    Barrier,
}

/// Options controlling the transform (the ablation switches of
/// DESIGN.md).
#[derive(Clone, Debug)]
pub struct CrOptions {
    /// Number of shards to compile for (§3.5: `NS`).
    pub num_shards: usize,
    /// Synchronization strategy.
    pub sync: SyncMode,
    /// Run the copy placement optimizations of §3.2.
    pub optimize_placement: bool,
    /// Use the region tree to statically skip copies between provably
    /// disjoint uses (§3.1); disabling emits copies between all pairs.
    pub skip_disjoint_pairs: bool,
}

impl CrOptions {
    /// Default options for `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        CrOptions {
            num_shards,
            sync: SyncMode::PointToPoint,
            optimize_placement: true,
            skip_disjoint_pairs: true,
        }
    }
}

/// The dynamic footprint of a use: the union of elements its instances
/// cover.
fn use_footprint(forest: &RegionForest, base: UseBase) -> Domain {
    match base {
        UseBase::Part(p) => regent_region::ops::union_of_children(forest, p),
        UseBase::Whole(r) => forest.domain(r).clone(),
    }
}

struct Builder<'a> {
    program: &'a Program,
    opts: &'a CrOptions,
    uses: Vec<UseDecl>,
    use_index: HashMap<UseBase, usize>,
    launch_domains: Vec<Vec<Color>>,
    domain_index: HashMap<Vec<Color>, DomainId>,
    temps: Vec<TempDecl>,
    intersects: Vec<IntersectDecl>,
    intersect_index: HashMap<(CopySource, usize), IntersectId>,
    next_copy: u32,
    next_launch: u32,
    stats: CrStats,
}

impl<'a> Builder<'a> {
    fn domain_id(&mut self, colors: &[Color]) -> DomainId {
        if let Some(&d) = self.domain_index.get(colors) {
            return d;
        }
        let d = DomainId(self.launch_domains.len() as u32);
        self.launch_domains.push(colors.to_vec());
        self.domain_index.insert(colors.to_vec(), d);
        d
    }

    fn intersect_id(&mut self, src: CopySource, dst: usize) -> IntersectId {
        if let Some(&i) = self.intersect_index.get(&(src, dst)) {
            return i;
        }
        let i = IntersectId(self.intersects.len() as u32);
        self.intersects.push(IntersectDecl { src, dst });
        self.intersect_index.insert((src, dst), i);
        i
    }

    fn temp_id(
        &mut self,
        base: UseBase,
        domain: DomainId,
        op: regent_region::ReductionOp,
        fields: &[regent_region::FieldId],
    ) -> TempId {
        if let Some(i) = self
            .temps
            .iter()
            .position(|t| t.base == base && t.domain == domain && t.op == op && t.fields == fields)
        {
            return TempId(i as u32);
        }
        let tid = TempId(self.temps.len() as u32);
        self.temps.push(TempDecl {
            base,
            domain,
            op,
            fields: fields.to_vec(),
        });
        tid
    }

    fn fresh_copy_id(&mut self) -> CopyId {
        let id = CopyId(self.next_copy);
        self.next_copy += 1;
        id
    }

    fn fresh_launch_id(&mut self) -> LaunchId {
        let id = LaunchId(self.next_launch);
        self.next_launch += 1;
        id
    }

    /// Destination uses that a write/reduction through `base` must be
    /// propagated to: every instance-bearing use not statically proven
    /// disjoint (excluding `base`'s own instances, which the writer
    /// updates directly — for-writes only).
    fn copy_targets(&self, base: UseBase, include_self: bool) -> Vec<usize> {
        let forest = &self.program.forest;
        let root = forest.root_of(crate::analysis::base_region(forest, base));
        self.uses
            .iter()
            .enumerate()
            .filter(|(_, u)| u.needs_instances())
            .filter(|(_, u)| include_self || u.base != base)
            // Uses of a different region tree hold unrelated data and
            // are never copy targets, with or without the static
            // disjointness optimization.
            .filter(|(_, u)| forest.root_of(crate::analysis::base_region(forest, u.base)) == root)
            .filter(|(_, u)| {
                if self.opts.skip_disjoint_pairs {
                    !bases_provably_disjoint(forest, base, u.base)
                } else {
                    true
                }
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn transform_stmts(&mut self, stmts: &[Stmt]) -> Vec<SpmdStmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::IndexLaunch(il) => self.transform_launch(il, &mut out),
                Stmt::SingleLaunch(_) => {
                    unreachable!("single launches rejected by collect_accesses")
                }
                Stmt::For { count, body } => {
                    let body = self.transform_stmts(body);
                    out.push(SpmdStmt::For {
                        count: count.clone(),
                        body,
                    });
                }
                Stmt::While { cond, body } => {
                    let body = self.transform_stmts(body);
                    out.push(SpmdStmt::While {
                        cond: cond.clone(),
                        body,
                    });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let then_body = self.transform_stmts(then_body);
                    let else_body = self.transform_stmts(else_body);
                    out.push(SpmdStmt::If {
                        cond: cond.clone(),
                        then_body,
                        else_body,
                    });
                }
                Stmt::SetScalar { var, expr } => out.push(SpmdStmt::SetScalar {
                    var: *var,
                    expr: expr.clone(),
                }),
            }
        }
        out
    }

    fn transform_launch(&mut self, il: &regent_ir::IndexLaunch, out: &mut Vec<SpmdStmt>) {
        let decl = self.program.task(il.task);
        let domain = self.domain_id(&il.launch_domain);
        let mut args = Vec::with_capacity(il.args.len());
        // (base, temp) pairs for post-launch reduction copies, and the
        // bases written read-write for post-launch coherence copies.
        let mut reduction_sources: Vec<(UseBase, TempId)> = Vec::new();
        let mut written_bases: Vec<(UseBase, Vec<regent_region::FieldId>)> = Vec::new();
        for (idx, arg) in il.args.iter().enumerate() {
            let param = &decl.params[idx];
            let base = match arg {
                RegionArg::Part(p) => UseBase::Part(*p),
                RegionArg::Region(r) => UseBase::Whole(*r),
                RegionArg::PartProj(..) => unreachable!("normalized"),
            };
            match param.privilege {
                Privilege::Read | Privilege::ReadWrite => {
                    let u = self.use_index[&base];
                    args.push(SpmdArg::Use(u));
                    if matches!(param.privilege, Privilege::ReadWrite) {
                        written_bases.push((base, param.fields.clone()));
                    }
                }
                Privilege::Reduce(op) => {
                    // §4.3: an identity-initialized temporary, reset
                    // before this launch. Temps with identical shape
                    // (base, domain, operator, fields) are shared
                    // across launch sites: a shard executes its body
                    // sequentially and every site brackets the temp
                    // with reset…apply, so live ranges never overlap.
                    let tid = self.temp_id(base, domain, op, &param.fields);
                    out.push(SpmdStmt::ResetTemp(tid));
                    args.push(SpmdArg::Temp(tid));
                    reduction_sources.push((base, tid));
                }
            }
        }
        out.push(SpmdStmt::Launch(SpmdLaunch {
            id: self.fresh_launch_id(),
            task: il.task,
            domain,
            args,
            scalar_args: il.scalar_args.clone(),
            reduce_result: il.reduce_result,
        }));
        if let Some((var, op)) = il.reduce_result {
            out.push(SpmdStmt::AllReduce { var, op });
            self.stats.scalar_collectives += 1;
        }
        // §3.1: propagate written fields to every aliased use.
        for (base, written_fields) in written_bases {
            let targets = self.copy_targets(base, false);
            let total_candidates = self
                .uses
                .iter()
                .filter(|u| u.needs_instances() && u.base != base)
                .count();
            self.stats.pairs_proven_disjoint += total_candidates - targets.len();
            let src_use = self.use_index[&base];
            for dst in targets {
                // Field-granular interference: only the written fields
                // that the destination also touches move.
                let fields: Vec<_> = written_fields
                    .iter()
                    .copied()
                    .filter(|f| self.uses[dst].fields.contains(f))
                    .collect();
                if fields.is_empty() {
                    continue;
                }
                let id = self.fresh_copy_id();
                let intersection = self.intersect_id(CopySource::Use(src_use), dst);
                self.emit_copy(
                    out,
                    CopyStmt {
                        id,
                        src: CopySource::Use(src_use),
                        dst,
                        fields,
                        reduction: None,
                        intersection,
                    },
                );
                self.stats.copies_inserted += 1;
            }
        }
        // §4.3: fold every temporary into all overlapping instances.
        for (base, tid) in reduction_sources {
            let op = self.temps[tid.0 as usize].op;
            let targets = self.copy_targets(base, true);
            for dst in targets {
                let id = self.fresh_copy_id();
                let intersection = self.intersect_id(CopySource::Temp(tid), dst);
                let fields = self.temps[tid.0 as usize]
                    .fields
                    .iter()
                    .copied()
                    .filter(|f| self.uses[dst].fields.contains(f))
                    .collect::<Vec<_>>();
                if fields.is_empty() {
                    continue;
                }
                self.emit_copy(
                    out,
                    CopyStmt {
                        id,
                        src: CopySource::Temp(tid),
                        dst,
                        fields,
                        reduction: Some(op),
                        intersection,
                    },
                );
                self.stats.reduction_copies_inserted += 1;
            }
        }
    }

    fn emit_copy(&mut self, out: &mut Vec<SpmdStmt>, copy: CopyStmt) {
        if self.opts.sync == SyncMode::Barrier {
            // Fig. 4c: a barrier before the copy (write-after-read) and
            // one after (read-after-write).
            out.push(SpmdStmt::Barrier);
            out.push(SpmdStmt::Copy(copy));
            out.push(SpmdStmt::Barrier);
            self.stats.barriers += 2;
        } else {
            out.push(SpmdStmt::Copy(copy));
        }
    }
}

/// Runs control replication on a whole program, producing its SPMD
/// equivalent.
///
/// The entire body must satisfy the target requirements of §2.2; use
/// [`crate::analysis::find_replicable_ranges`] to locate eligible
/// fragments of mixed programs first.
pub fn control_replicate(program: Program, opts: &CrOptions) -> Result<SpmdProgram, CrError> {
    let tracer = Tracer::disabled();
    control_replicate_traced(program, opts, &mut tracer.buffer("cr"))
}

/// [`control_replicate`] recording one `Pass` span per compiler phase
/// into `tb` — the CR pipeline's own compile-time profile.
pub fn control_replicate_traced(
    mut program: Program,
    opts: &CrOptions,
    tb: &mut TraceBuf,
) -> Result<SpmdProgram, CrError> {
    if opts.num_shards == 0 {
        return Err(CrError("num_shards must be positive".into()));
    }
    let t0 = tb.now();
    if let Err(errs) = validate(&program) {
        return Err(CrError(format!("program invalid: {}", errs[0].0)));
    }
    tb.span_since(t0, EventKind::Pass { name: "validate" });
    let t0 = tb.now();
    normalize_projections(&mut program);
    tb.span_since(
        t0,
        EventKind::Pass {
            name: "normalize-projections",
        },
    );
    let t0 = tb.now();
    let summaries = collect_accesses(&program, &program.body)?;
    tb.span_since(
        t0,
        EventKind::Pass {
            name: "collect-accesses",
        },
    );
    let t0 = tb.now();
    check_coverage(&program.forest, &summaries)?;
    tb.span_since(
        t0,
        EventKind::Pass {
            name: "check-coverage",
        },
    );

    let mut b = Builder {
        program: &program,
        opts,
        uses: Vec::new(),
        use_index: HashMap::new(),
        launch_domains: Vec::new(),
        domain_index: HashMap::new(),
        temps: Vec::new(),
        intersects: Vec::new(),
        intersect_index: HashMap::new(),
        next_copy: 0,
        next_launch: 0,
        stats: CrStats::default(),
    };
    // Materialize the use table first (copy targets need the full set).
    for s in &summaries {
        let d = b.domain_id(&s.domain);
        let idx = b.uses.len();
        b.uses.push(UseDecl {
            base: s.base,
            domain: d,
            fields: s.fields.clone(),
            reads: s.reads,
            writes: s.writes,
            reduces: !s.reduce_ops.is_empty(),
        });
        b.use_index.insert(s.base, idx);
    }
    let t0 = tb.now();
    let mut body = b.transform_stmts(&program.body);
    tb.span_since(t0, EventKind::Pass { name: "transform" });
    let mut stats = b.stats;
    if opts.optimize_placement {
        let t0 = tb.now();
        let placed = placement::optimize(&mut body, &b.uses, &program.tasks);
        tb.span_since(t0, EventKind::Pass { name: "placement" });
        stats.copies_removed_redundant = placed.removed_redundant;
        stats.copies_removed_dead = placed.removed_dead;
    }
    // Drop intersections orphaned by placement (keep table dense for
    // runtime simplicity; orphans are simply never referenced).
    let Builder {
        uses,
        launch_domains,
        temps,
        intersects,
        ..
    } = b;
    let Program {
        forest,
        tasks,
        scalars,
        ..
    } = program;
    Ok(SpmdProgram {
        forest,
        tasks,
        scalars,
        num_shards: opts.num_shards,
        launch_domains,
        uses,
        temps,
        intersects,
        body,
        stats,
        schedule: Default::default(),
        images: Default::default(),
    })
}

/// Verifies that every element a reduction may touch is covered by some
/// read-write use — otherwise folded contributions would never reach the
/// root store at finalization and sequential semantics would be lost.
fn check_coverage(forest: &RegionForest, summaries: &[AccessSummary]) -> Result<(), CrError> {
    let rw_cover: Vec<(regent_region::RegionId, Domain)> = summaries
        .iter()
        .filter(|s| s.writes)
        .map(|s| {
            let root = forest.root_of(crate::analysis::base_region(forest, s.base));
            (root, use_footprint(forest, s.base))
        })
        .collect();
    for s in summaries.iter().filter(|s| !s.reduce_ops.is_empty()) {
        let root = forest.root_of(crate::analysis::base_region(forest, s.base));
        let fp = use_footprint(forest, s.base);
        let mut rem = fp;
        for (croot, c) in &rw_cover {
            if *croot == root {
                rem = rem.subtract(c);
            }
            if rem.is_empty() {
                break;
            }
        }
        if !rem.is_empty() {
            return Err(CrError(format!(
                "reduction through {:?} touches {} element(s) not covered by any \
                 read-write use; their folded values could never be flushed back \
                 (add a read-write pass over them or widen a written partition)",
                s.base,
                rem.volume()
            )));
        }
    }
    Ok(())
}
