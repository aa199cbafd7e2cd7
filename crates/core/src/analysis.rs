//! Compile-time analysis for control replication (§2.2–2.3).
//!
//! Everything here operates at the granularity of *partitions and
//! privileges*, never individual memory accesses — the property that
//! makes the analysis simple, reliable and guaranteed to succeed for any
//! programmer-specified partitions (§1). The two key products are:
//!
//! * [`collect_accesses`] — the table of data uses (partition/region ×
//!   privilege × fields) appearing in the target statements, and
//! * [`bases_provably_disjoint`] — the region-tree disjointness test
//!   lifted to uses, which decides where coherence copies can be
//!   statically omitted (§3.1, §4.5).

use crate::spmd::UseBase;
use regent_ir::{Privilege, Program, RegionArg, Stmt};
use regent_region::{Color, FieldId, RegionForest};
use std::collections::HashMap;
use std::fmt;

/// An error that makes a program (or statement range) ineligible for
/// control replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrError(pub String);

impl fmt::Display for CrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "control replication error: {}", self.0)
    }
}

impl std::error::Error for CrError {}

/// The access summary of one data use across the whole target range.
#[derive(Debug, Clone)]
pub struct AccessSummary {
    /// The storage-bearing entity.
    pub base: UseBase,
    /// The launch domain (color list) associated with the use. All
    /// launches touching a partition must use the same domain, or
    /// ownership would be ambiguous.
    pub domain: Vec<Color>,
    /// Union of fields accessed.
    pub fields: Vec<FieldId>,
    /// Read somewhere in the range.
    pub reads: bool,
    /// Written somewhere in the range.
    pub writes: bool,
    /// Reduced somewhere in the range (with these operators).
    pub reduce_ops: Vec<regent_region::ReductionOp>,
}

impl AccessSummary {
    fn merge_fields(&mut self, fields: &[FieldId]) {
        for f in fields {
            if !self.fields.contains(f) {
                self.fields.push(*f);
            }
        }
        self.fields.sort_unstable();
    }
}

/// Walks the statements and produces one [`AccessSummary`] per distinct
/// use base, in first-appearance order.
///
/// # Errors
/// * a partition used with two different launch domains;
/// * an unnormalized `p[f(i)]` argument (run
///   [`regent_ir::normalize_projections`] first);
/// * a read-write argument over an aliased partition (the points of the
///   launch would race);
/// * a single launch inside the range (not replicable).
pub fn collect_accesses(program: &Program, stmts: &[Stmt]) -> Result<Vec<AccessSummary>, CrError> {
    let mut order: Vec<UseBase> = Vec::new();
    let mut map: HashMap<UseBase, AccessSummary> = HashMap::new();
    collect_stmts(program, stmts, &mut order, &mut map)?;
    Ok(order.into_iter().map(|b| map.remove(&b).unwrap()).collect())
}

fn collect_stmts(
    program: &Program,
    stmts: &[Stmt],
    order: &mut Vec<UseBase>,
    map: &mut HashMap<UseBase, AccessSummary>,
) -> Result<(), CrError> {
    for s in stmts {
        match s {
            Stmt::IndexLaunch(il) => {
                let decl = program.task(il.task);
                check_intra_launch_parallel(program, il)?;
                for (idx, arg) in il.args.iter().enumerate() {
                    let param = &decl.params[idx];
                    let base = match arg {
                        RegionArg::Part(p) => {
                            if matches!(param.privilege, Privilege::ReadWrite)
                                && program.forest.partition(*p).disjointness
                                    == regent_region::Disjointness::Aliased
                            {
                                return Err(CrError(format!(
                                    "task {} takes read-write argument over aliased \
                                     partition {p:?}; points of the launch may race",
                                    decl.name
                                )));
                            }
                            UseBase::Part(*p)
                        }
                        RegionArg::PartProj(p, _) => {
                            return Err(CrError(format!(
                                "projected argument {p:?}[f(i)] not normalized; run \
                                 normalize_projections before control replication"
                            )));
                        }
                        RegionArg::Region(r) => {
                            if matches!(param.privilege, Privilege::ReadWrite) {
                                return Err(CrError(format!(
                                    "task {} takes whole region {r:?} read-write in an \
                                     index launch",
                                    decl.name
                                )));
                            }
                            UseBase::Whole(*r)
                        }
                    };
                    let entry = map.entry(base).or_insert_with(|| {
                        order.push(base);
                        AccessSummary {
                            base,
                            domain: il.launch_domain.clone(),
                            fields: Vec::new(),
                            reads: false,
                            writes: false,
                            reduce_ops: Vec::new(),
                        }
                    });
                    if matches!(base, UseBase::Part(_)) && entry.domain != il.launch_domain {
                        return Err(CrError(format!(
                            "partition use {base:?} appears under two different launch \
                             domains; shard ownership would be ambiguous"
                        )));
                    }
                    entry.merge_fields(&param.fields);
                    match param.privilege {
                        Privilege::Read => entry.reads = true,
                        Privilege::ReadWrite => {
                            entry.reads = true;
                            entry.writes = true;
                        }
                        Privilege::Reduce(op) => {
                            if !entry.reduce_ops.contains(&op) {
                                entry.reduce_ops.push(op);
                            }
                        }
                    }
                }
            }
            Stmt::SingleLaunch(sl) => {
                return Err(CrError(format!(
                    "single launch of task {} inside the replicated range; control \
                     replication targets loops of index launches (§2.2)",
                    program.task(sl.task).name
                )));
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                collect_stmts(program, body, order, map)?
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_stmts(program, then_body, order, map)?;
                collect_stmts(program, else_body, order, map)?;
            }
            Stmt::SetScalar { .. } => {}
        }
    }
    Ok(())
}

/// Rejects index launches whose points depend on each other: §2.2
/// targets "loops of task calls with no loop-carried dependencies" —
/// a point task reading (or writing) elements another point of the
/// *same* launch writes is not a parallel loop, and the sequential
/// semantics of such a launch cannot be preserved by any SPMD schedule
/// that runs its points concurrently.
///
/// Interference is field-granular (Regent privileges are per-field): a
/// halo read of field `in` never conflicts with a write of field `out`
/// even over the same elements.
fn check_intra_launch_parallel(
    program: &Program,
    il: &regent_ir::IndexLaunch,
) -> Result<(), CrError> {
    let decl = program.task(il.task);
    let arg_base = |arg: &RegionArg| match arg {
        RegionArg::Part(p) => Some(UseBase::Part(*p)),
        RegionArg::Region(r) => Some(UseBase::Whole(*r)),
        RegionArg::PartProj(..) => None,
    };
    for i in 0..il.args.len() {
        for j in (i + 1)..il.args.len() {
            let (pi, pj) = (&decl.params[i], &decl.params[j]);
            if pi.privilege.compatible(&pj.privilege) {
                continue;
            }
            if !pi.fields.iter().any(|f| pj.fields.contains(f)) {
                continue;
            }
            let (Some(bi), Some(bj)) = (arg_base(&il.args[i]), arg_base(&il.args[j])) else {
                continue; // projections are checked post-normalization
            };
            if !bases_provably_disjoint(&program.forest, bi, bj) {
                return Err(CrError(format!(
                    "task {}: arguments {i} and {j} may overlap with incompatible \
                     privileges on shared fields — the points of this index launch \
                     are not independent (§2.2 requires parallel inner loops)",
                    decl.name
                )));
            }
        }
    }
    Ok(())
}

/// The region a use base covers (the partition's parent or the region
/// itself).
pub fn base_region(forest: &RegionForest, base: UseBase) -> regent_region::RegionId {
    match base {
        UseBase::Part(p) => forest.partition(p).parent,
        UseBase::Whole(r) => r,
    }
}

/// Lifts the region-tree disjointness test of §2.3 to use bases: `true`
/// only when *no* subregion of `a` can share an element with any
/// subregion of `b`.
///
/// Two different partitions (or a partition and a whole region) are
/// proven disjoint exactly when their covering regions are proven
/// disjoint by the tree — which is what makes the hierarchical
/// private/ghost pattern of §4.5 effective: partitions living under the
/// `all_private` subtree are statically non-interfering with partitions
/// under `all_ghost`.
pub fn bases_provably_disjoint(forest: &RegionForest, a: UseBase, b: UseBase) -> bool {
    if a == b {
        // Same-base interference is decided by the partition's own
        // disjointness (a disjoint partition cannot interfere with
        // itself across colors).
        return match a {
            UseBase::Part(p) => {
                forest.partition(p).disjointness == regent_region::Disjointness::Disjoint
            }
            // A whole region trivially overlaps itself.
            UseBase::Whole(_) => false,
        };
    }
    let ra = base_region(forest, a);
    let rb = base_region(forest, b);
    if forest.provably_disjoint(ra, rb) {
        return true;
    }
    // Finer test: if one covering region is an ancestor of the other (or
    // they are partitions of the same region), compare child-wise using
    // the tree. We conservatively test all child pairs only when both
    // partitions are small; otherwise give up (the dynamic intersection
    // pass will still find zero pairs at runtime).
    const CHILDWISE_LIMIT: usize = 64;
    if let (UseBase::Part(pa), UseBase::Part(pb)) = (a, b) {
        let na = forest.partition(pa).len();
        let nb = forest.partition(pb).len();
        if na * nb <= CHILDWISE_LIMIT * CHILDWISE_LIMIT {
            return forest.partition(pa).child_regions().all(|ca| {
                forest
                    .partition(pb)
                    .child_regions()
                    .all(|cb| forest.provably_disjoint(ca, cb))
            });
        }
    }
    false
}

/// A maximal range of consecutive top-level statements to which control
/// replication applies (§2.2: "the optimization is applied automatically
/// to the largest set of statements that meet the requirements").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicableRange {
    /// Start index (inclusive) in the statement list.
    pub start: usize,
    /// End index (exclusive).
    pub end: usize,
}

/// Finds the maximal replicable ranges of a statement list.
pub fn find_replicable_ranges(program: &Program, stmts: &[Stmt]) -> Vec<ReplicableRange> {
    let mut ranges = Vec::new();
    let mut start = None;
    for (i, s) in stmts.iter().enumerate() {
        let ok = stmt_replicable(program, s);
        match (ok, start) {
            (true, None) => start = Some(i),
            (false, Some(st)) => {
                ranges.push(ReplicableRange { start: st, end: i });
                start = None;
            }
            _ => {}
        }
    }
    if let Some(st) = start {
        ranges.push(ReplicableRange {
            start: st,
            end: stmts.len(),
        });
    }
    ranges
}

fn stmt_replicable(program: &Program, s: &Stmt) -> bool {
    match s {
        Stmt::IndexLaunch(il) => {
            let decl = program.task(il.task);
            il.args.iter().enumerate().all(|(idx, a)| match a {
                RegionArg::Part(p) => {
                    !(matches!(decl.params[idx].privilege, Privilege::ReadWrite)
                        && program.forest.partition(*p).disjointness
                            == regent_region::Disjointness::Aliased)
                }
                RegionArg::PartProj(..) => false,
                RegionArg::Region(_) => !matches!(decl.params[idx].privilege, Privilege::ReadWrite),
            })
        }
        Stmt::SingleLaunch(_) => false,
        Stmt::For { body, .. } | Stmt::While { body, .. } => {
            body.iter().all(|s| stmt_replicable(program, s))
        }
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            then_body.iter().all(|s| stmt_replicable(program, s))
                && else_body.iter().all(|s| stmt_replicable(program, s))
        }
        Stmt::SetScalar { .. } => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_geometry::Domain;
    use regent_ir::{ProgramBuilder, RegionParam, TaskDecl};
    use regent_region::{ops, FieldSpace, FieldType};
    use std::sync::Arc;

    fn noop(params: Vec<RegionParam>) -> TaskDecl {
        TaskDecl {
            name: "noop".into(),
            params,
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(|_| {}),
        }
    }

    /// Fig. 2 shape: two trees A and B, block partitions, shifted image.
    fn fig2_like() -> (
        Program,
        regent_region::PartitionId,
        regent_region::PartitionId,
        regent_region::PartitionId,
    ) {
        let mut b = ProgramBuilder::new();
        let fsa = FieldSpace::of(&[("a", FieldType::F64)]);
        let fa = fsa.lookup("a").unwrap();
        let fsb = FieldSpace::of(&[("b", FieldType::F64)]);
        let fb = fsb.lookup("b").unwrap();
        let ra = b.forest.create_region(Domain::range(16), fsa);
        let rb = b.forest.create_region(Domain::range(16), fsb);
        let pa = ops::block(&mut b.forest, ra, 4);
        let pb = ops::block(&mut b.forest, rb, 4);
        let qb = ops::image(&mut b.forest, rb, pb, |p, sink| {
            sink.push(regent_geometry::DynPoint::from((p.coord(0) + 1) % 16));
        });
        let tf = b.task(noop(vec![
            RegionParam::read_write(&[fb]),
            RegionParam::read(&[fa]),
        ]));
        let tg = b.task(noop(vec![
            RegionParam::read_write(&[fa]),
            RegionParam::read(&[fb]),
        ]));
        let l = b.for_loop(regent_ir::expr::c(3.0));
        b.index_launch(tf, 4, vec![RegionArg::Part(pb), RegionArg::Part(pa)]);
        b.index_launch(tg, 4, vec![RegionArg::Part(pa), RegionArg::Part(qb)]);
        b.end(l);
        (b.build(), pa, pb, qb)
    }

    #[test]
    fn collects_fig2_uses() {
        let (prog, pa, pb, qb) = fig2_like();
        let uses = collect_accesses(&prog, &prog.body).unwrap();
        assert_eq!(uses.len(), 3);
        let find = |base: UseBase| uses.iter().find(|u| u.base == base).unwrap();
        let ua = find(UseBase::Part(pa));
        assert!(ua.reads && ua.writes);
        let ub = find(UseBase::Part(pb));
        assert!(ub.reads && ub.writes);
        let uq = find(UseBase::Part(qb));
        assert!(uq.reads && !uq.writes);
    }

    #[test]
    fn fig2_disjointness_matrix() {
        // §3.1: "PA ... can be proven to be disjoint from PB and QB
        // using the region tree analysis", while PB and QB may alias.
        let (prog, pa, pb, qb) = fig2_like();
        let f = &prog.forest;
        assert!(bases_provably_disjoint(
            f,
            UseBase::Part(pa),
            UseBase::Part(pb)
        ));
        assert!(bases_provably_disjoint(
            f,
            UseBase::Part(pa),
            UseBase::Part(qb)
        ));
        assert!(!bases_provably_disjoint(
            f,
            UseBase::Part(pb),
            UseBase::Part(qb)
        ));
        // Self tests.
        assert!(bases_provably_disjoint(
            f,
            UseBase::Part(pa),
            UseBase::Part(pa)
        ));
        assert!(!bases_provably_disjoint(
            f,
            UseBase::Part(qb),
            UseBase::Part(qb)
        ));
    }

    #[test]
    fn whole_region_overlaps_its_partitions() {
        let (prog, pa, _, _) = fig2_like();
        let ra = prog.forest.partition(pa).parent;
        assert!(!bases_provably_disjoint(
            &prog.forest,
            UseBase::Whole(ra),
            UseBase::Part(pa)
        ));
        assert!(!bases_provably_disjoint(
            &prog.forest,
            UseBase::Whole(ra),
            UseBase::Whole(ra)
        ));
    }

    #[test]
    fn single_launch_rejected() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(8), fs);
        let t = b.task(noop(vec![RegionParam::read(&[x])]));
        b.call(t, vec![r]);
        let prog = b.build();
        assert!(collect_accesses(&prog, &prog.body).is_err());
        assert!(find_replicable_ranges(&prog, &prog.body).is_empty());
    }

    #[test]
    fn replicable_ranges_split_on_single_launch() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = ops::block(&mut b.forest, r, 2);
        let t = b.task(noop(vec![RegionParam::read_write(&[x])]));
        let tr = b.task(noop(vec![RegionParam::read_write(&[x])]));
        b.index_launch(t, 2, vec![RegionArg::Part(p)]);
        b.call(tr, vec![r]); // not replicable
        b.index_launch(t, 2, vec![RegionArg::Part(p)]);
        b.index_launch(t, 2, vec![RegionArg::Part(p)]);
        let prog = b.build();
        let ranges = find_replicable_ranges(&prog, &prog.body);
        assert_eq!(
            ranges,
            vec![
                ReplicableRange { start: 0, end: 1 },
                ReplicableRange { start: 2, end: 4 }
            ]
        );
    }

    #[test]
    fn aliased_rw_rejected() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = ops::block(&mut b.forest, r, 2);
        let q = ops::image_fn(&mut b.forest, r, p, |pt| pt); // aliased identity
        let t = b.task(noop(vec![RegionParam::read_write(&[x])]));
        b.index_launch(t, 2, vec![RegionArg::Part(q)]);
        let prog = b.build();
        let err = collect_accesses(&prog, &prog.body).unwrap_err();
        assert!(err.0.contains("race"));
    }

    #[test]
    fn domain_mismatch_rejected() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(noop(vec![RegionParam::read(&[x])]));
        b.index_launch(t, 4, vec![RegionArg::Part(p)]);
        b.index_launch(t, 2, vec![RegionArg::Part(p)]); // same partition, 2 points
        let prog = b.build();
        let err = collect_accesses(&prog, &prog.body).unwrap_err();
        assert!(err.0.contains("ambiguous"));
    }
}
