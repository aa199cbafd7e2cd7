//! Projection normalization (§2.2).
//!
//! "The region arguments of any called tasks must be of the form
//! `p[f(i)]` where p is a partition, i is the loop index, and f is a
//! pure function. Any accesses with a non-trivial function f are
//! transformed into the form `q[i]` with a new partition q such that
//! `q[i]` is `p[f(i)]`. Note here that we make essential use of Regent's
//! ability to define multiple partitions of the same data."
//!
//! This pass walks every index launch and replaces
//! [`RegionArg::PartProj`] with a plain [`RegionArg::Part`] over a
//! freshly created partition whose color `i` names the same subregion
//! domain as `p[f(i)]`. Disjointness of the new partition is decided
//! conservatively: `f` may map two launch points to the same subregion,
//! in which case the new partition has duplicated (hence overlapping)
//! children and must be classified aliased; only an injective mapping
//! over the launch domain preserves the source's disjointness.

use crate::program::{Program, RegionArg, Stmt};
use regent_region::{Color, Disjointness, RegionForest};
use std::collections::HashSet;

/// Statistics returned by [`normalize_projections`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NormalizeStats {
    /// Number of projected arguments rewritten.
    pub rewritten: usize,
    /// Number of fresh partitions created.
    pub partitions_created: usize,
}

/// Rewrites every `p[f(i)]` argument into `q[i]` form, creating the new
/// partitions in the program's forest. Idempotent.
pub fn normalize_projections(program: &mut Program) -> NormalizeStats {
    let mut stats = NormalizeStats::default();
    let mut body = std::mem::take(&mut program.body);
    normalize_stmts(&mut program.forest, &mut body, &mut stats);
    program.body = body;
    stats
}

fn normalize_stmts(forest: &mut RegionForest, stmts: &mut [Stmt], stats: &mut NormalizeStats) {
    for s in stmts {
        match s {
            Stmt::IndexLaunch(il) => {
                let launch_domain = il.launch_domain.clone();
                for arg in &mut il.args {
                    if let RegionArg::PartProj(p, proj) = arg {
                        let p = *p;
                        // Build q with q[i] = p[f(i)] for i in the launch
                        // domain.
                        let parent = forest.partition(p).parent;
                        let src_disjoint = forest.partition(p).disjointness;
                        let mut seen: HashSet<Color> = HashSet::new();
                        let mut injective = true;
                        let mut subdomains = Vec::with_capacity(launch_domain.len());
                        for &i in &launch_domain {
                            let fi = proj.apply(i);
                            if !seen.insert(fi) {
                                injective = false;
                            }
                            let src = forest.partition(p).child(fi).unwrap_or_else(|| {
                                panic!(
                                    "projection maps launch point {i:?} to color {fi:?} \
                                     absent from {p:?}"
                                )
                            });
                            subdomains.push((i, forest.domain(src).clone()));
                        }
                        let disjointness = if injective {
                            src_disjoint
                        } else {
                            Disjointness::Aliased
                        };
                        let q = forest.create_partition(parent, disjointness, subdomains);
                        *arg = RegionArg::Part(q);
                        stats.rewritten += 1;
                        stats.partitions_created += 1;
                    }
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                normalize_stmts(forest, body, stats)
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                normalize_stmts(forest, then_body, stats);
                normalize_stmts(forest, else_body, stats);
            }
            Stmt::SingleLaunch(_) | Stmt::SetScalar { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, Projection, RegionArg};
    use crate::task::{RegionParam, TaskDecl};
    use regent_geometry::Domain;
    use regent_region::{ops, FieldSpace, FieldType};
    use std::sync::Arc;

    fn setup() -> (
        ProgramBuilder,
        regent_region::PartitionId,
        crate::task::TaskId,
    ) {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(TaskDecl {
            name: "t".into(),
            params: vec![RegionParam::read(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(|_| {}),
        });
        (b, p, t)
    }

    #[test]
    fn affine_projection_normalized() {
        let (mut b, p, t) = setup();
        b.index_launch(
            t,
            4,
            vec![RegionArg::PartProj(
                p,
                Projection::AffineOffset {
                    offset: 1,
                    modulus: Some(4),
                },
            )],
        );
        let mut prog = b.build();
        let stats = normalize_projections(&mut prog);
        assert_eq!(stats.rewritten, 1);
        let q = match &prog.body[0] {
            Stmt::IndexLaunch(il) => match il.args[0] {
                RegionArg::Part(q) => q,
                ref other => panic!("not normalized: {other:?}"),
            },
            _ => unreachable!(),
        };
        // q[i] must equal p[(i+1) mod 4].
        for i in 0..4i64 {
            let qi = prog.forest.subregion_i(q, i);
            let pf = prog.forest.subregion_i(p, (i + 1) % 4);
            assert!(prog.forest.domain(qi).set_eq(prog.forest.domain(pf)));
        }
        // Injective projection preserves disjointness.
        assert_eq!(
            prog.forest.partition(q).disjointness,
            Disjointness::Disjoint
        );
    }

    #[test]
    fn non_injective_projection_aliased() {
        let (mut b, p, t) = setup();
        b.index_launch(
            t,
            4,
            vec![RegionArg::PartProj(
                p,
                Projection::Fn(Arc::new(|_| regent_geometry::DynPoint::from(0))),
            )],
        );
        let mut prog = b.build();
        normalize_projections(&mut prog);
        let q = match &prog.body[0] {
            Stmt::IndexLaunch(il) => match il.args[0] {
                RegionArg::Part(q) => q,
                _ => panic!(),
            },
            _ => unreachable!(),
        };
        assert_eq!(prog.forest.partition(q).disjointness, Disjointness::Aliased);
    }

    #[test]
    fn idempotent() {
        let (mut b, p, t) = setup();
        b.index_launch(t, 4, vec![RegionArg::Part(p)]);
        let mut prog = b.build();
        let stats = normalize_projections(&mut prog);
        assert_eq!(stats.rewritten, 0);
        assert_eq!(prog.forest.num_partitions(), 1);
    }
}
