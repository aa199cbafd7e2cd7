//! Property tests for the dynamic intersection machinery (§3.3) and the
//! set-operation partition constructors: the accelerated shallow
//! intersections (1-D interval tree, multi-D BVH) must agree with the
//! brute-force all-pairs oracle on random partition trees, and the
//! set-op partitions must preserve their claimed disjointness. Cases
//! come from the seeded runner in `tests/support/prop.rs`; a failure
//! names its seed.

#[path = "../../../tests/support/prop.rs"]
mod prop;

use prop::Gen;
use regent_geometry::{Domain, DynPoint, DynRect};
use regent_region::intersect::{shallow_intersections_naive, shallow_intersections_of};
use regent_region::{ops, Color, Disjointness, FieldSpace, RegionForest};
use std::collections::HashSet;

/// Cases drawn per property.
const CASES: u64 = 48;

/// Seeds of past failures, replayed by every property first.
const REGRESSIONS: &[u64] = &[];

/// A domain of 1–79 distinct ids of `0..200`.
fn sparse_domain(g: &mut Gen) -> Domain {
    let n = g.range(1usize..80);
    let mut ids = HashSet::new();
    // At any size the id range holds at least `n` values.
    while ids.len() < n {
        ids.insert(g.range(0i64..200));
    }
    Domain::from_ids(ids)
}

/// A colored child list — the input shape `shallow_intersections_of`
/// consumes inside shard tasks.
fn children_1d(g: &mut Gen) -> Vec<(Color, Domain)> {
    colored(g.vec(1..8, sparse_domain))
}

fn rect_2d(g: &mut Gen) -> DynRect {
    let (x, w, y, h) = (
        g.range(0i64..40),
        g.range(1i64..10),
        g.range(0i64..40),
        g.range(1i64..10),
    );
    DynRect::new(
        DynPoint::new(&[x, y]),
        DynPoint::new(&[x + w - 1, y + h - 1]),
    )
}

fn children_2d(g: &mut Gen) -> Vec<(Color, Domain)> {
    colored(g.vec(1..8, |g| Domain::from_rects(g.vec(1..5, rect_2d))))
}

/// Colors the `i`-th domain `i`.
fn colored(doms: Vec<Domain>) -> Vec<(Color, Domain)> {
    doms.into_iter()
        .enumerate()
        .map(|(i, d)| (DynPoint::from(i as i64), d))
        .collect()
}

/// Pairwise actual (element-level) disjointness of a partition's
/// children — the ground truth a `Disjointness::Disjoint` label claims.
fn actually_disjoint(f: &RegionForest, p: regent_region::PartitionId) -> bool {
    let doms: Vec<Domain> = f
        .partition(p)
        .child_regions()
        .map(|c| f.domain(c).clone())
        .collect();
    doms.iter()
        .enumerate()
        .all(|(i, a)| doms[i + 1..].iter().all(|b| !a.overlaps(b)))
}

#[test]
fn interval_tree_matches_naive_1d() {
    prop::check(
        "interval_tree_matches_naive_1d",
        CASES,
        REGRESSIONS,
        |g| (children_1d(g), children_1d(g)),
        |(src, dst)| {
            let fast = shallow_intersections_of(src, dst);
            let naive = shallow_intersections_naive(src, dst);
            assert_eq!(fast, naive);
        },
    );
}

#[test]
fn bvh_matches_naive_2d() {
    prop::check(
        "bvh_matches_naive_2d",
        CASES,
        REGRESSIONS,
        |g| (children_2d(g), children_2d(g)),
        |(src, dst)| {
            let fast = shallow_intersections_of(src, dst);
            let naive = shallow_intersections_naive(src, dst);
            assert_eq!(fast, naive);
        },
    );
}

#[test]
fn random_partition_tree_intersections_match_oracle() {
    prop::check(
        "random_partition_tree_intersections_match_oracle",
        CASES,
        REGRESSIONS,
        |g| {
            (
                sparse_domain(g),
                g.range(1usize..7),
                g.range(1i64..11),
                g.range(0i64..4),
            )
        },
        |&(ref dom, parts, mul, radius)| {
            // A block partition against a random image partition of the
            // same region — the (src, dst) shape every coherence copy
            // evaluates.
            let mut f = RegionForest::new();
            let r = f.create_region(dom.clone(), FieldSpace::new());
            let p = ops::block(&mut f, r, parts);
            let bound = dom.bounds().hi().coord(0) + 1;
            let q = ops::image(&mut f, r, p, move |pt, sink| {
                for d in -radius..=radius {
                    sink.push(DynPoint::from(
                        (pt.coord(0) * mul + d).rem_euclid(bound.max(1)),
                    ));
                }
            });
            let collect = |f: &RegionForest, part| {
                f.partition(part)
                    .iter()
                    .map(|(c, reg)| (c, f.domain(reg).clone()))
                    .collect::<Vec<(Color, Domain)>>()
            };
            let src = collect(&f, p);
            let dst = collect(&f, q);
            assert_eq!(
                shallow_intersections_of(&src, &dst),
                shallow_intersections_naive(&src, &dst)
            );
            // And in the transposed direction (dst-side tree build).
            assert_eq!(
                shallow_intersections_of(&dst, &src),
                shallow_intersections_naive(&dst, &src)
            );
        },
    );
}

/// A region, a window region and a part count: the inputs of the
/// set-operation properties.
fn region_window_parts(g: &mut Gen) -> (Domain, Domain, usize) {
    (sparse_domain(g), sparse_domain(g), g.range(1usize..7))
}

#[test]
fn restrict_preserves_disjointness() {
    prop::check(
        "restrict_preserves_disjointness",
        CASES,
        REGRESSIONS,
        region_window_parts,
        |&(ref dom, ref window, parts)| {
            let mut f = RegionForest::new();
            let r = f.create_region(dom.clone(), FieldSpace::new());
            let w = f.create_region(window.clone(), FieldSpace::new());
            let p = ops::block(&mut f, r, parts);
            let q = ops::restrict(&mut f, w, p);
            // Restriction inherits the Disjoint label — and the label
            // must still be true at the element level.
            assert_eq!(f.partition(q).disjointness, Disjointness::Disjoint);
            assert!(actually_disjoint(&f, q));
            // Model: q[i] == p[i] ∩ window.
            for (c, child) in f.partition(q).iter().collect::<Vec<_>>() {
                let pi = f.subregion(p, c);
                let expect = f.domain(pi).intersect(window);
                assert!(f.domain(child).set_eq(&expect));
            }
        },
    );
}

#[test]
fn difference_preserves_disjointness() {
    prop::check(
        "difference_preserves_disjointness",
        CASES,
        REGRESSIONS,
        region_window_parts,
        |&(ref dom, ref window, parts)| {
            let mut f = RegionForest::new();
            let r = f.create_region(dom.clone(), FieldSpace::new());
            let w = f.create_region(window.clone(), FieldSpace::new());
            let a = ops::block(&mut f, r, parts);
            let b = ops::restrict(&mut f, w, a); // same color space as `a`
            let d = ops::difference(&mut f, a, b);
            assert_eq!(f.partition(d).disjointness, Disjointness::Disjoint);
            assert!(actually_disjoint(&f, d));
            // Model: d[i] == a[i] \ b[i]; disjoint from b[i]; within a[i].
            for (c, child) in f.partition(d).iter().collect::<Vec<_>>() {
                let ai = f.domain(f.subregion(a, c)).clone();
                let bi = f.domain(f.subregion(b, c)).clone();
                assert!(f.domain(child).set_eq(&ai.subtract(&bi)));
                assert!(!f.domain(child).overlaps(&bi) || f.domain(child).is_empty());
                assert!(f.domain(child).is_subset_of(&ai));
            }
        },
    );
}

#[test]
fn union_is_colorwise_and_conservatively_aliased() {
    prop::check(
        "union_is_colorwise_and_conservatively_aliased",
        CASES,
        REGRESSIONS,
        region_window_parts,
        |&(ref dom, ref window, parts)| {
            let mut f = RegionForest::new();
            let r = f.create_region(dom.clone(), FieldSpace::new());
            let w = f.create_region(window.clone(), FieldSpace::new());
            let a = ops::block(&mut f, r, parts);
            let b = ops::restrict(&mut f, w, a);
            let u = ops::union(&mut f, a, b);
            // Union never claims disjointness it cannot prove.
            assert_eq!(f.partition(u).disjointness, Disjointness::Aliased);
            for (c, child) in f.partition(u).iter().collect::<Vec<_>>() {
                let ai = f.domain(f.subregion(a, c)).clone();
                let bi = f.domain(f.subregion(b, c)).clone();
                assert!(f.domain(child).set_eq(&ai.union(&bi)));
            }
            // union_of_children is the fold of every child domain.
            let total = ops::union_of_children(&f, u);
            let expect = f
                .partition(u)
                .child_regions()
                .collect::<Vec<_>>()
                .into_iter()
                .fold(Domain::empty(1), |acc, reg| acc.union(f.domain(reg)));
            assert!(total.set_eq(&expect));
        },
    );
}
