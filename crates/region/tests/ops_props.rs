//! Property tests for the partitioning sublanguage: the algebraic laws
//! each operator must satisfy, checked against brute-force models on
//! random domains and random access functions. Cases come from the
//! seeded runner in `tests/support/prop.rs`; a failure names its seed.

#[path = "../../../tests/support/prop.rs"]
mod prop;

use prop::Gen;
use regent_geometry::{Domain, DynPoint};
use regent_region::{ops, Disjointness, FieldSpace, RegionForest};
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

#[test]
fn block_partition_laws() {
    prop::check(
        "block_partition_laws",
        CASES,
        REGRESSIONS,
        |g| (sparse_domain(g), g.range(1usize..9)),
        |(dom, parts)| {
            let mut f = RegionForest::new();
            let r = f.create_region(dom.clone(), FieldSpace::new());
            let p = ops::block(&mut f, r, *parts);
            assert_eq!(f.partition(p).len(), *parts);
            assert_eq!(f.partition(p).disjointness, Disjointness::Disjoint);
            // Children are pairwise disjoint, sizes balanced, union == dom.
            let children: Vec<Domain> = f
                .partition(p)
                .child_regions()
                .map(|c| f.domain(c).clone())
                .collect();
            let mut union = Domain::empty(1);
            let mut sizes = Vec::new();
            for (i, a) in children.iter().enumerate() {
                for b in &children[i + 1..] {
                    assert!(!a.overlaps(b));
                }
                union = union.union(a);
                sizes.push(a.volume());
            }
            assert!(union.set_eq(dom));
            let mx = *sizes.iter().max().unwrap();
            let mn = *sizes.iter().min().unwrap();
            assert!(mx - mn <= 1, "unbalanced: {sizes:?}");
            // Tree proves disjointness of every child pair.
            let ids: Vec<_> = f.partition(p).child_regions().collect();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    assert!(f.provably_disjoint(a, b));
                }
            }
        },
    );
}

#[test]
fn image_partition_membership() {
    prop::check(
        "image_partition_membership",
        CASES,
        REGRESSIONS,
        |g| {
            (
                sparse_domain(g),
                g.range(1usize..6),
                g.range(1i64..13),
                g.range(0i64..50),
            )
        },
        |&(ref dom, parts, mul, off)| {
            let mut f = RegionForest::new();
            let target_n = 256u64;
            let tgt = f.create_region(Domain::range(target_n), FieldSpace::new());
            let src = f.create_region(dom.clone(), FieldSpace::new());
            let p = ops::block(&mut f, src, parts);
            let h = move |i: i64| (i * mul + off).rem_euclid(target_n as i64);
            let q = ops::image(&mut f, tgt, p, move |pt, sink| {
                sink.push(DynPoint::from(h(pt.coord(0))));
            });
            assert_eq!(f.partition(q).disjointness, Disjointness::Aliased);
            // q[i] == { h(x) : x ∈ p[i] } exactly (model check).
            for (c, qi) in f.partition(q).iter().collect::<Vec<_>>() {
                let pi = f.subregion(p, c);
                let expect: HashSet<i64> = f.domain(pi).iter().map(|x| h(x.coord(0))).collect();
                let got: HashSet<i64> = f.domain(qi).iter().map(|x| x.coord(0)).collect();
                assert_eq!(got, expect);
            }
        },
    );
}

#[test]
fn preimage_partition_membership() {
    prop::check(
        "preimage_partition_membership",
        CASES,
        REGRESSIONS,
        |g| {
            (
                g.range(10u64..120),
                g.range(1usize..6),
                g.range(1i64..9),
                g.range(0i64..20),
            )
        },
        |&(n_src, parts, mul, off)| {
            let mut f = RegionForest::new();
            let tgt = f.create_region(Domain::range(64), FieldSpace::new());
            let src = f.create_region(Domain::range(n_src), FieldSpace::new());
            let pt_part = ops::block(&mut f, tgt, parts);
            let g = move |i: i64| (i * mul + off).rem_euclid(64);
            let q = ops::preimage(&mut f, src, pt_part, move |pt| {
                DynPoint::from(g(pt.coord(0)))
            });
            // Disjoint target → disjoint preimage; model check membership.
            assert_eq!(f.partition(q).disjointness, Disjointness::Disjoint);
            for (c, qi) in f.partition(q).iter().collect::<Vec<_>>() {
                let ti = f.subregion(pt_part, c);
                let tgt_dom = f.domain(ti).clone();
                let expect: HashSet<i64> = (0..n_src as i64)
                    .filter(|&x| tgt_dom.contains(DynPoint::from(g(x))))
                    .collect();
                let got: HashSet<i64> = f.domain(qi).iter().map(|x| x.coord(0)).collect();
                assert_eq!(got, expect);
            }
            // Preimage children cover the source exactly (g is total and
            // the target partition covers the target).
            let union = ops::union_of_children(&f, q);
            assert!(union.set_eq(f.domain(src)));
        },
    );
}

#[test]
fn by_color_is_exact_partition() {
    prop::check(
        "by_color_is_exact_partition",
        CASES,
        REGRESSIONS,
        |g| (sparse_domain(g), g.range(1usize..5)),
        |&(ref dom, ncolors)| {
            let mut f = RegionForest::new();
            let r = f.create_region(dom.clone(), FieldSpace::new());
            let colors: Vec<_> = (0..ncolors as i64).map(DynPoint::from).collect();
            let p = ops::by_color(&mut f, r, &colors, |pt| {
                DynPoint::from(pt.coord(0).rem_euclid(ncolors as i64))
            });
            // Exact: each element in exactly the child of its color.
            for pt in dom.iter() {
                let c = pt.coord(0).rem_euclid(ncolors as i64);
                for (col, child) in f.partition(p).iter().collect::<Vec<_>>() {
                    let inside = f.domain(child).contains(pt);
                    assert_eq!(inside, col.coord(0) == c);
                }
            }
        },
    );
}

#[test]
fn private_ghost_laws() {
    prop::check(
        "private_ghost_laws",
        CASES,
        REGRESSIONS,
        |g| (g.range(16u64..120), g.range(2usize..7), g.range(1i64..4)),
        |&(n, parts, radius)| {
            let mut f = RegionForest::new();
            let r = f.create_region(Domain::range(n), FieldSpace::new());
            let owned = ops::block(&mut f, r, parts);
            let halo = ops::image(&mut f, r, owned, move |p, sink| {
                for d in -radius..=radius {
                    sink.push(DynPoint::from(p.coord(0) + d));
                }
            });
            let pg = regent_region::private_ghost_split(&mut f, owned, halo);
            // Partition of the region.
            let priv_d = f.domain(pg.all_private).clone();
            let ghost_d = f.domain(pg.all_ghost).clone();
            assert!(!priv_d.overlaps(&ghost_d));
            assert!(priv_d.union(&ghost_d).set_eq(f.domain(r)));
            // Every ghost element is in some *other* piece's halo.
            for g in ghost_d.iter() {
                let mut found = false;
                for (c, h) in f.partition(halo).iter().collect::<Vec<_>>() {
                    let own = f.subregion(owned, c);
                    if f.domain(h).contains(g) && !f.domain(own).contains(g) {
                        found = true;
                        break;
                    }
                }
                assert!(found, "ghost element {g:?} not justified");
            }
            // Every private element is in no other piece's halo.
            for pvt in priv_d.iter() {
                for (c, h) in f.partition(halo).iter().collect::<Vec<_>>() {
                    let own = f.subregion(owned, c);
                    if f.domain(h).contains(pvt) {
                        assert!(
                            f.domain(own).contains(pvt),
                            "private element {pvt:?} appears in a foreign halo"
                        );
                    }
                }
            }
        },
    );
}

#[test]
fn static_disjointness_is_sound() {
    prop::check(
        "static_disjointness_is_sound",
        CASES,
        REGRESSIONS,
        |g| (sparse_domain(g), g.range(2usize..6), g.range(1i64..9)),
        |&(ref dom, parts, mul)| {
            // For every pair of subregions across all partitions created,
            // provably_disjoint == true must imply actual disjointness.
            let mut f = RegionForest::new();
            let r = f.create_region(dom.clone(), FieldSpace::new());
            let p = ops::block(&mut f, r, parts);
            let bound = dom.bounds().hi().coord(0) + 1;
            let q = ops::image(&mut f, r, p, move |pt, sink| {
                sink.push(DynPoint::from((pt.coord(0) * mul).rem_euclid(bound.max(1))));
            });
            let mut regions: Vec<_> = f.partition(p).child_regions().collect();
            regions.extend(f.partition(q).child_regions());
            regions.push(r);
            for &a in &regions {
                for &b in &regions {
                    if f.provably_disjoint(a, b) {
                        assert!(f.dynamically_disjoint(a, b), "unsound: {a:?} vs {b:?}");
                    }
                }
            }
        },
    );
}
