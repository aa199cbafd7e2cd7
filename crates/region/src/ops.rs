//! The partitioning sublanguage: operators that create partitions
//! (§2.1 and the dependent-partitioning operators the paper leans on).
//!
//! Each operator records the *static* disjointness classification the
//! compiler analysis consumes (§2.3): `block`, `equal`, `by_color` and
//! `preimage` produce provably disjoint partitions; `image` over an
//! unconstrained function must be classified aliased even when it happens
//! to be disjoint dynamically.

use crate::forest::{Color, Disjointness, PartitionId, RegionForest, RegionId};
use regent_geometry::{Domain, DynPoint, DynRect};

/// Block-partitions `region` into `parts` roughly equal contiguous
/// pieces with 1-D colors `0..parts` (Regent's `block(A, I)`, Fig. 2
/// lines 20–21).
///
/// 1-D (possibly sparse) domains are split by element count exactly
/// (sizes differ by at most one). Multi-dimensional dense domains are
/// split along dimension 0.
pub fn block(forest: &mut RegionForest, region: RegionId, parts: usize) -> PartitionId {
    assert!(parts > 0, "cannot partition into zero parts");
    let dom = forest.domain(region).clone();
    let subdomains: Vec<(Color, Domain)> = if dom.dim() == 1 {
        split_1d_by_count(&dom, parts)
            .into_iter()
            .enumerate()
            .map(|(i, d)| (DynPoint::from(i as i64), d))
            .collect()
    } else {
        let rects = dom.rects();
        assert_eq!(
            rects.len(),
            1,
            "multi-dimensional block partition requires a dense domain"
        );
        rects[0]
            .block_split(parts, 0)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (DynPoint::from(i as i64), Domain::from_rect(r)))
            .collect()
    };
    forest.create_partition(region, Disjointness::Disjoint, subdomains)
}

/// Block-partitions a dense 2-D region into an `nx × ny` grid of tiles
/// with 2-D colors (used by the Stencil application).
pub fn block2d(forest: &mut RegionForest, region: RegionId, nx: usize, ny: usize) -> PartitionId {
    let dom = forest.domain(region).clone();
    assert_eq!(dom.dim(), 2);
    assert_eq!(dom.rects().len(), 1, "block2d requires a dense domain");
    let root = dom.rects()[0];
    let mut subdomains = Vec::with_capacity(nx * ny);
    for (i, row) in root.block_split(nx, 0).into_iter().enumerate() {
        for (j, tile) in row.block_split(ny, 1).into_iter().enumerate() {
            subdomains.push((
                DynPoint::new(&[i as i64, j as i64]),
                Domain::from_rect(tile),
            ));
        }
    }
    forest.create_partition(region, Disjointness::Disjoint, subdomains)
}

/// Splits a 1-D domain into `parts` pieces of near-equal element count,
/// respecting sparse runs.
fn split_1d_by_count(dom: &Domain, parts: usize) -> Vec<Domain> {
    let total = dom.volume();
    let base = total / parts as u64;
    let rem = total % parts as u64;
    let mut out = Vec::with_capacity(parts);
    let mut run_iter = dom.rects().iter().copied();
    let mut cur: Option<DynRect> = run_iter.next();
    for i in 0..parts {
        let mut want = base + u64::from((i as u64) < rem);
        let mut piece: Vec<DynRect> = Vec::new();
        while want > 0 {
            let run = match cur {
                Some(r) => r,
                None => break,
            };
            let vol = run.volume();
            if vol <= want {
                piece.push(run);
                want -= vol;
                cur = run_iter.next();
            } else {
                let lo = run.lo().coord(0);
                piece.push(DynRect::span(lo, lo + want as i64 - 1));
                cur = Some(DynRect::span(lo + want as i64, run.hi().coord(0)));
                want = 0;
            }
        }
        out.push(Domain::from_rects(piece));
    }
    out
}

/// Partitions `region` by a coloring function: element `p` goes to
/// subregion `color_of(p)`. Colors must lie in `colors`. This is
/// Regent's *partition by field* — the application-specific partitioning
/// the paper highlights as an advantage over generic graph partitioners
/// (§6). Disjoint by construction (each element has one color).
pub fn by_color(
    forest: &mut RegionForest,
    region: RegionId,
    colors: &[Color],
    mut color_of: impl FnMut(DynPoint) -> Color,
) -> PartitionId {
    let dom = forest.domain(region).clone();
    let mut buckets: Vec<Vec<DynPoint>> = vec![Vec::new(); colors.len()];
    let index: std::collections::HashMap<Color, usize> = colors
        .iter()
        .copied()
        .enumerate()
        .map(|(i, c)| (c, i))
        .collect();
    for p in dom.iter() {
        let c = color_of(p);
        let slot = index
            .get(&c)
            .unwrap_or_else(|| panic!("color {c:?} not in the declared color space"));
        buckets[*slot].push(p);
    }
    let subdomains = colors
        .iter()
        .copied()
        .zip(buckets.into_iter().map(Domain::from_points))
        .collect();
    forest.create_partition(region, Disjointness::Disjoint, subdomains)
}

/// Image partition (Fig. 2 line 22): `image(target, source_partition, h)`
/// creates a partition of `target` where subregion `i` holds
/// `{ h(b) | b ∈ source_partition[i] }` clipped to `target`.
///
/// `h` may map one point to any number of points (`sink` pattern avoids
/// per-element allocation on large meshes). Because `h` is
/// unconstrained, the result is classified **aliased** (§2.1): "Regent
/// assumes that the subregions may contain overlaps".
pub fn image(
    forest: &mut RegionForest,
    target: RegionId,
    source: PartitionId,
    mut h: impl FnMut(DynPoint, &mut Vec<DynPoint>),
) -> PartitionId {
    let children: Vec<(Color, RegionId)> = forest.partition(source).iter().collect();
    let mut subdomains = Vec::with_capacity(children.len());
    let mut sink = Vec::new();
    for (color, child) in children {
        let mut pts: Vec<DynPoint> = Vec::new();
        for p in forest.domain(child).iter() {
            sink.clear();
            h(p, &mut sink);
            pts.extend_from_slice(&sink);
        }
        subdomains.push((color, Domain::from_points(pts)));
    }
    forest.create_partition(target, Disjointness::Aliased, subdomains)
}

/// Single-valued convenience wrapper over [`image`].
pub fn image_fn(
    forest: &mut RegionForest,
    target: RegionId,
    source: PartitionId,
    mut h: impl FnMut(DynPoint) -> DynPoint,
) -> PartitionId {
    image(forest, target, source, |p, sink| sink.push(h(p)))
}

/// Preimage partition: `preimage(source, target_partition, f)` creates a
/// partition of `source` where subregion `i` holds
/// `{ a ∈ source | f(a) ∈ target_partition[i] }`.
///
/// When the target partition is disjoint the preimage is disjoint too
/// (each `a` maps to exactly one point, which lives in at most one
/// subregion); otherwise it is aliased.
pub fn preimage(
    forest: &mut RegionForest,
    source: RegionId,
    target_partition: PartitionId,
    mut f: impl FnMut(DynPoint) -> DynPoint,
) -> PartitionId {
    use crate::bvh::{Bvh, TaggedRect};
    use crate::interval::{Interval, IntervalTree};

    let children: Vec<(Color, RegionId)> = forest.partition(target_partition).iter().collect();
    let disjointness = forest.partition(target_partition).disjointness;
    let src_dom = forest.domain(source).clone();
    let mut buckets: Vec<(Color, Vec<DynPoint>)> =
        children.iter().map(|&(c, _)| (c, Vec::new())).collect();

    // Accelerate point-in-which-children lookups with the same
    // structures the shallow intersection pass uses (§3.3): an interval
    // tree over 1-D runs, a BVH over multi-dimensional rectangles.
    // Every rectangle of every child is inserted tagged with the child
    // index; a rectangle hit is exact (rects cover the child domain
    // precisely), so no containment re-check is needed.
    let target_dim = children
        .first()
        .map(|&(_, r)| forest.domain(r).dim())
        .unwrap_or(1);
    if target_dim == 1 {
        let mut runs = Vec::new();
        for (idx, &(_, child)) in children.iter().enumerate() {
            for r in forest.domain(child).rects() {
                runs.push(Interval::new(r.lo().coord(0), r.hi().coord(0), idx as u32));
            }
        }
        let tree = IntervalTree::build(runs);
        for a in src_dom.iter() {
            let fa = f(a);
            let x = fa.coord(0);
            tree.query(x, x, |iv| buckets[iv.id as usize].1.push(a));
        }
    } else {
        let mut rects = Vec::new();
        for (idx, &(_, child)) in children.iter().enumerate() {
            for r in forest.domain(child).rects() {
                rects.push(TaggedRect {
                    rect: *r,
                    id: idx as u32,
                });
            }
        }
        let bvh = Bvh::build(rects);
        for a in src_dom.iter() {
            let fa = f(a);
            let q = regent_geometry::DynRect::new(fa, fa);
            bvh.query(&q, |t| buckets[t.id as usize].1.push(a));
        }
    }
    let subdomains = buckets
        .into_iter()
        .map(|(c, pts)| (c, Domain::from_points(pts)))
        .collect();
    forest.create_partition(source, disjointness, subdomains)
}

/// Intersects every subregion of `partition` with `region`'s domain,
/// producing a new partition *of `region`* with the same color space.
///
/// This is the cross-product restriction used to build the hierarchical
/// private/ghost region trees of §4.5 (e.g. `PB ∩ all_private`).
/// Disjointness is inherited: restricting cannot introduce overlap.
pub fn restrict(
    forest: &mut RegionForest,
    region: RegionId,
    partition: PartitionId,
) -> PartitionId {
    let children: Vec<(Color, RegionId)> = forest.partition(partition).iter().collect();
    let disjointness = forest.partition(partition).disjointness;
    let region_dom = forest.domain(region).clone();
    let subdomains = children
        .into_iter()
        .map(|(c, child)| (c, forest.domain(child).intersect(&region_dom)))
        .collect();
    forest.create_partition(region, disjointness, subdomains)
}

/// Color-wise difference: a partition of `a`'s parent whose subregion
/// `i` is `a[i] \ b[i]`. Colors must match. Disjointness inherited from
/// `a` (removing elements cannot introduce overlap).
pub fn difference(forest: &mut RegionForest, a: PartitionId, b: PartitionId) -> PartitionId {
    let parent = forest.partition(a).parent;
    let disjointness = forest.partition(a).disjointness;
    let a_children: Vec<(Color, RegionId)> = forest.partition(a).iter().collect();
    let subdomains = a_children
        .into_iter()
        .map(|(c, child)| {
            let rhs = forest
                .partition(b)
                .child(c)
                .map(|r| forest.domain(r).clone())
                .unwrap_or_else(|| Domain::empty(forest.domain(child).dim()));
            (c, forest.domain(child).subtract(&rhs))
        })
        .collect();
    forest.create_partition(parent, disjointness, subdomains)
}

/// Color-wise union: a partition of `a`'s parent whose subregion `i` is
/// `a[i] ∪ b[i]`. Always classified aliased (the union of two disjoint
/// partitions need not be disjoint).
pub fn union(forest: &mut RegionForest, a: PartitionId, b: PartitionId) -> PartitionId {
    let parent = forest.partition(a).parent;
    let a_children: Vec<(Color, RegionId)> = forest.partition(a).iter().collect();
    let subdomains = a_children
        .into_iter()
        .map(|(c, child)| {
            let rhs = forest
                .partition(b)
                .child(c)
                .map(|r| forest.domain(r).clone())
                .unwrap_or_else(|| Domain::empty(forest.domain(child).dim()));
            (c, forest.domain(child).union(&rhs))
        })
        .collect();
    forest.create_partition(parent, Disjointness::Aliased, subdomains)
}

/// The union of all subregion domains of a partition (the "upward
/// closure" used to compute the `all_ghost` region of §4.5).
pub fn union_of_children(forest: &RegionForest, p: PartitionId) -> Domain {
    let parent_dim = forest.domain(forest.partition(p).parent).dim();
    forest
        .partition(p)
        .child_regions()
        .fold(Domain::empty(parent_dim), |acc, r| {
            acc.union(forest.domain(r))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldSpace;

    fn forest_1d(n: u64) -> (RegionForest, RegionId) {
        let mut f = RegionForest::new();
        let r = f.create_region(Domain::range(n), FieldSpace::new());
        (f, r)
    }

    #[test]
    fn block_1d_exact_cover() {
        let (mut f, r) = forest_1d(10);
        let p = block(&mut f, r, 3);
        let sizes: Vec<u64> = f
            .partition(p)
            .child_regions()
            .map(|c| f.domain(c).volume())
            .collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert!(union_of_children(&f, p).set_eq(f.domain(r)));
        assert_eq!(f.partition(p).disjointness, Disjointness::Disjoint);
    }

    #[test]
    fn block_sparse_1d() {
        let mut f = RegionForest::new();
        let dom = Domain::from_ids([0, 1, 2, 10, 11, 12, 20, 21]);
        let r = f.create_region(dom.clone(), FieldSpace::new());
        let p = block(&mut f, r, 3);
        let sizes: Vec<u64> = f
            .partition(p)
            .child_regions()
            .map(|c| f.domain(c).volume())
            .collect();
        assert_eq!(sizes, vec![3, 3, 2]);
        assert!(union_of_children(&f, p).set_eq(&dom));
    }

    #[test]
    fn block2d_tiles() {
        let mut f = RegionForest::new();
        let rect = DynRect::new(DynPoint::new(&[0, 0]), DynPoint::new(&[7, 7]));
        let r = f.create_region(Domain::from_rect(rect), FieldSpace::new());
        let p = block2d(&mut f, r, 2, 2);
        assert_eq!(f.partition(p).len(), 4);
        let c01 = f.subregion(p, DynPoint::new(&[0, 1]));
        assert_eq!(
            f.domain(c01).bounds(),
            DynRect::new(DynPoint::new(&[0, 4]), DynPoint::new(&[3, 7]))
        );
        assert!(union_of_children(&f, p).set_eq(f.domain(r)));
    }

    #[test]
    fn image_shift_is_aliased_and_correct() {
        let (mut f, r) = forest_1d(10);
        let p = block(&mut f, r, 2); // [0,4], [5,9]
                                     // h(i) = i + 1 clipped by the forest to [0,10).
        let q = image_fn(&mut f, r, p, |pt| DynPoint::from(pt.coord(0) + 1));
        assert_eq!(f.partition(q).disjointness, Disjointness::Aliased);
        let q0 = f.subregion_i(q, 0);
        assert!(f.domain(q0).set_eq(&Domain::from_ids(1..=5)));
        let q1 = f.subregion_i(q, 1);
        assert!(
            f.domain(q1).set_eq(&Domain::from_ids(6..=9)),
            "clipped at 9"
        );
    }

    #[test]
    fn image_multi_valued() {
        let (mut f, r) = forest_1d(10);
        let p = block(&mut f, r, 2);
        // Each element points at both neighbors (stencil halo pattern).
        let q = image(&mut f, r, p, |pt, sink| {
            sink.push(DynPoint::from(pt.coord(0) - 1));
            sink.push(DynPoint::from(pt.coord(0) + 1));
        });
        let q0 = f.subregion_i(q, 0); // neighbors of [0,4] = [-1,5] ∩ [0,9]
        assert!(f.domain(q0).set_eq(&Domain::from_ids(0..=5)));
    }

    #[test]
    fn preimage_of_disjoint_is_disjoint() {
        let (mut f, r) = forest_1d(10);
        let p = block(&mut f, r, 2);
        // A second region of "edges" pointing into r.
        let e = f.create_region(Domain::range(6), FieldSpace::new());
        let targets = [0i64, 2, 5, 7, 9, 4];
        let q = preimage(&mut f, e, p, |pt| {
            DynPoint::from(targets[pt.coord(0) as usize])
        });
        assert_eq!(f.partition(q).disjointness, Disjointness::Disjoint);
        let q0 = f.subregion_i(q, 0); // edges mapping into [0,4]: 0,1,5
        assert!(f.domain(q0).set_eq(&Domain::from_ids([0, 1, 5])));
        let q1 = f.subregion_i(q, 1); // edges mapping into [5,9]: 2,3,4
        assert!(f.domain(q1).set_eq(&Domain::from_ids([2, 3, 4])));
    }

    #[test]
    fn by_color_partition() {
        let (mut f, r) = forest_1d(8);
        let colors: Vec<Color> = (0..2).map(DynPoint::from).collect();
        let p = by_color(&mut f, r, &colors, |pt| DynPoint::from(pt.coord(0) % 2));
        let evens = f.subregion_i(p, 0);
        assert!(f.domain(evens).set_eq(&Domain::from_ids([0, 2, 4, 6])));
        assert_eq!(f.partition(p).disjointness, Disjointness::Disjoint);
    }

    #[test]
    fn restrict_and_difference_build_private_ghost() {
        // §4.5: split a region into private/ghost halves and restrict an
        // existing block partition to each.
        let (mut f, r) = forest_1d(12);
        let pb = block(&mut f, r, 3);
        // Ghost = everything the shifted image touches outside own block.
        let qb = image(&mut f, r, pb, |pt, sink| {
            sink.push(DynPoint::from(pt.coord(0) - 1));
            sink.push(DynPoint::from(pt.coord(0) + 1));
        });
        // all_ghost = union over i≠j of qb[j] ∩ pb[i]: compute via
        // color-wise ops: ghost elems = those in some qb[j] not wholly
        // private. For the test just restrict pb to a subregion and check
        // domains.
        let ghost_dom = union_of_children(&f, qb);
        assert!(ghost_dom.volume() > 0);
        let top = f.create_partition(
            r,
            Disjointness::Disjoint,
            vec![
                (DynPoint::from(0), f.domain(r).subtract(&ghost_dom)),
                (DynPoint::from(1), ghost_dom.clone()),
            ],
        );
        let ghost_region = f.subregion_i(top, 1);
        let sb = restrict(&mut f, ghost_region, pb);
        assert_eq!(f.partition(sb).disjointness, Disjointness::Disjoint);
        // Restricted children are subsets of both inputs.
        for (c, child) in f.partition(sb).iter().collect::<Vec<_>>() {
            let orig = f.subregion(pb, c);
            assert!(f.domain(child).is_subset_of(f.domain(orig)));
            assert!(f.domain(child).is_subset_of(&ghost_dom));
        }
        // Difference: pb minus sb leaves the private parts.
        let diff = difference(&mut f, pb, sb);
        for (c, child) in f.partition(diff).iter().collect::<Vec<_>>() {
            assert!(!f.domain(child).overlaps(f.domain(f.subregion(sb, c))));
        }
        // Union of diff and sb restores pb color-wise.
        let uni = union(&mut f, diff, sb);
        for (c, child) in f.partition(uni).iter().collect::<Vec<_>>() {
            assert!(f.domain(child).set_eq(f.domain(f.subregion(pb, c))));
        }
    }
}

#[cfg(test)]
mod by_field_tests {
    use super::*;
    use crate::field::{FieldSpace, FieldType};
    use crate::instance::Instance;

    #[test]
    fn partition_by_field_values() {
        let mut f = RegionForest::new();
        let fs = FieldSpace::of(&[("piece", FieldType::I64)]);
        let piece = fs.lookup("piece").unwrap();
        let r = f.create_region(Domain::range(12), fs.clone());
        let mut inst = Instance::new(Domain::range(12), &fs);
        for i in 0..12i64 {
            inst.write_i64(piece, DynPoint::from(i), i / 4);
        }
        let colors: Vec<Color> = (0..3).map(DynPoint::from).collect();
        let p = by_color(&mut f, r, &colors, |p| {
            DynPoint::from(inst.read_i64(piece, p))
        });
        assert_eq!(f.partition(p).disjointness, Disjointness::Disjoint);
        for c in 0..3i64 {
            let child = f.subregion_i(p, c);
            let expect = Domain::from_ids(c * 4..(c + 1) * 4);
            assert!(f.domain(child).set_eq(&expect));
        }
    }
}
