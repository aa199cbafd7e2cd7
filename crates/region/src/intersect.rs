//! Dynamic region intersections: the runtime half of the copy
//! intersection optimization (§3.3) and the data behind Table 1.
//!
//! The compiler emits copies between a *source* partition and a
//! *destination* partition; only elements in `dst[j] ∩ src[i]` actually
//! move. The dynamic analysis runs in two phases:
//!
//! 1. **Shallow intersections** determine *which* pairs `(i, j)` overlap
//!    — but not the extent — using an interval tree for 1-D
//!    (unstructured) domains or a BVH for multi-dimensional (structured)
//!    domains. This avoids the O(N²) all-pairs comparison; for the O(1)
//!    neighbors-per-region patterns of scalable scientific codes it is
//!    O(N log N).
//! 2. **Complete intersections** compute the exact overlapping element
//!    sets for the known-intersecting pairs only ([`Domain::intersect`]
//!    on each pair [`shallow_pairs`] reports, as the exchange schedule
//!    does). After sharding, each shard performs this for its own pairs
//!    (O(M²) where M is the number of non-empty intersections owned by
//!    the shard).

use crate::bvh::{Bvh, TaggedRect};
use crate::forest::Color;
use crate::interval::{Interval, IntervalTree};
use regent_geometry::Domain;

/// A pair of overlapping subregions found by the shallow pass:
/// `src` is the color of the producing subregion, `dst` of the consuming
/// one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OverlapPair {
    /// Color of the source subregion.
    pub src: Color,
    /// Color of the destination subregion.
    pub dst: Color,
}

/// Shallow intersection over explicit `(color, domain)` lists (the form
/// used inside shard tasks, which own only a slice of the colors).
pub fn shallow_intersections_of(
    src: &[(Color, Domain)],
    dst: &[(Color, Domain)],
) -> Vec<OverlapPair> {
    let src_doms: Vec<&Domain> = src.iter().map(|(_, d)| d).collect();
    let dst_doms: Vec<&Domain> = dst.iter().map(|(_, d)| d).collect();
    let mut out: Vec<OverlapPair> = shallow_pairs(&src_doms, &dst_doms)
        .into_iter()
        .map(|(i, j)| OverlapPair {
            src: src[i].0,
            dst: dst[j].0,
        })
        .collect();
    out.sort_unstable();
    out
}

/// The shallow pass proper: every index pair `(i, j)` with `src[i]`
/// overlapping `dst[j]`, sorted. Linear in the rectangle-level hits the
/// acceleration structure reports: a pair of children usually overlaps
/// in many runs, and the repeats are dropped by stamping each source
/// with the last destination that hit it (destinations are visited one
/// at a time), not by hashing.
pub fn shallow_pairs(src: &[&Domain], dst: &[&Domain]) -> Vec<(usize, usize)> {
    let dim = src.iter().chain(dst).map(|d| d.dim()).next().unwrap_or(1);
    let mut last_hit_by = vec![usize::MAX; src.len()];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut hit = |i: u32, j: usize| {
        let stamp = &mut last_hit_by[i as usize];
        if *stamp != j {
            *stamp = j;
            pairs.push((i as usize, j));
        }
    };
    if dim == 1 {
        // Interval tree over every run of every src child.
        let mut runs = Vec::new();
        for (i, dom) in src.iter().enumerate() {
            for r in dom.rects() {
                runs.push(Interval::new(r.lo().coord(0), r.hi().coord(0), i as u32));
            }
        }
        let tree = IntervalTree::build(runs);
        for (j, dom) in dst.iter().enumerate() {
            for r in dom.rects() {
                tree.query(r.lo().coord(0), r.hi().coord(0), |iv| hit(iv.id, j));
            }
        }
    } else {
        // BVH over every rectangle of every src child.
        let mut rects = Vec::new();
        for (i, dom) in src.iter().enumerate() {
            for r in dom.rects() {
                rects.push(TaggedRect {
                    rect: *r,
                    id: i as u32,
                });
            }
        }
        let bvh = Bvh::build(rects);
        for (j, dom) in dst.iter().enumerate() {
            for r in dom.rects() {
                bvh.query(r, |t| hit(t.id, j));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Naive O(N²) shallow intersection — the unaccelerated baseline used by
/// tests and the ablation benchmark.
pub fn shallow_intersections_naive(
    src: &[(Color, Domain)],
    dst: &[(Color, Domain)],
) -> Vec<OverlapPair> {
    let mut out = Vec::new();
    for (sc, sd) in src {
        for (dc, dd) in dst {
            if sd.overlaps(dd) {
                out.push(OverlapPair { src: *sc, dst: *dc });
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldSpace;
    use crate::forest::{PartitionId, RegionForest};
    use crate::ops;
    use regent_geometry::DynPoint;

    /// Stencil-like setup: block partition + shifted image partition.
    fn halo_setup(n: u64, parts: usize) -> (RegionForest, PartitionId, PartitionId) {
        let mut f = RegionForest::new();
        let r = f.create_region(Domain::range(n), FieldSpace::new());
        let pb = ops::block(&mut f, r, parts);
        let qb = ops::image(&mut f, r, pb, |p, sink| {
            sink.push(DynPoint::from(p.coord(0) - 1));
            sink.push(DynPoint::from(p.coord(0) + 1));
        });
        (f, pb, qb)
    }

    #[test]
    fn shallow_matches_naive_1d() {
        let (f, pb, qb) = halo_setup(100, 8);
        let src: Vec<_> = f
            .partition(pb)
            .iter()
            .map(|(c, r)| (c, f.domain(r).clone()))
            .collect();
        let dst: Vec<_> = f
            .partition(qb)
            .iter()
            .map(|(c, r)| (c, f.domain(r).clone()))
            .collect();
        let fast = shallow_intersections_of(&src, &dst);
        let naive = shallow_intersections_naive(&src, &dst);
        assert_eq!(fast, naive);
        // Each ghost region overlaps its own block and both neighbors:
        // the pair count is O(parts), not O(parts²).
        assert!(fast.len() <= 3 * 8);
        assert!(fast.len() >= 8);
    }

    #[test]
    fn complete_gives_exact_elements() {
        let (f, pb, qb) = halo_setup(40, 4);
        let src: Vec<&Domain> = f.partition(pb).iter().map(|(_, r)| f.domain(r)).collect();
        let dst: Vec<&Domain> = f.partition(qb).iter().map(|(_, r)| f.domain(r)).collect();
        let pairs = shallow_pairs(&src, &dst);
        assert!(!pairs.is_empty());
        for &(i, j) in &pairs {
            let elements = src[i].intersect(dst[j]);
            assert!(elements.is_subset_of(src[i]));
            assert!(elements.is_subset_of(dst[j]));
            assert!(!elements.is_empty(), "shallow pass reported a false pair");
            // Cross-block halo pairs exchange exactly one element each
            // (radius-1 halo): src block i, dst ghost j with i != j.
            if i != j {
                assert_eq!(elements.volume(), 1);
            }
        }
    }

    #[test]
    fn shallow_2d_bvh() {
        use regent_geometry::DynRect;
        let mut f = RegionForest::new();
        let rect = DynRect::new(DynPoint::new(&[0, 0]), DynPoint::new(&[39, 39]));
        let r = f.create_region(Domain::from_rect(rect), FieldSpace::new());
        let tiles = ops::block2d(&mut f, r, 4, 4);
        // Ghost tiles: each tile grown by 1.
        let grown: Vec<(Color, Domain)> = f
            .partition(tiles)
            .iter()
            .map(|(c, reg)| {
                let b = f.domain(reg).bounds();
                let (lo, hi) = (b.lo(), b.hi());
                let g = DynRect::new(
                    DynPoint::new(&[lo.coord(0) - 1, lo.coord(1) - 1]),
                    DynPoint::new(&[hi.coord(0) + 1, hi.coord(1) + 1]),
                )
                .intersection(&rect);
                (c, Domain::from_rect(g))
            })
            .collect();
        let src: Vec<_> = f
            .partition(tiles)
            .iter()
            .map(|(c, reg)| (c, f.domain(reg).clone()))
            .collect();
        let fast = shallow_intersections_of(&src, &grown);
        let naive = shallow_intersections_naive(&src, &grown);
        assert_eq!(fast, naive);
        // Interior tile's halo touches 9 tiles (self + 8 neighbors).
        let interior = DynPoint::new(&[1, 1]);
        let touching = fast.iter().filter(|p| p.dst == interior).count();
        assert_eq!(touching, 9);
    }

    #[test]
    fn disjoint_partitions_no_pairs() {
        let mut f = RegionForest::new();
        let r = f.create_region(Domain::range(100), FieldSpace::new());
        let p = ops::block(&mut f, r, 4);
        let evens: Vec<_> = f
            .partition(p)
            .iter()
            .step_by(2)
            .map(|(c, reg)| (c, f.domain(reg).clone()))
            .collect();
        let odds: Vec<_> = f
            .partition(p)
            .iter()
            .skip(1)
            .step_by(2)
            .map(|(c, reg)| (c, f.domain(reg).clone()))
            .collect();
        assert!(shallow_intersections_of(&evens, &odds).is_empty());
    }
}
