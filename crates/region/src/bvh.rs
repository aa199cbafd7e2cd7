//! Bounding volume hierarchy over rectangles.
//!
//! §3.3: "For structured regions, we use a bounding volume hierarchy" to
//! find which pairs of subregions overlap without comparing all pairs.
//! The tree is built once over one partition's rectangles and queried
//! with each rectangle of the other partition.

use regent_geometry::DynRect;

/// A rectangle tagged with a caller-supplied id.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TaggedRect {
    /// The rectangle (must be non-empty).
    pub rect: DynRect,
    /// Caller tag (e.g. subregion index).
    pub id: u32,
}

enum BvhNode {
    Leaf {
        items: Vec<TaggedRect>,
    },
    Inner {
        bbox: DynRect,
        left: Box<BvhNode>,
        right: Box<BvhNode>,
    },
}

/// Static BVH: build once, query many times.
///
/// Built by recursive median split along the longest axis of the current
/// bounding box; leaves hold up to [`Bvh::LEAF_SIZE`] rectangles.
pub(crate) struct Bvh {
    root: Option<BvhNode>,
}

impl Bvh {
    /// Maximum number of rectangles stored in one leaf.
    pub(crate) const LEAF_SIZE: usize = 8;

    /// Builds the hierarchy. Empty rectangles are rejected.
    pub(crate) fn build(items: Vec<TaggedRect>) -> Self {
        assert!(
            items.iter().all(|t| !t.rect.is_empty()),
            "BVH items must be non-empty"
        );
        let root = if items.is_empty() {
            None
        } else {
            Some(Self::build_node(items))
        };
        Bvh { root }
    }

    fn bbox_of(items: &[TaggedRect]) -> DynRect {
        let mut bb = DynRect::empty(items[0].rect.dim());
        for t in items {
            bb = bb.union_bbox(&t.rect);
        }
        bb
    }

    fn build_node(mut items: Vec<TaggedRect>) -> BvhNode {
        if items.len() <= Self::LEAF_SIZE {
            return BvhNode::Leaf { items };
        }
        let bbox = Self::bbox_of(&items);
        // Longest axis of the bounding box.
        let dim = bbox.dim();
        let axis = (0..dim)
            .max_by_key(|&d| bbox.hi().coord(d) - bbox.lo().coord(d))
            .unwrap();
        let mid = items.len() / 2;
        items
            .select_nth_unstable_by_key(mid, |t| t.rect.lo().coord(axis) + t.rect.hi().coord(axis));
        let right_items = items.split_off(mid);
        BvhNode::Inner {
            bbox,
            left: Box::new(Self::build_node(items)),
            right: Box::new(Self::build_node(right_items)),
        }
    }

    /// Invokes `hit` for every stored rectangle overlapping `query`.
    pub(crate) fn query(&self, query: &DynRect, mut hit: impl FnMut(&TaggedRect)) {
        if query.is_empty() {
            return;
        }
        let mut stack: Vec<&BvhNode> = Vec::new();
        if let Some(ref root) = self.root {
            stack.push(root);
        }
        while let Some(node) = stack.pop() {
            match node {
                BvhNode::Leaf { items } => {
                    for t in items {
                        if t.rect.overlaps(query) {
                            hit(t);
                        }
                    }
                }
                BvhNode::Inner { bbox, left, right } => {
                    if bbox.overlaps(query) {
                        stack.push(left);
                        stack.push(right);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_geometry::DynPoint;

    fn rect2(x0: i64, y0: i64, x1: i64, y1: i64) -> DynRect {
        DynRect::new(DynPoint::new(&[x0, y0]), DynPoint::new(&[x1, y1]))
    }

    /// Ids of the stored rectangles overlapping `q`, in visit order.
    fn hits(bvh: &Bvh, q: &DynRect) -> Vec<u32> {
        let mut out = Vec::new();
        bvh.query(q, |t| out.push(t.id));
        out
    }

    #[test]
    fn grid_of_tiles() {
        // 4x4 grid of 10x10 tiles.
        let mut items = Vec::new();
        for i in 0..4i64 {
            for j in 0..4i64 {
                items.push(TaggedRect {
                    rect: rect2(i * 10, j * 10, i * 10 + 9, j * 10 + 9),
                    id: (i * 4 + j) as u32,
                });
            }
        }
        let bvh = Bvh::build(items);
        assert_eq!(hits(&bvh, &rect2(0, 0, 39, 39)).len(), 16);
        // Query overlapping exactly one tile.
        assert_eq!(hits(&bvh, &rect2(12, 12, 14, 14)), vec![5]);
        // Query spanning a 2x2 block of tiles.
        let mut ids = hits(&bvh, &rect2(8, 8, 12, 12));
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 4, 5]);
        // Query outside everything.
        assert!(hits(&bvh, &rect2(100, 100, 110, 110)).is_empty());
    }

    #[test]
    fn empty_and_single() {
        let bvh = Bvh::build(vec![]);
        assert!(hits(&bvh, &rect2(0, 0, 5, 5)).is_empty());
        let one = Bvh::build(vec![TaggedRect {
            rect: rect2(0, 0, 3, 3),
            id: 7,
        }]);
        assert_eq!(hits(&one, &rect2(3, 3, 9, 9)), vec![7]);
        assert!(hits(&one, &DynRect::empty(2)).is_empty());
    }

    #[test]
    fn randomized_vs_naive() {
        let mut seed = 0xDEADBEEFCAFEF00Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let items: Vec<TaggedRect> = (0..300)
            .map(|i| {
                let x = (next() % 500) as i64;
                let y = (next() % 500) as i64;
                let w = (next() % 30) as i64;
                let h = (next() % 30) as i64;
                TaggedRect {
                    rect: rect2(x, y, x + w, y + h),
                    id: i,
                }
            })
            .collect();
        let bvh = Bvh::build(items.clone());
        for _ in 0..100 {
            let x = (next() % 520) as i64;
            let y = (next() % 520) as i64;
            let q = rect2(x, y, x + (next() % 60) as i64, y + (next() % 60) as i64);
            let mut got = hits(&bvh, &q);
            got.sort_unstable();
            let mut expect: Vec<u32> = items
                .iter()
                .filter(|t| t.rect.overlaps(&q))
                .map(|t| t.id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }
}
