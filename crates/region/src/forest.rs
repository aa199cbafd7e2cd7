//! The region forest: logical regions, partitions, and the region-tree
//! disjointness analysis of §2.3.
//!
//! Every top-level region created by a program is the root of a *region
//! tree*: regions are partitioned into subregions, which may themselves
//! be partitioned, recursively (§4.5). The forest is an arena holding
//! every region and partition ever created, with parent/child links. The
//! key query is [`RegionForest::provably_disjoint`]: walk both regions to
//! their least common ancestor; if the paths diverge at a *disjoint*
//! partition through different children, the regions cannot overlap.
//! This is the static test the control-replication compiler relies on to
//! avoid inserting copies between non-interfering partitions (§3.1).
//!
//! The runtime's question is the weaker one, "may these two regions
//! share elements": not provably disjoint, and the domains overlap.
//! [`RegionForest::aliases`] answers it for one region against all the
//! others at once, and keeps the answer until the forest changes.

use crate::field::FieldSpace;
use regent_geometry::{Domain, DynPoint};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a logical region in a [`RegionForest`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Identifier of a partition in a [`RegionForest`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u32);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Debug for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The *color* of a subregion: its index within its partition's color
/// space. Block partitions over a 1-D launch domain use 1-D colors.
pub type Color = DynPoint;

/// Static disjointness classification of a partition (§2.1).
///
/// Block partitions are disjoint by construction; image partitions over
/// an unconstrained function must be assumed aliased.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disjointness {
    /// Subregions are guaranteed pairwise disjoint.
    Disjoint,
    /// Subregions may overlap.
    Aliased,
}

/// A logical region node.
#[derive(Clone, Debug)]
pub struct RegionNode {
    /// The set of element indices in the region.
    pub domain: Domain,
    /// Link to the parent partition and this region's color in it
    /// (`None` for tree roots).
    pub parent: Option<(PartitionId, Color)>,
    /// Partitions of this region.
    pub partitions: Vec<PartitionId>,
    /// The root of this region's tree.
    pub root: RegionId,
    /// Depth in the tree (root = 0, counting region levels only).
    pub depth: u32,
}

/// A partition node: a named set of subregions of one parent region.
#[derive(Clone, Debug)]
pub struct PartitionNode {
    /// The region being partitioned.
    pub parent: RegionId,
    /// Static disjointness classification.
    pub disjointness: Disjointness,
    /// Children indexed by color, in insertion (color) order.
    pub children: Vec<(Color, RegionId)>,
    child_index: HashMap<Color, RegionId>,
}

impl PartitionNode {
    /// The subregion of color `c`, if present.
    pub fn child(&self, c: Color) -> Option<RegionId> {
        self.child_index.get(&c).copied()
    }

    /// Number of subregions.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the partition has no subregions.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Iterates `(color, region)` pairs in color order.
    pub fn iter(&self) -> impl Iterator<Item = (Color, RegionId)> + '_ {
        self.children.iter().copied()
    }

    /// All child region ids in color order.
    pub fn child_regions(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.children.iter().map(|&(_, r)| r)
    }
}

/// Arena of all regions and partitions, with the tree queries used by
/// both the compiler and the runtime.
///
/// Cloning a forest is a deep copy of the metadata (domains, links) —
/// used by the range-local control replication driver, which compiles
/// each replicable range against its own forest snapshot.
#[derive(Default, Clone)]
pub struct RegionForest {
    regions: Vec<RegionNode>,
    partitions: Vec<PartitionNode>,
    field_spaces: Vec<FieldSpace>,
    /// Field space of each tree root (indexed in lockstep with the root's
    /// position in `roots`).
    root_fs: HashMap<RegionId, usize>,
    /// Mutation counter, bumped by every structural change (region or
    /// partition creation). Consumers that cache derived schedules —
    /// the epoch-trace memoizer in `regent-runtime` — compare versions
    /// to detect that a cached analysis went stale.
    version: u64,
    /// [`RegionForest::aliases`] of each region, filled on first query
    /// and emptied by every structural change. The outer cell stays
    /// empty until a query, so building a forest pays nothing for it.
    alias_lists: OnceLock<Vec<OnceLock<Box<[RegionId]>>>>,
}

impl RegionForest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        RegionForest::default()
    }

    /// Creates a new top-level region over `domain` with the given field
    /// space, returning the root region id.
    pub fn create_region(&mut self, domain: Domain, fields: FieldSpace) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionNode {
            domain,
            parent: None,
            partitions: Vec::new(),
            root: id,
            depth: 0,
        });
        let fs_idx = self.field_spaces.len();
        self.field_spaces.push(fields);
        self.root_fs.insert(id, fs_idx);
        self.version += 1;
        self.alias_lists.take();
        id
    }

    /// The forest's structural version: incremented by every region or
    /// partition creation. Equal versions on the same forest value mean
    /// no region-tree mutation happened in between (the memoization
    /// precondition of the implicit executor's epoch templates).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Creates a partition of `parent` from explicit `(color, domain)`
    /// pairs. `disjointness` is the *static* classification: callers such
    /// as the block operator pass [`Disjointness::Disjoint`]; operators
    /// that cannot guarantee it (e.g. image) pass
    /// [`Disjointness::Aliased`].
    ///
    /// Subdomains are *not* required to be subsets of the parent: Regent
    /// images clip to the parent, which we enforce here by intersecting.
    pub fn create_partition(
        &mut self,
        parent: RegionId,
        disjointness: Disjointness,
        subdomains: Vec<(Color, Domain)>,
    ) -> PartitionId {
        let pid = PartitionId(self.partitions.len() as u32);
        let parent_node = &self.regions[parent.0 as usize];
        let (root, depth) = (parent_node.root, parent_node.depth);
        let parent_domain = parent_node.domain.clone();
        let mut children = Vec::with_capacity(subdomains.len());
        let mut child_index = HashMap::with_capacity(subdomains.len());
        for (color, dom) in subdomains {
            let clipped = dom.intersect(&parent_domain);
            let rid = RegionId(self.regions.len() as u32);
            self.regions.push(RegionNode {
                domain: clipped,
                parent: Some((pid, color)),
                partitions: Vec::new(),
                root,
                depth: depth + 1,
            });
            children.push((color, rid));
            let dup = child_index.insert(color, rid);
            assert!(dup.is_none(), "duplicate color {color:?} in partition");
        }
        self.partitions.push(PartitionNode {
            parent,
            disjointness,
            children,
            child_index,
        });
        self.regions[parent.0 as usize].partitions.push(pid);
        self.version += 1;
        self.alias_lists.take();
        pid
    }

    /// The node for `r`.
    pub fn region(&self, r: RegionId) -> &RegionNode {
        &self.regions[r.0 as usize]
    }

    /// The node for `p`.
    pub fn partition(&self, p: PartitionId) -> &PartitionNode {
        &self.partitions[p.0 as usize]
    }

    /// The domain of `r`.
    pub fn domain(&self, r: RegionId) -> &Domain {
        &self.regions[r.0 as usize].domain
    }

    /// The subregion of partition `p` with color `c`.
    ///
    /// # Panics
    /// If the color is not present.
    pub fn subregion(&self, p: PartitionId, c: Color) -> RegionId {
        self.partition(p)
            .child(c)
            .unwrap_or_else(|| panic!("partition {p:?} has no color {c:?}"))
    }

    /// 1-D convenience wrapper for [`RegionForest::subregion`].
    pub fn subregion_i(&self, p: PartitionId, i: i64) -> RegionId {
        self.subregion(p, DynPoint::from(i))
    }

    /// The field space of the tree containing `r`.
    pub fn fields(&self, r: RegionId) -> &FieldSpace {
        let root = self.regions[r.0 as usize].root;
        &self.field_spaces[self.root_fs[&root]]
    }

    /// Number of regions in the forest.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Number of partitions in the forest.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The partition holding the non-root region `r`, and that
    /// partition's parent region.
    fn parent_link(&self, r: RegionId) -> (PartitionId, RegionId) {
        let (p, _) = self.regions[r.0 as usize]
            .parent
            .expect("only a tree root has no parent, and no caller climbs past it");
        (p, self.partitions[p.0 as usize].parent)
    }

    /// The static disjointness test of §2.3: returns `true` only when the
    /// region tree *proves* `a` and `b` cannot share elements.
    ///
    /// Walk both regions to their least common ancestor. If the paths
    /// reach the LCA through the same partition but different colors, and
    /// that partition is disjoint, the regions are disjoint. Any other
    /// configuration (different partitions of the same region, aliased
    /// partition, ancestor/descendant relationship) must conservatively
    /// answer `false`.
    pub fn provably_disjoint(&self, a: RegionId, b: RegionId) -> bool {
        if a == b {
            return false;
        }
        let (na, nb) = (&self.regions[a.0 as usize], &self.regions[b.0 as usize]);
        if na.root != nb.root {
            // Different trees never share elements.
            return true;
        }
        // Lift the deeper region to the other's depth; landing on the
        // other means one contains the other.
        let (mut a, mut b) = (a, b);
        for _ in nb.depth..na.depth {
            a = self.parent_link(a).1;
        }
        for _ in na.depth..nb.depth {
            b = self.parent_link(b).1;
        }
        if a == b {
            return false;
        }
        // Climb in step to the two children of the least common
        // ancestor. Distinct regions of one tree at equal depth are
        // both below its root, so neither climb runs out.
        loop {
            let ((pa, ua), (pb, ub)) = (self.parent_link(a), self.parent_link(b));
            if ua == ub {
                // One partition means two colors (`a != b`); two
                // partitions of one region prove nothing statically.
                return pa == pb
                    && self.partitions[pa.0 as usize].disjointness == Disjointness::Disjoint;
            }
            (a, b) = (ua, ub);
        }
    }

    /// The regions that may share elements with `r`: every `s` with
    /// `!provably_disjoint(r, s)` whose domain overlaps `r`'s, `r`
    /// itself included unless its domain is empty. Sorted by id.
    ///
    /// Computed once per region and forest version by one walk of `r`'s
    /// tree, then kept: creating a region or partition forgets every
    /// list, and a clone carries the lists it has. The walk skips a
    /// subtree whose domain misses `r`'s (a subregion lies inside its
    /// parent), and under a disjoint partition on `r`'s own path enters
    /// only `r`'s branch (the other branches are provably disjoint).
    pub fn aliases(&self, r: RegionId) -> &[RegionId] {
        let lists = self
            .alias_lists
            .get_or_init(|| (0..self.regions.len()).map(|_| OnceLock::new()).collect());
        lists[r.0 as usize].get_or_init(|| {
            // `r`'s path from the root, as the child taken below each
            // ancestor.
            let node = &self.regions[r.0 as usize];
            let mut path = vec![r; node.depth as usize];
            let mut cur = r;
            for step in path.iter_mut().rev() {
                *step = cur;
                cur = self.parent_link(cur).1;
            }
            let mut out = Vec::new();
            self.alias_walk(&node.domain, node.root, &path, &mut out);
            out.sort_unstable();
            out.into_boxed_slice()
        })
    }

    /// Adds `s` and its descendants that overlap `dom` and are not
    /// provably disjoint from the queried region to `out`. `path` is the
    /// rest of the queried region's path below `s` when `s` is one of its
    /// ancestors, and empty otherwise.
    fn alias_walk(&self, dom: &Domain, s: RegionId, path: &[RegionId], out: &mut Vec<RegionId>) {
        let node = &self.regions[s.0 as usize];
        if !node.domain.overlaps(dom) {
            return;
        }
        out.push(s);
        let next = path.first().map(|&c| (self.parent_link(c).0, c));
        for &p in &node.partitions {
            let part = &self.partitions[p.0 as usize];
            let on_path = next.filter(|&(q, _)| q == p).map(|(_, child)| child);
            for c in part.child_regions() {
                match on_path {
                    Some(child) if c == child => self.alias_walk(dom, c, &path[1..], out),
                    // A sibling of the queried region's own branch.
                    Some(_) if part.disjointness == Disjointness::Disjoint => {}
                    _ => self.alias_walk(dom, c, &[], out),
                }
            }
        }
    }

    /// Exact dynamic disjointness: compares the actual domains. Used by
    /// runtime checks and as the oracle for the static test's soundness
    /// property (static `true` must imply dynamic `true`).
    pub fn dynamically_disjoint(&self, a: RegionId, b: RegionId) -> bool {
        !self.domain(a).overlaps(self.domain(b))
    }

    /// True when `anc` is `desc` or an ancestor region of `desc`.
    pub fn is_ancestor_or_self(&self, anc: RegionId, desc: RegionId) -> bool {
        let mut cur = desc;
        loop {
            if cur == anc {
                return true;
            }
            match self.regions[cur.0 as usize].parent {
                Some((p, _)) => cur = self.partitions[p.0 as usize].parent,
                None => return false,
            }
        }
    }

    /// The root region of `r`'s tree.
    pub fn root_of(&self, r: RegionId) -> RegionId {
        self.regions[r.0 as usize].root
    }
}

impl fmt::Debug for RegionForest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RegionForest({} regions, {} partitions)",
            self.regions.len(),
            self.partitions.len()
        )?;
        for (i, r) in self.regions.iter().enumerate() {
            if r.parent.is_none() {
                self.fmt_region(f, RegionId(i as u32), 0)?;
            }
        }
        Ok(())
    }
}

impl RegionForest {
    fn fmt_region(&self, f: &mut fmt::Formatter<'_>, r: RegionId, indent: usize) -> fmt::Result {
        let node = self.region(r);
        writeln!(
            f,
            "{:indent$}{:?} vol={} {:?}",
            "",
            r,
            node.domain.volume(),
            node.domain.bounds(),
            indent = indent
        )?;
        for &p in &node.partitions {
            let pn = self.partition(p);
            writeln!(
                f,
                "{:indent$}{:?} [{:?}] ({} children)",
                "",
                p,
                pn.disjointness,
                pn.len(),
                indent = indent + 2
            )?;
            for (_, child) in pn.iter() {
                self.fmt_region(f, child, indent + 4)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_geometry::DynRect;

    fn two_block_forest() -> (RegionForest, RegionId, PartitionId) {
        let mut f = RegionForest::new();
        let r = f.create_region(Domain::range(10), FieldSpace::new());
        let p = f.create_partition(
            r,
            Disjointness::Disjoint,
            vec![
                (DynPoint::from(0), Domain::from_rect(DynRect::span(0, 4))),
                (DynPoint::from(1), Domain::from_rect(DynRect::span(5, 9))),
            ],
        );
        (f, r, p)
    }

    #[test]
    fn block_children_disjoint() {
        let (f, r, p) = two_block_forest();
        let a = f.subregion_i(p, 0);
        let b = f.subregion_i(p, 1);
        assert!(f.provably_disjoint(a, b));
        assert!(f.dynamically_disjoint(a, b));
        assert!(!f.provably_disjoint(a, a));
        assert!(!f.provably_disjoint(a, r), "child overlaps its parent");
        assert!(f.is_ancestor_or_self(r, a));
        assert!(!f.is_ancestor_or_self(a, r));
    }

    #[test]
    fn aliased_partition_not_proven() {
        let mut f = RegionForest::new();
        let r = f.create_region(Domain::range(10), FieldSpace::new());
        let q = f.create_partition(
            r,
            Disjointness::Aliased,
            vec![
                (DynPoint::from(0), Domain::from_rect(DynRect::span(0, 6))),
                (DynPoint::from(1), Domain::from_rect(DynRect::span(4, 9))),
            ],
        );
        let a = f.subregion_i(q, 0);
        let b = f.subregion_i(q, 1);
        assert!(!f.provably_disjoint(a, b));
        assert!(!f.dynamically_disjoint(a, b));
    }

    #[test]
    fn cross_partition_conservative() {
        // Two different partitions of the same region: even disjoint ones
        // cannot be compared statically (their subregions may overlap).
        let (mut f, r, p) = two_block_forest();
        let q = f.create_partition(
            r,
            Disjointness::Disjoint,
            vec![
                (DynPoint::from(0), Domain::from_rect(DynRect::span(0, 2))),
                (DynPoint::from(1), Domain::from_rect(DynRect::span(3, 9))),
            ],
        );
        let a = f.subregion_i(p, 0); // [0,4]
        let b = f.subregion_i(q, 1); // [3,9]
        assert!(!f.provably_disjoint(a, b));
        assert!(!f.dynamically_disjoint(a, b));
        // Static soundness even when dynamically disjoint:
        let c = f.subregion_i(q, 0); // [0,2] vs p[1]=[5,9]
        let d = f.subregion_i(p, 1);
        assert!(!f.provably_disjoint(c, d), "conservative across partitions");
        assert!(f.dynamically_disjoint(c, d));
    }

    #[test]
    fn nested_hierarchy_disjointness() {
        // §4.5 structure: region → {private, ghost} (disjoint), each
        // partitioned again. Subregions of private must be provably
        // disjoint from subregions of ghost.
        let mut f = RegionForest::new();
        let r = f.create_region(Domain::range(100), FieldSpace::new());
        let top = f.create_partition(
            r,
            Disjointness::Disjoint,
            vec![
                (DynPoint::from(0), Domain::from_rect(DynRect::span(0, 79))),
                (DynPoint::from(1), Domain::from_rect(DynRect::span(80, 99))),
            ],
        );
        let private = f.subregion_i(top, 0);
        let ghost = f.subregion_i(top, 1);
        let pp = f.create_partition(
            private,
            Disjointness::Disjoint,
            vec![
                (DynPoint::from(0), Domain::from_rect(DynRect::span(0, 39))),
                (DynPoint::from(1), Domain::from_rect(DynRect::span(40, 79))),
            ],
        );
        let gp = f.create_partition(
            ghost,
            Disjointness::Aliased,
            vec![
                (DynPoint::from(0), Domain::from_rect(DynRect::span(80, 95))),
                (DynPoint::from(1), Domain::from_rect(DynRect::span(85, 99))),
            ],
        );
        let p0 = f.subregion_i(pp, 0);
        let g0 = f.subregion_i(gp, 0);
        let g1 = f.subregion_i(gp, 1);
        assert!(f.provably_disjoint(p0, g0), "divergence at disjoint top");
        assert!(f.provably_disjoint(p0, g1));
        assert!(!f.provably_disjoint(g0, g1), "aliased ghost partition");
    }

    #[test]
    fn different_trees_disjoint() {
        let mut f = RegionForest::new();
        let a = f.create_region(Domain::range(10), FieldSpace::new());
        let b = f.create_region(Domain::range(10), FieldSpace::new());
        assert!(f.provably_disjoint(a, b));
    }

    #[test]
    fn partition_clips_to_parent() {
        let mut f = RegionForest::new();
        let r = f.create_region(Domain::range(10), FieldSpace::new());
        let p = f.create_partition(
            r,
            Disjointness::Aliased,
            vec![(DynPoint::from(0), Domain::from_rect(DynRect::span(5, 20)))],
        );
        let s = f.subregion_i(p, 0);
        assert_eq!(f.domain(s).volume(), 5); // [5,9]
    }

    #[test]
    fn version_tracks_structural_mutations() {
        let mut f = RegionForest::new();
        assert_eq!(f.version(), 0);
        let r = f.create_region(Domain::range(10), FieldSpace::new());
        let v1 = f.version();
        assert!(v1 > 0);
        f.create_partition(
            r,
            Disjointness::Disjoint,
            vec![(DynPoint::from(0), Domain::range(5))],
        );
        assert!(f.version() > v1, "partition creation must bump the version");
        // Clones carry the version; queries do not perturb it.
        let snap = f.clone();
        let _ = f.provably_disjoint(r, r);
        assert_eq!(snap.version(), f.version());
    }

    #[test]
    #[should_panic(expected = "duplicate color")]
    fn duplicate_color_panics() {
        let mut f = RegionForest::new();
        let r = f.create_region(Domain::range(4), FieldSpace::new());
        f.create_partition(
            r,
            Disjointness::Disjoint,
            vec![
                (DynPoint::from(0), Domain::range(2)),
                (DynPoint::from(0), Domain::range(2)),
            ],
        );
    }
}
