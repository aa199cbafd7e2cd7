//! Augmented interval tree over 1-D integer intervals.
//!
//! §3.3: "For unstructured regions, an interval tree acceleration data
//! structure makes this operation O(N log N)" — the shallow-intersection
//! pass inserts every run of every subregion into this tree and queries
//! it with the runs of the other partition, replacing the naive
//! all-pairs O(N²) comparison.

/// An inclusive 1-D interval tagged with a caller-supplied id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
    /// Caller tag (e.g. the index of the subregion owning this run).
    pub id: u32,
}

impl Interval {
    /// Creates an interval; empty intervals (`lo > hi`) are rejected.
    pub(crate) fn new(lo: i64, hi: i64, id: u32) -> Self {
        assert!(lo <= hi, "empty interval [{lo},{hi}]");
        Interval { lo, hi, id }
    }

    #[inline]
    fn overlaps(&self, lo: i64, hi: i64) -> bool {
        self.lo <= hi && lo <= self.hi
    }
}

/// Static augmented interval tree: build once, query many times.
///
/// The intervals are kept in one array sorted by `lo`, read as an
/// implicit balanced search tree (the root of `[a, b)` is its middle
/// element), and every node is augmented with the largest `hi` in its
/// subtree. Build is a sort plus one bottom-up pass, with two
/// allocations in total; a query reporting `k` hits is O(log n + k)
/// for the disjoint-per-subregion runs the shallow pass stores.
pub(crate) struct IntervalTree {
    /// Sorted by `lo`.
    intervals: Vec<Interval>,
    /// `max_hi[m]`: largest `hi` in the subtree rooted at `m`.
    max_hi: Vec<i64>,
}

impl IntervalTree {
    /// Builds the tree from a set of intervals.
    pub(crate) fn build(mut intervals: Vec<Interval>) -> Self {
        intervals.sort_unstable_by_key(|iv| iv.lo);
        let mut max_hi = vec![i64::MIN; intervals.len()];
        Self::augment(&intervals, &mut max_hi, 0, intervals.len());
        IntervalTree { intervals, max_hi }
    }

    /// Fills `max_hi` for the subtree over `[a, b)`; returns its max.
    fn augment(intervals: &[Interval], max_hi: &mut [i64], a: usize, b: usize) -> i64 {
        if a >= b {
            return i64::MIN;
        }
        let m = a + (b - a) / 2;
        let left = Self::augment(intervals, max_hi, a, m);
        let right = Self::augment(intervals, max_hi, m + 1, b);
        max_hi[m] = intervals[m].hi.max(left).max(right);
        max_hi[m]
    }

    /// Invokes `hit` for every stored interval overlapping `[lo, hi]`.
    pub(crate) fn query(&self, lo: i64, hi: i64, mut hit: impl FnMut(&Interval)) {
        assert!(lo <= hi, "empty query interval");
        self.visit(0, self.intervals.len(), lo, hi, &mut hit);
    }

    fn visit(&self, a: usize, b: usize, lo: i64, hi: i64, hit: &mut impl FnMut(&Interval)) {
        if a >= b {
            return;
        }
        let m = a + (b - a) / 2;
        // Nothing in this subtree reaches up to the query.
        if self.max_hi[m] < lo {
            return;
        }
        self.visit(a, m, lo, hi, hit);
        // The root and everything right of it start past the query.
        let root = &self.intervals[m];
        if root.lo > hi {
            return;
        }
        if root.overlaps(lo, hi) {
            hit(root);
        }
        self.visit(m + 1, b, lo, hi, hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(intervals: &[Interval], lo: i64, hi: i64) -> Vec<u32> {
        let mut v: Vec<u32> = intervals
            .iter()
            .filter(|iv| iv.overlaps(lo, hi))
            .map(|iv| iv.id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Ids of the stored intervals overlapping `[lo, hi]`, in visit
    /// order.
    fn hits(t: &IntervalTree, lo: i64, hi: i64) -> Vec<u32> {
        let mut out = Vec::new();
        t.query(lo, hi, |iv| out.push(iv.id));
        out
    }

    #[test]
    fn basic_overlap() {
        let ivs = vec![
            Interval::new(0, 4, 0),
            Interval::new(5, 9, 1),
            Interval::new(3, 6, 2),
            Interval::new(20, 30, 3),
        ];
        let t = IntervalTree::build(ivs.clone());
        assert_eq!(hits(&t, 0, 30).len(), 4);
        let mut ids = hits(&t, 4, 5);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(hits(&t, 10, 19), Vec::<u32>::new());
        assert_eq!(hits(&t, 25, 25), vec![3]);
    }

    #[test]
    fn empty_tree() {
        let t = IntervalTree::build(vec![]);
        assert_eq!(hits(&t, 0, 100), Vec::<u32>::new());
    }

    #[test]
    fn point_intervals() {
        let ivs: Vec<Interval> = (0..100)
            .map(|i| Interval::new(i * 2, i * 2, i as u32))
            .collect();
        let t = IntervalTree::build(ivs);
        assert_eq!(hits(&t, 50, 50), vec![25]);
        assert_eq!(hits(&t, 51, 51), Vec::<u32>::new());
        let mut r = hits(&t, 10, 20);
        r.sort_unstable();
        assert_eq!(r, vec![5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn randomized_vs_naive() {
        // Deterministic pseudo-random intervals; compare against the
        // brute-force oracle.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let ivs: Vec<Interval> = (0..500)
            .map(|i| {
                let lo = (next() % 2000) as i64 - 1000;
                let len = (next() % 50) as i64;
                Interval::new(lo, lo + len, i)
            })
            .collect();
        let t = IntervalTree::build(ivs.clone());
        for _ in 0..200 {
            let lo = (next() % 2200) as i64 - 1100;
            let len = (next() % 80) as i64;
            let mut got = hits(&t, lo, lo + len);
            got.sort_unstable();
            assert_eq!(got, naive(&ivs, lo, lo + len));
        }
    }
}
