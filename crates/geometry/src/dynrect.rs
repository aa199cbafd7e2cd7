//! Dynamically-dimensioned points and rectangles.
//!
//! The compiler and runtime layers handle regions of mixed dimensionality
//! (1-D unstructured meshes, 2-D grids, 3-D grids) uniformly, so points
//! and rectangles carry their dimension at runtime (capped at
//! [`MAX_DIM`], like Legion's `Domain`).

use std::fmt;

/// Maximum supported dimensionality.
pub const MAX_DIM: usize = 3;

/// A point with runtime-known dimensionality (1..=[`MAX_DIM`]).
///
/// Unused trailing coordinates are kept at 0 so that equality and hashing
/// work structurally.
// (Empty rectangles are canonicalized on construction so `==` is
// structural set equality for them too.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DynPoint {
    dim: u8,
    coords: [i64; MAX_DIM],
}

impl DynPoint {
    /// Creates a point from its leading `coords.len()` coordinates.
    ///
    /// # Panics
    /// If `coords` is empty or longer than [`MAX_DIM`].
    pub fn new(coords: &[i64]) -> Self {
        assert!(
            (1..=MAX_DIM).contains(&coords.len()),
            "DynPoint dimension must be 1..={MAX_DIM}, got {}",
            coords.len()
        );
        let mut c = [0i64; MAX_DIM];
        c[..coords.len()].copy_from_slice(coords);
        DynPoint {
            dim: coords.len() as u8,
            coords: c,
        }
    }

    /// The dimensionality of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The active coordinates.
    #[inline]
    pub fn coords(&self) -> &[i64] {
        &self.coords[..self.dim as usize]
    }

    /// All [`MAX_DIM`] coordinates, the inactive trailing ones zero.
    #[inline]
    pub fn padded(&self) -> [i64; MAX_DIM] {
        self.coords
    }

    /// Coordinate in dimension `d`.
    #[inline]
    pub fn coord(&self, d: usize) -> i64 {
        debug_assert!(d < self.dim());
        self.coords[d]
    }
}

impl From<i64> for DynPoint {
    fn from(v: i64) -> Self {
        DynPoint::new(&[v])
    }
}

impl fmt::Debug for DynPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A rectangle with runtime-known dimensionality and inclusive bounds.
///
/// The canonical empty rectangle of dimension `d` has `lo = 0, hi = -1`
/// in every active coordinate; construction canonicalizes all empty
/// rectangles to it so equality is structural.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynRect {
    dim: u8,
    lo: [i64; MAX_DIM],
    hi: [i64; MAX_DIM],
}

impl DynRect {
    /// Creates `[lo, hi]` with matching dimensions.
    pub fn new(lo: DynPoint, hi: DynPoint) -> Self {
        assert_eq!(lo.dim(), hi.dim(), "bound dimensions differ");
        DynRect {
            dim: lo.dim,
            lo: lo.coords,
            hi: hi.coords,
        }
        .normalized()
    }

    /// The canonical empty rectangle of dimension `dim`.
    pub fn empty(dim: usize) -> Self {
        assert!((1..=MAX_DIM).contains(&dim));
        let mut hi = [0i64; MAX_DIM];
        for h in hi.iter_mut().take(dim) {
            *h = -1;
        }
        DynRect {
            dim: dim as u8,
            lo: [0; MAX_DIM],
            hi,
        }
    }

    /// The 1-D interval `[lo, hi]`.
    #[inline]
    pub fn span(lo: i64, hi: i64) -> Self {
        if lo > hi {
            return DynRect::empty(1);
        }
        DynRect {
            dim: 1,
            lo: [lo, 0, 0],
            hi: [hi, 0, 0],
        }
    }

    /// The 1-D interval `[0, n)`.
    pub(crate) fn range(n: u64) -> Self {
        DynRect::span(0, n as i64 - 1)
    }

    fn normalized(self) -> Self {
        if self.is_empty() {
            DynRect::empty(self.dim())
        } else {
            self
        }
    }

    /// The dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Inclusive lower bound.
    #[inline]
    pub fn lo(&self) -> DynPoint {
        DynPoint {
            dim: self.dim,
            coords: self.lo,
        }
    }

    /// Inclusive upper bound.
    #[inline]
    pub fn hi(&self) -> DynPoint {
        DynPoint {
            dim: self.dim,
            coords: self.hi,
        }
    }

    /// True when the rectangle has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..self.dim()).any(|d| self.lo[d] > self.hi[d])
    }

    /// Number of points.
    #[inline]
    pub fn volume(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let mut v = 1u64;
        for d in 0..self.dim() {
            v *= (self.hi[d] - self.lo[d] + 1) as u64;
        }
        v
    }

    /// True when `p` lies inside (requires matching dimensions).
    #[inline]
    pub(crate) fn contains(&self, p: DynPoint) -> bool {
        debug_assert_eq!(self.dim(), p.dim());
        (0..self.dim()).all(|d| self.lo[d] <= p.coords[d] && p.coords[d] <= self.hi[d])
    }

    /// True when `other` lies entirely within `self`.
    #[inline]
    pub fn contains_rect(&self, other: &DynRect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        other.is_empty()
            || (0..self.dim()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Intersection (possibly empty, canonicalized).
    #[inline]
    pub fn intersection(&self, other: &DynRect) -> DynRect {
        debug_assert_eq!(self.dim(), other.dim());
        let mut out = *self;
        for d in 0..self.dim() {
            out.lo[d] = self.lo[d].max(other.lo[d]);
            out.hi[d] = self.hi[d].min(other.hi[d]);
        }
        out.normalized()
    }

    /// True when the rectangles share a point.
    #[inline]
    pub fn overlaps(&self, other: &DynRect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
            && !self.is_empty()
            && !other.is_empty()
    }

    /// Smallest rectangle containing both (empty inputs are identities).
    pub fn union_bbox(&self, other: &DynRect) -> DynRect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        debug_assert_eq!(self.dim(), other.dim());
        let mut out = *self;
        for d in 0..self.dim() {
            out.lo[d] = self.lo[d].min(other.lo[d]);
            out.hi[d] = self.hi[d].max(other.hi[d]);
        }
        out
    }

    /// Subtracts `other`, producing up to `2 * dim` disjoint rectangles
    /// that exactly cover `self \ other`.
    ///
    /// Uses the standard axis-sweep decomposition: for each dimension,
    /// peel off the slabs of `self` strictly below and strictly above
    /// `other`, then shrink the working rectangle to `other`'s bounds in
    /// that dimension.
    pub fn subtract(&self, other: &DynRect) -> Vec<DynRect> {
        debug_assert_eq!(self.dim(), other.dim());
        if self.is_empty() {
            return Vec::new();
        }
        let inter = self.intersection(other);
        if inter.is_empty() {
            return vec![*self];
        }
        if inter == *self {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut work = *self;
        for d in 0..self.dim() {
            if work.lo[d] < inter.lo[d] {
                let mut below = work;
                below.hi[d] = inter.lo[d] - 1;
                out.push(below);
                work.lo[d] = inter.lo[d];
            }
            if work.hi[d] > inter.hi[d] {
                let mut above = work;
                above.lo[d] = inter.hi[d] + 1;
                out.push(above);
                work.hi[d] = inter.hi[d];
            }
        }
        out
    }

    /// Row-major linearization of `p` relative to `lo`: a bijection
    /// between the rectangle's points and `0..volume()`, used to address
    /// physical instance storage; `None` when `p` lies outside.
    #[inline]
    pub fn linearize(&self, p: DynPoint) -> Option<u64> {
        if !self.contains(p) {
            return None;
        }
        let mut idx = 0u64;
        for d in 0..self.dim() {
            let extent = (self.hi[d] - self.lo[d] + 1) as u64;
            idx = idx * extent + (p.coords[d] - self.lo[d]) as u64;
        }
        Some(idx)
    }

    /// Inverse of [`DynRect::linearize`].
    pub fn delinearize(&self, mut idx: u64) -> Option<DynPoint> {
        if idx >= self.volume() {
            return None;
        }
        let mut p = self.lo();
        for d in (0..self.dim()).rev() {
            let extent = (self.hi[d] - self.lo[d] + 1) as u64;
            p.coords[d] = self.lo[d] + (idx % extent) as i64;
            idx /= extent;
        }
        Some(p)
    }

    /// Iterates all points in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = DynPoint> + '_ {
        let vol = self.volume();
        (0..vol).map(move |i| self.delinearize(i).unwrap())
    }

    /// Splits the rectangle into `parts` contiguous blocks along
    /// dimension `dim`, distributing the remainder one element at a time
    /// to the leading blocks (the block-distribution rule of Regent's
    /// `block` partition operator). Always returns exactly `parts`
    /// rectangles; trailing ones are empty when there are fewer elements
    /// than parts.
    pub fn block_split(&self, parts: usize, dim: usize) -> Vec<DynRect> {
        assert!(dim < self.dim());
        assert!(parts > 0);
        let mut out = Vec::with_capacity(parts);
        if self.is_empty() {
            out.resize(parts, DynRect::empty(self.dim()));
            return out;
        }
        let extent = (self.hi[dim] - self.lo[dim] + 1) as u64;
        let base = extent / parts as u64;
        let rem = extent % parts as u64;
        let mut lo = self.lo[dim];
        for i in 0..parts {
            let len = base + u64::from((i as u64) < rem);
            if len == 0 {
                out.push(DynRect::empty(self.dim()));
                continue;
            }
            let mut r = *self;
            r.lo[dim] = lo;
            r.hi[dim] = lo + len as i64 - 1;
            lo += len as i64;
            out.push(r);
        }
        out
    }
}

impl fmt::Debug for DynRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[empty{}d]", self.dim())
        } else {
            write!(f, "[{:?}..{:?}]", self.lo(), self.hi())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[i64], hi: &[i64]) -> DynRect {
        DynRect::new(DynPoint::new(lo), DynPoint::new(hi))
    }

    #[test]
    fn roundtrip_static() {
        // Fixed-size bounds go in and come back out unchanged.
        let (lo, hi) = ([1, 2], [3, 4]);
        let r = rect(&lo, &hi);
        assert_eq!(r.dim(), 2);
        assert_eq!(r.volume(), 9);
        assert_eq!(r.lo().coords(), lo);
        assert_eq!(r.hi().coords(), hi);
        assert_eq!(r.lo().padded(), [1, 2, 0]);
        assert_eq!(DynRect::new(r.lo(), r.hi()), r);
    }

    #[test]
    fn volume_and_empty() {
        let r = rect(&[0, 0], &[3, 1]);
        assert_eq!(r.volume(), 8);
        assert!(!r.is_empty());
        assert!(DynRect::empty(2).is_empty());
        assert_eq!(DynRect::empty(2).volume(), 0);
        // Inverted bounds are empty too.
        assert!(rect(&[5], &[2]).is_empty());
    }

    #[test]
    fn empty_canonical() {
        let a = DynRect::span(5, 2);
        let b = DynRect::empty(1);
        assert_eq!(a, b);
        assert!(a.is_empty());
    }

    #[test]
    fn contains_and_overlap() {
        let a = DynRect::span(0, 9);
        let b = DynRect::span(5, 14);
        assert!(a.overlaps(&b));
        assert_eq!(a.intersection(&b), DynRect::span(5, 9));
        assert!(a.contains(DynPoint::from(9)));
        assert!(!a.contains(DynPoint::from(10)));
        assert!(a.contains_rect(&DynRect::span(2, 9)));
        let c = DynRect::span(20, 30);
        assert!(!a.overlaps(&c));
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn union_bbox_identity() {
        let a = DynRect::span(0, 3);
        let empty = DynRect::empty(1);
        assert_eq!(a.union_bbox(&empty), a);
        assert_eq!(empty.union_bbox(&a), a);
        assert_eq!(a.union_bbox(&DynRect::span(10, 12)), DynRect::span(0, 12));
    }

    #[test]
    fn subtract_1d() {
        let a = DynRect::span(0, 9);
        let b = DynRect::span(3, 5);
        let parts = a.subtract(&b);
        assert_eq!(parts, vec![DynRect::span(0, 2), DynRect::span(6, 9)]);
        let vol: u64 = parts.iter().map(DynRect::volume).sum();
        assert_eq!(vol, a.volume() - b.volume());
    }

    #[test]
    fn subtract_disjoint_and_covering() {
        let a = DynRect::span(0, 4);
        assert_eq!(a.subtract(&DynRect::span(10, 20)), vec![a]);
        assert!(a.subtract(&DynRect::span(-5, 50)).is_empty());
    }

    #[test]
    fn subtract_2d_cover() {
        let a = rect(&[0, 0], &[9, 9]);
        let b = rect(&[3, 3], &[6, 6]);
        let parts = a.subtract(&b);
        // Pieces are disjoint and tile a \ b.
        let vol: u64 = parts.iter().map(DynRect::volume).sum();
        assert_eq!(vol, a.volume() - b.volume());
        for (i, p) in parts.iter().enumerate() {
            assert!(!p.overlaps(&b));
            for q in &parts[i + 1..] {
                assert!(!p.overlaps(q));
            }
        }
    }

    #[test]
    fn linearize_roundtrip() {
        let r = rect(&[2, -1, 0], &[4, 1, 2]);
        for i in 0..r.volume() {
            let p = r.delinearize(i).unwrap();
            assert_eq!(r.linearize(p), Some(i));
        }
        assert_eq!(r.iter().count() as u64, r.volume());
    }

    #[test]
    fn iter_empty() {
        assert_eq!(DynRect::empty(3).iter().count(), 0);
        assert_eq!(DynRect::span(4, 1).iter().count(), 0);
    }

    #[test]
    fn iter_matches_linearize() {
        let r = rect(&[1, 2], &[3, 4]);
        let pts: Vec<_> = r.iter().collect();
        assert_eq!(pts.len(), 9);
        // Row-major: the last coordinate varies fastest.
        assert_eq!(pts[1], DynPoint::new(&[1, 3]));
        assert_eq!(pts[3], DynPoint::new(&[2, 2]));
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(r.linearize(*p), Some(i as u64));
        }
        // First point is lo, last is hi.
        assert_eq!(pts[0], r.lo());
        assert_eq!(pts[8], r.hi());
    }

    #[test]
    fn block_split_matches_static() {
        // The split against a hand-computed table: the first
        // `100 % 7` blocks take one extra element.
        let parts = DynRect::span(0, 99).block_split(7, 0);
        let sizes: Vec<u64> = parts.iter().map(DynRect::volume).collect();
        assert_eq!(sizes, [15, 15, 14, 14, 14, 14, 14]);
        assert_eq!(parts[0], DynRect::span(0, 14));
        assert_eq!(parts[1], DynRect::span(15, 29));
        assert_eq!(parts[6], DynRect::span(86, 99));
    }

    #[test]
    fn block_split_even_and_remainder() {
        let r = DynRect::span(0, 9);
        let parts = r.block_split(3, 0);
        assert_eq!(
            parts,
            [
                DynRect::span(0, 3),
                DynRect::span(4, 6),
                DynRect::span(7, 9)
            ]
        );
        // Blocks tile the original exactly.
        let total: u64 = parts.iter().map(DynRect::volume).sum();
        assert_eq!(total, r.volume());
        // Splitting into more parts than elements yields empties.
        let tiny = DynRect::span(0, 1).block_split(4, 0);
        assert_eq!(
            tiny,
            [
                DynRect::span(0, 0),
                DynRect::span(1, 1),
                DynRect::empty(1),
                DynRect::empty(1)
            ]
        );
    }

    #[test]
    fn block_split_2d() {
        let r = rect(&[0, 0], &[9, 9]);
        let rows = r.block_split(2, 0);
        assert_eq!(rows, [rect(&[0, 0], &[4, 9]), rect(&[5, 0], &[9, 9])]);
        let cols = r.block_split(2, 1);
        assert_eq!(cols, [rect(&[0, 0], &[9, 4]), rect(&[0, 5], &[9, 9])]);
    }
}
