//! Physical instances: concrete storage for a region's elements.
//!
//! §3 frames control replication as converting a *shared-memory*
//! implementation of region semantics (subregions alias their parent's
//! storage) into a *distributed-memory* one (every region has its own
//! storage and the compiler inserts explicit copies). Both
//! implementations use this type: the sequential interpreter allocates
//! one instance per region-tree root, while the SPMD runtime allocates
//! one instance per subregion per shard and moves data over the storage
//! runs of [`CopyRuns`].

use crate::checksum::StripedFnv;
use crate::field::{FieldId, FieldSpace, FieldType};
use crate::view::{Element, FieldView, Read};
use regent_geometry::{Domain, DynPoint, DynRect, MAX_DIM};
use std::cell::Cell;
use std::sync::Arc;

/// One rectangle of an indexed domain in affine form.
///
/// A point `p` of the rectangle sits at storage offset
/// `base + ((c0 · extent[1]) + c1) · extent[2] + c2` with
/// `c_d = p[d] − lo[d]`, and lies inside exactly when every
/// `c_d < extent[d]` as unsigned numbers. Dimensions the domain does
/// not have are stored as `lo = 0`, `extent = 1`, so the one formula
/// serves 1-, 2- and 3-D and the narrower entry points simply leave
/// the trailing terms out.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block {
    lo: [i64; MAX_DIM],
    extent: [u64; MAX_DIM],
    base: u64,
}

impl Block {
    fn new(r: &DynRect, base: u64) -> Self {
        // Both corners are zero in the dimensions `r` does not have,
        // which yields exactly the `lo = 0`, `extent = 1` padding.
        let (lo, hi) = (r.lo().padded(), r.hi().padded());
        Block {
            lo,
            extent: std::array::from_fn(|d| (hi[d] - lo[d] + 1) as u64),
            base,
        }
    }

    /// Inclusive upper bound in dimension `d`.
    fn hi(&self, d: usize) -> i64 {
        self.lo[d] + self.extent[d] as i64 - 1
    }

    fn volume(&self) -> u64 {
        self.extent.iter().product()
    }

    /// The number of points from coordinate `c` to the block's end in
    /// dimension `d`, `c` lying inside the block.
    #[inline]
    pub(crate) fn room(&self, d: usize, c: i64) -> u64 {
        self.extent[d] - self.rel(d, c)
    }

    fn rect(&self, dim: usize) -> DynRect {
        let hi: [i64; MAX_DIM] = std::array::from_fn(|d| self.hi(d));
        DynRect::new(DynPoint::new(&self.lo[..dim]), DynPoint::new(&hi[..dim]))
    }

    /// `p[d] − lo[d]`, huge when `p[d] < lo[d]`.
    #[inline]
    fn rel(&self, d: usize, c: i64) -> u64 {
        c.wrapping_sub(self.lo[d]) as u64
    }

    #[inline]
    pub(crate) fn offset1(&self, i: i64) -> Option<u64> {
        let a = self.rel(0, i);
        (a < self.extent[0]).then(|| self.base + a)
    }

    #[inline]
    pub(crate) fn offset2(&self, i: i64, j: i64) -> Option<u64> {
        let (a, b) = (self.rel(0, i), self.rel(1, j));
        (a < self.extent[0] && b < self.extent[1]).then(|| self.base + a * self.extent[1] + b)
    }

    #[inline]
    pub(crate) fn offset3(&self, [i, j, k]: [i64; MAX_DIM]) -> Option<u64> {
        let (a, b, c) = (self.rel(0, i), self.rel(1, j), self.rel(2, k));
        (a < self.extent[0] && b < self.extent[1] && c < self.extent[2])
            .then(|| self.base + (a * self.extent[1] + b) * self.extent[2] + c)
    }
}

/// A domain of several rectangles is laid out over its **bounding box**
/// — one storage slot per point of the box, holes included — while the
/// box holds at most this many slots per element; a sparser one is
/// packed, rectangle after rectangle. It bounds the layout's memory:
/// every column of such an instance stores up to this many slots per
/// element (8 bytes each), and the membership bitmap one bit per slot.
/// Circuit's ghost sets at graph seed 1 — 926–978 nodes in 241–266
/// runs — span ≈1 500 ids (pieces 1–6) and ≈4 000 (pieces 0 and 7),
/// 1.6–4.2 slots per element (EXPERIMENTS.md "Ghost sets over their
/// span"); an interior halo of `stencil_fine` — a 16×16 tile widened by
/// 2 along each axis, 384 elements in 3 rectangles — has a 20×20 box,
/// 1.04 slots per element.
const MAX_SLOTS_PER_ELEMENT: u64 = 8;

/// Whether storage slot `off` holds an element, by the membership
/// bitmap `members` of a bounding-box layout. Every slot does when the
/// bitmap is empty (any other layout), which the test short-circuits
/// on; a bounding-box layout's bitmap covers every slot, so a lookup
/// past it cannot happen.
#[inline(always)]
pub(crate) fn holds(members: &[u64], off: u64) -> bool {
    members
        .get((off >> 6) as usize)
        .is_none_or(|word| word >> (off & 63) & 1 != 0)
}

/// How many of the `max` storage slots from `off` on hold elements
/// before the first hole, by the membership bitmap `members` of a
/// bounding-box layout, found a word of the bitmap at a time; `max`
/// when the bitmap is empty (every other layout). `off` is a slot of
/// the layout.
#[inline]
pub(crate) fn members_from(members: &[u64], off: u64, max: u64) -> u64 {
    if members.is_empty() {
        return max;
    }
    let end = off.saturating_add(max);
    let mut w = (off >> 6) as usize;
    // The holes of word `w` at or after `off`, as set bits; the
    // bitmap's padding past the last slot reads as holes.
    let mut holes = !members[w] & (u64::MAX << (off & 63));
    while holes == 0 {
        w += 1;
        let Some(&word) = members.get(w).filter(|_| (w as u64) << 6 < end) else {
            return max.min(((w as u64) << 6) - off);
        };
        holes = !word;
    }
    (((w as u64) << 6 | u64::from(holes.trailing_zeros())) - off).min(max)
}

/// The rows of `r` — its runs along the last dimension, in row-major
/// order — as each row's first point (padded) and length.
fn rows_of(r: &DynRect) -> impl Iterator<Item = ([i64; MAX_DIM], u64)> + '_ {
    let last = r.dim() - 1;
    let len = (r.hi().coord(last) - r.lo().coord(last) + 1) as u64;
    (0..r.volume() / len).map(move |row| {
        let start = r.delinearize(row * len);
        (
            start.expect("row start lies inside its rectangle").padded(),
            len,
        )
    })
}

/// Finds the run of a packed sparse 1-D domain that holds an id: the
/// sorted run starts in one flat array, searched by bisection — but
/// only between the bounds a bucket table gives. The table cuts the
/// domain's span into at most `2 · runs` equal power-of-two buckets and
/// records, per bucket, how many runs start at or before its first id;
/// an id's run then lies between its bucket's count and the next one's,
/// usually one or two candidates. Random probes (the pointer chasing of
/// an unstructured kernel) cost a couple of loads instead of a
/// mispredicted branch per halving; the table's size is bounded by the
/// number of runs, never by the span.
#[derive(Clone, Debug, Default)]
struct RunIndex {
    /// `lo` of every run, ascending.
    starts: Vec<i64>,
    /// Bucket `b` covers the ids `starts[0] + (b << shift) ..` of width
    /// `1 << shift`.
    shift: u32,
    /// `buckets[b]`: the number of runs that start at or before bucket
    /// `b`'s first id; one entry past the last bucket holds them all.
    buckets: Vec<u32>,
}

impl RunIndex {
    fn new(blocks: &[Block]) -> Self {
        let starts: Vec<i64> = blocks.iter().map(|b| b.lo[0]).collect();
        let runs = u32::try_from(starts.len()).expect("run count fits 32 bits");
        let (Some(&lo), Some(last)) = (starts.first(), blocks.last()) else {
            return RunIndex::default();
        };
        let span = (last.hi(0) - lo) as u64 + 1;
        let shift = (span / u64::from(runs)).max(1).ilog2();
        let num_buckets = ((span - 1) >> shift) + 1;
        let mut buckets = Vec::with_capacity(num_buckets as usize + 1);
        let mut k = 0u32;
        for b in 0..num_buckets {
            let first = lo + (b << shift) as i64;
            while k < runs && starts[k as usize] <= first {
                k += 1;
            }
            buckets.push(k);
        }
        buckets.push(runs);
        RunIndex {
            starts,
            shift,
            buckets,
        }
    }

    /// Index of the last run that starts at or before `i` — the only
    /// one that can hold it (runs are disjoint and ascending).
    #[inline]
    fn find(&self, i: i64) -> Option<usize> {
        let b = (i.wrapping_sub(*self.starts.first()?) as u64 >> self.shift) as usize;
        // Ids before the first run wrap to a bucket far past the table.
        let (&from, &to) = (self.buckets.get(b)?, self.buckets.get(b + 1)?);
        let within = self.starts[from as usize..to as usize].partition_point(|&s| s <= i);
        Some(from as usize + within - 1)
    }
}

/// Maps points of a (possibly sparse) domain to storage offsets.
///
/// The layout is a function of the domain alone, with one rule for
/// every dimensionality. A single-rectangle domain — every root region
/// and every structured tile — is one affine `Block`: pure arithmetic.
/// A domain of several rectangles — a halo cross, the image of an
/// unstructured pointer field (hundreds of short runs) — is laid out
/// over its bounding box: one `Block` over the box, so a point's offset
/// is the dense one, and a membership bitmap marking the slots that
/// hold elements, unless that would store more than 8 slots per
/// element (`MAX_SLOTS_PER_ELEMENT`). Then its rectangles are packed,
/// each a `Block` over a contiguous range of offsets in the domain's
/// canonical order: a 2-/3-D domain tries them in order, a 1-D one
/// finds its run through a `RunIndex`.
#[derive(Clone, Debug)]
pub struct DomainIndexer {
    dim: usize,
    blocks: Vec<Block>,
    /// The runs of a packed 1-D domain that has several; empty
    /// otherwise.
    runs: RunIndex,
    /// A bounding-box layout's membership bitmap: bit `off` is set when
    /// storage slot `off` holds an element. Empty for every other
    /// layout, whose slots all do.
    members: Vec<u64>,
    /// A block of greatest volume.
    largest: Block,
    /// Number of elements.
    total: u64,
    /// Number of storage slots: `total`, or the volume of a
    /// bounding-box layout's box.
    slots: u64,
}

impl DomainIndexer {
    /// Builds an indexer for `domain`.
    pub fn new(domain: &Domain) -> Self {
        let rects = domain.rects();
        let total = domain.volume();
        let bounds = domain.bounds();
        if rects.len() > 1 && bounds.volume() <= MAX_SLOTS_PER_ELEMENT * total {
            let block = Block::new(&bounds, 0);
            let mut members = vec![0u64; bounds.volume().div_ceil(64) as usize];
            for (start, len) in rects.iter().flat_map(rows_of) {
                let off = block
                    .offset3(start)
                    .expect("a rectangle lies in its bounds");
                for off in off..off + len {
                    members[(off >> 6) as usize] |= 1 << (off & 63);
                }
            }
            return DomainIndexer {
                dim: domain.dim(),
                blocks: vec![block],
                runs: RunIndex::default(),
                members,
                largest: block,
                total,
                slots: bounds.volume(),
            };
        }
        let mut blocks = Vec::with_capacity(rects.len());
        let mut off = 0u64;
        for r in rects {
            blocks.push(Block::new(r, off));
            off += r.volume();
        }
        let runs = if domain.dim() == 1 && blocks.len() > 1 {
            RunIndex::new(&blocks)
        } else {
            RunIndex::default()
        };
        let largest = blocks
            .iter()
            .copied()
            .max_by_key(Block::volume)
            .unwrap_or(Block {
                lo: [0; MAX_DIM],
                extent: [0; MAX_DIM],
                base: 0,
            });
        DomainIndexer {
            dim: domain.dim(),
            blocks,
            runs,
            members: Vec::new(),
            largest,
            total,
            slots: total,
        }
    }

    /// Number of indexed elements.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of storage slots a column of this layout holds: the
    /// element count, or — for a domain laid out over its bounding box
    /// — the box's volume, holes included.
    pub fn storage_len(&self) -> u64 {
        self.slots
    }

    /// Dimensionality of the indexed domain.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The domain's largest rectangle (one that holds nothing when the
    /// domain is empty): the only one of a dense domain, the whole box
    /// of a bounding-box layout, the largest rectangle of a packed one —
    /// where most accesses fall, so views try it before searching.
    pub(crate) fn largest(&self) -> Block {
        self.largest
    }

    /// The membership bitmap of a bounding-box layout; empty for every
    /// other layout (see [`holds`]).
    pub(crate) fn members(&self) -> &[u64] {
        &self.members
    }

    /// The storage offset of `p`, or `None` when `p` is outside the
    /// domain.
    #[inline]
    pub fn offset_of(&self, p: DynPoint) -> Option<u64> {
        if p.dim() != self.dim {
            return None;
        }
        self.locate(p.padded()).map(|(_, off)| off)
    }

    /// The block containing the (padded) point `c`, as its index and
    /// the point's storage offset; `None` when `c` is outside the
    /// domain, a hole of a bounding-box layout included.
    #[inline]
    pub(crate) fn locate(&self, c: [i64; MAX_DIM]) -> Option<(usize, u64)> {
        if self.dim == 1 && self.blocks.len() != 1 {
            let i = self.runs.find(c[0])?;
            return self.blocks[i].offset1(c[0]).map(|off| (i, off));
        }
        let (i, off) = self
            .blocks
            .iter()
            .enumerate()
            .find_map(|(i, b)| b.offset3(c).map(|off| (i, off)))?;
        holds(&self.members, off).then_some((i, off))
    }

    /// Storage offset of `c` and the number of elements from it to the
    /// end of its row (the last dimension) inside its block, up to the
    /// next hole: the longest unit-stride run that starts at `c`.
    #[inline]
    pub(crate) fn locate_run(&self, c: [i64; MAX_DIM]) -> Option<(u64, u64)> {
        let (i, off) = self.locate(c)?;
        let last = self.dim - 1;
        let room = (self.blocks[i].hi(last) - c[last] + 1) as u64;
        Some((off, members_from(&self.members, off, room)))
    }

    /// Visits `elements` in canonical order (the order of
    /// [`Domain::iter`]) as storage-contiguous runs, calling
    /// `f(offset, len)` for each. One lookup per run, none per element:
    /// 1-D domains are a two-pointer merge over the two sorted run
    /// lists; multi-D domains look up each row of each rectangle,
    /// trying the previous hit first. A run ends where its row, its
    /// block or — in a bounding-box layout — the members end.
    ///
    /// # Panics
    /// If `elements` is not a subset of the indexed domain.
    pub fn for_each_run(&self, elements: &Domain, mut f: impl FnMut(u64, u64)) {
        let missing = |c: [i64; MAX_DIM]| -> ! {
            panic!(
                "element {:?} outside the indexed domain",
                DynPoint::new(&c[..elements.dim()])
            )
        };
        if elements.dim() == 1 {
            let mut i = 0usize;
            for e in elements.rects() {
                let (mut lo, hi) = (e.lo().coord(0), e.hi().coord(0));
                while lo <= hi {
                    while self.blocks.get(i).is_some_and(|b| b.hi(0) < lo) {
                        i += 1;
                    }
                    let b = match self.blocks.get(i) {
                        Some(b) if b.lo[0] <= lo => b,
                        _ => missing([lo, 0, 0]),
                    };
                    let off = b.base + (lo - b.lo[0]) as u64;
                    let room = (hi.min(b.hi(0)) - lo + 1) as u64;
                    let len = members_from(&self.members, off, room);
                    if len == 0 {
                        missing([lo, 0, 0]);
                    }
                    f(off, len);
                    lo += len as i64;
                }
            }
            return;
        }
        let last = elements.dim() - 1;
        let mut hint = 0usize;
        for (mut c, row_len) in elements.rects().iter().flat_map(rows_of) {
            let hi = c[last] + row_len as i64 - 1;
            while c[last] <= hi {
                let again = self.blocks.get(hint).and_then(|b| b.offset3(c));
                let start = again.unwrap_or_else(|| {
                    let (i, off) = self.locate(c).unwrap_or_else(|| missing(c));
                    hint = i;
                    off
                });
                let room = (hi.min(self.blocks[hint].hi(last)) - c[last] + 1) as u64;
                let len = members_from(&self.members, start, room);
                if len == 0 {
                    missing(c);
                }
                f(start, len);
                c[last] += len as i64;
            }
        }
    }

    /// Iterates `(point, offset)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (DynPoint, u64)> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| {
                let r = b.rect(self.dim);
                (0..b.volume()).map(move |k| (r.delinearize(k).unwrap(), b.base + k))
            })
            .filter(|&(_, off)| holds(&self.members, off))
    }

    /// The storage offset of the `k`-th element in storage order.
    fn nth_offset(&self, k: u64) -> u64 {
        if self.members.is_empty() {
            return k;
        }
        (0..self.slots)
            .filter(|&off| holds(&self.members, off))
            .nth(k as usize)
            .expect("element index within the domain")
    }
}

/// One field's column of data.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// 64-bit float column.
    F64(Vec<f64>),
    /// 64-bit integer column.
    I64(Vec<i64>),
}

impl ColumnData {
    fn zeros(ty: FieldType, len: usize) -> Self {
        match ty {
            FieldType::F64 => ColumnData::F64(vec![0.0; len]),
            FieldType::I64 => ColumnData::I64(vec![0; len]),
        }
    }

    /// Number of storage slots: the instance's elements, plus the holes
    /// of a span layout ([`DomainIndexer::storage_len`]); 0 for a
    /// column the instance does not store.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::F64(v) => v.len(),
            ColumnData::I64(v) => v.len(),
        }
    }

    /// True when the column stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reduction operators usable with reduce privileges (§4.3) and scalar
/// reductions (§4.4). All are associative and commutative.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReductionOp {
    /// Sum.
    Add,
    /// Product.
    Mul,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReductionOp {
    /// The identity element of the operator.
    pub fn identity(self) -> f64 {
        match self {
            ReductionOp::Add => 0.0,
            ReductionOp::Mul => 1.0,
            ReductionOp::Min => f64::INFINITY,
            ReductionOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Folds `rhs` into `lhs`.
    #[inline]
    pub fn fold(self, lhs: f64, rhs: f64) -> f64 {
        match self {
            ReductionOp::Add => lhs + rhs,
            ReductionOp::Mul => lhs * rhs,
            ReductionOp::Min => lhs.min(rhs),
            ReductionOp::Max => lhs.max(rhs),
        }
    }

    /// Integer fold (for I64 reduction fields).
    #[inline]
    pub fn fold_i64(self, lhs: i64, rhs: i64) -> i64 {
        match self {
            ReductionOp::Add => lhs + rhs,
            ReductionOp::Mul => lhs * rhs,
            ReductionOp::Min => lhs.min(rhs),
            ReductionOp::Max => lhs.max(rhs),
        }
    }

    /// Integer identity.
    pub(crate) fn identity_i64(self) -> i64 {
        match self {
            ReductionOp::Add => 0,
            ReductionOp::Mul => 1,
            ReductionOp::Min => i64::MAX,
            ReductionOp::Max => i64::MIN,
        }
    }
}

#[derive(Debug)]
struct Shape {
    domain: Domain,
    indexer: DomainIndexer,
}

/// Concrete storage for one domain × one field space.
///
/// Instances optionally carry an FNV-1a **seal**: a checksum of every
/// column's bit contents, taken at a quiescent point (task completion,
/// copy application). Any mutation through the public API invalidates
/// the seal; the integrity layer re-seals at its write-completion
/// points whenever a check can read the seal, and verifies seals at
/// epoch boundaries to detect silent data corruption. Unsealed columns
/// verify trivially, so the checksum machinery costs nothing unless
/// enabled, and a sweep must first check that every column is sealed.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The covered domain and its point→offset indexer: fixed at
    /// construction and shared by every clone (a snapshot copies
    /// contents, not layout).
    shape: Arc<Shape>,
    columns: Vec<ColumnData>,
    /// One seal per column. Kernels and copies usually write a single
    /// field of a multi-field instance, so per-column seals let the
    /// re-seal points rehash only what changed instead of the whole
    /// instance — the dominant term of the integrity layer's rate-0
    /// overhead.
    seals: Vec<Option<u64>>,
}

impl Instance {
    /// Allocates a zero-initialized instance covering `domain`.
    pub fn new(domain: Domain, fields: &FieldSpace) -> Self {
        Self::build(domain, fields, |_| true)
    }

    /// Allocates a zero-initialized instance covering `domain` that
    /// stores only the columns of `stored`. Every other field of the
    /// field space keeps its place in the column table — field ids
    /// index it as before, and checksums, seals and clones walk it as
    /// before — but holds no elements. A shard's instance of a use is
    /// built this way from the fields the use declares; a kernel cannot
    /// reach the others (binding an undeclared field fails first).
    pub fn with_fields(domain: Domain, fields: &FieldSpace, stored: &[FieldId]) -> Self {
        Self::build(domain, fields, |f| stored.contains(&f))
    }

    /// A zero-initialized instance over the same domain as `self` that
    /// **shares its layout** (domain and indexer are not built a second
    /// time) and stores only the columns of `stored` — how a shard's
    /// image gives a ghost instance and the reduction temporary over the
    /// same subregion one indexer between them.
    pub fn sibling(&self, fields: &FieldSpace, stored: &[FieldId]) -> Self {
        Self::over(Arc::clone(&self.shape), fields, |f| stored.contains(&f))
    }

    fn build(domain: Domain, fields: &FieldSpace, stored: impl Fn(FieldId) -> bool) -> Self {
        let indexer = DomainIndexer::new(&domain);
        Self::over(Arc::new(Shape { domain, indexer }), fields, stored)
    }

    fn over(shape: Arc<Shape>, fields: &FieldSpace, stored: impl Fn(FieldId) -> bool) -> Self {
        let len = shape.indexer.storage_len() as usize;
        let columns: Vec<ColumnData> = fields
            .iter()
            .map(|(f, def)| ColumnData::zeros(def.ty, if stored(f) { len } else { 0 }))
            .collect();
        let seals = vec![None; columns.len()];
        Instance {
            shape,
            columns,
            seals,
        }
    }

    /// The covered domain.
    pub fn domain(&self) -> &Domain {
        &self.shape.domain
    }

    /// The point→offset indexer.
    pub fn indexer(&self) -> &DomainIndexer {
        &self.shape.indexer
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.shape.indexer.len()
    }

    /// True when the instance covers no elements.
    pub fn is_empty(&self) -> bool {
        self.shape.indexer.is_empty()
    }

    /// Raw column access (type-erased).
    pub fn column(&self, field: FieldId) -> &ColumnData {
        &self.columns[field.0 as usize]
    }

    /// Immutable f64 column for `field`.
    ///
    /// # Panics
    /// If the field is not F64-typed.
    pub fn f64_col(&self, field: FieldId) -> &[f64] {
        match &self.columns[field.0 as usize] {
            ColumnData::F64(v) => v,
            _ => panic!("field {field:?} is not F64"),
        }
    }

    /// Checksum of one column's bit contents (storage order, with a
    /// type/length header). Seals over megabytes of data are the
    /// steady-state cost of the integrity layer, so this uses the
    /// 4-lane [`StripedFnv`]: its independent xor-multiply lanes
    /// auto-vectorize on this path.
    fn column_checksum(col: &ColumnData) -> u64 {
        let mut h = StripedFnv::new();
        match col {
            ColumnData::F64(v) => {
                h.mix(v.len() as u64);
                h.mix_f64s(v);
            }
            ColumnData::I64(v) => {
                h.mix(!(v.len() as u64));
                h.mix_i64s(v);
            }
        }
        h.finish()
    }

    /// Checksum of every column (column order), folded into one
    /// digest.
    pub fn checksum(&self) -> u64 {
        let mut h = StripedFnv::new();
        for col in &self.columns {
            h.mix(Self::column_checksum(col));
        }
        h.finish()
    }

    /// Copies `src`'s contents (columns and seal) into `self`,
    /// **reusing** `self`'s column allocations — the derived
    /// `Clone::clone_from` would reallocate every column `Vec`.
    /// Contract: `self` and `src` cover the same domain with the same
    /// field space (checkpoint snapshots and their live instances do
    /// by construction); shape mismatches fall back to a full clone.
    pub fn clone_contents_from(&mut self, src: &Instance) {
        if self.columns.len() != src.columns.len() {
            *self = src.clone();
            return;
        }
        debug_assert_eq!(self.len(), src.len(), "shape drifted");
        for (d, s) in self.columns.iter_mut().zip(&src.columns) {
            match (d, s) {
                (ColumnData::F64(d), ColumnData::F64(s)) => d.clone_from(s),
                (ColumnData::I64(d), ColumnData::I64(s)) => d.clone_from(s),
                (d, s) => *d = s.clone(),
            }
        }
        self.seals.clone_from(&src.seals);
    }

    /// Seals the instance: records every column's checksum as the
    /// expected content hash. The integrity layer seals a whole
    /// instance after a fill; its write-completion points (task
    /// finish, copy apply) re-seal the columns they wrote, through
    /// [`Instance::seal_fields`], when a check can read the seal.
    pub fn seal(&mut self) {
        for (s, col) in self.seals.iter_mut().zip(&self.columns) {
            *s = Some(Self::column_checksum(col));
        }
    }

    /// Re-seals only the named fields' columns — the write-completion
    /// fast path. A launch or copy that touched one field of a
    /// multi-field instance rehashes that column alone; untouched
    /// columns keep their still-valid seals, so detection strength is
    /// unchanged while the re-seal cost scales with what was written.
    pub fn seal_fields(&mut self, fields: &[FieldId]) {
        for &f in fields {
            let c = f.0 as usize;
            self.seals[c] = Some(Self::column_checksum(&self.columns[c]));
        }
    }

    /// The recorded seal, if any: the fold of the per-column seals
    /// when **every** column is sealed, `None` when any column is
    /// unsealed — either the integrity layer is off or a write
    /// invalidated a column and its re-seal point has not been
    /// reached yet, or skipped its re-seal because no check reads it.
    pub fn seal_value(&self) -> Option<u64> {
        let mut h = StripedFnv::new();
        for s in &self.seals {
            h.mix((*s)?);
        }
        Some(h.finish())
    }

    /// True when `field`'s column carries a seal.
    pub fn is_field_sealed(&self, field: FieldId) -> bool {
        self.seals[field.0 as usize].is_some()
    }

    /// Verifies the seals against the current contents. Unsealed
    /// columns verify trivially; a sealed column fails only when its
    /// bits changed *without* going through the mutation API — i.e.
    /// silent data corruption.
    pub fn verify_seal(&self) -> bool {
        self.seals
            .iter()
            .zip(&self.columns)
            .all(|(s, col)| s.is_none_or(|s| s == Self::column_checksum(col)))
    }

    /// Flips one bit of one element, chosen from `entropy`, **without**
    /// invalidating the seal — the fault injector's model of silent
    /// in-memory corruption (a stale seal is exactly what detection
    /// looks for). Returns `false` when the instance has no storage to
    /// corrupt.
    pub fn corrupt_bit_silently(&mut self, entropy: u64) -> bool {
        // Drawn among the elements actually stored: a column may hold
        // none (`Instance::with_fields`), and a span layout's holes are
        // data that nothing reads.
        let per_column = self.len();
        let columns = self.columns.iter().filter(|c| !c.is_empty()).count() as u64;
        let stored = columns * per_column;
        if stored == 0 {
            return false;
        }
        let draw = entropy % stored;
        let i = self.shape.indexer.nth_offset(draw % per_column) as usize;
        let bit = ((entropy >> 40) % 64) as u32;
        let col = self
            .columns
            .iter_mut()
            .filter(|c| !c.is_empty())
            .nth((draw / per_column) as usize)
            .expect("column drawn among the stored ones");
        match col {
            ColumnData::F64(v) => v[i] = f64::from_bits(v[i].to_bits() ^ (1u64 << bit)),
            ColumnData::I64(v) => v[i] ^= 1i64 << bit,
        }
        true
    }

    /// Drops every seal: the instance is about to be refilled from
    /// outside the integrity layer's write-completion points (a shard
    /// image starting its next run).
    pub fn clear_seals(&mut self) {
        self.seals.fill(None);
    }

    /// Drops the seals of `fields` — bind-time invalidation. Whoever
    /// binds a region argument with a mutating privilege calls this
    /// **once** for the declared fields (`regent_ir::ArgSlot::new`
    /// does, through [`Instance::unseal_fields_raw`]); the kernel's
    /// element accesses then go through [`FieldView`]s, which never
    /// touch a seal. Hoisting the invalidation out of the element loop
    /// removes a store per element written, and — when several tasks
    /// share one instance, as every task of the implicit executor does —
    /// keeps concurrent writers of different elements from all storing
    /// to one seal slot.
    pub fn unseal_fields(&mut self, fields: &[FieldId]) {
        // SAFETY: `self` is a live, exclusively borrowed instance.
        unsafe { Self::unseal_fields_raw(self, fields) }
    }

    /// [`Instance::unseal_fields`] through a raw pointer, borrowing
    /// only the seal table — never the columns or the indexer, which
    /// the views of kernels already running on this instance read.
    ///
    /// # Safety
    /// `this` must point to a live instance whose seals no other
    /// thread accesses during the call.
    pub unsafe fn unseal_fields_raw(this: *mut Instance, fields: &[FieldId]) {
        // SAFETY: the caller vouches for `this` and for the seals.
        let seals = unsafe { &mut (*this).seals };
        for &f in fields {
            seals[f.0 as usize] = None;
        }
    }

    /// A read-only view of `field`'s column: bound once, then indexed
    /// by coordinates without a per-element search (see [`FieldView`]).
    ///
    /// # Panics
    /// If the field's column does not hold `T`.
    pub fn view<T: Element>(&self, field: FieldId) -> FieldView<'_, T, Read> {
        // SAFETY: the shared borrow of `self` outlives the view and
        // rules out every safe mutation meanwhile; a `Read` view hands
        // out no way to store.
        unsafe {
            Self::view_raw(
                self as *const Instance as *mut Instance,
                field,
                &self.shape.domain,
                Read,
            )
        }
    }

    /// The indexer of the instance behind `this`, without borrowing
    /// anything else of it (what [`Rows`](crate::view::Rows) needs to
    /// walk a region argument).
    ///
    /// # Safety
    /// `this` must point to an instance that stays live and unmoved
    /// for `'a`.
    pub unsafe fn indexer_raw<'a>(this: *const Instance) -> &'a DomainIndexer {
        // SAFETY: live for `'a` (caller); the shape is never mutated
        // after construction.
        let shape = unsafe { &(*this).shape };
        &shape.indexer
    }

    /// A view of `field`'s column holding `access`, confined (in debug
    /// builds) to the points of `domain` — the executor-side binding of
    /// one field of one region argument.
    ///
    /// # Safety
    /// `this` must point to an instance that stays live and unmoved
    /// for `'a`, and `domain` must be a subset of its domain. From this
    /// call until the last use of the view (or of any [`Row`](crate::view::Row) taken
    /// from it), no other thread may write an element of the column
    /// that this view reads or writes, nor read one that it writes;
    /// and nothing may reallocate the column or take a `&mut` to the
    /// instance. Views of one thread may overlap freely: they are
    /// `Cell`-style and never hold a reference across an access.
    ///
    /// # Panics
    /// If the field's column does not hold `T`.
    pub unsafe fn view_raw<'a, T: Element, A: Copy>(
        this: *mut Instance,
        field: FieldId,
        domain: &'a Domain,
        access: A,
    ) -> FieldView<'a, T, A> {
        // SAFETY: `this` is live for `'a` (caller). Only the shape
        // and the column table are borrowed, both shared: binding never
        // forms a reference to the whole instance, so it coexists with
        // `unseal_fields_raw` on another thread.
        let (shape, columns) = unsafe { (&(*this).shape, &(*this).columns) };
        let indexer = &shape.indexer;
        let (ptr, len) = T::raw_column(&columns[field.0 as usize])
            .unwrap_or_else(|| panic!("field {field:?} is not {}", T::NAME));
        // SAFETY: `Cell<T>` has the layout of `T`, and `ptr`/`len` are
        // the column's buffer, which lives as long as the instance and
        // is not reallocated (caller). The `Vec` reaches that buffer
        // through its own raw pointer, so the shared borrow of its
        // header above says nothing about the elements; they are only
        // ever touched through these cells, under the caller's
        // guarantee that conflicting accesses from other threads are
        // ordered elsewhere.
        let cells = unsafe { std::slice::from_raw_parts(ptr as *const Cell<T>, len) };
        FieldView::new(cells, indexer, domain, access)
    }

    /// The storage offset of `p`.
    ///
    /// # Panics
    /// If `p` is outside the instance's domain.
    #[inline]
    fn offset(&self, p: DynPoint) -> usize {
        self.shape
            .indexer
            .offset_of(p)
            .unwrap_or_else(|| panic!("point {p:?} outside instance domain")) as usize
    }

    /// Mutable f64 column for `field`.
    pub fn f64_col_mut(&mut self, field: FieldId) -> &mut [f64] {
        self.seals[field.0 as usize] = None;
        match &mut self.columns[field.0 as usize] {
            ColumnData::F64(v) => v,
            _ => panic!("field {field:?} is not F64"),
        }
    }

    /// Immutable i64 column for `field`.
    pub fn i64_col(&self, field: FieldId) -> &[i64] {
        match &self.columns[field.0 as usize] {
            ColumnData::I64(v) => v,
            _ => panic!("field {field:?} is not I64"),
        }
    }

    /// Mutable i64 column for `field`.
    pub fn i64_col_mut(&mut self, field: FieldId) -> &mut [i64] {
        self.seals[field.0 as usize] = None;
        match &mut self.columns[field.0 as usize] {
            ColumnData::I64(v) => v,
            _ => panic!("field {field:?} is not I64"),
        }
    }

    /// Point-wise f64 read.
    #[inline]
    pub fn read_f64(&self, field: FieldId, p: DynPoint) -> f64 {
        let off = self.offset(p);
        self.f64_col(field)[off]
    }

    /// Point-wise f64 write.
    #[inline]
    pub fn write_f64(&mut self, field: FieldId, p: DynPoint, v: f64) {
        let off = self.offset(p);
        self.f64_col_mut(field)[off] = v;
    }

    /// Point-wise i64 read.
    #[inline]
    pub fn read_i64(&self, field: FieldId, p: DynPoint) -> i64 {
        let off = self.offset(p);
        self.i64_col(field)[off]
    }

    /// Point-wise i64 write.
    #[inline]
    pub fn write_i64(&mut self, field: FieldId, p: DynPoint, v: i64) {
        let off = self.offset(p);
        self.i64_col_mut(field)[off] = v;
    }

    /// Fills one field's entire column with a constant (used to reset
    /// reduction temporaries to the operator identity, §4.3).
    pub fn fill_field(&mut self, field: FieldId, op: ReductionOp) {
        self.seals[field.0 as usize] = None;
        match &mut self.columns[field.0 as usize] {
            ColumnData::F64(v) => v.fill(op.identity()),
            ColumnData::I64(v) => v.fill(op.identity_i64()),
        }
    }

    /// Point-wise reduction fold into an f64 field.
    #[inline]
    pub fn reduce_f64(&mut self, field: FieldId, p: DynPoint, op: ReductionOp, v: f64) {
        let off = self.offset(p);
        let cell = &mut self.f64_col_mut(field)[off];
        *cell = op.fold(*cell, v);
    }
}

/// Runs of at most this many elements are copied element by element
/// rather than through `memcpy`: below it the call costs more than the
/// elements it moves, and a sparse ghost set is mostly such runs.
const SHORT_RUN: usize = 8;

/// The storage runs `(src offset, dst offset, len)` that cover a set of
/// elements in a source and a destination instance, in canonical
/// element order: each side's runs from
/// [`DomainIndexer::for_each_run`], split wherever either side breaks
/// and joined again wherever both continue.
///
/// This is the one way data moves between instances: an exchange pair
/// copies or folds instance to instance ([`CopyRuns::copy`]), or
/// through a payload in canonical element order ([`CopyRuns::gather`]
/// on the producer, [`CopyRuns::scatter`] on the consumer), and a shard
/// image fills from and flushes to the root store ([`CopyRuns::copy`],
/// [`CopyRuns::copy_back`]). Every path moves a run at once — inline
/// when it is short, by `memcpy` otherwise.
///
/// An instance's layout is a function of its domain alone, so a run
/// list holds for every pair of instances over the two domains it was
/// computed for — a caller that copies the same elements between the
/// same shapes again and again (an exchange pair at every execution of
/// its copy statement, a shard image at every run) computes it once.
#[derive(Clone, Debug, Default)]
pub struct CopyRuns {
    runs: Vec<(u32, u32, u32)>,
    /// Elements covered: the sum of the run lengths.
    volume: usize,
}

impl CopyRuns {
    /// The runs of `elements` from an instance laid out by `src` to one
    /// laid out by `dst`.
    ///
    /// # Panics
    /// If `elements` is not a subset of both indexed domains, or either
    /// layout stores more than `u32::MAX` slots.
    pub fn new(src: &DomainIndexer, dst: &DomainIndexer, elements: &Domain) -> Self {
        for ix in [src, dst] {
            assert!(
                ix.slots <= u64::from(u32::MAX),
                "layout of {} slots exceeds 32-bit offsets",
                ix.slots
            );
        }
        let mut src_runs = Vec::new();
        src.for_each_run(elements, |off, len| src_runs.push((off, len)));
        let mut src_runs = src_runs.into_iter();
        let (mut s_off, mut s_len) = (0u64, 0u64);
        let mut runs: Vec<(u32, u32, u32)> = Vec::new();
        dst.for_each_run(elements, |mut d_off, mut d_len| {
            while d_len > 0 {
                if s_len == 0 {
                    (s_off, s_len) = src_runs
                        .next()
                        .expect("both sides cover the same number of elements");
                }
                let n = d_len.min(s_len);
                let (so, do_, n_) = (s_off as u32, d_off as u32, n as u32);
                match runs.last_mut() {
                    Some((ps, pd, pn)) if *ps + *pn == so && *pd + *pn == do_ => *pn += n_,
                    _ => runs.push((so, do_, n_)),
                }
                s_off += n;
                s_len -= n;
                d_off += n;
                d_len -= n;
            }
        });
        runs.shrink_to_fit();
        let volume = runs.iter().map(|&(_, _, n)| n as usize).sum();
        CopyRuns { runs, volume }
    }

    /// The runs, `(src offset, dst offset, len)` in canonical element
    /// order.
    pub fn runs(&self) -> &[(u32, u32, u32)] {
        &self.runs
    }

    /// Number of elements the runs cover.
    pub fn volume(&self) -> usize {
        self.volume
    }

    /// Copies `fields` over the runs from `src` to `dst`, or folds them
    /// into `dst` with `op` when one is given (a reduction copy, §4.3).
    ///
    /// # Panics
    /// If the instances are not laid out as the indexers the runs were
    /// computed for (a run leaves a column), or a field's type differs
    /// between them.
    pub fn copy(
        &self,
        src: &Instance,
        dst: &mut Instance,
        fields: &[FieldId],
        op: Option<ReductionOp>,
    ) {
        self.apply(src, dst, fields, false, op)
    }

    /// The same runs the other way: copies `fields` from an instance
    /// laid out as the *destination* side into one laid out as the
    /// *source* side.
    pub fn copy_back(&self, dst_side: &Instance, src_side: &mut Instance, fields: &[FieldId]) {
        self.apply(dst_side, src_side, fields, true, None)
    }

    /// Appends the elements of `col`, a column laid out as the source
    /// side, to `out` in canonical element order: a copy payload.
    pub fn gather<T: Element>(&self, col: &[T], out: &mut Vec<T>) {
        let Some(&(first, _, _)) = self.runs.first() else {
            return;
        };
        // Sized first (with any value of the column), then written a run
        // at a time: appending element by element costs a capacity
        // check each.
        let start = out.len();
        out.resize(start + self.volume, col[first as usize]);
        let mut at = start;
        for &(s, _, n) in &self.runs {
            move_run(out, at, col, s as usize, n as usize, None);
            at += n as usize;
        }
    }

    /// Writes a payload gathered in canonical element order into `col`,
    /// a column laid out as the destination side, folding with `op`
    /// when one is given.
    ///
    /// # Panics
    /// If `vals` does not hold one value per element of the runs.
    pub fn scatter<T: Element>(&self, vals: &[T], col: &mut [T], op: Option<ReductionOp>) {
        assert_eq!(vals.len(), self.volume, "payload length");
        let mut at = 0;
        for &(_, d, n) in &self.runs {
            move_run(col, d as usize, vals, at, n as usize, op);
            at += n as usize;
        }
    }

    fn apply(
        &self,
        from: &Instance,
        to: &mut Instance,
        fields: &[FieldId],
        back: bool,
        op: Option<ReductionOp>,
    ) {
        fn move_runs<T: Element>(
            runs: &[(u32, u32, u32)],
            from: &[T],
            to: &mut [T],
            back: bool,
            op: Option<ReductionOp>,
        ) {
            for &(s, d, n) in runs {
                let (f, t) = if back { (d, s) } else { (s, d) };
                move_run(to, t as usize, from, f as usize, n as usize, op);
            }
        }
        for &f in fields {
            to.seals[f.0 as usize] = None;
            match (&from.columns[f.0 as usize], &mut to.columns[f.0 as usize]) {
                (ColumnData::F64(s), ColumnData::F64(d)) => move_runs(&self.runs, s, d, back, op),
                (ColumnData::I64(s), ColumnData::I64(d)) => move_runs(&self.runs, s, d, back, op),
                _ => panic!("field {f:?} type mismatch between instances"),
            }
        }
    }
}

/// Moves one run of `n` elements, `to[t..t + n] ← from[f..f + n]`, or
/// folds it in with `op`. A short overwrite ([`SHORT_RUN`]) goes
/// element by element, indexing the whole destination column: the
/// per-element bounds check, never taken, keeps the compiler from
/// turning the loop back into a `memcpy` call.
#[inline(always)]
fn move_run<T: Element>(
    to: &mut [T],
    t: usize,
    from: &[T],
    f: usize,
    n: usize,
    op: Option<ReductionOp>,
) {
    match op {
        None if n <= SHORT_RUN => {
            for (k, &v) in from[f..f + n].iter().enumerate() {
                to[t + k] = v;
            }
        }
        None => to[t..t + n].copy_from_slice(&from[f..f + n]),
        Some(op) => {
            for (a, &b) in to[t..t + n].iter_mut().zip(&from[f..f + n]) {
                *a = T::fold(op, *a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldSpace;
    use crate::view::ReadWrite;
    use regent_fault::SplitMix64;

    fn fs() -> FieldSpace {
        FieldSpace::of(&[("x", FieldType::F64), ("ptr", FieldType::I64)])
    }

    #[test]
    fn indexer_dense() {
        let d = Domain::range(10);
        let ix = DomainIndexer::new(&d);
        assert_eq!(ix.len(), 10);
        assert_eq!(ix.offset_of(DynPoint::from(7)), Some(7));
        assert_eq!(ix.offset_of(DynPoint::from(10)), None);
        assert_eq!(ix.iter().count(), 10);
    }

    #[test]
    fn indexer_sparse() {
        // 6 elements over a span of 20 ids: laid out over the span, an
        // id's offset is its distance from the first.
        let d = Domain::from_ids([2, 3, 4, 10, 20, 21]);
        let ix = DomainIndexer::new(&d);
        assert_eq!((ix.len(), ix.storage_len()), (6, 20));
        assert_eq!(ix.offset_of(DynPoint::from(2)), Some(0));
        assert_eq!(ix.offset_of(DynPoint::from(4)), Some(2));
        assert_eq!(ix.offset_of(DynPoint::from(10)), Some(8));
        assert_eq!(ix.offset_of(DynPoint::from(21)), Some(19));
        assert_eq!(ix.offset_of(DynPoint::from(5)), None);
        assert_eq!(ix.offset_of(DynPoint::from(1)), None);
        // Iter visits the elements only, in storage order.
        let offsets: Vec<u64> = ix.iter().map(|(_, off)| off).collect();
        assert_eq!(offsets, [0, 1, 2, 8, 18, 19]);
        for (p, off) in ix.iter() {
            assert_eq!(ix.offset_of(p), Some(off));
        }
        // 3 elements over 101 ids is past the bound: packed, run after run.
        let d = Domain::from_ids([0, 1, 100]);
        let ix = DomainIndexer::new(&d);
        assert_eq!((ix.len(), ix.storage_len()), (3, 3));
        assert_eq!(ix.offset_of(DynPoint::from(100)), Some(2));
        assert_eq!(ix.offset_of(DynPoint::from(50)), None);
    }

    #[test]
    fn indexer_2d_multirect() {
        use regent_geometry::DynRect;
        let a = DynRect::new(DynPoint::new(&[0, 0]), DynPoint::new(&[1, 1]));
        let b = DynRect::new(DynPoint::new(&[5, 5]), DynPoint::new(&[6, 6]));
        let d = Domain::from_rects([a, b]);
        let ix = DomainIndexer::new(&d);
        assert_eq!(ix.len(), 8);
        assert_eq!(ix.offset_of(DynPoint::new(&[3, 3])), None);
        for (p, off) in ix.iter() {
            assert_eq!(ix.offset_of(p), Some(off));
        }
    }

    #[test]
    fn read_write_roundtrip() {
        let fields = fs();
        let x = fields.lookup("x").unwrap();
        let ptr = fields.lookup("ptr").unwrap();
        let mut inst = Instance::new(Domain::range(5), &fields);
        inst.write_f64(x, DynPoint::from(3), 2.5);
        inst.write_i64(ptr, DynPoint::from(3), -7);
        assert_eq!(inst.read_f64(x, DynPoint::from(3)), 2.5);
        assert_eq!(inst.read_i64(ptr, DynPoint::from(3)), -7);
        assert_eq!(inst.read_f64(x, DynPoint::from(0)), 0.0);
    }

    #[test]
    fn copy_over_intersection() {
        let fields = fs();
        let x = fields.lookup("x").unwrap();
        let src_dom = Domain::from_ids(0..6);
        let dst_dom = Domain::from_ids(4..10);
        let mut src = Instance::new(src_dom.clone(), &fields);
        let mut dst = Instance::new(dst_dom.clone(), &fields);
        for p in src_dom.iter() {
            src.write_f64(x, p, p.coord(0) as f64 * 10.0);
        }
        let inter = src_dom.intersect(&dst_dom);
        CopyRuns::new(src.indexer(), dst.indexer(), &inter).copy(&src, &mut dst, &[x], None);
        assert_eq!(dst.read_f64(x, DynPoint::from(4)), 40.0);
        assert_eq!(dst.read_f64(x, DynPoint::from(5)), 50.0);
        assert_eq!(dst.read_f64(x, DynPoint::from(9)), 0.0, "outside untouched");
    }

    #[test]
    fn reduction_instance_and_fold() {
        let fields = FieldSpace::of(&[("q", FieldType::F64)]);
        let q = fields.lookup("q").unwrap();
        let dom = Domain::range(4);
        let mut tmp = Instance::new(dom.clone(), &fields);
        tmp.fill_field(q, ReductionOp::Add);
        assert_eq!(tmp.read_f64(q, DynPoint::from(0)), 0.0);
        tmp.reduce_f64(q, DynPoint::from(1), ReductionOp::Add, 5.0);
        tmp.reduce_f64(q, DynPoint::from(1), ReductionOp::Add, 2.0);
        let mut main = Instance::new(dom.clone(), &fields);
        main.write_f64(q, DynPoint::from(1), 1.0);
        CopyRuns::new(tmp.indexer(), main.indexer(), &dom).copy(
            &tmp,
            &mut main,
            &[q],
            Some(ReductionOp::Add),
        );
        assert_eq!(main.read_f64(q, DynPoint::from(1)), 8.0);
        assert_eq!(main.read_f64(q, DynPoint::from(0)), 0.0);
    }

    #[test]
    fn min_max_identities() {
        assert_eq!(ReductionOp::Min.fold(ReductionOp::Min.identity(), 3.0), 3.0);
        assert_eq!(
            ReductionOp::Max.fold(ReductionOp::Max.identity(), -3.0),
            -3.0
        );
        assert_eq!(ReductionOp::Mul.fold(ReductionOp::Mul.identity(), 4.0), 4.0);
        assert_eq!(ReductionOp::Add.identity_i64(), 0);
        assert_eq!(ReductionOp::Min.identity_i64(), i64::MAX);
    }

    #[test]
    fn seal_lifecycle() {
        let fields = fs();
        let x = fields.lookup("x").unwrap();
        let ptr = fields.lookup("ptr").unwrap();
        let mut inst = Instance::new(Domain::range(8), &fields);
        // Unsealed instances verify trivially.
        assert_eq!(inst.seal_value(), None);
        assert!(inst.verify_seal());
        inst.seal();
        assert!(inst.seal_value().is_some());
        assert!(inst.verify_seal());
        // Every mutation path invalidates the seal.
        inst.write_f64(x, DynPoint::from(0), 1.0);
        assert_eq!(inst.seal_value(), None);
        inst.seal();
        inst.write_i64(ptr, DynPoint::from(1), 2);
        assert_eq!(inst.seal_value(), None);
        inst.seal();
        inst.fill_field(x, ReductionOp::Add);
        assert_eq!(inst.seal_value(), None);
        inst.seal();
        inst.reduce_f64(x, DynPoint::from(2), ReductionOp::Add, 3.0);
        assert_eq!(inst.seal_value(), None);
        inst.seal();
        let other = Instance::new(Domain::range(8), &fields);
        let runs = CopyRuns::new(other.indexer(), inst.indexer(), &Domain::range(8));
        runs.copy(&other, &mut inst, &[x], None);
        assert_eq!(inst.seal_value(), None);
        inst.seal();
        runs.copy(&other, &mut inst, &[x], Some(ReductionOp::Add));
        assert_eq!(inst.seal_value(), None);
        // Bind-time invalidation: `unseal_fields` drops the named seals
        // once, and the view stores that follow touch none.
        inst.seal();
        let p: *mut Instance = &mut inst;
        let dom = Domain::range(8);
        // SAFETY: `inst` outlives the view and nothing else uses it
        // while the view is live.
        let xs = unsafe { Instance::view_raw::<f64, _>(p, x, &dom, ReadWrite) };
        xs.set1(0, 4.0);
        assert!(inst.is_field_sealed(x), "view stores leave seals alone");
        assert!(!inst.verify_seal(), "which is why the binder unseals first");
        inst.unseal_fields(&[x]);
        assert!(!inst.is_field_sealed(x) && inst.is_field_sealed(ptr));
        // Clones carry the seal (snapshots stay verified).
        inst.seal();
        let clone = inst.clone();
        assert_eq!(clone.seal_value(), inst.seal_value());
        assert!(clone.verify_seal());
    }

    #[test]
    fn silent_corruption_breaks_seal() {
        let fields = fs();
        let x = fields.lookup("x").unwrap();
        let mut inst = Instance::new(Domain::range(16), &fields);
        for p in Domain::range(16).iter() {
            inst.write_f64(x, p, p.coord(0) as f64);
        }
        inst.seal();
        let before = inst.checksum();
        for entropy in [0u64, 0x1234_5678_9abc_def0, u64::MAX, 7 << 40] {
            let mut victim = inst.clone();
            assert!(victim.corrupt_bit_silently(entropy));
            // The seal survives the silent flip but no longer matches.
            assert_eq!(victim.seal_value(), Some(before));
            assert!(!victim.verify_seal(), "entropy {entropy:#x} undetected");
        }
        // Empty instances have nothing to corrupt.
        let mut empty = Instance::new(Domain::from_ids([]), &fields);
        assert!(!empty.corrupt_bit_silently(42));
        empty.seal();
        assert!(empty.verify_seal());
    }

    #[test]
    fn span_layout_and_bisection_agree_inside_and_outside() {
        let mut rng = SplitMix64::new(0xd1_4ec7);
        let (mut over_span, mut packed) = (0, 0);
        for round in 0..120u64 {
            // Densities from 1 id in 40 (far sparser than the span
            // layout's bound) to 1 in 2, over spans of a few hundred ids
            // that do not start at zero.
            let keep_one_in = [40, 16, 9, 6, 3, 2][round as usize % 6];
            let lo = (rng.next_u64() % 1000) as i64 - 500;
            let span = 50 + (rng.next_u64() % 400) as i64;
            let mut ids: Vec<i64> = (lo..lo + span)
                .filter(|_| rng.next_u64().is_multiple_of(keep_one_in))
                .collect();
            ids.extend([lo, lo + span - 1]);
            let dom = Domain::from_ids(ids);
            let ix = DomainIndexer::new(&dom);
            if dom.rects().len() < 2 {
                continue;
            }
            let spanned = span as u64 <= MAX_SLOTS_PER_ELEMENT * dom.volume();
            assert_eq!(!ix.members.is_empty(), spanned, "{dom:?}");
            if spanned {
                over_span += 1;
                assert_eq!(ix.storage_len() as i64, span);
            } else {
                packed += 1;
                assert_eq!(ix.storage_len(), dom.volume());
            }
            // The reference: the run holding `i`, by bisection of the
            // run list, and the rank of `i` among the elements.
            let rects = dom.rects();
            let mut rank = 0u64;
            let mut expected = std::collections::HashMap::new();
            for r in rects {
                for id in r.lo().coord(0)..=r.hi().coord(0) {
                    expected.insert(id, (rank, r.hi().coord(0) - id + 1));
                    rank += 1;
                }
            }
            for i in lo - 70..lo + span + 70 {
                let want = expected.get(&i).map(|&(rank, left)| {
                    let off = if spanned { (i - lo) as u64 } else { rank };
                    (off, left as u64)
                });
                assert_eq!(ix.locate_run([i, 0, 0]), want, "id {i} of {dom:?}");
                assert_eq!(want.is_some(), dom.contains(DynPoint::from(i)));
            }
            for i in [i64::MIN, i64::MIN + 1, -1 << 40, 1 << 40, i64::MAX] {
                assert_eq!(ix.locate([i, 0, 0]), None, "far id {i}");
            }
            for k in 0..dom.volume() {
                let off = ix.nth_offset(k);
                assert_eq!(ix.iter().nth(k as usize).map(|(_, o)| o), Some(off));
            }
        }
        assert!(over_span > 40 && packed > 15, "{over_span} / {packed}");
    }

    #[test]
    fn corruption_lands_on_elements_not_holes() {
        let fields = fs();
        let x = fields.lookup("x").unwrap();
        // 4 elements over a span of 9 ids, one column stored.
        let dom = Domain::from_ids([10, 11, 15, 18]);
        let mut inst = Instance::with_fields(dom.clone(), &fields, &[x]);
        assert_eq!((inst.len(), inst.column(x).len()), (4, 9));
        inst.seal();
        let mut hit = [0u32; 9];
        let mut rng = SplitMix64::new(0xf1_1b5);
        for _ in 0..2000 {
            let entropy = rng.next_u64();
            let mut victim = inst.clone();
            assert!(victim.corrupt_bit_silently(entropy));
            assert!(!victim.verify_seal());
            let col = victim.f64_col(x);
            let flipped: Vec<usize> = (0..9).filter(|&k| col[k].to_bits() != 0).collect();
            assert_eq!(flipped.len(), 1, "one bit of one slot");
            hit[flipped[0]] += 1;
        }
        let holes = [2, 3, 4, 6, 7];
        assert!(holes.iter().all(|&h| hit[h] == 0), "{hit:?}");
        assert!([0, 1, 5, 8].iter().all(|&e| hit[e] > 350), "{hit:?}");
    }

    #[test]
    fn corruption_lands_on_cross_members_not_corners() {
        let fields = fs();
        let x = fields.lookup("x").unwrap();
        // The radius-1 cross of the tile [1, 2]²: 12 elements in the box
        // [0, 3]², whose 4 corners are holes.
        let rect =
            |lo: [i64; 2], hi: [i64; 2]| DynRect::new(DynPoint::new(&lo), DynPoint::new(&hi));
        let dom = Domain::from_rects([rect([0, 1], [3, 2]), rect([1, 0], [2, 3])]);
        let mut inst = Instance::with_fields(dom.clone(), &fields, &[x]);
        assert_eq!((inst.len(), inst.column(x).len()), (12, 16));
        inst.seal();
        let mut hit = [0u32; 16];
        let mut rng = SplitMix64::new(0xc0_4e55);
        for _ in 0..2000 {
            let entropy = rng.next_u64();
            let mut victim = inst.clone();
            assert!(victim.corrupt_bit_silently(entropy));
            assert!(!victim.verify_seal());
            let col = victim.f64_col(x);
            let flipped: Vec<usize> = (0..16).filter(|&k| col[k].to_bits() != 0).collect();
            assert_eq!(flipped.len(), 1, "one bit of one slot");
            hit[flipped[0]] += 1;
        }
        let corners = [0, 3, 12, 15];
        assert!(corners.iter().all(|&c| hit[c] == 0), "{hit:?}");
        let members = (0..16).filter(|k| !corners.contains(k));
        assert!(members.clone().all(|m| hit[m] > 100), "{hit:?}");
        // Every member slot is the offset of one element.
        let offsets: Vec<usize> = dom
            .iter()
            .map(|p| inst.indexer().offset_of(p).unwrap() as usize)
            .collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, members.collect::<Vec<_>>());
    }

    #[test]
    fn corruption_draws_among_stored_columns() {
        let fields = fs();
        let x = fields.lookup("x").unwrap();
        let ptr = fields.lookup("ptr").unwrap();
        // Only `ptr` (the second column) stores anything.
        let mut inst = Instance::with_fields(Domain::range(16), &fields, &[ptr]);
        assert_eq!((inst.column(x).len(), inst.column(ptr).len()), (0, 16));
        inst.seal();
        assert!(inst.verify_seal());
        let clean = inst.checksum();
        for entropy in [0u64, 15, 16, 31, 0x1234_5678_9abc_def0, u64::MAX] {
            let mut victim = inst.clone();
            assert!(victim.corrupt_bit_silently(entropy), "entropy {entropy:#x}");
            assert!(!victim.verify_seal(), "entropy {entropy:#x} undetected");
            assert_ne!(victim.checksum(), clean);
            // Snapshot and restore keep the subset shape.
            let mut restored = victim.clone();
            restored.clone_contents_from(&inst);
            assert!(restored.verify_seal());
            assert_eq!(restored.checksum(), clean);
        }
        // Nothing stored at all: nothing to corrupt.
        let mut none = Instance::with_fields(Domain::range(16), &fields, &[]);
        assert!(!none.corrupt_bit_silently(7));
        // A sibling shares the layout but not the contents.
        let mut sib = inst.sibling(&fields, &[x]);
        assert_eq!((sib.column(x).len(), sib.column(ptr).len()), (16, 0));
        sib.write_f64(x, DynPoint::from(5), 2.0);
        assert_eq!(sib.read_f64(x, DynPoint::from(5)), 2.0);
        assert_eq!(inst.checksum(), clean);
    }

    #[test]
    #[should_panic(expected = "outside instance domain")]
    fn out_of_domain_write_panics() {
        let fields = fs();
        let x = fields.lookup("x").unwrap();
        let mut inst = Instance::new(Domain::range(3), &fields);
        inst.write_f64(x, DynPoint::from(3), 1.0);
    }
}
