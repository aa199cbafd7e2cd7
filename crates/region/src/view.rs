//! Field views: one column of an instance, bound once and indexed
//! directly.
//!
//! A kernel that calls `instance.read_f64(field, point)` per element
//! pays, per element, for what never changes during the task: which
//! column the field is, what type it holds, how the instance lays its
//! domain out. A [`FieldView`] resolves those once. What is left per
//! access is the affine arithmetic of one rectangle (or, for a sparse
//! domain, one search of a flat array) and a bounds-checked load or
//! store. Loops over unit-stride storage skip even that: [`Rows`] cuts
//! a domain into [`Run`]s and [`FieldView::row`] turns a run into a
//! [`Row`], a plain slice of cells.
//!
//! Views are **`Cell`-style**. They hold `&[Cell<T>]`, never `&[T]` or
//! `&mut [T]`, so any number of views — of one column or of several,
//! reading and writing — may be live in one thread at once and every
//! access is a single load or store that asserts nothing about the
//! elements around it. That is what the shared-memory implementation
//! of region semantics needs: two region arguments of one task may be
//! backed by the same instance, and a task may write through one and
//! read the same element through the other. What a view may *do* is
//! fixed by its access type — [`Read`], [`ReadWrite`] or [`Reduce`] —
//! chosen when it is bound.

use crate::instance::{Block, ColumnData, DomainIndexer, ReductionOp};
use regent_geometry::{Domain, DynPoint, DynRect, MAX_DIM};
use std::cell::Cell;

/// Access type of a view that may only load.
#[derive(Clone, Copy, Debug)]
pub struct Read;

/// Access type of a view that may load and store.
#[derive(Clone, Copy, Debug)]
pub struct ReadWrite;

/// Access type of a view that may only fold values in with the given
/// operator (a reduce privilege, §4.3).
#[derive(Clone, Copy, Debug)]
pub struct Reduce(pub ReductionOp);

/// Access types whose views may load.
pub trait Readable: Copy {}
impl Readable for Read {}
impl Readable for ReadWrite {}

/// The element types a column can hold.
pub trait Element: Copy + 'static {
    /// The type's name in panic messages.
    const NAME: &'static str;

    /// The buffer of `col` when it holds `Self`, as raw parts: no
    /// reference to the elements is formed.
    #[doc(hidden)]
    fn raw_column(col: &ColumnData) -> Option<(*const Self, usize)>;
}

impl Element for f64 {
    const NAME: &'static str = "F64";

    fn raw_column(col: &ColumnData) -> Option<(*const f64, usize)> {
        match col {
            ColumnData::F64(v) => Some((v.as_ptr(), v.len())),
            ColumnData::I64(_) => None,
        }
    }
}

impl Element for i64 {
    const NAME: &'static str = "I64";

    fn raw_column(col: &ColumnData) -> Option<(*const i64, usize)> {
        match col {
            ColumnData::I64(v) => Some((v.as_ptr(), v.len())),
            ColumnData::F64(_) => None,
        }
    }
}

/// `len` elements that are consecutive both in a domain's canonical
/// order and in storage, named by their first point: the elements
/// `start`, `start + 1`, … along the last dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// The first element.
    pub start: DynPoint,
    /// Number of elements.
    pub len: usize,
}

/// One field of an instance, bound once: see the [module docs](self).
///
/// `getN`/`setN`/`foldN` address an element of an `N`-dimensional
/// domain by its coordinates; `get`/`set`/`fold` take a [`DynPoint`].
///
/// # Panics
/// Every accessor panics when the point lies outside the instance (so
/// no access ever leaves the column), when `N` is not the domain's
/// dimensionality, and — in debug builds — when the point lies outside
/// the domain the view was bound to.
#[derive(Clone, Copy)]
pub struct FieldView<'a, T, A> {
    column: Row<'a, T, A>,
    /// Dimensionality of the instance's domain.
    dim: usize,
    /// The instance's largest rectangle — by value, so the compiler
    /// keeps its bounds in registers across a kernel's loop instead of
    /// reloading them after every store. Every access tries it inline.
    hot: Block,
    indexer: &'a DomainIndexer,
    domain: &'a Domain,
}

impl<'a, T: Element, A: Copy> FieldView<'a, T, A> {
    pub(crate) fn new(
        cells: &'a [Cell<T>],
        indexer: &'a DomainIndexer,
        domain: &'a Domain,
        access: A,
    ) -> Self {
        FieldView {
            column: Row { cells, access },
            dim: indexer.dim(),
            hot: indexer.largest(),
            indexer,
            domain,
        }
    }

    // The three coordinate forms share one shape: a point of the largest
    // rectangle — any point, when the instance has just one — costs a
    // few inlined instructions on values the view carries; everything
    // else (another rectangle, a point outside, the wrong
    // dimensionality) goes out of line.

    #[inline(always)]
    fn at1(&self, i: i64) -> usize {
        match self.hot.offset1(i) {
            Some(off) if self.dim == 1 => self.in_domain([i, 0, 0], off),
            _ => self.at_general(1, [i, 0, 0]),
        }
    }

    #[inline(always)]
    fn at2(&self, i: i64, j: i64) -> usize {
        match self.hot.offset2(i, j) {
            Some(off) if self.dim == 2 => self.in_domain([i, j, 0], off),
            _ => self.at_general(2, [i, j, 0]),
        }
    }

    #[inline(always)]
    fn at3(&self, i: i64, j: i64, k: i64) -> usize {
        match self.hot.offset3([i, j, k]) {
            Some(off) if self.dim == 3 => self.in_domain([i, j, k], off),
            _ => self.at_general(3, [i, j, k]),
        }
    }

    #[inline]
    fn at(&self, p: DynPoint) -> usize {
        self.at_general(p.dim(), p.padded())
    }

    /// The offset of the `dim`-dimensional point `c` by the indexer's
    /// general lookup, after the checks every access makes.
    #[inline(never)]
    fn at_general(&self, dim: usize, c: [i64; MAX_DIM]) -> usize {
        assert!(dim == self.dim, "{dim}-D access to a {}-D region", self.dim);
        match self.indexer.locate_offset(c) {
            Some(off) => self.in_domain(c, off),
            None => outside_instance(dim, c),
        }
    }

    /// `off`, the offset found for `c` — which, in debug builds, must
    /// also lie in the domain the view was bound to.
    #[inline(always)]
    fn in_domain(&self, c: [i64; MAX_DIM], off: u64) -> usize {
        if cfg!(debug_assertions) {
            self.check_domain(c);
        }
        off as usize
    }

    fn check_domain(&self, c: [i64; MAX_DIM]) {
        let p = DynPoint::new(&c[..self.dim]);
        assert!(
            self.domain.contains(p),
            "task accessed {p:?} outside the domain of its region argument"
        );
    }

    /// The elements of `run` as one slice of cells.
    ///
    /// # Panics
    /// If the run leaves the instance or is not contiguous in its
    /// storage (it crosses rectangles of the instance's domain), and —
    /// in debug builds — if it leaves the domain the view was bound to.
    pub fn row(&self, run: Run) -> Row<'a, T, A> {
        let c = run.start.padded();
        let dim = run.start.dim();
        assert!(dim == self.dim, "{dim}-D run in a {}-D region", self.dim);
        let Some((off, room)) = self.indexer.locate_run(c) else {
            outside_instance(dim, c)
        };
        let off = self.in_domain(c, off);
        assert!(
            run.len as u64 <= room,
            "a run of {} elements from {:?} is not contiguous in the instance ({room} are)",
            run.len,
            run.start
        );
        if cfg!(debug_assertions) && run.len > 0 {
            let mut end = c;
            end[dim - 1] += run.len as i64 - 1;
            self.check_domain(end);
        }
        self.column.slice(off, run.len)
    }
}

#[cold]
#[inline(never)]
fn outside_instance(dim: usize, c: [i64; MAX_DIM]) -> ! {
    panic!(
        "point {:?} outside instance domain",
        DynPoint::new(&c[..dim])
    )
}

impl<T: Element, A: Readable> FieldView<'_, T, A> {
    /// Loads the element at `(i)`.
    #[inline(always)]
    pub fn get1(&self, i: i64) -> T {
        self.column.get(self.at1(i))
    }

    /// Loads the element at `(i, j)`.
    #[inline(always)]
    pub fn get2(&self, i: i64, j: i64) -> T {
        self.column.get(self.at2(i, j))
    }

    /// Loads the element at `(i, j, k)`.
    #[inline(always)]
    pub fn get3(&self, i: i64, j: i64, k: i64) -> T {
        self.column.get(self.at3(i, j, k))
    }

    /// Loads the element at `p`.
    #[inline]
    pub fn get(&self, p: DynPoint) -> T {
        self.column.get(self.at(p))
    }
}

impl<T: Element> FieldView<'_, T, ReadWrite> {
    /// Stores `v` at `(i)`.
    #[inline(always)]
    pub fn set1(&self, i: i64, v: T) {
        self.column.set(self.at1(i), v)
    }

    /// Stores `v` at `(i, j)`.
    #[inline(always)]
    pub fn set2(&self, i: i64, j: i64, v: T) {
        self.column.set(self.at2(i, j), v)
    }

    /// Stores `v` at `(i, j, k)`.
    #[inline(always)]
    pub fn set3(&self, i: i64, j: i64, k: i64, v: T) {
        self.column.set(self.at3(i, j, k), v)
    }

    /// Stores `v` at `p`.
    #[inline]
    pub fn set(&self, p: DynPoint, v: T) {
        self.column.set(self.at(p), v)
    }
}

impl FieldView<'_, f64, Reduce> {
    /// Folds `v` into the element at `(i)` with the view's operator.
    #[inline(always)]
    pub fn fold1(&self, i: i64, v: f64) {
        self.column.fold(self.at1(i), v)
    }

    /// Folds `v` into the element at `(i, j)`.
    #[inline(always)]
    pub fn fold2(&self, i: i64, j: i64, v: f64) {
        self.column.fold(self.at2(i, j), v)
    }

    /// Folds `v` into the element at `(i, j, k)`.
    #[inline(always)]
    pub fn fold3(&self, i: i64, j: i64, k: i64, v: f64) {
        self.column.fold(self.at3(i, j, k), v)
    }

    /// Folds `v` into the element at `p`.
    #[inline]
    pub fn fold(&self, p: DynPoint, v: f64) {
        self.column.fold(self.at(p), v)
    }
}

/// A unit-stride stretch of one column — the elements of a [`Run`] —
/// indexed from 0 with no lookup at all.
#[derive(Clone, Copy)]
pub struct Row<'a, T, A> {
    cells: &'a [Cell<T>],
    access: A,
}

impl<'a, T: Element, A: Copy> Row<'a, T, A> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the row has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    #[inline]
    fn slice(&self, off: usize, len: usize) -> Row<'a, T, A> {
        Row {
            cells: &self.cells[off..off + len],
            access: self.access,
        }
    }
}

impl<T: Element, A: Readable> Row<'_, T, A> {
    /// Loads element `k`.
    #[inline(always)]
    pub fn get(&self, k: usize) -> T {
        self.cells[k].get()
    }
}

impl<T: Element> Row<'_, T, ReadWrite> {
    /// Stores `v` into element `k`.
    #[inline(always)]
    pub fn set(&self, k: usize, v: T) {
        self.cells[k].set(v)
    }
}

impl Row<'_, f64, Reduce> {
    /// Folds `v` into element `k` with the row's operator.
    #[inline(always)]
    pub fn fold(&self, k: usize, v: f64) {
        let cell = &self.cells[k];
        cell.set(self.access.0.fold(cell.get(), v))
    }
}

/// The elements of a domain in canonical order ([`Domain::iter`]), cut
/// into the [`Run`]s that are contiguous in an instance's storage: each
/// row of each rectangle, split where it crosses rectangles of the
/// instance's own domain. Every element is visited exactly once.
///
/// # Panics
/// The iterator panics when the domain is not a subset of the
/// instance's.
pub struct Rows<'a> {
    rects: std::slice::Iter<'a, DynRect>,
    indexer: &'a DomainIndexer,
    /// The rectangle being walked and how many of its elements (in
    /// row-major order) earlier runs covered.
    cur: Option<(DynRect, u64)>,
}

impl<'a> Rows<'a> {
    /// The runs of `domain` in the instance laid out by `indexer`.
    pub fn new(domain: &'a Domain, indexer: &'a DomainIndexer) -> Self {
        Rows {
            rects: domain.rects().iter(),
            indexer,
            cur: None,
        }
    }
}

impl Iterator for Rows<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        loop {
            let Some((rect, done)) = &mut self.cur else {
                self.cur = Some((*self.rects.next()?, 0));
                continue;
            };
            let Some(start) = rect.delinearize(*done) else {
                self.cur = None;
                continue;
            };
            let last = rect.dim() - 1;
            let row_left = (rect.hi().coord(last) - start.coord(last) + 1) as u64;
            let (_, room) = self
                .indexer
                .locate_run(start.padded())
                .unwrap_or_else(|| outside_instance(rect.dim(), start.padded()));
            let len = room.min(row_left);
            *done += len;
            return Some(Run {
                start,
                len: len as usize,
            });
        }
    }
}
