//! The run-wise paths of the data plane against their per-point
//! definitions, on seeded random inputs: `DomainIndexer::offsets_of`
//! must equal mapping `offset_of` over the elements,
//! `copy_fields` / `reduce_fields` (which walk rectangle runs) must
//! leave exactly what a point-by-point read/write loop leaves, and a
//! memoized `CopyRuns` must copy what `copy_fields` copies — into
//! instances it was not computed from, in both directions.

use regent_fault::SplitMix64;
use regent_geometry::{Domain, DynPoint, DynRect};
use regent_region::{
    copy_fields, reduce_fields, CopyRuns, DomainIndexer, FieldId, FieldSpace, FieldType, Instance,
    ReductionOp,
};

/// A sparse 1-D id set: each id of `[0, span)` kept with probability
/// `keep`/8, so runs of every length from 1 up occur.
fn sparse_ids(rng: &mut SplitMix64, span: i64, keep: u64) -> Domain {
    Domain::from_ids((0..span).filter(|_| rng.next_u64() % 8 < keep))
}

/// A union of a few random (possibly overlapping) 2-D rectangles, so
/// the normalized domain has several rectangles of differing row
/// lengths.
fn multi_rect_2d(rng: &mut SplitMix64) -> Domain {
    let n = 1 + rng.next_u64() % 5;
    Domain::from_rects((0..n).map(|_| {
        let (x, y) = ((rng.next_u64() % 24) as i64, (rng.next_u64() % 24) as i64);
        let (w, h) = (
            (1 + rng.next_u64() % 9) as i64,
            (1 + rng.next_u64() % 9) as i64,
        );
        DynRect::new(
            DynPoint::new(&[x, y]),
            DynPoint::new(&[x + w - 1, y + h - 1]),
        )
    }))
}

/// `(src domain, dst domain)` cases: sparse 1-D sets of several
/// densities, then multi-rectangle 2-D domains.
fn cases() -> Vec<(Domain, Domain)> {
    let mut rng = SplitMix64::new(0x5eed_0012);
    let mut out = Vec::new();
    for round in 0..40 {
        let keep = 1 + round % 7;
        out.push((
            sparse_ids(&mut rng, 300, keep),
            sparse_ids(&mut rng, 300, 8 - keep / 2),
        ));
    }
    for _ in 0..40 {
        out.push((multi_rect_2d(&mut rng), multi_rect_2d(&mut rng)));
    }
    out
}

#[test]
fn offsets_of_equals_per_point_offset_of() {
    let mut nonempty = 0;
    for (a, b) in cases() {
        let elements = a.intersect(&b);
        for dom in [&a, &b] {
            let ix = DomainIndexer::new(dom);
            let per_point: Vec<u32> = elements
                .iter()
                .map(|p| ix.offset_of(p).expect("element of a subset") as u32)
                .collect();
            assert_eq!(
                ix.offsets_of(&elements),
                per_point,
                "{elements:?} in {dom:?}"
            );
        }
        nonempty += usize::from(!elements.is_empty());
    }
    assert!(nonempty > 60, "the cases must mostly overlap: {nonempty}");
}

fn rect(lo: [i64; 2], hi: [i64; 2]) -> DynRect {
    DynRect::new(DynPoint::new(&lo), DynPoint::new(&hi))
}

/// The runs of `elements` in `ix`, checked against per-point
/// `offset_of`.
fn runs_of(ix: &DomainIndexer, elements: &Domain) -> Vec<(u64, u64)> {
    let per_point: Vec<u32> = elements
        .iter()
        .map(|p| ix.offset_of(p).unwrap() as u32)
        .collect();
    assert_eq!(ix.offsets_of(elements), per_point);
    let mut runs = Vec::new();
    ix.for_each_run(elements, |off, len| runs.push((off, len)));
    runs
}

#[test]
fn a_row_may_cross_rectangles_of_the_indexed_domain() {
    // Two rectangles that do not merge, and a third far away, so that
    // the bounding box holds more than 8 slots per element and the
    // rectangles are packed; the strip below has rows (fixed x,
    // y = 0..=5) that start in the first and end in the second.
    let dom = Domain::from_rects([
        rect([0, 0], [3, 2]),
        rect([0, 3], [1, 5]),
        rect([40, 40], [40, 40]),
    ]);
    assert_eq!(dom.rects().len(), 3);
    let ix = DomainIndexer::new(&dom);
    assert_eq!(ix.storage_len(), dom.volume(), "packed");
    let strip = Domain::from_rect(rect([0, 0], [1, 5]));
    assert_eq!(runs_of(&ix, &strip), [(0, 3), (12, 3), (3, 3), (15, 3)]);
}

#[test]
fn a_row_of_a_bounding_box_layout_is_one_run() {
    // The first two rectangles alone: 18 elements in a 4×6 box, laid
    // out over it, where each strip row is one run.
    let dom = Domain::from_rects([rect([0, 0], [3, 2]), rect([0, 3], [1, 5])]);
    assert_eq!(dom.rects().len(), 2);
    let ix = DomainIndexer::new(&dom);
    assert_eq!((ix.len(), ix.storage_len()), (18, 24));
    let strip = Domain::from_rect(rect([0, 0], [1, 5]));
    assert_eq!(runs_of(&ix, &strip), [(0, 6), (6, 6)]);
    // Rows 2 and 3 end at the box's holes.
    let lower = Domain::from_rect(rect([2, 0], [3, 2]));
    assert_eq!(runs_of(&ix, &lower), [(12, 3), (18, 3)]);
}

#[test]
#[should_panic(expected = "outside the indexed domain")]
fn offsets_of_rejects_elements_outside_the_domain() {
    let ix = DomainIndexer::new(&Domain::from_ids([1, 2, 3, 7]));
    ix.offsets_of(&Domain::from_ids([3, 4]));
}

fn fields() -> (FieldSpace, FieldId, FieldId) {
    let fs = FieldSpace::of(&[("v", FieldType::F64), ("k", FieldType::I64)]);
    let (v, k) = (fs.lookup("v").unwrap(), fs.lookup("k").unwrap());
    (fs, v, k)
}

/// An instance over `dom` with every cell of both fields set from the
/// generator.
fn filled(dom: &Domain, fs: &FieldSpace, v: FieldId, k: FieldId, rng: &mut SplitMix64) -> Instance {
    let mut inst = Instance::new(dom.clone(), fs);
    for p in dom.iter() {
        inst.write_f64(v, p, (rng.next_u64() % 1000) as f64 / 8.0);
        inst.write_i64(k, p, (rng.next_u64() % 1000) as i64 - 500);
    }
    inst
}

#[test]
fn run_wise_copy_equals_per_point_copy() {
    let (fs, v, k) = fields();
    let mut rng = SplitMix64::new(0x00c0_b1e5);
    for (a, b) in cases() {
        let elements = a.intersect(&b);
        let src = filled(&a, &fs, v, k, &mut rng);
        let before = filled(&b, &fs, v, k, &mut rng);

        let mut expected = before.clone();
        for p in elements.iter() {
            expected.write_f64(v, p, src.read_f64(v, p));
            expected.write_i64(k, p, src.read_i64(k, p));
        }
        let mut got = before.clone();
        copy_fields(&src, &mut got, &[v, k], &elements);
        assert_eq!(got.column(v), expected.column(v), "{elements:?}");
        assert_eq!(got.column(k), expected.column(k), "{elements:?}");

        // One field only: the other column is left alone.
        let mut got = before.clone();
        copy_fields(&src, &mut got, &[k], &elements);
        assert_eq!(got.column(v), before.column(v));
        assert_eq!(got.column(k), expected.column(k));
    }
}

#[test]
fn run_wise_reduce_equals_per_point_fold() {
    let (fs, v, k) = fields();
    let mut rng = SplitMix64::new(0xf01d);
    for (i, (a, b)) in cases().into_iter().enumerate() {
        let op = [
            ReductionOp::Add,
            ReductionOp::Mul,
            ReductionOp::Min,
            ReductionOp::Max,
        ][i % 4];
        let elements = a.intersect(&b);
        let src = filled(&a, &fs, v, k, &mut rng);
        let before = filled(&b, &fs, v, k, &mut rng);

        let mut expected = before.clone();
        for p in elements.iter() {
            expected.reduce_f64(v, p, op, src.read_f64(v, p));
            let folded = op.fold_i64(expected.read_i64(k, p), src.read_i64(k, p));
            expected.write_i64(k, p, folded);
        }
        let mut got = before;
        reduce_fields(&src, &mut got, &[v, k], &elements, op);
        assert_eq!(
            got.column(v),
            expected.column(v),
            "{op:?} over {elements:?}"
        );
        assert_eq!(
            got.column(k),
            expected.column(k),
            "{op:?} over {elements:?}"
        );
    }
}

/// What a shard image does at every run: the run list of a whole
/// subregion, computed once from the two layouts, then applied to
/// *other* instances over the same two domains — root to subregion
/// (fill) and back (flush) — must move exactly what `copy_fields`
/// moves. The subregion instance stores one field only.
#[test]
fn memoized_runs_copy_what_copy_fields_copies_both_ways() {
    let (fs, v, k) = fields();
    let mut rng = SplitMix64::new(0x1a9e_5eed);
    let mut multi_run = 0;
    for (root_dom, b) in cases() {
        let sub_dom = root_dom.intersect(&b);
        let runs = CopyRuns::new(
            &DomainIndexer::new(&root_dom),
            &DomainIndexer::new(&sub_dom),
            &sub_dom,
        );
        // Several rectangles, or several rows of one, are several runs
        // in the root's storage.
        multi_run += usize::from(sub_dom.rects().len() > 1 || sub_dom.dim() == 2);
        for _ in 0..2 {
            // Fill: root → subregion instance.
            let root = filled(&root_dom, &fs, v, k, &mut rng);
            let mut expected = Instance::new(sub_dom.clone(), &fs);
            copy_fields(&root, &mut expected, &[k], &sub_dom);
            let mut got = Instance::with_fields(sub_dom.clone(), &fs, &[k]);
            runs.copy(&root, &mut got, &[k]);
            assert_eq!(got.column(k), expected.column(k), "fill {sub_dom:?}");
            assert!(got.column(v).is_empty());

            // Flush: subregion instance → another root.
            let before = filled(&root_dom, &fs, v, k, &mut rng);
            let mut expected = before.clone();
            copy_fields(&got, &mut expected, &[k], &sub_dom);
            let mut back = before.clone();
            runs.copy_back(&got, &mut back, &[k]);
            assert_eq!(back.column(k), expected.column(k), "flush {sub_dom:?}");
            assert_eq!(back.column(v), before.column(v), "flush touched v");
        }
    }
    assert!(
        multi_run > 40,
        "most cases must need several runs: {multi_run}"
    );
}
