//! Field views against the per-point `Instance` methods they replace in
//! kernels, on seeded inputs of every layout the indexer specializes:
//! dense 1-/2-/3-D (one rectangle, pure arithmetic), domains of several
//! rectangles laid out over their bounding box with a membership bitmap
//! — sparse 1-D sets with hundreds of runs, and the 2-D and 3-D crosses
//! of Stencil-style halos, clipped at grid edges and corners — and, past
//! 8 slots of box per element, packed domains: sparse 1-D sets found by
//! the bucketed run search, and a cross of long, thin arms.
//! `get`/`set`/`fold` must address exactly the element
//! `read_f64`/`write_f64`/`reduce_f64` address, `Rows` must visit a
//! domain once in `Domain::iter` order, accesses outside the instance —
//! a hole of a bounding-box layout included — must panic in every build
//! profile, and views of one instance must alias the way region
//! arguments do.

use regent_fault::SplitMix64;
use regent_geometry::{Domain, DynPoint, DynRect};
use regent_region::{
    DomainIndexer, FieldId, FieldSpace, FieldType, FieldView, Instance, Read, ReadWrite, Reduce,
    ReductionOp, Rows, Run,
};
use std::collections::HashSet;

fn rect(lo: &[i64], hi: &[i64]) -> DynRect {
    DynRect::new(DynPoint::new(lo), DynPoint::new(hi))
}

/// The cross-shaped halo of the tile `[lo, hi]²`: the tile widened by
/// `r` along each axis in turn, no corners — three rectangles.
fn stencil_halo(lo: i64, hi: i64, r: i64) -> Domain {
    Domain::from_rects([
        rect(&[lo - r, lo], &[hi + r, hi]),
        rect(&[lo, lo - r], &[hi, hi + r]),
    ])
}

/// Every layout, each with the name the failure messages print.
fn layouts() -> Vec<(&'static str, Domain)> {
    let mut rng = SplitMix64::new(0x5eed_0014);
    let sparse = |rng: &mut SplitMix64, span: i64, keep: u64| {
        Domain::from_ids((0..span).filter(|_| rng.next_u64() % 8 < keep))
    };
    let out = vec![
        ("dense 1-D", Domain::from_rect(DynRect::span(-7, 90))),
        ("dense 2-D", Domain::from_rect(rect(&[3, -4], &[19, 11]))),
        (
            "dense 3-D",
            Domain::from_rect(rect(&[0, 2, -1], &[5, 8, 3])),
        ),
        ("sparse 1-D, short runs", sparse(&mut rng, 2000, 3)),
        ("sparse 1-D, long runs", sparse(&mut rng, 2000, 7)),
        // A few ids a long way apart: buckets much wider than runs.
        (
            "sparse 1-D, wide span",
            Domain::from_ids((0..40).map(|k| k * k * 1000 + k % 3)),
        ),
        ("halo 2-D", stencil_halo(16, 31, 2)),
    ];
    assert!(out[3].1.rects().len() > 300, "hundreds of runs");
    assert_eq!(out[6].1.rects().len(), 3, "a cross is three rectangles");
    out
}

fn fields() -> (FieldSpace, FieldId, FieldId, FieldId) {
    let fs = FieldSpace::of(&[
        ("a", FieldType::F64),
        ("b", FieldType::F64),
        ("n", FieldType::I64),
    ]);
    let id = |name| fs.lookup(name).unwrap();
    let ids = (id("a"), id("b"), id("n"));
    (fs, ids.0, ids.1, ids.2)
}

/// The coordinate form of each accessor, chosen by dimensionality, next
/// to the `DynPoint` form: both must agree.
fn get_both<A: regent_region::Readable>(v: &FieldView<'_, f64, A>, p: DynPoint) -> f64 {
    let by_coords = match *p.coords() {
        [i] => v.get1(i),
        [i, j] => v.get2(i, j),
        [i, j, k] => v.get3(i, j, k),
        _ => unreachable!(),
    };
    assert_eq!(by_coords.to_bits(), v.get(p).to_bits(), "{p:?}");
    by_coords
}

fn set_by_coords(v: &FieldView<'_, f64, ReadWrite>, p: DynPoint, x: f64) {
    match *p.coords() {
        [i] => v.set1(i, x),
        [i, j] => v.set2(i, j, x),
        [i, j, k] => v.set3(i, j, k, x),
        _ => unreachable!(),
    }
}

fn fold_by_coords(v: &FieldView<'_, f64, Reduce>, p: DynPoint, x: f64) {
    match *p.coords() {
        [i] => v.fold1(i, x),
        [i, j] => v.fold2(i, j, x),
        [i, j, k] => v.fold3(i, j, k, x),
        _ => unreachable!(),
    }
}

#[test]
fn views_address_the_elements_the_point_methods_address() {
    let (fs, a, b, n) = fields();
    let mut rng = SplitMix64::new(0x5eed_1400);
    for (name, dom) in layouts() {
        // `by_point` is driven through the per-point methods, `by_view`
        // through views, with the same values in the same order.
        let mut by_point = Instance::new(dom.clone(), &fs);
        let mut by_view = Instance::new(dom.clone(), &fs);
        let points: Vec<DynPoint> = dom.iter().collect();
        let raw: *mut Instance = &mut by_view;
        // SAFETY: `by_view` outlives the views and is used through
        // nothing else while they are live; one thread.
        let (va, vb, vn) = unsafe {
            (
                Instance::view_raw::<f64, _>(raw, a, &dom, ReadWrite),
                Instance::view_raw::<f64, _>(raw, b, &dom, Reduce(ReductionOp::Add)),
                Instance::view_raw::<i64, _>(raw, n, &dom, ReadWrite),
            )
        };
        for _ in 0..4 * points.len() {
            let p = points[(rng.next_u64() % points.len() as u64) as usize];
            let x = (rng.next_u64() % 1000) as f64 / 8.0;
            match rng.next_u64() % 4 {
                0 => {
                    by_point.write_f64(a, p, x);
                    set_by_coords(&va, p, x);
                }
                1 => {
                    by_point.write_f64(a, p, x);
                    va.set(p, x);
                }
                2 => {
                    by_point.reduce_f64(b, p, ReductionOp::Add, x);
                    if rng.next_u64().is_multiple_of(2) {
                        fold_by_coords(&vb, p, x);
                    } else {
                        vb.fold(p, x);
                    }
                }
                _ => {
                    by_point.write_i64(n, p, x as i64);
                    vn.set(p, x as i64);
                }
            }
            assert_eq!(get_both(&va, p), by_point.read_f64(a, p), "{name} {p:?}");
            assert_eq!(vn.get(p), by_point.read_i64(n, p), "{name} {p:?}");
        }
        assert_eq!(by_view.checksum(), by_point.checksum(), "{name}");
        // Read-only views of the finished instance see every element.
        let (ra, rb) = (by_view.view::<f64>(a), by_view.view::<f64>(b));
        for &p in &points {
            assert_eq!(get_both(&ra, p), by_point.read_f64(a, p), "{name} {p:?}");
            assert_eq!(get_both(&rb, p), by_point.read_f64(b, p), "{name} {p:?}");
        }
    }
}

#[test]
fn rows_visit_each_element_once_in_canonical_order() {
    let (fs, a, ..) = fields();
    for (name, dom) in layouts() {
        let mut inst = Instance::new(dom.clone(), &fs);
        for (k, p) in dom.iter().enumerate() {
            inst.write_f64(a, p, k as f64);
        }
        let view = inst.view::<f64>(a);
        let mut expected = dom.iter();
        let mut seen = 0u64;
        for run in Rows::new(&dom, inst.indexer()) {
            assert!(run.len > 0, "{name}: empty run");
            let row = view.row(run);
            assert_eq!(row.len(), run.len);
            let last = run.start.dim() - 1;
            for e in 0..run.len {
                let p = expected.next().expect("no more runs than elements");
                let mut c = run.start.padded();
                c[last] += e as i64;
                assert_eq!(p, DynPoint::new(&c[..=last]), "{name}: order");
                assert_eq!(row.get(e), seen as f64, "{name}: row {run:?} element {e}");
                seen += 1;
            }
        }
        assert_eq!(seen, dom.volume(), "{name}: every element exactly once");
    }
}

/// A cross of long, thin arms — a 2×2 tile widened by 16 along each
/// axis — whose bounding box (34², 1 156 slots) is more than 8 times
/// its 132 elements, so its three rectangles are packed one after the
/// other.
fn thin_cross() -> Domain {
    let dom = stencil_halo(0, 1, 16);
    assert_eq!(dom.rects().len(), 3);
    assert!(dom.bounds().volume() > 8 * dom.volume());
    assert_eq!(
        DomainIndexer::new(&dom).storage_len(),
        dom.volume(),
        "packed"
    );
    dom
}

/// Rows of `strip` through a view of an instance over `dom` whose every
/// element holds `100·i + j`: their lengths, each checked element by
/// element against `strip.iter()`.
fn strip_rows(dom: &Domain, strip: &Domain) -> Vec<usize> {
    let (fs, a, ..) = fields();
    let mut inst = Instance::new(dom.clone(), &fs);
    for p in dom.iter() {
        inst.write_f64(a, p, (p.coord(0) * 100 + p.coord(1)) as f64);
    }
    let view = inst.view::<f64>(a);
    let runs: Vec<_> = Rows::new(strip, inst.indexer()).collect();
    let mut expected = strip.iter();
    for &run in &runs {
        let row = view.row(run);
        for e in 0..run.len {
            let p = expected.next().unwrap();
            assert_eq!(row.get(e), (p.coord(0) * 100 + p.coord(1)) as f64);
        }
    }
    assert!(expected.next().is_none());
    runs.iter().map(|r| r.len).collect()
}

#[test]
fn rows_of_a_subregion_split_where_the_instance_does() {
    // The instance is a packed cross; the argument is a strip across
    // its three rectangles, whose rows are contiguous in the strip but
    // not in the instance.
    let strip = Domain::from_rect(rect(&[0, -16], &[1, 17]));
    assert_eq!(
        strip_rows(&thin_cross(), &strip),
        [16, 2, 16, 16, 2, 16],
        "each strip row crosses the left arm, the bar and the right arm"
    );
}

#[test]
fn rows_of_a_subregion_are_whole_in_a_bounding_box_layout() {
    // The same strip across a halo cross laid out over its box: each of
    // its rows is one run of the instance.
    let halo = stencil_halo(16, 31, 2);
    assert_eq!(DomainIndexer::new(&halo).storage_len(), 20 * 20);
    let strip = Domain::from_rect(rect(&[20, 14], &[21, 33]));
    assert_eq!(strip_rows(&halo, &strip), [20, 20]);
}

#[test]
fn aliased_views_of_one_instance() {
    let (fs, a, b, _) = fields();
    let dom = stencil_halo(4, 11, 2);
    let tile = Domain::from_rect(rect(&[4, 4], &[11, 11]));
    let mut inst = Instance::new(dom.clone(), &fs);
    let raw: *mut Instance = &mut inst;
    // SAFETY: `inst` outlives the views; one thread; nothing else
    // touches it while they are live.
    let (w, r, red) = unsafe {
        (
            Instance::view_raw::<f64, _>(raw, a, &tile, ReadWrite),
            Instance::view_raw::<f64, _>(raw, a, &dom, Read),
            Instance::view_raw::<f64, _>(raw, b, &dom, Reduce(ReductionOp::Max)),
        )
    };
    // Write through one view, read the same element through the other,
    // in both directions, with both live.
    w.set2(5, 6, 1.5);
    assert_eq!(r.get2(5, 6), 1.5);
    w.set2(5, 6, r.get2(5, 6) * 2.0);
    assert_eq!(r.get2(5, 6), 3.0);
    // The same through rows of the two views.
    let run = Rows::new(&tile, inst.indexer()).nth(1).unwrap();
    let (wr, rr) = (w.row(run), r.row(run));
    wr.set(2, 7.0);
    assert_eq!(rr.get(2), 7.0);
    assert_eq!(r.get2(run.start.coord(0), run.start.coord(1) + 2), 7.0);
    // RW on one field and Reduce on another of the same elements.
    red.fold2(5, 6, -1.0);
    red.fold2(5, 6, 4.0);
    red.fold2(5, 6, 2.0);
    w.set2(5, 6, 9.0);
    assert_eq!(inst.read_f64(b, DynPoint::new(&[5, 6])), 4.0);
    assert_eq!(inst.read_f64(a, DynPoint::new(&[5, 6])), 9.0);
}

/// Span ÷ element count of the sparse 1-D cases, and whether the
/// indexer lays such a domain out over its span (at most 8 ids of span
/// per element) or packs it.
const RATIOS: [(f64, bool); 6] = [
    (1.1, true),
    (2.0, true),
    (4.0, true),
    (8.0, true),
    (9.0, false),
    (64.0, false),
];

/// A sparse 1-D domain of `n` ids whose span is `ratio · n` ids, not
/// starting at zero: both ends of the span and `n − 2` ids drawn between
/// them without replacement.
fn at_ratio(rng: &mut SplitMix64, n: usize, ratio: f64) -> Domain {
    let span = (n as f64 * ratio).round() as i64;
    let mut inner: Vec<i64> = (1..span - 1).collect();
    for k in 0..n - 2 {
        let j = k + (rng.next_u64() % (inner.len() - k) as u64) as usize;
        inner.swap(k, j);
    }
    let ids = inner[..n - 2].iter().copied().chain([0, span - 1]);
    let dom = Domain::from_ids(ids.map(|i| i - 777));
    assert_eq!(dom.volume(), n as u64);
    dom
}

/// The sparse cases, one per ratio, each checked to have the layout its
/// ratio calls for.
fn sparse_cases() -> Vec<(f64, Domain)> {
    let mut rng = SplitMix64::new(0x5eed_0027);
    RATIOS
        .iter()
        .map(|&(ratio, spanned)| {
            let dom = at_ratio(&mut rng, 300, ratio);
            let span = (dom.bounds().volume(), dom.volume());
            let ix = DomainIndexer::new(&dom);
            assert!(dom.rects().len() > 20, "{ratio}: several runs");
            assert_eq!(ix.len(), dom.volume(), "{ratio}");
            let want = if spanned { span.0 } else { span.1 };
            assert_eq!(ix.storage_len(), want, "{ratio}: layout");
            (ratio, dom)
        })
        .collect()
}

#[test]
fn sparse_layouts_address_what_the_point_methods_address() {
    let (fs, a, b, n) = fields();
    let mut rng = SplitMix64::new(0x5eed_2700);
    for (ratio, dom) in sparse_cases() {
        let mut by_point = Instance::new(dom.clone(), &fs);
        let mut by_view = Instance::new(dom.clone(), &fs);
        assert_eq!(by_view.len(), dom.volume(), "{ratio}: len counts elements");
        let ids: Vec<i64> = dom.iter().map(|p| p.coord(0)).collect();
        let raw: *mut Instance = &mut by_view;
        // SAFETY: `by_view` outlives the views and is used through
        // nothing else while they are live; one thread.
        let (va, vb, vn) = unsafe {
            (
                Instance::view_raw::<f64, _>(raw, a, &dom, ReadWrite),
                Instance::view_raw::<f64, _>(raw, b, &dom, Reduce(ReductionOp::Add)),
                Instance::view_raw::<i64, _>(raw, n, &dom, ReadWrite),
            )
        };
        for _ in 0..8 * ids.len() {
            let i = ids[(rng.next_u64() % ids.len() as u64) as usize];
            let p = DynPoint::from(i);
            let x = (rng.next_u64() % 1000) as f64 / 8.0;
            match rng.next_u64() % 3 {
                0 => {
                    by_point.write_f64(a, p, x);
                    va.set1(i, x);
                }
                1 => {
                    by_point.reduce_f64(b, p, ReductionOp::Add, x);
                    vb.fold1(i, x);
                }
                _ => {
                    by_point.write_i64(n, p, x as i64);
                    vn.set1(i, x as i64);
                }
            }
            assert_eq!(va.get1(i), by_point.read_f64(a, p), "{ratio}: {i}");
            assert_eq!(vn.get1(i), by_point.read_i64(n, p), "{ratio}: {i}");
        }
        assert_eq!(by_view.checksum(), by_point.checksum(), "{ratio}");
        let rb = by_view.view::<f64>(b);
        for &i in &ids {
            assert_eq!(
                rb.get1(i),
                by_point.read_f64(b, DynPoint::from(i)),
                "{ratio}"
            );
        }
    }
}

#[test]
fn sparse_offsets_are_distinct_and_only_on_members() {
    let mut rng = SplitMix64::new(0x5eed_2701);
    for (ratio, dom) in sparse_cases() {
        let ix = DomainIndexer::new(&dom);
        let bounds = dom.bounds();
        let (lo, hi) = (bounds.lo().coord(0), bounds.hi().coord(0));
        let mut seen = HashSet::new();
        for i in lo - 70..=hi + 70 {
            let off = ix.offset_of(DynPoint::from(i));
            assert_eq!(
                off.is_some(),
                dom.contains(DynPoint::from(i)),
                "{ratio}: {i}"
            );
            if let Some(off) = off {
                assert!(off < ix.storage_len(), "{ratio}: {i} at {off}");
                assert!(seen.insert(off), "{ratio}: {i} shares offset {off}");
            }
        }
        assert_eq!(seen.len() as u64, dom.volume(), "{ratio}");
        // The run-wise walks against `offset_of`, over the whole domain
        // and over a random subset of it.
        let subset = Domain::from_ids(
            dom.iter()
                .map(|p| p.coord(0))
                .filter(|_| rng.next_u64().is_multiple_of(2)),
        );
        for elements in [&dom, &subset] {
            let per_point: Vec<u32> = elements
                .iter()
                .map(|p| ix.offset_of(p).unwrap() as u32)
                .collect();
            assert_eq!(ix.offsets_of(elements), per_point, "{ratio}");
            let mut walked = Vec::new();
            ix.for_each_run(elements, |off, len| {
                assert!(len > 0, "{ratio}: empty run");
                walked.extend(off as u32..(off + len) as u32);
            });
            assert_eq!(walked, per_point, "{ratio}");
        }
        assert!(subset.volume() > 50 && subset.volume() < dom.volume());
    }
}

#[test]
fn sparse_rows_split_at_every_hole() {
    let (fs, a, ..) = fields();
    for (ratio, dom) in sparse_cases() {
        let mut inst = Instance::new(dom.clone(), &fs);
        for (k, p) in dom.iter().enumerate() {
            inst.write_f64(a, p, k as f64);
        }
        // The domain's runs are maximal, so each is bounded by holes (or
        // the span's ends): rows are exactly the runs.
        let rows: Vec<Run> = Rows::new(&dom, inst.indexer()).collect();
        let runs: Vec<Run> = dom
            .rects()
            .iter()
            .map(|r| Run {
                start: r.lo(),
                len: r.volume() as usize,
            })
            .collect();
        assert_eq!(rows, runs, "{ratio}");
        let view = inst.view::<f64>(a);
        let mut k = 0.0;
        for run in rows {
            let row = view.row(run);
            for e in 0..run.len {
                assert_eq!(row.get(e), k, "{ratio}: {run:?}");
                k += 1.0;
            }
        }
    }
}

// Outside the instance: a panic in every build profile, from every
// layout's lookup.

#[test]
#[should_panic(expected = "outside instance domain")]
fn dense_access_outside_the_instance_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(Domain::from_rect(rect(&[0, 0], &[7, 7])), &fs);
    // Column 8 of row 3 would alias (4, 0) if only the offset were checked.
    inst.view::<f64>(a).get2(3, 8);
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn sparse_access_in_a_gap_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(Domain::from_ids([1, 2, 3, 7, 8, 40]), &fs);
    inst.view::<f64>(a).get1(5);
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn sparse_access_before_the_first_run_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(Domain::from_ids([1, 2, 3, 7, 8, 40]), &fs);
    inst.view::<f64>(a).get1(0);
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn halo_corner_access_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(stencil_halo(16, 31, 2), &fs);
    // Inside the bounding box, in none of the three rectangles.
    inst.view::<f64>(a).get2(15, 15);
}

/// 6 ids over a span of 10, laid out over the span: 3, 4, 7 and 8 are
/// storage slots that hold no element.
fn with_holes() -> Instance {
    let (fs, ..) = fields();
    let inst = Instance::new(Domain::from_ids([0, 1, 2, 5, 6, 9]), &fs);
    assert_eq!((inst.len(), inst.indexer().storage_len()), (6, 10));
    inst
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn span_layout_get_in_a_hole_panics() {
    let (_, a, ..) = fields();
    with_holes().view::<f64>(a).get1(3);
}

#[test]
#[should_panic(expected = "not contiguous")]
fn span_layout_row_across_a_hole_panics() {
    let (_, a, ..) = fields();
    let run = Run {
        start: DynPoint::from(1),
        len: 3,
    };
    with_holes().view::<f64>(a).row(run);
}

#[test]
#[should_panic(expected = "outside the indexed domain")]
fn span_layout_for_each_run_over_a_hole_panics() {
    let inst = with_holes();
    inst.indexer()
        .for_each_run(&Domain::from_ids([5, 6, 7]), |_, _| {});
}

#[test]
#[should_panic(expected = "2-D access to a 1-D region")]
fn wrong_dimensionality_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(Domain::range(8), &fs);
    inst.view::<f64>(a).get2(0, 0);
}

#[test]
#[should_panic(expected = "not contiguous")]
fn a_row_across_rectangles_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(thin_cross(), &fs);
    let run = Run {
        start: DynPoint::new(&[0, -16]),
        len: 34,
    };
    inst.view::<f64>(a).row(run);
}

#[test]
#[should_panic(expected = "not contiguous")]
fn a_row_into_a_corner_hole_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(stencil_halo(16, 31, 2), &fs);
    // Row 14 is the upper arm, columns 16..=31; column 32 is a corner.
    inst.view::<f64>(a).row2(14, 16, 17);
}

#[test]
#[should_panic(expected = "is not I64")]
fn a_view_of_the_wrong_type_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(Domain::range(8), &fs);
    inst.view::<i64>(a);
}

// Inside the instance but outside the domain the view was bound to:
// the per-element check of debug builds.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "outside the domain")]
fn access_outside_the_bound_domain_panics_in_debug_builds() {
    let (fs, a, ..) = fields();
    let mut inst = Instance::new(Domain::range(16), &fs);
    let sub = Domain::from_ids(4..8);
    // SAFETY: `inst` outlives the view and nothing else uses it.
    let v = unsafe { Instance::view_raw::<f64, _>(&mut inst, a, &sub, Read) };
    v.get1(9);
}

/// A cross-shaped halo as Stencil builds one: the tile `[lo, hi]`
/// widened by `r` along each axis in turn, no corners, clipped to the
/// grid `[0, n)` in every dimension.
fn clipped_cross(lo: &[i64], hi: &[i64], r: i64, n: i64) -> Domain {
    let dim = lo.len();
    let grid = rect(&vec![0; dim], &vec![n - 1; dim]);
    Domain::from_rects((0..dim).map(|d| {
        let (mut a, mut b) = (lo.to_vec(), hi.to_vec());
        a[d] -= r;
        b[d] += r;
        rect(&a, &b).intersection(&grid)
    }))
}

/// 2-D crosses of radius 1–3 around a tile inside a 24² grid, on its
/// edges and in two of its corners, and one 3-D cross; each is checked
/// to be laid out over its bounding box.
fn crosses() -> Vec<(String, Domain)> {
    let mut out = Vec::new();
    for r in 1..=3 {
        for (place, lo, hi) in [
            ("interior", [8, 8], [15, 15]),
            ("top edge", [0, 8], [7, 15]),
            ("right edge", [8, 16], [15, 23]),
            ("corner", [16, 16], [23, 23]),
            ("origin corner", [0, 0], [4, 6]),
        ] {
            out.push((format!("r{r} {place}"), clipped_cross(&lo, &hi, r, 24)));
        }
    }
    out.push((
        "3-D r2".into(),
        clipped_cross(&[2, 2, 2], &[5, 5, 5], 2, 10),
    ));
    for (name, dom) in &out {
        let ix = DomainIndexer::new(dom);
        assert!(dom.rects().len() > 1, "{name}");
        assert_eq!(ix.len(), dom.volume(), "{name}");
        assert_eq!(ix.storage_len(), dom.bounds().volume(), "{name}: box");
        assert!(ix.storage_len() > ix.len(), "{name}: holes");
    }
    out
}

/// `dom`'s bounding box grown by one in every direction.
fn around(dom: &Domain) -> Domain {
    let b = dom.bounds();
    let (lo, hi) = (b.lo(), b.hi());
    let lo: Vec<i64> = lo.coords().iter().map(|c| c - 1).collect();
    let hi: Vec<i64> = hi.coords().iter().map(|c| c + 1).collect();
    Domain::from_rect(rect(&lo, &hi))
}

#[test]
fn crosses_index_what_per_point_lookups_index() {
    let (fs, a, ..) = fields();
    let mut rng = SplitMix64::new(0x5eed_3300);
    for (name, dom) in crosses() {
        let mut inst = Instance::new(dom.clone(), &fs);
        for (k, p) in dom.iter().enumerate() {
            inst.write_f64(a, p, k as f64);
        }
        let ix = inst.indexer();
        let mut seen = HashSet::new();
        for p in around(&dom).iter() {
            let off = ix.offset_of(p);
            assert_eq!(off.is_some(), dom.contains(p), "{name}: {p:?}");
            if let Some(off) = off {
                assert!(off < ix.storage_len(), "{name}: {p:?} at {off}");
                assert!(seen.insert(off), "{name}: {p:?} shares offset {off}");
            }
        }
        assert_eq!(seen.len() as u64, dom.volume(), "{name}");
        // The whole cross, its widest rectangle, and a random subset.
        let widest = *dom.rects().iter().max_by_key(|r| r.volume()).unwrap();
        let subset = Domain::from_rects(
            dom.iter()
                .filter(|_| rng.next_u64().is_multiple_of(3))
                .map(|p| DynRect::new(p, p)),
        );
        let view = inst.view::<f64>(a);
        for elements in [&dom, &Domain::from_rect(widest), &subset] {
            let per_point: Vec<u32> = elements
                .iter()
                .map(|p| ix.offset_of(p).unwrap() as u32)
                .collect();
            assert_eq!(ix.offsets_of(elements), per_point, "{name}");
            let mut walked = Vec::new();
            ix.for_each_run(elements, |off, len| {
                assert!(len > 0, "{name}: empty run");
                walked.extend(off as u32..(off + len) as u32);
            });
            assert_eq!(walked, per_point, "{name}");
            // Rows, and the row of each, against the point lookups.
            let mut points = elements.iter();
            for run in Rows::new(elements, ix) {
                let row = view.row(run);
                let by_coords = match *run.start.coords() {
                    [i, j] => Some(view.row2(i, j, run.len)),
                    _ => None,
                };
                for e in 0..run.len {
                    let p = points.next().expect("no more runs than elements");
                    let want = inst.read_f64(a, p);
                    assert_eq!(row.get(e), want, "{name}: {run:?} element {e}");
                    if let Some(r2) = by_coords {
                        assert_eq!(r2.get(e), want, "{name}: row2 of {run:?}");
                    }
                }
            }
            assert!(points.next().is_none(), "{name}: every element");
        }
        assert!(subset.volume() > 10 && subset.volume() < dom.volume());
    }
}

#[test]
fn cross_views_address_what_the_point_methods_address() {
    let (fs, a, b, n) = fields();
    let mut rng = SplitMix64::new(0x5eed_3301);
    for (name, dom) in crosses() {
        let mut by_point = Instance::new(dom.clone(), &fs);
        let mut by_view = Instance::new(dom.clone(), &fs);
        let points: Vec<DynPoint> = dom.iter().collect();
        let raw: *mut Instance = &mut by_view;
        // SAFETY: `by_view` outlives the views and is used through
        // nothing else while they are live; one thread.
        let (va, vb, vn) = unsafe {
            (
                Instance::view_raw::<f64, _>(raw, a, &dom, ReadWrite),
                Instance::view_raw::<f64, _>(raw, b, &dom, Reduce(ReductionOp::Add)),
                Instance::view_raw::<i64, _>(raw, n, &dom, ReadWrite),
            )
        };
        for _ in 0..4 * points.len() {
            let p = points[(rng.next_u64() % points.len() as u64) as usize];
            let x = (rng.next_u64() % 1000) as f64 / 8.0;
            match rng.next_u64() % 3 {
                0 => {
                    by_point.write_f64(a, p, x);
                    set_by_coords(&va, p, x);
                }
                1 => {
                    by_point.reduce_f64(b, p, ReductionOp::Add, x);
                    fold_by_coords(&vb, p, x);
                }
                _ => {
                    by_point.write_i64(n, p, x as i64);
                    vn.set(p, x as i64);
                }
            }
            assert_eq!(get_both(&va, p), by_point.read_f64(a, p), "{name} {p:?}");
            assert_eq!(vn.get(p), by_point.read_i64(n, p), "{name} {p:?}");
        }
        assert_eq!(by_view.checksum(), by_point.checksum(), "{name}");
        let rb = by_view.view::<f64>(b);
        for &p in &points {
            assert_eq!(get_both(&rb, p), by_point.read_f64(b, p), "{name} {p:?}");
        }
    }
}

// A corner of a cross lies in its bounding box and holds no element:
// a panic in every build profile, through every accessor.

/// The radius-1 cross of the tile `[8, 15]²`, laid out over `[7, 16]²`.
fn cross_with_corners() -> Instance {
    let (fs, ..) = fields();
    let inst = Instance::new(clipped_cross(&[8, 8], &[15, 15], 1, 24), &fs);
    assert_eq!((inst.len(), inst.indexer().storage_len()), (96, 100));
    inst
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn cross_corner_get2_panics() {
    let (_, a, ..) = fields();
    cross_with_corners().view::<f64>(a).get2(7, 7);
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn cross_corner_set2_panics() {
    let (_, a, ..) = fields();
    let mut inst = cross_with_corners();
    let dom = inst.domain().clone();
    // SAFETY: `inst` outlives the view and nothing else uses it.
    let v = unsafe { Instance::view_raw::<f64, _>(&mut inst, a, &dom, ReadWrite) };
    v.set2(16, 16, 1.0);
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn cross_corner_fold2_panics() {
    let (_, _, b, _) = fields();
    let mut inst = cross_with_corners();
    let dom = inst.domain().clone();
    // SAFETY: `inst` outlives the view and nothing else uses it.
    let v = unsafe { Instance::view_raw::<f64, _>(&mut inst, b, &dom, Reduce(ReductionOp::Add)) };
    v.fold2(7, 16, 1.0);
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn cross_3d_corner_get3_panics() {
    let (fs, a, ..) = fields();
    let inst = Instance::new(clipped_cross(&[2, 2, 2], &[5, 5, 5], 2, 10), &fs);
    // Inside the box [0, 7]³, outside the tile in two dimensions.
    inst.view::<f64>(a).get3(0, 0, 3);
}

#[test]
#[should_panic(expected = "outside instance domain")]
fn cross_corner_row_panics() {
    let (_, a, ..) = fields();
    cross_with_corners().view::<f64>(a).row2(16, 7, 1);
}

#[test]
#[should_panic(expected = "outside the indexed domain")]
fn cross_corner_for_each_run_panics() {
    let inst = cross_with_corners();
    // Row 7 from the upper arm (columns 8..=15) into the corner at 16.
    let elements = Domain::from_rect(rect(&[7, 14], &[7, 16]));
    inst.indexer().for_each_run(&elements, |_, _| {});
}
