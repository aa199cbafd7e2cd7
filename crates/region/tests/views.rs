//! Field views against the per-point `Instance` methods they replace in
//! kernels, on seeded inputs of every layout the indexer specializes:
//! dense 1-/2-/3-D (one rectangle, pure arithmetic), sparse 1-D with
//! hundreds of runs (the bucketed run search), and the multi-rectangle
//! 2-D cross of a Stencil halo. `get`/`set`/`fold` must address exactly
//! the element `read_f64`/`write_f64`/`reduce_f64` address, `Rows` must
//! visit a domain once in `Domain::iter` order, accesses outside the
//! instance must panic in every build profile, and views of one
//! instance must alias the way region arguments do.

use regent_geometry::{Domain, DynPoint, DynRect};
use regent_region::{
    FieldId, FieldSpace, FieldType, FieldView, Instance, Read, ReadWrite, Reduce, ReductionOp, Rows,
};

/// SplitMix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

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
    let mut rng = 0x5eed_0014u64;
    let sparse = |rng: &mut u64, span: i64, keep: u64| {
        Domain::from_ids((0..span).filter(|_| next(rng) % 8 < keep))
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
    let mut rng = 0x5eed_1400u64;
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
            let p = points[(next(&mut rng) % points.len() as u64) as usize];
            let x = (next(&mut rng) % 1000) as f64 / 8.0;
            match next(&mut rng) % 4 {
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
                    if next(&mut rng).is_multiple_of(2) {
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

#[test]
fn rows_of_a_subregion_split_where_the_instance_does() {
    // The instance is the halo cross; the argument is a strip across
    // its three rectangles, whose rows are contiguous in the strip but
    // not in the instance.
    let (fs, a, ..) = fields();
    let halo = stencil_halo(16, 31, 2);
    let strip = Domain::from_rect(rect(&[20, 14], &[21, 33]));
    let mut inst = Instance::new(halo.clone(), &fs);
    for p in halo.iter() {
        inst.write_f64(a, p, (p.coord(0) * 100 + p.coord(1)) as f64);
    }
    let view = inst.view::<f64>(a);
    let runs: Vec<_> = Rows::new(&strip, inst.indexer()).collect();
    assert_eq!(
        runs.iter().map(|r| r.len).collect::<Vec<_>>(),
        [2, 16, 2, 2, 16, 2],
        "each strip row crosses the left arm, the bar and the right arm"
    );
    let mut expected = strip.iter();
    for run in runs {
        let row = view.row(run);
        for e in 0..run.len {
            let p = expected.next().unwrap();
            assert_eq!(row.get(e), (p.coord(0) * 100 + p.coord(1)) as f64);
        }
    }
    assert!(expected.next().is_none());
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
    let inst = Instance::new(stencil_halo(16, 31, 2), &fs);
    let run = regent_region::Run {
        start: DynPoint::new(&[20, 14]),
        len: 20,
    };
    inst.view::<f64>(a).row(run);
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
