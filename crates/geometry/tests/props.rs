//! Property-based tests for the geometric set algebra.
//!
//! The copy intersection optimization (§3.3) and the data-replication
//! correctness argument (§3.1) both lean on this algebra being exact, so
//! we check the set-theoretic laws against a brute-force model built from
//! `HashSet<point>`. Cases come from the seeded runner in
//! `tests/support/prop.rs`; a failure names its seed.

#[path = "../../../tests/support/prop.rs"]
mod prop;

use prop::Gen;
use regent_geometry::{Domain, DynPoint, DynRect};
use std::collections::HashSet;

/// Cases drawn per property.
const CASES: u64 = 256;

/// Seeds of past failures, replayed by every property first.
const REGRESSIONS: &[u64] = &[];

/// Brute-force model of a domain: the explicit point set.
fn model(d: &Domain) -> HashSet<Vec<i64>> {
    d.iter().map(|p| p.coords().to_vec()).collect()
}

fn rect_1d(g: &mut Gen) -> DynRect {
    let lo = g.range(-20i64..20);
    DynRect::span(lo, lo + g.range(0i64..12))
}

fn rect_2d(g: &mut Gen) -> DynRect {
    let (x, w, y, h) = (
        g.range(-8i64..8),
        g.range(0i64..5),
        g.range(-8i64..8),
        g.range(0i64..5),
    );
    DynRect::new(DynPoint::new(&[x, y]), DynPoint::new(&[x + w, y + h]))
}

fn domain_1d(g: &mut Gen) -> Domain {
    Domain::from_rects(g.vec(0..5, rect_1d))
}

fn domain_2d(g: &mut Gen) -> Domain {
    Domain::from_rects(g.vec(1..4, rect_2d))
}

/// Checks the internal invariants of the normalized representation.
fn check_invariants(d: &Domain) {
    for (i, a) in d.rects().iter().enumerate() {
        assert!(!a.is_empty(), "normalized domain contains empty rect");
        for b in &d.rects()[i + 1..] {
            assert!(!a.overlaps(b), "normalized domain has overlapping rects");
        }
    }
    let total: u64 = d.rects().iter().map(DynRect::volume).sum();
    assert_eq!(total, d.volume());
}

macro_rules! algebra_props {
    ($name:ident, $gen:expr) => {
        mod $name {
            use super::*;

            /// Checks `law` on pairs of domains of one dimension.
            fn pairs(law: &str, f: impl Fn(&Domain, &Domain)) {
                let name = format!("{}::{law}", stringify!($name));
                prop::check(
                    &name,
                    CASES,
                    REGRESSIONS,
                    |g| ($gen(g), $gen(g)),
                    |(a, b)| {
                        if a.dim() == b.dim() {
                            f(a, b)
                        }
                    },
                );
            }

            #[test]
            fn union_matches_model() {
                pairs("union_matches_model", |a, b| {
                    let u = a.union(b);
                    check_invariants(&u);
                    let mut m = model(a);
                    m.extend(model(b));
                    assert_eq!(model(&u), m);
                });
            }

            #[test]
            fn intersect_matches_model() {
                pairs("intersect_matches_model", |a, b| {
                    let i = a.intersect(b);
                    check_invariants(&i);
                    let m: HashSet<_> = model(a).intersection(&model(b)).cloned().collect();
                    assert_eq!(model(&i), m);
                    assert_eq!(a.overlaps(b), !i.is_empty());
                });
            }

            #[test]
            fn subtract_matches_model() {
                pairs("subtract_matches_model", |a, b| {
                    let s = a.subtract(b);
                    check_invariants(&s);
                    let m: HashSet<_> = model(a).difference(&model(b)).cloned().collect();
                    assert_eq!(model(&s), m);
                });
            }

            #[test]
            fn partition_identity() {
                // (a ∩ b) ∪ (a \ b) == a, and the two parts are disjoint.
                pairs("partition_identity", |a, b| {
                    let i = a.intersect(b);
                    let s = a.subtract(b);
                    assert!(!i.overlaps(&s));
                    assert!(i.union(&s).set_eq(a));
                    assert_eq!(i.volume() + s.volume(), a.volume());
                });
            }
        }
    };
}

algebra_props!(one_dim, domain_1d);
algebra_props!(two_dim, domain_2d);

#[test]
fn from_ids_is_exact() {
    prop::check(
        "from_ids_is_exact",
        CASES,
        REGRESSIONS,
        |g| g.vec(0..40, |g| g.range(-50i64..50)),
        |ids| {
            let d = Domain::from_ids(ids.iter().copied());
            check_invariants(&d);
            let expect: HashSet<i64> = ids.iter().copied().collect();
            let got: HashSet<i64> = d.iter().map(|p| p.coord(0)).collect();
            assert_eq!(got, expect);
        },
    );
}

#[test]
fn block_split_tiles() {
    prop::check(
        "block_split_tiles",
        CASES,
        REGRESSIONS,
        |g| {
            (
                g.range(-100i64..100),
                g.range(1u64..200),
                g.range(1usize..10),
            )
        },
        |&(lo, len, parts)| {
            let r = DynRect::span(lo, lo + len as i64 - 1);
            let blocks = r.block_split(parts, 0);
            assert_eq!(blocks.len(), parts);
            // Tiles are disjoint, ordered, and cover r exactly.
            let total: u64 = blocks.iter().map(DynRect::volume).sum();
            assert_eq!(total, r.volume());
            let union = Domain::from_rects(blocks.iter().copied());
            assert!(union.set_eq(&Domain::from_rect(r)));
            // Balanced: sizes differ by at most 1.
            let sizes: Vec<u64> = blocks.iter().map(DynRect::volume).collect();
            let mx = *sizes.iter().max().unwrap();
            let mn = *sizes.iter().min().unwrap();
            assert!(mx - mn <= 1);
        },
    );
}

#[test]
fn rect_subtract_exact() {
    prop::check(
        "rect_subtract_exact",
        CASES,
        REGRESSIONS,
        |g| (rect_2d(g), rect_2d(g)),
        |(a, b)| {
            let parts = a.subtract(b);
            // Disjoint, inside a, outside b, and complete.
            let mut vol = 0;
            for (i, p) in parts.iter().enumerate() {
                assert!(a.contains_rect(p));
                assert!(!p.overlaps(b));
                for q in &parts[i + 1..] {
                    assert!(!p.overlaps(q));
                }
                vol += p.volume();
            }
            assert_eq!(vol, a.volume() - a.intersection(b).volume());
        },
    );
}

#[test]
fn linearize_bijective() {
    prop::check("linearize_bijective", CASES, REGRESSIONS, rect_2d, |a| {
        let mut seen = HashSet::new();
        for p in a.iter() {
            let i = a.linearize(p).unwrap();
            assert!(i < a.volume());
            assert!(seen.insert(i));
            assert_eq!(a.delinearize(i), Some(p));
        }
    });
}
