//! `RegionForest::aliases` against the pairwise verdict it replaces —
//! "not provably disjoint, and the domains overlap" asked of every
//! region pair — and the allocation-free `provably_disjoint` against the
//! two-path comparison it replaces, on seeded random forests (two roots,
//! nested disjoint and aliased partitions, empty subregions) and on the
//! forests of the four evaluation apps.

use regent_apps::rng::SplitMix64;
use regent_apps::{circuit, miniaero, pennant, stencil};
use regent_geometry::{Domain, DynPoint, DynRect};
use regent_region::{Color, Disjointness, FieldSpace, PartitionId, RegionForest, RegionId};

/// The links from `r` up to its root, nearest first.
fn ancestry(f: &RegionForest, mut r: RegionId) -> Vec<(PartitionId, Color, RegionId)> {
    let mut out = Vec::new();
    while let Some((p, c)) = f.region(r).parent {
        out.push((p, c, r));
        r = f.partition(p).parent;
    }
    out
}

/// The static disjointness test as two root-down paths compared to
/// their first divergence: the reference the climbing version must
/// agree with.
fn disjoint_by_paths(f: &RegionForest, a: RegionId, b: RegionId) -> bool {
    if a == b {
        return false;
    }
    if f.root_of(a) != f.root_of(b) {
        return true;
    }
    let mut pa = ancestry(f, a);
    let mut pb = ancestry(f, b);
    pa.reverse();
    pb.reverse();
    let mut i = 0;
    while i < pa.len() && i < pb.len() && pa[i].2 == pb[i].2 {
        i += 1;
    }
    if i >= pa.len() || i >= pb.len() {
        return false;
    }
    let ((p1, c1, _), (p2, c2, _)) = (pa[i], pb[i]);
    p1 == p2 && c1 != c2 && f.partition(p1).disjointness == Disjointness::Disjoint
}

fn may_alias(f: &RegionForest, a: RegionId, b: RegionId) -> bool {
    !disjoint_by_paths(f, a, b) && f.domain(a).overlaps(f.domain(b))
}

fn regions(f: &RegionForest) -> impl Iterator<Item = RegionId> {
    (0..f.num_regions() as u32).map(RegionId)
}

/// Checks `aliases(r)` against the pairwise verdict for every region.
fn check_aliases(label: &str, f: &RegionForest) {
    for r in regions(f) {
        let want: Vec<RegionId> = regions(f).filter(|&s| may_alias(f, r, s)).collect();
        assert_eq!(f.aliases(r), want.as_slice(), "{label}: aliases of {r:?}");
    }
}

/// A child domain of `parent` for a partition of the given kind.
/// Disjoint partitions deal the parent's elements out (some to no
/// child), either in contiguous runs or scattered; aliased ones take
/// random spans that may reach past the parent (the forest clips them).
/// Either kind sometimes gets an empty child.
fn random_children(rng: &mut SplitMix64, parent: &Domain, disjoint: bool, k: usize) -> Vec<Domain> {
    let ids: Vec<i64> = parent.iter().map(|p| p.coord(0)).collect();
    let mut children = if disjoint {
        let mut parts = vec![Vec::new(); k];
        if rng.gen_bool(0.5) {
            // Contiguous: child `c` takes the ids between cuts `c` and `c + 1`.
            let mut cuts: Vec<usize> = (0..=k)
                .map(|_| rng.gen_range(ids.len() as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            for (c, part) in parts.iter_mut().enumerate() {
                part.extend_from_slice(&ids[cuts[c]..cuts[c + 1]]);
            }
        } else {
            for &id in &ids {
                let c = rng.gen_range(k as u64 + 1) as usize;
                if c < k {
                    parts[c].push(id);
                }
            }
        }
        parts.into_iter().map(Domain::from_ids).collect()
    } else {
        (0..k)
            .map(|_| {
                if ids.is_empty() {
                    return Domain::empty(1);
                }
                let lo = ids[rng.gen_range(ids.len() as u64) as usize] - 2;
                let hi = lo + rng.gen_range(14) as i64;
                Domain::from_rect(DynRect::span(lo, hi))
            })
            .collect::<Vec<_>>()
    };
    if rng.gen_range(4) == 0 {
        children.push(Domain::empty(1));
    }
    children
}

fn random_partition(f: &mut RegionForest, rng: &mut SplitMix64) -> PartitionId {
    let parent = RegionId(rng.gen_range(f.num_regions() as u64) as u32);
    let disjoint = rng.gen_bool(0.5);
    let k = 1 + rng.gen_range(4) as usize;
    let children = random_children(rng, &f.domain(parent).clone(), disjoint, k);
    let kind = if disjoint {
        Disjointness::Disjoint
    } else {
        Disjointness::Aliased
    };
    let colored = children
        .into_iter()
        .enumerate()
        .map(|(c, d)| (DynPoint::from(c as i64), d))
        .collect();
    f.create_partition(parent, kind, colored)
}

/// Two roots, then partitions of randomly chosen regions — so some nest
/// several levels deep and some regions carry more than one partition.
fn random_forest(seed: u64) -> (RegionForest, SplitMix64) {
    let mut rng = SplitMix64::new(seed);
    let mut f = RegionForest::new();
    for _ in 0..2 {
        let n = 16 + rng.gen_range(48);
        f.create_region(Domain::range(n), FieldSpace::new());
    }
    for _ in 0..4 + rng.gen_range(8) {
        random_partition(&mut f, &mut rng);
    }
    (f, rng)
}

const SEEDS: u64 = 60;

#[test]
fn provably_disjoint_matches_the_path_comparison() {
    let (mut pairs, mut proven) = (0, 0);
    for seed in 0..SEEDS {
        let (f, _) = random_forest(0xA11A5 + seed);
        for a in regions(&f) {
            for b in regions(&f) {
                let want = disjoint_by_paths(&f, a, b);
                assert_eq!(
                    f.provably_disjoint(a, b),
                    want,
                    "seed {seed}: {a:?} vs {b:?}"
                );
                pairs += 1;
                proven += want as u32;
            }
        }
    }
    // The forests exercise both answers, not just one.
    assert!(
        proven > 0 && proven < pairs,
        "{proven} of {pairs} pairs proven"
    );
}

#[test]
fn aliases_are_the_pairwise_verdict_in_random_forests() {
    let mut grew = 0;
    for seed in 0..SEEDS {
        let (mut f, mut rng) = random_forest(0xA11A5 + seed);
        let label = format!("seed {seed}");
        check_aliases(&label, &f);
        let before: Vec<usize> = regions(&f).map(|r| f.aliases(r).len()).collect();

        // A partition created after the lists were filled must show up
        // in them: the memo was emptied.
        random_partition(&mut f, &mut rng);
        check_aliases(&format!("{label}, after a later partition"), &f);
        grew += regions(&f)
            .zip(&before)
            .filter(|&(r, &n)| f.aliases(r).len() > n)
            .count();

        // A clone answers the same, from the lists it carried and from
        // an empty memo alike.
        let carried = f.clone();
        check_aliases(&format!("{label}, clone"), &carried);
        let mut fresh = f.clone();
        fresh.create_region(Domain::range(4), FieldSpace::new());
        check_aliases(&format!("{label}, clone with another root"), &fresh);
    }
    assert!(grew > 0, "no later partition changed an existing list");
}

#[test]
fn aliases_are_the_pairwise_verdict_in_the_apps() {
    let stencil = stencil::stencil_program(stencil::StencilConfig {
        n: 40,
        ntx: 4,
        nty: 4,
        radius: 2,
        steps: 1,
    })
    .0;
    let circuit = {
        let cfg = circuit::CircuitConfig {
            pieces: 8,
            nodes_per_piece: 30,
            wires_per_piece: 90,
            cross_fraction: 0.2,
            steps: 1,
            substeps: 1,
            seed: 42,
        };
        let g = circuit::generate_graph(&cfg);
        circuit::circuit_program(cfg, &g).0
    };
    let miniaero = {
        let cfg = miniaero::MiniAeroConfig {
            nx: 16,
            ny: 4,
            nz: 3,
            pieces: 8,
            steps: 1,
            dt: 5e-4,
        };
        let mesh = miniaero::build_mesh(&cfg);
        miniaero::miniaero_program(cfg, &mesh).0
    };
    let pennant = {
        let cfg = pennant::PennantConfig {
            nzx: 12,
            nzy: 6,
            pieces: 6,
            tstop: 2e-2,
            dtmax: 2e-2,
        };
        let mesh = pennant::build_mesh(&cfg);
        pennant::pennant_program(cfg, &mesh).0
    };
    for (label, prog) in [
        ("stencil", stencil),
        ("circuit", circuit),
        ("miniaero", miniaero),
        ("pennant", pennant),
    ] {
        let f = &prog.forest;
        check_aliases(label, f);
        for a in regions(f) {
            for b in regions(f) {
                assert_eq!(
                    f.provably_disjoint(a, b),
                    disjoint_by_paths(f, a, b),
                    "{label}: {a:?} vs {b:?}"
                );
            }
        }
    }
}
