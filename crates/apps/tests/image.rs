//! Shard images (a compiled program keeps its shards' instances between
//! runs) on the evaluation applications: whatever a run leaves in the
//! image — results, seals, an injected and repaired bit flip, a larger
//! membership — the next run of the same program must not see. Every
//! check is against runs of freshly compiled programs, bit for bit.
//! Circuit's ghost sets and Stencil's halos, at the sizes the benchmark
//! runs, are checked for the layout their instances get: over their
//! bounding box, holes included.

mod common;

use common::{
    assert_unwritten_columns_sealed, compare_roots, forest, mk_circuit, mk_miniaero, mk_pennant,
    mk_stencil, num_shards, replicated, Owned, Strategy,
};
use regent_apps::{circuit, stencil};
use regent_cr::{InstKey, ShardImage};
use regent_fault::SplitMix64;
use regent_ir::{interp, Program, Store};
use regent_region::{ColumnData, FieldType, Instance, RegionForest};
use regent_runtime::{
    run, run_failover, FailoverOptions, FaultPlan, ResilienceOptions, RunOptions,
};
use std::collections::HashSet;

type Mk = fn() -> (Program, Store);

fn apps() -> [(&'static str, Mk); 4] {
    [
        ("stencil", mk_stencil),
        ("circuit", mk_circuit),
        ("miniaero", mk_miniaero),
        ("pennant", || mk_pennant(2e-3)),
    ]
}

/// Other initial contents for the same program: every f64 element
/// nudged by a position-dependent relative amount (pointer fields and
/// the mesh topology stay what they are).
fn perturb(forest: &RegionForest, store: &mut Store) {
    for i in 0..forest.num_regions() as u32 {
        let r = regent_region::RegionId(i);
        if forest.root_of(r) != r {
            continue;
        }
        let inst = store.instance_mut_in(forest, r);
        for (f, def) in forest.fields(r).iter() {
            if def.ty == FieldType::F64 {
                for (k, v) in inst.f64_col_mut(f).iter_mut().enumerate() {
                    *v *= 1.0 + 1e-6 * (1 + k % 7) as f64;
                }
            }
        }
    }
}

/// `mk`'s program compiled for `strategy`, with its store — perturbed
/// when `other` is set.
fn compiled(mk: Mk, strategy: Strategy, ns: usize, other: bool) -> (Owned, Store) {
    let (prog, mut store) = mk();
    let compiled = strategy.compile(prog, ns);
    if other {
        perturb(forest(&compiled), &mut store);
    }
    (compiled, store)
}

/// (a) One compiled program run twice, from different initial stores,
/// equals two runs of freshly compiled programs bit for bit.
#[test]
fn a_reused_program_equals_fresh_programs_from_different_stores() {
    for (app, mk) in apps() {
        for strategy in Strategy::ALL {
            let label = format!("{app}/{strategy:?}");
            let roots = mk().0.root_regions();
            let (one, mut first) = compiled(mk, strategy, 3, false);
            let (_, mut second) = compiled(mk, strategy, 3, true);
            let r1 = run(one.as_ref(), &mut first, &RunOptions::default());
            let r2 = run(one.as_ref(), &mut second, &RunOptions::default());
            assert_eq!(
                replicated(&one).idle_images(),
                3,
                "{label}: one image a shard"
            );

            for (other, reused, r) in [(false, &first, &r1), (true, &second, &r2)] {
                let (fresh, mut store) = compiled(mk, strategy, 3, other);
                let rf = run(fresh.as_ref(), &mut store, &RunOptions::default());
                assert_eq!(r.env, rf.env, "{label}: env, perturbed store: {other}");
                let (a, b) = ((forest(&one), reused), (forest(&fresh), &store));
                compare_roots(&format!("{label} perturbed={other}"), &roots, a, b, 0.0);
            }
            // The two stores really were different inputs.
            let differ = roots.iter().any(|&root| {
                let (a, b) = (
                    first.instance_in(forest(&one), root),
                    second.instance_in(forest(&one), root),
                );
                a.checksum() != b.checksum()
            });
            assert!(
                differ,
                "{label}: the perturbed run must differ from the first"
            );
        }
    }
}

/// Takes every idle image of `compiled`'s replicated program, checks it
/// with `check(shard, image)`, and puts it back.
fn inspect_images(compiled: &Owned, mut check: impl FnMut(usize, &mut ShardImage)) {
    let spmd = replicated(compiled);
    let (schedule, _) = spmd.schedule();
    for (shard, layout) in schedule.layouts.iter().enumerate() {
        let (mut image, built) = spmd.take_image(layout, shard);
        assert!(!built, "shard {shard} had no idle image");
        check(shard, &mut image);
        spmd.put_image(shard, image);
    }
}

fn column_bits(col: &ColumnData) -> Vec<u64> {
    match col {
        ColumnData::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        ColumnData::I64(v) => v.iter().map(|&x| x as u64).collect(),
    }
}

/// (b) plain → guarded (integrity on, corruption injected and repaired)
/// → plain on one program: the third run equals the first, and what the
/// guarded run left in the images — sealed columns, restored rollback
/// state — is gone after the next fill.
#[test]
fn nothing_of_a_guarded_run_survives_into_the_next() {
    for (app, mk) in apps() {
        for strategy in Strategy::ALL {
            let label = format!("{app}/{strategy:?}");
            let roots = mk().0.root_regions();
            let (one, mut first) = compiled(mk, strategy, 3, false);
            let r1 = run(one.as_ref(), &mut first, &RunOptions::default());

            let guarded = ResilienceOptions {
                checkpoint_interval: 2,
                plan: FaultPlan::new(11).with_corrupt_rate(0.05),
                integrity: true,
            };
            let (_, mut second) = compiled(mk, strategy, 3, false);
            let opts = RunOptions::default().with_resilience(guarded);
            let r2 = run(one.as_ref(), &mut second, &opts);
            assert!(
                r2.stats.corruptions_detected > 0,
                "{label}: nothing injected"
            );
            assert_eq!(
                r2.stats.corruptions_injected, r2.stats.corruptions_detected,
                "{label}: a flip escaped"
            );
            assert_eq!(r1.env, r2.env, "{label}: guarded env");
            let here = forest(&one);
            compare_roots(
                &format!("{label} guarded"),
                &roots,
                (here, &first),
                (here, &second),
                0.0,
            );

            // The idle images now carry the guarded run's seals. A fill
            // makes them indistinguishable from freshly built ones.
            let spmd = replicated(&one);
            let (schedule, _) = spmd.schedule();
            let (_, initial) = compiled(mk, strategy, 3, true);
            let mut sealed_before = 0;
            inspect_images(&one, |shard, image| {
                let layout = &schedule.layouts[shard];
                for (inst, info) in image.insts.iter().zip(&layout.slots) {
                    let fields = spmd.forest.fields(info.region);
                    sealed_before += fields
                        .iter()
                        .filter(|&(f, _)| inst.is_field_sealed(f))
                        .count();
                }
                image.fill(spmd, layout, &initial);
                let mut fresh = ShardImage::build(spmd, layout);
                fresh.fill(spmd, layout, &initial);
                for ((got, want), info) in image.insts.iter().zip(&fresh.insts).zip(&layout.slots) {
                    for (f, _) in spmd.forest.fields(info.region).iter() {
                        assert!(
                            !got.is_field_sealed(f),
                            "{label}: {:?} kept a seal",
                            info.key
                        );
                        assert_eq!(
                            column_bits(got.column(f)),
                            column_bits(want.column(f)),
                            "{label}: {:?} field {f:?} differs from a fresh image",
                            info.key
                        );
                    }
                }
            });
            assert!(
                sealed_before > 0,
                "{label}: the guarded run left no seal to clear"
            );

            let (_, mut third) = compiled(mk, strategy, 3, false);
            let r3 = run(one.as_ref(), &mut third, &RunOptions::default());
            assert_eq!(r1.env, r3.env, "{label}: third env");
            compare_roots(
                &format!("{label} third"),
                &roots,
                (here, &first),
                (here, &third),
                0.0,
            );
            // (`REGENT_CORRUPT` upgrades the plain runs to sealed ones.)
            if std::env::var_os("REGENT_CORRUPT").is_none() {
                inspect_images(&one, |_, image| {
                    assert!(
                        image.insts.iter().all(|i| i.seal_value().is_none()),
                        "{label}: a plain run left a sealed instance"
                    );
                });
            }
        }
    }
}

/// A guarded run that rolls back to the fill (a crash before its first
/// copied snapshot) and then a plain run of the same compiled program
/// both equal a fresh program's plain run bit for bit. The refill
/// resealed all it refilled: the sweep at the boundary the rollback
/// lands on fail-stops on an unsealed column, and in between the two
/// runs the columns no statement writes still carry a seal.
#[test]
fn refill_then_a_plain_run_is_bit_identical() {
    for (app, mk) in apps() {
        for strategy in Strategy::ALL {
            let label = format!("{app}/{strategy:?}");
            let roots = mk().0.root_regions();
            let (fresh, mut want) = compiled(mk, strategy, 3, false);
            let rf = run(fresh.as_ref(), &mut want, &RunOptions::default());
            let reference = (forest(&fresh), &want);

            let (one, mut first) = compiled(mk, strategy, 3, false);
            let guarded = RunOptions::default().with_resilience(ResilienceOptions {
                checkpoint_interval: 4,
                plan: FaultPlan::new(2).crash_shard(1, 2),
                integrity: true,
            });
            let r1 = run(one.as_ref(), &mut first, &guarded);
            assert_eq!(
                r1.per_shard[0].epochs_replayed, 2,
                "{label}: rolled back to epoch 0"
            );
            assert_eq!(rf.env, r1.env, "{label}: guarded env");
            let here = forest(&one);
            compare_roots(&label, &roots, reference, (here, &first), 0.0);
            assert_unwritten_columns_sealed(&label, replicated(&one));

            let (_, mut second) = compiled(mk, strategy, 3, false);
            let r2 = run(one.as_ref(), &mut second, &RunOptions::default());
            assert_eq!(rf.env, r2.env, "{label}: plain env");
            compare_roots(&label, &roots, reference, (here, &second), 0.0);
        }
    }
}

/// (d, second half) `run_failover` shrinking 4 → 3 shards drops the
/// images built for 4, and the attempt at 3 is bit-identical to an
/// undisturbed run.
#[test]
fn a_membership_shrink_drops_the_images_and_stays_bit_identical() {
    for (app, mk) in apps() {
        for strategy in [Strategy::Spmd, Strategy::Hybrid] {
            let label = format!("{app}/{strategy:?}");
            let roots = mk().0.root_regions();
            let (reference, mut want) = compiled(mk, strategy, 4, false);
            let plain = run(reference.as_ref(), &mut want, &RunOptions::default());

            // A clean run first: the pool holds four images built for 4.
            let (mut one, mut warm) = compiled(mk, strategy, 4, false);
            run(one.as_ref(), &mut warm, &RunOptions::default());
            assert_eq!(replicated(&one).idle_images(), 4);

            let (_, mut got) = compiled(mk, strategy, 4, false);
            let opts = RunOptions::default().with_resilience(ResilienceOptions {
                checkpoint_interval: 2,
                plan: FaultPlan::new(7).kill_shard(1, 2),
                ..Default::default()
            });
            let r = run_failover(one.as_mut(), &mut got, &opts, &FailoverOptions::default());
            assert_eq!((r.attempts, r.final_shards), (2, 3), "{label}");
            assert_eq!(num_shards(&one), 3);
            assert_eq!(
                replicated(&one).idle_images(),
                3,
                "{label}: images for 4 shards dropped, one per survivor kept"
            );
            assert_eq!(plain.env, r.run.env, "{label}: env");
            let (a, b) = ((forest(&reference), &want), (forest(&one), &got));
            compare_roots(&label, &roots, a, b, 0.0);

            // And the shrunken program's images serve its next run.
            let (_, mut again) = compiled(mk, strategy, 4, false);
            let r = run(one.as_ref(), &mut again, &RunOptions::default());
            assert_eq!(plain.env, r.env, "{label}: env after the shrink");
            compare_roots(&label, &roots, a, (forest(&one), &again), 0.0);
        }
    }
}

/// Circuit at the benchmark's `circuit_sparse` size: 8 pieces × 500
/// nodes × 2 000 wires, 30 % of them crossing pieces, graph seed 1.
fn mk_circuit_sparse() -> (Program, Store) {
    let cfg = circuit::CircuitConfig {
        pieces: 8,
        nodes_per_piece: 500,
        wires_per_piece: 2000,
        cross_fraction: 0.3,
        steps: 3,
        substeps: 1,
        seed: 1,
    };
    let g = circuit::generate_graph(&cfg);
    let (prog, h) = circuit::circuit_program(cfg, &g);
    let mut store = Store::new(&prog);
    circuit::init_circuit(&prog, &mut store, &h, &g);
    (prog, store)
}

/// Where the instances of `compiled`'s images live: one address per
/// slot, stable while an image is reused and new when one is built.
fn image_addresses(compiled: &Owned) -> Vec<usize> {
    let mut out = Vec::new();
    inspect_images(compiled, |_, image| {
        out.extend(
            image
                .insts
                .iter()
                .map(|i| std::ptr::from_ref(i.indexer()) as usize),
        );
    });
    out
}

/// On 2 shards, every ghost set and every reduction temporary over one
/// (the instances whose domain has several runs) stores its span, holes
/// included, while counting its elements; the images are built by the
/// first run and reused by the next; and spmd, hybrid, log and — with
/// corruption injected — guarded runs agree with the interpreter.
#[test]
fn circuit_ghost_sets_are_laid_out_over_their_span() {
    let (prog, mut reference) = mk_circuit_sparse();
    let roots = prog.root_regions();
    let (env_seq, _) = interp::run(&prog, &mut reference);
    let seq = (&prog.forest, &reference);
    for strategy in Strategy::ALL {
        let label = format!("circuit_sparse/{strategy:?}");
        let (one, mut store) = compiled(mk_circuit_sparse, strategy, 2, false);
        let r = run(one.as_ref(), &mut store, &RunOptions::default());
        assert_eq!(r.env, env_seq, "{label}: env");
        compare_roots(&label, &roots, seq, (forest(&one), &store), 1e-12);

        let spmd = replicated(&one);
        let (schedule, _) = spmd.schedule();
        let (mut uses, mut temps) = (HashSet::new(), HashSet::new());
        inspect_images(&one, |shard, image| {
            for (inst, info) in image.insts.iter().zip(&schedule.layouts[shard].slots) {
                let domain = spmd.forest.domain(info.region);
                if domain.rects().len() < 2 {
                    continue;
                }
                assert_eq!(inst.len(), domain.volume(), "{label}: {:?}", info.key);
                let span = domain.bounds().volume();
                assert_eq!(
                    inst.indexer().storage_len(),
                    span,
                    "{label}: {:?}",
                    info.key
                );
                let kind = match info.key {
                    InstKey::UsePart(..) => &mut uses,
                    InstKey::TempPart(..) => &mut temps,
                    key => panic!("{label}: {key:?} has a sparse domain"),
                };
                kind.insert(info.region);
            }
        });
        assert_eq!(
            (uses.len(), temps.len()),
            (8, 8),
            "{label}: every ghost set"
        );
        assert_eq!(uses, temps, "{label}: temporaries over the ghost sets");

        let built = image_addresses(&one);
        let (_, mut again) = compiled(mk_circuit_sparse, strategy, 2, false);
        let r = run(one.as_ref(), &mut again, &RunOptions::default());
        assert_eq!(image_addresses(&one), built, "{label}: images rebuilt");
        assert_eq!(r.env, env_seq, "{label}: second env");
        compare_roots(&label, &roots, seq, (forest(&one), &again), 1e-12);

        if strategy == Strategy::Spmd {
            let guarded = RunOptions::default().with_resilience(ResilienceOptions {
                checkpoint_interval: 2,
                plan: FaultPlan::new(3).with_corrupt_rate(0.2),
                integrity: true,
            });
            let (_, mut third) = compiled(mk_circuit_sparse, strategy, 2, false);
            let r = run(one.as_ref(), &mut third, &guarded);
            let st = &r.stats;
            assert!(st.corruptions_detected > 0, "{label}: nothing injected");
            assert_eq!(st.corruptions_injected, st.corruptions_detected, "{label}");
            assert_eq!(r.env, env_seq, "{label}: guarded env");
            compare_roots(&label, &roots, seq, (forest(&one), &third), 1e-12);
        }
    }
}

/// A silent bit flip lands on an element, never on a hole of a span
/// layout (a flip there would break a seal over data nothing reads):
/// 10 000 draws on the sparsest of Circuit's ghost instances.
#[test]
fn faults_land_on_ghost_elements_not_holes() {
    let (prog, store) = mk_circuit_sparse();
    let spmd = regent_cr::control_replicate(prog, &regent_cr::CrOptions::new(2)).unwrap();
    let (schedule, _) = spmd.schedule();
    let layout = &schedule.layouts[0];
    let mut image = ShardImage::build(&spmd, layout);
    image.fill(&spmd, layout, &store);
    let stored = |i: &Instance| i.indexer().storage_len() as f64 / i.len().max(1) as f64;
    let (ghost, info) = image
        .insts
        .iter()
        .zip(&layout.slots)
        .filter(|(_, info)| matches!(info.key, InstKey::UsePart(..)))
        .max_by(|a, b| stored(a.0).total_cmp(&stored(b.0)))
        .unwrap();
    assert!(stored(ghost) > 2.0, "a ghost set with many holes");
    let members: HashSet<usize> = ghost
        .indexer()
        .iter()
        .map(|(_, off)| off as usize)
        .collect();
    let fields: Vec<_> = spmd
        .forest
        .fields(info.region)
        .iter()
        .map(|(f, _)| f)
        .collect();
    let bits = |inst: &Instance| -> Vec<Vec<u64>> {
        fields
            .iter()
            .map(|&f| column_bits(inst.column(f)))
            .collect()
    };
    let clean = bits(ghost);
    let mut victim = ghost.clone();
    let mut rng = SplitMix64::new(0x0f1a_b5ee);
    let mut hit = HashSet::new();
    for _ in 0..10_000 {
        let entropy = rng.next_u64();
        assert!(victim.corrupt_bit_silently(entropy));
        let now = bits(&victim);
        let changed: Vec<(usize, usize)> = (0..clean.len())
            .flat_map(|f| {
                let (a, b) = (&clean[f], &now[f]);
                (0..a.len())
                    .filter(move |&k| a[k] != b[k])
                    .map(move |k| (f, k))
            })
            .collect();
        assert_eq!(changed.len(), 1, "one slot flipped");
        let (_, slot) = changed[0];
        assert!(members.contains(&slot), "a flip landed on hole {slot}");
        hit.insert(slot);
        // The same draw flips the same bit back.
        assert!(victim.corrupt_bit_silently(entropy));
        assert!(bits(&victim) == clean);
    }
    assert!(
        hit.len() * 2 > members.len(),
        "draws spread over the elements"
    );
}

/// Stencil at the benchmark's `stencil_fine` size: a 128² grid in 8×8
/// tiles, radius 2.
fn mk_stencil_fine() -> (Program, Store) {
    let cfg = stencil::StencilConfig {
        n: 128,
        ntx: 8,
        nty: 8,
        radius: 2,
        steps: 4,
    };
    let (prog, h) = stencil::stencil_program(cfg);
    let mut store = Store::new(&prog);
    stencil::init_stencil(&prog, &mut store, &h);
    (prog, store)
}

/// On 2 shards, every halo instance (the instances whose domain has
/// several rectangles: a cross, or two arms of one at a grid corner)
/// stores its bounding box while counting its elements; the images are
/// built by the first run and reused by the next; and spmd, hybrid, log
/// and — with corruption injected — guarded runs equal the interpreter
/// bit for bit.
#[test]
fn stencil_halos_are_laid_out_over_their_bounding_box() {
    let (prog, mut reference) = mk_stencil_fine();
    let roots = prog.root_regions();
    let (env_seq, _) = interp::run(&prog, &mut reference);
    let seq = (&prog.forest, &reference);
    for strategy in Strategy::ALL {
        let label = format!("stencil_fine/{strategy:?}");
        let (one, mut store) = compiled(mk_stencil_fine, strategy, 2, false);
        let r = run(one.as_ref(), &mut store, &RunOptions::default());
        assert_eq!(r.env, env_seq, "{label}: env");
        compare_roots(&label, &roots, seq, (forest(&one), &store), 0.0);

        let spmd = replicated(&one);
        let (schedule, _) = spmd.schedule();
        let mut halos = HashSet::new();
        inspect_images(&one, |shard, image| {
            for (inst, info) in image.insts.iter().zip(&schedule.layouts[shard].slots) {
                let domain = spmd.forest.domain(info.region);
                if domain.rects().len() < 2 {
                    continue;
                }
                assert!(
                    matches!(info.key, InstKey::UsePart(..)),
                    "{label}: {:?} has a multi-rectangle domain",
                    info.key
                );
                assert_eq!(inst.len(), domain.volume(), "{label}: {:?}", info.key);
                let bounds = domain.bounds().volume();
                assert_eq!(
                    inst.indexer().storage_len(),
                    bounds,
                    "{label}: {:?}",
                    info.key
                );
                assert!(bounds <= domain.volume() * 11 / 10, "{label}: a cross");
                assert!(halos.insert(info.region), "{label}: one instance a halo");
            }
        });
        assert_eq!(halos.len(), 64, "{label}: every halo");

        let built = image_addresses(&one);
        let (_, mut again) = compiled(mk_stencil_fine, strategy, 2, false);
        let r = run(one.as_ref(), &mut again, &RunOptions::default());
        assert_eq!(image_addresses(&one), built, "{label}: images rebuilt");
        assert_eq!(r.env, env_seq, "{label}: second env");
        compare_roots(&label, &roots, seq, (forest(&one), &again), 0.0);

        if strategy == Strategy::Spmd {
            let guarded = RunOptions::default().with_resilience(ResilienceOptions {
                checkpoint_interval: 2,
                plan: FaultPlan::new(3).with_corrupt_rate(0.2),
                integrity: true,
            });
            let (_, mut third) = compiled(mk_stencil_fine, strategy, 2, false);
            let r = run(one.as_ref(), &mut third, &guarded);
            let st = &r.stats;
            assert!(st.corruptions_detected > 0, "{label}: nothing injected");
            assert_eq!(st.corruptions_injected, st.corruptions_detected, "{label}");
            assert_eq!(r.env, env_seq, "{label}: guarded env");
            compare_roots(&label, &roots, seq, (forest(&one), &third), 0.0);
        }
    }
}
