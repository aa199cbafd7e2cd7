//! Shard images (a compiled program keeps its shards' instances between
//! runs) on the evaluation applications: whatever a run leaves in the
//! image — results, seals, an injected and repaired bit flip, a larger
//! membership — the next run of the same program must not see. Every
//! check is against runs of freshly compiled programs, bit for bit.

mod common;

use common::{
    compare_roots, forest, mk_circuit, mk_miniaero, mk_pennant, mk_stencil, num_shards, replicated,
    Owned, Strategy,
};
use regent_cr::ShardImage;
use regent_ir::{Program, Store};
use regent_region::{ColumnData, FieldType, RegionForest};
use regent_runtime::{
    run, run_failover, FailoverOptions, FaultPlan, ResilienceOptions, RunOptions,
};

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
/// guarded run left in the images — seals on every column, restored
/// rollback state — is gone after the next fill.
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
                ..Default::default()
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
                sealed_before += image
                    .insts
                    .iter()
                    .filter(|i| i.seal_value().is_some())
                    .count();
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
