//! The Stencil star kernel reads its neighbours as rows of the halo's
//! instance — on a shard, an instance laid out over the halo's bounding
//! box. On every execution path (the sequential interpreter, the
//! implicit executor, spmd, hybrid, log, and spmd guarded with
//! corruption injected) and for radius 1, 2 and 3 over tilings whose
//! halos are clipped at the grid's edges and corners, both fields must
//! equal `reference_stencil` bit for bit.

mod common;

use common::Strategy;
use regent_apps::stencil::{init_stencil, reference_stencil, stencil_program, StencilConfig};
use regent_ir::{interp, Store};
use regent_region::RegionForest;
use regent_runtime::{
    execute_implicit, run, FaultPlan, ImplicitOptions, ResilienceOptions, RunOptions,
};

/// Asserts that the grid's `in` and `out` equal the reference exactly.
fn assert_reference(label: &str, cfg: StencilConfig, forest: &RegionForest, store: &Store) {
    let (_, h) = stencil_program(cfg);
    let reference = reference_stencil(cfg);
    let inst = store.instance_in(forest, h.grid);
    for p in forest.domain(h.grid).iter() {
        let (rin, rout) = reference[p.coord(0) as usize][p.coord(1) as usize];
        let (vin, vout) = (inst.read_f64(h.f_in, p), inst.read_f64(h.f_out, p));
        assert_eq!(vin.to_bits(), rin.to_bits(), "{label}: in at {p:?}");
        assert_eq!(
            vout.to_bits(),
            rout.to_bits(),
            "{label}: out at {p:?}: {vout} vs {rout}"
        );
    }
}

#[test]
fn every_path_equals_the_reference_bit_for_bit() {
    let mut injected = 0;
    for radius in 1..=3 {
        for (ntx, nty) in [(1, 1), (2, 1), (3, 5), (8, 8)] {
            let cfg = StencilConfig {
                n: 37,
                ntx,
                nty,
                radius,
                steps: 3,
            };
            let mk = || {
                let (prog, h) = stencil_program(cfg);
                let mut store = Store::new(&prog);
                init_stencil(&prog, &mut store, &h);
                (prog, store)
            };
            let label = format!("r{radius} {ntx}x{nty}");

            let (prog, mut store) = mk();
            interp::run(&prog, &mut store);
            assert_reference(&format!("{label} seq"), cfg, &prog.forest, &store);

            let (prog, mut store) = mk();
            execute_implicit(&prog, &mut store, ImplicitOptions::with_workers(2));
            assert_reference(&format!("{label} implicit"), cfg, &prog.forest, &store);

            for strategy in Strategy::ALL {
                let (prog, mut store) = mk();
                let compiled = strategy.compile(prog, 2);
                run(compiled.as_ref(), &mut store, &RunOptions::default());
                let forest = common::forest(&compiled);
                assert_reference(&format!("{label} {strategy:?}"), cfg, forest, &store);
            }

            let (prog, mut store) = mk();
            let compiled = Strategy::Spmd.compile(prog, 2);
            let guarded = RunOptions::default().with_resilience(ResilienceOptions {
                checkpoint_interval: 2,
                plan: FaultPlan::new(3).with_corrupt_rate(0.2),
                integrity: true,
            });
            let r = run(compiled.as_ref(), &mut store, &guarded);
            let st = &r.stats;
            assert_eq!(st.corruptions_injected, st.corruptions_detected, "{label}");
            injected += st.corruptions_injected;
            let forest = common::forest(&compiled);
            assert_reference(&format!("{label} guarded"), cfg, forest, &store);
        }
    }
    assert!(injected > 0, "the guarded runs must see corruption");
}
