//! Tests of the exchange-schedule evaluation (§3.3): pair ownership,
//! ordering, element exactness, the scale-invariance property the
//! paper relies on (O(1) intersections per region for halo patterns),
//! the per-pair frame bound that sizes the exchange rings, each pair's
//! storage runs against the per-element offset tables they replace, and
//! the memoization contract — built once per program and shard count,
//! replayed by every later run.

use regent_cr::{control_replicate, CrOptions, SpmdProgram};
use regent_geometry::{Domain, DynPoint};
use regent_ir::{
    expr::c, KernelFn, Program, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl,
};
use regent_region::{ops, DomainIndexer, FieldId, FieldSpace, FieldType, RegionId};
use regent_runtime::{build_exchange_plan, metrics, run, Compiled, Counter, InstKey, RunOptions};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// `out[p] ← out[p]/2 + (sum of `halo` over p-1, p, p+1 where held)/4 + 1`
/// — a kernel whose result depends on every exchanged element.
fn smooth(out: FieldId, halo: FieldId) -> KernelFn {
    Arc::new(move |ctx| {
        let (own, ghost) = (ctx.domain(0).clone(), ctx.domain(1).clone());
        for p in own.iter() {
            let mut acc = 0.0;
            for d in -1..=1 {
                let q = DynPoint::from(p.coord(0) + d);
                if ghost.contains(q) {
                    acc += ctx.read_f64(1, halo, q);
                }
            }
            let v = ctx.read_f64(0, out, p);
            ctx.write_f64(0, out, p, 0.5 * v + 0.25 * acc + 1.0);
        }
    })
}

/// Simple halo program: write blocks, read ±1 halos.
fn halo_program(n: u64, parts: usize) -> Program {
    ghost_program(n, parts, |x, sink| {
        sink.extend([x - 1, x, x + 1].map(DynPoint::from))
    })
}

/// Write blocks, read the ghost set `reach` maps each owned point to.
fn ghost_program(n: u64, parts: usize, mut reach: impl FnMut(i64, &mut Vec<DynPoint>)) -> Program {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let y = fs.lookup("y").unwrap();
    let r = b.forest.create_region(Domain::range(n), fs);
    let p = ops::block(&mut b.forest, r, parts);
    let q = ops::image(&mut b.forest, r, p, |pt, sink| reach(pt.coord(0), sink));
    let w = b.task(TaskDecl {
        name: "w".into(),
        params: vec![RegionParam::read_write(&[x]), RegionParam::read(&[y])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: smooth(x, y),
    });
    let rd = b.task(TaskDecl {
        name: "r".into(),
        params: vec![RegionParam::read_write(&[y]), RegionParam::read(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: smooth(y, x),
    });
    let l = b.for_loop(c(2.0));
    b.index_launch(
        w,
        parts as u64,
        vec![RegionArg::Part(p), RegionArg::Part(q)],
    );
    b.index_launch(
        rd,
        parts as u64,
        vec![RegionArg::Part(p), RegionArg::Part(q)],
    );
    b.end(l);
    b.build()
}

#[test]
fn pairs_have_correct_owners_and_order() {
    let spmd = control_replicate(halo_program(64, 8), &CrOptions::new(4)).unwrap();
    let plan = build_exchange_plan(&spmd);
    for pairs in &plan.pairs {
        let mut last = None;
        for p in pairs {
            assert!(p.src_owner < 4 && p.dst_owner < 4);
            assert!(!p.elements.is_empty());
            // Global order is non-decreasing in source position.
            if let Some(prev) = last {
                assert!(p.order >= prev, "pairs out of order");
            }
            last = Some(p.order);
            // Keys reference the right kinds.
            assert!(matches!(p.src_key, InstKey::UsePart(..)));
            assert!(matches!(p.dst_key, InstKey::UsePart(..)));
        }
    }
}

#[test]
fn halo_pairs_scale_linearly() {
    // O(1) neighbours per piece (§3.3): total pairs grow linearly in
    // piece count, not quadratically.
    let count = |parts: usize| {
        let spmd =
            control_replicate(halo_program(parts as u64 * 8, parts), &CrOptions::new(4)).unwrap();
        build_exchange_plan(&spmd).setup.num_pairs
    };
    let at8 = count(8);
    let at32 = count(32);
    assert!(at32 <= at8 * 5, "pairs grew superlinearly: {at8} → {at32}");
    assert!(at32 >= at8 * 3, "pairs should grow with pieces");
}

#[test]
fn exchange_elements_are_exact_boundaries() {
    // For ±1 halos, cross-piece pairs carry exactly one element.
    let spmd = control_replicate(halo_program(64, 8), &CrOptions::new(8)).unwrap();
    let plan = build_exchange_plan(&spmd);
    let mut cross = 0;
    for pairs in &plan.pairs {
        for p in pairs {
            if p.src_owner != p.dst_owner {
                assert_eq!(p.elements.volume(), 1, "{p:?}");
                cross += 1;
            }
        }
    }
    assert!(cross > 0, "expected cross-shard boundary exchanges");
}

/// The frame bound of every ordered shard pair, counted the slow way:
/// per intersection (one copy statement each), the cross-shard pairs
/// `src → dst`; then the largest over intersections.
fn assert_frame_bounds(label: &str, spmd: &SpmdProgram) {
    let (schedule, _) = spmd.schedule();
    let ns = spmd.num_shards;
    assert_eq!(schedule.num_shards, ns, "{label}");
    let mut any = 0;
    for src in 0..ns {
        for dst in 0..ns {
            let want = schedule
                .pairs
                .iter()
                .map(|list| {
                    list.iter()
                        .filter(|p| src != dst && (p.src_owner, p.dst_owner) == (src, dst))
                        .count()
                })
                .max()
                .unwrap_or(0);
            assert_eq!(
                schedule.frame_bound(src, dst),
                want,
                "{label}: {src} -> {dst} at {ns} shards"
            );
            // A ring holds at least one statement's frames, each sent
            // up to `t` times.
            for t in [1, 3] {
                assert!(schedule.ring_slots(src, dst, t) >= want * t, "{label}");
            }
            any += want;
        }
        assert_eq!(schedule.frame_bound(src, src), 0, "{label}: diagonal");
    }
    assert!(any > 0, "{label}: expected cross-shard exchange");
}

#[test]
fn frame_bound_is_the_largest_statement() {
    use regent_apps::{circuit, miniaero, pennant, stencil};
    use regent_fault::SplitMix64;
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
    // A seeded random ghost set: every owned point reaches itself and
    // three points anywhere in the region, so most shard pairs exchange
    // and their pair counts differ.
    let mut rng = SplitMix64::new(0x5eed);
    let random = ghost_program(96, 12, |x, sink| {
        sink.push(DynPoint::from(x));
        sink.extend((0..3).map(|_| DynPoint::from(rng.gen_range(96) as i64)));
    });
    for (label, prog) in [
        ("stencil", stencil),
        ("circuit", circuit),
        ("miniaero", miniaero),
        ("pennant", pennant),
        ("random", random),
    ] {
        let mut spmd = control_replicate(prog, &CrOptions::new(4)).unwrap();
        assert_frame_bounds(label, &spmd);
        // What failover does to a live program: shrink it in place. The
        // next schedule, and its bounds, are for three shards.
        spmd.num_shards = 3;
        assert_frame_bounds(label, &spmd);
    }
}

#[test]
fn plan_is_deterministic() {
    let spmd = control_replicate(halo_program(48, 6), &CrOptions::new(3)).unwrap();
    let a = build_exchange_plan(&spmd);
    let b = build_exchange_plan(&spmd);
    assert_eq!(a.setup.num_pairs, b.setup.num_pairs);
    assert_eq!(a.setup.total_elements, b.setup.total_elements);
    for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb) {
            assert_eq!(x.src_key, y.src_key);
            assert_eq!(x.dst_key, y.dst_key);
            assert!(x.elements.set_eq(&y.elements));
        }
    }
}

#[test]
fn hierarchical_tree_shrinks_the_plan() {
    // DESIGN.md ablation: the §4.5 private/ghost structure reduces both
    // the pair count and the exchanged volume relative to the flat
    // structure, because private data leaves the analysis entirely.
    use regent_region::private_ghost_split;

    // Flat: block + halo partitions of the whole region.
    let flat = control_replicate(halo_program(256, 16), &CrOptions::new(8)).unwrap();
    let flat_plan = build_exchange_plan(&flat);

    // Hierarchical: the same pattern expressed through private/ghost.
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let y = fs.lookup("y").unwrap();
    let r = b.forest.create_region(Domain::range(256), fs);
    let p = ops::block(&mut b.forest, r, 16);
    let q = ops::image(&mut b.forest, r, p, |pt, sink| {
        sink.push(DynPoint::from(pt.coord(0) - 1));
        sink.push(DynPoint::from(pt.coord(0)));
        sink.push(DynPoint::from(pt.coord(0) + 1));
    });
    let pg = private_ghost_split(&mut b.forest, p, q);
    let w = b.task(TaskDecl {
        name: "w".into(),
        params: vec![
            RegionParam::read_write(&[x]), // private own
            RegionParam::read_write(&[x]), // shared own
            RegionParam::read(&[y]),       // ghost halo
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(|_| {}),
    });
    let rd = b.task(TaskDecl {
        name: "r".into(),
        params: vec![
            RegionParam::read_write(&[y]),
            RegionParam::read_write(&[y]),
            RegionParam::read(&[x]),
        ],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(|_| {}),
    });
    let l = b.for_loop(c(2.0));
    b.index_launch(
        w,
        16,
        vec![
            RegionArg::Part(pg.private_owned),
            RegionArg::Part(pg.shared_owned),
            RegionArg::Part(pg.ghost_halo),
        ],
    );
    b.index_launch(
        rd,
        16,
        vec![
            RegionArg::Part(pg.private_owned),
            RegionArg::Part(pg.shared_owned),
            RegionArg::Part(pg.ghost_halo),
        ],
    );
    b.end(l);
    let hier = control_replicate(b.build(), &CrOptions::new(8)).unwrap();
    let hier_plan = build_exchange_plan(&hier);

    assert!(
        hier_plan.setup.total_elements < flat_plan.setup.total_elements,
        "hierarchical should move fewer elements: {} vs {}",
        hier_plan.setup.total_elements,
        flat_plan.setup.total_elements
    );
}

/// A store for `prog` with `x[i] = i` and `y[i] = 2i + 1/2`.
fn initial_store(prog: &Program) -> Store {
    let mut store = Store::new(prog);
    let root = prog.root_regions()[0];
    let fields = prog.forest.fields(root);
    let (x, y) = (fields.lookup("x").unwrap(), fields.lookup("y").unwrap());
    let inst = store.instance_mut(prog, root);
    for p in prog.forest.domain(root).iter() {
        inst.write_f64(x, p, p.coord(0) as f64);
        inst.write_f64(y, p, 2.0 * p.coord(0) as f64 + 0.5);
    }
    store
}

/// Runs `spmd` from `store`; returns the scalar environment and the
/// checksum of the (only) root region's final contents.
fn run_digest(spmd: &SpmdProgram, mut store: Store) -> (Vec<f64>, u64) {
    let result = run(Compiled::Spmd(spmd), &mut store, &RunOptions::default());
    let root = regent_region::RegionId(0);
    assert_eq!(spmd.forest.root_of(root), root);
    (result.env, store.instance_in(&spmd.forest, root).checksum())
}

/// The tests below run executors, and one of them reads the global
/// schedule-build counter around a run: they take turns.
static EXECUTOR_TESTS: Mutex<()> = Mutex::new(());

#[test]
fn second_run_replays_the_schedule_bit_identically() {
    let _turn = EXECUTOR_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let prog = halo_program(64, 8);
    let (first_store, second_store) = (initial_store(&prog), initial_store(&prog));
    let spmd = control_replicate(prog, &CrOptions::new(4)).unwrap();
    let builds = || metrics::global().aggregate().get(Counter::ScheduleBuilds);

    let before = builds();
    let first = run_digest(&spmd, first_store);
    let between = builds();
    let second = run_digest(&spmd, second_store);
    assert_eq!(
        first, second,
        "a replayed schedule must not change the result"
    );
    assert_eq!(builds() - between, 0, "the second run rebuilt the schedule");
    if metrics::global().is_enabled() {
        assert_eq!(between - before, 1, "the first run builds exactly once");
    }
    let (schedule, built) = spmd.schedule();
    assert!(!built);
    assert_eq!(schedule.num_shards, 4);
}

#[test]
fn changing_num_shards_rebuilds_the_schedule() {
    let _turn = EXECUTOR_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let prog = halo_program(64, 8);
    let (wide_store, narrow_store) = (initial_store(&prog), initial_store(&prog));
    let mut spmd = control_replicate(prog, &CrOptions::new(4)).unwrap();
    let wide = run_digest(&spmd, wide_store);
    let (at4, _) = spmd.schedule();

    // What failover does to a live program: shrink it in place.
    spmd.num_shards = 2;
    let narrow = run_digest(&spmd, narrow_store);
    let (at2, built) = spmd.schedule();
    assert!(!built, "the run after the change already rebuilt");
    assert!(!Arc::ptr_eq(&at4, &at2));
    assert_eq!(at2.num_shards, 2);
    assert_eq!(
        wide, narrow,
        "the result does not depend on the shard count"
    );

    // Same schedule, same result as a program compiled for 2 shards.
    let prog = halo_program(64, 8);
    let fresh_store = initial_store(&prog);
    let fresh = control_replicate(prog, &CrOptions::new(2)).unwrap();
    let fresh_plan = build_exchange_plan(&fresh);
    assert_eq!(at2.pairs.len(), fresh_plan.pairs.len());
    for (got, want) in at2
        .pairs
        .iter()
        .flatten()
        .zip(fresh_plan.pairs.iter().flatten())
    {
        assert_eq!(
            (got.src_owner, got.dst_owner, got.src_key, got.dst_key),
            (want.src_owner, want.dst_owner, want.src_key, want.dst_key)
        );
        assert_eq!(got.elements, want.elements);
        assert_eq!(got.runs.runs(), want.runs.runs());
    }
    assert_eq!(at2.setup.num_pairs, fresh_plan.setup.num_pairs);
    assert_eq!(run_digest(&fresh, fresh_store), narrow);
}

/// Stencil at the benchmark's size, `ntx` × `nty` tiles, one step.
fn stencil_shape(ntx: usize, nty: usize) -> Program {
    let cfg = regent_apps::stencil::StencilConfig {
        n: 128,
        ntx,
        nty,
        radius: 2,
        steps: 1,
    };
    regent_apps::stencil::stencil_program(cfg).0
}

/// Builds one program.
type Build = fn() -> Program;

/// The benchmark's four workload shapes (`benchmark/src/workloads.rs`),
/// one step each: Stencil as two big tiles and as 8×8 small ones, the
/// sparse Circuit graph, and PENNANT.
fn workload_shapes() -> [(&'static str, Build); 4] {
    use regent_apps::{circuit, pennant};
    [
        ("stencil_bulk", || stencil_shape(2, 1)),
        ("stencil_fine", || stencil_shape(8, 8)),
        ("circuit_sparse", || {
            let cfg = circuit::CircuitConfig {
                pieces: 8,
                nodes_per_piece: 500,
                wires_per_piece: 2000,
                cross_fraction: 0.3,
                steps: 1,
                substeps: 1,
                seed: 1,
            };
            let g = circuit::generate_graph(&cfg);
            circuit::circuit_program(cfg, &g).0
        }),
        ("pennant_dt", || {
            let cfg = pennant::PennantConfig {
                nzx: 48,
                nzy: 24,
                pieces: 8,
                tstop: 1e-3,
                dtmax: 1e-3,
            };
            let mesh = pennant::build_mesh(&cfg);
            pennant::pennant_program(cfg, &mesh).0
        }),
    ]
}

/// A pair's storage runs, expanded element by element, are the two
/// offset tables the schedule stored before it stored runs: the
/// storage offset of every exchanged element, in canonical element
/// order, in the source and in the destination instance, each computed
/// here point by point from `elements` and the instance's indexer. So
/// payloads carry their elements in the same order as before, and frame
/// checksums and fold order are unchanged. Two big Stencil tiles move
/// each same-shard pair as one run.
#[test]
fn runs_expand_to_the_offset_tables() {
    for (label, build) in workload_shapes() {
        for shards in [2, 4] {
            let spmd = control_replicate(build(), &CrOptions::new(shards)).unwrap();
            let plan = build_exchange_plan(&spmd);
            let mut indexers: HashMap<RegionId, DomainIndexer> = HashMap::new();
            let mut table = |owner: usize, slot: u32, elements: &Domain| -> Vec<u32> {
                let region = plan.layouts[owner].slots[slot as usize].region;
                let ix = indexers
                    .entry(region)
                    .or_insert_with(|| DomainIndexer::new(spmd.forest.domain(region)));
                elements
                    .iter()
                    .map(|e| ix.offset_of(e).expect("an exchanged element") as u32)
                    .collect()
            };
            let (mut pairs, mut runs, mut bulk_local) = (0, 0, 0);
            for p in plan.pairs.iter().flatten() {
                let (src, dst): (Vec<u32>, Vec<u32>) = (p.runs.runs().iter())
                    .flat_map(|&(s, d, n)| (0..n).map(move |k| (s + k, d + k)))
                    .unzip();
                let at = format!(
                    "{label} at {shards} shards, {:?} → {:?}",
                    p.src_key, p.dst_key
                );
                assert_eq!(src, table(p.src_owner, p.src_slot, &p.elements), "{at}");
                assert_eq!(dst, table(p.dst_owner, p.dst_slot, &p.elements), "{at}");
                assert_eq!(p.runs.volume() as u64, p.elements.volume(), "{at}");
                if label == "stencil_bulk" && p.src_owner == p.dst_owner {
                    assert_eq!(p.runs.runs().len(), 1, "{at}: {:?}", p.runs.runs());
                    bulk_local += 1;
                }
                pairs += 1;
                runs += p.runs.runs().len();
            }
            assert_eq!(plan.setup.num_pairs, pairs, "{label}");
            assert_eq!(plan.setup.num_runs, runs, "{label}");
            assert!(runs >= pairs, "{label}");
            assert_eq!(bulk_local > 0, label == "stencil_bulk", "{label}");
        }
    }
}
