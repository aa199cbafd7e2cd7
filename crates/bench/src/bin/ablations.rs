//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. **Copy intersection acceleration** (§3.3): interval-tree/BVH
//!    shallow intersections vs. the naive all-pairs O(N²) comparison.
//! 2. **Region-tree static pruning** (§3.1/§4.5): copies emitted with
//!    and without `skip_disjoint_pairs`.
//! 3. **Copy placement optimization** (§3.2): copies before/after the
//!    redundancy and dead-copy passes.
//! 4. **Synchronization** (§3.4): wall time of real SPMD execution
//!    under point-to-point vs. global-barrier synchronization.
//! 5. **Region-tree hierarchy** (§4.5): flat vs private/ghost
//!    hierarchical intersection inputs.
//! 6. **Epoch-trace memoization**: real implicit execution of the
//!    stencil with and without template capture/replay — dependence
//!    checks, per-epoch analysis cost, and the steady-state hit rate.
//! 7. **Shared-log execution**: real stencil execution through the
//!    flat-combining operation-log executor vs plain SPMD — sequencer
//!    appends/combines, combined-batch sizes, cursor lag, and the
//!    per-replica amortized dependence analysis.

use regent_apps::{circuit, stencil};
use regent_cr::{control_replicate, CrOptions, SyncMode};
use regent_ir::Store;
use regent_region::intersect::{shallow_intersections_naive, shallow_intersections_of};
use regent_region::{ops, Color, Domain, FieldSpace, RegionForest};
use regent_runtime::{
    execute_implicit, metrics, run, Compiled, ImplicitOptions, MemoCache, RunOptions,
};
use regent_trace::{
    blame_report, entries_to_json, memo_summary, merge_entries, parse_entries, BenchEntry, Tracer,
};
use std::time::Instant;

fn ablation_intersections() {
    println!("--- Ablation 1: shallow intersection, accelerated vs naive ---");
    println!(
        "{:>8}  {:>14}  {:>14}  {:>8}",
        "pieces", "tree (ms)", "naive (ms)", "pairs"
    );
    for pieces in [64usize, 256, 1024, 4096] {
        // A halo pattern over a 1-D region: each piece's ghost overlaps
        // its two neighbours (the O(1)-neighbours case of §3.3).
        let mut forest = RegionForest::new();
        let n = (pieces as u64) * 1024;
        let r = forest.create_region(Domain::range(n), FieldSpace::new());
        let pb = ops::block(&mut forest, r, pieces);
        let qb = ops::image(&mut forest, r, pb, |p, sink| {
            sink.push(regent_geometry::DynPoint::from(p.coord(0) - 1));
            sink.push(regent_geometry::DynPoint::from(p.coord(0) + 1));
        });
        let src: Vec<(Color, Domain)> = forest
            .partition(pb)
            .iter()
            .map(|(c, reg)| (c, forest.domain(reg).clone()))
            .collect();
        let dst: Vec<(Color, Domain)> = forest
            .partition(qb)
            .iter()
            .map(|(c, reg)| (c, forest.domain(reg).clone()))
            .collect();
        let t0 = Instant::now();
        let fast = shallow_intersections_of(&src, &dst);
        let t_fast = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let naive = shallow_intersections_naive(&src, &dst);
        let t_naive = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(fast, naive);
        println!(
            "{:>8}  {:>14.2}  {:>14.2}  {:>8}",
            pieces,
            t_fast,
            t_naive,
            fast.len()
        );
    }
    println!();
}

fn ablation_copies() {
    println!("--- Ablations 2+3: copies emitted per configuration ---");
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>12} {:>10}",
        "app", "skip", "placement", "copies", "redundant-", "dead-"
    );
    for (skip, place) in [(true, true), (true, false), (false, true), (false, false)] {
        let cfg = circuit::CircuitConfig::default();
        let g = circuit::generate_graph(&cfg);
        let (prog, _) = circuit::circuit_program(cfg, &g);
        let mut o = CrOptions::new(4);
        o.skip_disjoint_pairs = skip;
        o.optimize_placement = place;
        let spmd = control_replicate(prog, &o).unwrap();
        println!(
            "{:<10} {:>6} {:>10} {:>10} {:>12} {:>10}",
            "circuit",
            skip,
            place,
            spmd.count_copies(),
            spmd.stats.copies_removed_redundant,
            spmd.stats.copies_removed_dead
        );
    }
    println!();
}

/// Builds a machine-readable entry from one real (wall-clock) ablation
/// run: blame from its trace, metrics from the global registry
/// accumulated since the last `reset()`.
fn real_entry(app: &str, size: &str, shards: u32, executor: &str, wall_ns: u64) -> BenchEntry {
    BenchEntry {
        app: app.to_string(),
        size: size.to_string(),
        shards,
        executor: executor.to_string(),
        wall_ns,
        critical_path_ns: 0,
        blame: regent_trace::Blame::default(),
        metrics: metrics::global().snapshot_flat(),
    }
}

fn ablation_sync(entries: &mut Vec<BenchEntry>) {
    println!("--- Ablation 4: point-to-point vs global-barrier sync (real execution) ---");
    let cfg = stencil::StencilConfig {
        n: 256,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 10,
    };
    for (label, executor, mode) in [
        ("point-to-point", "spmd-p2p", SyncMode::PointToPoint),
        ("barrier", "spmd-barrier", SyncMode::Barrier),
    ] {
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        let mut o = CrOptions::new(8);
        o.sync = mode;
        let spmd = control_replicate(prog, &o).unwrap();
        metrics::global().reset();
        let tracer = Tracer::enabled();
        let t0 = Instant::now();
        let r = run(
            Compiled::Spmd(&spmd),
            &mut store,
            &RunOptions::traced(&tracer),
        );
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "  {label:<16} {dt:>8.1} ms  ({} msgs, {} elements)",
            r.stats.messages_sent, r.stats.elements_sent
        );
        let mut e = real_entry(
            "stencil-sync",
            "n256",
            8,
            executor,
            t0.elapsed().as_nanos() as u64,
        );
        if let Ok(rep) = blame_report(&tracer.take()) {
            e.critical_path_ns = rep.critical_path_ns;
            e.blame = rep.total;
        }
        entries.push(e);
    }
    println!();
}

fn ablation_hierarchy() {
    use regent_region::private_ghost_split;
    println!("--- Ablation 5: flat vs hierarchical (§4.5) region trees ---");
    println!(
        "{:>8}  {:>14}  {:>14}  {:>12}  {:>12}",
        "pieces", "flat-sh (ms)", "hier-sh (ms)", "flat elems", "hier elems"
    );
    for pieces in [64usize, 256, 1024] {
        // Flat: interval tree over every run of the full block + halo
        // partitions. Hierarchical: private data excluded, only the
        // ghost-restricted partitions are intersected.
        let build = |hier: bool| {
            let mut forest = RegionForest::new();
            let n = pieces as u64 * 512;
            let r = forest.create_region(Domain::range(n), FieldSpace::new());
            let owned = ops::block(&mut forest, r, pieces);
            let halo = ops::image(&mut forest, r, owned, |p, sink| {
                sink.push(regent_geometry::DynPoint::from(p.coord(0) - 2));
                sink.push(regent_geometry::DynPoint::from(p.coord(0) + 2));
            });
            let (src_part, dst_part) = if hier {
                let pg = private_ghost_split(&mut forest, owned, halo);
                (pg.shared_owned, pg.ghost_halo)
            } else {
                (owned, halo)
            };
            let collect = |p| {
                forest
                    .partition(p)
                    .iter()
                    .map(|(c, reg)| (c, forest.domain(reg).clone()))
                    .collect::<Vec<(Color, Domain)>>()
            };
            (collect(src_part), collect(dst_part))
        };
        let (fsrc, fdst) = build(false);
        let (hsrc, hdst) = build(true);
        let t0 = Instant::now();
        let fp = shallow_intersections_of(&fsrc, &fdst);
        let t_flat = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let hp = shallow_intersections_of(&hsrc, &hdst);
        let t_hier = t1.elapsed().as_secs_f64() * 1e3;
        let vol = |src: &[(Color, Domain)],
                   dst: &[(Color, Domain)],
                   pairs: &[regent_region::OverlapPair]|
         -> u64 {
            pairs
                .iter()
                .map(|pr| {
                    let s = &src.iter().find(|(c, _)| *c == pr.src).unwrap().1;
                    let d = &dst.iter().find(|(c, _)| *c == pr.dst).unwrap().1;
                    s.intersect(d).volume()
                })
                .sum()
        };
        println!(
            "{:>8}  {:>14.2}  {:>14.2}  {:>12}  {:>12}",
            pieces,
            t_flat,
            t_hier,
            vol(&fsrc, &fdst, &fp),
            vol(&hsrc, &hdst, &hp)
        );
    }
    println!();
}

fn ablation_memo(entries: &mut Vec<BenchEntry>) {
    println!("--- Ablation 6: epoch-trace memoization (real implicit execution) ---");
    let cfg = stencil::StencilConfig {
        n: 256,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 10,
    };
    for memoized in [false, true] {
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        let tracer = Tracer::enabled();
        let mut opts = ImplicitOptions {
            tracer: tracer.clone(),
            ..ImplicitOptions::with_workers(8)
        };
        if memoized {
            opts = opts.with_memo(MemoCache::shared());
        }
        metrics::global().reset();
        let t0 = Instant::now();
        let (_, stats) = execute_implicit(&prog, &mut store, opts);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        let trace = tracer.take();
        let summary = memo_summary(&trace, "control");
        let label = if memoized { "memoized" } else { "plain" };
        println!(
            "  {label:<10} {dt:>8.1} ms  {:>8} checks  first epoch {:>8.1} µs, steady {:>8.1} µs, hit rate {:>5.1}%",
            stats.dependence_checks,
            summary.first_epoch_analysis_ns as f64 / 1e3,
            summary.steady_state_analysis_ns / 1e3,
            summary.steady_state_hit_rate() * 100.0
        );
        let executor = if memoized {
            "implicit-memo"
        } else {
            "implicit"
        };
        let mut e = real_entry(
            "stencil-memo",
            "n256",
            8,
            executor,
            t0.elapsed().as_nanos() as u64,
        );
        if let Ok(rep) = blame_report(&trace) {
            e.critical_path_ns = rep.critical_path_ns;
            e.blame = rep.total;
        }
        entries.push(e);
    }
    println!();
}

fn ablation_log(entries: &mut Vec<BenchEntry>) {
    println!("--- Ablation 7: shared-log executor vs plain SPMD (real execution) ---");
    let cfg = stencil::StencilConfig {
        n: 256,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 10,
    };
    for (label, executor) in [("spmd", "spmd"), ("log", "log")] {
        let (prog, h) = stencil::stencil_program(cfg);
        let mut store = Store::new(&prog);
        stencil::init_stencil(&prog, &mut store, &h);
        let spmd = control_replicate(prog, &CrOptions::new(8)).unwrap();
        metrics::global().reset();
        let tracer = Tracer::enabled();
        let t0 = Instant::now();
        let mut e = real_entry("stencil-log", "n256", 8, executor, 0);
        let trace = if executor == "log" {
            let r = run(
                Compiled::Log(&spmd),
                &mut store,
                &RunOptions::traced(&tracer),
            );
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            println!(
                "  {label:<6} {dt:>8.1} ms  {} appends, {} combines -> {} batches \
                 ({} replicas, max cursor lag {})",
                r.log.appended_records,
                r.log.combines,
                r.log.batches,
                r.log.replicas,
                r.log.max_cursor_lag
            );
            tracer.take()
        } else {
            let r = run(
                Compiled::Spmd(&spmd),
                &mut store,
                &RunOptions::traced(&tracer),
            );
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            println!(
                "  {label:<6} {dt:>8.1} ms  ({} msgs, {} elements)",
                r.stats.messages_sent, r.stats.elements_sent
            );
            tracer.take()
        };
        e.wall_ns = t0.elapsed().as_nanos() as u64;
        e.metrics = metrics::global().snapshot_flat();
        if let Ok(rep) = blame_report(&trace) {
            e.critical_path_ns = rep.critical_path_ns;
            e.blame = rep.total;
        }
        entries.push(e);
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = Some(args.get(i + 1).expect("--json <path>").clone());
                i += 2;
            }
            other => panic!("unknown argument {other} (ablations accepts only --json <path>)"),
        }
    }
    let mut entries = Vec::new();
    ablation_intersections();
    ablation_copies();
    ablation_sync(&mut entries);
    ablation_hierarchy();
    ablation_memo(&mut entries);
    ablation_log(&mut entries);
    if let Some(path) = json {
        let merged = match std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| parse_entries(&t).ok())
        {
            Some(base) => merge_entries(base, entries),
            None => entries,
        };
        std::fs::write(&path, entries_to_json(&merged))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("bench artifact: {} entries -> {path}", merged.len());
    }
}
