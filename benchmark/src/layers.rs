//! The traced run: every per-layer metric, from timers around public
//! calls, the statistics the executors return, the always-on metrics
//! registry, the blame report over the system's own traces, and four
//! two-thread probes of the primitives. End-to-end metrics never come
//! from here.

use crate::bench::{prepare, rotated, Args, Path, Tally};
use crate::report::Report;
use crate::spans::Spans;
use crate::speed::SpeedProbe;
use crate::stats::{low5, Summary};
use crate::sut::{self, BlameFacts, RegistryFacts, RunFacts, Tracer};
use crate::workloads::Workload;
use std::time::Instant;

/// Traced rounds: never fewer; more are taken while the time lasts.
const MIN_ROUNDS: usize = 3;
const SETUP_PASSES: usize = 15;
const PROBE_REPEATS: usize = 9;

/// Samples of one path across rounds.
#[derive(Default)]
struct PathSamples {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    cpu_over_wall: Vec<f64>,
    facts: Vec<RunFacts>,
    blame: Vec<BlameFacts>,
    /// Registry readings taken after the untraced run.
    registry: Vec<RegistryFacts>,
}

impl PathSamples {
    /// A quantity derived from each round's run statistics.
    fn fact(&self, f: impl Fn(&RunFacts) -> f64) -> Summary {
        Summary::of(&self.facts.iter().map(f).collect::<Vec<_>>())
    }

    /// A quantity derived from each round's registry reading.
    fn registry(&self, f: impl Fn(&RegistryFacts) -> f64) -> Summary {
        Summary::of(&self.registry.iter().map(f).collect::<Vec<_>>())
    }

    /// One blame phase of each round's traced run, ms per step.
    fn phase_ms(&self, steps: u64, f: impl Fn(&BlameFacts) -> u64) -> Summary {
        let per_round: Vec<f64> = self
            .blame
            .iter()
            .map(|b| f(b) as f64 / 1e6 / steps as f64)
            .collect();
        Summary::of(&per_round)
    }
}

pub fn per_layer(w: &Workload, args: &Args) -> Report {
    let cfg = w.config(args.seed, args.quick);
    let mut spans = Spans::enabled();

    // Set-up, stage by stage.
    let mut probe = SpeedProbe::new();
    let mut stage: [Vec<f64>; 7] = Default::default();
    let mut prepared = None;
    for _ in 0..if args.quick { 1 } else { SETUP_PASSES } {
        probe.sample();
        let (p, t) = prepare(&cfg, w.tolerance, &mut spans);
        let elements = p.steps * sut::elements_per_step(&p.program);
        for (samples, v) in stage.iter_mut().zip([
            t.build_ms,
            t.cr_compile_us,
            t.hybrid_compile_us,
            t.plan_ms,
            p.plan.shallow_us,
            p.plan.complete_us,
            t.seq_s * 1e9 / elements as f64,
        ]) {
            samples.push(v);
        }
        prepared = Some(p);
    }
    let p = &prepared.expect("at least one set-up pass");

    // Probes of the primitives, away from any workload.
    let (mut ring, mut allreduce, mut barrier, mut seal) = (vec![], vec![], vec![], vec![]);
    for _ in 0..if args.quick { 1 } else { PROBE_REPEATS } {
        ring.push(sut::probe_ring(if args.quick { 50_000 } else { 500_000 }));
        let (a, b) = sut::probe_collectives(if args.quick { 1_000 } else { 10_000 });
        allreduce.push(a);
        barrier.push(b);
        seal.push(sut::probe_seal(1 << 20));
    }

    // Rounds: each parallel path once untraced, once traced.
    let paths = &Path::ALL[1..];
    let mut samples: Vec<PathSamples> = Path::ALL.iter().map(|_| PathSamples::default()).collect();
    let mut tally = Tally::default();
    let untraced = Tracer::disabled();
    let (mut events, mut dropped) = (Vec::new(), 0u64);
    let min_rounds = if args.quick { 2 } else { MIN_ROUNDS };
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || (!args.quick && t0.elapsed().as_secs_f64() < args.seconds) {
        spans.set_round(rounds as u32);
        let round_span = spans.begin("round");
        let mut round_events = 0;
        for path in rotated(args.seed, rounds) {
            if !paths.contains(&path) {
                continue;
            }
            probe.sample();
            let s = &mut samples[path as usize];
            sut::metrics_reset();
            if let Some(op) = tally.run(p, path, &untraced, &mut spans) {
                s.untraced_ms.push(op.secs * 1e3);
                s.cpu_over_wall.push(op.cpu_over_wall);
                s.facts.push(op.facts);
                s.registry.push(sut::metrics_read());
            }
            let tracer = Tracer::enabled();
            if let Some(op) = tally.run(p, path, &tracer, &mut spans) {
                let b = sut::blame(&tracer);
                // The phases must account for the whole critical path,
                // and a wrapped trace buffer would hide part of it.
                if b.phase_sum != b.critical_path || b.dropped > 0 {
                    eprintln!(
                        "operation failed: {} trace lost events or blame does not sum ({} of {} ns, {} dropped)",
                        path.name(),
                        b.phase_sum,
                        b.critical_path,
                        b.dropped
                    );
                    tally.failed += 1;
                }
                s.traced_ms.push(op.secs * 1e3);
                round_events += b.events;
                dropped += b.dropped;
                s.blame.push(b);
            }
        }
        events.push(round_events as f64);
        spans.end(round_span);
        rounds += 1;
    }

    let mut r = Report::new(w, args, "per_layer", rounds, &probe);
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    let steps = p.steps;
    let per_step = |v: u64| v as f64 / steps as f64;
    let counts = sut::compile_counts(&p.spmd);
    let [build, cr, hybrid_compile, plan, shallow, complete, interp_ns] = stage;

    r.push_wall_clock("apps.build_ms", Summary::of(&build));
    r.push_value("apps.tasks_per_step", per_step(p.tasks));
    r.push_value(
        "apps.elements_per_step",
        sut::elements_per_step(&p.program) as f64,
    );
    r.push_wall_clock("ir.interp_ns_per_element", Summary::of(&interp_ns));
    r.push_wall_clock("core.cr_compile_us", Summary::of(&cr));
    r.push_wall_clock("core.hybrid_compile_us", Summary::of(&hybrid_compile));
    r.push_value("core.copies_inserted", counts.copies_inserted as f64);
    r.push_value("core.copies_removed", counts.copies_removed as f64);
    r.push_value(
        "core.pairs_proven_disjoint",
        counts.pairs_proven_disjoint as f64,
    );
    r.push_wall_clock("region.intersect_shallow_us", Summary::of(&shallow));
    r.push_wall_clock("region.intersect_complete_us", Summary::of(&complete));
    r.push_value("region.plan_pairs", p.plan.pairs as f64);
    r.push_value("region.plan_elements", p.plan.elements as f64);
    r.push_rate("region.seal_mb_per_s", Summary::of(&seal));
    r.push_wall_clock("plan.build_ms", Summary::of(&plan));

    let of = |path: Path| &samples[path as usize];
    // A path whose every run failed has nothing to report; the run is
    // already marked incorrect.
    let ran = |path: Path| !of(path).facts.is_empty() && !of(path).blame.is_empty();

    if ran(Path::Implicit) {
        let s = of(Path::Implicit);
        r.push(
            "implicit.dep_checks_per_step",
            s.fact(|f| per_step(f.dep_checks)),
        );
        r.push(
            "implicit.dep_edges_per_step",
            s.fact(|f| per_step(f.dep_edges)),
        );
        r.push("implicit.max_window", s.fact(|f| f.max_window as f64));
        r.push_wall_clock(
            "implicit.dep_analysis_ms",
            s.phase_ms(steps, |b| b.dep_analysis),
        );
        r.push_wall_clock("implicit.exec_ms", s.phase_ms(steps, |b| b.exec));
        r.push_wall_clock(
            "implicit.other_ms",
            s.phase_ms(steps, |b| b.critical_path - b.dep_analysis - b.exec),
        );
    }
    if ran(Path::Memo) {
        let s = of(Path::Memo);
        r.push(
            "memo.hit_rate",
            s.fact(|f| f.memo_hits as f64 / steps as f64),
        );
        r.push("memo.captures", s.fact(|f| f.memo_captures as f64));
        r.push(
            "memo.replayed_tasks_per_step",
            s.fact(|f| per_step(f.memo_replayed_tasks)),
        );
        r.push_wall_clock("memo.replay_ms", s.phase_ms(steps, |b| b.memo_replay));
    }
    if ran(Path::Spmd) {
        let s = of(Path::Spmd);
        r.push("spmd.msgs_per_step", s.fact(|f| per_step(f.messages)));
        r.push("spmd.elems_per_step", s.fact(|f| per_step(f.elements)));
        r.push_wall_clock("spmd.copy_ms", s.phase_ms(steps, |b| b.copy));
        r.push_wall_clock("spmd.exec_ms", s.phase_ms(steps, |b| b.exec));
        r.push_wall_clock(
            "spmd.barrier_wait_ms",
            s.phase_ms(steps, |b| b.barrier_wait),
        );
        r.push_wall_clock(
            "spmd.collective_wait_ms",
            s.phase_ms(steps, |b| b.collective_wait),
        );
        r.push_wall_clock(
            "spmd.other_ms",
            s.phase_ms(steps, |b| {
                b.critical_path - b.copy - b.exec - b.barrier_wait - b.collective_wait
            }),
        );
        r.push_wall_clock(
            "spmd.critical_path_ms",
            s.phase_ms(steps, |b| b.critical_path),
        );
        let imbalance: Vec<f64> = s
            .blame
            .iter()
            .map(|b| (b.imbalance - 1.0) * 100.0)
            .collect();
        r.push("spmd.shard_imbalance_pct", Summary::of(&imbalance));
        r.push("spmd.cpu_over_wall", Summary::of(&s.cpu_over_wall));
        r.push("ring.full_stalls", s.registry(|m| m.ring_stalls as f64));
        r.push(
            "pool.reuse_ratio",
            s.registry(|m| m.pool_reuses as f64 / (m.pool_reuses + m.pool_allocs).max(1) as f64),
        );
    }
    r.push_rate("ring.msgs_per_s", Summary::of(&ring));
    r.push_wall_clock("collective.allreduce_us", Summary::of(&allreduce));
    r.push_wall_clock("barrier.wait_us", Summary::of(&barrier));
    if ran(Path::Log) {
        let s = of(Path::Log);
        r.push("log.records_per_step", s.fact(|f| per_step(f.log_records)));
        r.push("log.batches_per_step", s.fact(|f| per_step(f.log_batches)));
        r.push(
            "log.max_cursor_lag",
            s.fact(|f| f.log_max_cursor_lag as f64),
        );
        r.push("log.analyses", s.registry(|m| m.log_analyses as f64));
        r.push_wall_clock("log.control_ms", s.phase_ms(steps, |b| b.log_control));
    }
    if ran(Path::Hybrid) {
        let s = of(Path::Hybrid);
        r.push(
            "hybrid.replicated_segments",
            s.fact(|f| f.hybrid_replicated_segments as f64),
        );
        r.push(
            "hybrid.sequential_tasks",
            s.fact(|f| f.hybrid_sequential_tasks as f64),
        );
    }
    if ran(Path::Guarded) && ran(Path::Spmd) {
        let s = of(Path::Guarded);
        let ms_per_step = |ns: u64| ns as f64 / 1e6 / steps as f64;
        r.push_wall_clock(
            "guard.integrity_cpu_ms",
            s.registry(|m| ms_per_step(m.integrity_ns)),
        );
        r.push("guard.checkpoints", s.fact(|f| f.checkpoints as f64));
        r.push_wall_clock(
            "guard.checkpoint_ms",
            s.registry(|m| ms_per_step(m.checkpoint_ns)),
        );
        let spmd = low5(&of(Path::Spmd).untraced_ms);
        r.push_value(
            "guard.overhead_pct",
            (low5(&s.untraced_ms) / spmd - 1.0) * 100.0,
        );
    }
    for &path in paths {
        if ran(path) {
            let s = of(path);
            r.push_value(
                &format!("trace.overhead_pct.{}", path.name()),
                (low5(&s.traced_ms) / low5(&s.untraced_ms) - 1.0) * 100.0,
            );
        }
    }
    r.push("trace.events", Summary::of(&events));
    r.push_value("trace.dropped", dropped as f64);

    r.spans_json = Some(spans.to_chrome_json());
    r
}
