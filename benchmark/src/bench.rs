//! One workload, one process: set-up, the seven execution paths, the
//! check against the sequential reference, and the end-to-end run.

use crate::metrics::SHARDS;
use crate::report::Report;
use crate::spans::Spans;
use crate::speed::SpeedProbe;
use crate::stats::Summary;
use crate::sut::{self, AppConfig, RunFacts, Snapshot, Tracer};
use crate::workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Timed rounds of a full end-to-end run: never fewer, whatever
/// `--seconds` says. More are taken while the time lasts.
const MIN_ROUNDS: usize = 12;
/// Complete set-ups before the first round, and one more every so
/// many rounds; `setup_s` is taken over them all.
const FIRST_SETUPS: usize = 5;
const ROUNDS_PER_SETUP: usize = 3;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    /// One warm-up, two rounds, a quarter of the steps: a smoke test,
    /// not a measurement.
    pub quick: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    Seq,
    Implicit,
    Memo,
    Spmd,
    Hybrid,
    Log,
    Guarded,
}

impl Path {
    pub const ALL: [Path; 7] = [
        Path::Seq,
        Path::Implicit,
        Path::Memo,
        Path::Spmd,
        Path::Hybrid,
        Path::Log,
        Path::Guarded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Path::Seq => "seq",
            Path::Implicit => "implicit",
            Path::Memo => "memo",
            Path::Spmd => "spmd",
            Path::Hybrid => "hybrid",
            Path::Log => "log",
            Path::Guarded => "guarded",
        }
    }

    /// The SPMD family shares one data plane and one reduction order:
    /// its members must agree bit for bit with each other.
    fn is_spmd_family(self) -> bool {
        matches!(self, Path::Spmd | Path::Hybrid | Path::Log | Path::Guarded)
    }
}

/// `ALL` rotated so that neither a seed nor a round always starts on
/// the same path.
pub fn rotated(seed: u64, round: usize) -> Vec<Path> {
    let mut order = Path::ALL.to_vec();
    order.rotate_left(((seed as usize).wrapping_add(round)) % Path::ALL.len());
    order
}

/// Wall time of each set-up stage.
pub struct SetupTimes {
    pub total_s: f64,
    pub build_ms: f64,
    pub cr_compile_us: f64,
    pub hybrid_compile_us: f64,
    pub plan_ms: f64,
    pub seq_s: f64,
}

/// Everything a timed run needs, built once per set-up: the three
/// program forms, the initial region contents and the reference result.
pub struct Prepared {
    pub program: sut::Program,
    pub initial: sut::Store,
    pub spmd: sut::SpmdProgram,
    pub hybrid: sut::HybridProgram,
    pub plan: sut::PlanFacts,
    pub env_ref: Vec<f64>,
    pub snap_ref: Snapshot,
    /// Outer-loop trip count of the sequential reference: the `step`
    /// of every per-step metric.
    pub steps: u64,
    pub tasks: u64,
    pub tolerance: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One complete set-up: input generation, program and store build (one
/// build per program form, since compiling consumes the program),
/// both compiles, the exchange plan and the reference run.
pub fn prepare(cfg: &AppConfig, tolerance: f64, spans: &mut Spans) -> (Prepared, SetupTimes) {
    let t_all = Instant::now();
    let span = spans.begin("build");
    let t = Instant::now();
    let (program, initial) = sut::build_app(cfg);
    let build_ms = ms_since(t);
    let (for_spmd, _) = sut::build_app(cfg);
    let (for_hybrid, _) = sut::build_app(cfg);
    spans.end(span);

    let span = spans.begin("compile");
    let t = Instant::now();
    let spmd = sut::compile_spmd(for_spmd, SHARDS);
    let cr_compile_us = ms_since(t) * 1e3;
    let t = Instant::now();
    let hybrid = sut::compile_hybrid(for_hybrid, SHARDS);
    let hybrid_compile_us = ms_since(t) * 1e3;
    spans.end(span);

    let span = spans.begin("plan");
    let t = Instant::now();
    let plan = sut::build_plan(&spmd);
    let plan_ms = ms_since(t);
    spans.end(span);

    let span = spans.begin("execute");
    let mut store = sut::fresh_store(&program, &initial);
    let t = Instant::now();
    let (env_ref, steps, tasks) = sut::run_sequential(&program, &mut store);
    let seq_s = t.elapsed().as_secs_f64();
    let snap_ref = sut::snapshot(&program, &store);
    spans.end(span);
    assert!(steps > 0, "workload runs at least one step");

    let prepared = Prepared {
        program,
        initial,
        spmd,
        hybrid,
        plan,
        env_ref,
        snap_ref,
        steps,
        tasks,
        tolerance,
    };
    let times = SetupTimes {
        total_s: t_all.elapsed().as_secs_f64(),
        build_ms,
        cr_compile_us,
        hybrid_compile_us,
        plan_ms,
        seq_s,
    };
    (prepared, times)
}

/// One finished, verified run.
pub struct Op {
    pub secs: f64,
    pub cpu_over_wall: f64,
    pub facts: RunFacts,
}

/// Operations attempted and failed, and the bit pattern the SPMD
/// family agreed on.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    family_digest: Option<u64>,
}

impl Tally {
    /// Runs `path` once from fresh region contents. The timed interval
    /// is exactly the one call into the executor. The run is an
    /// operation: it fails if it panics (the executors panic on their
    /// own hang timeout) or if its results disagree with the reference.
    pub fn run(
        &mut self,
        p: &Prepared,
        path: Path,
        tracer: &Arc<Tracer>,
        spans: &mut Spans,
    ) -> Option<Op> {
        self.attempted += 1;
        let mut store = sut::fresh_store(&p.program, &p.initial);
        let span = spans.begin_on("execute", path.name());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let cpu0 = sut::cpu_ns();
            let t = Instant::now();
            let (env, facts) = match path {
                Path::Seq => {
                    let (env, _, _) = sut::run_sequential(&p.program, &mut store);
                    (env, RunFacts::default())
                }
                Path::Implicit => sut::run_implicit(&p.program, &mut store, SHARDS, false, tracer),
                Path::Memo => sut::run_implicit(&p.program, &mut store, SHARDS, true, tracer),
                Path::Spmd => sut::run_spmd(&p.spmd, &mut store, tracer),
                Path::Hybrid => sut::run_hybrid(&p.hybrid, &mut store, tracer),
                Path::Log => sut::run_log(&p.spmd, &mut store, tracer),
                Path::Guarded => sut::run_guarded(&p.spmd, &mut store, tracer),
            };
            let wall = t.elapsed();
            let cpu = sut::cpu_ns() - cpu0;
            (env, facts, wall, cpu)
        }));
        spans.end(span);
        let span = spans.begin_on("verify", path.name());
        let verdict = match outcome {
            Err(_) => Err("panicked".to_string()),
            Ok((env, facts, wall, cpu)) => self
                .verify(p, path, &env, &sut::snapshot(&p.program, &store))
                .map(|()| Op {
                    secs: wall.as_secs_f64(),
                    cpu_over_wall: cpu as f64 / wall.as_nanos() as f64,
                    facts,
                }),
        };
        spans.end(span);
        match verdict {
            Ok(op) => Some(op),
            Err(why) => {
                eprintln!("operation failed: {} run {}", path.name(), why);
                self.failed += 1;
                None
            }
        }
    }

    fn verify(
        &mut self,
        p: &Prepared,
        path: Path,
        env: &[f64],
        snap: &Snapshot,
    ) -> Result<(), String> {
        if env != p.env_ref {
            return Err("scalar environment differs from the reference".into());
        }
        if snap.int_columns != p.snap_ref.int_columns {
            return Err("integer fields differ from the reference".into());
        }
        if path.is_spmd_family() {
            let agreed = *self.family_digest.get_or_insert(snap.digest);
            if snap.digest != agreed {
                return Err("regions differ bitwise from the other SPMD-family runs".into());
            }
        }
        if !path.is_spmd_family() || p.tolerance == 0.0 {
            return if snap.digest == p.snap_ref.digest {
                Ok(())
            } else {
                Err("regions differ bitwise from the reference".into())
            };
        }
        for (col, col_ref) in snap.columns.iter().zip(&p.snap_ref.columns) {
            for (&a, &b) in col.iter().zip(col_ref) {
                let scale = a.abs().max(b.abs()).max(1.0);
                // A NaN on either side is not within any tolerance.
                let within = (a - b).abs() <= p.tolerance * scale;
                if !within {
                    return Err(format!("{a} vs reference {b}, tolerance {}", p.tolerance));
                }
            }
        }
        Ok(())
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line present");
    kb / 1024.0
}

/// The untraced run that yields every end-to-end metric.
pub fn end_to_end(w: &Workload, args: &Args) -> Report {
    let cfg = w.config(args.seed, args.quick);
    let tracer = Tracer::disabled();
    let mut probe = SpeedProbe::new();
    let mut setup_s = Vec::new();
    let mut set_up = |probe: &mut SpeedProbe| {
        probe.sample();
        let (p, times) = prepare(&cfg, w.tolerance, &mut Spans::disabled());
        setup_s.push(times.total_s);
        p
    };

    let mut p = set_up(&mut probe);
    for _ in 1..if args.quick { 1 } else { FIRST_SETUPS } {
        p = set_up(&mut probe);
    }

    let mut spans = Spans::disabled();
    let mut tally = Tally::default();
    // Warm-up: caches fill, lazy state initialises, and the SPMD
    // family fixes the bit pattern later runs must reproduce.
    for round in 0..if args.quick { 1 } else { 2 } {
        for path in rotated(args.seed, round) {
            tally.run(&p, path, &tracer, &mut spans);
        }
    }

    let min_rounds = if args.quick { 2 } else { MIN_ROUNDS };
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); Path::ALL.len()];
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || (!args.quick && t0.elapsed().as_secs_f64() < args.seconds) {
        // The remaining set-ups are spread over the run, so that a
        // noisy half second at start cannot cover them all.
        if rounds % ROUNDS_PER_SETUP == 0 {
            set_up(&mut probe);
        }
        for path in rotated(args.seed, rounds) {
            probe.sample();
            if let Some(op) = tally.run(&p, path, &tracer, &mut spans) {
                samples[path as usize].push(op.secs * 1e3 / p.steps as f64);
            }
        }
        rounds += 1;
    }

    let mut report = Report::new(w, args, "end_to_end", rounds, &probe);
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.push_wall_clock("setup_s", Summary::of(&setup_s));
    for path in Path::ALL {
        let s = &samples[path as usize];
        if !s.is_empty() {
            report.push_wall_clock(&format!("{}_step_ms", path.name()), Summary::of(s));
        }
    }
    report.push("peak_rss_mb", Summary::of(&[peak_rss_mb()]));
    report
}
