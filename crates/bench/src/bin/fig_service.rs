//! `fig_service` — closed-loop driver bench for the `regent-serve`
//! job supervisor.
//!
//! Sweeps offered load (client count) against a single service
//! instance configured from the `REGENT_SERVE_*` environment; each
//! client runs a closed loop (submit one job, wait for its terminal
//! outcome, repeat) over the three evaluation apps and all six
//! execution strategies. Per load level it reports client-observed
//! p50/p99 latency, goodput (completed jobs per second), and the
//! shed/retry/cancel counts — the service's load-shedding curve.
//!
//! The `--check` artifact gate is an **SLO budget**, not a measured
//! baseline: `wall_ns` and `critical_path_ns` (which carries the p99
//! latency) in `BENCH_PR7.json` are generous ceilings, so any healthy
//! run passes while a hung queue, a retry storm, or a quarantine
//! cascade trips it. The invariant check is unconditional: every
//! offered job must reach exactly one of
//! {completed, shed, cancelled}; a nonzero quarantine count fails the
//! run regardless of `--check`.
//!
//! ```text
//! fig_service [--clients 1,2,4,8] [--jobs 12] \
//!             [--json out.json] [--check BENCH_PR7.json] [--check-tol 0]
//! ```

use regent_serve::{jobs, JobOutcome, Service, ServiceConfig, Strategy};
use regent_trace::{
    check_entries, entries_to_json, merge_entries, parse_entries, BenchEntry, Blame, EventKind,
    Phase, Tracer,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Default)]
struct ClientTally {
    latencies_ns: Vec<u64>,
    shed: u64,
    cancelled: u64,
    quarantined: u64,
    retried: u64,
}

struct LevelResult {
    clients: usize,
    offered: u64,
    wall_ns: u64,
    queue_wait_ns: u64,
    workers: u32,
    tally: ClientTally,
    trace: regent_trace::Trace,
}

impl LevelResult {
    fn completed(&self) -> u64 {
        self.tally.latencies_ns.len() as u64
    }

    fn goodput_jps(&self) -> f64 {
        self.completed() as f64 / (self.wall_ns as f64 / 1e9)
    }

    fn percentile_ns(&self, q: f64) -> u64 {
        let lat = &self.tally.latencies_ns;
        if lat.is_empty() {
            return 0;
        }
        lat[((lat.len() - 1) as f64 * q).round() as usize]
    }
}

/// One closed loop: `jobs` submissions, each waited to its terminal
/// outcome before the next is offered. A shed is counted and retried
/// after a short backoff — the job is *not* lost, matching how a real
/// client treats `Overloaded`.
fn client_loop(svc: &Service, client: usize, njobs: usize) -> ClientTally {
    let mut tally = ClientTally::default();
    for i in 0..njobs {
        let tenant = (client % 3) as u32 + 1;
        let strategy = Strategy::ALL[(client + i) % Strategy::ALL.len()];
        let spec = match (client + i) % 3 {
            0 => jobs::stencil_job(tenant, strategy, 2),
            1 => jobs::circuit_job(tenant, strategy, 2),
            _ => jobs::pennant_job(tenant, strategy, 2),
        };
        let t0 = Instant::now();
        match svc.submit(spec) {
            Ok(h) => match h.wait() {
                JobOutcome::Completed { attempts, .. } => {
                    tally.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                    if attempts > 1 {
                        tally.retried += 1;
                    }
                }
                JobOutcome::Cancelled { .. } => tally.cancelled += 1,
                JobOutcome::Quarantined { .. } => tally.quarantined += 1,
            },
            Err(_) => {
                tally.shed += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
    tally
}

fn run_level(clients: usize, njobs: usize) -> LevelResult {
    let tracer = Tracer::enabled();
    let cfg = ServiceConfig::from_env().with_tracer(Arc::clone(&tracer));
    let workers = cfg.workers as u32;
    let svc = Arc::new(Service::start(cfg));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || client_loop(&svc, c, njobs))
        })
        .collect();
    let mut tally = ClientTally::default();
    for h in handles {
        let t = h.join().expect("client thread");
        tally.latencies_ns.extend(t.latencies_ns);
        tally.shed += t.shed;
        tally.cancelled += t.cancelled;
        tally.quarantined += t.quarantined;
        tally.retried += t.retried;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("client threads still hold the service"))
        .shutdown();
    let trace = tracer.take();
    let queue_wait_ns = trace
        .tracks
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e.kind, EventKind::JobAdmit { .. }))
        .map(|e| e.dur)
        .sum();
    tally.latencies_ns.sort_unstable();
    LevelResult {
        clients,
        offered: (clients * njobs) as u64,
        wall_ns,
        queue_wait_ns,
        workers,
        tally,
        trace,
    }
}

fn entry_for(level: &LevelResult, njobs: usize) -> BenchEntry {
    let mut blame = Blame::default();
    blame.add(Phase::QueueWait, level.queue_wait_ns);
    BenchEntry {
        app: "service".to_string(),
        size: format!("jobs{njobs}"),
        shards: level.workers,
        executor: format!("clients{}", level.clients),
        wall_ns: level.wall_ns,
        critical_path_ns: level.percentile_ns(0.99),
        blame,
        metrics: vec![
            ("completed".to_string(), level.completed() as f64),
            ("shed".to_string(), level.tally.shed as f64),
            ("retried".to_string(), level.tally.retried as f64),
            ("cancelled".to_string(), level.tally.cancelled as f64),
            ("quarantined".to_string(), level.tally.quarantined as f64),
            ("p50_ms".to_string(), level.percentile_ns(0.5) as f64 / 1e6),
            ("p99_ms".to_string(), level.percentile_ns(0.99) as f64 / 1e6),
            ("goodput_jps".to_string(), level.goodput_jps()),
        ],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut clients: Vec<usize> = vec![1, 2, 4, 8];
    let mut njobs: usize = 12;
    let mut json: Option<String> = None;
    let mut check: Option<String> = None;
    let mut check_tol: f64 = 0.0;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |n: usize| {
            args.get(n)
                .unwrap_or_else(|| panic!("{} needs a value", args[n - 1]))
                .clone()
        };
        match args[i].as_str() {
            "--clients" => {
                clients = need(i + 1)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--clients takes ints"))
                    .collect();
                i += 2;
            }
            "--jobs" => {
                njobs = need(i + 1).parse().expect("--jobs takes an int");
                i += 2;
            }
            "--json" => {
                json = Some(need(i + 1));
                i += 2;
            }
            "--check" => {
                check = Some(need(i + 1));
                i += 2;
            }
            "--check-tol" => {
                check_tol = need(i + 1).parse().expect("--check-tol takes a number");
                i += 2;
            }
            "--trace" => {
                trace_path = Some(need(i + 1));
                i += 2;
            }
            other => panic!(
                "unknown argument {other} (usage: fig_service [--clients a,b,..] [--jobs N] \
                 [--json p] [--check p] [--check-tol pct] [--trace p])"
            ),
        }
    }

    // Live telemetry: `REGENT_METRICS_ADDR` starts the Prometheus
    // scrape endpoint for the duration of the sweep, so `regent-prof
    // --live` (or any scraper) can watch the sliding-window quantiles
    // and SLO burn rates mid-run. Held until the end of `main` so the
    // post-sweep self-scrape below can check the live estimator
    // against the artifact.
    let scrape =
        regent_runtime::start_scrape_at(regent_runtime::config::process().metrics_addr.as_deref());
    if let Some(server) = &scrape {
        println!(
            "metrics: live scrape endpoint on http://{}/metrics",
            server.local_addr()
        );
    }

    println!("== service closed-loop sweep ({njobs} jobs/client) ==");
    println!(
        "{:>8} {:>8} {:>10} {:>6} {:>8} {:>10} {:>9} {:>9} {:>12}",
        "clients",
        "offered",
        "completed",
        "shed",
        "retried",
        "cancelled",
        "p50_ms",
        "p99_ms",
        "goodput/s"
    );
    let mut entries = Vec::new();
    let mut quarantined_total = 0u64;
    let mut last_trace = None;
    let mut all_latencies: Vec<u64> = Vec::new();
    for &c in &clients {
        let level = run_level(c, njobs);
        all_latencies.extend_from_slice(&level.tally.latencies_ns);
        let accounted =
            level.completed() + level.tally.shed + level.tally.cancelled + level.tally.quarantined;
        assert_eq!(
            accounted, level.offered,
            "clients{c}: a job vanished without a terminal outcome"
        );
        quarantined_total += level.tally.quarantined;
        println!(
            "{:>8} {:>8} {:>10} {:>6} {:>8} {:>10} {:>9.2} {:>9.2} {:>12.1}",
            level.clients,
            level.offered,
            level.completed(),
            level.tally.shed,
            level.tally.retried,
            level.tally.cancelled,
            level.percentile_ns(0.5) as f64 / 1e6,
            level.percentile_ns(0.99) as f64 / 1e6,
            level.goodput_jps(),
        );
        entries.push(entry_for(&level, njobs));
        last_trace = Some(level.trace);
    }

    if let Some(server) = &scrape {
        // Self-scrape: pull the exposition through the real HTTP path
        // and check the live sliding-window quantiles against the
        // client-observed artifact latencies. Both sides go through the
        // same log2-bucket estimator so the comparison measures the
        // telemetry plumbing (recording, windowing, scrape), not
        // histogram quantization. Holds to ±10% when the SLO window
        // (`REGENT_SLO_WINDOW_SECS`) covers the whole sweep.
        match regent_runtime::fetch_metrics(&server.local_addr().to_string()) {
            Ok(body) => {
                println!(
                    "scrape: {} bytes, {} families",
                    body.len(),
                    body.lines().filter(|l| l.starts_with("# TYPE")).count()
                );
                let live_gauge = |sel: &str| -> Option<f64> {
                    body.lines()
                        .find(|l| l.starts_with(sel))
                        .and_then(|l| l.rsplit(' ').next())
                        .and_then(|v| v.parse().ok())
                };
                let mut h = regent_runtime::Hist::default();
                for &ns in &all_latencies {
                    h.record(ns);
                }
                for (label, q, sel) in [
                    ("p50", 0.5, "regent_live_latency_ns{quantile=\"0.5\"}"),
                    ("p99", 0.99, "regent_live_latency_ns{quantile=\"0.99\"}"),
                ] {
                    let artifact_ns = h.quantile_ns(q);
                    match live_gauge(sel) {
                        Some(live_ns) if artifact_ns > 0.0 => {
                            let drift_pct = (live_ns - artifact_ns) / artifact_ns * 100.0;
                            let verdict = if drift_pct.abs() <= 10.0 {
                                "OK"
                            } else {
                                "DRIFT"
                            };
                            println!(
                                "live check: {label} live {:.2} ms vs artifact {:.2} ms \
                                 ({drift_pct:+.1}% -> {verdict})",
                                live_ns / 1e6,
                                artifact_ns / 1e6,
                            );
                        }
                        _ => println!("live check: {label} not present in scrape"),
                    }
                }
            }
            Err(e) => eprintln!("live check: self-scrape failed: {e}"),
        }
    }

    if let (Some(path), Some(trace)) = (&trace_path, &last_trace) {
        // Native trace of the highest load level, for `regent-prof`'s
        // per-tenant service summary and queue-wait blame row.
        std::fs::write(path, regent_trace::export_native(trace))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("trace: {path}");
    }

    if let Some(path) = &json {
        let merged = match std::fs::read_to_string(path)
            .ok()
            .and_then(|t| parse_entries(&t).ok())
        {
            Some(base) => merge_entries(base, entries.clone()),
            None => entries.clone(),
        };
        std::fs::write(path, entries_to_json(&merged))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("bench artifact: {} entries -> {path}", merged.len());
    }
    if let Some(path) = &check {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = parse_entries(&text).unwrap_or_else(|e| panic!("baseline {path}: {e}"));
        match check_entries(&entries, &baseline, check_tol) {
            Ok(notes) => {
                for n in &notes {
                    println!("check: {n}");
                }
                println!(
                    "check: {} level(s) within the SLO budget of {path}",
                    entries.len()
                );
            }
            Err(regressions) => {
                for r in &regressions {
                    eprintln!("SLO VIOLATION: {r}");
                }
                eprintln!("check: {} violation(s) against {path}", regressions.len());
                std::process::exit(1);
            }
        }
    }
    if quarantined_total > 0 {
        eprintln!("FAIL: {quarantined_total} job(s) quarantined during the sweep");
        std::process::exit(1);
    }
}
