//! `regent-prof` — the post-mortem profiler for trace files.
//!
//! Loads a trace file — written by `--trace` (real executor runs or
//! simulated schedules alike), a `regent-serve` job dump or a
//! flight-recorder dump, all one Chrome `trace_event` document whose
//! `regentTracks` sidecar it reads — and prints, in order: the
//! per-track utilization profile, the critical-path blame table
//! (per-phase, per-track, per-epoch), the load-imbalance report, and
//! the certification status.
//! Certification is *structural*: the happens-before graph must be
//! acyclic, the integrity-event record coherent, and no events lost to
//! ring wrap-around — a trace failing any of these cannot support
//! sound blame attribution.
//!
//! ```text
//! regent-prof --trace run.trace [--flame out.folded]
//! regent-prof --live <addr> [--polls N] [--interval-ms M]
//! ```
//!
//! `--flame` writes collapsed stacks (`track;phase;event count_ns`
//! lines) suitable for any flamegraph renderer.
//!
//! `--live` is the mid-run counterpart to the post-mortem path: it
//! polls a running process's Prometheus scrape endpoint
//! (`REGENT_METRICS_ADDR`) and renders the sliding-window latency
//! quantiles, per-tenant goodput, SLO burn rates, and job counters —
//! no trace file required and no restart of the observed process.
//! Burn rates above 1.0 mean the error budget is being consumed
//! faster than the SLO allows and are flagged `BURNING`.

use regent_trace::{
    blame_report, build_graph, failover_summary, imbalance_report, import_trace, integrity_summary,
    sim_blame, EventKind, Phase, ProfReport, SimKind, Trace,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Short stable label for a span kind, used as the flame-stack leaf:
/// the kind's wire tag, split by sim kind for simulated tasks.
fn kind_label(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::SimTask { kind, .. } => match kind {
            SimKind::Analysis => "sim_analysis",
            SimKind::Compute => "sim_compute",
            SimKind::Copy => "sim_copy",
            SimKind::Collective => "sim_collective",
            SimKind::Launch => "sim_launch",
            SimKind::Log => "sim_log",
            SimKind::Other => "sim_other",
        },
        k => k.tag(),
    }
}

/// Phase a sim task's service belongs to (mirrors `sim_blame`).
fn sim_phase(kind: SimKind) -> Phase {
    match kind {
        SimKind::Analysis => Phase::DepAnalysis,
        SimKind::Compute => Phase::Exec,
        SimKind::Copy => Phase::Copy,
        SimKind::Collective => Phase::CollectiveWait,
        SimKind::Log => Phase::LogControl,
        SimKind::Launch | SimKind::Other => Phase::Other,
    }
}

/// Collapsed flame stacks: one `track;phase;event total_ns` line per
/// distinct (track, span-kind) pair, durations summed.
fn collapsed_stacks(trace: &Trace) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for t in &trace.tracks {
        for e in &t.events {
            if e.dur == 0 {
                continue;
            }
            let phase = match e.kind {
                EventKind::SimTask { kind, .. } => sim_phase(kind),
                ref k => regent_trace::classify(k),
            };
            let stack = format!("{};{};{}", t.name, phase.name(), kind_label(&e.kind));
            *folded.entry(stack).or_insert(0) += e.dur;
        }
    }
    let mut out = String::new();
    for (stack, ns) in folded {
        writeln!(out, "{stack} {ns}").unwrap();
    }
    out
}

/// Per-tenant service counters reconstructed from `Job*` trace events.
#[derive(Default, Clone, Copy)]
struct TenantSummary {
    admitted: u64,
    shed: u64,
    retried: u64,
    degraded: u64,
    queue_wait_ns: u64,
}

/// Aggregates supervisor `Job*` events by tenant. Returns `None` when
/// the trace records no service activity (plain executor runs).
fn service_summary(trace: &Trace) -> Option<BTreeMap<u32, TenantSummary>> {
    let mut by_tenant: BTreeMap<u32, TenantSummary> = BTreeMap::new();
    for t in &trace.tracks {
        for e in &t.events {
            match e.kind {
                EventKind::JobAdmit { tenant, .. } => {
                    let s = by_tenant.entry(tenant).or_default();
                    s.admitted += 1;
                    s.queue_wait_ns += e.dur;
                }
                EventKind::JobShed { tenant, .. } => by_tenant.entry(tenant).or_default().shed += 1,
                EventKind::JobRetry { tenant, .. } => {
                    by_tenant.entry(tenant).or_default().retried += 1
                }
                EventKind::JobDegrade { tenant, .. } => {
                    by_tenant.entry(tenant).or_default().degraded += 1
                }
                _ => {}
            }
        }
    }
    if by_tenant.is_empty() {
        None
    } else {
        Some(by_tenant)
    }
}

/// True when the track records a simulated schedule (`SimTask` spans).
fn is_sim_track(t: &regent_trace::Track) -> bool {
    t.events
        .iter()
        .any(|e| matches!(e.kind, EventKind::SimTask { .. }))
}

/// One parsed Prometheus sample: family name, label pairs, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition (the subset our scrape endpoint
/// emits: `name value` and `name{k="v",..} value` lines, `#` comments
/// skipped, label values using `\\`/`\"`/`\n` escapes).
fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (ident, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => continue,
        };
        let value: f64 = match value.trim().parse() {
            Ok(v) => v,
            Err(_) => continue,
        };
        let (name, labels) = match ident.split_once('{') {
            None => (ident.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').unwrap_or(rest);
                let mut labels = Vec::new();
                let mut chars = body.chars().peekable();
                while chars.peek().is_some() {
                    let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
                    if chars.next() != Some('"') {
                        break;
                    }
                    let mut val = String::new();
                    while let Some(c) = chars.next() {
                        match c {
                            '"' => break,
                            '\\' => match chars.next() {
                                Some('n') => val.push('\n'),
                                Some(e) => val.push(e),
                                None => break,
                            },
                            c => val.push(c),
                        }
                    }
                    labels.push((key.trim().to_string(), val));
                    if chars.peek() == Some(&',') {
                        chars.next();
                    }
                }
                (name.to_string(), labels)
            }
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

/// The scalar value of the first sample with this family name.
fn gauge(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

/// Sums a counter family across all label sets (per-shard series).
fn counter_total(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value as u64)
        .sum()
}

/// Renders one scrape of the live plane: sliding-window quantiles per
/// (tenant, strategy), per-tenant goodput, SLO burn rates, and the
/// service job counters.
fn render_live(samples: &[Sample]) {
    let mut quant: BTreeMap<(String, String), BTreeMap<String, f64>> = BTreeMap::new();
    for s in samples
        .iter()
        .filter(|s| s.name == "regent_live_job_latency_ns")
    {
        if let (Some(t), Some(st), Some(q)) =
            (s.label("tenant"), s.label("strategy"), s.label("quantile"))
        {
            quant
                .entry((t.to_string(), st.to_string()))
                .or_default()
                .insert(q.to_string(), s.value);
        }
    }
    if !quant.is_empty() {
        println!("== live latency (sliding window) ==");
        println!(
            "{:>8} {:>10} {:>10} {:>10}",
            "tenant", "strategy", "p50_ms", "p99_ms"
        );
        for ((tenant, strategy), qs) in &quant {
            println!(
                "{:>8} {:>10} {:>10.2} {:>10.2}",
                tenant,
                strategy,
                qs.get("0.5").copied().unwrap_or(0.0) / 1e6,
                qs.get("0.99").copied().unwrap_or(0.0) / 1e6,
            );
        }
        println!();
    }
    let goodput: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "regent_live_goodput_jps")
        .collect();
    if !goodput.is_empty() {
        println!("== live goodput ==");
        for s in &goodput {
            println!(
                "tenant {:>4}: {:>8.2} jobs/s",
                s.label("tenant").unwrap_or("?"),
                s.value
            );
        }
        println!();
    }
    println!("== SLO burn rates ==");
    let target_ms = gauge(samples, "regent_slo_p99_target_ms").unwrap_or(0.0);
    let window_s = gauge(samples, "regent_slo_window_seconds").unwrap_or(0.0);
    for (label, name) in [
        ("p99 ", "regent_slo_p99_burn_rate"),
        ("shed", "regent_slo_shed_burn_rate"),
    ] {
        let burn = gauge(samples, name).unwrap_or(0.0);
        let flag = if burn > 1.0 { "  BURNING" } else { "" };
        println!("{label} burn rate: {burn:>8.4}{flag}");
    }
    println!("(p99 target {target_ms:.0} ms over a {window_s:.0} s window)");
    println!();
    println!("== job counters (since start) ==");
    for name in [
        "jobs_admitted",
        "jobs_completed",
        "jobs_shed",
        "jobs_retried",
        "jobs_cancelled",
        "jobs_quarantined",
    ] {
        let total = counter_total(samples, &format!("regent_{name}_total"));
        if total > 0 || name == "jobs_admitted" {
            println!("{name:>18}: {total}");
        }
    }
}

/// `--live` mode: polls the scrape endpoint `polls` times, rendering
/// each sample. Exits nonzero if the endpoint never answered.
fn live_mode(addr: &str, polls: usize, interval_ms: u64) {
    let mut ok = 0usize;
    for poll in 1..=polls {
        match regent_runtime::scrape::fetch(addr) {
            Ok(body) => {
                ok += 1;
                println!("== live scrape {poll}/{polls}: {addr} ==");
                render_live(&parse_exposition(&body));
            }
            Err(e) => eprintln!("scrape {poll}/{polls}: {addr}: {e}"),
        }
        if poll < polls {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    if ok == 0 {
        eprintln!("live: no successful scrape of {addr} in {polls} attempt(s)");
        std::process::exit(1);
    }
}

fn certify(trace: &Trace) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let dropped: u64 = trace.tracks.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        problems.push(format!(
            "{dropped} events lost to ring wrap-around (record incomplete)"
        ));
    }
    if let Err(e) = build_graph(trace) {
        problems.push(format!("happens-before graph: {e}"));
    }
    let integ = integrity_summary(trace);
    if !integ.coherent() {
        problems.push(format!(
            "integrity record incoherent: {} detected vs {} repair attempts + {} escalated",
            integ.detected, integ.repair_attempts, integ.escalated
        ));
    }
    let fo = failover_summary(trace);
    if !fo.coherent() {
        problems.push(format!(
            "failover record incoherent: {} deaths vs {} membership changes",
            fo.deaths, fo.membership_changes
        ));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    let mut live_addr: Option<String> = None;
    let mut polls: usize = 1;
    let mut interval_ms: u64 = 1000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                trace_path = Some(args.get(i + 1).expect("--trace <path>").clone());
                i += 2;
            }
            "--flame" => {
                flame_path = Some(args.get(i + 1).expect("--flame <path>").clone());
                i += 2;
            }
            "--live" => {
                live_addr = Some(args.get(i + 1).expect("--live <addr>").clone());
                i += 2;
            }
            "--polls" => {
                polls = args
                    .get(i + 1)
                    .expect("--polls <n>")
                    .parse()
                    .expect("--polls takes an int");
                i += 2;
            }
            "--interval-ms" => {
                interval_ms = args
                    .get(i + 1)
                    .expect("--interval-ms <ms>")
                    .parse()
                    .expect("--interval-ms takes an int");
                i += 2;
            }
            other => panic!(
                "unknown argument {other} (usage: regent-prof --trace <path> [--flame <path>] \
                 | --live <addr> [--polls n] [--interval-ms m])"
            ),
        }
    }
    if let Some(addr) = &live_addr {
        live_mode(addr, polls.max(1), interval_ms);
        return;
    }
    let trace_path = trace_path.expect("regent-prof requires --trace <path> (or --live <addr>)");
    let text = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| panic!("cannot read {trace_path}: {e}"));
    let trace = import_trace(&text).unwrap_or_else(|e| panic!("{trace_path}: {e}"));

    println!("== profile: {trace_path} ==");
    let prof = ProfReport::analyze(&trace);
    print!("{}", prof.format_table());
    println!();

    let (sim_tracks, exec_tracks): (Vec<_>, Vec<_>) =
        trace.tracks.iter().partition(|t| is_sim_track(t));
    // Counter/Mark-only tracks (figure series) are display data, not an
    // execution record — blame needs at least one real executor event.
    let has_exec_events = exec_tracks.iter().any(|t| {
        t.events
            .iter()
            .any(|e| !matches!(e.kind, EventKind::Counter { .. } | EventKind::Mark { .. }))
    });
    if has_exec_events {
        println!("== critical-path blame ==");
        match blame_report(&trace) {
            Ok(rep) => print!("{}", rep.format_table()),
            Err(e) => println!("blame unavailable: {e}"),
        }
        println!();
        println!("== load imbalance ==");
        print!("{}", imbalance_report(&trace).format());
        println!();
    }
    if let Some(by_tenant) = service_summary(&trace) {
        println!("== service summary (per tenant) ==");
        println!(
            "{:>8} {:>9} {:>6} {:>8} {:>9} {:>16}",
            "tenant", "admitted", "shed", "retried", "degraded", "queue_wait_ns"
        );
        for (tenant, s) in &by_tenant {
            println!(
                "{:>8} {:>9} {:>6} {:>8} {:>9} {:>16}",
                tenant, s.admitted, s.shed, s.retried, s.degraded, s.queue_wait_ns
            );
        }
        println!();
    }
    let fo = failover_summary(&trace);
    if fo.deaths > 0 || fo.membership_changes > 0 {
        println!("== failover summary ==");
        println!(
            "deaths: {} (killed {}, panicked {}, hung {})",
            fo.deaths, fo.killed, fo.panicked, fo.hung
        );
        println!(
            "membership changes: {} (final membership {} shards)",
            fo.membership_changes, fo.final_shards
        );
        println!(
            "reconstructions: {} ({} instances rebuilt, {:.1} us)",
            fo.reconstructions,
            fo.insts_rebuilt,
            fo.reconstruct_ns as f64 / 1e3
        );
        println!();
    }
    if !sim_tracks.is_empty() {
        println!("== simulated-schedule blame (per track) ==");
        for t in &sim_tracks {
            if let Some((bound_ns, blame)) = sim_blame(&trace, &t.name) {
                let mut phases = String::new();
                for p in Phase::ALL {
                    if blame.get(p) > 0 {
                        write!(phases, " {}={}", p.name(), blame.get(p)).unwrap();
                    }
                }
                println!("{:>20}  bound {:>14} ns {}", t.name, bound_ns, phases);
            }
        }
        println!();
    }

    if let Some(path) = &flame_path {
        let folded = collapsed_stacks(&trace);
        std::fs::write(path, &folded).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("flame: {} stacks -> {path}", folded.lines().count());
    }

    match certify(&trace) {
        Ok(()) => println!("certification: OK (acyclic, coherent integrity record, no drops)"),
        Err(problems) => {
            for p in &problems {
                eprintln!("certification: {p}");
            }
            eprintln!("certification: REFUSED ({} problem(s))", problems.len());
            std::process::exit(1);
        }
    }
}
