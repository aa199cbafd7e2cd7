//! `regent-prof` — the post-mortem profiler for trace files.
//!
//! Loads a trace file — written by `--trace` (real executor runs or
//! simulated schedules alike), one Chrome `trace_event` document whose
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
//! ```
//!
//! `--flame` writes collapsed stacks (`track;phase;event count_ns`
//! lines) suitable for any flamegraph renderer. A bad command line
//! exits with status 2 and a one-line usage message naming the flag.

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

/// True when the track records a simulated schedule (`SimTask` spans).
fn is_sim_track(t: &regent_trace::Track) -> bool {
    t.events
        .iter()
        .any(|e| matches!(e.kind, EventKind::SimTask { .. }))
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

/// How `regent-prof` is called.
const USAGE: &str = "usage: regent-prof --trace <path> [--flame <path>]";

/// Rejects the command line: `problem` and the usage on one line of
/// stderr, exit status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("regent-prof: {problem} ({USAGE})");
    std::process::exit(2);
}

/// Reports a failure that is not the command line's, exit status 1.
fn fail(problem: &str) -> ! {
    eprintln!("regent-prof: {problem}");
    std::process::exit(1);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut trace_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--trace" => &mut trace_path,
            "--flame" => &mut flame_path,
            other => usage_error(&format!("unknown argument {other}")),
        };
        match args.next() {
            Some(path) if !path.starts_with("--") => *slot = Some(path),
            _ => usage_error(&format!("{flag} takes a path")),
        }
    }
    let trace_path = trace_path.unwrap_or_else(|| usage_error("--trace <path> is required"));
    let text = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {trace_path}: {e}")));
    let trace = import_trace(&text).unwrap_or_else(|e| fail(&format!("{trace_path}: {e}")));

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
        std::fs::write(path, &folded)
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
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
