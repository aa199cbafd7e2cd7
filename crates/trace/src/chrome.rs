//! The trace file: a Chrome `trace_event` document (hand-rolled, no
//! serde) that also carries the lossless execution record.
//!
//! The output is the "JSON Object Format" understood by
//! `chrome://tracing` and Perfetto: a `traceEvents` array of complete
//! (`"ph":"X"`), instant (`"ph":"i"`), counter (`"ph":"C"`), and
//! metadata (`"ph":"M"`) events. Timestamps are microseconds; each
//! track becomes one thread (`tid`) named via `thread_name` metadata.
//! Beside it, under `regentTracks`, sits the sidecar
//! [`crate::serial`] writes and [`crate::import_trace`] reads back, so
//! every trace file the system writes (`--trace`) is both
//! Perfetto-loadable and certifiable by `regent-prof`.

use crate::event::{Event, EventKind};
use crate::json::escape_into;
use crate::serial::{write_tracks, Wire};
use crate::tracer::Trace;
use std::fmt::Write as _;

/// Exports a trace as the trace document: Chrome trace-event JSON whose
/// display events carry their kind's fields as `args`, plus flow events
/// (`"ph":"s"`/`"ph":"f"`) between SPMD copy send→recv pairs so
/// Perfetto draws arrows between shard tracks, plus the lossless event
/// log under a sibling `regentTracks` key so the same file can be
/// re-analyzed offline. Every string in it is JSON-escaped.
pub fn export_chrome(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 * 1024 + trace.num_events() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, track) in trace.tracks.iter().enumerate() {
        sep(&mut out, &mut first);
        write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\""
        )
        .unwrap();
        escape_into(&mut out, &track.name);
        out.push_str("\"}}");
        for e in &track.events {
            sep(&mut out, &mut first);
            write_event(&mut out, tid, e);
        }
    }
    write_copy_flows(&mut out, trace, &mut first);
    out.push_str("],\"displayTimeUnit\":\"ms\",\"regentTracks\":");
    write_tracks(&mut out, trace);
    out.push('}');
    out
}

/// Emits one flow (`s` start on the issue span, `f` finish bound to
/// the enclosing apply span) per matched copy pair: the k-th issue of a
/// `(copy, pair, seq)` identity links to its k-th apply — the same
/// matching rule [`crate::build_graph`] uses for happens-before edges.
fn write_copy_flows(out: &mut String, trace: &Trace, first: &mut bool) {
    use std::collections::HashMap;
    // (copy, pair, seq) -> queues of (tid, ts) for issues and applies.
    #[allow(clippy::type_complexity)]
    let mut issues: HashMap<(u32, u32, u32), Vec<(usize, u64)>> = HashMap::new();
    let mut applies: HashMap<(u32, u32, u32), Vec<(usize, u64)>> = HashMap::new();
    for (tid, track) in trace.tracks.iter().enumerate() {
        for e in &track.events {
            match e.kind {
                EventKind::CopyIssue {
                    copy, pair, seq, ..
                } => issues
                    .entry((copy, pair, seq))
                    .or_default()
                    .push((tid, e.ts)),
                EventKind::CopyApply {
                    copy, pair, seq, ..
                } => applies
                    .entry((copy, pair, seq))
                    .or_default()
                    .push((tid, e.ts)),
                _ => {}
            }
        }
    }
    let mut keys: Vec<_> = applies.keys().copied().collect();
    keys.sort_unstable();
    let mut id = 0u64;
    for key in keys {
        let (copy, pair, _) = key;
        let iss = issues.get(&key).map(|v| v.as_slice()).unwrap_or(&[]);
        for (k, &(apply_tid, apply_ts)) in applies[&key].iter().enumerate() {
            let Some(&(issue_tid, issue_ts)) = iss.get(k) else {
                continue; // unmatched apply: no arrow
            };
            id += 1;
            sep(out, first);
            write!(
                out,
                "{{\"ph\":\"s\",\"id\":{id},\"name\":\"copy {copy}.{pair}\",\"cat\":\"copy\",\
                 \"pid\":0,\"tid\":{issue_tid},\"ts\":{}}}",
                us(issue_ts)
            )
            .unwrap();
            sep(out, first);
            write!(
                out,
                "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"name\":\"copy {copy}.{pair}\",\
                 \"cat\":\"copy\",\"pid\":0,\"tid\":{apply_tid},\"ts\":{}}}",
                us(apply_ts)
            )
            .unwrap();
        }
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn write_event(out: &mut String, tid: usize, e: &Event) {
    let ts = us(e.ts);
    if let EventKind::Counter { name, value } = e.kind {
        out.push_str("{\"ph\":\"C\",\"name\":\"");
        escape_into(out, name);
        write!(
            out,
            "\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"value\":"
        )
        .unwrap();
        value.put(out);
        out.push_str("}}");
        return;
    }
    let ph = if e.dur > 0 { "X" } else { "i" };
    write!(out, "{{\"ph\":\"{ph}\",\"name\":\"").unwrap();
    escape_into(out, &kind_name(&e.kind));
    write!(out, "\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}").unwrap();
    if e.dur > 0 {
        write!(out, ",\"dur\":{}", us(e.dur)).unwrap();
    } else {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    e.kind.write_wire(out);
    out.push_str("}}");
}

/// The display title of an event.
fn kind_name(k: &EventKind) -> String {
    match k {
        EventKind::TaskLaunch { launch, pos, .. } => format!("launch L{launch}[{pos}]"),
        EventKind::TaskRun { launch, pos, .. } => format!("run L{launch}[{pos}]"),
        EventKind::TaskAccess { launch, pos, .. } => format!("access L{launch}[{pos}]"),
        EventKind::DepAnalysis { launch, pos, .. } => format!("analyze L{launch}[{pos}]"),
        EventKind::DepEdge { .. } => "dep edge".into(),
        EventKind::Drain => "pool drain".into(),
        EventKind::CopyIssue { copy, pair, .. } => format!("copy {copy}.{pair} send"),
        EventKind::CopyApply { copy, pair, .. } => format!("copy {copy}.{pair} apply"),
        EventKind::BarrierArrive { .. } => "barrier arrive".into(),
        EventKind::BarrierLeave { .. } => "barrier leave".into(),
        EventKind::CollectiveArrive { .. } => "collective arrive".into(),
        EventKind::CollectiveLeave { .. } => "collective leave".into(),
        EventKind::StepBegin { step } => format!("step {step}"),
        EventKind::CheckpointSave { epoch } => format!("checkpoint save e{epoch}"),
        EventKind::CheckpointRestore { epoch, to_epoch } => {
            format!("restore e{epoch}->e{to_epoch}")
        }
        EventKind::ShardCrash { shard, epoch } => format!("crash s{shard} e{epoch}"),
        EventKind::PeerDeath {
            shard,
            cause,
            epoch,
        } => {
            let why = match cause {
                0 => "killed",
                1 => "panicked",
                _ => "hung",
            };
            format!("peer death s{shard} ({why}) e{epoch}")
        }
        EventKind::MembershipChange {
            from_shards,
            to_shards,
            dead_shard,
            epoch,
        } => format!("membership {from_shards}->{to_shards} (-s{dead_shard}) e{epoch}"),
        EventKind::FailoverReconstruct {
            to_shards,
            insts,
            epoch,
        } => format!("reconstruct {to_shards} shards ({insts} insts) e{epoch}"),
        EventKind::CorruptDetected { site, id, sub, .. } => {
            format!("corrupt {site:?} {id}.{sub} detected")
        }
        EventKind::CorruptRepaired {
            site, id, attempts, ..
        } => format!("corrupt {site:?} {id} repaired ({attempts} bad)"),
        EventKind::CorruptEscalated { shard, epoch } => {
            format!("corrupt escalate s{shard} e{epoch}")
        }
        EventKind::MemoCapture { epoch, .. } => format!("memo capture e{epoch}"),
        EventKind::MemoHit { epoch, .. } => format!("memo hit e{epoch}"),
        EventKind::MemoMiss { epoch, at } => format!("memo miss e{epoch}@{at}"),
        EventKind::MemoInvalidate { templates } => format!("memo invalidate ({templates})"),
        EventKind::MemoReplay { launch, pos } => format!("memo replay L{launch}[{pos}]"),
        EventKind::LogAppend { epoch, records, .. } => format!("log append e{epoch} ({records})"),
        EventKind::LogCombine { batch, records } => format!("log combine b{batch} ({records})"),
        EventKind::LogConsume { replica, batch, .. } => format!("log consume r{replica} b{batch}"),
        EventKind::Pass { name } => format!("pass {name}"),
        EventKind::SimTask { kind, step, .. } => format!("{kind:?} s{step}"),
        EventKind::Counter { name, .. } => (*name).to_string(),
        EventKind::Mark { name } => (*name).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::tracer::Tracer;

    #[test]
    fn export_parses_and_has_all_events() {
        let tracer = Tracer::enabled();
        let mut b = tracer.buffer("shard \"0\"\n"); // hostile name
        let t0 = b.now();
        b.instant(EventKind::TaskLaunch {
            launch: 1,
            pos: 2,
            task: 3,
        });
        b.span_since(
            t0,
            EventKind::TaskRun {
                launch: 1,
                pos: 2,
                task: 3,
            },
        );
        b.push(
            5,
            0,
            EventKind::Counter {
                name: "q",
                value: 1.25,
            },
        );
        drop(b);
        let trace = tracer.take();
        let out = export_chrome(&trace);
        let v = json::parse(&out).expect("exporter output must parse");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 metadata + 3 events.
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("shard \"0\"\n")
        );
        // Phases present as expected.
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, vec!["M", "i", "X", "C"]);
    }

    #[test]
    fn matched_copies_get_flow_arrows() {
        let tracer = Tracer::enabled();
        let mut b = tracer.buffer("shard-0");
        b.push(
            0,
            5,
            EventKind::CopyIssue {
                copy: 3,
                pair: 1,
                seq: 0,
                elements: 8,
                dst_shard: 1,
            },
        );
        drop(b);
        let mut b = tracer.buffer("shard-1");
        b.push(
            9,
            2,
            EventKind::CopyApply {
                copy: 3,
                pair: 1,
                seq: 0,
                region: 2,
                inst: 5,
                fields: 1,
                reduce: false,
            },
        );
        drop(b);
        let out = export_chrome(&tracer.take());
        let v = json::parse(&out).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let start = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("s"))
            .expect("flow start");
        let finish = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("f"))
            .expect("flow finish");
        assert_eq!(start.get("id"), finish.get("id"));
        assert_eq!(start.get("tid").unwrap().as_num(), Some(0.0));
        assert_eq!(finish.get("tid").unwrap().as_num(), Some(1.0));
        assert_eq!(finish.get("bp").unwrap().as_str(), Some("e"));
        assert_eq!(start.get("name").unwrap().as_str(), Some("copy 3.1"));
    }

    #[test]
    fn hostile_names_are_escaped() {
        let name = crate::serial::intern("say \"hi\" \\ back\nslash\u{7}");
        let tracer = Tracer::enabled();
        let mut b = tracer.buffer("control");
        b.push(0, 0, EventKind::Mark { name });
        b.push(1, 2, EventKind::Pass { name });
        b.push(3, 0, EventKind::Counter { name, value: 1.5 });
        drop(b);
        let trace = tracer.take();
        let out = export_chrome(&trace);
        let v = json::parse(&out).expect("exporter output must parse");
        let titles: Vec<&str> = v.get("traceEvents").unwrap().as_arr().unwrap()[1..]
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            titles,
            [name.to_string(), format!("pass {name}"), name.into()]
        );
        let back = crate::import_trace(&out).unwrap();
        assert_eq!(back.tracks[0].events, trace.tracks[0].events);
    }
}
