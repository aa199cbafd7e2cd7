//! The trace file's lossless half: the `regentTracks` sidecar
//! [`export_chrome`](crate::export_chrome) embeds beside its display
//! events, and [`import_trace`], which reads it back for offline
//! tooling (`regent-prof`).
//!
//! An event is `{"ts":…,"dur":…,"k":"<tag>","<field>":<value>,…}`: the
//! tag and fields the `event_kinds!` table in [`crate::event`] states
//! for its kind, each value in its type's `Wire` form. A `u64` at or
//! above 2^53 (field masks, memo keys, instance ids) is written as a decimal
//! *string* so it survives the JSON number round-trip exactly, and the
//! reader refuses any value its field's type cannot hold instead of
//! converting it.

use crate::event::{CorruptSite, Event, EventKind, PrivCode, SimKind};
use crate::json::{escape_into, parse, Value};
use crate::tracer::{Trace, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// A parsed JSON object.
pub(crate) type Obj = BTreeMap<String, Value>;

/// Interns `s`, returning a `&'static str` with the same contents.
/// Used when importing events whose schema carries static names
/// (`Pass`, `Counter`, `Mark`); repeated names share one allocation.
pub(crate) fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut pool = pool.lock().unwrap();
    if let Some(&v) = pool.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(s.to_string(), leaked);
    leaked
}

/// How a field type is written into a trace file and read back.
pub(crate) trait Wire: Sized {
    /// Appends the value as JSON.
    fn put(&self, out: &mut String);
    /// Reads a value [`Wire::put`] wrote; `Err` says why `v` is not one.
    fn get(v: &Value) -> Result<Self, String>;
}

/// Integers below 2^53 are exact as JSON numbers.
const EXACT: u64 = 1 << 53;

/// `v` as an integer in `0..=max`, if it is one.
fn integer(v: &Value, max: u64) -> Result<u64, String> {
    match *v {
        Value::Num(n) if n.fract() == 0.0 && (0.0..=max as f64).contains(&n) => Ok(n as u64),
        _ => Err(format!("{v:?} is not an integer in 0..={max}")),
    }
}

fn put_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn get_str(v: &Value) -> Result<&str, String> {
    v.as_str().ok_or_else(|| format!("{v:?} is not a string"))
}

impl Wire for u32 {
    fn put(&self, out: &mut String) {
        write!(out, "{self}").unwrap();
    }
    fn get(v: &Value) -> Result<u32, String> {
        integer(v, u32::MAX.into()).map(|n| n as u32)
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut String) {
        if *self < EXACT {
            write!(out, "{self}")
        } else {
            write!(out, "\"{self}\"")
        }
        .unwrap();
    }
    fn get(v: &Value) -> Result<u64, String> {
        match v {
            Value::Str(s) if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => {
                s.parse().map_err(|_| format!("{s:?} overflows a u64"))
            }
            Value::Str(s) => Err(format!("{s:?} is not a decimal u64")),
            _ => integer(v, EXACT - 1),
        }
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        write!(out, "{self}").unwrap();
    }
    fn get(v: &Value) -> Result<bool, String> {
        match *v {
            Value::Bool(b) => Ok(b),
            _ => Err(format!("{v:?} is not a boolean")),
        }
    }
}

impl Wire for f64 {
    /// JSON has no spelling for a non-finite value; it is written as 0.
    fn put(&self, out: &mut String) {
        let v = if self.is_finite() { *self } else { 0.0 };
        write!(out, "{v}").unwrap();
    }
    fn get(v: &Value) -> Result<f64, String> {
        v.as_num().ok_or_else(|| format!("{v:?} is not a number"))
    }
}

impl Wire for &'static str {
    fn put(&self, out: &mut String) {
        put_str(out, self);
    }
    fn get(v: &Value) -> Result<&'static str, String> {
        get_str(v).map(intern)
    }
}

impl Wire for PrivCode {
    fn put(&self, out: &mut String) {
        match self {
            PrivCode::Read => put_str(out, "read"),
            PrivCode::Write => put_str(out, "write"),
            PrivCode::Reduce(op) => write!(out, "\"reduce:{op}\"").unwrap(),
        }
    }
    fn get(v: &Value) -> Result<PrivCode, String> {
        match get_str(v)? {
            "read" => Ok(PrivCode::Read),
            "write" => Ok(PrivCode::Write),
            s => s
                .strip_prefix("reduce:")
                .and_then(|op| op.parse().ok())
                .map(PrivCode::Reduce)
                .ok_or_else(|| format!("unknown privilege {s:?}")),
        }
    }
}

const SITES: [(CorruptSite, &str); 3] = [
    (CorruptSite::Exchange, "exchange"),
    (CorruptSite::Resident, "resident"),
    (CorruptSite::Collective, "collective"),
];

const SIM_KINDS: [(SimKind, &str); 7] = [
    (SimKind::Launch, "launch"),
    (SimKind::Analysis, "analysis"),
    (SimKind::Compute, "compute"),
    (SimKind::Copy, "copy"),
    (SimKind::Collective, "collective"),
    (SimKind::Log, "log"),
    (SimKind::Other, "other"),
];

fn put_name<T: PartialEq>(out: &mut String, names: &[(T, &str)], v: &T) {
    let (_, name) = names
        .iter()
        .find(|(t, _)| t == v)
        .expect("every variant is named");
    put_str(out, name);
}

fn get_name<T: Copy>(v: &Value, names: &[(T, &str)]) -> Result<T, String> {
    let s = get_str(v)?;
    names
        .iter()
        .find(|(_, name)| *name == s)
        .map(|&(t, _)| t)
        .ok_or_else(|| format!("unknown name {s:?}"))
}

impl Wire for CorruptSite {
    fn put(&self, out: &mut String) {
        put_name(out, &SITES, self);
    }
    fn get(v: &Value) -> Result<CorruptSite, String> {
        get_name(v, &SITES)
    }
}

impl Wire for SimKind {
    fn put(&self, out: &mut String) {
        put_name(out, &SIM_KINDS, self);
    }
    fn get(v: &Value) -> Result<SimKind, String> {
        get_name(v, &SIM_KINDS)
    }
}

/// Writes the sidecar: `[{"name":…,"dropped":…,"events":[…]},…]`.
pub(crate) fn write_tracks(out: &mut String, trace: &Trace) {
    out.push('[');
    for (ti, track) in trace.tracks.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        put_str(out, &track.name);
        out.push_str(",\"dropped\":");
        track.dropped.put(out);
        out.push_str(",\"events\":[");
        for (ei, e) in track.events.iter().enumerate() {
            if ei > 0 {
                out.push(',');
            }
            out.push_str("{\"ts\":");
            e.ts.put(out);
            out.push_str(",\"dur\":");
            e.dur.put(out);
            out.push(',');
            e.kind.write_wire(out);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
}

/// `o[key]` as a `T`; an error names the field and `kind`, the event
/// kind (or `track`) the object is.
pub(crate) fn take<T: Wire>(o: &Obj, kind: &str, key: &str) -> Result<T, String> {
    let v = o
        .get(key)
        .ok_or_else(|| format!("{kind}: missing field {key:?}"))?;
    T::get(v).map_err(|e| format!("{kind}.{key}: {e}"))
}

fn read_event(v: &Value) -> Result<Event, String> {
    let o = v.as_obj().ok_or("event is not an object")?;
    let kind = EventKind::read_wire(o)?;
    Ok(Event {
        ts: take(o, kind.tag(), "ts")?,
        dur: take(o, kind.tag(), "dur")?,
        kind,
    })
}

fn read_track(v: &Value) -> Result<Track, String> {
    let o = v.as_obj().ok_or("track is not an object")?;
    let name = o.get("name").and_then(Value::as_str);
    let events = o.get("events").and_then(Value::as_arr);
    Ok(Track {
        name: name.ok_or("track without a name")?.to_string(),
        events: events
            .ok_or("track without an events array")?
            .iter()
            .map(read_event)
            .collect::<Result<_, _>>()?,
        dropped: take(o, "track", "dropped")?,
    })
}

/// Parses a trace file: the `regentTracks` sidecar of a document
/// written by [`export_chrome`](crate::export_chrome). A plain Chrome
/// file without the sidecar is rejected with an explanation (its events
/// are lossy display records, not an execution log).
pub fn import_trace(text: &str) -> Result<Trace, String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let tracks = doc.get("regentTracks").ok_or(
        "no regentTracks key: this file is not a regent trace (a bare Chrome trace_event \
         file cannot be re-analyzed; re-export it with --trace from this repo's tools)",
    )?;
    let tracks = tracks.as_arr().ok_or("regentTracks is not an array")?;
    Ok(Trace {
        tracks: tracks.iter().map(read_track).collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export_chrome;
    use crate::tracer::Tracer;

    /// One event of every kind, in table order, with edge values:
    /// `u64::MAX` in `inst`, `fields` and `key`, 2^53 ± 1, and
    /// names JSON must escape. The `match` is exhaustive, so a kind
    /// added to the table does not compile until it is listed here.
    fn every_kind() -> Vec<EventKind> {
        use EventKind::*;
        let all = vec![
            TaskLaunch {
                launch: 1,
                pos: 2,
                task: 3,
            },
            TaskRun {
                launch: 1,
                pos: 2,
                task: u32::MAX,
            },
            TaskAccess {
                launch: 1,
                pos: 2,
                region: 4,
                inst: u64::MAX,
                fields: u64::MAX,
                privilege: PrivCode::Reduce(2),
            },
            DepAnalysis {
                launch: 1,
                pos: 2,
                checks: 7,
            },
            DepEdge {
                from_launch: 1,
                from_pos: 2,
                to_launch: 3,
                to_pos: 4,
            },
            Drain,
            CopyIssue {
                copy: 3,
                pair: 1,
                seq: 0,
                elements: EXACT - 1,
                dst_shard: 1,
            },
            CopyApply {
                copy: 3,
                pair: 1,
                seq: 0,
                region: 4,
                inst: u64::MAX,
                fields: u64::MAX,
                reduce: true,
            },
            BarrierArrive { generation: EXACT },
            BarrierLeave {
                generation: EXACT + 1,
            },
            CollectiveArrive { generation: 6 },
            CollectiveLeave { generation: 7 },
            StepBegin { step: 8 },
            CheckpointSave { epoch: 9 },
            CheckpointRestore {
                epoch: 10,
                to_epoch: 8,
            },
            ShardCrash { shard: 3, epoch: 2 },
            PeerDeath {
                shard: 3,
                cause: 2,
                epoch: 2,
            },
            MembershipChange {
                from_shards: 4,
                to_shards: 3,
                dead_shard: 3,
                epoch: 2,
            },
            FailoverReconstruct {
                to_shards: 3,
                insts: 12,
                epoch: 2,
            },
            CorruptDetected {
                site: CorruptSite::Collective,
                id: 1,
                sub: 2,
                epoch: 5,
            },
            CorruptRepaired {
                site: CorruptSite::Exchange,
                id: 1,
                sub: 2,
                attempts: 3,
            },
            CorruptEscalated { shard: 1, epoch: 5 },
            MemoCapture {
                epoch: 3,
                key: u64::MAX,
                tasks: 9,
            },
            MemoHit {
                epoch: 4,
                key: 0xdead_beef_dead_beef,
                tasks: 9,
            },
            MemoMiss { epoch: 5, at: 2 },
            MemoInvalidate { templates: 3 },
            MemoReplay { launch: 5, pos: 0 },
            LogAppend {
                epoch: 1,
                batch: 2,
                records: 3,
            },
            LogCombine {
                batch: 2,
                records: 3,
            },
            LogConsume {
                replica: 1,
                batch: 2,
                records: 3,
                lag: 1,
            },
            Pass {
                name: "lower \"cr\"",
            },
            SimTask {
                kind: SimKind::Other,
                node: 7,
                step: 2,
            },
            Counter {
                name: "q\\depth",
                value: -2.5,
            },
            Mark { name: "m\n\u{1}" },
        ];
        let order = |k: &EventKind| match k {
            TaskLaunch { .. } => 0,
            TaskRun { .. } => 1,
            TaskAccess { .. } => 2,
            DepAnalysis { .. } => 3,
            DepEdge { .. } => 4,
            Drain => 5,
            CopyIssue { .. } => 6,
            CopyApply { .. } => 7,
            BarrierArrive { .. } => 8,
            BarrierLeave { .. } => 9,
            CollectiveArrive { .. } => 10,
            CollectiveLeave { .. } => 11,
            StepBegin { .. } => 12,
            CheckpointSave { .. } => 13,
            CheckpointRestore { .. } => 14,
            ShardCrash { .. } => 15,
            PeerDeath { .. } => 16,
            MembershipChange { .. } => 17,
            FailoverReconstruct { .. } => 18,
            CorruptDetected { .. } => 19,
            CorruptRepaired { .. } => 20,
            CorruptEscalated { .. } => 21,
            MemoCapture { .. } => 22,
            MemoHit { .. } => 23,
            MemoMiss { .. } => 24,
            MemoInvalidate { .. } => 25,
            MemoReplay { .. } => 26,
            LogAppend { .. } => 27,
            LogCombine { .. } => 28,
            LogConsume { .. } => 29,
            Pass { .. } => 30,
            SimTask { .. } => 31,
            Counter { .. } => 32,
            Mark { .. } => 33,
        };
        assert!(
            all.iter().map(order).eq(0..all.len()),
            "one event per kind, in table order"
        );
        all
    }

    /// Every kind, alternating between two tracks (so the copy issue
    /// and its apply land on different ones and get a flow arrow), the
    /// second with a hostile name and `u64::MAX` drops.
    fn sample_trace() -> Trace {
        let tracer = Tracer::enabled();
        let mut tracks = [tracer.buffer("shard-0"), tracer.buffer("shard-1 \"x\"\n\\")];
        for (i, kind) in every_kind().into_iter().enumerate() {
            tracks[i % 2].push(10 * i as u64, i as u64 % 3, kind);
        }
        drop(tracks);
        let mut trace = tracer.take();
        trace.tracks[1].dropped = u64::MAX;
        trace
    }

    #[test]
    fn every_kind_roundtrips_losslessly() {
        let trace = sample_trace();
        let back = import_trace(&export_chrome(&trace)).unwrap();
        assert_eq!(back.tracks.len(), trace.tracks.len());
        for (a, b) in trace.tracks.iter().zip(back.tracks.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.dropped, b.dropped);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn chrome_events_are_one_per_track_event_and_flow_end() {
        let trace = sample_trace();
        let doc = parse(&export_chrome(&trace)).expect("the document parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .count()
        };
        assert_eq!(phase("M"), trace.tracks.len());
        assert_eq!(phase("X") + phase("i") + phase("C"), trace.num_events());
        assert_eq!((phase("s"), phase("f")), (1, 1), "one matched copy");
        assert_eq!(events.len(), trace.tracks.len() + trace.num_events() + 2);
        // The display args are the table's fields, in their wire form.
        let access = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("access L1[2]"))
            .expect("the access event");
        let args = access.get("args").unwrap();
        assert_eq!(args.get("k").unwrap().as_str(), Some("task_access"));
        assert_eq!(
            args.get("inst").unwrap().as_str(),
            Some("18446744073709551615")
        );
        assert_eq!(args.get("privilege").unwrap().as_str(), Some("reduce:2"));
    }

    #[test]
    fn chrome_export_embeds_importable_tracks() {
        let trace = sample_trace();
        let chrome = export_chrome(&trace);
        let back = import_trace(&chrome).unwrap();
        assert_eq!(back.tracks[0].events, trace.tracks[0].events);
    }

    #[test]
    fn dropped_counts_survive() {
        let mut trace = sample_trace();
        trace.tracks[0].dropped = 41;
        let back = import_trace(&export_chrome(&trace)).unwrap();
        assert_eq!(back.tracks[0].dropped, 41);
    }

    #[test]
    fn bare_chrome_and_garbage_are_rejected() {
        assert!(import_trace("{\"traceEvents\":[]}").is_err());
        assert!(import_trace("not json").is_err());
    }

    #[test]
    fn named_values_roundtrip() {
        fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
            let mut out = String::new();
            v.put(&mut out);
            assert_eq!(T::get(&parse(&out).unwrap()), Ok(v), "{out}");
        }
        SITES.iter().for_each(|&(site, _)| roundtrip(site));
        SIM_KINDS.iter().for_each(|&(kind, _)| roundtrip(kind));
        for p in [PrivCode::Read, PrivCode::Write, PrivCode::Reduce(255)] {
            roundtrip(p);
        }
    }

    /// Numbers a field's type cannot hold are refused, naming the
    /// field and the event kind; nothing is converted with `as`.
    #[test]
    fn unrepresentable_numbers_are_rejected() {
        let doc = |dropped: &str, event: &str| {
            format!(
                "{{\"regentTracks\":[{{\"name\":\"t\",\"dropped\":{dropped},\"events\":[{event}]}}]}}"
            )
        };
        let launch = |launch: &str, pos: &str, ts: &str| {
            format!(
                "{{\"ts\":{ts},\"dur\":0,\"k\":\"task_launch\",\"launch\":{launch},\"pos\":{pos},\
                 \"task\":0}}"
            )
        };
        let barrier = |generation: &str| {
            format!("{{\"ts\":0,\"dur\":0,\"k\":\"barrier_arrive\",\"generation\":{generation}}}")
        };
        let ok = [
            doc("0", &launch("4294967295", "0", "9007199254740991")),
            doc(
                "\"18446744073709551615\"",
                &barrier("\"18446744073709551615\""),
            ),
        ];
        for text in &ok {
            assert!(import_trace(text).is_ok(), "{text}");
        }
        let refused = [
            (
                doc("0", &launch("4294967296", "0", "0")),
                "task_launch.launch",
            ),
            (doc("0", &launch("0", "-1", "0")), "task_launch.pos"),
            (doc("0", &launch("0", "0", "1.5")), "task_launch.ts"),
            (doc("-3", &barrier("0")), "track.dropped"),
            (doc("0", &barrier("1e300")), "barrier_arrive.generation"),
            (doc("0", &barrier("\"12x\"")), "barrier_arrive.generation"),
            (
                doc("0", &barrier("9007199254740992")),
                "barrier_arrive.generation",
            ),
            (doc("0", &launch("1e300", "0", "0")), "task_launch.launch"),
        ];
        for (text, field) in &refused {
            let err = import_trace(text).expect_err(text);
            assert!(err.starts_with(field), "{text}: {err}");
        }
    }

    #[test]
    fn interning_dedupes() {
        let a = intern("segment-sequential-test");
        let b = intern("segment-sequential-test");
        assert!(std::ptr::eq(a, b));
    }
}
