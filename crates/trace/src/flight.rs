//! The flight recorder: an always-on, fixed-size black box.
//!
//! Tracing ([`Tracer`](crate::Tracer)) records *everything* and is
//! therefore opt-in; the flight recorder records only *milestones* —
//! the failover driver's peer deaths, membership changes and
//! fail-stops — into one bounded process-global ring, cheaply enough to
//! stay armed in every run. When something dies (a failover, a
//! `FAILOVER_EXHAUSTED` fail-stop), the last 1 024 (`FLIGHT_EVENTS`)
//! milestones plus a caller-supplied state snapshot (metrics JSON,
//! membership) are dumped to the recorder's dump directory
//! (`REGENT_FLIGHT_DIR`) as the one trace document every trace file is
//! ([`export_chrome`]: Perfetto-loadable, importable by `regent-prof`
//! and certifiable like any other trace) plus three `flight*` keys, so
//! every failover leaves a post-mortem artifact even when the run was
//! otherwise untraced.
//!
//! The ring intentionally forgets: old milestones are evicted in
//! recording order and the dump reports how many. Eviction is *not*
//! trace-ring wrap-around (`Track::dropped` stays 0 in the dump — the
//! recorded window is complete over its own span); the `flightEvicted`
//! key in the dump carries the forgotten count instead.
//!
//! This crate never reads the environment: whoever owns the process's
//! configuration installs the global recorder ([`global`]) with the
//! two values it needs — whether telemetry is on (`REGENT_METRICS_OFF`
//! turns the recorder off along with the metrics registry) and where
//! dumps go. `regent_runtime::flight` is that owner for the executors.

use crate::chrome::export_chrome;
use crate::event::{Event, EventKind};
use crate::json::escape_into;
use crate::tracer::{Trace, Track};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity (events): what a post-mortem gets to see.
const FLIGHT_EVENTS: usize = 1024;

/// One recorded milestone: the event plus the track name it would have
/// been recorded under in a full trace.
#[derive(Clone, Debug)]
struct Milestone {
    track: &'static str,
    event: Event,
}

/// The process-global flight recorder (see the module docs).
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    /// Where [`FlightRecorder::dump`] writes; `None` keeps the black
    /// box in memory only.
    dump_dir: Option<PathBuf>,
    epoch: Instant,
    ring: Mutex<VecDeque<Milestone>>,
    evicted: AtomicU64,
    dumps: AtomicU64,
}

/// The global recorder, built from the first caller's `config` —
/// whether it records, and where it dumps — and fixed from then on.
pub fn global(config: impl FnOnce() -> (bool, Option<PathBuf>)) -> &'static FlightRecorder {
    static REC: OnceLock<FlightRecorder> = OnceLock::new();
    REC.get_or_init(|| {
        let (enabled, dump_dir) = config();
        FlightRecorder::new(enabled, dump_dir)
    })
}

impl FlightRecorder {
    /// A recorder of [`FLIGHT_EVENTS`] milestones that records when
    /// `enabled` and dumps into `dump_dir`.
    fn new(enabled: bool, dump_dir: Option<PathBuf>) -> FlightRecorder {
        FlightRecorder {
            enabled,
            capacity: FLIGHT_EVENTS,
            dump_dir,
            epoch: Instant::now(),
            ring: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
        }
    }

    /// Whether milestones are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a milestone at the current time under `track`.
    /// A single branch when disabled.
    pub fn note(&self, track: &'static str, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let ts = self.epoch.elapsed().as_nanos() as u64;
        self.note_at(track, Event { ts, dur: 0, kind });
    }

    /// Records a fully formed milestone event under `track`.
    pub fn note_at(&self, track: &'static str, event: Event) {
        if !self.enabled {
            return;
        }
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Milestone { track, event });
    }

    /// Milestones evicted by capacity so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Milestones currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the ring as a [`Trace`]: one track per distinct
    /// track name, events in recording order, `dropped = 0` (the window
    /// is complete over its own span; eviction is reported separately).
    pub fn snapshot(&self) -> Trace {
        let ring = self.ring.lock().expect("flight ring poisoned");
        let mut tracks: Vec<Track> = Vec::new();
        for m in ring.iter() {
            match tracks.iter_mut().find(|t| t.name == m.track) {
                Some(t) => t.events.push(m.event),
                None => tracks.push(Track {
                    name: m.track.to_string(),
                    events: vec![m.event],
                    dropped: 0,
                }),
            }
        }
        Trace { tracks }
    }

    /// Serializes the black box as the trace document
    /// ([`export_chrome`]) plus three flight keys: `flightReason` (why
    /// the dump happened), `flightEvicted` and `flightState` (a
    /// caller-supplied JSON value — metrics snapshot, membership — or
    /// `null`). Perfetto opens it and `regent-prof` imports it like any
    /// written trace.
    pub fn to_document(&self, reason: &str, state_json: Option<&str>) -> String {
        let mut out = export_chrome(&self.snapshot());
        let closing = out.pop(); // the flight keys extend the document
        debug_assert_eq!(closing, Some('}'));
        out.push_str(",\"flightReason\":\"");
        escape_into(&mut out, reason);
        let state = state_json.filter(|s| !s.is_empty()).unwrap_or("null");
        write!(
            out,
            "\",\"flightEvicted\":{},\"flightState\":{state}}}",
            self.evicted()
        )
        .unwrap();
        out
    }

    /// Dumps the black box into the directory the recorder was built
    /// with as `flight-<reason>-<seq>.trace.json` and returns the path.
    /// Creates the directory if needed; failures are reported to
    /// stderr, never fatal (the flight recorder must not turn a crash
    /// into a worse crash). Returns `None` when disabled, without a
    /// directory (deployments opt into on-disk artifacts explicitly) or
    /// on write failure.
    pub fn dump(&self, reason: &str, state_json: Option<&str>) -> Option<PathBuf> {
        let dir = self.dump_dir.as_deref().filter(|_| self.enabled)?;
        let seq = self.dumps.fetch_add(1, Ordering::Relaxed);
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .take(48)
            .collect();
        let path = dir.join(format!("flight-{slug}-{seq}.trace.json"));
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("flight recorder: cannot create {}: {e}", dir.display());
            return None;
        }
        match std::fs::write(&path, self.to_document(reason, state_json)) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("flight recorder: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::import_trace;

    fn fresh(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ..FlightRecorder::new(true, None)
        }
    }

    #[test]
    fn notes_group_by_track_and_keep_order() {
        let rec = fresh(8);
        rec.note("flight", EventKind::Mark { name: "a" });
        rec.note(
            "failover",
            EventKind::PeerDeath {
                shard: 1,
                cause: 0,
                epoch: 2,
            },
        );
        rec.note("flight", EventKind::Mark { name: "b" });
        let t = rec.snapshot();
        assert_eq!(t.tracks.len(), 2);
        let f = t.track("flight").unwrap();
        assert_eq!(f.events.len(), 2);
        assert!(matches!(f.events[0].kind, EventKind::Mark { name: "a" }));
        assert!(matches!(f.events[1].kind, EventKind::Mark { name: "b" }));
        assert_eq!(f.dropped, 0);
        assert!(f.events[0].ts <= f.events[1].ts);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let rec = fresh(3);
        for i in 0..5u64 {
            rec.note_at(
                "flight",
                Event {
                    ts: i,
                    dur: 0,
                    kind: EventKind::StepBegin { step: i },
                },
            );
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
        let t = rec.snapshot();
        assert!(matches!(
            t.tracks[0].events[0].kind,
            EventKind::StepBegin { step: 2 }
        ));
    }

    #[test]
    fn document_roundtrips_through_import() {
        let rec = fresh(8);
        rec.note(
            "failover",
            EventKind::MembershipChange {
                from_shards: 4,
                to_shards: 3,
                dead_shard: 1,
                epoch: 2,
            },
        );
        let doc = rec.to_document("peer death: shard 1", Some("{\"jobs\":3}"));
        let back = import_trace(&doc).expect("flight document is a valid trace");
        assert_eq!(back.tracks.len(), 1);
        assert_eq!(back.tracks[0].name, "failover");
        let parsed = crate::json::parse(&doc).expect("flight document parses");
        let display = parsed.get("traceEvents").and_then(|v| v.as_arr());
        assert!(!display.expect("a Chrome document").is_empty());
        assert_eq!(
            parsed.get("flightEvicted").and_then(|v| v.as_num()),
            Some(0.0)
        );
        // Sidecar keys survive as plain JSON (spot-check the raw text).
        assert!(doc.contains("\"flightReason\":\"peer death: shard 1\""));
        assert!(doc.contains("\"flightState\":{\"jobs\":3}"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::new(false, Some("/nonexistent".into()));
        rec.note("flight", EventKind::Mark { name: "m" });
        assert!(rec.is_empty());
        assert!(rec.dump("x", None).is_none());
    }

    #[test]
    fn dump_writes_a_file() {
        let dir = std::env::temp_dir().join(format!("regent-flight-test-{}", std::process::id()));
        // No directory, no artifact; with one, the dump lands in it.
        let rec = fresh(8);
        rec.note("flight", EventKind::Mark { name: "m" });
        assert!(rec.dump("unit test / dump", None).is_none());
        let rec = FlightRecorder::new(true, Some(dir.clone()));
        rec.note("flight", EventKind::Mark { name: "m" });
        let path = rec.dump("unit test / dump", None).expect("dump succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(import_trace(&text).is_ok());
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("flight-unit-test---dump-0"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
