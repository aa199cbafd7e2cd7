//! The recorder: a shared [`Tracer`] handing out per-worker
//! [`TraceBuf`]s, and the collected [`Trace`] they flush into.

use crate::event::{Event, EventKind};
use crate::ring::Ring;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-buffer event capacity (events beyond it wrap, dropping
/// the oldest — see [`crate::ring::Ring`]).
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 18;

/// One flushed event stream: all events recorded by buffers sharing a
/// name, in recording order per buffer.
#[derive(Clone, Debug, Default)]
pub struct Track {
    /// Track name (e.g. `"control"`, `"shard-3"`, `"cr/n64"`).
    pub name: String,
    /// Events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring wrap-around.
    pub dropped: u64,
}

/// A collected trace: every flushed track.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Tracks in first-flush order.
    pub tracks: Vec<Track>,
}

impl Trace {
    /// Total events across all tracks.
    pub fn num_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// The track with the given name, if any.
    pub fn track(&self, name: &str) -> Option<&Track> {
        self.tracks.iter().find(|t| t.name == name)
    }

    /// `[min ts, max ts+dur]` over all events, or `None` when empty.
    pub(crate) fn time_bounds(&self) -> Option<(u64, u64)> {
        let mut bounds: Option<(u64, u64)> = None;
        for t in &self.tracks {
            for e in &t.events {
                let (lo, hi) = bounds.unwrap_or((e.ts, e.ts + e.dur));
                bounds = Some((lo.min(e.ts), hi.max(e.ts + e.dur)));
            }
        }
        bounds
    }
}

/// The shared recorder. Cheap to clone by `Arc`; a disabled tracer
/// makes every recording operation a no-op (a single branch).
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    epoch: Instant,
    store: Mutex<Vec<Track>>,
}

impl Tracer {
    /// An enabled tracer with the default per-buffer capacity.
    pub fn enabled() -> Arc<Tracer> {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer whose buffers hold at most `capacity` events.
    pub(crate) fn with_capacity(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: true,
            capacity,
            epoch: Instant::now(),
            store: Mutex::new(Vec::new()),
        })
    }

    /// A disabled tracer: buffers record nothing and allocate nothing.
    pub fn disabled() -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: false,
            capacity: 1,
            epoch: Instant::now(),
            store: Mutex::new(Vec::new()),
        })
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Creates a recording buffer for one worker/thread. When the
    /// tracer is disabled this allocates nothing.
    pub fn buffer(self: &Arc<Self>, name: &str) -> TraceBuf {
        TraceBuf {
            enabled: self.enabled,
            name: if self.enabled {
                name.to_string()
            } else {
                String::new()
            },
            ring: if self.enabled {
                Some(Ring::new(self.capacity))
            } else {
                None
            },
            tracer: Arc::clone(self),
        }
    }

    /// Takes everything flushed so far, leaving the store empty.
    /// Call after the instrumented execution has quiesced (all buffers
    /// flushed or dropped).
    pub fn take(&self) -> Trace {
        Trace {
            tracks: std::mem::take(&mut *self.store.lock().unwrap()),
        }
    }

    /// Merges a whole collected [`Trace`] into this tracer's store,
    /// track by track (same-name tracks concatenate, matching
    /// [`Tracer::buffer`] flush semantics). Used by the failover
    /// executors: each recovery attempt records into a private inner
    /// tracer so aborted attempts can be discarded wholesale, and only
    /// the successful attempt's trace is absorbed into the caller's.
    /// Timestamps keep the inner tracer's epoch — per-track ordering is
    /// preserved, which is all the Spy validator needs.
    pub fn absorb(&self, trace: Trace) {
        if !self.enabled {
            return;
        }
        for track in trace.tracks {
            self.flush_into_store(&track.name, track.events, track.dropped);
        }
    }

    fn flush_into_store(&self, name: &str, events: Vec<Event>, dropped: u64) {
        if events.is_empty() && dropped == 0 {
            return;
        }
        let mut store = self.store.lock().unwrap();
        if let Some(t) = store.iter_mut().find(|t| t.name == name) {
            t.events.extend(events);
            t.dropped += dropped;
        } else {
            store.push(Track {
                name: name.to_string(),
                events,
                dropped,
            });
        }
    }
}

/// A per-worker recording buffer. Owned by one thread; records into a
/// private ring with no synchronization, and flushes into the tracer at
/// quiescence (explicit [`TraceBuf::flush`] or drop).
pub struct TraceBuf {
    enabled: bool,
    name: String,
    ring: Option<Ring<Event>>,
    tracer: Arc<Tracer>,
}

impl TraceBuf {
    /// Whether this buffer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer epoch (0 when disabled — no clock
    /// read).
    pub fn now(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.tracer.epoch.elapsed().as_nanos() as u64
    }

    /// Records an event with an explicit interval.
    pub fn push(&mut self, ts: u64, dur: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.ring
            .as_mut()
            .expect("enabled buffer has a ring")
            .push(Event { ts, dur, kind });
    }

    /// Records an instant event at the current time.
    pub fn instant(&mut self, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let t = self.now();
        self.push(t, 0, kind);
    }

    /// Records a span from `start` (a prior [`TraceBuf::now`]) to the
    /// current time.
    pub fn span_since(&mut self, start: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.push(start, end.saturating_sub(start), kind);
    }

    /// Flushes recorded events into the tracer's central store. Called
    /// automatically on drop; call explicitly at known quiescence
    /// points to bound memory.
    pub fn flush(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(ring) = self.ring.as_mut() {
            let dropped = ring.dropped();
            let events = ring.drain_ordered();
            // Fresh ring: the drop counter was reported with this flush.
            *ring = Ring::new(self.tracer.capacity);
            self.tracer.flush_into_store(&self.name, events, dropped);
        }
    }
}

impl Drop for TraceBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn record_flush_take_roundtrip() {
        let tracer = Tracer::enabled();
        let mut a = tracer.buffer("a");
        let mut b = tracer.buffer("b");
        a.instant(EventKind::Mark { name: "x" });
        let t0 = b.now();
        b.span_since(t0, EventKind::Pass { name: "p" });
        a.instant(EventKind::Mark { name: "y" });
        drop(a);
        drop(b);
        let trace = tracer.take();
        assert_eq!(trace.tracks.len(), 2);
        let ta = trace.track("a").unwrap();
        assert_eq!(ta.events.len(), 2);
        assert!(matches!(ta.events[0].kind, EventKind::Mark { name: "x" }));
        assert!(matches!(ta.events[1].kind, EventKind::Mark { name: "y" }));
        assert!(ta.events[0].ts <= ta.events[1].ts, "monotonic timestamps");
        let tb = trace.track("b").unwrap();
        assert_eq!(tb.events.len(), 1);
        // take() drained the store.
        assert_eq!(tracer.take().tracks.len(), 0);
    }

    #[test]
    fn same_name_buffers_merge_into_one_track() {
        let tracer = Tracer::enabled();
        {
            let mut a = tracer.buffer("shard-0");
            a.instant(EventKind::Mark { name: "seg1" });
        }
        {
            let mut a = tracer.buffer("shard-0");
            a.instant(EventKind::Mark { name: "seg2" });
        }
        let trace = tracer.take();
        assert_eq!(trace.tracks.len(), 1);
        assert_eq!(trace.tracks[0].events.len(), 2);
    }

    #[test]
    fn absorb_merges_tracks() {
        let outer = Tracer::enabled();
        {
            let mut b = outer.buffer("shard-0");
            b.instant(EventKind::Mark { name: "outer" });
        }
        let inner = Tracer::enabled();
        {
            let mut b = inner.buffer("shard-0");
            b.instant(EventKind::Mark { name: "inner" });
            let mut c = inner.buffer("shard-1");
            c.instant(EventKind::Mark { name: "other" });
        }
        outer.absorb(inner.take());
        let trace = outer.take();
        assert_eq!(trace.tracks.len(), 2);
        let t0 = trace.track("shard-0").unwrap();
        assert_eq!(t0.events.len(), 2, "same-name tracks concatenate");
        assert_eq!(trace.track("shard-1").unwrap().events.len(), 1);
        // A disabled tracer absorbs nothing.
        let off = Tracer::disabled();
        let inner = Tracer::enabled();
        inner.buffer("x").instant(EventKind::Mark { name: "m" });
        off.absorb(inner.take());
        assert_eq!(off.take().num_events(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let mut b = tracer.buffer("x");
        assert_eq!(b.now(), 0);
        b.instant(EventKind::Mark { name: "m" });
        b.flush();
        assert_eq!(tracer.take().num_events(), 0);
    }

    #[test]
    fn ring_overflow_reports_dropped() {
        let tracer = Tracer::with_capacity(4);
        let mut b = tracer.buffer("w");
        for _ in 0..10 {
            b.instant(EventKind::Mark { name: "m" });
        }
        drop(b);
        let trace = tracer.take();
        assert_eq!(trace.tracks[0].events.len(), 4);
        assert_eq!(trace.tracks[0].dropped, 6);
    }

    #[test]
    fn time_bounds_cover_all_tracks() {
        let mut trace = Trace::default();
        trace.tracks.push(Track {
            name: "a".into(),
            events: vec![Event {
                ts: 10,
                dur: 5,
                kind: EventKind::Mark { name: "m" },
            }],
            dropped: 0,
        });
        trace.tracks.push(Track {
            name: "b".into(),
            events: vec![Event {
                ts: 2,
                dur: 1,
                kind: EventKind::Mark { name: "m" },
            }],
            dropped: 0,
        });
        assert_eq!(trace.time_bounds(), Some((2, 15)));
    }
}
