//! A single-producer ring buffer for events.
//!
//! The ring grows lazily up to its capacity (no large up-front
//! allocation for short runs), then wraps, overwriting the *oldest*
//! events and counting them as dropped. Draining returns events in
//! recording order. The buffer is owned by exactly one recording
//! thread, so there is no synchronization at all.

/// A bounded ring of `T` that overwrites its oldest entries when full.
#[derive(Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `cap` elements (`cap > 0`).
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Ring {
            buf: Vec::new(),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    /// Elements overwritten because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends `v`, overwriting the oldest element when at capacity.
    pub(crate) fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Removes and returns all elements in recording order (oldest
    /// first), resetting the ring (the drop counter survives).
    pub(crate) fn drain_ordered(&mut self) -> Vec<T> {
        let head = self.head;
        self.head = 0;
        let mut v = std::mem::take(&mut self.buf);
        v.rotate_left(head);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_below_capacity_preserves_order() {
        let mut r = Ring::new(8);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.buf.len(), 5);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.drain_ordered(), vec![0, 1, 2, 3, 4]);
        assert!(r.buf.is_empty());
    }

    #[test]
    fn wrapping_drops_oldest_keeps_order() {
        let mut r = Ring::new(4);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.dropped(), 6);
        // The four newest, oldest-first.
        assert_eq!(r.drain_ordered(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn reusable_after_drain() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.drain_ordered(), vec![2, 3, 4]);
        r.push(99);
        r.push(100);
        assert_eq!(r.drain_ordered(), vec![99, 100]);
        assert_eq!(r.dropped(), 2, "drop counter survives draining");
    }

    #[test]
    fn exact_capacity_boundary() {
        let mut r = Ring::new(3);
        for i in 0..3 {
            r.push(i);
        }
        assert_eq!(r.dropped(), 0);
        r.push(3);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.drain_ordered(), vec![1, 2, 3]);
    }
}
