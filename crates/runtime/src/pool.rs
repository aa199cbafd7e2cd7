//! Buffer pooling for the exchange data plane.
//!
//! Every copy message used to carry freshly allocated `Vec`s and every
//! checkpoint boundary cloned every instance of the shard; in steady state
//! both allocate the same shapes over and over. [`ChunkPool`] is a
//! per-shard freelist (shard threads are single-threaded, so no locks)
//! the consumer side feeds with drained payload buffers and the
//! producer side draws from; the snapshot helpers reuse the previous
//! snapshot's allocations via `Instance::clone_contents_from`.
//!
//! Lifecycle of a pooled payload buffer:
//!
//! 1. producer: [`ChunkPool::take_f64`]/[`ChunkPool::take_i64`] pops a
//!    recycled buffer (or allocates on a miss) and fills it by gather;
//! 2. the buffer travels inside a `CopyMsg` through the ring;
//! 3. consumer: after `apply` (or after discarding a corrupted frame)
//!    the buffer goes back via [`ChunkPool::put_f64`]/
//!    [`ChunkPool::put_i64`] — into the *consumer's* pool; halo
//!    traffic is symmetric, so producer and consumer pools balance.
//!
//! A recycled buffer is always `clear()`ed, so contents are
//! bit-identical to a fresh allocation path by construction (the
//! `ring_props` suite pins this).

use regent_region::Instance;

/// Bound on retained buffers per element kind: enough for every
/// in-flight pair of a wide mesh, small enough that a pathological
/// statement can't pin unbounded memory.
const POOL_RETAIN: usize = 64;

/// A per-shard freelist of exchange payload buffers.
#[derive(Debug, Default)]
pub struct ChunkPool {
    f64s: Vec<Vec<f64>>,
    i64s: Vec<Vec<i64>>,
    reuses: u64,
    allocs: u64,
}

impl ChunkPool {
    /// An empty pool.
    pub fn new() -> Self {
        ChunkPool::default()
    }

    /// An empty `Vec<f64>` with room for `capacity` elements, recycled
    /// when possible.
    pub fn take_f64(&mut self, capacity: usize) -> Vec<f64> {
        match self.f64s.pop() {
            Some(mut v) => {
                self.reuses += 1;
                v.reserve(capacity);
                v
            }
            None => {
                self.allocs += 1;
                Vec::with_capacity(capacity)
            }
        }
    }

    /// An empty `Vec<i64>` with room for `capacity` elements, recycled
    /// when possible.
    pub fn take_i64(&mut self, capacity: usize) -> Vec<i64> {
        match self.i64s.pop() {
            Some(mut v) => {
                self.reuses += 1;
                v.reserve(capacity);
                v
            }
            None => {
                self.allocs += 1;
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Returns a drained f64 buffer to the pool (cleared; dropped when
    /// the pool is at its retention bound).
    pub fn put_f64(&mut self, mut v: Vec<f64>) {
        if self.f64s.len() < POOL_RETAIN {
            v.clear();
            self.f64s.push(v);
        }
    }

    /// Returns a drained i64 buffer to the pool.
    pub fn put_i64(&mut self, mut v: Vec<i64>) {
        if self.i64s.len() < POOL_RETAIN {
            v.clear();
            self.i64s.push(v);
        }
    }

    /// Buffers served from the freelist so far.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Buffers that had to be freshly allocated.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

/// Clones `src` into `dst` reusing `dst`'s existing allocations: the
/// instances are `clone_contents_from`'d in place, slot by slot.
/// Contract: both are one shard's instances by slot of its layout, so
/// instances at the same index have the same shape; a `dst` of another
/// length (the first snapshot) is replaced by a fresh clone.
pub(crate) fn clone_insts_into(src: &[Instance], dst: &mut Vec<Instance>) {
    if dst.len() != src.len() {
        *dst = src.to_vec();
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_contents_from(s);
    }
}
