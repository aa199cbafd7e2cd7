//! Checksums over 64-bit words: the 4-lane striped FNV-1a
//! ([`StripedFnv`]) the integrity layer's seals and frames use.
//!
//! The integrity layer frames every physical instance and every SPMD
//! exchange payload with a checksum so that silent bit flips are caught
//! at the dataflow boundaries where the compiler inserts copies and
//! synchronization (§3.4, §4). FNV-1a over the raw bit patterns is
//! cheap (one xor-multiply per word), dependency-free, and — because it
//! hashes `to_bits()` rather than values — distinguishes every distinct
//! f64 representation, including NaN payloads and signed zeros, which
//! is exactly the bit-identity the differential harness demands.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one 64-bit word into a running FNV-1a hash: the step every
/// lane of [`StripedFnv`] takes.
#[inline]
fn fnv1a_mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Number of independent FNV lanes in [`StripedFnv`].
const LANES: usize = 4;

/// A 4-lane interleaved FNV-1a hasher for bulk checksums.
///
/// Plain FNV-1a is a strict xor-multiply dependency chain, ~4 cycles
/// per word no matter how wide the core is — and instance seals and
/// exchange frames hash megabytes of it per epoch (the measured
/// +10.8% rate-0 integrity overhead was almost entirely this chain).
/// Striping round-robins words over four independent chains, so the
/// multiplies pipeline (and, because the lanes share no data, the
/// bulk loops are auto-vectorizable), then folds the lane states with
/// the total word count at the end.
///
/// Detection strength is preserved for the faults the integrity layer
/// models: a single flipped bit lands in exactly one lane, changing
/// that lane's state and therefore the finished digest; word count and
/// lane position keep length and order sensitivity. The digest is
/// *different* from plain FNV-1a over the same words — both sides of
/// every frame/seal use the same function, and nothing persists
/// checksums across versions, so the change is invisible outside this
/// crate.
///
/// The digest is a pure function of the word sequence: mixing word by
/// word with [`StripedFnv::mix`] or in bulk with the slice helpers
/// produces identical state.
#[derive(Clone, Copy, Debug)]
pub struct StripedFnv {
    lanes: [u64; LANES],
    count: u64,
}

impl StripedFnv {
    /// A fresh hasher with distinct per-lane seeds.
    pub fn new() -> Self {
        let mut lanes = [0u64; LANES];
        for (i, l) in lanes.iter_mut().enumerate() {
            *l = fnv1a_mix(FNV_OFFSET, i as u64);
        }
        StripedFnv { lanes, count: 0 }
    }

    /// Folds one word into the next lane.
    #[inline]
    pub fn mix(&mut self, word: u64) {
        let lane = (self.count % LANES as u64) as usize;
        self.lanes[lane] = fnv1a_mix(self.lanes[lane], word);
        self.count += 1;
    }

    /// Bulk-folds a `u64` slice, four independent lanes per iteration.
    #[inline]
    pub fn mix_words(&mut self, words: &[u64]) {
        let mut i = 0;
        // Align to a lane boundary so bulk and word-by-word mixing
        // produce identical state.
        while !self.count.is_multiple_of(LANES as u64) && i < words.len() {
            self.mix(words[i]);
            i += 1;
        }
        let rest = &words[i..];
        let mut chunks = rest.chunks_exact(LANES);
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        for c in &mut chunks {
            l0 = fnv1a_mix(l0, c[0]);
            l1 = fnv1a_mix(l1, c[1]);
            l2 = fnv1a_mix(l2, c[2]);
            l3 = fnv1a_mix(l3, c[3]);
        }
        self.lanes = [l0, l1, l2, l3];
        self.count += (rest.len() - chunks.remainder().len()) as u64;
        for &w in chunks.remainder() {
            self.mix(w);
        }
    }

    /// Bulk-folds an `f64` slice by bit pattern.
    #[inline]
    pub fn mix_f64s(&mut self, vals: &[f64]) {
        let mut i = 0;
        while !self.count.is_multiple_of(LANES as u64) && i < vals.len() {
            self.mix(vals[i].to_bits());
            i += 1;
        }
        let rest = &vals[i..];
        let mut chunks = rest.chunks_exact(LANES);
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        for c in &mut chunks {
            l0 = fnv1a_mix(l0, c[0].to_bits());
            l1 = fnv1a_mix(l1, c[1].to_bits());
            l2 = fnv1a_mix(l2, c[2].to_bits());
            l3 = fnv1a_mix(l3, c[3].to_bits());
        }
        self.lanes = [l0, l1, l2, l3];
        self.count += (rest.len() - chunks.remainder().len()) as u64;
        for &v in chunks.remainder() {
            self.mix(v.to_bits());
        }
    }

    /// Bulk-folds an `i64` slice by bit pattern.
    #[inline]
    pub fn mix_i64s(&mut self, vals: &[i64]) {
        let mut i = 0;
        while !self.count.is_multiple_of(LANES as u64) && i < vals.len() {
            self.mix(vals[i] as u64);
            i += 1;
        }
        let rest = &vals[i..];
        let mut chunks = rest.chunks_exact(LANES);
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        for c in &mut chunks {
            l0 = fnv1a_mix(l0, c[0] as u64);
            l1 = fnv1a_mix(l1, c[1] as u64);
            l2 = fnv1a_mix(l2, c[2] as u64);
            l3 = fnv1a_mix(l3, c[3] as u64);
        }
        self.lanes = [l0, l1, l2, l3];
        self.count += (rest.len() - chunks.remainder().len()) as u64;
        for &v in chunks.remainder() {
            self.mix(v as u64);
        }
    }

    /// Folds lanes and word count into the final digest.
    pub fn finish(&self) -> u64 {
        let mut h = fnv1a_mix(FNV_OFFSET, self.count);
        for l in self.lanes {
            h = fnv1a_mix(h, l);
        }
        h
    }
}

impl Default for StripedFnv {
    fn default() -> Self {
        StripedFnv::new()
    }
}

/// [`StripedFnv`] digest of a word stream.
pub fn striped_fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = StripedFnv::new();
    for w in words {
        h.mix(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar chain one lane runs.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(FNV_OFFSET, fnv1a_mix)
    }

    #[test]
    fn deterministic_and_sensitive() {
        let a = fnv1a([1u64, 2, 3]);
        assert_eq!(a, fnv1a([1u64, 2, 3]));
        assert_ne!(a, fnv1a([1u64, 2, 4]));
        assert_ne!(a, fnv1a([2u64, 1, 3]), "order matters");
        assert_ne!(fnv1a([]), fnv1a([0u64]), "length matters");
    }

    #[test]
    fn striped_granularity_invariance() {
        // Word-by-word, bulk, and mixed-granularity mixing must all
        // produce the same digest — producers hash slices, consumers
        // may hash word streams.
        let words: Vec<u64> = (0..23u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let floats: Vec<f64> = words.iter().map(|&w| f64::from_bits(w | 1)).collect();
        let ints: Vec<i64> = words.iter().map(|&w| w as i64).collect();

        let bulk = {
            let mut h = StripedFnv::new();
            h.mix_words(&words);
            h.finish()
        };
        assert_eq!(bulk, striped_fnv(words.iter().copied()));
        let split = {
            let mut h = StripedFnv::new();
            h.mix(words[0]);
            h.mix_words(&words[1..7]);
            h.mix_words(&words[7..]);
            h.finish()
        };
        assert_eq!(bulk, split, "granularity changed the digest");

        let f_bulk = {
            let mut h = StripedFnv::new();
            h.mix_f64s(&floats);
            h.finish()
        };
        assert_eq!(f_bulk, striped_fnv(floats.iter().map(|v| v.to_bits())));
        let i_bulk = {
            let mut h = StripedFnv::new();
            h.mix_i64s(&ints);
            h.finish()
        };
        assert_eq!(i_bulk, striped_fnv(ints.iter().map(|&v| v as u64)));
    }

    #[test]
    fn striped_is_order_length_and_bit_sensitive() {
        let base: Vec<u64> = (0..9u64).collect();
        let d = striped_fnv(base.iter().copied());
        assert_eq!(d, striped_fnv(base.iter().copied()), "deterministic");
        let mut swapped = base.clone();
        swapped.swap(0, 4); // same lane (stride 4): state-level order check
        assert_ne!(d, striped_fnv(swapped.iter().copied()), "order matters");
        let mut cross = base.clone();
        cross.swap(0, 1); // different lanes
        assert_ne!(
            d,
            striped_fnv(cross.iter().copied()),
            "lane identity matters"
        );
        assert_ne!(
            d,
            striped_fnv(base.iter().copied().chain([0u64])),
            "length matters"
        );
        for i in 0..base.len() {
            for bit in [0u32, 31, 63] {
                let mut w = base.clone();
                w[i] ^= 1u64 << bit;
                assert_ne!(d, striped_fnv(w), "flip word {i} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_hash() {
        let words = [0x1234_5678_9abc_def0u64, 42, u64::MAX];
        let base = fnv1a(words);
        for i in 0..words.len() {
            for bit in [0u32, 31, 63] {
                let mut w = words;
                w[i] ^= 1u64 << bit;
                assert_ne!(base, fnv1a(w), "flip word {i} bit {bit} undetected");
            }
        }
    }
}
