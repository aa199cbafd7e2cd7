//! How fast the host is right now.
//!
//! The VMs this benchmark runs on change speed by 10–20 % from one
//! minute to the next (neighbours on the sibling hyperthread, clock
//! changes), and every execution path slows or speeds alike: over ten
//! runs of the same code the per-step times spread by 8–17 % while
//! their ratios to one another spread by 1–4 %. So each run times a
//! fixed piece of work of the benchmark's own beside the system's runs
//! — once per round and once per set-up — and every wall-clock metric
//! is reported at the reference speed: the time measured, times the
//! reference probe time, over the probe time seen during the run. The
//! probe shares no code with the system under test, so a change to the
//! system moves a metric and leaves the probe where it was.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time (`Stat::Low5`) on the host the baseline was taken
/// on, in its quiet regime. Only ratios of metrics matter to a
/// comparison of two commits, so the constant never needs to change.
pub const REFERENCE_PROBE_MS: f64 = 0.34;

const ELEMENTS: usize = 1 << 12;
const PASSES: usize = 64;

/// Gathered loads through a fixed permutation, a multiply-add and a
/// data-dependent branch per element, over 80 KB: like the system's
/// interpreter and kernels it is bound by the core and its nearest
/// caches, not by memory bandwidth.
pub struct SpeedProbe {
    index: Vec<u32>,
    a: Vec<f64>,
    b: Vec<f64>,
    samples_ms: Vec<f64>,
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        // A full-period linear congruential walk visits every slot once.
        let mut index = Vec::with_capacity(ELEMENTS);
        let mut x = 1usize;
        for _ in 0..ELEMENTS {
            x = (x * 5 + 12345) % ELEMENTS;
            index.push(x as u32);
        }
        SpeedProbe {
            index,
            a: (0..ELEMENTS)
                .map(|i| 1.0 + (i % 97) as f64 / 97.0)
                .collect(),
            b: vec![0.5; ELEMENTS],
            samples_ms: Vec::new(),
        }
    }

    fn passes(&mut self, passes: usize) {
        let mut acc = 0.0;
        for _ in 0..passes {
            for i in 0..ELEMENTS {
                let v = self.a[self.index[i] as usize] * 0.5 + self.b[i];
                if v > 1.0 {
                    acc += v;
                } else {
                    acc -= v * 0.25;
                }
                self.b[i] = v * 0.75;
            }
        }
        black_box(acc);
    }

    /// Does the work once and records how long it took. The system's
    /// runs in between evict the probe's arrays, so a few untimed
    /// passes bring them back first.
    pub fn sample(&mut self) {
        self.passes(4);
        let t = Instant::now();
        self.passes(PASSES);
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_a_permutation() {
        let probe = SpeedProbe::new();
        let mut seen = vec![false; ELEMENTS];
        for &i in &probe.index {
            assert!(!std::mem::replace(&mut seen[i as usize], true));
        }
    }
}
