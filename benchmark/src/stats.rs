//! Order statistics of one metric's samples.

/// Which statistic of the samples is the metric's value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Stat {
    Median,
    /// The mean of the fastest twentieth of the samples (at least one):
    /// the value of every wall-clock metric sampled once per round or
    /// per set-up. The shared two-vCPU VMs this benchmark runs on
    /// alternate, minutes at a time, between a quiet regime and one
    /// where most runs are stalled for tens of milliseconds or slowed
    /// 1.7x, and in the second a parallel run seldom finds both cores
    /// free; the load only ever adds time. The median over rounds then
    /// measures the neighbours (run-to-run spread seen: 20–60 %); of the
    /// low statistics tried on the same samples this one was the
    /// steadiest (6 % on average against 11 % for the lower decile and
    /// 7.5 % for the minimum). A change to the code moves the whole
    /// distribution, its fast end included.
    Low5,
    /// The same for a rate: the mean of the highest twentieth.
    High5,
}

impl Stat {
    pub fn name(self) -> &'static str {
        match self {
            Stat::Median => "median",
            Stat::Low5 => "low5",
            Stat::High5 => "high5",
        }
    }
}

/// The sorted samples. No tail percentile is reported or gated: the
/// tail of a run's samples is the host's other tenants, not the system
/// under test; `max` is printed for the eye only.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary { sorted }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn max(&self) -> f64 {
        self.sorted[self.n() - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn q1(&self) -> f64 {
        self.quantile(0.25)
    }

    pub fn q3(&self) -> f64 {
        self.quantile(0.75)
    }

    pub fn value(&self, stat: Stat) -> f64 {
        match stat {
            Stat::Median => self.median(),
            Stat::Low5 => mean(&self.sorted[..self.n().div_ceil(20)]),
            Stat::High5 => mean(&self.sorted[self.n() - self.n().div_ceil(20)..]),
        }
    }

    /// Linear interpolation between closest ranks.
    fn quantile(&self, p: f64) -> f64 {
        let pos = p * (self.n() - 1) as f64;
        let (i, frac) = (pos.floor() as usize, pos.fract());
        match self.sorted.get(i + 1) {
            Some(next) => self.sorted[i] + (next - self.sorted[i]) * frac,
            None => self.sorted[i],
        }
    }

    /// An interval that holds `stat`, for `agree` to compare with a
    /// metric's bound. For the median: the distribution-free 95 %
    /// confidence interval (the number of samples below the true median
    /// is Binomial(n, 1/2), so the order statistics 1.96 standard
    /// deviations either side of rank n/2 bracket it 95 % of the time).
    /// For the fast end: from the minimum to the lower decile — when the
    /// fastest tenth of the samples is itself spread wider than the
    /// bound, the run never settled on an uncontended cost.
    pub fn interval(&self, stat: Stat) -> (f64, f64) {
        match stat {
            Stat::Median => {
                let n = self.n() as f64;
                let half_width = 0.98 * n.sqrt();
                let lo = (n / 2.0 - half_width).floor().max(0.0) as usize;
                let hi = ((n / 2.0 + half_width).ceil() as usize).min(self.n() - 1);
                (self.sorted[lo], self.sorted[hi])
            }
            Stat::Low5 => (self.sorted[0], self.quantile(0.10)),
            Stat::High5 => (self.quantile(0.90), self.max()),
        }
    }
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn low5(samples: &[f64]) -> f64 {
    Summary::of(samples).value(Stat::Low5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_ramp() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.q1(), s.median(), s.q3(), s.max(), s.n()),
            (2.0, 3.0, 4.0, 5.0, 5)
        );
        assert_eq!(s.interval(Stat::Median), (1.0, 5.0));
    }

    #[test]
    fn interval_narrows_with_samples() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.interval(Stat::Median), (40.0, 60.0));
        assert_eq!(s.value(Stat::Low5), 2.0);
        assert_eq!(s.value(Stat::High5), 97.0);
        assert_eq!(s.interval(Stat::Low5), (0.0, 9.9));
    }

    #[test]
    fn single_sample_is_its_own_value_and_interval() {
        let s = Summary::of(&[7.0]);
        assert_eq!(
            (s.value(Stat::Low5), s.interval(Stat::Low5)),
            (7.0, (7.0, 7.0))
        );
    }
}
