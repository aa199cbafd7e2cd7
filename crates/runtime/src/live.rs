//! The live telemetry plane: sliding-window latency histograms and
//! SLO burn-rate gauges.
//!
//! The always-on [`metrics`](crate::metrics) registry accumulates from
//! process start — exactly right for post-mortem totals, useless for
//! "is the service healthy *now*". This module adds the now-view: a
//! ring of log2-bucket histogram windows ([`SlidingHist`]) that forgets
//! samples older than the SLO window, per-(tenant, strategy) job
//! latency and per-tenant goodput series fed by the `regent-serve`
//! supervisor, and burn-rate accounting against two budgets:
//!
//! * **p99 burn** — the fraction of jobs in the window slower than the
//!   target p99 (`SLO_P99_TARGET_MS`, 2000), divided by the 1% that
//!   budget tolerates. Burn 1.0 = exactly on budget; 10.0 =
//!   burning a month of error budget in three days.
//! * **shed burn** — the fraction of arrivals rejected by admission
//!   control, divided by the shed budget (`SLO_SHED_BUDGET`: 5% of
//!   arrivals may be shed before alarm).
//!
//! Everything here is exported as Prometheus *gauges* (they describe a
//! window, not a monotone total) by [`LivePlane::to_prometheus`], which
//! the scrape endpoint ([`crate::scrape`]) appends to the registry's
//! counter exposition. The window is `REGENT_SLO_WINDOW_SECS` (default
//! 30) split into [`SUBWINDOWS`] rotating slots, so a scrape sees at
//! least `window * (1 - 1/SUBWINDOWS)` and at most `window` seconds of
//! history — no sample ever survives past one full window.
//!
//! Kill switch: `REGENT_METRICS_OFF` disables the live plane along
//! with the registry, the scrape endpoint, and the flight recorder.
//! Both variables are fixed when [`live`] first runs
//! ([`crate::config::process`]).

use crate::config;
use crate::metrics::{prom_escape, Hist};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Rotating slots per sliding window. More slots = smoother expiry,
/// at 6 the staleness error is at most 1/6 of the window.
pub const SUBWINDOWS: usize = 6;

/// A sliding-window histogram: a ring of [`SUBWINDOWS`] log2-bucket
/// [`Hist`] slots, each covering one sub-span of the window. Recording
/// into a slot whose sub-span has passed resets it first, so merged
/// reads only ever see samples from the last window.
#[derive(Clone, Debug)]
pub struct SlidingHist {
    /// Sub-span length, nanoseconds.
    slot_ns: u64,
    /// `(slot epoch index, histogram)` per ring position.
    slots: [(u64, Hist); SUBWINDOWS],
}

impl SlidingHist {
    /// A window of `window_ns` total span.
    pub fn new(window_ns: u64) -> Self {
        SlidingHist {
            slot_ns: (window_ns / SUBWINDOWS as u64).max(1),
            slots: [(0, Hist::default()); SUBWINDOWS],
        }
    }

    fn slot_at(&mut self, now_ns: u64) -> &mut Hist {
        let idx = now_ns / self.slot_ns;
        let pos = (idx as usize) % SUBWINDOWS;
        let (epoch, hist) = &mut self.slots[pos];
        if *epoch != idx {
            *epoch = idx;
            *hist = Hist::default();
        }
        hist
    }

    /// Records one sample at absolute time `now_ns`.
    pub fn record_at(&mut self, now_ns: u64, sample_ns: u64) {
        self.slot_at(now_ns).record(sample_ns);
    }

    /// All live slots (sub-spans within one window of `now_ns`) merged
    /// into a single histogram.
    pub fn merged_at(&self, now_ns: u64) -> Hist {
        let idx = now_ns / self.slot_ns;
        let oldest = idx.saturating_sub(SUBWINDOWS as u64 - 1);
        let mut out = Hist::default();
        for (epoch, hist) in &self.slots {
            if *epoch >= oldest && *epoch <= idx {
                out.merge(hist);
            }
        }
        out
    }
}

/// A sliding-window event counter (same ring discipline as
/// [`SlidingHist`], holding plain counts).
#[derive(Clone, Debug)]
pub struct SlidingCount {
    slot_ns: u64,
    slots: [(u64, u64); SUBWINDOWS],
}

impl SlidingCount {
    /// A window of `window_ns` total span.
    pub fn new(window_ns: u64) -> Self {
        SlidingCount {
            slot_ns: (window_ns / SUBWINDOWS as u64).max(1),
            slots: [(0, 0); SUBWINDOWS],
        }
    }

    /// Adds `by` events at absolute time `now_ns`.
    pub fn add_at(&mut self, now_ns: u64, by: u64) {
        let idx = now_ns / self.slot_ns;
        let pos = (idx as usize) % SUBWINDOWS;
        let (epoch, n) = &mut self.slots[pos];
        if *epoch != idx {
            *epoch = idx;
            *n = 0;
        }
        *n += by;
    }

    /// Events within one window of `now_ns`.
    pub fn total_at(&self, now_ns: u64) -> u64 {
        let idx = now_ns / self.slot_ns;
        let oldest = idx.saturating_sub(SUBWINDOWS as u64 - 1);
        self.slots
            .iter()
            .filter(|(e, _)| *e >= oldest && *e <= idx)
            .map(|(_, n)| n)
            .sum()
    }
}

/// The global plane's target p99 job latency, milliseconds.
const SLO_P99_TARGET_MS: f64 = 2000.0;

/// The global plane's tolerated shed fraction of arrivals.
const SLO_SHED_BUDGET: f64 = 0.05;

/// SLO configuration of a [`LivePlane`].
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// Target p99 job latency, milliseconds.
    pub p99_target_ms: f64,
    /// Tolerated shed fraction of arrivals (`0.05` = 5%).
    pub shed_budget: f64,
    /// Sliding window span, nanoseconds.
    pub window_ns: u64,
}

/// Current burn rates over the sliding window (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BurnRates {
    /// Fraction of windowed jobs over the p99 target, / 1%.
    pub p99: f64,
    /// Fraction of windowed arrivals shed, / shed budget.
    pub shed: f64,
    /// Completed jobs in the window.
    pub completed: u64,
    /// Shed arrivals in the window.
    pub shed_count: u64,
}

struct LiveState {
    /// Job completion latency per (tenant, strategy label).
    latency: BTreeMap<(u32, &'static str), SlidingHist>,
    /// Completions per tenant (goodput numerator).
    completed: BTreeMap<u32, SlidingCount>,
    /// Sheds per tenant.
    shed: BTreeMap<u32, SlidingCount>,
    /// All completion latencies (service-wide quantiles).
    total: SlidingHist,
    /// Completions slower than the p99 target.
    over_target: SlidingCount,
}

/// The process-global live plane (see the module docs).
pub struct LivePlane {
    enabled: bool,
    epoch: Instant,
    cfg: SloConfig,
    state: Mutex<LiveState>,
}

/// The global live plane: recording unless the process turned
/// telemetry off, over the process's SLO window, against the two
/// budget constants.
pub fn live() -> &'static LivePlane {
    static PLANE: OnceLock<LivePlane> = OnceLock::new();
    PLANE.get_or_init(|| {
        let env = config::process();
        LivePlane::with_config(
            env.telemetry,
            SloConfig {
                p99_target_ms: SLO_P99_TARGET_MS,
                shed_budget: SLO_SHED_BUDGET,
                window_ns: env.slo_window.as_nanos() as u64,
            },
        )
    })
}

impl LivePlane {
    /// A plane with explicit configuration (tests; production goes
    /// through [`live`]).
    pub fn with_config(enabled: bool, cfg: SloConfig) -> Self {
        LivePlane {
            enabled,
            epoch: Instant::now(),
            cfg,
            state: Mutex::new(LiveState {
                latency: BTreeMap::new(),
                completed: BTreeMap::new(),
                shed: BTreeMap::new(),
                total: SlidingHist::new(cfg.window_ns),
                over_target: SlidingCount::new(cfg.window_ns),
            }),
        }
    }

    /// Is the plane recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one completed job for `tenant` under `strategy`.
    pub fn record_completion(&self, tenant: u32, strategy: &'static str, latency_ns: u64) {
        if self.enabled {
            self.record_completion_at(self.now_ns(), tenant, strategy, latency_ns);
        }
    }

    /// [`LivePlane::record_completion`] at an explicit time (tests).
    pub fn record_completion_at(
        &self,
        now_ns: u64,
        tenant: u32,
        strategy: &'static str,
        latency_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let window = self.cfg.window_ns;
        let mut st = self.state.lock().expect("live plane poisoned");
        st.latency
            .entry((tenant, strategy))
            .or_insert_with(|| SlidingHist::new(window))
            .record_at(now_ns, latency_ns);
        st.completed
            .entry(tenant)
            .or_insert_with(|| SlidingCount::new(window))
            .add_at(now_ns, 1);
        st.total.record_at(now_ns, latency_ns);
        if latency_ns as f64 / 1e6 > self.cfg.p99_target_ms {
            st.over_target.add_at(now_ns, 1);
        }
    }

    /// Records one shed (admission-rejected) arrival for `tenant`.
    pub fn record_shed(&self, tenant: u32) {
        if self.enabled {
            self.record_shed_at(self.now_ns(), tenant);
        }
    }

    /// [`LivePlane::record_shed`] at an explicit time (tests).
    pub fn record_shed_at(&self, now_ns: u64, tenant: u32) {
        if !self.enabled {
            return;
        }
        let window = self.cfg.window_ns;
        let mut st = self.state.lock().expect("live plane poisoned");
        st.shed
            .entry(tenant)
            .or_insert_with(|| SlidingCount::new(window))
            .add_at(now_ns, 1);
    }

    /// Service-wide `(p50, p99)` latency estimate over the window,
    /// nanoseconds.
    pub fn quantiles(&self) -> (f64, f64) {
        self.quantiles_at(self.now_ns())
    }

    /// [`LivePlane::quantiles`] at an explicit time (tests).
    pub fn quantiles_at(&self, now_ns: u64) -> (f64, f64) {
        let st = self.state.lock().expect("live plane poisoned");
        let h = st.total.merged_at(now_ns);
        (h.quantile_ns(0.5), h.quantile_ns(0.99))
    }

    /// Current burn rates (see [`BurnRates`]).
    pub fn burn_rates(&self) -> BurnRates {
        self.burn_rates_at(self.now_ns())
    }

    /// [`LivePlane::burn_rates`] at an explicit time (tests).
    pub fn burn_rates_at(&self, now_ns: u64) -> BurnRates {
        let st = self.state.lock().expect("live plane poisoned");
        let completed: u64 = st.completed.values().map(|c| c.total_at(now_ns)).sum();
        let shed: u64 = st.shed.values().map(|c| c.total_at(now_ns)).sum();
        let over = st.over_target.total_at(now_ns);
        let p99 = if completed > 0 {
            (over as f64 / completed as f64) / 0.01
        } else {
            0.0
        };
        let arrivals = completed + shed;
        let shed_rate = if arrivals > 0 {
            (shed as f64 / arrivals as f64) / self.cfg.shed_budget
        } else {
            0.0
        };
        BurnRates {
            p99,
            shed: shed_rate,
            completed,
            shed_count: shed,
        }
    }

    /// Prometheus gauge exposition for the live window, appended after
    /// the registry's counter/histogram exposition by the scrape
    /// endpoint. Empty when the plane is disabled.
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_at(self.now_ns())
    }

    /// [`LivePlane::to_prometheus`] at an explicit time (tests).
    pub fn to_prometheus_at(&self, now_ns: u64) -> String {
        if !self.enabled {
            return String::new();
        }
        let mut out = String::new();
        let window_s = self.cfg.window_ns as f64 / 1e9;
        {
            let st = self.state.lock().expect("live plane poisoned");
            if !st.latency.is_empty() {
                out.push_str(
                    "# HELP regent_live_job_latency_ns Sliding-window job latency quantile (ns)\n\
                     # TYPE regent_live_job_latency_ns gauge\n",
                );
                for ((tenant, strategy), sh) in &st.latency {
                    let h = sh.merged_at(now_ns);
                    if h.count == 0 {
                        continue;
                    }
                    for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                        writeln!(
                            out,
                            "regent_live_job_latency_ns{{tenant=\"{tenant}\",strategy=\"{}\",quantile=\"{label}\"}} {:.0}",
                            prom_escape(strategy),
                            h.quantile_ns(q)
                        )
                        .unwrap();
                    }
                }
            }
            let total = st.total.merged_at(now_ns);
            if total.count > 0 {
                out.push_str(
                    "# HELP regent_live_latency_ns Service-wide sliding-window latency quantile (ns)\n\
                     # TYPE regent_live_latency_ns gauge\n",
                );
                for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                    writeln!(
                        out,
                        "regent_live_latency_ns{{quantile=\"{label}\"}} {:.0}",
                        total.quantile_ns(q)
                    )
                    .unwrap();
                }
            }
            let any_goodput = st.completed.values().any(|c| c.total_at(now_ns) > 0);
            if any_goodput {
                out.push_str(
                    "# HELP regent_live_goodput_jps Sliding-window completed jobs per second\n\
                     # TYPE regent_live_goodput_jps gauge\n",
                );
                for (tenant, c) in &st.completed {
                    let n = c.total_at(now_ns);
                    if n > 0 {
                        writeln!(
                            out,
                            "regent_live_goodput_jps{{tenant=\"{tenant}\"}} {:.4}",
                            n as f64 / window_s
                        )
                        .unwrap();
                    }
                }
            }
        }
        let burn = self.burn_rates_at(now_ns);
        writeln!(
            out,
            "# HELP regent_slo_p99_target_ms Configured p99 latency target (ms)\n\
             # TYPE regent_slo_p99_target_ms gauge\n\
             regent_slo_p99_target_ms {}\n\
             # HELP regent_slo_window_seconds Sliding SLO window span (s)\n\
             # TYPE regent_slo_window_seconds gauge\n\
             regent_slo_window_seconds {}\n\
             # HELP regent_slo_p99_burn_rate Fraction of windowed jobs over the p99 target, / 1% budget\n\
             # TYPE regent_slo_p99_burn_rate gauge\n\
             regent_slo_p99_burn_rate {:.4}\n\
             # HELP regent_slo_shed_burn_rate Fraction of windowed arrivals shed, / shed budget\n\
             # TYPE regent_slo_shed_burn_rate gauge\n\
             regent_slo_shed_burn_rate {:.4}",
            self.cfg.p99_target_ms, window_s, burn.p99, burn.shed
        )
        .unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 6_000; // 6 us window -> 1 us slots

    fn cfg() -> SloConfig {
        SloConfig {
            p99_target_ms: 2000.0,
            shed_budget: 0.05,
            window_ns: W,
        }
    }

    #[test]
    fn sliding_hist_forgets_old_windows() {
        let mut sh = SlidingHist::new(W);
        sh.record_at(0, 100);
        sh.record_at(500, 100);
        assert_eq!(sh.merged_at(500).count, 2);
        // One full window later both samples have expired.
        assert_eq!(sh.merged_at(W + 1_000).count, 0);
        // A sample recorded mid-window survives until its slot rotates.
        sh.record_at(2 * W, 100);
        assert_eq!(sh.merged_at(2 * W + W - 1_500).count, 1);
    }

    #[test]
    fn sliding_count_rotation_resets_slots() {
        let mut c = SlidingCount::new(W);
        c.add_at(0, 3);
        assert_eq!(c.total_at(0), 3);
        // Same ring position one full revolution later must not leak
        // the stale count.
        c.add_at(SUBWINDOWS as u64 * 1_000, 1);
        assert_eq!(c.total_at(SUBWINDOWS as u64 * 1_000), 1);
    }

    #[test]
    fn burn_rates_track_targets() {
        let plane = LivePlane::with_config(true, cfg());
        // 99 fast jobs + 1 slow one: exactly on the 1% budget.
        for _ in 0..99 {
            plane.record_completion_at(100, 1, "spmd", 1_000_000);
        }
        plane.record_completion_at(100, 1, "spmd", 3_000_000_000); // 3 s > 2 s target
        let burn = plane.burn_rates_at(100);
        assert!((burn.p99 - 1.0).abs() < 1e-9, "p99 burn = {}", burn.p99);
        assert_eq!(burn.completed, 100);
        assert_eq!(burn.shed, 0.0);
        // 5 sheds out of 100 arrivals = exactly the 5% budget... but
        // sheds add arrivals: 5 / 105 ≈ 4.76% -> burn just under 1.
        for _ in 0..5 {
            plane.record_shed_at(100, 2);
        }
        let burn = plane.burn_rates_at(100);
        assert!(
            burn.shed > 0.9 && burn.shed < 1.0,
            "shed burn = {}",
            burn.shed
        );
        assert_eq!(burn.shed_count, 5);
    }

    #[test]
    fn exposition_contains_gauges_per_series() {
        let plane = LivePlane::with_config(true, cfg());
        plane.record_completion_at(100, 1, "spmd", 1_000_000);
        plane.record_completion_at(100, 2, "hybrid", 2_000_000);
        plane.record_shed_at(100, 1);
        let prom = plane.to_prometheus_at(100);
        assert!(prom.contains("# TYPE regent_live_job_latency_ns gauge"));
        assert!(prom.contains(
            "regent_live_job_latency_ns{tenant=\"1\",strategy=\"spmd\",quantile=\"0.99\"}"
        ));
        assert!(prom.contains("regent_live_goodput_jps{tenant=\"2\"}"));
        assert!(prom.contains("regent_live_latency_ns{quantile=\"0.5\"}"));
        assert!(prom.contains("regent_live_latency_ns{quantile=\"0.99\"}"));
        assert!(prom.contains("regent_slo_p99_burn_rate 0.0000"));
        assert!(prom.contains("regent_slo_shed_burn_rate"));
        assert!(prom.contains("regent_slo_p99_target_ms 2000"));
    }

    #[test]
    fn disabled_plane_is_silent() {
        let plane = LivePlane::with_config(false, cfg());
        plane.record_completion_at(0, 1, "spmd", 1);
        plane.record_shed_at(0, 1);
        assert_eq!(plane.burn_rates_at(0), BurnRates::default());
        assert_eq!(plane.to_prometheus_at(0), "");
    }
}
