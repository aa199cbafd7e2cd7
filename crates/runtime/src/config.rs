//! The process environment, parsed once, in this file and nowhere else.
//!
//! A shard's inputs are fixed when it is launched (§3.5, §4.2), so
//! nothing about *how* a team runs is looked up mid-flight: every
//! `REGENT_*` variable is read here, by `EnvConfig::parse`, and
//! [`process`] holds the real environment's parse for the life of the
//! process. `process` is consulted only where a top-level object is
//! *constructed* — the defaults of [`RunOptions`](crate::RunOptions) and
//! [`ImplicitOptions`](crate::ImplicitOptions), the untimed constructors
//! of the ring, the barrier and the collective, the telemetry
//! singletons, `ServiceConfig::from_env`, and the load in
//! `RunOptions::ctx` that hands the CI smoke to the team driver;
//! everything below takes values. Setting a variable after the first
//! use therefore has no effect: pass the field.
//!
//! A malformed value is the default, never a panic. Booleans
//! (`REGENT_PIN_CORES`, `REGENT_FAILOVER`, `REGENT_METRICS_OFF`) share
//! one grammar: `1` / `true` / `on` / `yes` (any case) is on; unset,
//! empty, `0` / `false` / `off` / `no` and garbage are off. Integers,
//! `<seed>,<rate>` and kill schedules go through `regent-fault`'s pure
//! parsers; a path or address is any non-empty string.

use crate::spmd_exec::ResilienceOptions;
use regent_fault::{parse_corrupt_spec, parse_kill_spec, parse_seed, FaultPlan};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// The CI fault smoke: upgrades every SPMD-family run that names no
/// resilience options of its own to a resilient one. Recovery is
/// bit-identical, so the whole test suite passes with either variable
/// exported. At least one field is set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Smoke {
    /// `REGENT_FAULT_SEED`: seeds a single-shard crash.
    pub fault_seed: Option<u64>,
    /// `REGENT_CORRUPT=<seed>,<rate>`: arms corruption injection and
    /// the integrity layer.
    pub corrupt: Option<(u64, f64)>,
}

impl Smoke {
    /// What a `num_shards` team runs under: a seeded crash in epochs
    /// `1..=4` and/or the corruption rate, checkpointing every 2.
    pub(crate) fn options(&self, num_shards: usize) -> ResilienceOptions {
        let plan = match self.fault_seed {
            Some(seed) => FaultPlan::seeded_crash(seed, num_shards, 4),
            None => FaultPlan::new(self.corrupt.map_or(0, |(seed, _)| seed)),
        };
        ResilienceOptions {
            checkpoint_interval: 2,
            plan: plan.with_corrupt_rate(self.corrupt.map_or(0.0, |(_, rate)| rate)),
            integrity: self.corrupt.is_some(),
            ..ResilienceOptions::default()
        }
    }
}

/// Every `REGENT_*` variable, typed (README has the table).
#[derive(Clone, Debug, PartialEq)]
pub struct EnvConfig {
    /// `REGENT_HANG_TIMEOUT_MS` (default 30 s): how long a blocking wait
    /// may stall before it panics with a "likely deadlock" diagnostic.
    pub hang_timeout: Duration,
    /// `REGENT_PIN_CORES`: pin shard thread `s` to core `s`.
    pub pin_cores: bool,
    /// `REGENT_FAULT_SEED` / `REGENT_CORRUPT`, when either parses.
    pub smoke: Option<Smoke>,
    /// `REGENT_KILL=<shard>@<epoch>[,…]`: kills `regent-serve` adds to
    /// every failover-routed job.
    pub kills: Option<FaultPlan>,
    /// `REGENT_FAILOVER`: `regent-serve` jobs run under live failover.
    pub failover: bool,
    /// `REGENT_METRICS`: file the registry is written to after a run.
    pub metrics_file: Option<PathBuf>,
    /// `REGENT_METRICS_ADDR=<host:port>` of the scrape endpoint.
    pub metrics_addr: Option<String>,
    /// `REGENT_METRICS_OFF` is *not* on: registry, live plane, scrape
    /// endpoint and flight recorder all record.
    pub telemetry: bool,
    /// `REGENT_FLIGHT_DIR`: where the flight recorder dumps.
    pub flight_dir: Option<PathBuf>,
    /// `REGENT_SLO_WINDOW_SECS` (default 30): the live plane's window.
    pub slo_window: Duration,
    /// `REGENT_SERVE_WORKERS`.
    pub serve_workers: Option<u64>,
    /// `REGENT_SERVE_QUEUE`.
    pub serve_queue: Option<u64>,
    /// `REGENT_SERVE_SHED_BUDGET`.
    pub serve_shed_budget: Option<u64>,
    /// `REGENT_SERVE_DEGRADE`.
    pub serve_degrade: Option<u64>,
    /// `REGENT_SERVE_TRACE_DIR`.
    pub serve_trace_dir: Option<PathBuf>,
}

impl EnvConfig {
    /// Parses the environment `get` presents (`None` = unset).
    pub(crate) fn parse(get: impl Fn(&str) -> Option<String>) -> EnvConfig {
        let text = |name: &str| get(name).filter(|v| !v.is_empty());
        let int = |name: &str| get(name).and_then(|v| parse_seed(&v));
        let on = |name: &str| {
            let v = get(name).unwrap_or_default();
            ["1", "true", "on", "yes"].contains(&v.trim().to_ascii_lowercase().as_str())
        };
        let path = |name: &str| text(name).map(PathBuf::from);
        let fault_seed = int("REGENT_FAULT_SEED");
        let corrupt = get("REGENT_CORRUPT").and_then(|v| parse_corrupt_spec(&v));
        let slo_window = get("REGENT_SLO_WINDOW_SECS")
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|secs| *secs > 0.0)
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok());
        EnvConfig {
            hang_timeout: Duration::from_millis(int("REGENT_HANG_TIMEOUT_MS").unwrap_or(30_000)),
            pin_cores: on("REGENT_PIN_CORES"),
            smoke: (fault_seed.is_some() || corrupt.is_some()).then_some(Smoke {
                fault_seed,
                corrupt,
            }),
            kills: get("REGENT_KILL").and_then(|v| parse_kill_spec(&v)),
            failover: on("REGENT_FAILOVER"),
            metrics_file: path("REGENT_METRICS"),
            metrics_addr: text("REGENT_METRICS_ADDR"),
            telemetry: !on("REGENT_METRICS_OFF"),
            flight_dir: path("REGENT_FLIGHT_DIR"),
            slo_window: slo_window.unwrap_or(Duration::from_secs(30)),
            serve_workers: int("REGENT_SERVE_WORKERS"),
            serve_queue: int("REGENT_SERVE_QUEUE"),
            serve_shed_budget: int("REGENT_SERVE_SHED_BUDGET"),
            serve_degrade: int("REGENT_SERVE_DEGRADE"),
            serve_trace_dir: path("REGENT_SERVE_TRACE_DIR"),
        }
    }
}

/// The real environment, parsed on first use and fixed from then on.
pub fn process() -> &'static EnvConfig {
    static PROCESS: OnceLock<EnvConfig> = OnceLock::new();
    PROCESS.get_or_init(|| EnvConfig::parse(|name| std::env::var(name).ok()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> EnvConfig {
        EnvConfig::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_environment_is_the_defaults() {
        let c = parse(&[]);
        assert_eq!(c.hang_timeout, Duration::from_secs(30));
        assert_eq!(c.slo_window, Duration::from_secs(30));
        assert!(!c.pin_cores && !c.failover && c.telemetry);
        assert_eq!(c.smoke, None);
        assert_eq!(c.kills, None);
        assert_eq!(
            (&c.metrics_file, &c.metrics_addr, &c.flight_dir),
            (&None, &None, &None)
        );
        assert_eq!(
            (c.serve_workers, c.serve_queue, c.serve_shed_budget),
            (None, None, None)
        );
        assert_eq!((c.serve_degrade, &c.serve_trace_dir), (None, &None));
    }

    /// One boolean grammar for all three booleans.
    #[test]
    fn booleans_share_one_grammar() {
        let flags = |v: &str| {
            let c = parse(&[
                ("REGENT_PIN_CORES", v),
                ("REGENT_FAILOVER", v),
                ("REGENT_METRICS_OFF", v),
            ]);
            (c.pin_cores, c.failover, !c.telemetry)
        };
        for on in ["1", "true", "on", "yes", "TRUE", "On", " yes "] {
            assert_eq!(flags(on), (true, true, true), "{on:?} is on");
        }
        for off in ["", "0", "false", "off", "no", "2", "enable", "y"] {
            assert_eq!(flags(off), (false, false, false), "{off:?} is off");
        }
        // On is all `REGENT_FAILOVER` says: the budget is the default's.
        let d = crate::FailoverOptions::default();
        assert_eq!((d.max_failovers, d.min_shards), (1, 1));
        // The two spellings that used to mean the opposite.
        assert!(!parse(&[("REGENT_FAILOVER", "false")]).failover);
        assert!(parse(&[("REGENT_METRICS_OFF", "0")]).telemetry);
    }

    /// The CI smoke hooks must never panic on malformed values — they
    /// fall back to "disabled" cleanly.
    #[test]
    fn from_env_parsing_edge_cases() {
        let smoke = |vars: &[(&str, &str)], ns| parse(vars).smoke.map(|s| s.options(ns));
        assert!(smoke(&[], 4).is_none(), "no env vars ⇒ disabled");

        // Corruption alone arms the integrity layer with a crash-free plan.
        let o = smoke(&[("REGENT_CORRUPT", "7,0.25")], 4).expect("REGENT_CORRUPT arms resilience");
        assert!(o.integrity);
        assert_eq!(o.plan.corrupt_rate, 0.25);
        assert_eq!(o.checkpoint_interval, 2);
        assert!(
            o.plan.crash_schedule().is_empty(),
            "no crash without a fault seed"
        );

        // Fault seed and corruption compose into one plan: the seeded
        // single crash of epochs 1..=4, plus the rate.
        let both = [("REGENT_CORRUPT", "7,0.25"), ("REGENT_FAULT_SEED", "5")];
        let o = smoke(&both, 4).expect("both vars set");
        assert!(o.integrity);
        assert_eq!(o.plan.corrupt_rate, 0.25);
        assert_eq!(
            o.plan.crash_schedule(),
            FaultPlan::seeded_crash(5, 4, 4).crash_schedule(),
            "seeded crash present"
        );

        // Malformed corruption specs are ignored; the fault seed stays in
        // effect and nothing panics.
        for bad in [
            "", "abc", "7", "7,", ",0.5", "7,abc", "7,-0.1", "7,1.5", "7,NaN", "7,inf", "7;0.5",
        ] {
            let o = smoke(&[("REGENT_CORRUPT", bad), ("REGENT_FAULT_SEED", "5")], 4)
                .expect("fault seed still set");
            assert!(!o.integrity, "spec {bad:?} must not arm integrity");
            assert_eq!(o.plan.corrupt_rate, 0.0, "spec {bad:?} must not set a rate");
        }

        // Malformed fault seed alone: disabled entirely, no panic.
        for bad in ["", "abc", "1.5", "-3", "99999999999999999999999999"] {
            assert!(
                smoke(&[("REGENT_FAULT_SEED", bad)], 4).is_none(),
                "seed {bad:?} must fall back to disabled"
            );
        }

        // Whitespace around a valid seed is tolerated.
        assert!(smoke(&[("REGENT_FAULT_SEED", " 42 ")], 4).is_some());

        // Degenerate shard counts must not divide by zero anywhere.
        let o = smoke(&[("REGENT_CORRUPT", "3,0.5")], 0).expect("still armed at 0 shards");
        assert!(o.integrity);
        let both = [("REGENT_CORRUPT", "3,0.5"), ("REGENT_FAULT_SEED", " 42 ")];
        let _ = smoke(&both, 0).expect("seeded crash at 0 shards");
        let _ = smoke(&both, 1).expect("armed at 1 shard");
    }

    #[test]
    fn numbers_paths_and_schedules() {
        let c = parse(&[
            ("REGENT_HANG_TIMEOUT_MS", " 200 "),
            ("REGENT_SLO_WINDOW_SECS", "0.5"),
            ("REGENT_KILL", "1@2,0@4"),
            ("REGENT_METRICS", "m.json"),
            ("REGENT_METRICS_ADDR", "127.0.0.1:0"),
            ("REGENT_FLIGHT_DIR", "dumps"),
            ("REGENT_SERVE_WORKERS", "3"),
            ("REGENT_SERVE_QUEUE", "0"),
            ("REGENT_SERVE_SHED_BUDGET", "48"),
            ("REGENT_SERVE_DEGRADE", "4"),
            ("REGENT_SERVE_TRACE_DIR", "traces"),
        ]);
        assert_eq!(c.hang_timeout, Duration::from_millis(200));
        assert_eq!(c.slo_window, Duration::from_millis(500));
        assert_eq!(c.kills.unwrap().kill_schedule(), vec![(1, 2), (0, 4)]);
        assert_eq!(c.metrics_file, Some(PathBuf::from("m.json")));
        assert_eq!(c.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(c.flight_dir, Some(PathBuf::from("dumps")));
        assert_eq!(
            (c.serve_workers, c.serve_queue, c.serve_shed_budget),
            (Some(3), Some(0), Some(48))
        );
        assert_eq!(c.serve_degrade, Some(4));
        assert_eq!(c.serve_trace_dir, Some(PathBuf::from("traces")));

        // Malformed numbers, schedules and empty paths are the defaults.
        let c = parse(&[
            ("REGENT_HANG_TIMEOUT_MS", "soon"),
            ("REGENT_SLO_WINDOW_SECS", "-1"),
            ("REGENT_KILL", "1@"),
            ("REGENT_METRICS", ""),
            ("REGENT_SERVE_WORKERS", "-2"),
            ("REGENT_SERVE_TRACE_DIR", ""),
        ]);
        assert_eq!(c, parse(&[]));
        for window in ["NaN", "inf", "1e400", "0"] {
            let c = parse(&[("REGENT_SLO_WINDOW_SECS", window)]);
            assert_eq!(c.slo_window, Duration::from_secs(30), "{window:?}");
        }
    }
}
