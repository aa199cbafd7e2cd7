//! The process environment, parsed once, in this file and nowhere else.
//!
//! A shard's inputs are fixed when it is launched (§3.5, §4.2), so
//! nothing about *how* a team runs is looked up mid-flight: every
//! `REGENT_*` variable is read here, by `EnvConfig::parse`, and
//! `process` holds the real environment's parse for the life of the
//! process. `process` is consulted only where a top-level object is
//! *constructed* — the defaults of [`RunOptions`](crate::RunOptions) and
//! [`ImplicitOptions`](crate::ImplicitOptions), the untimed constructors
//! of the ring, the barrier and the collective, the metrics registry,
//! and the load in `RunOptions::ctx` that hands the CI
//! smoke to the team driver; everything below takes values. Setting a
//! variable after the first use therefore has no effect: pass the
//! field.
//!
//! A malformed value is the default, never a panic. A boolean
//! (`REGENT_METRICS_OFF`) is on for `1` / `true` / `on` / `yes` (any
//! case); unset, empty, `0` / `false` / `off` / `no` and garbage are
//! off. Integers and `<seed>,<rate>` go
//! through `regent-fault`'s pure parsers; a path is any non-empty
//! string.

use crate::resilience::ResilienceOptions;
use regent_fault::{parse_corrupt_spec, parse_seed, FaultPlan};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// The CI fault smoke: upgrades every SPMD-family run that names no
/// resilience options of its own to a resilient one. Recovery is
/// bit-identical, so the whole test suite passes with either variable
/// exported. At least one field is set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Smoke {
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
        }
    }
}

/// Every `REGENT_*` variable, typed (README has the table).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EnvConfig {
    /// `REGENT_HANG_TIMEOUT_MS` (default 30 s): how long a blocking wait
    /// may stall before it panics with a "likely deadlock" diagnostic.
    pub hang_timeout: Duration,
    /// `REGENT_FAULT_SEED` / `REGENT_CORRUPT`, when either parses.
    pub smoke: Option<Smoke>,
    /// `REGENT_METRICS`: file the registry is written to after a run.
    pub metrics_file: Option<PathBuf>,
    /// `REGENT_METRICS_OFF` is *not* on: the metrics registry records.
    pub telemetry: bool,
}

impl EnvConfig {
    /// Parses the environment `get` presents (`None` = unset).
    pub(crate) fn parse(get: impl Fn(&str) -> Option<String>) -> EnvConfig {
        let int = |name: &str| get(name).and_then(|v| parse_seed(&v));
        let on = |name: &str| {
            let v = get(name).unwrap_or_default();
            ["1", "true", "on", "yes"].contains(&v.trim().to_ascii_lowercase().as_str())
        };
        let path = |name: &str| get(name).filter(|v| !v.is_empty()).map(PathBuf::from);
        let fault_seed = int("REGENT_FAULT_SEED");
        let corrupt = get("REGENT_CORRUPT").and_then(|v| parse_corrupt_spec(&v));
        EnvConfig {
            hang_timeout: Duration::from_millis(int("REGENT_HANG_TIMEOUT_MS").unwrap_or(30_000)),
            smoke: (fault_seed.is_some() || corrupt.is_some()).then_some(Smoke {
                fault_seed,
                corrupt,
            }),
            metrics_file: path("REGENT_METRICS"),
            telemetry: !on("REGENT_METRICS_OFF"),
        }
    }
}

/// The real environment, parsed on first use and fixed from then on.
pub(crate) fn process() -> &'static EnvConfig {
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
        assert!(c.telemetry);
        assert_eq!(c.smoke, None);
        assert_eq!(c.metrics_file, None);
    }

    /// The boolean grammar.
    #[test]
    fn booleans_share_one_grammar() {
        let off = |v: &str| !parse(&[("REGENT_METRICS_OFF", v)]).telemetry;
        for on in ["1", "true", "on", "yes", "TRUE", "On", " yes "] {
            assert!(off(on), "{on:?} is on");
        }
        for no in ["", "0", "false", "off", "no", "2", "enable", "y"] {
            assert!(!off(no), "{no:?} is off");
        }
        // The spelling that used to mean the opposite.
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
            ("REGENT_METRICS", "m.json"),
        ]);
        assert_eq!(c.hang_timeout, Duration::from_millis(200));
        assert_eq!(c.metrics_file, Some(PathBuf::from("m.json")));

        // Malformed numbers and empty paths are the defaults.
        let c = parse(&[("REGENT_HANG_TIMEOUT_MS", "soon"), ("REGENT_METRICS", "")]);
        assert_eq!(c, parse(&[]));
    }
}
