//! Result files: what one run measured, on which host, and the
//! comparison of two of them.

use crate::bench::Args;
use crate::metrics::{END_TO_END, PER_LAYER, SHARDS};
use crate::speed::{SpeedProbe, REFERENCE_PROBE_MS};
use crate::stats::{Stat, Summary};
use crate::sut::json::{self, Value};
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `benchmark/out/`: result files and span traces, never committed.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Facts about the host and the build that a number means nothing
/// without.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub git_revision: String,
    pub rustc: String,
    /// `REGENT_*` variables found set, and removed, at start.
    pub scrubbed: Vec<String>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Host {
    pub fn probe(scrubbed: Vec<String>) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            git_revision: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            scrubbed,
        }
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    json::escape_into(&mut out, s);
    out.push('"');
    out
}

pub struct Report {
    pub workload: &'static str,
    params: &'static str,
    /// `end_to_end` (untraced) or `per_layer` (the traced run).
    mode: &'static str,
    seed: u64,
    seconds: f64,
    quick: bool,
    rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, Stat, Summary)>,
    /// The benchmark's own spans of a traced run, as Chrome JSON.
    pub spans_json: Option<String>,
    /// The speed probe's time during this run, ms ([`Stat::Low5`]).
    probe_ms: f64,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric table"))
        .1
}

impl Report {
    pub fn new(
        w: &Workload,
        args: &Args,
        mode: &'static str,
        rounds: usize,
        probe: &SpeedProbe,
    ) -> Report {
        Report {
            workload: w.name,
            params: w.params,
            mode,
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            rounds,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            spans_json: None,
            probe_ms: Summary::of(probe.samples_ms()).value(Stat::Low5),
        }
    }

    /// What a time measured during this run is multiplied by to read
    /// as if taken at the reference speed (see [`crate::speed`]).
    fn speed_factor(&self) -> f64 {
        REFERENCE_PROBE_MS / self.probe_ms
    }

    /// A metric's value: the median of its samples, or for a
    /// wall-clock metric the mean of the fastest at the reference speed.
    fn value(&self, stat: Stat, s: &Summary) -> f64 {
        match stat {
            Stat::Median => s.value(stat),
            Stat::Low5 => s.value(stat) * self.speed_factor(),
            Stat::High5 => s.value(stat) / self.speed_factor(),
        }
    }

    /// A metric whose value is the median of its samples.
    pub fn push(&mut self, name: &str, s: Summary) {
        self.metrics.push((name.to_string(), Stat::Median, s));
    }

    /// A wall-clock metric sampled once per round or per set-up: its
    /// value is the mean of its fastest samples (see [`Stat::Low5`])
    /// at the reference speed.
    pub fn push_wall_clock(&mut self, name: &str, s: Summary) {
        self.metrics.push((name.to_string(), Stat::Low5, s));
    }

    /// A rate sampled several times: the mean of its highest samples
    /// at the reference speed.
    pub fn push_rate(&mut self, name: &str, s: Summary) {
        self.metrics.push((name.to_string(), Stat::High5, s));
    }

    pub fn push_value(&mut self, name: &str, v: f64) {
        self.push(name, Summary::of(&[v]));
    }

    /// Every metric by name with its unit, for a reader.
    pub fn print_table(&self) {
        println!(
            "# {} ({}) {} — seed {} rounds {} ops_attempted {} ops_failed {}{}",
            self.workload,
            self.params,
            self.mode,
            self.seed,
            self.rounds,
            self.attempted,
            self.failed,
            if self.quick {
                " — QUICK, not a measurement"
            } else {
                ""
            },
        );
        println!(
            "# host speed: probe low5 {:.4} ms against the reference {} ms; every low5 value is the one measured times {:.4}",
            self.probe_ms,
            REFERENCE_PROBE_MS,
            self.speed_factor()
        );
        println!(
            "# value is the statistic named beside it; no tail percentile is reported or gated:"
        );
        println!(
            "# the tail of these samples is the host's other tenants, not the system under test"
        );
        println!(
            "{:<34} {:>14} {:<6} {:<11} {:>12} {:>12} {:>12} {:>12} {:>12} {:>4}",
            "metric", "value", "stat", "unit", "low5", "q1", "median", "q3", "max", "n"
        );
        for (name, stat, s) in &self.metrics {
            println!(
                "{:<34} {:>14.4} {:<6} {:<11} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>4}",
                name,
                self.value(*stat, s),
                stat.name(),
                unit_of(name),
                s.value(Stat::Low5),
                s.q1(),
                s.median(),
                s.q3(),
                s.max(),
                s.n()
            );
        }
    }

    /// The last line of standard output: `correct`, `attempted`,
    /// `failed` and the metrics, each value with all its digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, stat, s)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quoted(name),
                    self.value(*stat, s),
                    quoted(unit_of(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.all_finite(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn all_finite(&self) -> bool {
        self.metrics
            .iter()
            .all(|(_, stat, s)| self.value(*stat, s).is_finite())
    }

    pub fn to_json(&self, host: &Host) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, stat, s)| {
                let bound = END_TO_END
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(String::new(), |m| format!(", \"bound\": {}", m.bound));
                let exact = PER_LAYER.iter().any(|m| m.name == name && m.exact);
                let (ci_lo, ci_hi) = s.interval(*stat);
                format!(
                    "    {}: {{\"value\": {}, \"stat\": {}, \"as_measured\": {}, \"unit\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"ci95_lo\": {ci_lo}, \"ci95_hi\": {ci_hi}, \"n\": {}, \"exact\": {exact}{bound}}}",
                    quoted(name),
                    self.value(*stat, s),
                    quoted(stat.name()),
                    s.value(*stat),
                    quoted(unit_of(name)),
                    s.q1(),
                    s.median(),
                    s.q3(),
                    s.max(),
                    s.n(),
                )
            })
            .collect();
        let scrubbed: Vec<String> = host.scrubbed.iter().map(|s| quoted(s)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"params\": {},\n  \"mode\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \"rounds\": {},\n  \"ops_attempted\": {},\n  \"ops_failed\": {},\n  \"speed\": {{\"probe_low5_ms\": {}, \"reference_ms\": {}, \"factor\": {}}},\n  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"shards\": {}, \"pinning\": \"off\", \"data_plane\": \"default\", \"scrubbed_env\": [{}], \"git_revision\": {}, \"rustc\": {}}},\n  \"metrics\": {{\n{}\n  }}\n}}",
            quoted(self.workload),
            quoted(self.params),
            quoted(self.mode),
            self.seed,
            self.seconds,
            self.quick,
            self.rounds,
            self.attempted,
            self.failed,
            self.probe_ms,
            REFERENCE_PROBE_MS,
            self.speed_factor(),
            host.nproc,
            quoted(&host.cpu_model),
            SHARDS,
            scrubbed.join(", "),
            quoted(&host.git_revision),
            quoted(&host.rustc),
            metrics.join(",\n")
        )
    }

    /// Where this report's own file goes.
    pub fn default_path(&self) -> PathBuf {
        out_dir().join(format!("{}.{}.json", self.workload, self.mode))
    }
}

/// One `(workload, mode)` entry of a result file.
struct Run<'a> {
    workload: &'a str,
    mode: &'a str,
    seed: f64,
    quick: bool,
    failed: f64,
    metrics: &'a std::collections::BTreeMap<String, Value>,
}

fn runs_of(doc: &Value) -> Result<Vec<Run<'_>>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("no \"runs\" array: not a regent-perf result file")?;
    runs.iter()
        .map(|r| {
            Some(Run {
                workload: r.get("workload")?.as_str()?,
                mode: r.get("mode")?.as_str()?,
                seed: r.get("seed")?.as_num()?,
                quick: *r.get("quick")? == Value::Bool(true),
                failed: r.get("ops_failed")?.as_num()?,
                metrics: r.get("metrics")?.as_obj()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "a run lacks workload, mode, seed, quick, ops_failed or metrics".to_string())
}

fn num(metric: &Value, key: &str) -> Result<f64, String> {
    metric
        .get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("metric lacks \"{key}\""))
}

/// `agree A.json B.json`: per workload and end-to-end metric, both
/// values, B's difference from A, the bound and a verdict; per exact
/// layer count, equality when both runs had the same seed (another
/// seed is another Circuit graph). Returns whether every row was `ok`.
pub fn agree(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (doc_a, doc_b) = (read(path_a)?, read(path_b)?);
    let (runs_a, runs_b) = (runs_of(&doc_a)?, runs_of(&doc_b)?);
    if runs_a.iter().chain(&runs_b).any(|r| r.quick) {
        return Err("a --quick result is a smoke test, not a measurement: refused".into());
    }
    let mut all_ok = true;
    println!(
        "{:<15} {:<18} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound", "spread"
    );
    for a in &runs_a {
        let Some(b) = runs_b
            .iter()
            .find(|b| b.workload == a.workload && b.mode == a.mode)
        else {
            println!("{:<15} {} run missing from B", a.workload, a.mode);
            all_ok = false;
            continue;
        };
        if a.failed > 0.0 || b.failed > 0.0 {
            println!("{:<15} {} run has failed operations", a.workload, a.mode);
            all_ok = false;
        }
        for (name, ma) in a.metrics {
            let Some(mb) = b.metrics.get(name) else {
                println!("{:<15} {name} missing from B", a.workload);
                all_ok = false;
                continue;
            };
            let (va, vb) = (num(ma, "value")?, num(mb, "value")?);
            if let Some(bound) = ma.get("bound").and_then(Value::as_num) {
                // All end-to-end metrics are lower-is-better.
                let diff = (vb - va) / va;
                // The interval is of the statistic as measured, before
                // it is brought to the reference speed.
                let spread = |m: &Value| -> Result<f64, String> {
                    Ok((num(m, "ci95_hi")? - num(m, "ci95_lo")?) / num(m, "as_measured")?)
                };
                let spread = spread(ma)?.max(spread(mb)?);
                let verdict = if spread > bound {
                    "unresolved"
                } else if diff > bound {
                    "regressed"
                } else {
                    "ok"
                };
                all_ok &= verdict == "ok";
                println!(
                    "{:<15} {:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}% {:>7.1}%  {verdict}",
                    a.workload,
                    name,
                    va,
                    vb,
                    diff * 100.0,
                    bound * 100.0,
                    spread * 100.0
                );
            } else if ma.get("exact") == Some(&Value::Bool(true)) && a.seed == b.seed && va != vb {
                println!(
                    "{:<15} {:<18} {va} vs {vb}  count differs",
                    a.workload, name
                );
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}
