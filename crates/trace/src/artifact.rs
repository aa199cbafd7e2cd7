//! Machine-readable bench artifacts: a stable JSON schema for
//! benchmark results.
//!
//! A document is `{"benchSchema":1,"entries":[…]}`; each entry is keyed
//! by `(app, size, shards, executor)` and carries the measured wall
//! time, the critical-path length and the per-phase blame vector
//! ([`crate::critical`]).
//! [`merge_into_file`] lets several binaries accumulate into one file.
//! The simulator's entries are deterministic: `BENCH_PR6.json` holds
//! them, and `crates/bench/tests/sim_golden.rs` compares a fresh run
//! with it field for field.

use crate::critical::{Blame, Phase};
use crate::json::{escape_into, parse, Value};
use std::fmt::Write as _;

/// One benchmark measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Application name (`stencil`, `miniaero`, `pennant`, `circuit`).
    pub app: String,
    /// Workload size description (stable across runs of one config).
    pub size: String,
    /// Shards / nodes the run used.
    pub shards: u32,
    /// Execution model (`spmd`, `implicit`, `implicit-memo`, …).
    pub executor: String,
    /// End-to-end wall time, nanoseconds (virtual ns for simulated
    /// runs).
    pub wall_ns: u64,
    /// Critical-path length, nanoseconds.
    pub critical_path_ns: u64,
    /// Per-phase critical-path blame.
    pub blame: Blame,
}

impl BenchEntry {
    /// The identity key entries are merged and compared by.
    pub fn key(&self) -> (String, String, u32, String) {
        (
            self.app.clone(),
            self.size.clone(),
            self.shards,
            self.executor.clone(),
        )
    }
}

/// Serializes `entries` as a versioned artifact document.
fn entries_to_json(entries: &[BenchEntry]) -> String {
    let mut out = String::from("{\"benchSchema\":1,\"entries\":[\n");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  {\"app\":\"");
        escape_into(&mut out, &e.app);
        out.push_str("\",\"size\":\"");
        escape_into(&mut out, &e.size);
        write!(out, "\",\"shards\":{},\"executor\":\"", e.shards).unwrap();
        escape_into(&mut out, &e.executor);
        write!(
            out,
            "\",\"wall_ns\":{},\"critical_path_ns\":{},\"blame\":{{",
            e.wall_ns, e.critical_path_ns
        )
        .unwrap();
        let mut first = true;
        for p in Phase::ALL {
            let ns = e.blame.get(p);
            if ns == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            write!(out, "\"{}\":{}", p.name(), ns).unwrap();
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

fn parse_entry(v: &Value) -> Result<BenchEntry, String> {
    let o = v.as_obj().ok_or("entry is not an object")?;
    let str_field = |k: &str| -> Result<String, String> {
        o.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("entry missing string field {k:?}"))
    };
    let num_field = |k: &str| -> Result<u64, String> {
        o.get(k)
            .and_then(Value::as_num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("entry missing numeric field {k:?}"))
    };
    let mut blame = Blame::default();
    if let Some(b) = o.get("blame").and_then(Value::as_obj) {
        for (name, v) in b {
            let ns = v.as_num().ok_or("blame value is not a number")? as u64;
            let phase = Phase::ALL
                .into_iter()
                .find(|p| p.name() == name)
                .ok_or_else(|| format!("unknown blame phase {name:?}"))?;
            blame.add(phase, ns);
        }
    }
    Ok(BenchEntry {
        app: str_field("app")?,
        size: str_field("size")?,
        shards: num_field("shards")? as u32,
        executor: str_field("executor")?,
        wall_ns: num_field("wall_ns")?,
        critical_path_ns: num_field("critical_path_ns")?,
        blame,
    })
}

/// Parses an artifact document written by [`merge_into_file`].
pub fn parse_entries(text: &str) -> Result<Vec<BenchEntry>, String> {
    let doc = parse(text).map_err(|e| format!("artifact is not valid JSON: {e}"))?;
    match doc.get("benchSchema").and_then(Value::as_num) {
        Some(1.0) => {}
        _ => return Err("artifact missing benchSchema:1".to_string()),
    }
    doc.get("entries")
        .and_then(Value::as_arr)
        .ok_or("artifact missing entries array")?
        .iter()
        .map(parse_entry)
        .collect()
}

/// Merges `fresh` into the artifact at `path` and writes it back:
/// an entry whose key is already there replaces it, new keys are
/// appended in `fresh` order. A missing or unreadable file counts as
/// empty. Returns the number of entries written.
pub fn merge_into_file(path: &str, fresh: Vec<BenchEntry>) -> std::io::Result<usize> {
    let base = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse_entries(&text).ok())
        .unwrap_or_default();
    let merged = merge(base, fresh);
    std::fs::write(path, entries_to_json(&merged))?;
    Ok(merged.len())
}

/// Merges `fresh` into `base`: entries with the same key are replaced,
/// new keys appended (stable order: base order, then new keys in
/// `fresh` order).
fn merge(base: Vec<BenchEntry>, fresh: Vec<BenchEntry>) -> Vec<BenchEntry> {
    let mut out = base;
    for e in fresh {
        match out.iter_mut().find(|b| b.key() == e.key()) {
            Some(slot) => *slot = e,
            None => out.push(e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(app: &str, shards: u32, executor: &str, wall: u64) -> BenchEntry {
        let mut blame = Blame::default();
        blame.add(Phase::Exec, wall / 2);
        blame.add(Phase::DepAnalysis, wall / 4);
        BenchEntry {
            app: app.into(),
            size: "steps4".into(),
            shards,
            executor: executor.into(),
            wall_ns: wall,
            critical_path_ns: wall * 3 / 4,
            blame,
        }
    }

    #[test]
    fn roundtrips() {
        let entries = vec![
            entry("stencil", 4, "spmd", 1_000_000),
            entry("stencil", 4, "implicit", 2_000_000),
        ];
        let text = entries_to_json(&entries);
        let back = parse_entries(&text).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn merge_replaces_matching_keys() {
        let base = vec![
            entry("stencil", 4, "spmd", 100),
            entry("circuit", 4, "spmd", 200),
        ];
        let fresh = vec![
            entry("stencil", 4, "spmd", 150),
            entry("pennant", 8, "spmd", 50),
        ];
        let merged = merge(base, fresh);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].wall_ns, 150);
        assert_eq!(merged[2].app, "pennant");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_entries("{}").is_err());
        assert!(parse_entries("{\"benchSchema\":2,\"entries\":[]}").is_err());
        assert!(parse_entries("{\"benchSchema\":1,\"entries\":[{\"app\":1}]}").is_err());
    }
}
