//! Source lints: rules about what the tree may contain, checked by
//! reading the sources. Each rule guards a deletion — a ladder of entry
//! points, a polling wait, a per-run allocation, a second transport, a
//! read of the environment below the edge — against growing back, including in the feature-gated files no
//! offline build compiles and in the docs.
//!
//! "Non-test part" of a file means everything before its first
//! `#[cfg(test)]`.

use std::fs;
use std::path::{Path, PathBuf};

/// What the name rules scan: code, examples and the docs that describe
/// the current tree (the experiment log and the change history may name
/// what was deleted).
const TREE: [&str; 6] = [
    "crates",
    "src",
    "tests",
    "examples",
    "README.md",
    "DESIGN.md",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `rel` (a file or a directory), with its contents,
/// as paths relative to the repository root. This file is left out: it
/// has to spell the names it forbids.
fn files(rel: &str) -> Vec<(String, String)> {
    fn walk(root: &Path, path: &Path, out: &mut Vec<(String, String)>) {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = fs::read_dir(path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
                .map(|e| e.expect("directory entry").path())
                .collect();
            entries.sort();
            for e in entries {
                walk(root, &e, out);
            }
        } else {
            let rel = path
                .strip_prefix(root)
                .expect("walked path lies under the root")
                .to_string_lossy()
                .into_owned();
            if rel != "tests/lints.rs" {
                let bytes =
                    fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
                out.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
            }
        }
    }
    let root = root();
    let mut out = Vec::new();
    walk(&root, &root.join(rel), &mut out);
    out
}

/// Maximal runs of `[A-Za-z0-9_]` — what `grep -w` calls words.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// `where: line` for every line of `trees` on which `hit` holds; with
/// `non_test`, only up to each file's first `#[cfg(test)]`.
fn scan(trees: &[&str], non_test: bool, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    for tree in trees {
        for (rel, text) in files(tree) {
            for (i, line) in text.lines().enumerate() {
                if non_test && line.contains("#[cfg(test)]") {
                    break;
                }
                if hit(line) {
                    out.push(format!("{rel}:{}: {}", i + 1, line.trim()));
                }
            }
        }
    }
    out
}

fn hits(trees: &[&str], hit: impl Fn(&str) -> bool) -> Vec<String> {
    scan(trees, false, hit)
}

/// [`scan`] over the non-test part of the named `crates/runtime/src`
/// files.
fn runtime_hits(stems: &[&str], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let paths: Vec<String> = stems
        .iter()
        .map(|stem| format!("crates/runtime/src/{stem}.rs"))
        .collect();
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    scan(&paths, true, hit)
}

fn assert_none(what: &str, found: Vec<String>) {
    assert!(found.is_empty(), "{what}:\n{}", found.join("\n"));
}

/// The SPMD family has two entry points (`run`, `run_failover`) and the
/// DES one (`simulate`). Fails when an executor or scenario ladder grows
/// back, or when a deleted name survives anywhere. The four
/// `execute_*_traced` forwarders are the benchmark adapter's surface
/// and nothing inside the workspace may call them.
#[test]
fn surface() {
    const ENTRY_POINTS: [&str; 5] = [
        "execute_implicit",
        "execute_spmd_traced",
        "execute_spmd_resilient_traced",
        "execute_log_traced",
        "execute_hybrid_traced",
    ];
    let entry_point = |line: &str| {
        line.split("pub fn ")
            .skip(1)
            .filter_map(|rest| words(rest).next())
            .any(|name| name.starts_with("execute_") && !ENTRY_POINTS.contains(&name))
    };
    assert_none(
        "unexpected executor entry points",
        hits(&["crates/runtime/src"], entry_point),
    );
    assert_none(
        "the simulate_* ladder is back",
        hits(&["crates/machine/src"], |l| l.contains("pub fn simulate_")),
    );

    const DELETED: [&str; 25] = [
        "execute_spmd",
        "execute_spmd_with_env",
        "execute_spmd_with_env_traced",
        "execute_spmd_with_env_resilient_traced",
        "execute_spmd_resilient",
        "execute_spmd_failover",
        "execute_spmd_failover_traced",
        "execute_log",
        "execute_log_resilient",
        "execute_log_resilient_traced",
        "execute_log_failover",
        "execute_log_failover_traced",
        "execute_hybrid",
        "execute_hybrid_resilient",
        "execute_hybrid_resilient_traced",
        "execute_hybrid_failover",
        "execute_hybrid_failover_traced",
        "SpmdRunResult",
        "LogRunResult",
        "FailoverRunResult",
        "LogFailoverRunResult",
        "HybridFailoverRunResult",
        "HybridRescue",
        "failover_enabled",
        "merge_from",
    ];
    let deleted = |line: &str| {
        words(line).any(|w| {
            DELETED.contains(&w)
                || w.strip_prefix("simulate_").is_some_and(|rest| {
                    !rest.is_empty() && rest.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                })
        })
    };
    assert_none("deleted names still referenced", hits(&TREE, deleted));

    let forwarders: Vec<String> = hits(&["crates", "src", "tests", "examples"], |line| {
        words(line).any(|w| ENTRY_POINTS[1..].contains(&w))
    })
    .into_iter()
    .filter(|h| {
        !h.starts_with("crates/runtime/src/run.rs:") && !h.starts_with("crates/runtime/src/lib.rs:")
    })
    .collect();
    assert_none("adapter forwarders used inside the workspace", forwarders);
}

/// A blocked SPMD-family thread waits through `runtime/src/wait.rs`
/// (spin briefly, then park) and nowhere else. Fails when a sleep or
/// yield loop, or the old `Backoff`, comes back into the non-test part
/// of the files that wait.
#[test]
fn no_polling() {
    let waits = [
        "wait",
        "ring",
        "collective",
        "log_exec",
        "launch_log",
        "team",
    ];
    assert_none(
        "a polling wait is back",
        runtime_hits(&waits, |line| {
            ["thread::sleep(", "yield_now(", "Backoff"]
                .iter()
                .any(|p| line.contains(p))
        }),
    );
}

/// A shard's instances are built by the image builder
/// (`crates/core/src/image.rs`) once per compiled program and indexed
/// by slot. Fails when an executor allocates an instance of its own or
/// goes back to looking instances up by key, in the non-test part of
/// the files that run shards.
#[test]
fn mapped_once() {
    let shards = ["spmd_exec", "team", "log_exec", "hybrid_exec"];
    assert_none(
        "an executor builds or hashes instances again",
        runtime_hits(&shards, |line| {
            [
                "Instance::new(",
                "Instance::new_reduction(",
                "HashMap<InstKey",
            ]
            .iter()
            .any(|p| line.contains(p))
        }),
    );
}

/// Shards exchange over one transport — the SPSC ring mesh, sized by
/// the exchange schedule — and the integrity layer has one hasher.
/// Fails when the channel plane, its selector, the capacity knob, the
/// second hasher, or the binaries and budgets that only compared them
/// are named anywhere, CI included, or when a `std::sync::mpsc` channel
/// comes back into the non-test part of the files that run shards
/// (`implicit.rs` still feeds its workers through channels).
#[test]
fn one_plane() {
    const GONE: [&str; 12] = [
        "DataPlane",
        "CopyTx",
        "CopyRx",
        "data_plane_from_env",
        "ring_cap_from_env",
        "REGENT_DATA_PLANE",
        "REGENT_RING_CAP",
        "MulFold",
        "mul_fold",
        "fig_dataplane",
        "BENCH_PR8",
        "criterion",
    ];
    let mut trees = TREE.to_vec();
    trees.push(".github");
    assert_none(
        "a deleted transport, hasher or bench name is back",
        hits(&trees, |line| GONE.iter().any(|name| line.contains(name))),
    );

    let shards = ["ring", "team", "spmd_exec", "log_exec", "hybrid_exec"];
    assert_none(
        "a channel is back under the shards",
        runtime_hits(&shards, |line| {
            let has = |names: &[&str]| words(line).any(|w| names.contains(&w));
            has(&["mpsc"])
                && has(&[
                    "channel",
                    "sync_channel",
                    "Sender",
                    "SyncSender",
                    "Receiver",
                ])
        }),
    );
}

/// The environment is read in one file, `crates/runtime/src/config.rs`,
/// and its parse (`config::process`) is consulted only where a
/// top-level object is constructed: the executors, the waits and the
/// supervisor take values. Fails when a library file names `std::env`
/// (binaries are edges; `std::env::args` is no configuration), when a
/// file that runs shards or jobs consults the process configuration,
/// when a test goes back to flipping the process environment, or when a
/// deleted variable or reader is named anywhere, CI included.
#[test]
fn env_at_the_edge() {
    let names_env = |line: &str| {
        (line.contains("std::env") || line.contains("env::var")) && !line.contains("std::env::args")
    };
    let library: Vec<String> = scan(&["crates"], true, names_env)
        .into_iter()
        .filter(|h| {
            let file = h.split(':').next().expect("scan hits start with the path");
            file.contains("/src/")
                && !file.starts_with("crates/bench/src/bin/")
                && file != "crates/runtime/src/config.rs"
        })
        .collect();
    assert_none("the environment is read outside config.rs", library);

    let below = [
        "team",
        "spmd_exec",
        "log_exec",
        "hybrid_exec",
        "launch_log",
        "wait",
        "pool",
        "failover",
    ];
    let mut consults = runtime_hits(&below, |line| line.contains("config::"));
    consults.extend(scan(&["crates/service/src/supervisor.rs"], true, |line| {
        line.contains("config::process")
    }));
    assert_none(
        "the process configuration is consulted below the edge",
        consults,
    );

    assert_none(
        "a test flips the process environment",
        hits(&["crates", "tests"], |line| {
            line.contains("set_var") || line.contains("remove_var")
        })
        .into_iter()
        .filter(|h| h.starts_with("tests/") || h.contains("/tests/"))
        .collect(),
    );

    const GONE: [&str; 18] = [
        "REGENT_KILL_SEED",
        "REGENT_FAILOVER_MAX",
        "REGENT_LOG_REPLICAS",
        "REGENT_LOG_BATCH",
        "REGENT_FLIGHT_EVENTS",
        "REGENT_SLO_P99_MS",
        "REGENT_SLO_SHED_PCT",
        "REGENT_SERVE_DEADLINE_MS",
        "REGENT_SERVE_SHARDS",
        "pin_cores_enabled",
        "replicas_from_env",
        "batch_limit_from_env",
        "seed_from_env",
        "corrupt_from_env",
        "kills_from_env",
        "dump_env",
        "export_env",
        "start_env",
    ];
    let mut trees = TREE.to_vec();
    trees.push(".github");
    // The global timeout was a function; `hang_timeout` lives on as
    // the name of the field that replaced it.
    let calls_hang_timeout = |line: &str| {
        line.match_indices("hang_timeout(")
            .any(|(at, _)| !line[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_'))
    };
    assert_none(
        "a deleted variable or environment reader is back",
        hits(&trees, |line| {
            GONE.iter().any(|name| line.contains(name)) || calls_hang_timeout(line)
        }),
    );
}
