//! Source lints: rules about what the tree may contain, checked by
//! reading the sources. Each rule guards a deletion — a ladder of entry
//! points, a polling wait, a per-run allocation, a second transport, a
//! read of the environment below the edge, an external test crate —
//! against growing back, in the docs too.
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
/// back, or when a deleted name — a retired executor, result type,
/// checkpoint type, per-model DES builder, a piece of the simulator's
/// deleted fault model, the job supervisor's cancellation and failure
/// classes, the const-generic geometry family, the flight recorder, or
/// an option or method nothing set or called — survives anywhere. The four
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

    const DELETED: [&str; 85] = [
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
        "PendingPart",
        "ResumeState",
        "inst_hash",
        "DefaultHasher",
        "CrBuilder",
        "build_cr",
        "build_implicit",
        "build_log",
        "build_mpi",
        "Service",
        "ServiceConfig",
        "LivePlane",
        "ScrapeServer",
        "start_scrape_at",
        "to_prometheus",
        "prom_escape",
        "RetryBackoff",
        "with_budget_and_transient",
        "QueueWait",
        "copy_occurrence",
        "send_framed",
        "push_frame",
        "ResilienceSpec",
        "MessageFate",
        "message_fate",
        "RetryPolicy",
        "set_faults",
        "slowdown_factor",
        "from_seed_rate",
        "format_resilience_table",
        "goodput_per_node",
        "CancelToken",
        "classify_failure",
        "FailureClass",
        "CANCEL_PREFIX",
        "TRANSIENT_PREFIX",
        "with_deadline",
        "with_transient_at",
        "checkpoint_epoch",
        "to_static",
        "RectIter",
        "Point1",
        "Point2",
        "Point3",
        "Rect1",
        "Rect2",
        "Rect3",
        "FlightRecorder",
        "note_failover_flight",
        "flightEvicted",
        "min_shards",
        "emit_trace",
        "owner_of_color",
        "old_owner",
        "complete_intersections",
        "CompleteIntersection",
        "snapshot_flat",
        "real_entry",
        "new_owner",
        "size_bytes",
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

/// A blocked SPMD-family thread, implicit worker, draining control
/// thread or idle team member (the member loop and the caller's join,
/// both in `team.rs`) waits through `runtime/src/wait.rs` (spin
/// briefly, then park) and nowhere else. Fails when a sleep or yield loop, or the old
/// `Backoff`, comes back into the non-test part of the files that wait.
#[test]
fn no_polling() {
    let waits = [
        "wait",
        "ring",
        "collective",
        "exchange",
        "log_exec",
        "launch_log",
        "team",
        "implicit",
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

/// Shards, the log sequencer and implicit workers run on the resident
/// members of `runtime/src/team.rs`, the one place the runtime creates
/// threads. Fails when `thread::scope`, `thread::spawn` or
/// `thread::Builder` appears in the non-test part of any other
/// `crates/runtime/src` file.
#[test]
fn one_team() {
    let found = scan(&["crates/runtime/src"], true, |line| {
        ["thread::scope", "thread::spawn", "thread::Builder"]
            .iter()
            .any(|p| line.contains(p))
    });
    assert_none(
        "a thread is created outside the team",
        found
            .into_iter()
            .filter(|h| !h.starts_with("crates/runtime/src/team.rs:"))
            .collect(),
    );
}

/// A shard's instances are built by the image builder
/// (`crates/core/src/image.rs`) once per compiled program and indexed
/// by slot. Fails when an executor allocates an instance of its own or
/// goes back to looking instances up by key, in the non-test part of
/// the files that run shards.
#[test]
fn mapped_once() {
    let shards = [
        "spmd_exec",
        "exchange",
        "resilience",
        "team",
        "log_exec",
        "hybrid_exec",
    ];
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
/// second hasher, the binaries and budgets that only compared them, a
/// deleted bench baseline, its `--check` gate or the launch log's
/// combiner field are named anywhere, CI included, or when a
/// `std::sync::mpsc` channel comes back into the non-test part of the
/// files that run shards or implicit workers.
#[test]
fn one_plane() {
    const GONE: [&str; 18] = [
        "BENCH_PR5",
        "BENCH_PR7",
        "BENCH_PR9",
        "check_entries",
        "--check-tol",
        "combined_from",
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

    let shards = [
        "ring",
        "team",
        "spmd_exec",
        "exchange",
        "log_exec",
        "hybrid_exec",
        "implicit",
    ];
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
/// top-level object is constructed: the executors and the waits take
/// values. Fails when a library file names `std::env` (binaries are
/// edges; `std::env::args` is no configuration), when a file that runs
/// shards consults the process configuration,
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
        "exchange",
        "resilience",
        "log_exec",
        "hybrid_exec",
        "launch_log",
        "wait",
        "pool",
        "failover",
    ];
    assert_none(
        "the process configuration is consulted below the edge",
        runtime_hits(&below, |line| line.contains("config::")),
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

    const GONE: [&str; 29] = [
        "REGENT_KILL_SEED",
        "REGENT_FAILOVER_MAX",
        "REGENT_LOG_REPLICAS",
        "REGENT_LOG_BATCH",
        "REGENT_FLIGHT_EVENTS",
        "REGENT_FLIGHT_DIR",
        "REGENT_SLO_P99_MS",
        "REGENT_SLO_SHED_PCT",
        "REGENT_SERVE_DEADLINE_MS",
        "REGENT_SERVE_SHARDS",
        "REGENT_SERVE_WORKERS",
        "REGENT_SERVE_QUEUE",
        "REGENT_SERVE_SHED_BUDGET",
        "REGENT_SERVE_DEGRADE",
        "REGENT_SERVE_TRACE_DIR",
        "REGENT_SLO_WINDOW_SECS",
        "REGENT_METRICS_ADDR",
        "REGENT_KILL",
        "REGENT_FAILOVER",
        "REGENT_PIN_CORES",
        // `RunOptions::pin_cores`, `EnvConfig::pin_cores` and the older
        // `pin_cores_enabled` reader.
        "pin_cores",
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

/// Timers read the monotonic clock. The thread CPU clock is a system
/// call per read, so only `runtime/src/metrics.rs`, which defines it,
/// names `thread_cpu_ns` under `crates/*/src`, and the timer methods
/// that read it on every bracket are gone from the tree. Fails when a
/// syscall clock creeps back into a per-statement path.
#[test]
fn one_clock() {
    let cpu_clock: Vec<String> = scan(&["crates"], false, |line| {
        words(line).any(|w| w == "thread_cpu_ns")
    })
    .into_iter()
    .filter(|h| h.contains("/src/") && !h.starts_with("crates/runtime/src/metrics.rs:"))
    .collect();
    assert_none("the thread CPU clock is read outside metrics.rs", cpu_clock);

    let mut trees = TREE.to_vec();
    trees.push(".github");
    assert_none(
        "a CPU-clock timer method is back",
        hits(&trees, |line| {
            words(line).any(|w| w == "start_cpu" || w == "record_cpu_since")
        }),
    );
}

/// Every trace file is one document — Chrome `trace_event` with the
/// `regentTracks` sidecar — and each event kind's wire form is stated
/// once, in the `event_kinds!` table of `crates/trace/src/event.rs`.
/// Fails when the native format or a second writer comes back (by name,
/// CI and docs included; `regentTrace` is matched as a whole word, so
/// the `regentTracks` key does not count), when a wire tag is spelled
/// anywhere else in the non-test part of `crates/trace/src`, or when a
/// second non-test function writes a `traceEvents` document.
#[test]
fn one_trace_document() {
    const GONE: [&str; 4] = [
        "export_native",
        "tracks_json",
        "sim_kind_name",
        "regentTrace",
    ];
    let mut trees = TREE.to_vec();
    trees.push(".github");
    assert_none(
        "a deleted trace format or writer is back",
        hits(&trees, |line| words(line).any(|w| GONE.contains(&w))),
    );

    // The table's entries read `Variant = "tag" {` (or `Variant =
    // "tag",` without fields).
    let table = fs::read_to_string(root().join("crates/trace/src/event.rs")).expect("event.rs");
    let tags: Vec<String> = table
        .lines()
        .filter_map(|line| {
            let (variant, rest) = line.trim().split_once(" = \"")?;
            let tag = rest.split_once('"')?.0;
            let variant_like = variant.starts_with(|c: char| c.is_ascii_uppercase())
                && variant.chars().all(|c| c.is_ascii_alphanumeric());
            variant_like.then(|| format!("\"{tag}\""))
        })
        .collect();
    assert_eq!(
        tags.len(),
        34,
        "the event table's entries were not all found: {tags:?}"
    );
    // Blame phases are another namespace that shares two names
    // (`Phase::DepAnalysis` is `"dep_analysis"` in bench artifacts).
    for tag in &tags {
        let found = scan(&["crates/trace/src"], true, |line| {
            line.contains(tag.as_str()) && !line.contains("Phase::")
        });
        assert!(
            found.len() == 1,
            "wire tag {tag} is not stated exactly once:\n{}",
            found.join("\n")
        );
    }

    let writes: Vec<String> = scan(&["crates", "src", "examples"], true, |line| {
        line.contains("traceEvents") && !line.trim_start().starts_with("//")
    })
    .into_iter()
    .filter(|h| {
        let file = h.split(':').next().expect("scan hits start with the path");
        file.ends_with(".rs") && !file.contains("/tests/")
    })
    .collect();
    assert!(
        writes.len() == 1 && writes[0].starts_with("crates/trace/src/chrome.rs:"),
        "the trace document is written by one function, `export_chrome`:\n{}",
        writes.join("\n")
    );
}

/// Property suites run on the seeded runner in `tests/support/prop.rs`
/// and compile in every build: the external property-test crate and
/// the cargo feature that gated its suites are gone. Fails when either
/// is named in the sources, a manifest, the docs, CI or the verify
/// notes, or when a manifest declares a `[features]` table.
#[test]
fn one_runner() {
    const GONE: [&str; 2] = ["proptest", "proptest-tests"];
    let mut trees = TREE.to_vec();
    trees.extend(["Cargo.toml", ".github", ".claude"]);
    assert_none(
        "the external property-test crate or its feature is back",
        hits(&trees, |line| GONE.iter().any(|name| line.contains(name))),
    );
    let features: Vec<String> = hits(&["Cargo.toml", "crates"], |line| {
        line.trim() == "[features]"
    })
    .into_iter()
    .filter(|h| {
        h.split(':')
            .next()
            .is_some_and(|rel| rel.ends_with("Cargo.toml"))
    })
    .collect();
    assert_none("a manifest declares cargo features", features);
}

/// What the round's size target counts: every line of every
/// `crates/*/src` file up to its first `#[cfg(test)]` (blank lines and
/// comments included), and the `pub` items among them (`pub` `fn`,
/// `struct`, `enum`, `trait`, `type`, `const`, `static` or `mod`,
/// optionally `const` / `unsafe`-qualified). Prints both, so two trees
/// compare by one count, and fails when the lines grow past the
/// target.
#[test]
fn size() {
    const TARGET_LOC: usize = 27_000;
    const ITEMS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let declares_pub_item = |line: &str| {
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            return false;
        };
        let mut w = words(rest);
        match w.next() {
            Some("unsafe") => w.next().is_some_and(|k| ITEMS.contains(&k)),
            Some(k) => ITEMS.contains(&k),
            None => false,
        }
    };
    let (mut loc, mut pub_items) = (0, 0);
    for (rel, text) in files("crates") {
        if !(rel.ends_with(".rs") && rel.split('/').nth(2) == Some("src")) {
            continue;
        }
        for line in text.lines() {
            if line.contains("#[cfg(test)]") {
                break;
            }
            loc += 1;
            pub_items += usize::from(declares_pub_item(line));
        }
    }
    println!("non-test lines under crates/*/src: {loc}; pub items: {pub_items}");
    assert!(
        loc <= TARGET_LOC,
        "{loc} non-test lines under crates/*/src, above the {TARGET_LOC} target"
    );
}
