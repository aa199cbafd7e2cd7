//! The simulator's golden output. Each figure binary, run with
//! `--max-nodes 64 --steps 4 --log`, must reproduce `BENCH_PR6.json`
//! entry for entry and field for field: wall time, critical path, blame
//! vector and metrics. The simulator is a deterministic DES, so any
//! difference is a change of behaviour — a defect, or an intended
//! change whose new output is checked in with the command the failure
//! prints.

use regent_trace::{parse_entries, BenchEntry};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

const FIGURES: [&str; 4] = [
    env!("CARGO_BIN_EXE_fig6_stencil"),
    env!("CARGO_BIN_EXE_fig7_miniaero"),
    env!("CARGO_BIN_EXE_fig8_pennant"),
    env!("CARGO_BIN_EXE_fig9_circuit"),
];

const ARGS: [&str; 5] = ["--max-nodes", "64", "--steps", "4", "--log"];

const REGENERATE: &str = "rm BENCH_PR6.json; \
    for fig in fig6_stencil fig7_miniaero fig8_pennant fig9_circuit; do \
    cargo run --release -p regent-bench --bin $fig -- \
    --max-nodes 64 --steps 4 --log --json BENCH_PR6.json; done";

type Key = (String, String, u32, String);

fn keyed(what: &str, entries: Vec<BenchEntry>) -> BTreeMap<Key, BenchEntry> {
    let mut out = BTreeMap::new();
    for e in entries {
        let key = e.key();
        assert!(
            out.insert(key.clone(), e).is_none(),
            "{what}: two entries for {key:?}"
        );
    }
    out
}

/// Runs every figure binary into one fresh artifact and reads it back.
fn fresh_entries() -> Vec<BenchEntry> {
    let path = std::env::temp_dir().join(format!("sim_golden-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    for bin in FIGURES {
        let out = Command::new(bin)
            .args(ARGS)
            .arg("--json")
            .arg(&path)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        assert!(
            out.status.success(),
            "{bin} failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let _ = std::fs::remove_file(&path);
    parse_entries(&text).unwrap_or_else(|e| panic!("fresh artifact: {e}"))
}

#[test]
fn figures_reproduce_the_checked_in_baseline() {
    let baseline = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR6.json");
    let text = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| panic!("reading {}: {e}", baseline.display()));
    let want = keyed(
        "BENCH_PR6.json",
        parse_entries(&text).unwrap_or_else(|e| panic!("BENCH_PR6.json: {e}")),
    );
    assert!(!want.is_empty(), "BENCH_PR6.json holds no entries");
    let got = keyed("fresh run", fresh_entries());
    let keys: BTreeSet<&Key> = want.keys().chain(got.keys()).collect();
    for key in keys {
        let (w, g) = (want.get(key), got.get(key));
        assert!(
            w == g,
            "first differing entry {key:?}\n  BENCH_PR6.json: {w:?}\n  fresh run:      {g:?}\n\
             ({} entries checked in, {} produced). If the change is intended, \
             regenerate the file from the repository root:\n  {REGENERATE}",
            want.len(),
            got.len()
        );
    }
}
