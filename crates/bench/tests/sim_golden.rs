//! The simulator's golden output, pinned two ways.
//!
//! Each figure binary, run with `--max-nodes 64 --steps 4 --log`, must
//! reproduce `BENCH_PR6.json` entry for entry and field for field: wall
//! time, critical path, blame vector and metrics. The simulator is a
//! deterministic DES, so any difference is a change of behaviour — a
//! defect, or an intended change whose new output is checked in with
//! the command the failure prints.
//!
//! The artifact covers only the traced `spmd`/`implicit`/`log`
//! entries, so every model is also pinned directly: each application at
//! 4 and 16 nodes under CR, implicit, memoized implicit, the log and
//! both MPI references must reproduce its makespan bits and graph size.

use regent_apps::circuit::circuit_spec;
use regent_apps::miniaero::miniaero_spec;
use regent_apps::pennant::pennant_spec;
use regent_apps::stencil::stencil_spec;
use regent_machine::{simulate, MachineConfig, Model, MpiVariant, SimOptions, TimestepSpec};
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

/// One pinned configuration: application, node count, configuration
/// name, then `makespan.to_bits()` and `graph_size`.
type Pin = (&'static str, usize, &'static str, u64, usize);

/// The outcome of every configuration [`configs`] lists, for each
/// application at 4 and 16 nodes over 4 steps.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("stencil",   4, "cr",                0x4010b4b7551c9a87,   736),
    ("stencil",   4, "implicit",          0x4010b61a899f5913,   736),
    ("stencil",   4, "implicit-memo",     0x4010b61a899f5913,   736),
    ("stencil",   4, "log",               0x4010b5f78a96cfd7,   776),
    ("stencil",   4, "mpi-rank-per-core", 0x400eb996e4b54ca5,   768),
    ("stencil",   4, "mpi-rank-per-node", 0x40105bb52fa0b056,   416),
    ("stencil",  16, "cr",                0x4010d1d1b3318809,  3008),
    ("stencil",  16, "implicit",          0x4010f3d0e17a70b0,  3008),
    ("stencil",  16, "implicit-memo",     0x4010f3d0e17a70b0,  3008),
    ("stencil",  16, "log",               0x4010d311e8abbd59,  3144),
    ("stencil",  16, "mpi-rank-per-core", 0x400ed360b5ee10e6,  3840),
    ("stencil",  16, "mpi-rank-per-node", 0x40107b134b9e01af,  1728),
    ("miniaero",  4, "cr",                0x3ff69f58461824e9,  2912),
    ("miniaero",  4, "implicit",          0x3ff6b5af4180d54a,  2912),
    ("miniaero",  4, "implicit-memo",     0x3ff6b5af4180d54a,  2912),
    ("miniaero",  4, "log",               0x3ff6a4591c00fa2a,  3072),
    ("miniaero",  4, "mpi-rank-per-core", 0x3ff4c2287753eef7,  2688),
    ("miniaero",  4, "mpi-rank-per-node", 0x3ff6037e85d073c4,  1632),
    ("miniaero", 16, "cr",                0x3ff6a9be532da92d, 11744),
    ("miniaero", 16, "implicit",          0x3ff99bc25e32e7ab, 11744),
    ("miniaero", 16, "implicit-memo",     0x3ff7c2646465cc93, 11744),
    ("miniaero", 16, "log",               0x3ff6aebf29167e6f, 12288),
    ("miniaero", 16, "mpi-rank-per-core", 0x3ff4c9ec1deaad16, 11904),
    ("miniaero", 16, "mpi-rank-per-node", 0x3ff6152d9fbcf06d,  6624),
    ("pennant",   4, "cr",                0x4001af3574b1ff21,  1460),
    ("pennant",   4, "implicit",          0x4001d6b9aca7d34d,  1460),
    ("pennant",   4, "implicit-memo",     0x4001c0731f18b1fa,  1460),
    ("pennant",   4, "log",               0x4001b8cfc5a804d0,  1540),
    ("pennant",   4, "mpi-rank-per-core", 0x400034f8e829d017,  1348),
    ("pennant",   4, "mpi-rank-per-node", 0x4001213f25f6a302,   820),
    ("pennant",  16, "cr",                0x4001b8c86711f405,  5876),
    ("pennant",  16, "implicit",          0x40032bb517e32fc8,  5876),
    ("pennant",  16, "implicit-memo",     0x40022abb87d67dd0,  5876),
    ("pennant",  16, "log",               0x4001d0e17283eaea,  6148),
    ("pennant",  16, "mpi-rank-per-core", 0x4000582dfa5ce645,  5956),
    ("pennant",  16, "mpi-rank-per-node", 0x400178b22fe6e4e2,  3316),
    ("circuit",   4, "cr",                0x3ff4b07117f0f5cf,  1120),
    ("circuit",   4, "implicit",          0x3ff4c2035bd4c869,  1120),
    ("circuit",   4, "implicit-memo",     0x3ff4c2035bd4c869,  1120),
    ("circuit",   4, "log",               0x3ff4b571edd9cb10,  1180),
    ("circuit",   4, "mpi-rank-per-core", 0x3ff306d8804a0c2a,  1344),
    ("circuit",   4, "mpi-rank-per-node", 0x3ff43b9124f46935,   640),
    ("circuit",  16, "cr",                0x3ff4c1765d9fc3d9,  4480),
    ("circuit",  16, "implicit",          0x3ff579ed679afd13,  4480),
    ("circuit",  16, "implicit-memo",     0x3ff579ed679afd13,  4480),
    ("circuit",  16, "log",               0x3ff4c6773388991a,  4684),
    ("circuit",  16, "mpi-rank-per-core", 0x3ff3104fd509b288,  5376),
    ("circuit",  16, "mpi-rank-per-node", 0x3ff45331ac6043d3,  2560),
];

/// Every execution model.
fn configs(machine: &MachineConfig) -> Vec<(&'static str, Model)> {
    vec![
        ("cr", Model::Cr),
        ("implicit", Model::Implicit),
        ("implicit-memo", Model::ImplicitMemo),
        ("log", Model::Log),
        (
            "mpi-rank-per-core",
            Model::Mpi(MpiVariant::rank_per_core(machine)),
        ),
        ("mpi-rank-per-node", Model::Mpi(MpiVariant::rank_per_node())),
    ]
}

/// Simulates every pinned configuration afresh, in [`PINS`] order.
fn fresh_pins() -> Vec<Pin> {
    type SpecFn = fn(usize, &MachineConfig) -> TimestepSpec;
    let apps: [(&str, SpecFn); 4] = [
        ("stencil", stencil_spec),
        ("miniaero", miniaero_spec),
        ("pennant", pennant_spec),
        ("circuit", circuit_spec),
    ];
    let mut out = Vec::new();
    for (app, spec_of) in apps {
        for nodes in [4, 16] {
            let machine = MachineConfig::piz_daint(nodes);
            let spec = spec_of(nodes, &machine);
            for (name, model) in configs(&machine) {
                let r = simulate(model, &machine, &spec, 4, &mut SimOptions::default());
                out.push((app, nodes, name, r.makespan.to_bits(), r.graph_size));
            }
        }
    }
    out
}

#[test]
fn every_model_is_pinned_bit_exact() {
    let got = fresh_pins();
    assert_eq!(got.len(), PINS.len(), "pinned configurations");
    for (w, g) in PINS.iter().zip(&got) {
        assert!(
            w == g,
            "{} at {} nodes, {}: pinned (makespan bits {:#x}, graph {}), \
             simulated (makespan {} = {:#x}, graph {})",
            w.0,
            w.1,
            w.2,
            w.3,
            w.4,
            f64::from_bits(g.3),
            g.3,
            g.4
        );
    }
}
