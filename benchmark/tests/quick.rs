//! Smoke test: `regent-perf run --quick` produces every metric that
//! `BENCHMARK.json` names, for every workload, and nothing fails.

use regent_perf::metrics::{END_TO_END, PER_LAYER};
use regent_perf::sut::json::{self, Value};
use regent_perf::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn declared() -> Value {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_names_the_metric_tables() {
    let doc = declared();
    let table: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(names(doc.get("end_to_end").unwrap()), table);
    let table: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(names(doc.get("per_layer").unwrap()), table);
    for (m, declared) in END_TO_END
        .iter()
        .zip(doc.get("end_to_end").unwrap().as_arr().unwrap())
    {
        assert_eq!(
            declared.get("bound").unwrap().as_num(),
            Some(m.bound),
            "{}",
            m.name
        );
        assert_eq!(
            declared.get("better").unwrap().as_str(),
            Some("lower"),
            "{}",
            m.name
        );
    }
    for (m, declared) in PER_LAYER
        .iter()
        .zip(doc.get("per_layer").unwrap().as_arr().unwrap())
    {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            declared.get("better").unwrap().as_str(),
            Some(better),
            "{}",
            m.name
        );
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));
}

#[test]
fn quick_run_reports_every_metric_for_every_workload() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/quick.json");
    let status = Command::new(env!("CARGO_BIN_EXE_regent-perf"))
        .args(["run", "--quick", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("regent-perf starts");
    assert!(status.success(), "run --quick exited with {status}");
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).expect("result file parses");
    let runs = doc.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 2 * WORKLOADS.len());

    for w in &WORKLOADS {
        for (mode, expected) in [
            ("end_to_end", END_TO_END.map(|m| m.name).to_vec()),
            ("per_layer", PER_LAYER.map(|m| m.name).to_vec()),
        ] {
            let run = runs
                .iter()
                .find(|r| {
                    r.get("workload").unwrap().as_str() == Some(w.name)
                        && r.get("mode").unwrap().as_str() == Some(mode)
                })
                .unwrap_or_else(|| panic!("no {mode} run of {}", w.name));
            assert_eq!(run.get("quick"), Some(&Value::Bool(true)));
            assert_eq!(
                run.get("ops_failed").unwrap().as_num(),
                Some(0.0),
                "{} {mode}",
                w.name
            );
            assert!(run.get("ops_attempted").unwrap().as_num().unwrap() >= 1.0);
            let metrics = run.get("metrics").unwrap();
            for name in expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} {mode} lacks {name}", w.name));
                let num = |k: &str| m.get(k).unwrap().as_num().unwrap();
                assert!(num("value").is_finite(), "{} {name}", w.name);
                // A count fixed by the inputs reads the same in both rounds.
                if m.get("exact") == Some(&Value::Bool(true)) {
                    assert_eq!(
                        num("q1"),
                        num("max"),
                        "{} {name} differs between rounds",
                        w.name
                    );
                }
            }
        }
    }

    // A quick result is not a measurement: `agree` refuses it.
    let refused = Command::new(env!("CARGO_BIN_EXE_regent-perf"))
        .arg("agree")
        .args([&out, &out])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
}
