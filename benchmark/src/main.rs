//! `regent-perf`: the repository's benchmark. See `benchmark/README.md`.
//!
//! * `bench --workload W --seed N --seconds S --trace 0|1` — one
//!   workload in this process; `--trace 0` measures the end-to-end
//!   metrics untraced, `--trace 1` the per-layer metrics. The last
//!   line of standard output is the result as one JSON object.
//! * `run` / `trace` — every workload, one `bench` process each, one
//!   after another; `run` takes both measurements, `trace` the traced
//!   one only. Writes one combined result file.
//! * `agree A.json B.json` — compares two result files.

use regent_perf::{bench, layers, report, workloads};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  regent-perf bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
  regent-perf run   [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
  regent-perf trace [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
  regent-perf agree <A.json> <B.json>";

struct Cli {
    workload: Option<String>,
    trace: bool,
    out: Option<PathBuf>,
    args: bench::Args,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        trace: false,
        out: None,
        args: bench::Args {
            seed: 1,
            seconds: 20.0,
            quick: false,
        },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cli.args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cli.args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cli.args.seconds > 0.0 && cli.args.seconds <= 600.0) {
                    return Err(bad(&"must be within (0, 600]"));
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cli)
}

/// The `bench` subcommand: one workload, measured in this process.
fn bench_one(cli: &Cli) -> Result<bool, String> {
    // The measurement is of the default configuration: every knob the
    // system reads from the environment is cleared before any thread
    // starts, and the result file records which were set.
    let scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("REGENT_"))
        .collect();
    for k in &scrubbed {
        std::env::remove_var(k);
    }
    let name = cli.workload.as_deref().ok_or("bench needs --workload")?;
    let w = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let host = report::Host::probe(scrubbed);
    let report = if cli.trace {
        layers::per_layer(w, &cli.args)
    } else {
        bench::end_to_end(w, &cli.args)
    };
    let path = cli.out.clone().unwrap_or_else(|| report.default_path());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let write = |path: &std::path::Path, text: &str| {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&path, &report.to_json(&host))?;
    if let Some(spans) = &report.spans_json {
        write(&path.with_extension("spans.json"), spans)?;
    }
    report.print_table();
    println!("{}", report.result_line());
    Ok(report.failed == 0 && report.all_finite())
}

/// The `run` and `trace` subcommands: one `bench` child per workload
/// and measurement, one after another, gathered into one file.
fn run_all(cli: &Cli, traced_only: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| report::out_dir().join("result.json"));
    let mut runs = Vec::new();
    let mut all_ok = true;
    for w in &workloads::WORKLOADS {
        for trace in [false, true] {
            if traced_only && !trace {
                continue;
            }
            let mode = if trace { "per_layer" } else { "end_to_end" };
            let file = path.with_extension(format!("{}.{mode}.json", w.name));
            let mut child = Command::new(&exe);
            child
                .arg("bench")
                .args(["--workload", w.name])
                .args(["--seed", &cli.args.seed.to_string()])
                .args(["--seconds", &cli.args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&file);
            if cli.args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_ok &= status.success();
            runs.push(
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?,
            );
        }
    }
    let combined = format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"));
    std::fs::write(&path, combined).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "agree" => match rest {
            [a, b] => report::agree(a, b),
            _ => Err("agree takes two result files".into()),
        },
        "bench" => parse(rest).and_then(|cli| bench_one(&cli)),
        "run" => parse(rest).and_then(|cli| run_all(&cli, false)),
        "trace" => parse(rest).and_then(|cli| run_all(&cli, true)),
        _ => Err(format!("unknown command {command}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("regent-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
