//! # regent-bench
//!
//! The benchmark harness reproducing every figure and table of the
//! paper's evaluation (§5). Each figure has a binary (see `src/bin/`)
//! that prints the same series the paper plots:
//!
//! * `fig6_stencil` — Stencil weak scaling (Fig. 6).
//! * `fig7_miniaero` — MiniAero weak scaling (Fig. 7).
//! * `fig8_pennant` — PENNANT weak scaling (Fig. 8).
//! * `fig9_circuit` — Circuit weak scaling (Fig. 9).
//! * `table1_intersections` — dynamic region intersection timings
//!   (Table 1), measured on the real intersection machinery.
//! * `ablations` — the design-choice ablations listed in DESIGN.md.
//!
//! Every figure binary accepts `--trace <path>`: the simulated
//! schedules are recorded (one track per node count per execution
//! model), a per-timestep control-cost table is printed — the paper's
//! O(N)-vs-O(1) control-overhead claim, read directly off the trace —
//! and the whole trace is written as Chrome `trace_event` JSON
//! loadable in `chrome://tracing` / Perfetto.

#![warn(missing_docs)]

use regent_machine::{
    simulate, MachineConfig, Model, MpiVariant, ScalingSeries, SimOptions, TimestepSpec,
};
use regent_trace::{
    export_chrome, mean_step_cost, merge_into_file, sim_control_cost_per_step, BenchEntry, Trace,
    Tracer,
};

/// Constructor of a reference-code configuration for a given machine.
pub type VariantFn = fn(&MachineConfig) -> MpiVariant;

/// The simulated Regent models of a figure, in run and series order:
/// the model, its series label, the track prefix of its recorded
/// schedules, its artifact executor and its control-cost column. CR and
/// implicit always run; memoized implicit and the log join under
/// `--memo` / `--log`. The MPI references follow them, untraced.
const MODELS: [(Model, &str, &str, &str, &str); 4] = [
    (Model::Cr, "Regent (with CR)", "cr", "spmd", "with CR"),
    (
        Model::Implicit,
        "Regent (w/o CR)",
        "implicit",
        "implicit",
        "w/o CR",
    ),
    (
        Model::ImplicitMemo,
        "Regent (w/o CR, memo)",
        "implicit-memo",
        "implicit-memo",
        "memo",
    ),
    (Model::Log, "Regent (log)", "log", "log", "log"),
];

/// Builds the standard series comparison of the figures (CR, no-CR,
/// and the MPI reference variants) for one application.
pub struct FigureRunner {
    /// Maximum node count (the paper uses 1024).
    pub max_nodes: usize,
    /// Simulated time steps per configuration.
    pub steps: u64,
    /// Per-figure machine adjustment (e.g. an application sensitive to
    /// OS noise raises `noise_fraction`).
    pub machine_mod: fn(&mut MachineConfig),
    /// When set, record the simulated schedules and write a Chrome
    /// `trace_event` JSON file here.
    pub trace_path: Option<String>,
    /// When set (`--memo`), add a "Regent (w/o CR, memo)" series: the
    /// implicit model with epoch-trace memoization (full analysis on
    /// step 0 only, replay after), as the ablation between a naive
    /// single control thread and full control replication.
    pub memo: bool,
    /// When set (`--log`), add a "Regent (log)" series: shared-log
    /// control replication — one sequencer appends the control program
    /// to an operation log, per-node replicas tail it and amortize
    /// dependence analysis to once per replica per batch.
    pub log: bool,
    /// When set (`--json <path>`), write the figure's results as
    /// machine-readable [`BenchEntry`] records (merging into an
    /// existing artifact file, so several figure binaries accumulate
    /// into one).
    pub json: Option<String>,
}

impl Default for FigureRunner {
    fn default() -> Self {
        FigureRunner {
            max_nodes: 1024,
            steps: 5,
            machine_mod: |_| {},
            trace_path: None,
            memo: false,
            log: false,
            json: None,
        }
    }
}

impl FigureRunner {
    /// Runs the weak-scaling sweep. `spec_of` builds the workload for a
    /// node count; `mpi_variants` names the reference configurations
    /// (label, variant constructor).
    pub fn run(
        &self,
        spec_of: impl Fn(usize, &MachineConfig) -> TimestepSpec,
        mpi_variants: &[(&str, VariantFn)],
    ) -> Vec<ScalingSeries> {
        let (series, _) = self.run_collecting(spec_of, mpi_variants);
        series
    }

    /// [`FigureRunner::run`], also returning the recorded trace (empty
    /// when `trace_path` is unset).
    pub fn run_collecting(
        &self,
        spec_of: impl Fn(usize, &MachineConfig) -> TimestepSpec,
        mpi_variants: &[(&str, VariantFn)],
    ) -> (Vec<ScalingSeries>, Trace) {
        // Bench artifacts are derived from the recorded schedules, so
        // --json needs the tracer on just like --trace.
        let tracer = if self.trace_path.is_some() || self.json.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let models: Vec<_> = MODELS
            .iter()
            .filter(|(model, ..)| match model {
                Model::ImplicitMemo => self.memo,
                Model::Log => self.log,
                _ => true,
            })
            .collect();
        let mut series: Vec<ScalingSeries> = models
            .iter()
            .map(|(_, label, ..)| ScalingSeries::new(label))
            .chain(
                mpi_variants
                    .iter()
                    .map(|(label, _)| ScalingSeries::new(label)),
            )
            .collect();
        for nodes in regent_machine::node_counts_to(self.max_nodes) {
            let mut machine = MachineConfig::piz_daint(nodes);
            (self.machine_mod)(&mut machine);
            let spec = spec_of(nodes, &machine);
            // One track per node count per traced model; the MPI
            // references are never traced.
            let run = |model: Model, track: Option<&str>| {
                let mut tb = track.map(|t| tracer.buffer(&format!("{t}/n{nodes}")));
                let mut opts = SimOptions { trace: tb.as_mut() };
                simulate(model, &machine, &spec, self.steps, &mut opts)
            };
            for (&&(model, _, track, ..), s) in models.iter().zip(&mut series) {
                s.push(nodes, run(model, Some(track)));
            }
            for ((_, mk), s) in mpi_variants.iter().zip(&mut series[models.len()..]) {
                s.push(nodes, run(Model::Mpi(mk(&machine)), None));
            }
        }
        regent_machine::trace_series(&series, &tracer);
        (series, tracer.take())
    }

    /// Builds the machine-readable artifact entries for `app` from the
    /// recorded simulator trace: one [`BenchEntry`] per node count per
    /// executor model (`spmd` from the CR tracks, `implicit`, and
    /// `implicit-memo` / `log` when `--memo` / `--log` recorded them).
    /// The simulator is deterministic, so these entries are bit-stable:
    /// `tests/sim_golden.rs` compares them with `BENCH_PR6.json` exactly.
    pub fn bench_entries(&self, app: &str, trace: &Trace) -> Vec<BenchEntry> {
        let size = format!("steps{}", self.steps);
        let mut entries = Vec::new();
        for nodes in regent_machine::node_counts_to(self.max_nodes) {
            for &(_, _, track, executor, _) in &MODELS {
                if let Some(e) = regent_machine::sim_bench_entry(
                    app,
                    &size,
                    nodes as u32,
                    executor,
                    trace,
                    &format!("{track}/n{nodes}"),
                ) {
                    entries.push(e);
                }
            }
        }
        entries
    }

    /// Handles `--json`: merges the artifact entries for `app` into the
    /// file, so several figure binaries accumulate into one.
    pub fn emit_artifacts(&self, app: &str, trace: &Trace) {
        let Some(path) = &self.json else {
            return;
        };
        let entries = self.bench_entries(app, trace);
        assert!(
            !entries.is_empty(),
            "--json produced no entries (no recorded sim tracks)"
        );
        let n =
            merge_into_file(path, entries).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("bench artifact: {n} entries -> {path}");
    }
}

/// Per-step control cost of each execution model, per node count —
/// extracted from the recorded simulator trace, one column per model
/// whose tracks were recorded. The implicit column grows with the
/// machine (O(N) dynamic analysis on one control thread); the CR column
/// stays flat (O(1) per-shard launches, §3.5).
pub fn control_cost_table(trace: &Trace, max_nodes: usize) -> String {
    use std::fmt::Write;
    let counts = regent_machine::node_counts_to(max_nodes);
    let columns: Vec<_> = MODELS
        .iter()
        .filter(|(_, _, track, ..)| {
            counts
                .iter()
                .any(|n| trace.track(&format!("{track}/n{n}")).is_some())
        })
        .collect();
    let mut out = format!("{:>6}", "nodes");
    for (.., column) in &columns {
        write!(out, "  {:>22}", format!("{column} ctl µs/step")).unwrap();
    }
    writeln!(out).unwrap();
    for nodes in counts {
        write!(out, "{nodes:>6}").unwrap();
        for (_, _, track, ..) in &columns {
            let cost = mean_step_cost(&sim_control_cost_per_step(
                trace,
                &format!("{track}/n{nodes}"),
            ));
            write!(out, "  {:>22.1}", cost / 1000.0).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Writes the trace as Chrome `trace_event` JSON at `path` (validating
/// the output parses) and prints the control-cost evidence.
pub fn write_trace(trace: &Trace, path: &str, max_nodes: usize) {
    println!("--- per-timestep control cost (from simulated trace) ---");
    print!("{}", control_cost_table(trace, max_nodes));
    println!();
    let json = export_chrome(trace);
    regent_trace::json::parse(&json).expect("exported trace is not valid JSON");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "trace: {} events on {} tracks -> {path} (open in chrome://tracing or Perfetto)",
        trace.num_events(),
        trace.tracks.len()
    );
    println!();
}

/// Prints a figure: the data table plus each series' parallel
/// efficiency at the top node count (the paper's headline numbers).
pub fn print_figure(title: &str, series: &[ScalingSeries], max_nodes: usize) {
    println!("=== {title} ===");
    println!("{}", regent_machine::format_table(series));
    for s in series {
        if let Some(eff) = s.efficiency_at(max_nodes) {
            println!(
                "{:>28}: parallel efficiency at {} nodes = {:.1}%",
                s.label,
                max_nodes,
                eff * 100.0
            );
        }
    }
    println!();
}

/// Runs a figure end to end: sweep, table, and — when `--trace` was
/// given — the control-cost table and the Chrome JSON file; `--json`
/// additionally writes the machine-readable artifact entries for `app`.
pub fn run_figure(
    title: &str,
    app: &str,
    runner: &FigureRunner,
    spec_of: impl Fn(usize, &MachineConfig) -> TimestepSpec,
    mpi_variants: &[(&str, VariantFn)],
) {
    let (series, trace) = runner.run_collecting(spec_of, mpi_variants);
    print_figure(title, &series, runner.max_nodes);
    if let Some(path) = &runner.trace_path {
        write_trace(&trace, path, runner.max_nodes);
    }
    runner.emit_artifacts(app, &trace);
}

/// Shared CLI handling: `--max-nodes N`, `--steps S` (at least 1),
/// `--trace <path>` (write a Chrome trace of the simulated schedules),
/// `--memo` (add the memoized-implicit ablation series), `--log` (add
/// the shared-log control-replication series), and `--json <path>`
/// (write/merge machine-readable bench entries).
pub fn parse_args() -> FigureRunner {
    let mut runner = FigureRunner::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--max-nodes" => {
                let n = args.get(i + 1).expect("--max-nodes N");
                runner.max_nodes = n.parse().expect("--max-nodes N");
                i += 2;
            }
            "--steps" => {
                let steps = args.get(i + 1).expect("--steps S");
                runner.steps = steps.parse().expect("--steps S");
                assert!(runner.steps > 0, "--steps S must be at least 1");
                i += 2;
            }
            "--trace" => {
                runner.trace_path = Some(args.get(i + 1).expect("--trace <path>").clone());
                i += 2;
            }
            "--memo" => {
                runner.memo = true;
                i += 1;
            }
            "--log" => {
                runner.log = true;
                i += 1;
            }
            "--json" => {
                runner.json = Some(args.get(i + 1).expect("--json <path>").clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    runner
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_apps::stencil::stencil_spec;

    #[test]
    fn figure_runner_produces_expected_shapes() {
        let runner = FigureRunner {
            max_nodes: 32,
            steps: 3,
            ..Default::default()
        };
        let series = runner.run(stencil_spec, &[("MPI", MpiVariant::rank_per_core)]);
        assert_eq!(series.len(), 3);
        let cr_eff = series[0].efficiency_at(32).unwrap();
        let nocr_eff = series[1].efficiency_at(32).unwrap();
        assert!(cr_eff > 0.9, "CR efficiency {cr_eff}");
        assert!(nocr_eff < cr_eff, "no-CR must trail CR");
    }

    #[test]
    fn memo_ablation_sits_between_implicit_and_cr() {
        let runner = FigureRunner {
            max_nodes: 32,
            steps: 4,
            trace_path: Some("unused".into()),
            memo: true,
            ..Default::default()
        };
        let (series, trace) = runner.run_collecting(stencil_spec, &[]);
        assert_eq!(series.len(), 3);
        assert_eq!(series[2].label, "Regent (w/o CR, memo)");
        let cr_eff = series[0].efficiency_at(32).unwrap();
        let nocr_eff = series[1].efficiency_at(32).unwrap();
        let memo_eff = series[2].efficiency_at(32).unwrap();
        // Memoization can only remove control cost: at small scales the
        // stencil hides analysis behind compute (efficiencies tie), at
        // large scales it pulls ahead — but it never loses to plain
        // implicit and never beats CR.
        assert!(
            memo_eff >= nocr_eff - 1e-12 && memo_eff <= cr_eff + 1e-9,
            "memo {memo_eff} should land between no-CR {nocr_eff} and CR {cr_eff}"
        );
        // The steady-state memo control cost sits well under the plain
        // implicit cost, and the table grows the extra column.
        let imp = mean_step_cost(&sim_control_cost_per_step(&trace, "implicit/n32"));
        let memo = mean_step_cost(&sim_control_cost_per_step(&trace, "implicit-memo/n32"));
        assert!(
            memo < imp / 2.0,
            "memo control cost {memo} vs implicit {imp}"
        );
        assert!(control_cost_table(&trace, 32).contains("memo ctl µs/step"));
    }

    #[test]
    fn log_series_scales_like_cr_and_lands_in_artifacts() {
        let runner = FigureRunner {
            max_nodes: 32,
            steps: 3,
            trace_path: Some("unused".into()),
            log: true,
            ..Default::default()
        };
        let (series, trace) = runner.run_collecting(stencil_spec, &[]);
        assert_eq!(series.len(), 3);
        assert_eq!(series[2].label, "Regent (log)");
        let cr_eff = series[0].efficiency_at(32).unwrap();
        let nocr_eff = series[1].efficiency_at(32).unwrap();
        let log_eff = series[2].efficiency_at(32).unwrap();
        // One sequencer appending index-launch records scales like CR
        // (it never does per-node work), so the log series beats the
        // implicit collapse and weak-scales within a hair of CR.
        // (Efficiency is relative to each series' own single-node run,
        // so the log column can nose ahead by its slower baseline.)
        assert!(
            log_eff > nocr_eff && log_eff <= cr_eff + 1e-3,
            "log {log_eff} should land between no-CR {nocr_eff} and CR {cr_eff}"
        );
        // The artifact entries carry the strategy and the table the column.
        let entries = runner.bench_entries("stencil", &trace);
        assert!(entries.iter().any(|e| e.executor == "log"));
        assert!(control_cost_table(&trace, 32).contains("log ctl µs/step"));
    }

    #[test]
    fn trace_shows_on_vs_o1_control_cost() {
        let runner = FigureRunner {
            max_nodes: 32,
            steps: 3,
            trace_path: Some("unused".into()),
            ..Default::default()
        };
        let (_, trace) = runner.run_collecting(stencil_spec, &[]);
        let imp1 = mean_step_cost(&sim_control_cost_per_step(&trace, "implicit/n1"));
        let imp32 = mean_step_cost(&sim_control_cost_per_step(&trace, "implicit/n32"));
        let cr1 = mean_step_cost(&sim_control_cost_per_step(&trace, "cr/n1"));
        let cr32 = mean_step_cost(&sim_control_cost_per_step(&trace, "cr/n32"));
        assert!(imp1 > 0.0 && cr1 > 0.0);
        // O(N): the single control thread's per-step cost grows roughly
        // linearly with the machine (32× nodes → ≥10× cost here, the
        // fixed per-task term damping perfect linearity).
        assert!(
            imp32 > 10.0 * imp1,
            "implicit control cost must grow with N: {imp1} -> {imp32}"
        );
        // O(1): each shard launches only its own tasks; per-step cost is
        // independent of the node count.
        assert!(
            cr32 < 2.0 * cr1,
            "CR control cost must stay flat: {cr1} -> {cr32}"
        );
        // And the exported JSON round-trips.
        let json = export_chrome(&trace);
        let v = regent_trace::json::parse(&json).unwrap();
        assert!(!v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        // ...and reads back event for event, so the evidence is the same.
        let back = regent_trace::import_trace(&json).unwrap();
        assert_eq!(back.tracks.len(), trace.tracks.len());
        for (a, b) in trace.tracks.iter().zip(&back.tracks) {
            assert_eq!((&a.name, &a.events), (&b.name, &b.events));
        }
    }
}
