//! Weak-scaling series and efficiency computation — the form in which
//! Figures 6–9 report results (throughput per node vs. node count).

use crate::scenario::ScenarioResult;

/// One point of a weak-scaling series.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Node count.
    pub nodes: usize,
    /// Throughput per node (elements/s/node).
    pub throughput_per_node: f64,
}

/// A named weak-scaling series (one line of a figure).
#[derive(Clone, Debug)]
pub struct ScalingSeries {
    /// Legend label (e.g. "Regent (with CR)").
    pub label: String,
    /// Measured points.
    pub points: Vec<ScalePoint>,
}

impl ScalingSeries {
    /// Creates an empty series.
    pub fn new(label: &str) -> Self {
        ScalingSeries {
            label: label.to_string(),
            points: Vec::new(),
        }
    }

    /// Records a simulated result at `nodes`.
    pub fn push(&mut self, nodes: usize, r: ScenarioResult) {
        self.points.push(ScalePoint {
            nodes,
            throughput_per_node: r.throughput_per_node,
        });
    }

    /// Parallel efficiency at `nodes` relative to the series' smallest
    /// node count.
    pub fn efficiency_at(&self, nodes: usize) -> Option<f64> {
        let base = self
            .points
            .iter()
            .min_by_key(|p| p.nodes)?
            .throughput_per_node;
        let p = self.points.iter().find(|p| p.nodes == nodes)?;
        Some(p.throughput_per_node / base)
    }
}

/// Standard node counts of the paper's figures (powers of two to 1024).
pub fn node_counts_to(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = 1;
    while n <= max {
        v.push(n);
        n *= 2;
    }
    v
}

/// Renders series as an aligned text table (one row per node count) —
/// the bench harness prints these as the figure's data.
pub fn format_table(series: &[ScalingSeries]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    write!(out, "{:>6}", "nodes").unwrap();
    for s in series {
        write!(out, "  {:>24}", s.label).unwrap();
    }
    out.push('\n');
    let nodes: Vec<usize> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.nodes).collect())
        .unwrap_or_default();
    for n in nodes {
        write!(out, "{n:>6}").unwrap();
        for s in series {
            match s.points.iter().find(|p| p.nodes == n) {
                Some(p) => write!(out, "  {:>24.3e}", p.throughput_per_node).unwrap(),
                None => write!(out, "  {:>24}", "-").unwrap(),
            }
        }
        out.push('\n');
    }
    out
}

/// Records scaling series into a trace as `Counter` events: one track
/// per series (named `series/<label>`), timestamped by node count so
/// the Chrome counter plot reads as throughput-per-node vs. machine
/// size.
pub fn trace_series(series: &[ScalingSeries], tracer: &std::sync::Arc<regent_trace::Tracer>) {
    for s in series {
        let mut tb = tracer.buffer(&format!("series/{}", s.label));
        for p in &s.points {
            tb.push(
                p.nodes as u64,
                0,
                regent_trace::EventKind::Counter {
                    name: "throughput_per_node",
                    value: p.throughput_per_node,
                },
            );
        }
        tb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts() {
        assert_eq!(node_counts_to(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(node_counts_to(1), vec![1]);
    }

    fn result(throughput: f64) -> ScenarioResult {
        ScenarioResult {
            makespan: 1.0,
            throughput_per_node: throughput,
            graph_size: 0,
        }
    }

    #[test]
    fn efficiency() {
        let mut s = ScalingSeries::new("x");
        s.push(1, result(100.0));
        s.push(64, result(99.0));
        assert_eq!(s.efficiency_at(64), Some(0.99));
        assert_eq!(s.efficiency_at(128), None);
    }

    #[test]
    fn table_formatting() {
        let mut s = ScalingSeries::new("a");
        s.push(1, result(123.0));
        let t = format_table(&[s]);
        assert!(t.contains("nodes"));
        assert!(t.contains('1'));
    }
}
