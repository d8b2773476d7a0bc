//! The one bench-report emitter: every `BENCH_PR*.json` is written
//! through [`Report`], so all suites share one schema —
//!
//! ```json
//! {
//!   "pr": 9,
//!   "bench": "mc_batching",
//!   "metrics": {"scalar_runs_per_s": 1.2e6, "...": 0},
//!   "gates": {"speedup_ge_2x": true}
//! }
//! ```
//!
//! `metrics` are flat name → number pairs (slash-namespaced by
//! convention, e.g. `"serving/batch_1worker/req_per_s"`); `gates` are the
//! suite's acceptance criteria. [`Report::write`] renders the JSON into
//! [`OUT_DIR`], then **panics if any gate failed** — a bench smoke in CI
//! fails the build by construction, with the failing gate named in the
//! message and the full report on disk for the artifact upload.
//!
//! The `BENCH_PR*.json` files tracked at the workspace root are frozen
//! history: a run writes under the build directory, never over them.
//! [`check_trend`] compares a gated ratio against such a frozen report,
//! so re-runs catch regressions that still clear the absolute floor.

use std::fmt::Write as _;

/// Where [`Report::write`] puts its reports, relative to the workspace
/// root the suites run from: inside the ignored build directory.
pub const OUT_DIR: &str = "target/bench";

/// One bench suite's machine-readable result: flat metrics plus named
/// pass/fail gates, serialized as `{pr, bench, metrics{...}, gates{...}}`.
#[derive(Debug, Clone)]
pub struct Report {
    pr: u32,
    bench: String,
    metrics: Vec<(String, f64)>,
    gates: Vec<(String, bool)>,
}

impl Report {
    /// A new empty report for PR `pr`'s suite named `bench`.
    pub fn new(pr: u32, bench: &str) -> Report {
        Report {
            pr,
            bench: bench.to_string(),
            metrics: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Records one metric (last write wins on duplicate names).
    pub fn metric(&mut self, name: &str, value: f64) -> &mut Report {
        if let Some(slot) = self.metrics.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.metrics.push((name.to_string(), value));
        }
        self
    }

    /// Records one acceptance gate.
    pub fn gate(&mut self, name: &str, pass: bool) -> &mut Report {
        self.gates.push((name.to_string(), pass));
        self
    }

    /// Records the ratio as a metric **and** gates it against a floor —
    /// the common "≥ Nx speedup" acceptance shape.
    pub fn gate_ratio(&mut self, name: &str, ratio: f64, floor: f64) -> &mut Report {
        self.metric(name, ratio);
        self.gate(&format!("{name}_ge_{floor}"), ratio >= floor)
    }

    /// The first failed gate, if any.
    pub fn failed_gate(&self) -> Option<&str> {
        self.gates
            .iter()
            .find(|(_, pass)| !pass)
            .map(|(name, _)| name.as_str())
    }

    /// Renders the `{pr, bench, metrics{...}, gates{...}}` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"pr\": {},\n  \"bench\": \"{}\",\n  \"metrics\": {{\n",
            self.pr, self.bench
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            // Integral values render without a fraction so counts stay
            // greppable; everything else keeps full precision.
            if value.fract() == 0.0 && value.abs() < 1e15 {
                let _ = writeln!(out, "    \"{name}\": {value:.0}{comma}");
            } else {
                let _ = writeln!(out, "    \"{name}\": {value}{comma}");
            }
        }
        out.push_str("  },\n  \"gates\": {\n");
        for (i, (name, pass)) in self.gates.iter().enumerate() {
            let comma = if i + 1 < self.gates.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {pass}{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Writes the report to `name` in [`OUT_DIR`], then asserts every gate
    /// passed — the report survives on disk for the CI artifact even when
    /// the process exits nonzero.
    ///
    /// # Panics
    /// When a gate failed (naming it), or when the file is not writable.
    pub fn write(&self, name: &str) {
        let path = format!("{OUT_DIR}/{name}");
        std::fs::create_dir_all(OUT_DIR).unwrap_or_else(|e| panic!("create {OUT_DIR}: {e}"));
        std::fs::write(&path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\n  wrote {path}");
        if let Some(gate) = self.failed_gate() {
            panic!("acceptance gate `{gate}` failed — see {path}");
        }
    }
}

/// Reads `metric` out of a previous report at `path` (the flat
/// `"name": value` line of the unified schema). `None` when the file is
/// absent or the metric is not present — first runs have no trend.
pub fn previous_metric(path: &str, metric: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{metric}\":");
    text.lines().find_map(|line| {
        let rest = line.trim().strip_prefix(&needle)?;
        rest.trim().trim_end_matches(',').parse::<f64>().ok()
    })
}

/// The trend gate: when a previous report exists at `path` (the frozen,
/// tracked report of the suite), the new value
/// of `metric` must not regress below `tolerance` × the previous value
/// (e.g. `0.8` tolerates 20% machine noise). Records the verdict on
/// `report` as gate `"<metric>_trend"`; a missing previous report passes
/// trivially.
pub fn check_trend(report: &mut Report, path: &str, metric: &str, new_value: f64, tolerance: f64) {
    match previous_metric(path, metric) {
        Some(prev) if prev > 0.0 => {
            report.gate(&format!("{metric}_trend"), new_value >= prev * tolerance);
        }
        _ => {
            report.gate(&format!("{metric}_trend"), true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape_and_gate_failure() {
        let mut r = Report::new(9, "mc_batching");
        r.metric("runs_per_s", 1234.0);
        r.gate_ratio("speedup", 2.5, 2.0);
        let json = r.to_json();
        assert!(json.contains("\"pr\": 9"));
        assert!(json.contains("\"bench\": \"mc_batching\""));
        assert!(json.contains("\"runs_per_s\": 1234"));
        assert!(json.contains("\"speedup\": 2.5"));
        assert!(json.contains("\"speedup_ge_2\": true"));
        assert!(r.failed_gate().is_none());
        r.gate("bit_identity", false);
        assert_eq!(r.failed_gate(), Some("bit_identity"));
    }

    #[test]
    fn trend_reads_the_unified_schema() {
        let dir = std::env::temp_dir().join("gdl_report_trend_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_TEST.json");
        let path = path.to_str().unwrap();
        let mut prev = Report::new(9, "trend");
        prev.metric("speedup", 4.0);
        std::fs::write(path, prev.to_json()).unwrap();
        assert_eq!(previous_metric(path, "speedup"), Some(4.0));
        let mut next = Report::new(9, "trend");
        check_trend(&mut next, path, "speedup", 3.6, 0.8);
        assert!(next.failed_gate().is_none());
        let mut bad = Report::new(9, "trend");
        check_trend(&mut bad, path, "speedup", 1.0, 0.8);
        assert_eq!(bad.failed_gate(), Some("speedup_trend"));
        assert_eq!(previous_metric("/nonexistent/BENCH.json", "speedup"), None);
    }
}
