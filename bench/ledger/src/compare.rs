//! `ledger compare A B` and `ledger calibrate DIR...`: read sets of saved
//! run outputs and judge one against the other by the benchmark's own
//! bounds, or tabulate the sets' run-to-run ranges and the bounds they
//! allow.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, quartile_spread};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// Name, unit, direction and (for end-to-end metrics) bound of one metric
/// of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are reported and not gated.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the ledger checks itself against.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Manifest {
    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let root = json::parse(text)?;
        let list = |key: &str| -> Result<&[Value], String> {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no array \"{key}\""))
        };
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let text = |field: &str| {
                        item.get(field)
                            .and_then(Value::as_str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {field}"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        better: match text("better")? {
                            "higher" => Better::Higher,
                            "lower" => Better::Lower,
                            other => return Err(format!("BENCHMARK.json: better = {other}")),
                        },
                        bound: item.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }

    /// The repository's `BENCHMARK.json` (two levels above this package).
    pub fn load() -> Result<Manifest, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|err| format!("{}: {err}", path.display()))?;
        Manifest::parse(&text)
    }
}

/// Values of one set of runs: workload → metric → one value per run, plus
/// the runs' operation totals.
#[derive(Debug, Default)]
pub struct RunSet {
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    attempted: BTreeMap<String, u64>,
    failed: BTreeMap<String, u64>,
    incorrect: u64,
    machines: Vec<String>,
}

impl RunSet {
    /// Add one run's saved standard output: the header line names the
    /// workload, the last line holds the result.
    pub fn add_output(&mut self, text: &str) -> Result<(), String> {
        let header = text
            .lines()
            .find(|line| line.starts_with("{\"ledger\""))
            .ok_or("no ledger header line")?;
        let header = json::parse(header)?;
        let header = header.get("ledger").ok_or("empty ledger header")?;
        let workload = header
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("header names no workload")?
            .to_string();
        if let Some(machine) = header.get("machine").and_then(|m| m.get("cpu_model")) {
            let machine = machine.as_str().unwrap_or("unknown").to_string();
            if !self.machines.contains(&machine) {
                self.machines.push(machine);
            }
        }
        let last = text
            .lines()
            .rev()
            .find(|line| !line.trim().is_empty())
            .ok_or("empty output")?;
        let result = json::parse(last)?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            self.incorrect += 1;
        }
        let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        *self.attempted.entry(workload.clone()).or_default() += count("attempted");
        *self.failed.entry(workload.clone()).or_default() += count("failed");
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("result without metrics")?;
        let per_workload = self.metrics.entry(workload).or_default();
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} without value"))?;
            per_workload.entry(name.clone()).or_default().push(value);
        }
        // Demoted metrics of a timed run travel in the header line.
        let reported = header.get("reported").and_then(Value::as_object);
        for (name, value) in reported.into_iter().flatten() {
            let value = value
                .as_f64()
                .ok_or_else(|| format!("reported {name} is not a number"))?;
            per_workload.entry(name.clone()).or_default().push(value);
        }
        Ok(())
    }

    /// Load every `*.out` file of `dir` (or the single file `dir`) as one
    /// run's saved standard output.
    pub fn load(dir: &Path) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        let mut paths: Vec<_> = if dir.is_dir() {
            std::fs::read_dir(dir)
                .map_err(|err| format!("{}: {err}", dir.display()))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|path| path.is_file() && path.extension().is_some_and(|e| e == "out"))
                .collect()
        } else {
            vec![dir.to_path_buf()]
        };
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|err| format!("{}: {err}", path.display()))?;
            set.add_output(&text)
                .map_err(|err| format!("{}: {err}", path.display()))?;
        }
        if set.metrics.is_empty() {
            return Err(format!("{}: no run outputs", dir.display()));
        }
        Ok(set)
    }
}

/// How a metric of set B stands against set A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both spreads are narrower than it.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A spread is wider than the bound: the runs cannot tell.
    Unresolved,
    /// Per-layer metric: reported, not judged.
    Reported,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Reported => "-",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// `median_b / median_a`.
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Judge B's values of one metric against A's.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Row {
    let median_a = median(a).unwrap_or(0.0);
    let median_b = median(b).unwrap_or(0.0);
    let (spread_a, spread_b) = (quartile_spread(a), quartile_spread(b));
    let worse_by = match better {
        Better::Higher => (median_a - median_b) / median_a.abs(),
        Better::Lower => (median_b - median_a) / median_a.abs(),
    };
    let verdict = match bound {
        None => Verdict::Reported,
        Some(bound) if spread_a.max(spread_b) > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Regressed,
        // A zero baseline median makes `worse_by` NaN or infinite.
        Some(_) if !worse_by.is_finite() && median_a != median_b => Verdict::Regressed,
        Some(_) => Verdict::Ok,
    };
    Row {
        median_a,
        median_b,
        spread_a,
        spread_b,
        ratio: median_b / median_a,
        verdict,
    }
}

/// Compare two sets; returns the printed table and whether every judged
/// row is `ok`. A workload or metric that one set has and the other lacks
/// is not ok, and neither is an end-to-end metric that timed sets lack.
pub fn compare(a: &RunSet, b: &RunSet, manifest: &Manifest) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    if a.machines != b.machines {
        out.push_str(&format!(
            "note: sets come from different machines ({:?} vs {:?})\n",
            a.machines, b.machines
        ));
    }
    let workloads: BTreeSet<&String> = a.metrics.keys().chain(b.metrics.keys()).collect();
    for workload in workloads {
        out.push_str(&format!(
            "\n{workload}\n{:<34} {:>13} {:>13} {:>8} {:>8} {:>7} {:>6}  verdict\n",
            "metric", "median A", "median B", "iqr A", "iqr B", "B/A", "bound"
        ));
        let (Some(metrics_a), Some(metrics_b)) = (a.metrics.get(workload), b.metrics.get(workload))
        else {
            let lacking = if a.metrics.contains_key(workload) {
                "B"
            } else {
                "A"
            };
            out.push_str(&format!("  missing from set {lacking}\n"));
            all_ok = false;
            continue;
        };
        // Sets of traced runs hold per-layer metrics only.
        let timed = manifest
            .end_to_end
            .iter()
            .any(|spec| metrics_a.contains_key(&spec.name) || metrics_b.contains_key(&spec.name));
        for spec in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            let (values_a, values_b) = match (metrics_a.get(&spec.name), metrics_b.get(&spec.name))
            {
                (Some(values_a), Some(values_b)) => (values_a, values_b),
                (None, None) if spec.bound.is_none() || !timed => continue,
                (in_a, in_b) => {
                    let lacking = match (in_a, in_b) {
                        (None, None) => "both sets",
                        (None, _) => "set A",
                        _ => "set B",
                    };
                    out.push_str(&format!("{:<34} missing from {lacking}\n", spec.name));
                    all_ok = false;
                    continue;
                }
            };
            let row = judge(values_a, values_b, spec.better, spec.bound);
            all_ok &= matches!(row.verdict, Verdict::Ok | Verdict::Reported);
            out.push_str(&format!(
                "{:<34} {:>13.3} {:>13.3} {:>7.1}% {:>7.1}% {:>7.3} {:>6}  {}\n",
                spec.name,
                row.median_a,
                row.median_b,
                100.0 * row.spread_a,
                100.0 * row.spread_b,
                row.ratio,
                spec.bound
                    .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                row.verdict.name(),
            ));
        }
        let share = |set: &RunSet| {
            let attempted = set.attempted.get(workload).copied().unwrap_or(0);
            let failed = set.failed.get(workload).copied().unwrap_or(0);
            (failed, attempted, failed as f64 / attempted.max(1) as f64)
        };
        let (failed_a, attempted_a, share_a) = share(a);
        let (failed_b, attempted_b, share_b) = share(b);
        let failures_ok = share_b <= share_a;
        all_ok &= failures_ok;
        out.push_str(&format!(
            "{:<34} {failed_a}/{attempted_a} vs {failed_b}/{attempted_b}  {}\n",
            "failed/attempted",
            if failures_ok { "ok" } else { "regressed" },
        ));
    }
    if a.incorrect + b.incorrect > 0 {
        out.push_str(&format!(
            "\nincorrect runs: {} in A, {} in B\n",
            a.incorrect, b.incorrect
        ));
        all_ok = false;
    }
    (out, all_ok)
}

/// How many times its own worst run-to-run quartile spread a bound must be
/// (the pipeline's ratio: it asks for every spread to stay below a third
/// of its bound).
const CLEARANCE: f64 = 3.0;
/// The bounds a metric can get, tightest first; the last is the cap the
/// pipeline puts on a bound.
const BOUNDS: [f64; 3] = [0.10, 0.15, 0.25];

/// The one rule that sets every bound: the tightest of [`BOUNDS`] that is
/// at least [`CLEARANCE`] times the metric's worst quartile spread over
/// every workload and calibration set. `None` — demoted to per-layer —
/// when even the cap is not. `setup_s` takes the cap regardless: the
/// pipeline requires it among the end-to-end metrics.
pub fn bound_for(name: &str, worst_spread: f64) -> Option<f64> {
    if name == "setup_s" {
        return BOUNDS.last().copied();
    }
    BOUNDS
        .into_iter()
        .find(|bound| worst_spread * CLEARANCE <= *bound)
}

fn set_table(set: &RunSet) -> String {
    let workloads: Vec<String> = set
        .metrics
        .iter()
        .map(|(workload, metrics)| {
            let rows: Vec<String> = metrics
                .iter()
                .map(|(name, values)| {
                    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let mid = median(values).unwrap_or(0.0);
                    let range = if mid == 0.0 { 0.0 } else { (max - min) / mid.abs() };
                    format!(
                        "          {}: {{\"min\": {min}, \"median\": {mid}, \"max\": {max}, \"range_share\": {range:.4}, \"quartile_spread\": {:.4}, \"runs\": {}}}",
                        json::quote(name),
                        quartile_spread(values),
                        values.len()
                    )
                })
                .collect();
            format!("        {}: {{\n{}\n        }}", json::quote(workload), rows.join(",\n"))
        })
        .collect();
    format!(
        "{{\n      \"machines\": [{}],\n      \"workloads\": {{\n{}\n      }}\n    }}",
        set.machines
            .iter()
            .map(|m| json::quote(m))
            .collect::<Vec<_>>()
            .join(", "),
        workloads.join(",\n")
    )
}

/// The run-to-run range of each named set as JSON — per workload and metric
/// the minimum, median and maximum, `(max − min) / median`, the quartile
/// spread, and the number of runs — and, per metric, the worst spread, the
/// largest shift of a workload's median between two sets, and the bound
/// [`bound_for`] gives it.
pub fn calibration_report(sets: &[(String, RunSet)]) -> String {
    let mut names = BTreeSet::new();
    for (_, set) in sets {
        names.extend(set.metrics.values().flat_map(|metrics| metrics.keys()));
    }
    let decisions: Vec<String> = names
        .into_iter()
        .map(|name| {
            let (mut worst, mut worst_on, mut shift) = (0.0, String::new(), 0.0f64);
            for (label, set) in sets {
                for (workload, metrics) in &set.metrics {
                    let Some(values) = metrics.get(name) else {
                        continue;
                    };
                    let spread = quartile_spread(values);
                    if spread >= worst {
                        (worst, worst_on) = (spread, format!("{workload} ({label})"));
                    }
                    let mid = median(values).unwrap_or(0.0);
                    for (_, other) in sets {
                        let other = other.metrics.get(workload).and_then(|m| m.get(name));
                        if let Some(other_mid) = other.and_then(|values| median(values)) {
                            if mid != 0.0 {
                                shift = shift.max(((other_mid - mid) / mid).abs());
                            }
                        }
                    }
                }
            }
            format!(
                "    {}: {{\"worst_quartile_spread\": {worst:.4}, \"worst_on\": {}, \"largest_median_shift\": {shift:.4}, \"bound\": {}}}",
                json::quote(name),
                json::quote(&worst_on),
                bound_for(name, worst).map_or_else(|| "null".to_string(), |bound| bound.to_string()),
            )
        })
        .collect();
    let tables: Vec<String> = sets
        .iter()
        .map(|(label, set)| format!("    {}: {}", json::quote(label), set_table(set)))
        .collect();
    format!(
        "{{\n  \"rule\": {},\n  \"decisions\": {{\n{}\n  }},\n  \"sets\": {{\n{}\n  }}\n}}\n",
        json::quote(&format!(
            "bound = the tightest of {BOUNDS:?} that is at least {CLEARANCE} times the metric's worst quartile spread (statistics.quantiles n=4, Q3-Q1 over the median) over every workload and set; null = none is, the metric is demoted to per_layer; setup_s takes the cap"
        )),
        decisions.join(",\n"),
        tables.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"{
      "command": ["x"], "paths": ["p"], "run_seconds": 1,
      "workloads": [{"name": "w", "why": "because"}],
      "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
      "per_layer": [{"name": "allocs", "unit": "count", "better": "lower"}]
    }"#;

    fn output(rate: f64, setup: f64, failed: u64) -> String {
        format!(
            "rate {rate} 1/s\n{{\"ledger\": {{\"workload\": \"w\", \"seed\": 1, \"machine\": {{\"cpu_model\": \"m\"}}}}}}\n{{\"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\"rate\": {{\"value\": {rate}, \"unit\": \"1/s\"}}, \"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}, \"allocs\": {{\"value\": 3, \"unit\": \"count\"}}}}}}\n"
        )
    }

    fn set(rates: &[f64], setup: f64, failed: u64) -> RunSet {
        let mut set = RunSet::default();
        for &rate in rates {
            set.add_output(&output(rate, setup, failed)).unwrap();
        }
        set
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [85.0, 86.0, 84.0, 85.5, 84.5];
        let noisy = [100.0, 130.0, 70.0, 120.0, 80.0];
        let row = judge(&steady, &steady, Better::Higher, Some(0.1));
        assert_eq!(row.verdict, Verdict::Ok);
        assert!((row.ratio - 1.0).abs() < 1e-12);
        // 15% fewer operations per second is a regression at a 10% bound…
        assert_eq!(
            judge(&steady, &slower, Better::Higher, Some(0.1)).verdict,
            Verdict::Regressed
        );
        // …and an improvement when lower is better.
        assert_eq!(
            judge(&steady, &slower, Better::Lower, Some(0.1)).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&slower, &steady, Better::Lower, Some(0.1)).verdict,
            Verdict::Regressed
        );
        // A spread wider than the bound cannot resolve either way.
        assert_eq!(
            judge(&steady, &noisy, Better::Higher, Some(0.1)).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &slower, Better::Higher, None).verdict,
            Verdict::Reported
        );
    }

    #[test]
    fn compare_reads_outputs_and_sets_the_exit_verdict() {
        let manifest = Manifest::parse(MANIFEST).unwrap();
        assert_eq!(manifest.workloads, ["w"]);
        let base = set(&[100.0, 101.0, 99.0, 100.5, 99.5], 1.0, 0);
        let same = set(&[100.2, 100.9, 99.1, 100.4, 99.6], 1.1, 0);
        let (table, ok) = compare(&base, &same, &manifest);
        assert!(ok, "{table}");
        assert!(table.contains("rate") && table.contains("setup_s") && table.contains("allocs"));

        let slower = set(&[80.0, 81.0, 79.0, 80.5, 79.5], 1.0, 0);
        let (table, ok) = compare(&base, &slower, &manifest);
        assert!(!ok);
        assert!(table.contains("regressed"), "{table}");

        // More failures per attempt is a regression by itself.
        let failing = set(&[100.0, 101.0, 99.0, 100.5, 99.5], 1.0, 2);
        let (table, ok) = compare(&base, &failing, &manifest);
        assert!(!ok);
        assert!(table.contains("0/500 vs 10/500"), "{table}");
    }

    #[test]
    fn a_metric_or_workload_in_one_set_only_is_not_ok() {
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let base = set(&[100.0, 101.0, 99.0, 100.5, 99.5], 1.0, 0);
        // Set B reports its rate under another name.
        let mut renamed = RunSet::default();
        for rate in [100.0, 101.0, 99.0, 100.5, 99.5] {
            renamed
                .add_output(&output(rate, 1.0, 0).replace("\"rate\":", "\"rate2\":"))
                .unwrap();
        }
        for (a, b, lacking) in [(&base, &renamed, "set B"), (&renamed, &base, "set A")] {
            let (table, ok) = compare(a, b, &manifest);
            assert!(!ok, "{table}");
            assert!(
                table.contains(&format!("missing from {lacking}")),
                "{table}"
            );
        }
        // Neither timed set has the gated metric.
        let (table, ok) = compare(&renamed, &renamed, &manifest);
        assert!(!ok && table.contains("missing from both sets"), "{table}");

        // A workload only one set ran.
        let mut other = RunSet::default();
        other
            .add_output(
                &output(100.0, 1.0, 0).replace("\"workload\": \"w\"", "\"workload\": \"v\""),
            )
            .unwrap();
        for (a, b) in [(&base, &other), (&other, &base)] {
            let (table, ok) = compare(a, b, &manifest);
            assert!(!ok, "{table}");
            assert!(table.contains("missing from set A") && table.contains("missing from set B"));
        }

        // Sets of traced runs hold no end-to-end metric and need none.
        let mut traced = RunSet::default();
        traced
            .add_output(
                &output(1.0, 1.0, 0)
                    .replace("\"rate\":", "\"x\":")
                    .replace("\"setup_s\":", "\"y\":"),
            )
            .unwrap();
        let (table, ok) = compare(&traced, &traced, &manifest);
        assert!(ok, "{table}");
    }

    #[test]
    fn demoted_metrics_are_read_from_the_header() {
        let text = output(100.0, 1.0, 0).replace(
            "\"seed\": 1,",
            "\"seed\": 1, \"reported\": {\"allocs2\": 7.5},",
        );
        let mut set = RunSet::default();
        set.add_output(&text).unwrap();
        assert_eq!(set.metrics["w"]["allocs2"], [7.5]);
    }

    #[test]
    fn calibration_report_is_json_with_ranges_and_bounds() {
        let steady = set(&[99.0, 100.0, 101.0, 100.0, 100.0], 1.0, 0);
        let noisy = set(&[70.0, 100.0, 130.0, 85.0, 115.0], 1.0, 0);
        let report = calibration_report(&[("a".into(), steady), ("b".into(), noisy)]);
        let value = json::parse(&report).unwrap();
        let rate = value
            .get("sets")
            .and_then(|s| s.get("a"))
            .and_then(|s| s.get("workloads"))
            .and_then(|w| w.get("w"))
            .and_then(|w| w.get("rate"))
            .unwrap();
        assert_eq!(rate.get("min").and_then(Value::as_f64), Some(99.0));
        assert_eq!(rate.get("median").and_then(Value::as_f64), Some(100.0));
        assert_eq!(rate.get("range_share").and_then(Value::as_f64), Some(0.02));
        assert_eq!(rate.get("runs").and_then(Value::as_f64), Some(5.0));
        // The noisy set decides: no bound is three times its spread.
        let decision = value.get("decisions").and_then(|d| d.get("rate")).unwrap();
        assert_eq!(decision.get("bound"), Some(&Value::Null));
        assert_eq!(
            decision.get("worst_on").and_then(Value::as_str),
            Some("w (b)")
        );
        let setup = value.get("decisions").and_then(|d| d.get("setup_s"));
        assert_eq!(
            setup.and_then(|d| d.get("bound")).and_then(Value::as_f64),
            Some(0.25)
        );
    }

    #[test]
    fn bounds_stand_three_times_clear_of_the_spread() {
        assert_eq!(bound_for("x", 0.03), Some(0.10));
        assert_eq!(bound_for("x", 0.04), Some(0.15));
        assert_eq!(bound_for("x", 0.08), Some(0.25));
        assert_eq!(bound_for("x", 0.09), None);
        assert_eq!(bound_for("setup_s", 0.5), Some(0.25));
    }
}
