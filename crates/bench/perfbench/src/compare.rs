//! `perfbench compare BASE NEW [BENCHMARK.json]`: two sets of runs, per
//! workload and end-to-end metric, with a verdict against the bound.

use crate::report::parse_result;
use crate::stats::{median, quartiles, relative_iqr};
use rfid_site_server::Json;
use std::collections::BTreeMap;

/// How the new runs stand against the base runs on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base median by more than
    /// the bound.
    WithinBound,
    /// The new median is worse by more than the bound.
    Worse,
    /// A side's quartile spread is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`. `bound` is the share of the base
/// median by which the metric may worsen. A side whose quartile spread
/// exceeds the bound leaves the verdict unresolved, unless every new
/// run reads better than every base run.
#[must_use]
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let spread = |v: &[f64]| {
        let s = relative_iqr(v);
        if s.is_nan() {
            f64::INFINITY
        } else {
            s
        }
    };
    let worse_by = sign * (median(new) - median(base)) / median(base).abs();
    let all_better = new
        .iter()
        .all(|&n| base.iter().all(|&b| sign * (n - b) < 0.0));
    if (spread(base) > bound || spread(new) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// Runs of one file: workload → metric → values. A run is a metadata
/// line naming its workload followed by its result line.
///
/// # Errors
///
/// A result line that does not parse.
pub fn load_runs(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut workload = None;
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        if line.starts_with("{\"meta\"") {
            workload = Json::parse(line).ok().and_then(|doc| {
                doc.get("meta")?
                    .get("workload")?
                    .as_str()
                    .map(str::to_owned)
            });
            continue;
        }
        let result = parse_result(line)?;
        let name = workload.take().unwrap_or_else(|| "unknown".to_owned());
        let slot = runs.entry(name).or_default();
        for (metric, value, _) in result.metrics {
            slot.entry(metric).or_default().push(value);
        }
    }
    Ok(runs)
}

/// The comparison table for two run files, given the benchmark file.
///
/// # Errors
///
/// Unparseable runs or benchmark definition.
pub fn compare(base: &str, new: &str, benchmark: &str) -> Result<String, String> {
    let base = load_runs(base)?;
    let new = load_runs(new)?;
    let doc = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    let mut out = format!(
        "{:<16} {:<18} {:>12} {:>12} {:>25} {:>25}  verdict\n",
        "workload", "metric", "base p50", "new p50", "base q1..q3", "new q1..q3"
    );
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else {
            continue;
        };
        for metric in metrics {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(b), Some(n)) = (base_metrics.get(name), new_metrics.get(name)) else {
                continue;
            };
            let range = |v: &[f64]| {
                quartiles(v)
                    .map_or_else(|| "-".to_owned(), |[q1, _, q3]| format!("{q1:.4}..{q3:.4}"))
            };
            out.push_str(&format!(
                "{workload:<16} {name:<18} {:>12.4} {:>12.4} {:>25} {:>25}  {}\n",
                median(b),
                median(n),
                range(b),
                range(n),
                verdict(b, n, lower, bound).label()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput (higher is better) down 20% with a 10% bound: worse.
        let down = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&base, &down, false, 0.1), Verdict::Worse);
        // Down 5%: within bound.
        let dip = [95.0, 96.0, 94.0, 95.5, 94.5];
        assert_eq!(verdict(&base, &dip, false, 0.1), Verdict::WithinBound);
        // The same drop of a latency (lower is better) is an improvement.
        assert_eq!(verdict(&base, &down, true, 0.1), Verdict::WithinBound);
        // A noisy side wider than the bound cannot be judged...
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&base, &noisy, false, 0.1), Verdict::Unresolved);
        // ...unless every new run beats every base run.
        let better_noisy = [150.0, 300.0, 200.0, 160.0, 290.0];
        assert_eq!(
            verdict(&base, &better_noisy, false, 0.1),
            Verdict::WithinBound
        );
    }

    #[test]
    fn compare_reads_meta_and_result_pairs() {
        let run = |v: f64| {
            format!(
                "log line\n{{\"meta\": {{\"workload\": \"hit\"}}}}\n\
                 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"latency_ms\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}\n"
            )
        };
        let base: String = [1.0, 1.1, 0.9, 1.0].map(run).concat();
        let new: String = [2.0, 2.1, 1.9, 2.0].map(run).concat();
        let runs = load_runs(&base).expect("runs parse");
        assert_eq!(runs["hit"]["latency_ms"].len(), 4);
        let bench = r#"{"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}"#;
        let table = compare(&base, &new, bench).expect("compares");
        assert!(table.contains("hit"), "{table}");
        assert!(table.trim_end().ends_with("worse"), "{table}");
    }
}
