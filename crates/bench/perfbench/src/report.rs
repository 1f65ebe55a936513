//! The result line, the metadata line before it, and parsing both back.

use crate::stats::{median, percentile, sorted, Tail};
use rfid_bench::json_f64;
use rfid_site_server::Json;

/// One reported metric with the metadata that makes it comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// The percentile a latency value is, if it is one.
    pub percentile: Option<u32>,
}

impl Metric {
    /// A metric that is a single measurement or a count.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
            percentile: None,
        }
    }

    /// A metric that is a percentile of `samples` values.
    #[must_use]
    pub fn percentile(
        name: &'static str,
        value: f64,
        unit: &'static str,
        p: u32,
        samples: usize,
    ) -> Self {
        Self {
            percentile: Some(p),
            ..Self::new(name, value, unit, samples)
        }
    }

    /// The nearest-rank percentile `p` of `values`.
    #[must_use]
    pub fn at(name: &'static str, values: &[f64], p: u32, unit: &'static str) -> Self {
        let value = percentile(&sorted(values), f64::from(p));
        Self::percentile(name, value, unit, p, values.len())
    }

    /// The median of `values`.
    #[must_use]
    pub fn median(name: &'static str, values: &[f64], unit: &'static str) -> Self {
        Self::percentile(name, median(values), unit, 50, values.len())
    }

    /// A latency tail chosen by [`crate::stats::tail`].
    #[must_use]
    pub fn tail(name: &'static str, tail: Tail, unit: &'static str) -> Self {
        Self::percentile(name, tail.value, unit, tail.percentile, tail.samples)
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations and correctness checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra metadata: key and an already-encoded JSON value.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one check or operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a metadata number.
    pub fn meta_f64(&mut self, key: &'static str, value: f64) {
        self.meta.push((key, json_f64(value)));
    }

    /// Adds a metadata string.
    pub fn meta_str(&mut self, key: &'static str, value: &str) {
        self.meta.push((key, json_str(value)));
    }
}

/// A JSON string literal, escaped by the serving layer's serializer.
fn json_str(text: &str) -> String {
    // Only numbers can fail to serialize; a string never does.
    Json::Str(text.to_owned()).to_json().unwrap_or_default()
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": …, "unit": …}`.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_f64(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The line before the result: run metadata plus, per metric, its
/// unit, sample count and percentile.
#[must_use]
pub fn meta_line(outcome: &Outcome) -> String {
    let mut fields: Vec<String> = outcome
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let per_metric: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"unit\": {}, \"samples\": {}, \"percentile\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.samples,
                m.percentile
                    .map_or_else(|| "null".to_owned(), |p| p.to_string())
            )
        })
        .collect();
    fields.push(format!("\"metric_meta\": {{{}}}", per_metric.join(", ")));
    format!("{{\"meta\": {{{}}}}}", fields.join(", "))
}

/// A result line parsed back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// `(name, value, unit)` in line order.
    pub metrics: Vec<(String, f64, String)>,
}

fn whole(value: &Json, key: &str) -> Result<u64, String> {
    let n = value
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(format!("`{key}` is not a whole number: {n}"));
    }
    Ok(n as u64)
}

/// Parses a result line, enforcing its exact shape.
///
/// # Errors
///
/// Describes the first way the line deviates from the result format.
pub fn parse_result(line: &str) -> Result<RunResult, String> {
    let doc = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
    let Json::Obj(pairs) = &doc else {
        return Err("not a JSON object".to_owned());
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
    let correct = field("correct")?
        .as_bool()
        .ok_or("`correct` is not a boolean")?;
    let attempted = whole(field("attempted")?, "attempted")?;
    let failed = whole(field("failed")?, "failed")?;
    if attempted == 0 {
        return Err("`attempted` must be at least 1".to_owned());
    }
    let Json::Obj(entries) = field("metrics")? else {
        return Err("`metrics` is not an object".to_owned());
    };
    let mut metrics = Vec::with_capacity(entries.len());
    for (name, body) in entries {
        let value = body
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
        let unit = body
            .get("unit")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metric `{name}` has no unit"))?;
        metrics.push((name.clone(), value, unit.to_owned()));
    }
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail;

    fn outcome() -> Outcome {
        let mut o = Outcome::default();
        o.check(true);
        o.check(true);
        o.metrics.push(Metric::new("setup_s", 0.812_734_5, "s", 3));
        let t = tail(&(0..2000).map(|i| f64::from(i % 100)).collect::<Vec<_>>());
        o.metrics.push(Metric::tail("item_tail_ms", t, "ms"));
        o.meta_str("workload", "serve-durable");
        o
    }

    #[test]
    fn result_line_round_trips_with_exact_bits() {
        let o = outcome();
        let parsed = parse_result(&result_line(&o)).expect("own output parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (2, 0));
        assert_eq!(
            parsed.metrics[0],
            ("setup_s".to_owned(), 0.812_734_5, "s".to_owned())
        );
        assert_eq!(parsed.metrics[1].0, "item_tail_ms");
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = outcome();
        o.check(false);
        let parsed = parse_result(&result_line(&o)).expect("parses");
        assert!(!parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (3, 1));
    }

    #[test]
    fn parse_rejects_wrong_shapes() {
        let ok = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}"#;
        assert!(parse_result(ok).is_ok());
        for bad in [
            r#"{"correct": true, "attempted": 1, "failed": 0}"#,
            r#"{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"m": {"unit": "s"}}}"#,
            "not json",
        ] {
            assert!(parse_result(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn meta_line_carries_samples_and_percentiles() {
        let line = meta_line(&outcome());
        let doc = Json::parse(&line).expect("meta parses");
        let meta = doc.get("meta").expect("meta key");
        assert_eq!(
            meta.get("workload").and_then(Json::as_str),
            Some("serve-durable")
        );
        let tail_meta = meta
            .get("metric_meta")
            .and_then(|m| m.get("item_tail_ms"))
            .expect("per-metric meta");
        assert_eq!(
            tail_meta.get("percentile").and_then(Json::as_f64),
            Some(99.0)
        );
        assert_eq!(
            tail_meta.get("samples").and_then(Json::as_f64),
            Some(2000.0)
        );
    }
}
