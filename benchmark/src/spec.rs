//! `BENCHMARK.json`, read at run time: it is the one place that names the
//! workloads, the metrics, their units and the regression bounds, and the
//! harness emits exactly what it lists.

use serde_json::{Number, Value};

use crate::harness::Result;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit printed next to every value.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only; `0.0` for per-layer metrics).
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the harness needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// Workload names, in reporting order.
    pub workloads: Vec<String>,
    /// Metrics of `--trace 0` runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of `--trace 1` runs.
    pub per_layer: Vec<MetricSpec>,
}

/// Looks `key` up in a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Number(Number::U64(v)) => Some(*v as f64),
        Value::Number(Number::I64(v)) => Some(*v as f64),
        Value::Number(Number::F64(v)) => Some(*v),
        _ => None,
    }
}

fn text(value: &Value, key: &str) -> Result<String> {
    match field(value, key) {
        Some(Value::String(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: missing string {key:?}").into()),
    }
}

fn list<'a>(value: &'a Value, key: &str) -> Result<&'a [Value]> {
    match field(value, key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: missing list {key:?}").into()),
    }
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricSpec>> {
    list(root, key)?
        .iter()
        .map(|m| {
            let better = text(m, "better")?;
            if better != "higher" && better != "lower" {
                return Err(
                    format!("BENCHMARK.json: better must be higher or lower: {better:?}").into()
                );
            }
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: better == "higher",
                bound: field(m, "bound").and_then(number).unwrap_or(0.0),
            })
        })
        .collect()
}

impl BenchSpec {
    /// Parses the text of `BENCHMARK.json`.
    pub fn parse(json: &str) -> Result<BenchSpec> {
        let root: Value = serde_json::from_str(json)?;
        Ok(BenchSpec {
            run_seconds: field(&root, "run_seconds")
                .and_then(number)
                .ok_or("BENCHMARK.json: missing run_seconds")? as u64,
            workloads: list(&root, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_>>()?,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from the current directory (the checkout
    /// root).
    pub fn load() -> Result<BenchSpec> {
        let json = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
        BenchSpec::parse(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn committed_benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = BenchSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
        }
        assert!((1..=60).contains(&spec.run_seconds));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(BenchSpec::parse("{}").is_err());
        let bad = r#"{"run_seconds":1,"workloads":[],"end_to_end":[
            {"name":"x","unit":"s","better":"sideways","bound":0.1}],"per_layer":[]}"#;
        assert!(BenchSpec::parse(bad).is_err());
    }
}
