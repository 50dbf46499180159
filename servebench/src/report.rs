//! Metric definitions (read from `BENCHMARK.json`), summary statistics,
//! and the result line.

use pathcons_engine::Json;
use std::collections::BTreeMap;

/// One metric as `BENCHMARK.json` defines it.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms` or `jobs/s`.
    pub unit: String,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the runner uses.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// End-to-end metrics, reported with `--trace 0`.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, reported with `--trace 1`.
    pub per_layer: Vec<MetricSpec>,
}

/// Reads the benchmark definition.
pub fn load_spec(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: missing `{key}`"))?
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("{path}: a `{key}` entry lacks `{k}`"))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: json
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: missing `run_seconds`"))?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of sorted samples; 0 for
/// no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts samples for [`percentile`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// and `statistics.median` compute them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    let median = match n {
        0 => return (0.0, 0.0, 0.0),
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    };
    if n < 2 {
        return (data[0], median, data[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), median, cut(3))
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics` with
/// exactly the metrics of `specs`, in their order.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &Values,
    specs: &[MetricSpec],
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = *values
            .get(&spec.name)
            .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is {value}", spec.name));
        }
        metrics.push((
            spec.name.clone(),
            Json::Obj(vec![
                ("value".to_owned(), Json::Num(value)),
                ("unit".to_owned(), Json::Str(spec.unit.clone())),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(attempted as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 2.5, 3.75));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_lists_exactly_the_specified_metrics() {
        let specs = vec![MetricSpec {
            name: "latency_ms".into(),
            unit: "ms".into(),
            bound: Some(0.1),
        }];
        let mut values = Values::new();
        values.insert("latency_ms".into(), 1.25);
        values.insert("other".into(), 2.0);
        let line = result_line(true, 10, 0, &values, &specs).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        values.clear();
        assert!(result_line(true, 10, 0, &values, &specs).is_err());
    }

    #[test]
    fn the_repository_definition_loads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = load_spec(path).unwrap();
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(!spec.per_layer.is_empty());
    }
}
