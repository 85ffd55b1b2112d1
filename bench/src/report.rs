//! A workload's measured outcome, its JSON form (the child → parent report
//! line and the entries of a result file), and the one-line result the
//! benchmark prints last.

use crate::json::Json;
use crate::spec::{self, MetricSpec};
use crate::stats::Summary;

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    pub correct: bool,
    /// Operations timed (passes, rounds or requests).
    pub attempted: u64,
    /// Operations whose output missed the oracle, or that got no answer.
    pub failed: u64,
    /// What went wrong, one line per failed check.
    pub problems: Vec<String>,
    /// Digest of the workload's outputs, pinned at the default seed.
    pub digest: u64,
    /// Companion count (accepted pairs or mapping records), also pinned.
    pub count: u64,
    /// End-to-end metrics, time-based ones rescaled to the reference core.
    pub metrics: Vec<(String, Summary)>,
    /// The same end-to-end metrics from raw wall-clock time.
    pub raw_metrics: Vec<(String, Summary)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Workload-specific numbers that explain the metrics.
    pub details: Vec<(String, f64)>,
}

impl WorkloadReport {
    pub fn new(workload: &str) -> WorkloadReport {
        WorkloadReport {
            workload: workload.to_string(),
            correct: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            digest: 0,
            count: 0,
            metrics: Vec::new(),
            raw_metrics: Vec::new(),
            layers: Vec::new(),
            details: Vec::new(),
        }
    }

    /// Records a failed check; the report is then incorrect.
    pub fn problem(&mut self, message: String) {
        self.correct = false;
        self.problems.push(message);
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("digest", format!("{:#018x}", self.digest))
            .with("count", self.count)
            .with("metrics", summaries_json(&self.metrics))
            .with("raw_metrics", summaries_json(&self.raw_metrics))
            .with("layers", values_json(&self.layers, true))
            .with("details", values_json(&self.details, false))
    }

    pub fn from_json(value: &Json) -> Result<WorkloadReport, String> {
        let field = |key: &str| value.get(key).ok_or(format!("report lacks \"{key}\""));
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or(format!("\"{key}\" is not a number"))
        };
        let digest = field("digest")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or("\"digest\" is not a hex string")?;
        Ok(WorkloadReport {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a bool")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            problems: field("problems")?
                .as_array()
                .ok_or("\"problems\" is not a list")?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            digest,
            count: number("count")? as u64,
            metrics: summaries_from(field("metrics")?)?,
            raw_metrics: summaries_from(field("raw_metrics")?)?,
            layers: values_from(field("layers")?)?,
            details: values_from(field("details")?)?,
        })
    }

    /// The result line of the benchmark contract: end-to-end metrics of an
    /// untraced run, per-layer metrics of a traced one.
    pub fn result_line(&self, trace: bool) -> Json {
        let mut metrics = Json::obj();
        if trace {
            for spec in &spec::PER_LAYER {
                let value = self.layer(spec.name).unwrap_or(f64::NAN);
                metrics = metrics.with(spec.name, value_json(value, spec));
            }
        } else {
            for spec in &spec::END_TO_END {
                let value = self.metric(spec.name).map_or(f64::NAN, |s| s.median);
                metrics = metrics.with(spec.name, value_json(value, spec));
            }
        }
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn value_json(value: f64, spec: &MetricSpec) -> Json {
    Json::obj().with("value", value).with("unit", spec.unit)
}

fn summaries_json(summaries: &[(String, Summary)]) -> Json {
    summaries.iter().fold(Json::obj(), |acc, (name, s)| {
        acc.with(
            name,
            Json::obj()
                .with("median", s.median)
                .with("q1", s.q1)
                .with("q3", s.q3)
                .with("n", s.n)
                .with("unit", unit_of(name)),
        )
    })
}

fn summaries_from(value: &Json) -> Result<Vec<(String, Summary)>, String> {
    value
        .entries()
        .iter()
        .map(|(name, s)| {
            let get = |key: &str| {
                s.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("metric {name} lacks a numeric \"{key}\""))
            };
            Ok((
                name.clone(),
                Summary {
                    median: get("median")?,
                    q1: get("q1")?,
                    q3: get("q3")?,
                    n: get("n")? as usize,
                },
            ))
        })
        .collect()
}

fn values_json(values: &[(String, f64)], with_units: bool) -> Json {
    values.iter().fold(Json::obj(), |acc, (name, v)| {
        if with_units {
            acc.with(
                name,
                Json::obj().with("value", *v).with("unit", unit_of(name)),
            )
        } else {
            acc.with(name, *v)
        }
    })
}

fn values_from(value: &Json) -> Result<Vec<(String, f64)>, String> {
    value
        .entries()
        .iter()
        .map(|(name, v)| {
            // A non-finite value was written as null; read it back as NaN.
            let number = v.get("value").unwrap_or(v);
            match number {
                Json::Null => Ok((name.clone(), f64::NAN)),
                other => other
                    .as_f64()
                    .map(|n| (name.clone(), n))
                    .ok_or(format!("{name} is not a number")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadReport {
        let mut report = WorkloadReport::new("map-wgs");
        report.attempted = 15;
        report.failed = 1;
        report.problem("pass 3: records differ from the unfiltered oracle".into());
        report.digest = 0xdead_beef_0123_4567;
        report.count = 30_555;
        report.metrics = vec![(
            "items_per_s".into(),
            Summary::of(&[51_234.5, 52_001.25, 50_999.0]),
        )];
        report.raw_metrics = report.metrics.clone();
        report.layers = vec![
            ("gk-align.verify_share".into(), 0.36),
            ("trace.overhead".into(), -0.004),
        ];
        report.details = vec![("candidates".into(), 151_448.0)];
        report
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = sample();
        let text = report.to_json().to_pretty();
        let back = WorkloadReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert!(!back.correct);
    }

    #[test]
    fn result_line_holds_exactly_the_contract_metrics() {
        let report = sample();
        for trace in [false, true] {
            let line = Json::parse(&report.result_line(trace).to_line()).unwrap();
            let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let expected: Vec<&str> = if trace {
                spec::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            let names: Vec<&str> = line
                .get("metrics")
                .unwrap()
                .entries()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(names, expected);
        }
    }
}
