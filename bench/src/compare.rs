//! `benchmark --compare BASE.json NEW.json`: one row per end-to-end metric
//! and workload — median, quartiles and ratio — with each metric judged
//! against its bound.

use crate::json::Json;
use crate::report::WorkloadReport;
use crate::spec::{self, Better, MetricSpec};
use crate::stats::{regressed, Summary};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound in both directions.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Better than the base by more than the bound.
    Improved,
    /// The quartile spread of either side is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn judge(base: &Summary, new: &Summary, metric: &MetricSpec) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let flipped = match metric.better {
        Better::Lower => Better::Higher,
        Better::Higher => Better::Lower,
    };
    if base.spread() > bound || new.spread() > bound {
        Verdict::Unresolved
    } else if regressed(base.median, new.median, metric.better, bound) {
        Verdict::Regressed
    } else if regressed(base.median, new.median, flipped, bound) {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Vec<WorkloadReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("workloads")
        .and_then(Json::as_array)
        .ok_or(format!("{}: no \"workloads\" list", path.display()))?
        .iter()
        .map(WorkloadReport::from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn cell(s: &Summary) -> String {
    format!("{:.4e} [{:.4e}, {:.4e}]", s.median, s.q1, s.q3)
}

/// Prints the comparison table; returns whether any metric regressed.
pub fn run(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let base = load(base_path)?;
    let new = load(new_path)?;
    println!(
        "{:<12} {:<15} {:<38} {:<38} {:>7} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "ratio", "bound"
    );
    let mut any_regression = false;
    for b in &base {
        let Some(n) = new.iter().find(|n| n.workload == b.workload) else {
            println!("{:<12} missing from {}", b.workload, new_path.display());
            continue;
        };
        for metric in &spec::END_TO_END {
            let (Some(bs), Some(ns)) = (b.metric(metric.name), n.metric(metric.name)) else {
                continue;
            };
            let verdict = judge(bs, ns, metric);
            any_regression |= verdict == Verdict::Regressed;
            println!(
                "{:<12} {:<15} {:<38} {:<38} {:>7.4} {:>6.2}  {}",
                b.workload,
                metric.name,
                cell(bs),
                cell(ns),
                ns.median / bs.median,
                metric.bound.unwrap_or(0.0),
                verdict.as_str()
            );
        }
    }
    Ok(any_regression)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, spread: f64) -> Summary {
        Summary {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = summary(100.0, 0.01);
        for metric in &spec::END_TO_END {
            let bound = metric.bound.unwrap();
            let (up, down) = (100.0 * (1.0 + bound) + 1.0, 100.0 * (1.0 - bound) - 1.0);
            let (worse, better) = match metric.better {
                Better::Higher => (down, up),
                Better::Lower => (up, down),
            };
            let judged = |median, spread| judge(&base, &summary(median, spread), metric);
            assert_eq!(judged(worse, 0.01), Verdict::Regressed, "{}", metric.name);
            assert_eq!(judged(better, 0.01), Verdict::Improved, "{}", metric.name);
            assert_eq!(judged(100.5, 0.01), Verdict::Ok, "{}", metric.name);
            // A spread wider than the bound leaves any difference unresolved.
            assert_eq!(
                judged(worse, bound * 2.0),
                Verdict::Unresolved,
                "{}",
                metric.name
            );
        }
    }
}
