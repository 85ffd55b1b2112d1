//! The four workloads and what they share: sizes, the set-up and pass
//! loops, the digest fold, and the assembly of end-to-end and per-layer
//! metrics.
//!
//! Every workload follows one shape: build its inputs from the seed and
//! construct the program's objects (repeated, timed as `setup_s`); compute
//! an oracle with a different code path; run one untimed warm-up pass; then
//! timed passes until the time budget is spent, checking each pass's output
//! against the oracle. A traced run alternates untraced and traced passes
//! and adds the layer replays.

pub mod cpu_filters;
pub mod map_wgs;
pub mod serve_small;
pub mod stream_host;

use crate::report::WorkloadReport;
use crate::spec;
use crate::stats::{calibration_seconds, speed_factor, timed, Summary, Timed};
use gk_filters::traits::FilterDecision;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// A few thousand items per workload, for the unit tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Wall-clock budget of the timed passes.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Params {
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        match self.scale {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// Runs the named workload in this process.
pub fn run(name: &str, params: &Params) -> Option<WorkloadReport> {
    let mut report = match name {
        "stream-host" => stream_host::run(params),
        "cpu-filters" => cpu_filters::run(params),
        "map-wgs" => map_wgs::run(params),
        "serve-small" => serve_small::run(params),
        _ => return None,
    };
    if params.seed == spec::DEFAULT_SEED && params.scale == Scale::Full {
        check_pinned(&mut report);
    }
    Some(report)
}

fn check_pinned(report: &mut WorkloadReport) {
    if let Some(pin) = spec::pinned(&report.workload) {
        if (report.digest, report.count) != (pin.digest, pin.count) {
            report.problem(format!(
                "default-seed output {:#018x} / {} differs from the pinned {:#018x} / {}",
                report.digest, report.count, pin.digest, pin.count
            ));
        }
    }
}

/// Set-up samples per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Shortest time one set-up sample spans: a set-up faster than this is
/// repeated and averaged within the sample, so its thread-scheduling noise
/// averages out.
const MIN_SETUP_SAMPLE_S: f64 = 0.4;
/// Timed passes a run makes even when one pass outlasts the budget.
const MIN_PASSES: usize = 3;

/// Offset basis of the FNV-1a decision digest.
pub const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues a `gk_filters::decision_digest` over more decisions, so a
/// digest can be built chunk by chunk.
pub fn fold_digest(mut h: u64, decisions: &[FilterDecision]) -> u64 {
    for d in decisions {
        let word = (u64::from(d.estimated_edits) << 2)
            | (u64::from(d.accepted) << 1)
            | u64::from(d.undefined);
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over raw bytes, for outputs that are not decisions.
pub fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the workload repeatedly and returns [`SETUP_REPS`] timed
/// samples of one build, plus the last build. The first build only warms up
/// and sizes the samples: each sample averages as many builds as fill
/// [`MIN_SETUP_SAMPLE_S`]. Every build is dropped, untimed, before the next
/// starts, so at most one is alive.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (Vec<Timed>, T) {
    let (first, t) = timed(&mut build);
    let per_sample = (MIN_SETUP_SAMPLE_S / t.raw_s).ceil().clamp(1.0, 100.0) as usize;
    let mut last = Some(first);
    let samples = (0..SETUP_REPS)
        .map(|_| {
            let before = calibration_seconds();
            let mut raw_s = 0.0;
            for _ in 0..per_sample {
                drop(last.take());
                let start = Instant::now();
                last = Some(build());
                raw_s += start.elapsed().as_secs_f64();
            }
            Timed {
                raw_s: raw_s / per_sample as f64,
                factor: speed_factor(before, calibration_seconds()),
            }
        })
        .collect();
    (
        samples,
        last.expect("the first build is kept until replaced"),
    )
}

/// One timed pass: how long it took, how many items it processed, and the
/// latency of its operation in raw milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub timed: Timed,
    pub items: f64,
    pub latency_ms: f64,
    pub traced: bool,
}

/// Calls `pass(i, traced)` until `seconds` of wall-clock have gone by (and
/// at least [`MIN_PASSES`] untraced passes ran). In a traced run every
/// other pass is traced, so drift hits both kinds alike.
pub fn passes(params: &Params, mut pass: impl FnMut(usize, bool) -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < params.seconds
        || out.iter().filter(|p| !p.traced).count() < MIN_PASSES
    {
        let traced = params.trace && i % 2 == 1;
        out.push(pass(i, traced));
        i += 1;
    }
    out
}

/// Fills the end-to-end metrics (rescaled and raw) from the set-ups and the
/// untraced passes, and counts the attempted operations.
pub fn end_to_end(report: &mut WorkloadReport, setups: &[Timed], passes: &[Pass]) {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let rss = peak_rss_mb().unwrap_or_else(|| {
        report.problem("VmHWM is missing from /proc/self/status".into());
        f64::NAN
    });
    for (rescaled, target) in [
        (true, &mut report.metrics),
        (false, &mut report.raw_metrics),
    ] {
        let secs = |t: &Timed| if rescaled { t.seconds() } else { t.raw_s };
        let factor = |t: &Timed| if rescaled { t.factor } else { 1.0 };
        let throughput: Vec<f64> = untraced.iter().map(|p| p.items / secs(&p.timed)).collect();
        let latency: Vec<f64> = untraced
            .iter()
            .map(|p| p.latency_ms * factor(&p.timed))
            .collect();
        let setup: Vec<f64> = setups.iter().map(secs).collect();
        *target = vec![
            ("items_per_s".to_string(), Summary::of(&throughput)),
            ("latency_p50_ms".to_string(), Summary::of(&latency)),
            ("setup_s".to_string(), Summary::of(&setup)),
            ("peak_rss_mb".to_string(), Summary::of(&[rss])),
        ];
    }
}

/// Median items per second over passes, rescaled to the reference core.
pub fn median_rate(passes: &[Pass], traced: bool) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced == traced)
        .map(|p| p.items / p.timed.seconds())
        .collect();
    crate::stats::median(&rates)
}

/// Share of the median untraced pass that a replayed layer accounts for:
/// its nanoseconds per pair (looked up in `values`) times the pairs one pass
/// hands that layer.
pub fn replay_share(values: &[(&str, f64)], name: &str, pairs: usize, passes: &[Pass]) -> f64 {
    let ns = values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v);
    let secs: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.timed.seconds())
        .collect();
    ns * pairs as f64 * 1e-9 / crate::stats::median(&secs)
}

/// Traced over untraced throughput, minus one.
pub fn trace_overhead(passes: &[Pass]) -> f64 {
    median_rate(passes, false) / median_rate(passes, true) - 1.0
}

/// Writes the per-layer metrics in the order of [`spec::PER_LAYER`]; a
/// metric the workload did not provide is a layer off its path and reads 0.
pub fn set_layers(report: &mut WorkloadReport, values: &[(&str, f64)]) {
    report.layers = spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .rev()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name.to_string(), value)
        })
        .collect();
}

/// Writes a traced run's spans to `bench/out/<workload>.trace.json` (full
/// size only, so the unit tests leave no files behind).
pub fn write_trace(params: &Params, workload: &str, rec: &crate::trace::Recorder) {
    if params.scale == Scale::Full {
        let path = crate::out_dir().join(format!("{workload}.trace.json"));
        let written = std::fs::create_dir_all(crate::out_dir())
            .and_then(|()| std::fs::write(&path, rec.chrome_trace().to_line()));
        if let Err(err) = written {
            eprintln!("benchmark: could not write {}: {err}", path.display());
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores of this machine: the worker count of the scaling replays.
pub fn machine_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A dedicated pool as wide as the machine, for the scaling replays.
pub fn machine_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(machine_width())
        .build()
        .expect("the rayon shim builds pools infallibly")
}

/// Passes the scaling replay runs on the machine-wide pool.
pub const SCALING_PASSES: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadReport;
    use gk_filters::traits::decision_digest;
    use gk_seq::datasets::DatasetProfile;

    #[test]
    fn folded_digest_matches_the_whole_slice_digest() {
        let pairs = DatasetProfile::set3().generate(500, 9).pairs;
        let decisions = gk_core::backend::FilterBackend::run(
            &gk_core::backend::CpuSimdBackend::new(1),
            &gk_core::backend::FilterJob::new(gk_core::FilterKind::GateKeeper, 3, &pairs),
        );
        let folded = decisions.chunks(77).fold(DIGEST_BASIS, fold_digest);
        assert_eq!(folded, decision_digest(&decisions));
    }

    fn tiny(trace: bool) -> Params {
        Params {
            seed: 7,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
        }
    }

    fn check(report: &WorkloadReport, trace: bool) {
        assert!(report.correct, "{}: {:?}", report.workload, report.problems);
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= MIN_PASSES as u64);
        for m in &spec::END_TO_END {
            let s = report.metric(m.name).expect("every end-to-end metric");
            assert!(
                s.median > 0.0 && s.median.is_finite(),
                "{} {}",
                m.name,
                s.median
            );
        }
        if trace {
            assert_eq!(report.layers.len(), spec::PER_LAYER.len());
            for (name, value) in &report.layers {
                assert!(value.is_finite(), "{}: {name} = {value}", report.workload);
            }
        } else {
            assert!(report.layers.is_empty());
        }
    }

    #[test]
    fn tiny_runs_of_every_workload_pass_their_oracles() {
        for name in spec::WORKLOADS {
            let report = run(name, &tiny(false)).expect("known workload");
            check(&report, false);
        }
    }

    #[test]
    fn tiny_traced_runs_report_every_layer_metric() {
        for name in spec::WORKLOADS {
            let report = run(name, &tiny(true)).expect("known workload");
            check(&report, true);
        }
    }
}
