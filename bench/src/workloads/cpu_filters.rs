//! `cpu-filters`: the SIMD lane backend (`CpuSimdBackend` on a one-thread
//! pool) running all four filters over the same Set 3 pairs, cut into
//! ragged jobs. Lane kernels do most of the work; there is no encode,
//! pipeline or batcher, and the 7- and 1-pair jobs expose per-call and tail
//! cost.

use super::{
    end_to_end, fold_bytes, fold_digest, machine_width, median_rate, passes, replay_share,
    set_layers, set_up, trace_overhead, write_trace, Params, Pass, DIGEST_BASIS, SCALING_PASSES,
};
use crate::layers;
use crate::report::WorkloadReport;
use crate::stats::{median, percentile, timed};
use crate::trace::{maybe_span, Recorder};
use gk_core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
use gk_filters::simd::SimdMode;
use gk_filters::traits::decision_digest;
use gk_seq::datasets::DatasetProfile;
use gk_seq::pairs::SequencePair;
use std::time::Instant;

pub const NAME: &str = "cpu-filters";
const THRESHOLD: u32 = 4;
/// Job sizes, cycled: full lane blocks, a block short of full, and tails.
const JOB_SIZES: [usize; 6] = [4096, 4093, 257, 64, 7, 1];
/// One round runs the six jobs for every filter over the same pairs.
const ROUND_PAIRS: usize = 4096 + 4093 + 257 + 64 + 7 + 1;
/// Pairs on which the lane kernels are checked against the scalar ones.
const SCALAR_CHECK_PAIRS: usize = 10_000;

struct CpuPass {
    pass: Pass,
    digests: [u64; 4],
    /// (filter index, pairs, raw seconds) of every backend call.
    calls: Vec<(usize, usize, f64)>,
}

fn cpu_pass(backend: &CpuSimdBackend, pairs: &[SequencePair], rec: Option<&Recorder>) -> CpuPass {
    let mut digests = [DIGEST_BASIS; 4];
    let mut calls = Vec::new();
    let mut round_ms = Vec::new();
    let ((), t) = timed(|| {
        maybe_span(rec, None, "pass", |pass_id| {
            for round in pairs.chunks(ROUND_PAIRS) {
                let round_start = Instant::now();
                for (k, kind) in FilterKind::ALL.into_iter().enumerate() {
                    let mut offset = 0;
                    for size in JOB_SIZES {
                        if offset >= round.len() {
                            break;
                        }
                        let job = &round[offset..(offset + size).min(round.len())];
                        let start = Instant::now();
                        let decisions = backend.run(&FilterJob::new(kind, THRESHOLD, job));
                        let end = Instant::now();
                        if let Some(rec) = rec {
                            rec.record(rec.id(), pass_id, kind.as_str(), start, end);
                        }
                        digests[k] = fold_digest(digests[k], &decisions);
                        calls.push((k, job.len(), (end - start).as_secs_f64()));
                        offset += size;
                    }
                }
                round_ms.push(round_start.elapsed().as_secs_f64() * 1e3);
            }
        })
    });
    CpuPass {
        pass: Pass {
            timed: t,
            items: (FilterKind::ALL.len() * pairs.len()) as f64,
            latency_ms: median(&round_ms),
            traced: rec.is_some(),
        },
        digests,
        calls,
    }
}

pub fn run(params: &Params) -> WorkloadReport {
    let total = params.pick(14 * ROUND_PAIRS, ROUND_PAIRS);
    let mut report = WorkloadReport::new(NAME);

    let (setups, (pairs, backend)) = set_up(|| {
        let pairs = DatasetProfile::set3().generate(total, params.seed).pairs;
        (pairs, CpuSimdBackend::new(1))
    });

    // Oracles: one whole-input job per filter (the passes cut the same
    // input into ragged jobs), and the scalar kernels on a subset.
    let scalar = CpuSimdBackend::new(1).with_simd_mode(SimdMode::Scalar);
    let subset = &pairs[..SCALAR_CHECK_PAIRS.min(total)];
    let mut oracle = [0u64; 4];
    let mut accepted = 0usize;
    for (k, kind) in FilterKind::ALL.into_iter().enumerate() {
        let whole = backend.run(&FilterJob::new(kind, THRESHOLD, &pairs));
        oracle[k] = decision_digest(&whole);
        accepted += whole.iter().filter(|d| d.accepted).count();
        let lanes = backend.run(&FilterJob::new(kind, THRESHOLD, subset));
        let reference = scalar.run(&FilterJob::new(kind, THRESHOLD, subset));
        if lanes != reference {
            report.problem(format!(
                "{kind}: lane decisions differ from the scalar kernels"
            ));
        }
    }
    report.digest = oracle
        .iter()
        .fold(DIGEST_BASIS, |h, d| fold_bytes(h, &d.to_le_bytes()));
    report.count = accepted as u64;

    let recorder = params.trace.then(Recorder::new);
    let check = |report: &mut WorkloadReport, label: &str, p: &CpuPass| {
        if p.digests != oracle {
            report.failed += 1;
            report.problem(format!(
                "{label}: decisions differ from the whole-job oracle"
            ));
        }
    };
    let warm = cpu_pass(&backend, &pairs, None);
    check(&mut report, "warm-up pass", &warm);
    let mut last_calls = warm.calls;
    let timed_passes = passes(params, |i, traced| {
        let p = cpu_pass(&backend, &pairs, recorder.as_ref().filter(|_| traced));
        check(&mut report, &format!("pass {i}"), &p);
        if !traced {
            last_calls = p.calls;
        }
        p.pass
    });
    report.attempted = timed_passes.len() as u64;
    end_to_end(&mut report, &setups, &timed_passes);

    let call_us = |keep: &dyn Fn(usize) -> bool| {
        let times: Vec<f64> = last_calls
            .iter()
            .filter(|(_, n, _)| keep(*n))
            .map(|(_, _, s)| s * 1e6)
            .collect();
        percentile(&times, 0.5)
    };
    report.details = vec![
        ("calls_per_pass".into(), last_calls.len() as f64),
        ("call_us_p50.tail".into(), call_us(&|n| n <= 7)),
        ("call_us_p50.full".into(), call_us(&|n| n >= 4093)),
    ];
    for (k, kind) in FilterKind::ALL.into_iter().enumerate() {
        let busy: f64 = last_calls.iter().filter(|c| c.0 == k).map(|c| c.2).sum();
        report.details.push((format!("{kind}.busy_s"), busy));
    }

    if let Some(rec) = &recorder {
        let sample = &pairs[..params.pick(50_000, 1_000).min(total)];
        let mut values = layers::replay(sample, THRESHOLD, Some(rec));
        let kernel: f64 = [
            "gk-filters.gatekeeper_slices_ns_per_pair",
            "gk-filters.magnet_ns_per_pair",
            "gk-filters.shouji_ns_per_pair",
            "gk-filters.sneaky_snake_ns_per_pair",
        ]
        .iter()
        .map(|name| replay_share(&values, name, total, &timed_passes))
        .sum();
        let wide_backend = CpuSimdBackend::new(machine_width());
        let wide: Vec<Pass> = (0..SCALING_PASSES)
            .map(|i| {
                let p = cpu_pass(&wide_backend, &pairs, None);
                check(&mut report, &format!("scaling pass {i}"), &p);
                p.pass
            })
            .collect();
        report.attempted += wide.len() as u64;
        values.extend([
            ("gk-filters.kernel_share", kernel),
            ("gk-core.glue_share", 1.0 - kernel),
            (
                "gk-filters.accept_frac",
                accepted as f64 / (FilterKind::ALL.len() * total) as f64,
            ),
            (
                "gk-core.pairs_per_call",
                (FilterKind::ALL.len() * total) as f64 / last_calls.len() as f64,
            ),
            (
                "rayon.scaling",
                median_rate(&wide, false) / median_rate(&timed_passes, false),
            ),
            ("trace.overhead", trace_overhead(&timed_passes)),
        ]);
        report
            .details
            .push(("scaling_workers".into(), machine_width() as f64));
        set_layers(&mut report, &values);
        write_trace(params, NAME, rec);
    }
    report
}
