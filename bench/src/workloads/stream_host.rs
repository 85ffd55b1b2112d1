//! `stream-host`: Set 3 pairs streamed through
//! `GateKeeperGpu::filter_stream_with` in owned batches, with the host as
//! the encoding actor and stream overlap on. The only workload whose time
//! goes mostly to the host `encode_pair_batch`; it also carries the
//! simulated Table 2 timeline.

use super::{
    end_to_end, fold_digest, machine_pool, machine_width, median_rate, passes, replay_share,
    set_layers, set_up, trace_overhead, write_trace, Params, Pass, DIGEST_BASIS, SCALING_PASSES,
};
use crate::layers;
use crate::report::WorkloadReport;
use crate::stats::timed;
use crate::trace::{maybe_span, Recorder};
use gk_core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
use gk_core::config::{EncodingActor, FilterConfig};
use gk_core::gpu::GateKeeperGpu;
use gk_core::pipeline::StreamFilterRun;
use gk_filters::traits::decision_digest;
use gk_seq::datasets::DatasetProfile;
use gk_seq::pairs::SequencePair;
use std::time::Instant;

pub const NAME: &str = "stream-host";
const READ_LEN: usize = 100;
const THRESHOLD: u32 = 5;

struct StreamPass {
    pass: Pass,
    digest: u64,
    run: StreamFilterRun,
}

/// One pass over a fresh clone of the batches (cloned before the clock
/// starts); the sink folds the decision digest and, when traced, records
/// one span per delivered chunk.
fn stream_pass(
    gpu: &GateKeeperGpu,
    batches: &[Vec<SequencePair>],
    rec: Option<&Recorder>,
) -> StreamPass {
    let input = batches.to_vec();
    let pairs: usize = batches.iter().map(Vec::len).sum();
    let mut digest = DIGEST_BASIS;
    let (run, t) = timed(|| {
        maybe_span(rec, None, "pass", |pass_id| {
            let mut last = Instant::now();
            gpu.filter_stream_with(input, |_, decisions| {
                digest = fold_digest(digest, decisions);
                if let Some(rec) = rec {
                    let now = Instant::now();
                    rec.record(rec.id(), pass_id, "chunk", last, now);
                    last = now;
                }
            })
        })
    });
    StreamPass {
        pass: Pass {
            timed: t,
            items: pairs as f64,
            latency_ms: t.raw_s * 1e3,
            traced: rec.is_some(),
        },
        digest,
        run,
    }
}

pub fn run(params: &Params) -> WorkloadReport {
    let total = params.pick(400_000, 4_000);
    let batch = params.pick(100_000, 1_000);
    let mut report = WorkloadReport::new(NAME);

    let config = FilterConfig::new(READ_LEN, THRESHOLD)
        .with_encoding(EncodingActor::Host)
        .with_overlap(true);
    let (setups, (pairs, gpu)) = set_up(|| {
        let pairs = DatasetProfile::set3().generate(total, params.seed).pairs;
        (pairs, GateKeeperGpu::with_default_device(config))
    });
    let batches: Vec<Vec<SequencePair>> = pairs.chunks(batch).map(<[_]>::to_vec).collect();

    // Oracle: the CPU lane backend, one job over the same pairs.
    let oracle =
        CpuSimdBackend::new(1).run(&FilterJob::new(FilterKind::GateKeeper, THRESHOLD, &pairs));
    report.digest = decision_digest(&oracle);
    report.count = oracle.iter().filter(|d| d.accepted).count() as u64;

    let recorder = params.trace.then(Recorder::new);
    let check = |report: &mut WorkloadReport, label: &str, p: &StreamPass| {
        if p.digest != report.digest || p.run.pairs != total {
            report.failed += 1;
            report.problem(format!(
                "{label}: decisions differ from the CPU backend oracle"
            ));
        }
    };
    let warm = stream_pass(&gpu, &batches, None);
    check(&mut report, "warm-up pass", &warm);
    let mut last_run = warm.run;
    let timed_passes = passes(params, |i, traced| {
        let p = stream_pass(&gpu, &batches, recorder.as_ref().filter(|_| traced));
        check(&mut report, &format!("pass {i}"), &p);
        last_run = p.run;
        p.pass
    });
    report.attempted = timed_passes.len() as u64;
    end_to_end(&mut report, &setups, &timed_passes);

    let run = last_run;
    let timing = run.timing;
    report.details = vec![
        ("chunks_per_pass".into(), run.batches as f64),
        ("chunk_pairs".into(), run.pipeline.chunk_pairs as f64),
        ("sim_filter_s".into(), run.filter_seconds()),
        ("sim_kernel_s".into(), timing.kernel_seconds),
        ("sim_h2d_s".into(), timing.transfer_seconds),
        ("sim_encode_s".into(), timing.encode_seconds),
        ("sim_serialized_s".into(), timing.serialized_seconds()),
        (
            "sim_overlap_saved_s".into(),
            timing.overlap_savings_seconds(),
        ),
        ("h2d_bytes".into(), run.memory_stats.bytes_to_device as f64),
        ("accepted".into(), run.accepted as f64),
    ];

    if let Some(rec) = &recorder {
        let sample = &pairs[..params.pick(50_000, 1_000)];
        let mut values = layers::replay(sample, THRESHOLD, Some(rec));
        let share = |name| replay_share(&values, name, total, &timed_passes);
        let encode = share("gk-seq.encode_ns_per_pair");
        let kernel = share("gk-filters.gatekeeper_packed_ns_per_pair");
        let pool = machine_pool();
        let wide: Vec<Pass> = (0..SCALING_PASSES)
            .map(|i| {
                let p = pool.install(|| stream_pass(&gpu, &batches, None));
                check(&mut report, &format!("scaling pass {i}"), &p);
                p.pass
            })
            .collect();
        report.attempted += wide.len() as u64;
        values.extend([
            ("gk-seq.encode_share", encode),
            ("gk-filters.kernel_share", kernel),
            ("gk-core.glue_share", 1.0 - encode - kernel),
            ("gk-filters.accept_frac", report.count as f64 / total as f64),
            ("gk-core.pairs_per_call", total as f64 / run.batches as f64),
            (
                "gk-gpusim.sim_pairs_per_s",
                total as f64 / run.filter_seconds(),
            ),
            (
                "gk-gpusim.h2d_bytes_per_pair",
                run.memory_stats.bytes_to_device as f64 / total as f64,
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
