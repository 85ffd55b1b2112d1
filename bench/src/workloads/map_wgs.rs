//! `map-wgs`: the seed-filter-verify read mapper (`ReadMapper`) over a
//! repeat-rich synthetic chromosome, with GateKeeper-GPU as the
//! pre-alignment filter — the paper's Table 5 path. Seeding and
//! verification each take about a third of a pass; the filter uses the raw
//! gather path, not `encode_pair_batch`.

use super::{
    end_to_end, fold_bytes, machine_pool, machine_width, median_rate, passes, replay_share,
    set_layers, set_up, trace_overhead, write_trace, Params, Pass, DIGEST_BASIS, SCALING_PASSES,
};
use crate::layers;
use crate::report::WorkloadReport;
use crate::stats::timed;
use crate::trace::{maybe_span, Recorder};
use gk_core::config::FilterConfig;
use gk_core::gpu::GateKeeperGpu;
use gk_mapper::pipeline::{MapperConfig, MappingStats, PreFilter, ReadMapper};
use gk_mapper::record::MappingRecord;
use gk_mapper::seeding::candidates_for_read;
use gk_mapper::KmerIndex;
use gk_seq::alphabet::reverse_complement;
use gk_seq::fastq::FastqRecord;
use gk_seq::pairs::SequencePair;
use gk_seq::reference::{Reference, ReferenceBuilder};
use gk_seq::simulate::{ErrorProfile, ReadSimulator};

pub const NAME: &str = "map-wgs";
const READ_LEN: usize = 100;
const THRESHOLD: u32 = 5;

/// The whole-genome fixture's chromosome shape, drawn from the run's seed.
fn reference(length: usize, seed: u64) -> Reference {
    ReferenceBuilder::new(length)
        .seed(seed)
        .name("chrSim")
        .repeat_fraction(0.4)
        .repeat_family_copies(16)
        .repeat_divergence(0.10)
        .n_gaps(2, length / 500)
        .build()
}

fn records_digest(records: &[MappingRecord]) -> u64 {
    records.iter().fold(DIGEST_BASIS, |h, r| {
        let h = fold_bytes(h, r.read_id.as_bytes());
        let h = fold_bytes(h, &r.position.to_le_bytes());
        let h = fold_bytes(h, &[u8::from(r.reverse)]);
        fold_bytes(h, &r.edit_distance.to_le_bytes())
    })
}

/// The (read, candidate segment) pairs the mapper hands its filter, rebuilt
/// from the public seeding API for the layer replays.
fn candidate_pairs(mapper: &ReadMapper, reads: &[FastqRecord]) -> Vec<SequencePair> {
    let reference = mapper.reference();
    let index = KmerIndex::build(reference);
    let mut pairs = Vec::new();
    for read in reads {
        for c in candidates_for_read(&read.sequence, &index, &mapper.config().seeding) {
            let segment = reference.segment(c.position as usize, read.sequence.len());
            if segment.len() < read.sequence.len() {
                continue;
            }
            let oriented = if c.reverse {
                reverse_complement(&read.sequence)
            } else {
                read.sequence.clone()
            };
            pairs.push(SequencePair::new(oriented, segment.to_vec()));
        }
    }
    pairs
}

pub fn run(params: &Params) -> WorkloadReport {
    let genome = params.pick(2_000_000, 100_000);
    let read_count = params.pick(30_000, 500);
    let mut report = WorkloadReport::new(NAME);

    let (setups, (reads, mapper, filter)) = set_up(|| {
        let reference = reference(genome, params.seed);
        let reads: Vec<FastqRecord> = ReadSimulator::new(READ_LEN, ErrorProfile::illumina())
            .seed(params.seed ^ 0x5EED_0000_0000_0001)
            .simulate(&reference, read_count)
            .iter()
            .map(|r| r.to_fastq())
            .collect();
        let mapper = ReadMapper::new(reference, MapperConfig::new(THRESHOLD));
        let filter = PreFilter::Gpu(GateKeeperGpu::with_default_device(FilterConfig::new(
            READ_LEN, THRESHOLD,
        )));
        (reads, mapper, filter)
    });

    // Oracle: the same mapper without a pre-alignment filter — filtering
    // may only remove candidates that would fail verification anyway.
    let oracle = mapper.map_reads(&reads, &PreFilter::None).records;
    report.digest = records_digest(&oracle);
    report.count = oracle.len() as u64;

    let recorder = params.trace.then(Recorder::new);
    let map_pass = |rec: Option<&Recorder>| {
        let (outcome, t) =
            timed(|| maybe_span(rec, None, "pass", |_| mapper.map_reads(&reads, &filter)));
        let pass = Pass {
            timed: t,
            items: reads.len() as f64,
            latency_ms: t.raw_s * 1e3,
            traced: rec.is_some(),
        };
        (pass, outcome.records == oracle, outcome.stats)
    };
    let (_, warm_ok, mut stats) = map_pass(None);
    if !warm_ok {
        report.failed += 1;
        report.problem("warm-up pass: records differ from the unfiltered oracle".into());
    }
    let timed_passes = passes(params, |i, traced| {
        let (pass, ok, pass_stats) = map_pass(recorder.as_ref().filter(|_| traced));
        if !ok {
            report.failed += 1;
            report.problem(format!(
                "pass {i}: records differ from the unfiltered oracle"
            ));
        }
        if !traced {
            stats = pass_stats;
        }
        pass
    });
    report.attempted = timed_passes.len() as u64;
    end_to_end(&mut report, &setups, &timed_passes);
    report.details = stats_details(&stats);

    if let Some(rec) = &recorder {
        let candidates = rec.span(None, "replay candidate extraction", |_| {
            candidate_pairs(&mapper, &reads)
        });
        let sample = &candidates[..params.pick(50_000, 1_000).min(candidates.len())];
        let mut values = layers::replay(sample, THRESHOLD, Some(rec));
        let share = |name| replay_share(&values, name, candidates.len(), &timed_passes);
        let gather = share("gk-seq.raw_gather_ns_per_pair");
        let kernel = share("gk-filters.gatekeeper_slices_ns_per_pair");
        let seed = stats.preprocessing_seconds / stats.total_seconds;
        let verify = stats.verification_seconds / stats.total_seconds;
        let plan =
            GateKeeperGpu::with_default_device(FilterConfig::new(READ_LEN, THRESHOLD)).chunk_plan();
        let cands = stats.candidate_pairs as usize;
        let pool = machine_pool();
        let wide: Vec<Pass> = (0..SCALING_PASSES)
            .map(|i| {
                let (pass, ok, _) = pool.install(|| map_pass(None));
                if !ok {
                    report.failed += 1;
                    report.problem(format!(
                        "scaling pass {i}: records differ from the unfiltered oracle"
                    ));
                }
                pass
            })
            .collect();
        report.attempted += wide.len() as u64;
        values.extend([
            ("gk-seq.raw_gather_share", gather),
            ("gk-filters.kernel_share", kernel),
            ("gk-mapper.seed_share", seed),
            ("gk-align.verify_share", verify),
            ("gk-core.glue_share", 1.0 - gather - kernel - seed - verify),
            (
                "gk-filters.accept_frac",
                stats.verification_pairs as f64 / cands as f64,
            ),
            (
                "gk-core.pairs_per_call",
                cands as f64 / plan.chunk_count(cands).max(1) as f64,
            ),
            (
                "gk-mapper.candidates_per_read",
                cands as f64 / reads.len() as f64,
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

fn stats_details(stats: &MappingStats) -> Vec<(String, f64)> {
    vec![
        ("candidates".into(), stats.candidate_pairs as f64),
        ("verification_pairs".into(), stats.verification_pairs as f64),
        ("mappings".into(), stats.mappings as f64),
        ("mapped_reads".into(), stats.mapped_reads as f64),
        ("seed_s".into(), stats.preprocessing_seconds),
        ("filter_wall_s".into(), stats.filter_wall_seconds),
        ("verify_s".into(), stats.verification_seconds),
        ("total_s".into(), stats.total_seconds),
        ("reduction".into(), stats.reduction_fraction()),
    ]
}
