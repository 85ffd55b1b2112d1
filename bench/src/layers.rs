//! Per-layer measurement from outside the program: standalone replays of
//! each layer's public function on a workload's own pairs, and a timing
//! [`FilterBackend`] decorator for the service.

use crate::stats::{median, timed};
use crate::trace::{maybe_span, Recorder};
use gk_align::dp::banded_levenshtein;
use gk_core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind, GpuSimBackend};
use gk_core::config::FilterConfig;
use gk_core::gpu::GateKeeperGpu;
use gk_filters::gatekeeper::GateKeeperConfig;
use gk_filters::simd::{gatekeeper_filter_block_packed, gatekeeper_filter_block_slices, SimdMode};
use gk_filters::traits::FilterDecision;
use gk_filters::{magnet_filter_block, shouji_filter_block, sneaky_snake_filter_block};
use gk_seq::frame::{
    decision_word, read_frame, write_frame, Frame, RequestFrame, ResponseFrame, ResponseStatus,
};
use gk_seq::pairs::{encode_pair_batch, PairSet, SequencePair};
use gk_seq::raw::RawPairBatch;
use gk_seq::PackedSeq;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pairs per lane block, as the CPU backend and the simulated device cut them.
const BLOCK: usize = 256;
/// Repetitions of each whole-input replay; the median is reported.
const REPS: usize = 3;
/// Pairs in one service request of the frame replays.
const REQUEST_PAIRS: usize = 256;

/// Median over [`REPS`] runs of `f` on `items` items, in nanoseconds per
/// item at the reference core speed. Each run is a replay span.
fn ns_per_item(rec: Option<&Recorder>, name: &str, items: usize, mut f: impl FnMut()) -> f64 {
    let (raw, t) = timed(|| {
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                maybe_span(rec, None, name, |_| f());
                start.elapsed().as_secs_f64()
            })
            .collect::<Vec<f64>>()
    });
    median(&raw) * t.factor * 1e9 / items.max(1) as f64
}

/// Median of `calls` timed calls of `f(i)`, in microseconds at the
/// reference core speed.
fn call_p50_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let (raw, t) = timed(|| {
        (0..calls)
            .map(|i| {
                let start = Instant::now();
                f(i);
                start.elapsed().as_secs_f64()
            })
            .collect::<Vec<f64>>()
    });
    median(&raw) * t.factor * 1e6
}

/// Runs a lane-kernel block function over `pairs` in backend-sized blocks.
fn kernel_blocks(pairs: &[SequencePair], f: impl Fn(&[SequencePair]) -> Vec<FilterDecision>) {
    for block in pairs.chunks(BLOCK) {
        black_box(f(block));
    }
}

/// Replays every layer's public entry point on `pairs` (filtered at
/// `threshold`) and returns the per-layer metrics they define.
pub fn replay(
    pairs: &[SequencePair],
    threshold: u32,
    rec: Option<&Recorder>,
) -> Vec<(&'static str, f64)> {
    let n = pairs.len();
    let read_len = pairs.first().map_or(0, |p| p.read_len());
    let gk = GateKeeperConfig::gpu(threshold);
    let mut out = Vec::new();

    out.push((
        "gk-seq.encode_ns_per_pair",
        ns_per_item(rec, "replay encode_pair_batch", n, || {
            black_box(encode_pair_batch(pairs));
        }),
    ));
    out.push((
        "gk-seq.raw_gather_ns_per_pair",
        ns_per_item(rec, "replay RawPairBatch::from_pairs", n, || {
            black_box(RawPairBatch::from_pairs(pairs));
        }),
    ));

    let packed: Vec<(PackedSeq, PackedSeq)> = encode_pair_batch(pairs);
    out.push((
        "gk-filters.gatekeeper_packed_ns_per_pair",
        ns_per_item(rec, "replay gatekeeper_filter_block_packed", n, || {
            for block in packed.chunks(BLOCK) {
                let refs: Vec<(&PackedSeq, &PackedSeq)> =
                    block.iter().map(|(r, s)| (r, s)).collect();
                black_box(gatekeeper_filter_block_packed(&refs, &gk, SimdMode::Lanes));
            }
        }),
    ));
    out.push((
        "gk-filters.gatekeeper_slices_ns_per_pair",
        ns_per_item(rec, "replay gatekeeper_filter_block_slices", n, || {
            for block in pairs.chunks(BLOCK) {
                let slices: Vec<(&[u8], &[u8])> = block
                    .iter()
                    .map(|p| (p.read.as_slice(), p.reference.as_slice()))
                    .collect();
                black_box(gatekeeper_filter_block_slices(
                    &slices,
                    &gk,
                    SimdMode::Lanes,
                ));
            }
        }),
    ));
    out.push((
        "gk-filters.magnet_ns_per_pair",
        ns_per_item(rec, "replay magnet_filter_block", n, || {
            kernel_blocks(pairs, |b| {
                magnet_filter_block(b, threshold, SimdMode::Lanes)
            })
        }),
    ));
    out.push((
        "gk-filters.shouji_ns_per_pair",
        ns_per_item(rec, "replay shouji_filter_block", n, || {
            kernel_blocks(pairs, |b| {
                shouji_filter_block(b, threshold, SimdMode::Lanes)
            })
        }),
    ));
    out.push((
        "gk-filters.sneaky_snake_ns_per_pair",
        ns_per_item(rec, "replay sneaky_snake_filter_block", n, || {
            kernel_blocks(pairs, |b| {
                sneaky_snake_filter_block(b, threshold, SimdMode::Lanes)
            })
        }),
    ));
    out.push((
        "gk-align.verify_ns_per_pair",
        ns_per_item(rec, "replay banded_levenshtein", n, || {
            for p in pairs {
                black_box(banded_levenshtein(&p.read, &p.reference, threshold));
            }
        }),
    ));

    let gpu = GateKeeperGpu::with_default_device(FilterConfig::new(read_len, threshold));
    let set = PairSet::new("replay", read_len, pairs.to_vec());
    out.push((
        "gk-core.gpu_filter_ns_per_pair",
        ns_per_item(rec, "replay GateKeeperGpu::filter_set", n, || {
            black_box(gpu.filter_set(&set));
        }),
    ));
    let run = gpu.filter_set(&set);
    out.push(("gk-gpusim.sim_pairs_per_s", n as f64 / run.filter_seconds()));
    out.push((
        "gk-gpusim.h2d_bytes_per_pair",
        run.memory_stats.bytes_to_device as f64 / n as f64,
    ));

    // Per-call costs: ragged jobs of at most 7 pairs on the CPU lane backend,
    // single-pair jobs on the simulated device, and an empty pool install.
    let cpu = CpuSimdBackend::new(1);
    out.push((
        "gk-filters.call_tail_us",
        maybe_span(rec, None, "replay tail calls", |_| {
            call_p50_us(2_000, |i| {
                let start = (i * 7) % n.saturating_sub(7).max(1);
                let job = &pairs[start..(start + 1 + i % 7).min(n)];
                black_box(cpu.run(&FilterJob::new(FilterKind::GateKeeper, threshold, job)));
            })
        }),
    ));
    let device = GpuSimBackend::new();
    out.push((
        "gk-core.backend_fixed_us",
        maybe_span(rec, None, "replay single-pair device calls", |_| {
            call_p50_us(1_000, |i| {
                let job = &pairs[i % n..i % n + 1];
                black_box(device.run(&FilterJob::new(FilterKind::GateKeeper, threshold, job)));
            })
        }),
    ));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim builds pools infallibly");
    out.push((
        "rayon.install_empty_ns",
        call_p50_us(20_000, |i| {
            black_box(pool.install(|| black_box(i)));
        }) * 1e3,
    ));

    out.extend(frame_replays(pairs, threshold, rec));
    out
}

/// Encode and decode costs of one request frame of [`REQUEST_PAIRS`] pairs
/// and of its response.
fn frame_replays(
    pairs: &[SequencePair],
    threshold: u32,
    rec: Option<&Recorder>,
) -> Vec<(&'static str, f64)> {
    let request = Frame::Request(RequestFrame {
        id: 1,
        tenant: 0,
        kind: FilterKind::GateKeeper.code(),
        threshold,
        deadline_micros: 75_000,
        pairs: pairs[..REQUEST_PAIRS.min(pairs.len())].to_vec(),
    });
    let response = Frame::Response(ResponseFrame {
        id: 1,
        status: ResponseStatus::Ok,
        retry_after_micros: 0,
        decisions: (0..REQUEST_PAIRS as u32)
            .map(|i| decision_word(i % 9, i % 3 == 0, i % 50 == 0))
            .collect(),
        message: String::new(),
    });
    let encode = |frame: &Frame| {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame).expect("writing a frame into memory cannot fail");
        wire
    };
    let request_wire = encode(&request);
    maybe_span(rec, None, "replay frames", |_| {
        vec![
            (
                "gk-seq.frame_request_encode_us",
                call_p50_us(500, |_| {
                    black_box(encode(&request));
                }),
            ),
            (
                "gk-seq.frame_request_decode_us",
                call_p50_us(500, |_| {
                    black_box(read_frame(&mut request_wire.as_slice()).expect("valid frame"));
                }),
            ),
            (
                "gk-seq.frame_response_roundtrip_us",
                call_p50_us(500, |_| {
                    let wire = encode(&response);
                    black_box(read_frame(&mut wire.as_slice()).expect("valid frame"));
                }),
            ),
        ]
    })
}

/// One backend call seen by [`TimedBackend`].
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: Instant,
    pub end: Instant,
}

/// A [`FilterBackend`] decorator that times every call (and records it as a
/// span), optionally running the inner backend inside a dedicated pool.
pub struct TimedBackend {
    inner: Arc<dyn FilterBackend>,
    pool: Option<rayon::ThreadPool>,
    recorder: Option<Arc<Recorder>>,
    calls: Mutex<Vec<Call>>,
}

impl TimedBackend {
    pub fn new(
        inner: Arc<dyn FilterBackend>,
        pool: Option<rayon::ThreadPool>,
        recorder: Option<Arc<Recorder>>,
    ) -> TimedBackend {
        TimedBackend {
            inner,
            pool,
            recorder,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Takes the calls recorded so far.
    pub fn drain(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }
}

impl FilterBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
        let start = Instant::now();
        let decisions = match &self.pool {
            Some(pool) => pool.install(|| self.inner.run(job)),
            None => self.inner.run(job),
        };
        let end = Instant::now();
        if let Some(rec) = &self.recorder {
            rec.record(rec.id(), None, "backend call", start, end);
        }
        self.calls
            .lock()
            .expect("call log poisoned")
            .push(Call { start, end });
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_seq::datasets::DatasetProfile;

    #[test]
    fn replays_cover_their_metrics_with_positive_values() {
        let pairs = DatasetProfile::set3().generate(600, 3).pairs;
        let values = replay(&pairs, 4, None);
        assert_eq!(values.len(), 17);
        for (name, value) in values {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
    }

    #[test]
    fn timed_backend_passes_decisions_through() {
        let pairs = DatasetProfile::set3().generate(300, 5).pairs;
        let inner: Arc<dyn FilterBackend> = Arc::new(CpuSimdBackend::new(1));
        let timed = TimedBackend::new(inner.clone(), None, Some(Arc::new(Recorder::new())));
        let job = FilterJob::new(FilterKind::Magnet, 3, &pairs);
        assert_eq!(timed.run(&job), inner.run(&job));
        let calls = timed.drain();
        assert_eq!(calls.len(), 1);
        assert!(calls[0].end >= calls[0].start);
        assert!(timed.drain().is_empty());
    }
}
