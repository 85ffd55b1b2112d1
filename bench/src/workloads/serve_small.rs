//! `serve-small`: an in-process `GkServer` with the daemon's defaults
//! (`gpu-sim` backend, `BatcherConfig::default()`), driven over localhost
//! TCP by closed-loop clients sending small GateKeeper requests. A mapper
//! waits for its decisions before verifying, so each client sends its next
//! request only after the previous reply. Batcher, frames, socket and
//! per-call backend overhead dominate.

use super::{
    end_to_end, machine_pool, machine_width, median_rate, passes, replay_share, set_layers, set_up,
    trace_overhead, write_trace, Params, Pass, SCALING_PASSES,
};
use crate::affinity;
use crate::layers::{self, TimedBackend};
use crate::report::WorkloadReport;
use crate::stats::{median, percentile, tail_percentile, timed, Timed};
use crate::trace::{maybe_span, Recorder};
use gk_core::backend::{FilterBackend, FilterJob, FilterKind, GpuSimBackend};
use gk_filters::traits::decision_digest;
use gk_seq::datasets::DatasetProfile;
use gk_seq::pairs::SequencePair;
use gk_serve::batcher::{BatcherConfig, BatcherStats};
use gk_serve::client::{GkClient, Reply};
use gk_serve::server::GkServer;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-small";
const THRESHOLD: u32 = 2;
const REQUEST_PAIRS: usize = 256;
/// Client threads and connections: one per core of the reference host.
const CLIENTS: usize = 2;
/// Queueing delay each request tolerates, as `serve_bench` sends.
const DEADLINE: Duration = Duration::from_millis(75);
/// A request without a reply after this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Distinct payloads each client cycles through.
const PAYLOADS_PER_CLIENT: usize = 256;

struct Service {
    server: GkServer,
    clients: Vec<GkClient>,
}

fn start(backend: Arc<dyn FilterBackend>) -> Service {
    let server = GkServer::start("127.0.0.1:0", backend, BatcherConfig::default())
        .expect("binding an ephemeral localhost port");
    let clients = (0..CLIENTS)
        .map(|c| {
            GkClient::connect_as(server.local_addr(), c as u32)
                .expect("connecting to the in-process server")
        })
        .collect();
    Service { server, clients }
}

struct ServePass {
    pass: Pass,
    /// Raw latency of every answered request, in milliseconds.
    latencies_ms: Vec<f64>,
    failed: u64,
}

/// Every client sends `requests` requests back to back, cycling through its
/// own payloads, and checks each reply against the oracle digest.
fn serve_pass(
    service: &Service,
    payloads: &[Vec<SequencePair>],
    oracle: &[u64],
    requests: usize,
    rec: Option<&Recorder>,
) -> ServePass {
    let ((latencies_ms, failed), t) = timed(|| {
        maybe_span(rec, None, "pass", |_| {
            std::thread::scope(|s| {
                let handles: Vec<_> = service
                    .clients
                    .iter()
                    .enumerate()
                    .map(|(c, client)| {
                        s.spawn(move || {
                            let mut latencies = Vec::with_capacity(requests);
                            let mut failed = 0u64;
                            for r in 0..requests {
                                let slot = c * PAYLOADS_PER_CLIENT + r % PAYLOADS_PER_CLIENT;
                                let pairs = payloads[slot].clone();
                                let start = Instant::now();
                                let reply = client
                                    .submit(FilterKind::GateKeeper, THRESHOLD, DEADLINE, pairs)
                                    .and_then(|pending| pending.wait_timeout(REPLY_TIMEOUT));
                                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                                match reply {
                                    Ok(Some(Reply::Decisions(d)))
                                        if decision_digest(&d) == oracle[slot] =>
                                    {
                                        latencies.push(elapsed)
                                    }
                                    _ => failed += 1,
                                }
                            }
                            (latencies, failed)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .fold((Vec::new(), 0), |(mut all, f), h| {
                        let (latencies, failed) = h.join().expect("client thread panicked");
                        all.extend(latencies);
                        (all, f + failed)
                    })
            })
        })
    });
    ServePass {
        pass: Pass {
            timed: t,
            items: (latencies_ms.len() * REQUEST_PAIRS) as f64,
            latency_ms: percentile(&latencies_ms, 0.5),
            traced: rec.is_some(),
        },
        latencies_ms,
        failed,
    }
}

fn delta(after: BatcherStats, before: BatcherStats) -> BatcherStats {
    BatcherStats {
        admitted: after.admitted - before.admitted,
        rejected: after.rejected - before.rejected,
        cancelled: after.cancelled - before.cancelled,
        batches: after.batches - before.batches,
        batched_segments: after.batched_segments - before.batched_segments,
        batched_pairs: after.batched_pairs - before.batched_pairs,
        flush_size: after.flush_size - before.flush_size,
        flush_timer: after.flush_timer - before.flush_timer,
        flush_idle: after.flush_idle - before.flush_idle,
        flush_drain: after.flush_drain - before.flush_drain,
    }
}

pub fn run(params: &Params) -> WorkloadReport {
    let requests = params.pick(1_000, 200);
    let mut report = WorkloadReport::new(NAME);

    // Clients, server and executor share one core, as the other workloads
    // run on one worker: on the reference VM a wakeup across cores costs
    // more than a request's work and drifts with the host's load.
    // Where the kernel refuses, the service runs unpinned (`pinned_cpu` -1).
    let pinned = affinity::pin_to_one_cpu();

    let (setups, (payloads, service)) = set_up(|| {
        let payloads: Vec<Vec<SequencePair>> = (0..CLIENTS * PAYLOADS_PER_CLIENT)
            .map(|i| {
                DatasetProfile::set3()
                    .generate(
                        REQUEST_PAIRS,
                        params.seed.wrapping_mul(1_000_003) ^ i as u64,
                    )
                    .pairs
            })
            .collect();
        (payloads, start(Arc::new(GpuSimBackend::new())))
    });

    // Oracle: the same backend kind invoked directly, one job per payload.
    let direct = GpuSimBackend::new();
    let answers: Vec<_> = payloads
        .iter()
        .map(|p| direct.run(&FilterJob::new(FilterKind::GateKeeper, THRESHOLD, p)))
        .collect();
    let oracle: Vec<u64> = answers.iter().map(|d| decision_digest(d)).collect();
    report.digest = decision_digest(&answers.concat());
    report.count = answers.iter().flatten().filter(|d| d.accepted).count() as u64;

    let recorder = params.trace.then(|| Arc::new(Recorder::new()));
    let traced_backend = recorder.as_ref().map(|rec| {
        Arc::new(TimedBackend::new(
            Arc::new(GpuSimBackend::new()),
            None,
            Some(rec.clone()),
        ))
    });
    let traced_service = traced_backend
        .as_ref()
        .map(|b| start(b.clone() as Arc<dyn FilterBackend>));

    for svc in std::iter::once(&service).chain(&traced_service) {
        let warm = serve_pass(svc, &payloads, &oracle, requests / 4, None);
        if warm.failed > 0 {
            report.failed += warm.failed;
            report.problem(format!("warm-up pass: {} requests failed", warm.failed));
        }
    }
    if let Some(backend) = &traced_backend {
        backend.drain();
    }

    let before = service.server.stats();
    let mut latencies: Vec<(Vec<f64>, Timed)> = Vec::new();
    let mut backend_shares = Vec::new();
    let mut failed = 0u64;
    let timed_passes = passes(params, |_, traced| {
        let p = match (&traced_service, &recorder) {
            (Some(svc), Some(rec)) if traced => {
                let p = serve_pass(svc, &payloads, &oracle, requests, Some(&**rec));
                let calls = traced_backend.as_ref().map_or_else(Vec::new, |b| b.drain());
                let busy: f64 = calls.iter().map(|c| (c.end - c.start).as_secs_f64()).sum();
                backend_shares.push(busy / p.pass.timed.raw_s);
                p
            }
            _ => serve_pass(&service, &payloads, &oracle, requests, None),
        };
        failed += p.failed;
        if !traced {
            latencies.push((p.latencies_ms, p.pass.timed));
        }
        p.pass
    });
    let stats = delta(service.server.stats(), before);
    report.attempted = (timed_passes.len() * CLIENTS * requests) as u64;
    if failed > 0 {
        report.failed += failed;
        report.problem(format!(
            "{failed} requests were refused, timed out or answered wrongly"
        ));
    }
    end_to_end(&mut report, &setups, &timed_passes);

    let rescaled: Vec<f64> = latencies
        .iter()
        .flat_map(|(l, t)| l.iter().map(move |ms| ms * t.factor))
        .collect();
    let raw: Vec<f64> = latencies
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    let p50 = percentile(&rescaled, 0.5);
    let p99 = tail_percentile(&rescaled, 0.99).unwrap_or(f64::NAN);
    report.details = vec![
        ("latency_samples".into(), rescaled.len() as f64),
        ("latency_p50_ms".into(), p50),
        ("latency_p99_ms".into(), p99),
        (
            "latency_p999_ms".into(),
            tail_percentile(&rescaled, 0.999).unwrap_or(f64::NAN),
        ),
        (
            "latency_p99_ms.raw".into(),
            tail_percentile(&raw, 0.99).unwrap_or(f64::NAN),
        ),
        ("batches".into(), stats.batches as f64),
        ("batched_pairs".into(), stats.batched_pairs as f64),
        ("flush_size".into(), stats.flush_size as f64),
        ("flush_timer".into(), stats.flush_timer as f64),
        ("flush_idle".into(), stats.flush_idle as f64),
        ("flush_drain".into(), stats.flush_drain as f64),
        ("rejected".into(), stats.rejected as f64),
        ("cancelled".into(), stats.cancelled as f64),
        ("pinned_cpu".into(), pinned.map_or(-1.0, |cpu| cpu as f64)),
    ];

    if let Some(rec) = &recorder {
        let all_pairs = payloads.concat();
        let mut values = layers::replay(&all_pairs, THRESHOLD, Some(&**rec));
        let pairs_per_pass = CLIENTS * requests * REQUEST_PAIRS;
        let share = |name| replay_share(&values, name, pairs_per_pass, &timed_passes);
        let gather = share("gk-seq.raw_gather_ns_per_pair");
        let kernel = share("gk-filters.gatekeeper_slices_ns_per_pair");
        let backend_share = median(&backend_shares);
        affinity::unpin();
        let pool = machine_pool();
        let wide_service = start(Arc::new(TimedBackend::new(
            Arc::new(GpuSimBackend::new()),
            Some(pool),
            None,
        )));
        let wide: Vec<Pass> = (0..SCALING_PASSES)
            .map(|i| {
                let p = serve_pass(&wide_service, &payloads, &oracle, requests, None);
                if p.failed > 0 {
                    report.failed += p.failed;
                    report.problem(format!("scaling pass {i}: {} requests failed", p.failed));
                }
                p.pass
            })
            .collect();
        report.attempted += (wide.len() * CLIENTS * requests) as u64;
        values.extend([
            ("gk-seq.raw_gather_share", gather),
            ("gk-filters.kernel_share", kernel),
            ("gk-serve.backend_share", backend_share),
            ("gk-core.glue_share", 1.0 - backend_share),
            (
                "gk-filters.accept_frac",
                report.count as f64 / all_pairs.len() as f64,
            ),
            (
                "gk-core.pairs_per_call",
                stats.batched_pairs as f64 / stats.batches as f64,
            ),
            (
                "gk-serve.segments_per_batch",
                stats.batched_segments as f64 / stats.batches as f64,
            ),
            ("gk-serve.p99_over_p50", p99 / p50),
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
