//! Closed-loop + open-loop load generator for the `gk-serve` filter service.
//!
//! Measures aggregate pairs/s and p50/p99 request latency for the dynamic
//! batcher against the unbatched per-request path, under small and mixed
//! small/large workloads, and drives an open-loop overload leg against the
//! bounded admission queue. Every reply is digest-checked against the direct
//! backend invocation — the service must be an *exactly* transparent wrapper.
//!
//! Asserts (in-process mode):
//!   * every request reaches a terminal reply (zero dropped-without-reject);
//!   * batched-vs-direct decisions digest-identical;
//!   * closed-loop batched p99 ≤ request deadline + one flush interval;
//!   * batching lift ≥ 2× on the small-request workload (skipped with a loud
//!     note when the host has fewer than 2 cores — the lift comes from
//!     coalescing small single-block requests into multi-block batches).
//!
//! `--connect ADDR` additionally drives an already-running daemon with the
//! same closed-loop workload (digest + zero-drop asserts only — the external
//! daemon's batching policy is whatever it was started with).
//!
//! Writes `BENCH_serve.json` and prints the README table between
//! `<!-- serve-bench:begin -->` / `<!-- serve-bench:end -->` markers.
//!
//! An unknown flag, a missing or unparsable value, an out-of-range count or an
//! unknown backend prints the error with the flag reference (`--help`) and
//! exits 2 before any payload, server or client is built.

use gk_bench::args::flag_value;
use gk_core::backend::{BackendRegistry, FilterBackend, FilterJob, FilterKind};
use gk_filters::traits::decision_digest;
use gk_seq::datasets::DatasetProfile;
use gk_seq::pairs::SequencePair;
use gk_serve::batcher::BatcherConfig;
use gk_serve::client::{GkClient, Reply};
use gk_serve::server::GkServer;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone)]
struct BenchArgs {
    clients: usize,
    requests: usize,
    req_pairs: usize,
    large_pairs: usize,
    large_every: usize,
    threshold: u32,
    flush_ms: u64,
    deadline_ms: u64,
    backend: String,
    connect: Option<SocketAddr>,
    json_path: String,
}

impl Default for BenchArgs {
    fn default() -> BenchArgs {
        BenchArgs {
            clients: 8,
            requests: 60,
            req_pairs: 256,
            large_pairs: 2048,
            large_every: 8,
            threshold: 2,
            flush_ms: 2,
            deadline_ms: 75,
            backend: "gpu-sim".to_string(),
            connect: None,
            json_path: "BENCH_serve.json".to_string(),
        }
    }
}

const USAGE: &str = "usage: serve_bench [flags]\n\
\n\
\x20 --clients N        closed-loop clients (default 8, at least 1)\n\
\x20 --requests N       requests per client (default 60, at least 1)\n\
\x20 --req-pairs N      pairs per small request (default 256, 1 to 256)\n\
\x20 --large-pairs N    pairs per large request of the mixed workload (default 2048)\n\
\x20 --large-every N    every Nth mixed request is large (default 8, 0 = none)\n\
\x20 --threshold E      error threshold (default 2)\n\
\x20 --flush-ms MS      batcher flush interval (default 2)\n\
\x20 --deadline-ms MS   request deadline (default 75)\n\
\x20 --backend NAME     cpu-simd or gpu-sim (default gpu-sim)\n\
\x20 --connect ADDR     also drive a running gk-serve daemon at HOST:PORT\n\
\x20 --json PATH        result file (default BENCH_serve.json)\n\
\x20 --help, -h         print this reference and exit";

/// Prints a usage error with the flag reference and exits 2.
fn usage_error(err: &str) -> ! {
    eprintln!("error: {err}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> BenchArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    parse_from(args).unwrap_or_else(|err| usage_error(&err))
}

fn parse_from(args: Vec<String>) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--clients" => parsed.clients = flag_value(&arg, iter.next())?,
            "--requests" => parsed.requests = flag_value(&arg, iter.next())?,
            "--req-pairs" => parsed.req_pairs = flag_value(&arg, iter.next())?,
            "--large-pairs" => parsed.large_pairs = flag_value(&arg, iter.next())?,
            "--large-every" => parsed.large_every = flag_value(&arg, iter.next())?,
            "--threshold" => parsed.threshold = flag_value(&arg, iter.next())?,
            "--flush-ms" => parsed.flush_ms = flag_value(&arg, iter.next())?,
            "--deadline-ms" => parsed.deadline_ms = flag_value(&arg, iter.next())?,
            "--backend" => parsed.backend = flag_value(&arg, iter.next())?,
            "--connect" => parsed.connect = Some(flag_value(&arg, iter.next())?),
            "--json" => parsed.json_path = flag_value(&arg, iter.next())?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(1..=256).contains(&parsed.req_pairs) {
        return Err(format!(
            "--req-pairs `{}`: a small request holds 1 to 256 pairs",
            parsed.req_pairs
        ));
    }
    if parsed.clients == 0 {
        return Err("--clients `0`: at least one client is needed".to_string());
    }
    if parsed.requests == 0 {
        return Err("--requests `0`: at least one request is needed".to_string());
    }
    Ok(parsed)
}

/// Deterministic request payload for (client, round): the digest oracle and
/// the submitted pairs are generated from the same seed.
fn payload(args: &BenchArgs, client: usize, round: usize, mixed: bool) -> Vec<SequencePair> {
    let large = mixed && args.large_every > 0 && (round + 1).is_multiple_of(args.large_every);
    let count = if large {
        args.large_pairs
    } else {
        args.req_pairs
    };
    let seed = 0x5eed_0000 + (client as u64) * 1009 + round as u64;
    DatasetProfile::set3().generate(count, seed).pairs
}

struct ClosedLoopRow {
    mode: &'static str,
    workload: &'static str,
    requests: usize,
    pairs: usize,
    elapsed: Duration,
    latencies: Vec<Duration>,
    retries: usize,
    batches: u64,
    segments_per_batch: f64,
    digests_ok: bool,
    dropped: usize,
}

impl ClosedLoopRow {
    fn pairs_per_second(&self) -> f64 {
        self.pairs as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn percentile(latencies: &mut [Duration], q: f64) -> Duration {
    if latencies.is_empty() {
        return Duration::ZERO;
    }
    latencies.sort();
    let index = ((latencies.len() as f64 - 1.0) * q).round() as usize;
    latencies[index.min(latencies.len() - 1)]
}

/// One closed-loop run: `clients` threads each issue `requests` requests
/// back-to-back and wait for each reply, digest-checking it on the spot.
fn closed_loop(
    args: &BenchArgs,
    addr: SocketAddr,
    oracle: &HashMap<(usize, usize, bool), u64>,
    mode: &'static str,
    workload: &'static str,
    mixed: bool,
) -> ClosedLoopRow {
    let started = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|client_index| {
            let args = args.clone();
            let oracle = oracle.clone();
            std::thread::spawn(move || {
                let client = GkClient::connect_as(addr, client_index as u32).expect("connect");
                let mut latencies = Vec::with_capacity(args.requests);
                let mut pairs_done = 0usize;
                let mut retries = 0usize;
                let mut digests_ok = true;
                let mut dropped = 0usize;
                for round in 0..args.requests {
                    let pairs = payload(&args, client_index, round, mixed);
                    let expected = oracle[&(client_index, round, mixed)];
                    let mut payload_pairs = pairs;
                    loop {
                        let t0 = Instant::now();
                        let pending = client
                            .submit(
                                FilterKind::GateKeeper,
                                args.threshold,
                                Duration::from_millis(args.deadline_ms),
                                payload_pairs.clone(),
                            )
                            .expect("submit");
                        match pending.wait_timeout(Duration::from_secs(30)).expect("wait") {
                            Some(Reply::Decisions(decisions)) => {
                                latencies.push(t0.elapsed());
                                pairs_done += decisions.len();
                                if decision_digest(&decisions) != expected {
                                    digests_ok = false;
                                }
                                break;
                            }
                            Some(Reply::Rejected { retry_after }) => {
                                retries += 1;
                                std::thread::sleep(retry_after.min(Duration::from_millis(50)));
                            }
                            Some(other) => panic!("unexpected reply {other:?}"),
                            None => {
                                dropped += 1;
                                break;
                            }
                        }
                    }
                    payload_pairs.clear();
                }
                (latencies, pairs_done, retries, digests_ok, dropped)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut pairs = 0;
    let mut retries = 0;
    let mut digests_ok = true;
    let mut dropped = 0;
    for handle in handles {
        let (lat, p, r, ok, d) = handle.join().expect("client thread");
        latencies.extend(lat);
        pairs += p;
        retries += r;
        digests_ok &= ok;
        dropped += d;
    }
    ClosedLoopRow {
        mode,
        workload,
        requests: args.clients * args.requests,
        pairs,
        elapsed: started.elapsed(),
        latencies,
        retries,
        batches: 0,
        segments_per_batch: 0.0,
        digests_ok,
        dropped,
    }
}

struct OpenLoopResult {
    offered_rps: f64,
    duration: Duration,
    submitted: usize,
    ok: usize,
    rejected: usize,
    cancelled: usize,
    dropped: usize,
    p99: Duration,
}

/// Open-loop overload leg: fixed-rate paced submissions against a small
/// admission queue; every submission must terminate as ok/rejected.
fn open_loop(
    args: &BenchArgs,
    backend: Arc<dyn FilterBackend>,
    offered_rps: f64,
) -> OpenLoopResult {
    let config = BatcherConfig::default()
        .with_flush_interval(Duration::from_millis(args.flush_ms))
        .with_max_batch_pairs(args.clients * args.req_pairs)
        .with_queue_capacity_pairs(4 * args.clients * args.req_pairs)
        .with_executors(1);
    let server = GkServer::start("127.0.0.1:0", backend, config).expect("bind");
    let client = GkClient::connect(server.local_addr()).expect("connect");

    let duration = Duration::from_millis(1500);
    let interval = Duration::from_secs_f64(1.0 / offered_rps.max(1.0));

    // The collector runs concurrently with submission so reply latency is
    // measured at arrival, not after the offered load ends. The batcher is
    // FIFO enough that waiting in submission order stays accurate.
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, gk_serve::client::PendingReply)>();
    let collector = std::thread::spawn(move || {
        let (mut ok, mut rejected, mut dropped) = (0usize, 0usize, 0usize);
        let mut latencies = Vec::new();
        for (t0, reply) in rx {
            match reply.wait_timeout(Duration::from_secs(30)).expect("wait") {
                Some(Reply::Decisions(_)) => {
                    ok += 1;
                    latencies.push(t0.elapsed());
                }
                Some(Reply::Rejected { .. }) => rejected += 1,
                Some(Reply::Cancelled) => unreachable!("nothing cancels in the open loop"),
                Some(Reply::Error(message)) => panic!("server error: {message}"),
                None => dropped += 1,
            }
        }
        (ok, rejected, dropped, latencies)
    });

    let started = Instant::now();
    let mut submitted = 0usize;
    while started.elapsed() < duration {
        let tick = started + interval.mul_f64(submitted as f64);
        if let Some(sleep) = tick.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        let pairs = payload(
            args,
            submitted % args.clients,
            submitted % args.requests,
            false,
        );
        let t0 = Instant::now();
        let reply = client
            .submit(
                FilterKind::GateKeeper,
                args.threshold,
                Duration::from_millis(args.deadline_ms),
                pairs,
            )
            .expect("submit");
        tx.send((t0, reply)).expect("collector alive");
        submitted += 1;
    }
    drop(tx);
    let (ok, rejected, dropped, mut latencies) = collector.join().expect("collector thread");
    let cancelled = 0usize;
    let p99 = percentile(&mut latencies, 0.99);
    server.shutdown();
    OpenLoopResult {
        offered_rps,
        duration,
        submitted,
        ok,
        rejected,
        cancelled,
        dropped,
        p99,
    }
}

fn run_in_process(
    args: &BenchArgs,
    backend: Arc<dyn FilterBackend>,
    oracle: &HashMap<(usize, usize, bool), u64>,
    coalesce: bool,
    mode: &'static str,
    workload: &'static str,
    mixed: bool,
) -> ClosedLoopRow {
    let config = BatcherConfig::default()
        .with_coalesce(coalesce)
        .with_flush_interval(Duration::from_millis(args.flush_ms))
        .with_max_batch_pairs(args.clients * args.req_pairs)
        .with_executors(1);
    let server = GkServer::start("127.0.0.1:0", backend, config).expect("bind");
    let mut row = closed_loop(args, server.local_addr(), oracle, mode, workload, mixed);
    let stats = server.stats();
    row.batches = stats.batches;
    row.segments_per_batch = if stats.batches > 0 {
        stats.batched_segments as f64 / stats.batches as f64
    } else {
        0.0
    };
    server.shutdown();
    row
}

fn json_row(row: &ClosedLoopRow) -> String {
    let mut latencies = row.latencies.clone();
    let p50 = percentile(&mut latencies, 0.50);
    let p99 = percentile(&mut latencies, 0.99);
    format!(
        concat!(
            "{{\"mode\":\"{}\",\"workload\":\"{}\",\"requests\":{},\"pairs\":{},",
            "\"elapsed_seconds\":{},\"pairs_per_second\":{},\"p50_ms\":{},\"p99_ms\":{},",
            "\"retries\":{},\"batches\":{},\"segments_per_batch\":{:.3},",
            "\"digests_ok\":{},\"dropped\":{}}}"
        ),
        row.mode,
        row.workload,
        row.requests,
        row.pairs,
        row.elapsed.as_secs_f64(),
        row.pairs_per_second(),
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        row.retries,
        row.batches,
        row.segments_per_batch,
        row.digests_ok,
        row.dropped,
    )
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let registry = BackendRegistry::standard(0);
    let Some(backend) = registry.get(&args.backend) else {
        usage_error(&format!(
            "--backend `{}`: unknown backend (available: {})",
            args.backend,
            registry.names().join(", ")
        ));
    };

    println!(
        "serve_bench: backend {}, {} clients × {} requests, {} pairs/request (large {} every {}), \
         flush {} ms, deadline {} ms, {} cores",
        backend.name(),
        args.clients,
        args.requests,
        args.req_pairs,
        args.large_pairs,
        args.large_every,
        args.flush_ms,
        args.deadline_ms,
        cores
    );

    // Digest oracle: the direct backend invocation for every (client, round)
    // payload, computed before any server exists.
    println!("computing direct-path digest oracle ...");
    let mut oracle = HashMap::new();
    for mixed in [false, true] {
        for client in 0..args.clients {
            for round in 0..args.requests {
                let pairs = payload(&args, client, round, mixed);
                let decisions = backend.run(&FilterJob::new(
                    FilterKind::GateKeeper,
                    args.threshold,
                    &pairs,
                ));
                oracle.insert((client, round, mixed), decision_digest(&decisions));
            }
        }
    }

    // Closed-loop comparison: unbatched baseline vs dynamic batcher, small
    // and mixed workloads.
    let mut rows = Vec::new();
    for (coalesce, mode) in [(false, "unbatched"), (true, "batched")] {
        for (mixed, workload) in [(false, "small"), (true, "mixed")] {
            println!("closed loop: {mode} / {workload} ...");
            rows.push(run_in_process(
                &args,
                backend.clone(),
                &oracle,
                coalesce,
                mode,
                workload,
                mixed,
            ));
        }
    }

    let by = |mode: &str, workload: &str| {
        rows.iter()
            .find(|r| r.mode == mode && r.workload == workload)
            .expect("row")
    };
    let lift =
        by("batched", "small").pairs_per_second() / by("unbatched", "small").pairs_per_second();

    // Open-loop overload: offer ~1.25× the measured batched capacity.
    let batched_rps =
        by("batched", "small").requests as f64 / by("batched", "small").elapsed.as_secs_f64();
    let offered = (batched_rps * 1.25).max(200.0);
    println!("open loop: {offered:.0} req/s offered for 1.5 s ...");
    let open = open_loop(&args, backend.clone(), offered);

    // Optional external-daemon leg.
    let external = args.connect.map(|addr| {
        println!("external daemon: closed loop against {addr} ...");
        closed_loop(&args, addr, &oracle, "external", "small", false)
    });

    // ---- report ----
    let mut table = String::new();
    table.push_str("<!-- serve-bench:begin -->\n");
    table.push_str(
        "| mode | workload | requests | pairs | Mpairs/s | p50 ms | p99 ms | batches | req/batch |\n",
    );
    table.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for row in rows.iter().chain(external.iter()) {
        let mut latencies = row.latencies.clone();
        let p50 = percentile(&mut latencies, 0.50);
        let p99 = percentile(&mut latencies, 0.99);
        let batches = if row.batches > 0 {
            format!("{} | {:.1}", row.batches, row.segments_per_batch)
        } else {
            "— | —".to_string()
        };
        table.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {} |\n",
            row.mode,
            row.workload,
            row.requests,
            row.pairs,
            row.pairs_per_second() / 1e6,
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
            batches,
        ));
    }
    table.push_str(&format!(
        "\nBatching lift (small requests, {} clients): **{lift:.2}×**; open loop at {:.0} req/s: \
         {} ok, {} rejected, {} dropped (p99 {:.2} ms).\n",
        args.clients,
        open.offered_rps,
        open.ok,
        open.rejected,
        open.dropped,
        open.p99.as_secs_f64() * 1e3,
    ));
    table.push_str("<!-- serve-bench:end -->");
    println!("\n{table}\n");

    // ---- JSON ----
    let rows_json: Vec<String> = rows.iter().chain(external.iter()).map(json_row).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"serve_bench\",\n",
            "  \"backend\": \"{}\",\n",
            "  \"cores\": {},\n",
            "  \"clients\": {},\n",
            "  \"requests_per_client\": {},\n",
            "  \"request_pairs\": {},\n",
            "  \"flush_ms\": {},\n",
            "  \"deadline_ms\": {},\n",
            "  \"batching_lift\": {},\n",
            "  \"closed_loop\": [\n    {}\n  ],\n",
            "  \"open_loop\": {{\"offered_rps\":{},\"duration_seconds\":{},\"submitted\":{},",
            "\"ok\":{},\"rejected\":{},\"cancelled\":{},\"dropped\":{},\"p99_ms\":{}}}\n",
            "}}\n"
        ),
        backend.name(),
        cores,
        args.clients,
        args.requests,
        args.req_pairs,
        args.flush_ms,
        args.deadline_ms,
        lift,
        rows_json.join(",\n    "),
        open.offered_rps,
        open.duration.as_secs_f64(),
        open.submitted,
        open.ok,
        open.rejected,
        open.cancelled,
        open.dropped,
        open.p99.as_secs_f64() * 1e3,
    );
    match std::fs::write(&args.json_path, &json) {
        Ok(()) => println!("wrote {}", args.json_path),
        Err(err) => eprintln!("warning: could not write {}: {err}", args.json_path),
    }

    // ---- acceptance asserts ----
    let all_rows: Vec<&ClosedLoopRow> = rows.iter().chain(external.iter()).collect();
    for row in &all_rows {
        assert!(
            row.digests_ok,
            "{}/{}: service decisions diverged from the direct backend path",
            row.mode, row.workload
        );
        assert_eq!(
            row.dropped, 0,
            "{}/{}: requests dropped without a terminal reply",
            row.mode, row.workload
        );
    }
    assert_eq!(
        open.ok + open.rejected + open.cancelled + open.dropped,
        open.submitted,
        "open loop lost track of submissions"
    );
    assert_eq!(
        open.dropped, 0,
        "open loop dropped requests without a reject"
    );

    let mut batched_small = by("batched", "small").latencies.clone();
    let p99 = percentile(&mut batched_small, 0.99);
    let bound = Duration::from_millis(args.deadline_ms + args.flush_ms) + Duration::from_millis(25);
    assert!(
        p99 <= bound,
        "batched small-request p99 {:?} exceeds deadline + flush interval bound {:?}",
        p99,
        bound
    );

    if cores >= 2 {
        assert!(
            lift >= 2.0,
            "batching lift {lift:.2}× below the 2× acceptance bar \
             ({} clients, {} pairs/request, {} cores)",
            args.clients,
            args.req_pairs,
            cores
        );
        println!("acceptance: batching lift {lift:.2}× ≥ 2× ✓");
    } else {
        println!(
            "acceptance: SKIPPED lift assert — single-core host (measured {lift:.2}×); \
             coalescing needs ≥2 cores to beat the per-request path"
        );
    }
    println!("serve_bench: all asserts passed");
}
