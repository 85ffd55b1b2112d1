//! SIMD-vs-scalar CPU throughput comparison — the acceptance harness of the
//! lane-parallel filter kernels.
//!
//! Runs the Table 2 CPU row (100 bp, e = 4) twice per worker count (a
//! one-worker pool and a pool of Setup 1's 12 CPU workers) for **all
//! four** lane-parallel filters — GateKeeper, MAGNET, Shouji, SneakySnake —
//! once on the lane-parallel SIMD path (`SimdMode::Lanes`, blocks of pairs
//! transposed into the struct-of-arrays layout and filtered four lanes at a
//! time) and once on the scalar reference (`SimdMode::Scalar`, each filter's
//! per-bit `*_reference` twin). Each filter's run **hard-asserts** that the
//! two decision streams are FNV-digest-identical and that the lane path clears
//! the 4x end-to-end speedup bar on the one-worker row, then prints a
//! Markdown comparison table between `<!-- simd-vs-scalar:begin/end -->`
//! markers so CI can lift it straight into the job summary.
//!
//! Each one-worker scalar/lanes pair runs three times, alternating which leg
//! goes first; every leg's seconds are printed, and the bar is asserted on
//! the median of the three ratios, so one slow leg cannot decide it. The
//! table shows the median pair. The 12-worker rows run one pair.
//!
//! The header prints the host's `std::thread::available_parallelism()`: a
//! 12-worker pool on a host with fewer cores time-shares them, so its rows
//! measure oversubscription, not 12-core scaling.
//!
//! The three non-GateKeeper filters run on a quarter-size set: their per-bit
//! references walk bases one at a time, so a full-size scalar leg would
//! dominate the bench's wall clock without sharpening the comparison.
//!
//! Usage: `cargo run --release -p gk-bench --bin simd_speedup
//!         [--pairs N] [--full] [--help]`

use std::time::Instant;

use gk_bench::datasets::throughput_set;
use gk_bench::runner::{shared_pool, speedup, ThroughputPoint};
use gk_bench::table::fmt;
use gk_bench::{HarnessArgs, SETUP1};
use gk_core::cpu::GateKeeperCpu;
use gk_filters::{
    decision_digest, MagnetFilter, PreAlignmentFilter, ShoujiFilter, SimdMode, SneakySnakeFilter,
};
use gk_seq::pairs::PairSet;

struct ModeRun {
    point: ThroughputPoint,
    digest: u64,
    accepted: usize,
}

/// GateKeeper leg: the full CPU baseline with its kernel/filter timing split.
fn measure_gatekeeper(set: &PairSet, threshold: u32, workers: usize, mode: SimdMode) -> ModeRun {
    let run = GateKeeperCpu::with_pool(threshold, workers, shared_pool(workers))
        .with_simd_mode(mode)
        .filter_set(set);
    ModeRun {
        point: ThroughputPoint::new(set.len(), run.kernel_seconds, run.filter_seconds),
        digest: decision_digest(&run.decisions),
        accepted: run.accepted(),
    }
}

/// Generic leg for the widened filters: wall-clock the batch surface on the
/// shared pool. These paths have no host/kernel split, so kernel time equals
/// filter time.
fn measure_filter(filter: &dyn PreAlignmentFilter, set: &PairSet, workers: usize) -> ModeRun {
    let start = Instant::now();
    let decisions = shared_pool(workers).install(|| filter.filter_batch(&set.pairs));
    let seconds = start.elapsed().as_secs_f64();
    ModeRun {
        point: ThroughputPoint::new(set.len(), seconds, seconds),
        digest: decision_digest(&decisions),
        accepted: decisions.iter().filter(|d| d.accepted).count(),
    }
}

fn summary_row(
    filter: &str,
    workers: usize,
    mode: &str,
    run: &ModeRun,
    speedup_col: Option<f64>,
) -> String {
    format!(
        "| {filter} | {workers} | {mode} | `{:#018x}` | {} | {} | {} |",
        run.digest,
        fmt(run.point.filter_seconds, 4),
        fmt(run.point.filter_mps, 2),
        speedup_col
            .map(|s| format!("{}x", fmt(s, 2)))
            .unwrap_or_else(|| "baseline".to_string()),
    )
}

/// One-worker scalar/lanes pairs per filter; the 4x bar is asserted on the
/// median of their ratios.
const BAR_PAIRS: usize = 3;

/// Runs `pairs` scalar/lanes pairs of `leg`, alternating which leg goes
/// first. Returns each pair as (scalar, lanes).
fn measure_pairs(pairs: usize, leg: impl Fn(SimdMode) -> ModeRun) -> Vec<(ModeRun, ModeRun)> {
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let scalar = leg(SimdMode::Scalar);
                (scalar, leg(SimdMode::Lanes))
            } else {
                let lanes = leg(SimdMode::Lanes);
                (leg(SimdMode::Scalar), lanes)
            }
        })
        .collect()
}

/// Checks and prints every pair, adds the median pair's two table rows and
/// returns the median end-to-end speedup.
fn report_pairs(
    name: &str,
    workers: usize,
    pairs: &[(ModeRun, ModeRun)],
    rows: &mut Vec<String>,
) -> f64 {
    let mut ratios: Vec<(f64, usize)> = Vec::with_capacity(pairs.len());
    println!("--- {name}, {workers} worker(s) ---");
    for (i, (scalar, lanes)) in pairs.iter().enumerate() {
        assert_eq!(
            lanes.digest, scalar.digest,
            "{name}: decision streams diverged between SIMD modes at {workers} workers — lane-kernel bug"
        );
        assert_eq!(lanes.accepted, scalar.accepted, "{name}");
        let ratio = speedup(scalar.point.filter_seconds, lanes.point.filter_seconds);
        println!(
            "pair {}       : scalar {} s, lanes {} s, {}x ({} leg first)",
            i + 1,
            fmt(scalar.point.filter_seconds, 4),
            fmt(lanes.point.filter_seconds, 4),
            fmt(ratio, 2),
            if i % 2 == 0 { "scalar" } else { "lanes" },
        );
        ratios.push((ratio, i));
    }
    ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (end_to_end, median) = ratios[ratios.len() / 2];
    let (scalar, lanes) = &pairs[median];
    println!(
        "decisions    : byte-identical (digest {:#018x}, {} accepted)",
        lanes.digest, lanes.accepted
    );
    println!(
        "end-to-end   : {}x speedup (filter time, median of {} pair(s))\n",
        fmt(end_to_end, 2),
        pairs.len()
    );
    rows.push(summary_row(name, workers, "scalar", scalar, None));
    rows.push(summary_row(name, workers, "lanes", lanes, Some(end_to_end)));
    end_to_end
}

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(if args.full { 1_000_000 } else { 200_000 });
    let threshold = 4u32;
    let read_len = 100usize;
    let set = throughput_set(read_len, pairs);
    let widened_pairs = (pairs / 4).max(1);
    let widened_set = throughput_set(read_len, widened_pairs);
    let worker_counts = [1usize, SETUP1.cpu_cores];
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "SIMD-vs-scalar comparison across all four filters ({read_len} bp, e = {threshold}, \
         {pairs} pairs for GateKeeper, {widened_pairs} for MAGNET/Shouji/SneakySnake)"
    );
    println!("Lane path: 4-lane struct-of-arrays blocks over 64-bit words; scalar path: per-bit reference kernels.");
    println!(
        "Pools of {} worker(s) on a host with {host_cores} available core(s) \
         (std::thread::available_parallelism).\n",
        worker_counts.map(|w| w.to_string()).join(" and ")
    );

    // Throwaway warmup so neither measured mode pays first-touch costs
    // (worker spawn-up, allocator warm-up).
    for &workers in &worker_counts {
        let _ = measure_gatekeeper(&set, threshold, workers, SimdMode::Lanes);
    }

    let mut rows = Vec::new();
    // One-worker median end-to-end speedups, one per filter — each must
    // clear 4x.
    let mut bars: Vec<(String, f64)> = Vec::new();

    let pair_count = |workers: usize| if workers == 1 { BAR_PAIRS } else { 1 };
    for &workers in &worker_counts {
        let pairs = measure_pairs(pair_count(workers), |mode| {
            measure_gatekeeper(&set, threshold, workers, mode)
        });
        let end_to_end = report_pairs("GateKeeper", workers, &pairs, &mut rows);
        if workers == 1 {
            bars.push(("GateKeeper".to_string(), end_to_end));
        }
    }

    type Make = Box<dyn Fn(SimdMode) -> Box<dyn PreAlignmentFilter>>;
    let widened: Vec<Make> = vec![
        Box::new(move |m| Box::new(MagnetFilter::new(threshold).with_simd_mode(m))),
        Box::new(move |m| Box::new(ShoujiFilter::new(threshold).with_simd_mode(m))),
        Box::new(move |m| Box::new(SneakySnakeFilter::new(threshold).with_simd_mode(m))),
    ];
    for make in &widened {
        let name = make(SimdMode::Lanes).name().to_string();
        for &workers in &worker_counts {
            let pairs = measure_pairs(pair_count(workers), |mode| {
                measure_filter(make(mode).as_ref(), &widened_set, workers)
            });
            let end_to_end = report_pairs(&name, workers, &pairs, &mut rows);
            if workers == 1 {
                bars.push((name.clone(), end_to_end));
            }
        }
    }

    for (name, single) in &bars {
        assert!(
            *single >= 4.0,
            "{name}: lane path must clear the 4x end-to-end bar over the scalar baseline \
             on the one-worker row, measured a median {single:.2}x over {BAR_PAIRS} pairs"
        );
    }

    // Markdown block for the CI job summary (lifted verbatim by the workflow).
    println!("<!-- simd-vs-scalar:begin -->");
    println!(
        "### `simd_speedup` SIMD-vs-scalar comparison ({read_len} bp, e = {threshold}, \
         {pairs} pairs; widened filters on {widened_pairs}; host: {host_cores} available core(s))"
    );
    println!();
    println!("| filter | workers | mode | decisions digest | filter s | Mpairs/s | speedup |");
    println!("|---|---|---|---|---|---|---|");
    for row in &rows {
        println!("{row}");
    }
    println!();
    let bar_summary = bars
        .iter()
        .map(|(name, s)| format!("{name} **{}x**", fmt(*s, 2)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "Decisions byte-identical across modes for every filter: **yes**; \
         one-worker end-to-end speedups, median of {BAR_PAIRS} alternating pairs \
         (bar: 4x each): {bar_summary}."
    );
    println!("<!-- simd-vs-scalar:end -->");
}
