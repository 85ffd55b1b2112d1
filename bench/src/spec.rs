//! What the benchmark measures: workload names, metric definitions with
//! their units, directions and regression bounds, and the outputs pinned for
//! the default seed. `BENCHMARK.json` at the repository root mirrors these
//! tables; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// comparison flags it (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 4] = ["stream-host", "cpu-filters", "map-wgs", "serve-small"];

/// Printed by every untraced run. Time-based metrics are rescaled to the
/// reference core speed by the calibration clock in `stats`.
pub const END_TO_END: [MetricSpec; 4] = [
    // Pairs per second (stream-host, cpu-filters, serve-small) or reads per
    // second (map-wgs): median over timed passes.
    e2e("items_per_s", "items/s", Better::Higher, 0.2),
    // Median latency of one operation: a pass of the stream or the mapper,
    // a round of 24 backend calls, or one service request.
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    // Input generation plus the program's constructors, median of samples.
    e2e("setup_s", "s", Better::Lower, 0.25),
    // High-water resident set of the workload's process.
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.1),
];

/// Printed by every traced run. Replays run each layer's public function on
/// the workload's own pairs; shares divide a layer's time by the pass wall;
/// metrics of a layer a workload does not run on its path read 0.
pub const PER_LAYER: [MetricSpec; 31] = [
    layer("gk-seq.encode_ns_per_pair", "ns", Better::Lower),
    layer("gk-seq.raw_gather_ns_per_pair", "ns", Better::Lower),
    layer("gk-seq.frame_request_encode_us", "us", Better::Lower),
    layer("gk-seq.frame_request_decode_us", "us", Better::Lower),
    layer("gk-seq.frame_response_roundtrip_us", "us", Better::Lower),
    layer("gk-seq.encode_share", "ratio", Better::Lower),
    layer("gk-seq.raw_gather_share", "ratio", Better::Lower),
    layer(
        "gk-filters.gatekeeper_packed_ns_per_pair",
        "ns",
        Better::Lower,
    ),
    layer(
        "gk-filters.gatekeeper_slices_ns_per_pair",
        "ns",
        Better::Lower,
    ),
    layer("gk-filters.magnet_ns_per_pair", "ns", Better::Lower),
    layer("gk-filters.shouji_ns_per_pair", "ns", Better::Lower),
    layer("gk-filters.sneaky_snake_ns_per_pair", "ns", Better::Lower),
    layer("gk-filters.call_tail_us", "us", Better::Lower),
    layer("gk-filters.kernel_share", "ratio", Better::Lower),
    layer("gk-filters.accept_frac", "ratio", Better::Lower),
    layer("gk-core.backend_fixed_us", "us", Better::Lower),
    layer("gk-core.gpu_filter_ns_per_pair", "ns", Better::Lower),
    layer("gk-core.pairs_per_call", "count", Better::Higher),
    layer("gk-core.glue_share", "ratio", Better::Lower),
    layer("gk-gpusim.sim_pairs_per_s", "pairs/s", Better::Higher),
    layer("gk-gpusim.h2d_bytes_per_pair", "B", Better::Lower),
    layer("gk-mapper.seed_share", "ratio", Better::Lower),
    layer("gk-mapper.candidates_per_read", "count", Better::Lower),
    layer("gk-align.verify_ns_per_pair", "ns", Better::Lower),
    layer("gk-align.verify_share", "ratio", Better::Lower),
    layer("gk-serve.backend_share", "ratio", Better::Lower),
    layer("gk-serve.segments_per_batch", "count", Better::Higher),
    layer("gk-serve.p99_over_p50", "ratio", Better::Lower),
    layer("rayon.install_empty_ns", "ns", Better::Lower),
    layer("rayon.scaling", "ratio", Better::Higher),
    layer("trace.overhead", "ratio", Better::Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub const DEFAULT_SEED: u64 = 1;

/// A workload's output at [`DEFAULT_SEED`] and full size: the digest of its
/// decisions (or mapping records) and one count. A run at that seed that
/// reproduces something else fails its correctness check.
pub struct Pinned {
    pub workload: &'static str,
    pub digest: u64,
    pub count: u64,
}

pub const PINNED: [Pinned; 4] = [
    Pinned {
        workload: "stream-host",
        digest: 0x49ec_f92a_6fc0_a1b4,
        count: 126_585,
    },
    Pinned {
        workload: "cpu-filters",
        digest: 0x10c1_7c60_8305_56af,
        count: 48_323,
    },
    Pinned {
        workload: "map-wgs",
        digest: 0x8e87_0e36_769b_0400,
        count: 30_538,
    },
    Pinned {
        workload: "serve-small",
        digest: 0xa89e_73eb_e1d7_0a17,
        count: 8_983,
    },
];

pub fn pinned(workload: &str) -> Option<&'static Pinned> {
    PINNED.iter().find(|p| p.workload == workload)
}
