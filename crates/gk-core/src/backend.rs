//! Filter execution backends behind one trait — the registry the service
//! layer (`gk-serve`) and any future scheduler dispatch through.
//!
//! The paper evaluates each filter as one pre-planned offline pass; the
//! ROADMAP north-star is a daemon serving many tenants, which needs the
//! execution substrates (multicore SIMD lanes, the simulated GPU pipeline,
//! the topology-aware multi-GPU scheduler) interchangeable at request time.
//! [`FilterBackend`] is that seam: a backend takes a [`FilterJob`] — filter
//! kind, edit threshold, read-pair slice — and returns per-pair
//! [`FilterDecision`]s in input order. [`BackendRegistry`] holds named
//! backends the way `IP-Hacker` fans one query across provider modules
//! behind its `IpCheck` trait.
//!
//! # Example
//!
//! ```
//! use gk_core::backend::{BackendRegistry, FilterJob, FilterKind};
//! use gk_seq::pairs::SequencePair;
//!
//! let registry = BackendRegistry::standard(2);
//! let backend = registry.get("cpu-simd").expect("standard backend");
//! let pairs = vec![
//!     SequencePair::new(&b"ACGTACGT"[..], &b"ACGTACGT"[..]),
//!     SequencePair::new(&b"ACGTACGT"[..], &b"TGCATGCA"[..]),
//! ];
//! let decisions = backend.run(&FilterJob::new(FilterKind::GateKeeper, 2, &pairs));
//! assert!(decisions[0].accepted);
//! assert!(!decisions[1].accepted);
//! ```

use crate::config::FilterConfig;
use crate::gpu::GateKeeperGpu;
use crate::multi_gpu::MultiGpuGateKeeper;
use gk_filters::gatekeeper::GateKeeperConfig;
use gk_filters::simd::{SimdMode, LANE_BLOCK_PAIRS};
use gk_filters::traits::FilterDecision;
use gk_filters::{
    gatekeeper_filter_block, magnet_filter_block, shouji_filter_block, sneaky_snake_filter_block,
};
use gk_gpusim::device::DeviceSpec;
use gk_gpusim::topology::TopologyKind;
use gk_seq::pairs::SequencePair;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard};

/// Which pre-alignment filter a request wants.
///
/// This is the service-facing name of the four lane-widened filters; it
/// travels over the wire as a one-byte code (see [`FilterKind::code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// The improved GateKeeper of this paper (leading/trailing-bit fix, §3.4).
    GateKeeper,
    /// MAGNET (Alser et al. 2017): greedy longest-zero-segment extraction.
    Magnet,
    /// Shouji (Alser et al. 2019): sliding-window neighborhood map.
    Shouji,
    /// SneakySnake (Alser et al. 2020): single-net-routing greedy lower bound.
    SneakySnake,
}

impl FilterKind {
    /// Every filter kind, in wire-code order.
    pub const ALL: [FilterKind; 4] = [
        FilterKind::GateKeeper,
        FilterKind::Magnet,
        FilterKind::Shouji,
        FilterKind::SneakySnake,
    ];

    /// Stable one-byte wire code (`gk-seq::frame` request framing).
    pub fn code(self) -> u8 {
        match self {
            FilterKind::GateKeeper => 0,
            FilterKind::Magnet => 1,
            FilterKind::Shouji => 2,
            FilterKind::SneakySnake => 3,
        }
    }

    /// Inverse of [`FilterKind::code`].
    pub fn from_code(code: u8) -> Option<FilterKind> {
        FilterKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Short label for flags, tables and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            FilterKind::GateKeeper => "gatekeeper",
            FilterKind::Magnet => "magnet",
            FilterKind::Shouji => "shouji",
            FilterKind::SneakySnake => "sneaky-snake",
        }
    }
}

impl std::fmt::Display for FilterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FilterKind {
    type Err = String;

    fn from_str(s: &str) -> Result<FilterKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "gatekeeper" | "gk" => Ok(FilterKind::GateKeeper),
            "magnet" => Ok(FilterKind::Magnet),
            "shouji" => Ok(FilterKind::Shouji),
            "sneaky-snake" | "sneakysnake" | "ss" => Ok(FilterKind::SneakySnake),
            other => Err(format!(
                "unknown filter kind {other:?} (expected gatekeeper, magnet, shouji or sneaky-snake)"
            )),
        }
    }
}

/// One unit of backend work: a contiguous block of pairs, all filtered with
/// the same kind and threshold (the batcher's coalescing key).
#[derive(Debug, Clone, Copy)]
pub struct FilterJob<'a> {
    /// Which filter to run.
    pub kind: FilterKind,
    /// Edit-distance threshold `e`.
    pub threshold: u32,
    /// Nominal read length, used by the simulated-device backends to size
    /// batches and the timing model. Derived from the first pair by
    /// [`FilterJob::new`]; override with [`FilterJob::with_read_len`] for
    /// intentionally ragged jobs.
    pub read_len: usize,
    /// The pairs to filter, decisions returned in this order.
    pub pairs: &'a [SequencePair],
}

impl<'a> FilterJob<'a> {
    /// Builds a job, deriving `read_len` from the first pair (0 if empty).
    pub fn new(kind: FilterKind, threshold: u32, pairs: &'a [SequencePair]) -> FilterJob<'a> {
        let read_len = pairs.first().map(|p| p.read_len()).unwrap_or(0);
        FilterJob {
            kind,
            threshold,
            read_len,
            pairs,
        }
    }

    /// Overrides the nominal read length.
    pub fn with_read_len(mut self, read_len: usize) -> FilterJob<'a> {
        self.read_len = read_len;
        self
    }
}

/// A filter execution substrate the service layer can dispatch to.
///
/// Implementations must be deterministic: the same job yields the same
/// decision vector (this is what the service-equivalence suite digests), and
/// decisions must be positionally independent so the dynamic batcher can
/// split and concatenate jobs freely.
pub trait FilterBackend: Send + Sync {
    /// Registry name (`cpu-simd`, `gpu-sim`, `multi-gpu`).
    fn name(&self) -> &str;

    /// Filters every pair of the job, returning decisions in input order.
    fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision>;
}

/// Recovers a poisoned cache mutex: the caches below hold only constructed
/// filter instances (no partial state), so the data is valid even if a
/// panicking thread held the lock.
fn lock_cache<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn run_cpu_block(
    job: &FilterJob<'_>,
    block: &[SequencePair],
    mode: SimdMode,
) -> Vec<FilterDecision> {
    match job.kind {
        FilterKind::GateKeeper => {
            gatekeeper_filter_block(block, &GateKeeperConfig::gpu(job.threshold), mode)
        }
        FilterKind::Magnet => magnet_filter_block(block, job.threshold, mode),
        FilterKind::Shouji => shouji_filter_block(block, job.threshold, mode),
        FilterKind::SneakySnake => sneaky_snake_filter_block(block, job.threshold, mode),
    }
}

/// Multicore SIMD-lane backend: all four filters on the 4-lane
/// struct-of-arrays kernels over the shared work-stealing pool.
pub struct CpuSimdBackend {
    /// `None` runs on the caller's current pool (the fallback when a
    /// dedicated pool cannot be built — real rayon's builder can fail on
    /// resource exhaustion even though the shim's never does).
    pool: Option<Arc<rayon::ThreadPool>>,
    mode: SimdMode,
}

impl CpuSimdBackend {
    /// Builds a backend with its own `threads`-wide pool.
    pub fn new(threads: usize) -> CpuSimdBackend {
        match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            Ok(pool) => CpuSimdBackend::with_pool(Arc::new(pool)),
            Err(_) => CpuSimdBackend {
                pool: None,
                mode: SimdMode::Auto.resolve(),
            },
        }
    }

    /// Builds a backend over an existing shared pool.
    pub fn with_pool(pool: Arc<rayon::ThreadPool>) -> CpuSimdBackend {
        CpuSimdBackend {
            pool: Some(pool),
            mode: SimdMode::Auto.resolve(),
        }
    }

    /// Overrides the SIMD mode (resolved once here, like the filter structs).
    pub fn with_simd_mode(mut self, mode: SimdMode) -> CpuSimdBackend {
        self.mode = mode.resolve();
        self
    }
}

impl FilterBackend for CpuSimdBackend {
    fn name(&self) -> &str {
        "cpu-simd"
    }

    fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
        use rayon::prelude::*;
        let mode = self.mode;
        let filter = || {
            job.pairs
                .par_chunks(LANE_BLOCK_PAIRS)
                .flat_map(|block| run_cpu_block(job, block, mode))
                .collect()
        };
        match &self.pool {
            Some(pool) => pool.install(filter),
            None => filter(),
        }
    }
}

/// Simulated-GPU backend: GateKeeper runs the chunked, stream-overlapped
/// device pipeline ([`GateKeeperGpu`]); the other filters, which have no
/// device implementation in the paper, fall back to the CPU lane path.
pub struct GpuSimBackend {
    device: DeviceSpec,
    instances: Mutex<HashMap<(usize, u32), Arc<GateKeeperGpu>>>,
    fallback: CpuSimdBackend,
}

impl GpuSimBackend {
    /// Builds a backend over the paper's Setup 1 device (GTX 1080 Ti).
    pub fn new() -> GpuSimBackend {
        GpuSimBackend::with_device(DeviceSpec::gtx_1080_ti())
    }

    /// Builds a backend over an explicit device model.
    pub fn with_device(device: DeviceSpec) -> GpuSimBackend {
        GpuSimBackend {
            device,
            instances: Mutex::new(HashMap::new()),
            fallback: CpuSimdBackend::new(1),
        }
    }

    fn instance(&self, read_len: usize, threshold: u32) -> Arc<GateKeeperGpu> {
        let mut cache = lock_cache(&self.instances);
        cache
            .entry((read_len, threshold))
            .or_insert_with(|| {
                let config = FilterConfig::new(read_len, threshold);
                Arc::new(GateKeeperGpu::new(self.device.clone(), config))
            })
            .clone()
    }
}

impl Default for GpuSimBackend {
    fn default() -> GpuSimBackend {
        GpuSimBackend::new()
    }
}

impl FilterBackend for GpuSimBackend {
    fn name(&self) -> &str {
        "gpu-sim"
    }

    fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
        match job.kind {
            FilterKind::GateKeeper => {
                let gpu = self.instance(job.read_len.max(1), job.threshold);
                gpu.filter_chunks(std::iter::once(job.pairs)).decisions
            }
            _ => self.fallback.run(job),
        }
    }
}

/// Topology-aware multi-GPU backend: GateKeeper sharded across several
/// simulated devices with the PR 8 contention-aware scheduler; non-GateKeeper
/// kinds fall back to the CPU lane path as on [`GpuSimBackend`].
pub struct MultiGpuBackend {
    device: DeviceSpec,
    device_count: usize,
    topology: TopologyKind,
    instances: Mutex<HashMap<(usize, u32), Arc<MultiGpuGateKeeper>>>,
    fallback: CpuSimdBackend,
}

impl MultiGpuBackend {
    /// Builds a backend over `device_count` copies of the Setup 1 device on a
    /// shared-root topology (the contended case the aware scheduler wins).
    pub fn new(device_count: usize) -> MultiGpuBackend {
        MultiGpuBackend::with_device(
            DeviceSpec::gtx_1080_ti(),
            device_count,
            TopologyKind::SharedRoot,
        )
    }

    /// Builds a backend over an explicit device model and topology.
    pub fn with_device(
        device: DeviceSpec,
        device_count: usize,
        topology: TopologyKind,
    ) -> MultiGpuBackend {
        MultiGpuBackend {
            device,
            device_count: device_count.max(1),
            topology,
            instances: Mutex::new(HashMap::new()),
            fallback: CpuSimdBackend::new(1),
        }
    }

    fn instance(&self, read_len: usize, threshold: u32) -> Arc<MultiGpuGateKeeper> {
        let mut cache = lock_cache(&self.instances);
        cache
            .entry((read_len, threshold))
            .or_insert_with(|| {
                let config = FilterConfig::new(read_len, threshold)
                    .with_topology(self.topology)
                    .with_topology_aware(true);
                Arc::new(MultiGpuGateKeeper::new(
                    self.device.clone(),
                    self.device_count,
                    config,
                ))
            })
            .clone()
    }
}

impl FilterBackend for MultiGpuBackend {
    fn name(&self) -> &str {
        "multi-gpu"
    }

    fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
        match job.kind {
            FilterKind::GateKeeper => {
                let multi = self.instance(job.read_len.max(1), job.threshold);
                multi
                    .run_schedule(&multi.schedule(job.pairs.len()), job.pairs)
                    .decisions
            }
            _ => self.fallback.run(job),
        }
    }
}

/// Named collection of filter backends, the service's dispatch table.
#[derive(Default)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn FilterBackend>>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> BackendRegistry {
        BackendRegistry::default()
    }

    /// The three standard backends — `cpu-simd` (over a `threads`-wide pool),
    /// `gpu-sim` (Setup 1 device) and `multi-gpu` (4 × Setup 1, shared root,
    /// topology-aware).
    pub fn standard(threads: usize) -> BackendRegistry {
        let mut registry = BackendRegistry::new();
        registry.register(Arc::new(CpuSimdBackend::new(threads)));
        registry.register(Arc::new(GpuSimBackend::new()));
        registry.register(Arc::new(MultiGpuBackend::new(4)));
        registry
    }

    /// Adds (or replaces, by name) a backend.
    pub fn register(&mut self, backend: Arc<dyn FilterBackend>) {
        self.backends.retain(|b| b.name() != backend.name());
        self.backends.push(backend);
    }

    /// Looks a backend up by registry name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn FilterBackend>> {
        self.backends.iter().find(|b| b.name() == name).cloned()
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.backends.iter().map(|b| b.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_filters::traits::decision_digest;
    use gk_seq::datasets::DatasetProfile;
    use gk_seq::pairs::PairSet;

    fn sample_pairs(count: usize) -> Vec<SequencePair> {
        DatasetProfile::set3().generate(count, 0x5e12_7a01).pairs
    }

    #[test]
    fn filter_kind_codes_round_trip() {
        for kind in FilterKind::ALL {
            assert_eq!(FilterKind::from_code(kind.code()), Some(kind));
            assert_eq!(kind.as_str().parse::<FilterKind>(), Ok(kind));
        }
        assert_eq!(FilterKind::from_code(17), None);
        assert!("nope".parse::<FilterKind>().is_err());
    }

    #[test]
    fn registry_lookup_and_replace() {
        let registry = BackendRegistry::standard(1);
        assert_eq!(registry.names(), vec!["cpu-simd", "gpu-sim", "multi-gpu"]);
        assert!(registry.get("cpu-simd").is_some());
        assert!(registry.get("fpga").is_none());
    }

    #[test]
    fn backends_agree_on_every_filter_kind() {
        let pairs = sample_pairs(700);
        let registry = BackendRegistry::standard(2);
        for kind in FilterKind::ALL {
            let job = FilterJob::new(kind, 3, &pairs);
            let digests: Vec<u64> = ["cpu-simd", "gpu-sim", "multi-gpu"]
                .iter()
                .map(|name| {
                    let backend = registry.get(name).expect("standard backend");
                    let decisions = backend.run(&job);
                    assert_eq!(decisions.len(), pairs.len());
                    decision_digest(&decisions)
                })
                .collect();
            assert_eq!(digests[0], digests[1], "{kind}: cpu vs gpu-sim");
            assert_eq!(digests[0], digests[2], "{kind}: cpu vs multi-gpu");
        }
    }

    #[test]
    fn gpu_backend_matches_direct_filter_set() {
        let pairs = sample_pairs(600);
        let backend = GpuSimBackend::new();
        let job = FilterJob::new(FilterKind::GateKeeper, 2, &pairs);
        let via_backend = backend.run(&job);

        let config = FilterConfig::new(job.read_len, 2);
        let gpu = GateKeeperGpu::with_default_device(config);
        let direct = gpu
            .filter_set(&PairSet::new("direct", job.read_len, pairs.clone()))
            .decisions;
        assert_eq!(decision_digest(&via_backend), decision_digest(&direct));
    }

    #[test]
    fn split_jobs_concatenate_to_the_whole() {
        let pairs = sample_pairs(500);
        let backend = CpuSimdBackend::new(2);
        let whole = backend.run(&FilterJob::new(FilterKind::Shouji, 4, &pairs));
        let mut stitched = Vec::new();
        for part in pairs.chunks(170) {
            stitched.extend(backend.run(&FilterJob::new(FilterKind::Shouji, 4, part)));
        }
        assert_eq!(decision_digest(&whole), decision_digest(&stitched));
    }
}
