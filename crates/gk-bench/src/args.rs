//! Minimal command-line argument handling for the harness binaries.
//!
//! Every binary accepts the same small set of flags so the experiments can be
//! scaled up towards the paper's full 30-million-pair / whole-genome sizes when
//! more time is available:
//!
//! * `--pairs N` — number of pairs per dataset (default varies per experiment);
//! * `--reads N` — number of reads for mapper experiments;
//! * `--genome N` — synthetic reference length for mapper experiments;
//! * `--chunk N` — pipeline chunk size in pairs (0 = auto);
//! * `--serialized` — disable stream overlap (three stages run back to back);
//! * `--device-encode` — use the device-side encoding execution path (raw
//!   1-byte-per-base uploads + fused encode+filter kernel) instead of host
//!   `encode_pair_batch`;
//! * `--scalar` — force the per-bit scalar reference kernels on the CPU rows
//!   (same effect as `GK_SIMD=scalar`, but per invocation);
//! * `--topology KIND` — interconnect wiring for multi-GPU runs
//!   (`private`, `shared`, `switch[:N]`, `nvlink`);
//! * `--aware` — turn on the topology-aware multi-GPU scheduler;
//! * `--full` — run the complete sweep instead of the representative subset;
//! * `--mapper-profiles` / `--extra-sets` — experiment-specific extensions;
//! * `--help` / `-h` — print the flag reference and exit.

use gk_gpusim::topology::TopologyKind;

/// Parsed harness arguments.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    pairs: Option<usize>,
    reads: Option<usize>,
    genome: Option<usize>,
    chunk: Option<usize>,
    topology: Option<TopologyKind>,
    /// Turn the topology-aware multi-GPU scheduler on (weighted shares,
    /// per-device encoding actor, contention-sized chunks).
    pub aware: bool,
    /// Run the full sweep rather than the representative subset.
    pub full: bool,
    /// Disable stream overlap in the GPU batch pipeline.
    pub serialized: bool,
    /// Use the device-side encoding execution path: upload raw reads and let
    /// the fused kernel do the 2-bit packing (no host `encode_pair_batch`).
    pub device_encode: bool,
    /// Force the per-bit scalar reference kernels instead of the lane-parallel
    /// SIMD path (the throughput baseline; decisions are byte-identical).
    pub scalar: bool,
    /// Include the Minimap2/BWA-MEM candidate profiles (Figure S.5/S.6).
    pub mapper_profiles: bool,
    /// Include the additional real-set rows of Table S.26.
    pub extra_sets: bool,
}

impl HarnessArgs {
    /// Parses from the process arguments. `--help` / `-h` prints the shared
    /// flag reference and exits.
    pub fn parse() -> HarnessArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", HarnessArgs::usage());
            std::process::exit(0);
        }
        HarnessArgs::parse_from(args)
    }

    /// The shared flag reference printed by `--help`.
    pub fn usage() -> &'static str {
        "Shared harness flags (every gk-bench binary):\n\
         \n\
         \x20 --pairs N          number of pairs per dataset (default varies per experiment)\n\
         \x20 --reads N          number of reads for mapper experiments\n\
         \x20 --genome N         synthetic reference length for mapper experiments\n\
         \x20 --chunk N          pipeline chunk size in pairs (0 = auto-size)\n\
         \x20 --serialized       disable stream overlap (stages run back to back)\n\
         \x20 --device-encode    device-side encoding path: upload raw reads, 2-bit pack\n\
         \x20                    inside the fused encode+filter kernel (~4x H2D bytes,\n\
         \x20                    zero host encode time); default is host encoding\n\
         \x20 --scalar           force the per-bit scalar reference kernels on the CPU\n\
         \x20                    rows (same as GK_SIMD=scalar; decisions are identical)\n\
         \x20 --topology KIND    interconnect wiring for multi-GPU runs:\n\
         \x20                    private (default), shared, switch[:N], nvlink\n\
         \x20 --aware            topology-aware multi-GPU scheduler (weighted shares,\n\
         \x20                    per-device encoding actor, contention-sized chunks)\n\
         \x20 --full             run the complete sweep / paper-sized input\n\
         \x20 --mapper-profiles  include the Minimap2/BWA-MEM candidate profiles\n\
         \x20 --extra-sets       include the additional real-set rows\n\
         \x20 --help, -h         print this reference and exit\n\
         \n\
         streaming_scale example (1M-pair smoke, both encode paths):\n\
         \x20 cargo run --release -p gk-bench --bin streaming_scale -- \\\n\
         \x20     --pairs 1000000 --device-encode"
    }

    /// Parses from an explicit argument list (used in tests).
    pub fn parse_from(args: Vec<String>) -> HarnessArgs {
        let mut parsed = HarnessArgs::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--pairs" => parsed.pairs = iter.next().and_then(|v| v.parse().ok()),
                "--reads" => parsed.reads = iter.next().and_then(|v| v.parse().ok()),
                "--genome" => parsed.genome = iter.next().and_then(|v| v.parse().ok()),
                "--chunk" => parsed.chunk = iter.next().and_then(|v| v.parse().ok()),
                "--topology" => match iter.next().map(|v| v.parse::<TopologyKind>()) {
                    Some(Ok(kind)) => parsed.topology = Some(kind),
                    Some(Err(err)) => eprintln!("warning: {err}"),
                    None => eprintln!("warning: --topology needs a value"),
                },
                "--aware" => parsed.aware = true,
                "--serialized" => parsed.serialized = true,
                "--device-encode" => parsed.device_encode = true,
                "--scalar" => parsed.scalar = true,
                "--full" => parsed.full = true,
                "--mapper-profiles" => parsed.mapper_profiles = true,
                "--extra-sets" => parsed.extra_sets = true,
                other => eprintln!("warning: ignoring unknown argument `{other}`"),
            }
        }
        parsed
    }

    /// Number of pairs to generate, defaulting to `default`.
    pub fn pairs(&self, default: usize) -> usize {
        self.pairs.unwrap_or(default).max(1)
    }

    /// Number of reads to simulate, defaulting to `default`.
    pub fn reads(&self, default: usize) -> usize {
        self.reads.unwrap_or(default).max(1)
    }

    /// Synthetic genome length, defaulting to `default`.
    pub fn genome(&self, default: usize) -> usize {
        self.genome.unwrap_or(default).max(10_000)
    }

    /// Pipeline chunk size in pairs, defaulting to `default` (0 = auto-size).
    pub fn chunk(&self, default: usize) -> usize {
        self.chunk.unwrap_or(default)
    }

    /// The interconnect topology for multi-GPU runs, defaulting to private
    /// links (the paper's implicit assumption).
    pub fn topology(&self) -> TopologyKind {
        self.topology.unwrap_or_default()
    }

    /// SIMD mode for the CPU harness rows: the per-bit scalar reference with
    /// `--scalar`, otherwise `Auto` (which consults the `GK_SIMD` environment
    /// variable and defaults to the lane path).
    pub fn simd_mode(&self) -> gk_filters::SimdMode {
        if self.scalar {
            gk_filters::SimdMode::Scalar
        } else {
            gk_filters::SimdMode::Auto
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_arguments_are_ignored() {
        let args = HarnessArgs::parse_from(vec!["--bogus".into(), "--reads".into(), "7".into()]);
        assert_eq!(args.reads(1), 7);
    }

    #[test]
    fn malformed_numbers_fall_back_to_defaults() {
        let args = HarnessArgs::parse_from(vec!["--pairs".into(), "abc".into()]);
        assert_eq!(args.pairs(99), 99);
    }

    #[test]
    fn genome_has_a_floor() {
        let args = HarnessArgs::parse_from(vec!["--genome".into(), "5".into()]);
        assert_eq!(args.genome(1_000_000), 10_000);
    }

    #[test]
    fn flags_are_detected() {
        let args = HarnessArgs::parse_from(vec![
            "--mapper-profiles".into(),
            "--extra-sets".into(),
            "--full".into(),
            "--serialized".into(),
            "--device-encode".into(),
            "--scalar".into(),
        ]);
        assert!(args.mapper_profiles && args.extra_sets && args.full && args.serialized);
        assert!(args.device_encode);
        assert!(args.scalar);
        assert!(!HarnessArgs::parse_from(vec![]).device_encode);
        assert!(!HarnessArgs::parse_from(vec![]).scalar);
    }

    #[test]
    fn scalar_flag_selects_the_simd_mode() {
        use gk_filters::SimdMode;
        let scalar = HarnessArgs::parse_from(vec!["--scalar".into()]);
        assert_eq!(scalar.simd_mode(), SimdMode::Scalar);
        assert_eq!(HarnessArgs::parse_from(vec![]).simd_mode(), SimdMode::Auto);
    }

    #[test]
    fn usage_mentions_every_flag() {
        let usage = HarnessArgs::usage();
        for flag in [
            "--pairs",
            "--reads",
            "--genome",
            "--chunk",
            "--serialized",
            "--device-encode",
            "--scalar",
            "--topology",
            "--aware",
            "--full",
            "--mapper-profiles",
            "--extra-sets",
            "--help",
        ] {
            assert!(usage.contains(flag), "usage is missing {flag}");
        }
    }

    #[test]
    fn topology_flag_parses_every_spelling() {
        let shared = HarnessArgs::parse_from(vec!["--topology".into(), "shared".into()]);
        assert_eq!(shared.topology(), TopologyKind::SharedRoot);
        let switch = HarnessArgs::parse_from(vec!["--topology".into(), "switch:2".into()]);
        assert_eq!(switch.topology(), TopologyKind::Switch { fanout: 2 });
        // Default and malformed values fall back to private links.
        assert_eq!(
            HarnessArgs::parse_from(vec![]).topology(),
            TopologyKind::Independent
        );
        let bad = HarnessArgs::parse_from(vec!["--topology".into(), "bogus".into()]);
        assert_eq!(bad.topology(), TopologyKind::Independent);
        assert!(!bad.aware);
        let aware = HarnessArgs::parse_from(vec!["--aware".into()]);
        assert!(aware.aware);
    }

    #[test]
    fn chunk_parses_with_auto_default() {
        let args = HarnessArgs::parse_from(vec!["--chunk".into(), "250000".into()]);
        assert_eq!(args.chunk(0), 250_000);
        assert_eq!(HarnessArgs::parse_from(vec![]).chunk(0), 0);
    }
}
