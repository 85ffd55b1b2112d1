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
//!
//! An unknown flag, or a flag whose value is missing or does not parse, is
//! an error: the binary prints it with the flag reference and exits 2.

use gk_gpusim::topology::TopologyKind;
use std::fmt::Display;
use std::str::FromStr;

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
    /// flag reference and exits; a bad flag prints the error and the
    /// reference and exits 2.
    pub fn parse() -> HarnessArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", HarnessArgs::usage());
            std::process::exit(0);
        }
        match HarnessArgs::parse_from(args) {
            Ok(parsed) => parsed,
            Err(err) => {
                eprintln!("error: {err}\n\n{}", HarnessArgs::usage());
                std::process::exit(2);
            }
        }
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

    /// Parses from an explicit argument list (used in tests). An unknown
    /// flag, or a flag whose value is missing or does not parse, is an error.
    pub fn parse_from(args: Vec<String>) -> Result<HarnessArgs, String> {
        let mut parsed = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--pairs" => parsed.pairs = Some(flag_value(&arg, iter.next())?),
                "--reads" => parsed.reads = Some(flag_value(&arg, iter.next())?),
                "--genome" => parsed.genome = Some(flag_value(&arg, iter.next())?),
                "--chunk" => parsed.chunk = Some(flag_value(&arg, iter.next())?),
                "--topology" => parsed.topology = Some(flag_value(&arg, iter.next())?),
                "--aware" => parsed.aware = true,
                "--serialized" => parsed.serialized = true,
                "--device-encode" => parsed.device_encode = true,
                "--scalar" => parsed.scalar = true,
                "--full" => parsed.full = true,
                "--mapper-profiles" => parsed.mapper_profiles = true,
                "--extra-sets" => parsed.extra_sets = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(parsed)
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

/// Parses the value that follows `flag`: an error names the flag when the
/// value is missing, and the flag and the value when it does not parse.
pub fn flag_value<T>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|err| format!("{flag} `{value}`: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let err = parse(&["--bogus", "--reads", "7"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert_eq!(parse(&["--reads", "7"]).unwrap().reads(1), 7);
    }

    #[test]
    fn malformed_and_missing_values_are_rejected() {
        for args in [
            &["--pairs", "abc"][..],
            &["--pairs", "1e6"],
            &["--reads", "-3"],
            &["--chunk"],
            &["--genome"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(args[0]), "{args:?}: {err}");
        }
    }

    #[test]
    fn genome_has_a_floor() {
        let args = parse(&["--genome", "5"]).unwrap();
        assert_eq!(args.genome(1_000_000), 10_000);
    }

    #[test]
    fn flags_are_detected() {
        let args = parse(&[
            "--mapper-profiles",
            "--extra-sets",
            "--full",
            "--serialized",
            "--device-encode",
            "--scalar",
        ])
        .unwrap();
        assert!(args.mapper_profiles && args.extra_sets && args.full && args.serialized);
        assert!(args.device_encode);
        assert!(args.scalar);
        assert!(!parse(&[]).unwrap().device_encode);
        assert!(!parse(&[]).unwrap().scalar);
    }

    #[test]
    fn scalar_flag_selects_the_simd_mode() {
        use gk_filters::SimdMode;
        let scalar = parse(&["--scalar"]).unwrap();
        assert_eq!(scalar.simd_mode(), SimdMode::Scalar);
        assert_eq!(parse(&[]).unwrap().simd_mode(), SimdMode::Auto);
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
        let shared = parse(&["--topology", "shared"]).unwrap();
        assert_eq!(shared.topology(), TopologyKind::SharedRoot);
        let switch = parse(&["--topology", "switch:2"]).unwrap();
        assert_eq!(switch.topology(), TopologyKind::Switch { fanout: 2 });
        // The default is private links; a malformed value is an error.
        assert_eq!(parse(&[]).unwrap().topology(), TopologyKind::Independent);
        assert!(parse(&["--topology", "bogus"]).is_err());
        assert!(parse(&["--topology"]).is_err());
        let aware = parse(&["--aware"]).unwrap();
        assert!(aware.aware);
    }

    #[test]
    fn chunk_parses_with_auto_default() {
        let args = parse(&["--chunk", "250000"]).unwrap();
        assert_eq!(args.chunk(0), 250_000);
        assert_eq!(parse(&[]).unwrap().chunk(0), 0);
    }
}
