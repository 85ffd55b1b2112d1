//! Cross-crate integration tests: the full pipeline from synthetic genome and read
//! simulation through seeding, pre-alignment filtering on the simulated GPU, and
//! verification — the paper's whole-genome workflow end to end.

use gatekeeper_gpu::core::{EncodingActor, FilterConfig, GateKeeperCpu, GateKeeperGpu};
use gatekeeper_gpu::filters::{GateKeeperFilter, PreAlignmentFilter, SneakySnakeFilter};
use gatekeeper_gpu::gpusim::DeviceSpec;
use gatekeeper_gpu::mapper::{MapperConfig, PreFilter, ReadMapper};
use gatekeeper_gpu::seq::datasets::DatasetProfile;
use gatekeeper_gpu::seq::reference::ReferenceBuilder;
use gatekeeper_gpu::seq::simulate::{ErrorProfile, ReadSimulator};

fn demo_reference() -> gatekeeper_gpu::seq::Reference {
    ReferenceBuilder::new(120_000)
        .seed(99)
        .repeat_fraction(0.3)
        .n_gaps(1, 400)
        .build()
}

#[test]
fn full_pipeline_maps_simulated_reads_and_filtering_preserves_results() {
    let reference = demo_reference();
    let reads: Vec<_> = ReadSimulator::new(100, ErrorProfile::illumina())
        .seed(3)
        .simulate(&reference, 200)
        .iter()
        .map(|r| r.to_fastq())
        .collect();
    let mapper = ReadMapper::new(reference, MapperConfig::new(3));

    let unfiltered = mapper.map_reads(&reads, &PreFilter::None);
    let gpu = GateKeeperGpu::with_default_device(FilterConfig::new(100, 3));
    let filtered = mapper.map_reads(&reads, &PreFilter::Gpu(gpu));

    // The filter must be transparent to the mapping results (Table 3)…
    assert_eq!(unfiltered.stats.mappings, filtered.stats.mappings);
    assert_eq!(unfiltered.stats.mapped_reads, filtered.stats.mapped_reads);
    // …while removing a meaningful share of the verification workload.
    assert!(filtered.stats.rejected_pairs > 0);
    assert!(filtered.stats.verification_pairs < unfiltered.stats.verification_pairs);
    // Nearly every simulated read should map somewhere.
    assert!(filtered.stats.mapped_reads as usize >= reads.len() * 9 / 10);
}

#[test]
fn gpu_cpu_and_host_filter_agree_on_every_decision() {
    let pairs = DatasetProfile::set3().generate(2_000, 1234);
    let threshold = 5;

    let gpu_system = GateKeeperGpu::with_default_device(FilterConfig::new(100, threshold));
    let gpu_run = gpu_system.filter_set(&pairs);

    let cpu_run = GateKeeperCpu::new(threshold, 2).filter_set(&pairs);

    let host_filter = GateKeeperFilter::gpu(threshold);
    for ((pair, gpu_decision), cpu_decision) in pairs
        .pairs
        .iter()
        .zip(gpu_run.decisions.iter())
        .zip(cpu_run.decisions.iter())
    {
        let host_decision = host_filter.filter_pair(&pair.read, &pair.reference);
        assert_eq!(gpu_decision.accepted, host_decision.accepted);
        assert_eq!(cpu_decision.accepted, host_decision.accepted);
    }
}

#[test]
fn multi_gpu_matches_single_gpu_decisions_and_improves_kernel_time() {
    let pairs = DatasetProfile::set3().generate(3_000, 77);
    let config = FilterConfig::new(100, 2).with_encoding(EncodingActor::Host);

    let single = GateKeeperGpu::new(DeviceSpec::gtx_1080_ti(), config).filter_set(&pairs);
    let quad =
        GateKeeperGpu::with_devices(vec![DeviceSpec::gtx_1080_ti(); 4], config).filter_set(&pairs);

    assert_eq!(single.decisions, quad.decisions);
    assert!(quad.kernel_seconds() < single.kernel_seconds());
}

#[test]
fn setup2_is_slower_but_functionally_identical_to_setup1() {
    let pairs = DatasetProfile::set3().generate(1_500, 55);
    let config = FilterConfig::new(100, 5);
    let setup1 = GateKeeperGpu::new(DeviceSpec::gtx_1080_ti(), config).filter_set(&pairs);
    let setup2 = GateKeeperGpu::new(DeviceSpec::tesla_k20x(), config).filter_set(&pairs);
    assert_eq!(setup1.decisions, setup2.decisions);
    assert!(setup2.filter_seconds() > setup1.filter_seconds());
    assert!(setup2.memory_stats.page_faults > 0);
}

#[test]
fn alternative_host_filters_plug_into_the_mapper() {
    let reference = demo_reference();
    let reads: Vec<_> = ReadSimulator::new(100, ErrorProfile::illumina())
        .seed(8)
        .simulate(&reference, 80)
        .iter()
        .map(|r| r.to_fastq())
        .collect();
    let mapper = ReadMapper::new(reference, MapperConfig::new(2));
    let baseline = mapper.map_reads(&reads, &PreFilter::None);
    let snake = mapper.map_reads(
        &reads,
        &PreFilter::Host(Box::new(SneakySnakeFilter::new(2))),
    );
    assert_eq!(baseline.stats.mappings, snake.stats.mappings);
    assert!(snake.stats.verification_pairs <= baseline.stats.verification_pairs);
}
