//! Cross-crate accuracy invariants: the qualitative ordering of Figure 5 and the
//! zero-false-reject property of §5.1, checked on freshly generated datasets.

use gatekeeper_gpu::filters::accuracy::{
    evaluate_with_truth, ground_truth_distances, UndefinedPolicy,
};
use gatekeeper_gpu::filters::{GateKeeperFilter, ShoujiFilter, SneakySnakeFilter};
use gatekeeper_gpu::seq::datasets::DatasetProfile;

#[test]
fn accuracy_ordering_matches_the_paper_on_low_edit_100bp() {
    let pairs = DatasetProfile::set1().generate(6_000, 2024);
    let truth = ground_truth_distances(&pairs);
    let e = 4;

    let gpu = evaluate_with_truth(
        &GateKeeperFilter::gpu(e),
        &pairs,
        &truth,
        UndefinedPolicy::CountAsAccepted,
    );
    let fpga = evaluate_with_truth(
        &GateKeeperFilter::fpga(e),
        &pairs,
        &truth,
        UndefinedPolicy::CountAsAccepted,
    );
    let shd = evaluate_with_truth(
        &GateKeeperFilter::shd(e),
        &pairs,
        &truth,
        UndefinedPolicy::CountAsAccepted,
    );
    let shouji = evaluate_with_truth(
        &ShoujiFilter::new(e),
        &pairs,
        &truth,
        UndefinedPolicy::CountAsAccepted,
    );
    let snake = evaluate_with_truth(
        &SneakySnakeFilter::new(e),
        &pairs,
        &truth,
        UndefinedPolicy::CountAsAccepted,
    );

    // Figure 5 ordering: SneakySnake ≤ Shouji ≤ GateKeeper-GPU ≤ GateKeeper-FPGA = SHD.
    assert!(snake.false_accepts <= shouji.false_accepts);
    assert!(shouji.false_accepts <= gpu.false_accepts);
    assert!(gpu.false_accepts <= fpga.false_accepts);
    assert_eq!(fpga.false_accepts, shd.false_accepts);

    // §5.1.1: GateKeeper-GPU, the GateKeeper family and SneakySnake never false-reject.
    assert_eq!(gpu.false_rejects, 0);
    assert_eq!(fpga.false_rejects, 0);
    assert_eq!(snake.false_rejects, 0);
}

#[test]
fn gatekeeper_gpu_never_false_rejects_across_read_lengths_and_thresholds() {
    for (profile, thresholds) in [
        (DatasetProfile::set3(), vec![0u32, 2, 5, 10]),
        (DatasetProfile::set6(), vec![0, 4, 9, 15]),
        (DatasetProfile::set10(), vec![0, 5, 12, 25]),
    ] {
        let pairs = profile.generate(2_500, 31);
        let truth = ground_truth_distances(&pairs);
        for &e in &thresholds {
            let report = evaluate_with_truth(
                &GateKeeperFilter::gpu(e),
                &pairs,
                &truth,
                UndefinedPolicy::Exclude,
            );
            assert_eq!(
                report.false_rejects, 0,
                "false rejects at {}bp, e = {e}",
                pairs.read_len
            );
        }
    }
}

#[test]
fn true_reject_rate_is_high_at_small_thresholds_and_decays_with_e() {
    let pairs = DatasetProfile::set3().generate(6_000, 404);
    let truth = ground_truth_distances(&pairs);
    let mut last_rate: f64 = 1.1;
    let mut rates = Vec::new();
    for e in [1u32, 3, 5, 8, 10] {
        let report = evaluate_with_truth(
            &GateKeeperFilter::gpu(e),
            &pairs,
            &truth,
            UndefinedPolicy::Exclude,
        );
        rates.push(report.true_reject_rate());
        last_rate = last_rate.min(report.true_reject_rate());
    }
    // §5.1.1 observation 1: >90% of mappings are correctly rejected at small e.
    assert!(rates[0] > 0.9, "true reject rate at e=1 was {}", rates[0]);
    // Observation 2: the efficiency decreases as e grows, without collapsing to zero.
    assert!(rates.last().unwrap() < &rates[0]);
    assert!(last_rate > 0.01, "rate collapsed: {rates:?}");
}

#[test]
fn high_edit_profiles_are_rejected_almost_entirely_at_low_thresholds() {
    let pairs = DatasetProfile::set4().generate(4_000, 17);
    let truth = ground_truth_distances(&pairs);
    let report = evaluate_with_truth(
        &GateKeeperFilter::gpu(2),
        &pairs,
        &truth,
        UndefinedPolicy::Exclude,
    );
    assert!(report.true_reject_rate() > 0.95);
    assert_eq!(report.false_rejects, 0);
}
