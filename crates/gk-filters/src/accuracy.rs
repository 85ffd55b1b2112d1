//! Accuracy evaluation harness: filters versus the Edlib-equivalent ground truth.
//!
//! The paper's accuracy methodology (§4.4) is reproduced exactly:
//!
//! * the ground truth for every pair is the global edit distance (our Myers
//!   bit-vector implementation, i.e. Edlib's algorithm) compared against the error
//!   threshold;
//! * a **false accept** is a pair the ground truth rejects but the filter accepts;
//! * a **false reject** is a pair the ground truth accepts but the filter rejects;
//! * a **true reject** is a pair both reject;
//! * *undefined* pairs (containing `N`) can either be excluded (the §5.1.1
//!   experiments) or force-counted as accepted on both sides (the §5.1.2
//!   comparison against other filters, which have no `N` handling).

use crate::traits::PreAlignmentFilter;
use gk_align::edit_distance;
use gk_seq::pairs::PairSet;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How undefined (`N`-containing) pairs are treated during evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UndefinedPolicy {
    /// Drop undefined pairs from the evaluation entirely (§5.1.1, "we exclude these
    /// pairs from the tests").
    Exclude,
    /// Treat undefined pairs as accepted by both the ground truth and the filter
    /// (§5.1.2, "we include these pairs in GateKeeper-GPU's results and mark these
    /// pairs as falsely accepted where necessary").
    CountAsAccepted,
}

/// Accuracy counters for one filter at one threshold over one dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Name of the evaluated filter.
    pub filter: String,
    /// Name of the dataset.
    pub dataset: String,
    /// Error threshold used for both the filter and the ground truth.
    pub threshold: u32,
    /// Pairs considered (after the undefined policy is applied).
    pub total_pairs: usize,
    /// Undefined pairs in the original dataset.
    pub undefined_pairs: usize,
    /// Pairs accepted by the ground truth (edit distance ≤ threshold).
    pub edlib_accepted: usize,
    /// Pairs rejected by the ground truth.
    pub edlib_rejected: usize,
    /// Pairs accepted by the filter.
    pub filter_accepted: usize,
    /// Pairs rejected by the filter.
    pub filter_rejected: usize,
    /// Ground truth rejects, filter accepts.
    pub false_accepts: usize,
    /// Ground truth accepts, filter rejects.
    pub false_rejects: usize,
    /// Both reject.
    pub true_rejects: usize,
    /// Both accept.
    pub true_accepts: usize,
}

impl AccuracyReport {
    /// False accept rate: false accepts over ground-truth rejects (the percentage
    /// plotted in Figure 4).
    pub fn false_accept_rate(&self) -> f64 {
        if self.edlib_rejected == 0 {
            0.0
        } else {
            self.false_accepts as f64 / self.edlib_rejected as f64
        }
    }

    /// True reject rate: correctly rejected pairs over ground-truth rejects.
    pub fn true_reject_rate(&self) -> f64 {
        if self.edlib_rejected == 0 {
            0.0
        } else {
            self.true_rejects as f64 / self.edlib_rejected as f64
        }
    }
}

/// Computes the ground-truth edit distance of every pair across the worker pool
/// (order-preserving, so the vector is identical to a sequential pass). Reusable
/// across filters and thresholds, which is how the benchmark harness amortises the
/// expensive exact computation.
pub fn ground_truth_distances(pairs: &PairSet) -> Vec<u32> {
    pairs
        .pairs
        .par_iter()
        .map(|p| edit_distance(&p.read, &p.reference))
        .collect()
}

/// Evaluates a filter against precomputed ground-truth distances.
pub fn evaluate_with_truth(
    filter: &dyn PreAlignmentFilter,
    pairs: &PairSet,
    truth: &[u32],
    policy: UndefinedPolicy,
) -> AccuracyReport {
    assert_eq!(
        pairs.len(),
        truth.len(),
        "ground truth length does not match the pair set"
    );
    let threshold = filter.threshold();

    #[derive(Default, Clone, Copy)]
    struct Counts {
        considered: usize,
        undefined: usize,
        edlib_accept: usize,
        filter_accept: usize,
        false_accept: usize,
        false_reject: usize,
        true_accept: usize,
        true_reject: usize,
    }

    let counts = pairs
        .pairs
        .par_iter()
        .zip(truth.par_iter())
        .map(|(pair, &distance)| {
            let mut c = Counts::default();
            let undefined = pair.is_undefined();
            if undefined {
                c.undefined = 1;
            }
            let (truth_accepts, filter_accepts) = match (undefined, policy) {
                (true, UndefinedPolicy::Exclude) => return c,
                (true, UndefinedPolicy::CountAsAccepted) => (true, true),
                (false, _) => {
                    let decision = filter.filter_pair(&pair.read, &pair.reference);
                    (distance <= threshold, decision.accepted)
                }
            };
            c.considered = 1;
            if truth_accepts {
                c.edlib_accept = 1;
            }
            if filter_accepts {
                c.filter_accept = 1;
            }
            match (truth_accepts, filter_accepts) {
                (true, true) => c.true_accept = 1,
                (true, false) => c.false_reject = 1,
                (false, true) => c.false_accept = 1,
                (false, false) => c.true_reject = 1,
            }
            c
        })
        .reduce(Counts::default, |a, b| Counts {
            considered: a.considered + b.considered,
            undefined: a.undefined + b.undefined,
            edlib_accept: a.edlib_accept + b.edlib_accept,
            filter_accept: a.filter_accept + b.filter_accept,
            false_accept: a.false_accept + b.false_accept,
            false_reject: a.false_reject + b.false_reject,
            true_accept: a.true_accept + b.true_accept,
            true_reject: a.true_reject + b.true_reject,
        });

    AccuracyReport {
        filter: filter.name().to_string(),
        dataset: pairs.name.clone(),
        threshold,
        total_pairs: counts.considered,
        undefined_pairs: counts.undefined,
        edlib_accepted: counts.edlib_accept,
        edlib_rejected: counts.considered - counts.edlib_accept,
        filter_accepted: counts.filter_accept,
        filter_rejected: counts.considered - counts.filter_accept,
        false_accepts: counts.false_accept,
        false_rejects: counts.false_reject,
        true_rejects: counts.true_reject,
        true_accepts: counts.true_accept,
    }
}

/// Evaluates a filter over a pair set, computing the ground truth on the fly.
pub fn evaluate_filter(
    filter: &dyn PreAlignmentFilter,
    pairs: &PairSet,
    policy: UndefinedPolicy,
) -> AccuracyReport {
    let truth = ground_truth_distances(pairs);
    evaluate_with_truth(filter, pairs, &truth, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatekeeper::GateKeeperFilter;
    use crate::sneaky_snake::SneakySnakeFilter;
    use gk_seq::datasets::DatasetProfile;

    fn small_set() -> PairSet {
        DatasetProfile::low_edit(100).generate(400, 77)
    }

    #[test]
    fn counters_are_internally_consistent() {
        let pairs = small_set();
        let filter = GateKeeperFilter::gpu(5);
        let report = evaluate_filter(&filter, &pairs, UndefinedPolicy::Exclude);
        assert_eq!(
            report.total_pairs,
            report.edlib_accepted + report.edlib_rejected
        );
        assert_eq!(
            report.total_pairs,
            report.filter_accepted + report.filter_rejected
        );
        assert_eq!(
            report.total_pairs,
            report.true_accepts + report.true_rejects + report.false_accepts + report.false_rejects
        );
    }

    #[test]
    fn gatekeeper_gpu_has_no_false_rejects() {
        let pairs = small_set();
        let truth = ground_truth_distances(&pairs);
        for e in [0u32, 2, 5] {
            let filter = GateKeeperFilter::gpu(e);
            let report = evaluate_with_truth(&filter, &pairs, &truth, UndefinedPolicy::Exclude);
            assert_eq!(report.false_rejects, 0, "e = {e}");
        }
    }

    #[test]
    fn gpu_filter_is_at_least_as_accurate_as_fpga() {
        let pairs = small_set();
        let truth = ground_truth_distances(&pairs);
        let gpu = evaluate_with_truth(
            &GateKeeperFilter::gpu(4),
            &pairs,
            &truth,
            UndefinedPolicy::CountAsAccepted,
        );
        let fpga = evaluate_with_truth(
            &GateKeeperFilter::fpga(4),
            &pairs,
            &truth,
            UndefinedPolicy::CountAsAccepted,
        );
        assert!(gpu.false_accepts <= fpga.false_accepts);
    }

    #[test]
    fn sneaky_snake_has_fewest_false_accepts() {
        let pairs = small_set();
        let truth = ground_truth_distances(&pairs);
        let snake = evaluate_with_truth(
            &SneakySnakeFilter::new(4),
            &pairs,
            &truth,
            UndefinedPolicy::Exclude,
        );
        let gpu = evaluate_with_truth(
            &GateKeeperFilter::gpu(4),
            &pairs,
            &truth,
            UndefinedPolicy::Exclude,
        );
        assert!(snake.false_accepts <= gpu.false_accepts);
        assert_eq!(snake.false_rejects, 0);
    }

    #[test]
    fn undefined_policy_changes_totals() {
        let mut profile = DatasetProfile::low_edit(100);
        profile.undefined_fraction = 0.1;
        let pairs = profile.generate(300, 5);
        let undefined = pairs.undefined_count();
        assert!(undefined > 0);
        let filter = GateKeeperFilter::gpu(3);
        let excluded = evaluate_filter(&filter, &pairs, UndefinedPolicy::Exclude);
        let included = evaluate_filter(&filter, &pairs, UndefinedPolicy::CountAsAccepted);
        assert_eq!(excluded.total_pairs, pairs.len() - undefined);
        assert_eq!(included.total_pairs, pairs.len());
        assert_eq!(included.undefined_pairs, undefined);
    }

    #[test]
    fn rates_are_in_unit_interval() {
        let pairs = small_set();
        let filter = GateKeeperFilter::gpu(2);
        let report = evaluate_filter(&filter, &pairs, UndefinedPolicy::Exclude);
        assert!((0.0..=1.0).contains(&report.false_accept_rate()));
        assert!((0.0..=1.0).contains(&report.true_reject_rate()));
        let sum = report.false_accept_rate() + report.true_reject_rate();
        assert!((sum - 1.0).abs() < 1e-9 || report.edlib_rejected == 0);
    }

    #[test]
    #[should_panic(expected = "ground truth length")]
    fn mismatched_truth_length_panics() {
        let pairs = small_set();
        let filter = GateKeeperFilter::gpu(2);
        evaluate_with_truth(&filter, &pairs, &[1, 2, 3], UndefinedPolicy::Exclude);
    }

    /// Satellite regression: every rate must stay a finite number — never a
    /// NaN that propagates into the accuracy tables — when a denominator is
    /// zero.
    #[test]
    fn rates_are_finite_on_empty_denominators() {
        // Fully empty dataset: every counter is zero.
        let empty = PairSet {
            name: "empty".to_string(),
            read_len: 0,
            pairs: Vec::new(),
        };
        let filter = GateKeeperFilter::gpu(3);
        let report = evaluate_filter(&filter, &empty, UndefinedPolicy::Exclude);
        assert_eq!(report.total_pairs, 0);
        for rate in [report.false_accept_rate(), report.true_reject_rate()] {
            assert!(rate.is_finite());
            assert_eq!(rate, 0.0);
        }

        // Identical pairs at a generous threshold: the ground truth rejects
        // nothing, so the reject-side denominators are zero.
        let pairs = DatasetProfile::low_edit(60).generate(50, 3);
        let report = evaluate_filter(&GateKeeperFilter::gpu(60), &pairs, UndefinedPolicy::Exclude);
        assert_eq!(report.edlib_rejected, 0);
        assert!(report.false_accept_rate().is_finite());
        assert!(report.true_reject_rate().is_finite());
    }
}
