//! Dataset-profile generators reproducing the paper's evaluation sets.
//!
//! The accuracy and throughput experiments of the paper run on twelve pair sets
//! ("Set 1" … "Set 12", Sup. Table S.1) seeded by mrFAST from 1000-Genomes reads at
//! three read lengths (100/150/250 bp), plus candidate sets extracted from Minimap2
//! and BWA-MEM. What matters for every reported number is the *edit-distance
//! profile* of the pair population (how many pairs lie below each threshold) and
//! the number of *undefined* (`N`-containing) pairs — not the literal genomic
//! sequences. This module therefore generates synthetic pair sets whose edit
//! profiles mimic each paper dataset:
//!
//! * low-edit profiles (Sets 1, 5, 9): candidates seeded with a small mapper
//!   threshold, so a meaningful fraction of pairs is within a few edits while the
//!   bulk is moderately divergent;
//! * high-edit profiles (Sets 4, 8, 12): candidates seeded with a huge threshold,
//!   so nearly everything is highly divergent;
//! * mapper-like profiles (Minimap2 / BWA-MEM): chaining/extension candidates with
//!   a higher fraction of near-matches.
//!
//! Generation is deterministic for a given seed, so tables regenerate identically.

use crate::pairs::{PairSet, SequencePair};
use crate::simulate::mutate_with_edits;
use crate::stream::PairBatches;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Distribution of planted edit counts across a pair population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EditDistribution {
    /// Every pair receives exactly this many edits.
    Constant(usize),
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Lower bound (inclusive).
        lo: usize,
        /// Upper bound (inclusive).
        hi: usize,
    },
    /// Geometric-like decay: `P(k) ∝ (1 - p)^k` truncated at `max`.
    Geometric {
        /// Success probability (larger means edits concentrate near zero).
        p: f64,
        /// Truncation bound.
        max: usize,
    },
    /// Weighted mixture of component distributions.
    Mixture(Vec<(f64, EditDistribution)>),
}

impl EditDistribution {
    /// Samples one edit count.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        match self {
            EditDistribution::Constant(k) => *k,
            EditDistribution::Uniform { lo, hi } => {
                if lo >= hi {
                    *lo
                } else {
                    rng.gen_range(*lo..=*hi)
                }
            }
            EditDistribution::Geometric { p, max } => {
                let p = p.clamp(1e-6, 1.0 - 1e-6);
                let mut k = 0usize;
                while k < *max && !rng.gen_bool(p) {
                    k += 1;
                }
                k
            }
            EditDistribution::Mixture(components) => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                let mut roll = rng.gen::<f64>() * total;
                for (w, dist) in components {
                    if roll < *w {
                        return dist.sample(rng);
                    }
                    roll -= w;
                }
                components.last().map(|(_, d)| d.sample(rng)).unwrap_or(0)
            }
        }
    }
}

/// Full description of a synthetic dataset mirroring one of the paper's sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Dataset name (e.g. `"Set 3"`).
    pub name: String,
    /// Read length in bases.
    pub read_len: usize,
    /// Fraction of pairs that contain an `N` base (the paper's "undefined pairs").
    pub undefined_fraction: f64,
    /// Distribution of planted edit counts.
    pub edit_distribution: EditDistribution,
    /// Fraction of planted edits that are indels rather than substitutions.
    pub indel_fraction: f64,
}

impl DatasetProfile {
    /// Generic low-edit candidate profile for a given read length: a visible mass of
    /// near-matches (the mapper seeded with a small threshold) on top of a broad
    /// divergent background.
    pub fn low_edit(read_len: usize) -> DatasetProfile {
        DatasetProfile {
            name: format!("low-edit {read_len}bp"),
            read_len,
            undefined_fraction: 0.001,
            edit_distribution: EditDistribution::Mixture(vec![
                (0.004, EditDistribution::Constant(0)),
                (
                    0.06,
                    EditDistribution::Geometric {
                        p: 0.35,
                        max: read_len / 10 + 2,
                    },
                ),
                (
                    0.936,
                    EditDistribution::Uniform {
                        lo: read_len / 25 + 1,
                        hi: read_len / 3,
                    },
                ),
            ]),
            indel_fraction: 0.25,
        }
    }

    /// Generic high-edit candidate profile: nearly every pair is far beyond any
    /// usable threshold (mapper seeded with a huge threshold such as e = 40 for
    /// 100 bp reads).
    pub fn high_edit(read_len: usize) -> DatasetProfile {
        DatasetProfile {
            name: format!("high-edit {read_len}bp"),
            read_len,
            undefined_fraction: 0.001,
            edit_distribution: EditDistribution::Mixture(vec![
                (0.0005, EditDistribution::Constant(0)),
                (
                    0.01,
                    EditDistribution::Uniform {
                        lo: 1,
                        hi: read_len / 10,
                    },
                ),
                (
                    0.9895,
                    EditDistribution::Uniform {
                        lo: read_len / 8,
                        hi: read_len / 2,
                    },
                ),
            ]),
            indel_fraction: 0.3,
        }
    }

    /// Set 1 of the paper: 100 bp, mrFAST e = 2, low-edit profile, 28,009 undefined
    /// pairs out of 30 M (≈ 0.093%).
    pub fn set1() -> DatasetProfile {
        let mut p = Self::low_edit(100);
        p.name = "Set 1".into();
        p.undefined_fraction = 28_009.0 / 30_000_000.0;
        p
    }

    /// Set 3: 100 bp, mrFAST e = 5 (throughput + accuracy-vs-Edlib set).
    pub fn set3() -> DatasetProfile {
        let mut p = Self::low_edit(100);
        p.name = "Set 3".into();
        p.undefined_fraction = 92_414.0 / 30_000_000.0;
        p
    }

    /// Set 4: 100 bp, mrFAST e = 40, high-edit profile.
    pub fn set4() -> DatasetProfile {
        let mut p = Self::high_edit(100);
        p.name = "Set 4".into();
        p.undefined_fraction = 31_487.0 / 30_000_000.0;
        p
    }

    /// Set 5: 150 bp, mrFAST e = 4, low-edit profile.
    pub fn set5() -> DatasetProfile {
        let mut p = Self::low_edit(150);
        p.name = "Set 5".into();
        p.undefined_fraction = 30_142.0 / 30_000_000.0;
        p
    }

    /// Set 6: 150 bp, mrFAST e = 6 (accuracy-vs-Edlib set).
    pub fn set6() -> DatasetProfile {
        let mut p = Self::low_edit(150);
        p.name = "Set 6".into();
        p.undefined_fraction = 15_141.0 / 30_000_000.0;
        p
    }

    /// Set 7: 150 bp, mrFAST e = 10, high-edit profile (throughput set).
    pub fn set7() -> DatasetProfile {
        let mut p = Self::high_edit(150);
        p.name = "Set 7".into();
        p.undefined_fraction = 329.0 / 30_000_000.0;
        p
    }

    /// Set 8: 150 bp, mrFAST e = 70, high-edit profile.
    pub fn set8() -> DatasetProfile {
        let mut p = Self::high_edit(150);
        p.name = "Set 8".into();
        p.undefined_fraction = 309.0 / 30_000_000.0;
        p
    }

    /// Set 9: 250 bp, mrFAST e = 8, low-edit profile.
    pub fn set9() -> DatasetProfile {
        let mut p = Self::low_edit(250);
        p.name = "Set 9".into();
        p.undefined_fraction = 35_072.0 / 30_000_000.0;
        p
    }

    /// Set 10: 250 bp, mrFAST e = 12 (accuracy-vs-Edlib set).
    pub fn set10() -> DatasetProfile {
        let mut p = Self::low_edit(250);
        p.name = "Set 10".into();
        p.undefined_fraction = 379_292.0 / 30_000_000.0;
        p
    }

    /// Set 11: 250 bp, mrFAST e = 15, high-edit profile (throughput set).
    pub fn set11() -> DatasetProfile {
        let mut p = Self::high_edit(250);
        p.name = "Set 11".into();
        p.undefined_fraction = 1_273_260.0 / 30_000_000.0;
        p
    }

    /// Set 12: 250 bp, mrFAST e = 100, high-edit profile.
    pub fn set12() -> DatasetProfile {
        let mut p = Self::high_edit(250);
        p.name = "Set 12".into();
        p.undefined_fraction = 4_763_682.0 / 30_000_000.0;
        p
    }

    /// Minimap2-like candidate profile (pairs extracted before the first chaining
    /// DP): a larger fraction of true near-matches than mrFAST's exhaustive seeding.
    pub fn minimap2_like() -> DatasetProfile {
        DatasetProfile {
            name: "Minimap2 candidates".into(),
            read_len: 100,
            undefined_fraction: 26_759.0 / 30_000_000.0,
            edit_distribution: EditDistribution::Mixture(vec![
                (0.027, EditDistribution::Constant(0)),
                (0.07, EditDistribution::Geometric { p: 0.25, max: 12 }),
                (0.903, EditDistribution::Uniform { lo: 5, hi: 35 }),
            ]),
            indel_fraction: 0.25,
        }
    }

    /// BWA-MEM-like candidate profile (pairs extracted before the final global
    /// alignment): small sets dominated by true matches.
    pub fn bwa_mem_like() -> DatasetProfile {
        DatasetProfile {
            name: "BWA-MEM candidates".into(),
            read_len: 100,
            undefined_fraction: 0.0,
            edit_distribution: EditDistribution::Mixture(vec![
                (0.6, EditDistribution::Geometric { p: 0.5, max: 10 }),
                (0.4, EditDistribution::Uniform { lo: 3, hi: 25 }),
            ]),
            indel_fraction: 0.2,
        }
    }

    /// Generates the next pair of an RNG-driven sequence. Consuming pairs one by
    /// one from the same seeded RNG is exactly what [`DatasetProfile::generate`]
    /// does internally, which is why the streaming source in [`crate::stream`]
    /// yields byte-identical pairs without materializing the whole set.
    pub fn generate_pair(&self, rng: &mut StdRng) -> SequencePair {
        let reference: Vec<u8> = (0..self.read_len)
            .map(|_| b"ACGT"[rng.gen_range(0..4)])
            .collect();
        let edits = self.edit_distribution.sample(rng);
        let mut read = mutate_with_edits(&reference, edits, self.indel_fraction, rng);
        if rng.gen_bool(self.undefined_fraction.clamp(0.0, 1.0)) {
            let pos = rng.gen_range(0..read.len().max(1));
            read[pos] = b'N';
        }
        SequencePair::new(read, reference)
    }

    /// Generates `count` pairs under this profile. Deterministic for a given seed.
    pub fn generate(&self, count: usize, seed: u64) -> PairSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            pairs.push(self.generate_pair(&mut rng));
        }
        PairSet::new(self.name.clone(), self.read_len, pairs)
    }

    /// Streams `count` pairs in batches of `batch_pairs` without ever holding
    /// more than one batch in memory; concatenating the batches reproduces
    /// [`DatasetProfile::generate`] with the same seed byte for byte.
    pub fn stream_batches(&self, count: usize, seed: u64, batch_pairs: usize) -> PairBatches {
        PairBatches::new(self.clone(), count, seed, batch_pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let profile = DatasetProfile::set1();
        let a = profile.generate(500, 42);
        let b = profile.generate(500, 42);
        let c = profile.generate(500, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_pairs_have_requested_read_length() {
        for profile in [
            DatasetProfile::set3(),
            DatasetProfile::set7(),
            DatasetProfile::set11(),
        ] {
            let set = profile.generate(200, 1);
            assert_eq!(set.len(), 200);
            assert!(set.pairs.iter().all(|p| p.read.len() == profile.read_len));
            assert!(set
                .pairs
                .iter()
                .all(|p| p.reference.len() == profile.read_len));
        }
    }

    #[test]
    fn low_edit_profile_has_more_near_matches_than_high_edit() {
        let low = DatasetProfile::low_edit(100).generate(3_000, 7);
        let high = DatasetProfile::high_edit(100).generate(3_000, 7);
        let near = |set: &PairSet| {
            set.pairs
                .iter()
                .filter(|p| {
                    p.read
                        .iter()
                        .zip(p.reference.iter())
                        .filter(|(a, b)| a != b)
                        .count()
                        <= 5
                })
                .count()
        };
        assert!(near(&low) > near(&high));
    }

    #[test]
    fn undefined_fraction_is_roughly_respected() {
        let mut profile = DatasetProfile::low_edit(100);
        profile.undefined_fraction = 0.05;
        let set = profile.generate(5_000, 3);
        let undefined = set.undefined_count();
        assert!(
            undefined > 100 && undefined < 500,
            "undefined = {undefined}"
        );
    }

    #[test]
    fn zero_undefined_fraction_gives_no_undefined_pairs() {
        let mut profile = DatasetProfile::high_edit(150);
        profile.undefined_fraction = 0.0;
        assert_eq!(profile.generate(1_000, 4).undefined_count(), 0);
    }

    #[test]
    fn geometric_distribution_is_truncated() {
        let dist = EditDistribution::Geometric { p: 0.01, max: 5 };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            assert!(dist.sample(&mut rng) <= 5);
        }
    }

    #[test]
    fn uniform_distribution_respects_bounds() {
        let dist = EditDistribution::Uniform { lo: 3, hi: 7 };
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..200 {
            let k = dist.sample(&mut rng);
            assert!((3..=7).contains(&k));
        }
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let dist = EditDistribution::Uniform { lo: 4, hi: 4 };
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(dist.sample(&mut rng), 4);
    }

    #[test]
    fn mixture_samples_from_components() {
        let dist = EditDistribution::Mixture(vec![
            (0.5, EditDistribution::Constant(1)),
            (0.5, EditDistribution::Constant(9)),
        ]);
        let mut rng = StdRng::seed_from_u64(12);
        let samples: Vec<usize> = (0..300).map(|_| dist.sample(&mut rng)).collect();
        assert!(samples.contains(&1));
        assert!(samples.contains(&9));
        assert!(samples.iter().all(|&k| k == 1 || k == 9));
    }

    #[test]
    fn all_paper_sets_have_expected_read_lengths() {
        let sets = [
            DatasetProfile::set1(),
            DatasetProfile::set3(),
            DatasetProfile::set4(),
            DatasetProfile::set5(),
            DatasetProfile::set6(),
            DatasetProfile::set7(),
            DatasetProfile::set8(),
            DatasetProfile::set9(),
            DatasetProfile::set10(),
            DatasetProfile::set11(),
            DatasetProfile::set12(),
        ];
        let lens: Vec<usize> = sets.iter().map(|p| p.read_len).collect();
        assert_eq!(lens.iter().filter(|&&l| l == 100).count(), 3);
        assert_eq!(lens.iter().filter(|&&l| l == 150).count(), 4);
        assert_eq!(lens.iter().filter(|&&l| l == 250).count(), 4);
    }

    #[test]
    fn mapper_like_profiles_generate() {
        assert_eq!(DatasetProfile::minimap2_like().generate(100, 5).len(), 100);
        assert_eq!(DatasetProfile::bwa_mem_like().generate(100, 5).len(), 100);
    }
}
