//! Candidate blocking via random-hyperplane LSH — the second half of the
//! scalability story (paper future direction 4).
//!
//! The pipeline's fused route ([`crate::Plan::Fused`]) removes the
//! quadratic *memory*; blocking removes the quadratic *time*: instead of
//! scoring every source against every target, each source is compared
//! only with targets sharing an LSH bucket in at least one of several
//! hash tables. Random-hyperplane signatures approximate cosine
//! similarity, so near-neighbours collide with high
//! probability while the bulk of the candidate space is never touched —
//! the same role blocking/filtering plays in the ER literature the paper
//! cites (Papadakis et al.).

use crate::matching::Matching;
use entmatcher_linalg::{dot, Matrix};
use std::collections::BTreeMap;

/// Random-hyperplane LSH blocker.
#[derive(Debug, Clone)]
pub struct LshBlocker {
    /// Signature bits per table (bucket count is `2^bits`).
    pub bits: usize,
    /// Independent hash tables; a pair is a candidate if it collides in
    /// *any* table (more tables = higher recall, more candidates).
    pub tables: usize,
    /// Seed for the hyperplane directions.
    pub seed: u64,
}

impl Default for LshBlocker {
    fn default() -> Self {
        LshBlocker {
            bits: 10,
            tables: 4,
            seed: 41,
        }
    }
}

impl LshBlocker {
    /// Generates the hyperplane normals: `tables * bits` rows of dimension
    /// `dim`, deterministic in the seed.
    fn hyperplanes(&self, dim: usize) -> Matrix {
        // SplitMix-based gaussian-ish values (sum of three uniforms),
        // avoiding a rand dependency in this hot path.
        let mut state = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) as f32 - 0.5
        };
        Matrix::from_fn(self.tables * self.bits, dim, |_, _| {
            next() + next() + next()
        })
    }

    /// Computes the per-table bucket keys of every row of `m`.
    fn signatures(&self, m: &Matrix, planes: &Matrix) -> Vec<Vec<u64>> {
        (0..m.rows())
            .map(|i| {
                let row = m.row(i);
                (0..self.tables)
                    .map(|t| {
                        let mut key = 0u64;
                        for b in 0..self.bits {
                            let plane = planes.row(t * self.bits + b);
                            key = (key << 1) | u64::from(dot(row, plane) >= 0.0);
                        }
                        key
                    })
                    .collect()
            })
            .collect()
    }

    /// Builds per-source candidate lists: all targets sharing at least one
    /// bucket. Lists are deduplicated and sorted.
    pub fn block(&self, source: &Matrix, target: &Matrix) -> Vec<Vec<u32>> {
        assert!(self.bits >= 1 && self.bits <= 32, "bits must be in 1..=32");
        assert!(self.tables >= 1, "at least one table required");
        assert_eq!(source.cols(), target.cols(), "embedding dims must match");
        let planes = self.hyperplanes(source.cols().max(1));
        let src_sigs = self.signatures(source, &planes);
        let tgt_sigs = self.signatures(target, &planes);
        // Invert target signatures into per-table bucket maps. BTreeMap
        // (not HashMap) so any iteration over buckets — now or in future
        // callers — visits keys in sorted order: candidate generation must
        // be bit-reproducible run-to-run under a fixed seed, and HashMap's
        // per-process iteration order would silently break that the first
        // time someone iterates a table.
        let mut buckets: Vec<BTreeMap<u64, Vec<u32>>> = vec![BTreeMap::new(); self.tables];
        for (j, sigs) in tgt_sigs.iter().enumerate() {
            for (t, &key) in sigs.iter().enumerate() {
                buckets[t].entry(key).or_default().push(j as u32);
            }
        }
        src_sigs
            .iter()
            .map(|sigs| {
                let mut cands: Vec<u32> = sigs
                    .iter()
                    .enumerate()
                    .filter_map(|(t, key)| buckets[t].get(key))
                    .flatten()
                    .copied()
                    .collect();
                cands.sort_unstable();
                cands.dedup();
                cands
            })
            .collect()
    }

    /// Greedy matching restricted to LSH candidates: each source takes its
    /// best-scoring blocked target (`None` when its buckets are empty).
    /// Time is O(total candidates * d) instead of O(n_s * n_t * d).
    pub fn blocked_greedy(&self, source: &Matrix, target: &Matrix) -> Matching {
        let blocks = self.block(source, target);
        let assignment = blocks
            .iter()
            .enumerate()
            .map(|(i, cands)| {
                let row = source.row(i);
                let mut best: Option<(u32, f32)> = None;
                for &j in cands {
                    let s = dot(row, target.row(j as usize));
                    if best.map(|(_, bs)| s > bs).unwrap_or(true) {
                        best = Some((j, s));
                    }
                }
                best.map(|(j, _)| j)
            })
            .collect();
        Matching::new(assignment)
    }

    /// Mean candidate-list length divided by `n_t` — the comparison-count
    /// reduction the blocker achieves (1.0 = no pruning).
    pub fn candidate_ratio(blocks: &[Vec<u32>], n_t: usize) -> f64 {
        if blocks.is_empty() || n_t == 0 {
            return 0.0;
        }
        let total: usize = blocks.iter().map(Vec::len).sum();
        total as f64 / (blocks.len() * n_t) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entmatcher_linalg::normalize_rows_l2;
    use entmatcher_support::rng::{Rng, SeedableRng, StdRng};

    /// Clustered embeddings: both sides share class centroids plus small
    /// per-side noise, mimicking unified EA embeddings.
    fn clustered_pair(n: usize, dim: usize, noise: f32, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centroids = Matrix::from_fn(n, dim, |_, _| rng.gen::<f32>() - 0.5);
        let perturb = |m: &Matrix, salt: u64| {
            let mut rng = StdRng::seed_from_u64(seed ^ salt);
            let mut out = m.clone();
            out.map_inplace(|v| v); // keep shape; add noise below
            for r in 0..out.rows() {
                for v in out.row_mut(r) {
                    *v += (rng.gen::<f32>() - 0.5) * noise;
                }
            }
            normalize_rows_l2(&mut out);
            out
        };
        (perturb(&centroids, 1), perturb(&centroids, 2))
    }

    #[test]
    fn near_duplicates_collide_and_match() {
        let (s, t) = clustered_pair(300, 32, 0.05, 7);
        let blocker = LshBlocker::default();
        let m = blocker.blocked_greedy(&s, &t);
        let correct = m
            .assignment()
            .iter()
            .enumerate()
            .filter(|(i, pick)| **pick == Some(*i as u32))
            .count();
        assert!(
            correct > 250,
            "blocked greedy should recover most identity matches: {correct}/300"
        );
    }

    #[test]
    fn blocking_prunes_most_comparisons() {
        let (s, t) = clustered_pair(500, 32, 0.05, 9);
        let blocker = LshBlocker {
            bits: 12,
            tables: 3,
            seed: 1,
        };
        let blocks = blocker.block(&s, &t);
        let ratio = LshBlocker::candidate_ratio(&blocks, t.rows());
        assert!(ratio < 0.2, "expected <20% of comparisons, got {ratio:.3}");
        // ...while keeping the true match in the candidate set usually.
        let mut hit = 0;
        for (i, cands) in blocks.iter().enumerate() {
            if cands.binary_search(&(i as u32)).is_ok() {
                hit += 1;
            }
        }
        assert!(hit > 400, "true matches should survive blocking: {hit}/500");
    }

    #[test]
    fn more_tables_increase_candidates() {
        let (s, t) = clustered_pair(200, 16, 0.2, 3);
        let few = LshBlocker {
            bits: 10,
            tables: 1,
            seed: 5,
        }
        .block(&s, &t);
        let many = LshBlocker {
            bits: 10,
            tables: 6,
            seed: 5,
        }
        .block(&s, &t);
        let count = |b: &[Vec<u32>]| b.iter().map(Vec::len).sum::<usize>();
        assert!(count(&many) > count(&few));
    }

    #[test]
    fn deterministic_given_seed() {
        let (s, t) = clustered_pair(100, 16, 0.1, 11);
        let blocker = LshBlocker::default();
        assert_eq!(blocker.block(&s, &t), blocker.block(&s, &t));
    }

    #[test]
    fn blocking_is_reproducible_across_instances() {
        // Two independently constructed blockers with the same knobs must
        // produce identical candidate sets AND identical downstream
        // matchings — the whole candidate path is a pure function of
        // (embeddings, bits, tables, seed).
        let (s, t) = clustered_pair(150, 16, 0.1, 13);
        let run = || {
            let blocker = LshBlocker {
                bits: 9,
                tables: 3,
                seed: 77,
            };
            (blocker.block(&s, &t), blocker.blocked_greedy(&s, &t))
        };
        let (blocks_a, match_a) = run();
        let (blocks_b, match_b) = run();
        assert_eq!(blocks_a, blocks_b);
        assert_eq!(match_a.assignment(), match_b.assignment());
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        let blocker = LshBlocker::default();
        let empty = Matrix::zeros(0, 8);
        let one = Matrix::from_fn(1, 8, |_, c| c as f32 + 1.0);

        // n == 0 on either or both sides.
        assert!(blocker.block(&empty, &empty).is_empty());
        assert!(blocker.block(&empty, &one).is_empty());
        assert_eq!(blocker.block(&one, &empty), vec![Vec::<u32>::new()]);

        // n == 1: the single pair either collides or abstains, no panic.
        let blocks = blocker.block(&one, &one);
        assert_eq!(blocks.len(), 1);
        let m = blocker.blocked_greedy(&one, &empty);
        assert_eq!(m.assignment(), &[None]);
    }

    #[test]
    fn empty_buckets_abstain() {
        // One-bit signatures with opposite vectors: source in one bucket,
        // target in the other -> no candidates.
        let s = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        let t = Matrix::from_vec(1, 2, vec![-1.0, -1.0]).unwrap();
        let blocker = LshBlocker {
            bits: 8,
            tables: 1,
            seed: 2,
        };
        let m = blocker.blocked_greedy(&s, &t);
        assert_eq!(m.assignment(), &[None]);
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn rejects_zero_bits() {
        let m = Matrix::zeros(1, 2);
        LshBlocker {
            bits: 0,
            tables: 1,
            seed: 0,
        }
        .block(&m, &m);
    }
}
