//! Cross-domain similarity local scaling (CSLS), paper Algorithm 4.
//!
//! CSLS counteracts hubness and isolation in the embedding space by
//! rescaling each pairwise score with the mean of both endpoints' top-k
//! neighbourhood similarities:
//!
//! `CSLS(u, v) = 2 * S(u, v) - phi(u) - phi(v)`
//!
//! where `phi(u)` is the mean of `u`'s k highest scores against the other
//! side. Hubs (dense neighbourhoods, high phi) are damped; isolated points
//! are boosted.

use super::{FusedScores, ScoreOptimizer};
use entmatcher_linalg::parallel::{par_map_rows_grained, par_row_chunks_mut, Grain};
use entmatcher_linalg::rank::{col_top_k_means, top_k_mean};
use entmatcher_linalg::Matrix;
use entmatcher_support::telemetry;

/// CSLS score optimizer.
#[derive(Debug, Clone, Copy)]
pub struct Csls {
    /// Neighbourhood size `k` (paper Figure 6 sweeps 1..50; larger k
    /// flattens the correction).
    pub k: usize,
}

impl Default for Csls {
    fn default() -> Self {
        Csls { k: 10 }
    }
}

impl ScoreOptimizer for Csls {
    fn name(&self) -> &'static str {
        "CSLS"
    }

    fn apply(&self, mut scores: Matrix) -> Matrix {
        assert!(self.k >= 1, "CSLS requires k >= 1");
        let (n_s, n_t) = scores.shape();
        if n_s == 0 || n_t == 0 {
            return scores;
        }
        // phi_s: per-source mean of top-k scores (row-wise). Each item
        // scans a full n_t-wide row — hint that cost so few-source
        // instances still fan out.
        let phi_s: Vec<f32> = par_map_rows_grained(n_s, Grain::for_item_cost(n_t), |i| {
            top_k_mean(scores.row(i), self.k)
        });
        // phi_t: per-target mean of top-k scores (column-wise). Streamed
        // into per-column bounded heaps in parallel over column blocks —
        // no n_t x n_s transposed copy is allocated.
        let phi_t: Vec<f32> = col_top_k_means(&scores, self.k);
        telemetry::add("csls.neighborhoods", (n_s + n_t) as u64);

        let phi_s_ref = &phi_s;
        let phi_t_ref = &phi_t;
        par_row_chunks_mut(scores.as_mut_slice(), n_t, |start_row, chunk| {
            for (local, row) in chunk.chunks_exact_mut(n_t).enumerate() {
                let pu = phi_s_ref[start_row + local];
                for (v, x) in row.iter_mut().enumerate() {
                    *x = 2.0 * *x - pu - phi_t_ref[v];
                }
            }
        });
        scores
    }

    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
        // Per-column bounded heaps for the target-side pass, plus the two
        // phi vectors. Linear in n — the former n_s * n_t transposed copy
        // is gone (the column pass streams the matrix in place).
        n_t * self.k * 8 + (n_s + n_t) * 4
    }

    fn fused(&self) -> Option<FusedScores> {
        Some(FusedScores::Csls { k: self.k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entmatcher_linalg::argmax;

    #[test]
    fn matches_closed_form() {
        let s = Matrix::from_vec(2, 2, vec![0.9, 0.4, 0.5, 0.8]).unwrap();
        let out = Csls { k: 1 }.apply(s.clone());
        // k=1: phi_s = row max, phi_t = col max.
        let phi_s = [0.9f32, 0.8];
        let phi_t = [0.9f32, 0.8];
        for (i, pu) in phi_s.iter().enumerate() {
            for (j, pv) in phi_t.iter().enumerate() {
                let want = 2.0 * s.get(i, j) - pu - pv;
                assert!((out.get(i, j) - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn hub_columns_are_damped() {
        // Target 0 is a hub: high similarity to every source. Target 1 is
        // the true match of source 1 but slightly below the hub.
        let s = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.85, 0.85, 0.88, 0.2]).unwrap();
        // Greedy on raw scores sends source 1 to the hub (0.85 vs 0.85 tie
        // breaks to index 0).
        assert_eq!(argmax(s.row(1)), Some(0));
        let out = Csls { k: 2 }.apply(s);
        // After CSLS, the hub's column penalty flips the decision.
        assert_eq!(argmax(out.row(1)), Some(1));
    }

    #[test]
    fn k_larger_than_side_is_clamped() {
        let s = Matrix::from_vec(2, 2, vec![0.9, 0.4, 0.5, 0.8]).unwrap();
        let out = Csls { k: 100 }.apply(s.clone());
        // phi becomes full-row/col mean; finite output either way.
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_matrix_passthrough() {
        let s = Matrix::zeros(0, 0);
        let out = Csls::default().apply(s);
        assert!(out.is_empty());
    }

    #[test]
    fn aux_bytes_scales_linearly_not_quadratically() {
        // The column pass streams the score matrix in place, so the
        // auxiliary footprint grows linearly with n (it used to carry an
        // n x n transposed copy).
        let c = Csls::default();
        let small = c.aux_bytes(100, 100);
        let large = c.aux_bytes(1000, 1000);
        assert!(large > small, "still grows with n");
        assert!(
            large <= small * 11,
            "10x entities must not cost ~100x memory: {large} vs {small}"
        );
    }
}

/// Graph Interactive Divergence (GID, Li & Song, WWW 2022). The paper's
/// §3.3 observes that GID "in essence works in the same way as CSLS
/// according to its code implementation"; this type records that finding
/// in the API — it is CSLS under another name, and the equivalence is
/// asserted by test.
#[derive(Debug, Clone, Copy)]
pub struct Gid {
    /// Neighbourhood size, as in [`Csls`].
    pub k: usize,
}

impl Default for Gid {
    fn default() -> Self {
        Gid { k: 10 }
    }
}

impl ScoreOptimizer for Gid {
    fn name(&self) -> &'static str {
        "GID"
    }

    fn apply(&self, scores: Matrix) -> Matrix {
        Csls { k: self.k }.apply(scores)
    }

    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
        Csls { k: self.k }.aux_bytes(n_s, n_t)
    }
}

#[cfg(test)]
mod gid_tests {
    use super::*;

    #[test]
    fn gid_is_csls_by_another_name() {
        let s = Matrix::from_fn(6, 6, |r, c| ((r * 3 + c * 7) % 11) as f32 * 0.1);
        let a = Gid { k: 4 }.apply(s.clone());
        let b = Csls { k: 4 }.apply(s);
        assert_eq!(a, b);
        assert_eq!(Gid::default().aux_bytes(100, 100), Csls::default().aux_bytes(100, 100));
    }
}
