//! Score optimizers: transformations of the raw similarity matrix that
//! produce more accurate pairwise scores before matching (paper §3, the
//! CSLS / RInf / Sinkhorn family).

pub mod csls;
pub mod rinf;
pub mod sinkhorn;

use entmatcher_linalg::Matrix;

/// A transformation of the pairwise score matrix. Implementations must be
/// deterministic and keep the "higher is better" convention.
pub trait ScoreOptimizer: Send + Sync {
    /// Short name used in reports (e.g. `"CSLS"`).
    fn name(&self) -> &'static str;

    /// Transforms the score matrix.
    fn apply(&self, scores: Matrix) -> Matrix;

    /// Estimated peak auxiliary heap bytes for an `n_s x n_t` input,
    /// feeding the paper's Figure 5 memory accounting. The baseline
    /// (input + output live simultaneously where applicable) is counted by
    /// the caller; this reports *extra* allocations.
    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize;

    /// What this optimizer computes, stated so the pipeline planner can
    /// run it on the fused route, from score tiles that are never stored.
    /// `None` (the default) keeps the job on the dense route.
    fn fused(&self) -> Option<FusedScores> {
        None
    }
}

/// An optimizer output the fused kernels can produce without the
/// `n_s x n_t` score matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedScores {
    /// The raw similarity scores (DInf).
    Raw,
    /// `2s - phi_s - phi_t`, where phi is the mean of an entity's top-`k`
    /// scores against the other side (CSLS).
    Csls {
        /// Neighbourhood size.
        k: usize,
    },
}

/// The identity optimizer: raw similarity scores straight to the matcher
/// (the DInf configuration).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOp;

impl ScoreOptimizer for NoOp {
    fn name(&self) -> &'static str {
        "none"
    }

    fn apply(&self, scores: Matrix) -> Matrix {
        scores
    }

    fn aux_bytes(&self, _n_s: usize, _n_t: usize) -> usize {
        0
    }

    fn fused(&self) -> Option<FusedScores> {
        Some(FusedScores::Raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_identity() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let out = NoOp.apply(m.clone());
        assert_eq!(out, m);
        assert_eq!(NoOp.aux_bytes(100, 100), 0);
        assert_eq!(NoOp.name(), "none");
    }
}
