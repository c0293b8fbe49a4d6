//! Matchers: algorithms that turn a pairwise score matrix into aligned
//! entity pairs (the second half of embedding matching, paper §3).

pub mod greedy;
pub mod hungarian;
pub mod multi;
pub mod rl;
pub mod stable;

use entmatcher_linalg::Matrix;

/// Optional structural context some matchers exploit. Indices refer to
/// *candidate positions* (rows/columns of the score matrix), not global
/// entity ids — the caller maps between the two.
#[derive(Debug, Clone, Default)]
pub struct MatchContext {
    /// For each source candidate, the source candidates adjacent to it in
    /// the source KG (used by the RL matcher's coherence reward).
    pub source_adj: Option<Vec<Vec<u32>>>,
    /// For each target candidate, its adjacent target candidates.
    pub target_adj: Option<Vec<Vec<u32>>>,
}

/// Result of a matching run: for every source candidate, the chosen target
/// candidate (or `None` when the matcher abstains — e.g. a Hungarian
/// assignment to a dummy column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    assignment: Vec<Option<u32>>,
}

impl Matching {
    /// Wraps an assignment vector.
    pub fn new(assignment: Vec<Option<u32>>) -> Self {
        Matching { assignment }
    }

    /// Per-source-candidate decisions.
    pub fn assignment(&self) -> &[Option<u32>] {
        &self.assignment
    }

    /// Number of source candidates.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether no candidates were processed.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Iterates over `(source_idx, target_idx)` for matched candidates.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (i, t as usize)))
    }

    /// Number of matched (non-abstaining) candidates.
    pub fn matched_count(&self) -> usize {
        self.assignment.iter().filter(|t| t.is_some()).count()
    }

    /// Whether no target is assigned to two different sources.
    pub fn is_injective(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.assignment.iter().flatten().all(|t| seen.insert(*t))
    }
}

/// A matching algorithm over a pairwise score matrix (higher = better).
pub trait Matcher: Send + Sync {
    /// Short name used in reports (e.g. `"Greedy"`, `"Hungarian"`).
    fn name(&self) -> &'static str;

    /// Computes the matching for `scores` (`n_s x n_t`).
    fn run(&self, scores: &Matrix, ctx: &MatchContext) -> Matching;

    /// Estimated peak auxiliary heap bytes for an `n_s x n_t` instance
    /// (Figure 5 memory accounting).
    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize;

    /// The decision rule this matcher applies, stated so the pipeline
    /// planner can run it on the fused route. `None` (the default) keeps
    /// the job on the dense route.
    fn fused(&self) -> Option<FusedDecision> {
        None
    }
}

/// A matcher decision the fused kernels can make without the score
/// matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedDecision {
    /// Each source takes its highest-scoring target; the first index wins
    /// ties and NaN never wins (Greedy).
    RowArgmax,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_helpers() {
        let m = Matching::new(vec![Some(2), None, Some(0)]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.matched_count(), 2);
        assert!(m.is_injective());
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs, vec![(0, 2), (2, 0)]);
    }

    #[test]
    fn injectivity_detects_duplicates() {
        let m = Matching::new(vec![Some(1), Some(1)]);
        assert!(!m.is_injective());
        let empty = Matching::new(vec![]);
        assert!(empty.is_empty() && empty.is_injective());
    }
}
