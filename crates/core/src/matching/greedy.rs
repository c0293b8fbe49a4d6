//! Greedy matching (paper Algorithm 2): every source candidate takes its
//! highest-scoring target, independently.

use super::{FusedDecision, MatchContext, Matcher, Matching};
use entmatcher_linalg::parallel::{par_map_rows_grained, Grain};
use entmatcher_linalg::{argmax, Matrix};

/// The baseline matcher: per-row argmax. Local-optimal, unidirectional,
/// no 1-to-1 constraint — several sources may share a target.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Matcher for Greedy {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn run(&self, scores: &Matrix, _ctx: &MatchContext) -> Matching {
        // Each pick scans one full n_t-wide row.
        let grain = Grain::for_item_cost(scores.cols());
        let picks: Vec<Option<u32>> = par_map_rows_grained(scores.rows(), grain, |i| {
            argmax(scores.row(i)).map(|j| j as u32)
        });
        Matching::new(picks)
    }

    fn aux_bytes(&self, n_s: usize, _n_t: usize) -> usize {
        n_s * std::mem::size_of::<Option<u32>>()
    }

    fn fused(&self) -> Option<FusedDecision> {
        Some(FusedDecision::RowArgmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_row_maxima() {
        let s = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.3, 0.8, 0.2, 0.7]).unwrap();
        let m = Greedy.run(&s, &MatchContext::default());
        assert_eq!(m.assignment(), &[Some(1), Some(0)]);
    }

    #[test]
    fn may_double_book_targets() {
        let s = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.8, 0.2]).unwrap();
        let m = Greedy.run(&s, &MatchContext::default());
        assert_eq!(m.assignment(), &[Some(0), Some(0)]);
        assert!(!m.is_injective());
    }

    #[test]
    fn empty_rows_abstain() {
        let s = Matrix::zeros(2, 0);
        let m = Greedy.run(&s, &MatchContext::default());
        assert_eq!(m.assignment(), &[None, None]);
    }
}
