//! The end-to-end embedding-matching pipeline (Algorithm 1's
//! `Embedding_Matching()`): similarity metric -> score optimizer ->
//! matcher, with wall-time and peak-auxiliary-memory instrumentation
//! feeding the paper's efficiency analyses (Figure 5, Tables 6–8).
//!
//! [`MatchPipeline::execute`] is a planner with two routes ([`Plan`]).
//! The dense route materializes the `n_s x n_t` score matrix and hands it
//! to the optimizer and the matcher; every job can take it. The fused
//! route streams score tiles through the fused kernels
//! (`entmatcher_linalg::fused`) and reduces each tile at once, so no
//! score matrix exists: O(n·(d + k)) memory instead of O(n²). It runs
//! DInf and CSLS + Greedy (cosine, exact candidates, no dummies) at every
//! precision, chosen through the optimizer's and the matcher's `fused`
//! hooks, and its decisions equal the dense route's bit for bit.
//!
//! Stage timings are recorded as telemetry spans (`pipeline` with
//! `similarity`/`optimize`/`match` children, plus a `pad` child under
//! `match` when the dummy protocol runs); the [`ExecutionReport`] fields
//! are derived from those same span measurements, so the report and an
//! exported trace always agree.

use crate::ann::{
    densify_fill, densify_shortlist, CandidateSource, IvfCandidates, IvfParams, LshCandidates,
};
use crate::blocking::LshBlocker;
use crate::dummy::pad_with_dummies;
use crate::matching::{FusedDecision, MatchContext, Matcher, Matching};
use crate::score::{FusedScores, ScoreOptimizer};
use crate::similarity::{similarity_matrix, SimilarityMetric};
use entmatcher_linalg::{
    fused_argmax_affine_packed, fused_topk_means_packed, matmul_blocked_packed, normalize_rows_l2,
    Matrix, PackedAny, Precision,
};
use entmatcher_support::telemetry;
use std::time::Duration;

/// How the pipeline generates the candidate scores the optimizer and
/// matcher consume.
#[derive(Debug, Clone)]
pub enum CandidateStrategy {
    /// Dense `n_s x n_t` similarity matrix — every pair scored. The
    /// default, and the only strategy for distance metrics.
    Exact,
    /// LSH blocking: only bucket-colliding pairs scored, rescored into a
    /// top-k shortlist per source.
    Lsh(LshBlocker),
    /// IVF-flat ANN index over the target side, probed per source.
    Ivf(IvfParams),
}

impl CandidateStrategy {
    /// Short name used in traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CandidateStrategy::Exact => "exact",
            CandidateStrategy::Lsh(_) => "lsh",
            CandidateStrategy::Ivf(_) => "ivf",
        }
    }
}

/// The route [`MatchPipeline::execute`] takes for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Materialize the `n_s x n_t` score matrix, then run the optimizer
    /// and the matcher on it.
    Dense,
    /// Stream score tiles through the fused kernels against the target
    /// packed once at the pipeline precision; no score matrix exists.
    Fused(FusedScores),
}

/// Target rows per phi_t pass on the fused route: bounds the unpacked
/// target block to `PHI_T_ROWS x d` floats.
const PHI_T_ROWS: usize = 256;

/// A composed matching pipeline.
pub struct MatchPipeline {
    /// Similarity metric deriving `S` from the embeddings.
    pub metric: SimilarityMetric,
    /// Score optimizer refining `S`.
    pub optimizer: Box<dyn ScoreOptimizer>,
    /// Matcher producing aligned pairs.
    pub matcher: Box<dyn Matcher>,
    /// Candidate generation strategy. Non-exact strategies replace the
    /// dense similarity pass with a per-source shortlist (cosine metric
    /// only — the ANN structures speak dot products); the shortlist is
    /// densified with a below-minimum fill so the downstream optimizer
    /// and matcher are unchanged.
    pub candidates: CandidateStrategy,
    /// Shortlist length per source for non-exact strategies.
    pub shortlist_k: usize,
    /// Whether to square the score matrix with dummy nodes before matching
    /// (the paper's unmatchable-setting protocol for Hun./SMat, §5.1).
    pub pad_dummies: bool,
    /// Score given to dummy cells when padding, as a quantile of the
    /// observed score distribution. For the Hungarian matcher the exact
    /// value is immaterial (the number of dummy assignments is fixed by
    /// the imbalance, so the dummy score is a constant offset of every
    /// solution); for Gale–Shapley it acts as an abstention threshold —
    /// a source proposes to a dummy once all targets scoring above the
    /// quantile have rejected it.
    pub dummy_quantile: f64,
    /// Storage precision for the target-side packed operand in the cosine
    /// similarity pass. At `F32` (default) nothing changes. At `F16`/`Int8`
    /// the exact-cosine pass packs the normalized target into quantized
    /// GEMM strips and scores through the dequantize-fused micro-kernels,
    /// and the IVF strategy stores its posting lists quantized — trading a
    /// bounded score perturbation (f16 exact-widening; int8 ±scale/2 per
    /// element) for 2x/4x smaller packed operands. Distance metrics and
    /// LSH rescoring stay f32 (their kernels are not packed products).
    pub precision: Precision,
}

/// What one route reports back to [`MatchPipeline::execute`].
struct Stages {
    matching: Matching,
    similarity_time: Duration,
    optimize_time: Duration,
    match_time: Duration,
    peak_aux_bytes: usize,
}

/// Outcome of one pipeline execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The matching decisions.
    pub matching: Matching,
    /// Wall-clock time of similarity + optimization + matching.
    pub elapsed: Duration,
    /// Time of the similarity stage: the raw score matrix on the dense
    /// route; normalizing and packing the operands on the fused route.
    pub similarity_time: Duration,
    /// Time spent in the score optimizer.
    pub optimize_time: Duration,
    /// Time spent in the matcher (including dummy padding).
    pub match_time: Duration,
    /// Estimated peak auxiliary heap bytes of the route that ran (dense:
    /// score matrix + per-stage overhead; fused: normalized copies, packed
    /// operands and top-k heaps), the basis of the Figure 5 memory
    /// comparison.
    pub peak_aux_bytes: usize,
    /// *Measured* peak live heap bytes over the whole pipeline span, from
    /// the counting allocator. 0 unless `ENTMATCHER_MEM` counting is on
    /// (and the running binary installs
    /// `entmatcher_support::alloc::CountingAlloc`); when present it is the
    /// ground truth the modeled `peak_aux_bytes` is validated against.
    pub measured_heap_peak_bytes: u64,
}

/// Estimates a quantile of the score distribution from a deterministic
/// sample (full sorting of an n^2 matrix would dominate the pipeline).
/// Non-finite scores are excluded — a single NaN would otherwise make the
/// `partial_cmp` sort order (and thus the returned quantile) arbitrary.
fn score_quantile(scores: &Matrix, q: f64) -> f32 {
    let data = scores.as_slice();
    let stride = (data.len() / 20_000).max(1);
    let mut sample: Vec<f32> = data
        .iter()
        .step_by(stride)
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(|a, b| a.partial_cmp(b).expect("non-finite scores filtered"));
    let idx = ((sample.len() - 1) as f64 * q).round() as usize;
    sample[idx]
}

impl MatchPipeline {
    /// Composes a pipeline.
    pub fn new(
        metric: SimilarityMetric,
        optimizer: Box<dyn ScoreOptimizer>,
        matcher: Box<dyn Matcher>,
    ) -> Self {
        MatchPipeline {
            metric,
            optimizer,
            matcher,
            candidates: CandidateStrategy::Exact,
            shortlist_k: 32,
            pad_dummies: false,
            dummy_quantile: 0.9,
            precision: Precision::F32,
        }
    }

    /// Selects a candidate-generation strategy and the per-source
    /// shortlist length it keeps.
    pub fn with_candidates(mut self, strategy: CandidateStrategy, shortlist_k: usize) -> Self {
        assert!(shortlist_k >= 1, "shortlist must keep at least one candidate");
        self.candidates = strategy;
        self.shortlist_k = shortlist_k;
        self
    }

    /// Selects the storage precision for packed similarity operands (see
    /// the [`MatchPipeline::precision`] field).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Enables dummy-node padding (see [`crate::dummy`]) with the given
    /// score quantile for dummy cells.
    pub fn with_dummies(mut self, dummy_quantile: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&dummy_quantile),
            "quantile out of range"
        );
        self.pad_dummies = true;
        self.dummy_quantile = dummy_quantile;
        self
    }

    /// Composite name, e.g. `"cosine+CSLS+Greedy"`; a non-f32 precision is
    /// appended as `"@f16"` / `"@int8"`.
    pub fn describe(&self) -> String {
        let base = format!(
            "{}+{}+{}",
            self.metric.name(),
            self.optimizer.name(),
            self.matcher.name()
        );
        match self.precision {
            Precision::F32 => base,
            p => format!("{base}@{}", p.name()),
        }
    }

    /// The similarity-stage score matrix under the configured candidate
    /// strategy. Exact (and any non-cosine metric, where the dot-product
    /// ANN structures don't apply) computes the dense matrix; LSH/IVF
    /// build a per-source shortlist on the row-normalized embeddings and
    /// densify it with a below-minimum fill, so non-candidates can never
    /// outrank a scored pair downstream.
    fn candidate_scores(&self, source: &Matrix, target: &Matrix) -> Matrix {
        let source_impl: Box<dyn CandidateSource> = match (&self.candidates, self.metric) {
            (CandidateStrategy::Exact, SimilarityMetric::Cosine)
                if self.precision != Precision::F32 =>
            {
                // Quantized dense cosine: pack the normalized target at the
                // reduced precision and run the dequantize-fused GEMM. The
                // packed operand (the O(n·d) term) shrinks by the element
                // width; the O(n²) score matrix is unchanged.
                let packed = PackedAny::pack(&normalized(target), self.precision);
                return matmul_blocked_packed(&normalized(source), &packed)
                    .expect("normalized copies share the embedding dimension");
            }
            (CandidateStrategy::Exact, _) | (_, SimilarityMetric::Euclidean)
            | (_, SimilarityMetric::Manhattan) => {
                return similarity_matrix(source, target, self.metric);
            }
            (CandidateStrategy::Lsh(blocker), SimilarityMetric::Cosine) => {
                Box::new(LshCandidates {
                    blocker: blocker.clone(),
                })
            }
            (CandidateStrategy::Ivf(params), SimilarityMetric::Cosine) => {
                // The pipeline precision overrides an unset (f32) param so
                // `--precision int8` reaches the posting lists without the
                // caller having to thread it into IvfParams by hand.
                let mut params = *params;
                if self.precision != Precision::F32 {
                    params.precision = self.precision;
                }
                Box::new(IvfCandidates { params })
            }
        };
        let shortlist =
            source_impl.shortlist(&normalized(source), &normalized(target), self.shortlist_k);
        telemetry::add(
            "pipeline.shortlist.candidates",
            shortlist.iter().map(|hits| hits.len() as u64).sum(),
        );
        densify_shortlist(&shortlist, target.rows(), densify_fill(&shortlist))
    }

    /// The route [`MatchPipeline::execute`] takes: fused when the metric
    /// is cosine, candidates are exact, no dummies pad the matrix, the
    /// optimizer has a [`FusedScores`] form and the matcher decides by
    /// row argmax — at every precision. Dense otherwise. The optimizer's
    /// and matcher's `fused` hooks decide, never their names.
    pub fn plan(&self) -> Plan {
        let fusable = self.metric == SimilarityMetric::Cosine
            && matches!(self.candidates, CandidateStrategy::Exact)
            && !self.pad_dummies
            && self.matcher.fused() == Some(FusedDecision::RowArgmax);
        match self.optimizer.fused() {
            Some(scores) if fusable => Plan::Fused(scores),
            _ => Plan::Dense,
        }
    }

    /// Runs the full pipeline on unified candidate embeddings
    /// (`n_s x d` source rows, `n_t x d` target rows) on the route
    /// [`MatchPipeline::plan`] picks.
    pub fn execute(&self, source: &Matrix, target: &Matrix, ctx: &MatchContext) -> ExecutionReport {
        let total_span = telemetry::span("pipeline");
        let stages = match self.plan() {
            Plan::Dense => self.run_dense(source, target, ctx),
            Plan::Fused(scores) => self.run_fused(source, target, scores),
        };
        // Read the measured peak before `finish()` consumes the guard; the
        // span record keeps the same value for exported traces.
        let measured_heap_peak_bytes = total_span.heap_live_peak();
        ExecutionReport {
            matching: stages.matching,
            elapsed: total_span.finish(),
            similarity_time: stages.similarity_time,
            optimize_time: stages.optimize_time,
            match_time: stages.match_time,
            peak_aux_bytes: stages.peak_aux_bytes,
            measured_heap_peak_bytes,
        }
    }

    /// The dense route: score matrix, optimizer, (padding,) matcher.
    fn run_dense(&self, source: &Matrix, target: &Matrix, ctx: &MatchContext) -> Stages {
        let (n_s, n_t) = (source.rows(), target.rows());
        let padding = self.pad_dummies && n_s != n_t;

        let mut sim_span = telemetry::span("similarity");
        let scores = self.candidate_scores(source, target);
        let sim_bytes = scores.heap_bytes();
        sim_span.add_bytes(sim_bytes as u64);
        let similarity_time = sim_span.finish();

        let mut opt_span = telemetry::span("optimize");
        let opt_bytes = self.optimizer.aux_bytes(n_s, n_t);
        opt_span.add_bytes(opt_bytes as u64);
        let scores = self.optimizer.apply(scores);
        let optimize_time = opt_span.finish();

        // With dummy padding the matcher runs on the padded n x n matrix,
        // so its memory estimate must use the padded dimensions too.
        let n = n_s.max(n_t);
        let (match_s, match_t) = if padding { (n, n) } else { (n_s, n_t) };
        let matcher_bytes = self.matcher.aux_bytes(match_s, match_t);
        let pad_bytes = if padding { n * n * 4 } else { 0 };

        let mut match_span = telemetry::span("match");
        match_span.add_bytes((matcher_bytes + pad_bytes) as u64);
        let matching = if padding {
            let mut pad_span = telemetry::span("pad");
            pad_span.add_bytes(pad_bytes as u64);
            let dummy = score_quantile(&scores, self.dummy_quantile);
            let padded = pad_with_dummies(&scores, dummy);
            drop(pad_span);
            let m = self.matcher.run(&padded.scores, ctx);
            padded.strip(&m)
        } else {
            self.matcher.run(&scores, ctx)
        };
        Stages {
            matching,
            similarity_time,
            optimize_time,
            match_time: match_span.finish(),
            peak_aux_bytes: sim_bytes + opt_bytes + matcher_bytes + pad_bytes,
        }
    }

    /// The fused route. `similarity` normalizes both sides and packs the
    /// target at the pipeline precision (the normalized target is freed
    /// once packed); `optimize` computes the CSLS offsets, if any; `match`
    /// streams the row argmax of `scale * s + offsets`.
    fn run_fused(&self, source: &Matrix, target: &Matrix, scores: FusedScores) -> Stages {
        assert_eq!(
            source.cols(),
            target.cols(),
            "source and target embeddings must share a dimensionality"
        );
        let (n_s, n_t, d) = (source.rows(), target.rows(), source.cols());

        let mut sim_span = telemetry::span("similarity");
        let s = normalized(source);
        let packed_t = PackedAny::pack(&normalized(target), self.precision);
        let sim_bytes = (n_s + n_t) * d * 4 + packed_t.packed_bytes();
        sim_span.add_bytes(sim_bytes as u64);
        let similarity_time = sim_span.finish();

        let mut opt_span = telemetry::span("optimize");
        let (scale, offsets, opt_bytes) = match scores {
            FusedScores::Raw => (1.0, None, 0),
            FusedScores::Csls { k } => {
                let bytes =
                    n_s * d * 4 + PHI_T_ROWS.min(n_t) * d * 4 + n_s * k * 8 + (n_s + n_t) * 4;
                (2.0, Some(csls_offsets(&s, &packed_t, k)), bytes)
            }
        };
        opt_span.add_bytes(opt_bytes as u64);
        let optimize_time = opt_span.finish();

        let matcher_bytes = self.matcher.aux_bytes(n_s, n_t);
        let mut match_span = telemetry::span("match");
        match_span.add_bytes(matcher_bytes as u64);
        let (row_off, col_off) = match &offsets {
            Some((neg_s, neg_t)) => (Some(&neg_s[..]), Some(&neg_t[..])),
            None => (None, None),
        };
        let picks = fused_argmax_affine_packed(&s, &packed_t, scale, row_off, col_off)
            .expect("normalized copies share the embedding dimension");
        Stages {
            matching: Matching::new(picks),
            similarity_time,
            optimize_time,
            match_time: match_span.finish(),
            peak_aux_bytes: sim_bytes + opt_bytes + matcher_bytes,
        }
    }
}

/// An L2-row-normalized copy of `m`.
fn normalized(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    normalize_rows_l2(&mut out);
    out
}

/// CSLS offsets `(-phi_s, -phi_t)` without the score matrix, for the
/// decision `(2s + (-phi_s)) + (-phi_t)` — bitwise the dense
/// `(2s - phi_s) - phi_t`. phi_t scores the target rows as the kernels see
/// them (dequantized at f16/int8) against the f32-packed source: the
/// products commute and the depth order is the same, so every score, and
/// so every mean, equals the dense matrix's bit for bit. The packed source
/// is freed when phi_t is done.
fn csls_offsets(s: &Matrix, packed_t: &PackedAny, k: usize) -> (Vec<f32>, Vec<f32>) {
    assert!(k >= 1, "CSLS requires k >= 1");
    let n_t = packed_t.n();
    let phi_s = fused_topk_means_packed(s, packed_t, k).expect("operands share d");
    let packed_s = PackedAny::pack(s, Precision::F32);
    let mut phi_t = Vec::with_capacity(n_t);
    for start in (0..n_t).step_by(PHI_T_ROWS) {
        let rows = packed_t.unpack_rows(start..(start + PHI_T_ROWS).min(n_t));
        phi_t.extend(fused_topk_means_packed(&rows, &packed_s, k).expect("operands share d"));
    }
    telemetry::add("csls.neighborhoods", (s.rows() + n_t) as u64);
    let negate = |phi: Vec<f32>| phi.into_iter().map(|v| -v).collect();
    (negate(phi_s), negate(phi_t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::greedy::Greedy;
    use crate::matching::hungarian::Hungarian;
    use crate::score::{csls::Csls, NoOp};

    fn toy_embeddings() -> (Matrix, Matrix) {
        // Three well-separated directions, shared by both sides.
        let m = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.707, 0.707]).unwrap();
        (m.clone(), m)
    }

    /// The dense composition the fused route replaces, spelled out layer
    /// by layer: the score matrix (the quantized packed GEMM at f16/int8),
    /// the optimizer, then Greedy.
    fn dense_composition(
        s: &Matrix,
        t: &Matrix,
        optimizer: &dyn ScoreOptimizer,
        precision: Precision,
    ) -> Matching {
        let scores = match precision {
            Precision::F32 => similarity_matrix(s, t, SimilarityMetric::Cosine),
            p => {
                matmul_blocked_packed(&normalized(s), &PackedAny::pack(&normalized(t), p)).unwrap()
            }
        };
        Greedy.run(&optimizer.apply(scores), &MatchContext::default())
    }

    fn random_embeddings(n: usize, d: usize, seed: u64) -> Matrix {
        use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() - 0.5)
    }

    /// Small integer rows with duplicates on both sides, so exact score
    /// ties occur in argmax and at the top-k boundary.
    fn tied_embeddings(n: usize, salt: usize) -> Matrix {
        Matrix::from_fn(n, 4, |r, c| (((r / 2) * 3 + c * 5 + salt) % 4) as f32 - 1.5)
    }

    /// Asserts the planned pipeline equals the dense composition bitwise
    /// for DInf and CSLS{k} at every precision.
    fn assert_plan_equivalence(s: &Matrix, t: &Matrix, k: usize, what: &str) {
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            let jobs: [(Box<dyn ScoreOptimizer>, Box<dyn ScoreOptimizer>); 2] = [
                (Box::new(NoOp), Box::new(NoOp)),
                (Box::new(Csls { k }), Box::new(Csls { k })),
            ];
            for (optimizer, reference) in jobs {
                let p = MatchPipeline::new(SimilarityMetric::Cosine, optimizer, Box::new(Greedy))
                    .with_precision(precision);
                assert!(
                    matches!(p.plan(), Plan::Fused(_)),
                    "{} must fuse",
                    p.describe()
                );
                let planned = p.execute(s, t, &MatchContext::default()).matching;
                let dense = dense_composition(s, t, reference.as_ref(), precision);
                assert_eq!(
                    planned,
                    dense,
                    "{what}: {} diverged from dense",
                    p.describe()
                );
            }
        }
    }

    #[test]
    fn plan_equivalence_on_random_rectangular_inputs() {
        let s = random_embeddings(120, 16, 1);
        let t = random_embeddings(90, 16, 2);
        assert_plan_equivalence(&s, &t, 5, "n_s > n_t");
        assert_plan_equivalence(&t, &s, 5, "n_s < n_t");
        // More than one phi_t block of target rows.
        let s = random_embeddings(70, 8, 3);
        let t = random_embeddings(PHI_T_ROWS * 2 + 37, 8, 4);
        assert_plan_equivalence(&s, &t, 10, "multi-block phi_t");
    }

    #[test]
    fn plan_equivalence_of_csls_neighbourhoods() {
        // The fused phi_s / phi_t are the dense matrix's row and column
        // top-k means, bit for bit, at every precision — including the
        // target side, whose rows are scored dequantized against the
        // f32-packed source.
        use entmatcher_linalg::rank::{col_top_k_means, top_k_mean};

        let s = random_embeddings(90, 12, 11);
        let t = random_embeddings(PHI_T_ROWS + 50, 12, 12);
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            let dense = match precision {
                Precision::F32 => similarity_matrix(&s, &t, SimilarityMetric::Cosine),
                p => matmul_blocked_packed(&normalized(&s), &PackedAny::pack(&normalized(&t), p))
                    .unwrap(),
            };
            let packed_t = PackedAny::pack(&normalized(&t), precision);
            for k in [1usize, 7] {
                let (neg_s, neg_t) = csls_offsets(&normalized(&s), &packed_t, k);
                let phi_s: Vec<f32> = (0..s.rows())
                    .map(|i| -top_k_mean(dense.row(i), k))
                    .collect();
                let phi_t: Vec<f32> = col_top_k_means(&dense, k).iter().map(|v| -v).collect();
                assert_eq!(neg_s, phi_s, "{} k={k} phi_s", precision.name());
                assert_eq!(neg_t, phi_t, "{} k={k} phi_t", precision.name());
            }
        }
    }

    #[test]
    fn plan_equivalence_with_k_beyond_the_target_side() {
        let s = random_embeddings(20, 6, 5);
        let t = random_embeddings(7, 6, 6);
        assert_plan_equivalence(&s, &t, 50, "k > n_t");
    }

    #[test]
    fn plan_equivalence_on_tied_scores() {
        let s = tied_embeddings(30, 0);
        let t = tied_embeddings(26, 1);
        assert_plan_equivalence(&s, &t, 3, "ties");
        // Ties must resolve to the first target, as dense argmax does.
        let m = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy))
            .execute(&s, &t, &MatchContext::default());
        let twin = |j: u32| j & 1 == 0;
        assert!(m.matching.assignment().iter().flatten().all(|&j| twin(j)));
    }

    #[test]
    fn plan_equivalence_on_empty_sides() {
        let some = random_embeddings(5, 4, 7);
        let none = Matrix::zeros(0, 4);
        assert_plan_equivalence(&some, &none, 3, "empty target");
        assert_plan_equivalence(&none, &some, 3, "empty source");
        assert_plan_equivalence(&none, &none, 3, "both empty");
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(Csls::default()),
            Box::new(Greedy),
        );
        let r = p.execute(&some, &none, &MatchContext::default());
        assert_eq!(r.matching.assignment(), &[None; 5]);
    }

    #[test]
    fn planner_keeps_the_dense_route_where_fusion_does_not_apply() {
        use crate::matching::stable::StableMarriage;
        use crate::score::{rinf::RInf, sinkhorn::Sinkhorn};
        use crate::spec::AlgorithmPreset;

        for preset in AlgorithmPreset::all() {
            let fused = matches!(preset, AlgorithmPreset::DInf | AlgorithmPreset::Csls);
            for precision in [Precision::F32, Precision::F16, Precision::Int8] {
                let p = preset.build().with_precision(precision);
                assert_eq!(
                    matches!(p.plan(), Plan::Fused(_)),
                    fused,
                    "{} planned {:?}",
                    p.describe(),
                    p.plan()
                );
            }
        }
        let dinf =
            || MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        assert_eq!(dinf().plan(), Plan::Fused(FusedScores::Raw));
        let csls = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(Csls { k: 4 }),
            Box::new(Greedy),
        );
        assert_eq!(csls.plan(), Plan::Fused(FusedScores::Csls { k: 4 }));
        let dense = [
            MatchPipeline::new(
                SimilarityMetric::Cosine,
                Box::new(Sinkhorn::default()),
                Box::new(Greedy),
            ),
            MatchPipeline::new(
                SimilarityMetric::Cosine,
                Box::new(RInf::default()),
                Box::new(Greedy),
            ),
            MatchPipeline::new(
                SimilarityMetric::Cosine,
                Box::new(NoOp),
                Box::new(Hungarian),
            ),
            MatchPipeline::new(
                SimilarityMetric::Cosine,
                Box::new(Csls::default()),
                Box::new(Hungarian),
            ),
            MatchPipeline::new(
                SimilarityMetric::Cosine,
                Box::new(NoOp),
                Box::new(StableMarriage),
            ),
            dinf().with_dummies(0.9),
            dinf().with_candidates(CandidateStrategy::Lsh(LshBlocker::default()), 8),
            dinf().with_candidates(CandidateStrategy::Ivf(IvfParams::default()), 8),
            MatchPipeline::new(
                SimilarityMetric::Euclidean,
                Box::new(NoOp),
                Box::new(Greedy),
            ),
            MatchPipeline::new(
                SimilarityMetric::Manhattan,
                Box::new(Csls::default()),
                Box::new(Greedy),
            ),
        ];
        for p in dense {
            assert_eq!(p.plan(), Plan::Dense, "{} must stay dense", p.describe());
        }
    }

    #[test]
    fn dense_route_still_serves_distance_metrics() {
        let s = random_embeddings(40, 8, 9);
        let t = random_embeddings(55, 8, 10);
        for metric in [SimilarityMetric::Euclidean, SimilarityMetric::Manhattan] {
            let p = MatchPipeline::new(metric, Box::new(Csls { k: 4 }), Box::new(Greedy));
            let r = p.execute(&s, &t, &MatchContext::default());
            let dense = Greedy.run(
                &Csls { k: 4 }.apply(similarity_matrix(&s, &t, metric)),
                &MatchContext::default(),
            );
            assert_eq!(r.matching, dense, "{}", metric.name());
        }
    }

    #[test]
    fn dinf_pipeline_matches_identity() {
        let (s, t) = toy_embeddings();
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let r = p.execute(&s, &t, &MatchContext::default());
        assert_eq!(r.matching.assignment(), &[Some(0), Some(1), Some(2)]);
        assert!(r.peak_aux_bytes >= 9 * 4);
        assert_eq!(p.describe(), "cosine+none+Greedy");
    }

    #[test]
    fn csls_pipeline_reports_more_memory_than_dinf() {
        let (s, t) = toy_embeddings();
        let dinf = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let csls = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(Csls::default()),
            Box::new(Greedy),
        );
        let a = dinf.execute(&s, &t, &MatchContext::default());
        let b = csls.execute(&s, &t, &MatchContext::default());
        assert!(b.peak_aux_bytes > a.peak_aux_bytes);
        assert_eq!(a.matching, b.matching);
    }

    #[test]
    fn dummy_padding_abstains_on_surplus_sources() {
        // 3 sources, 2 targets: sources 0/1 match cleanly, source 2 is a
        // poor fit everywhere and must abstain under Hungarian+dummies.
        let s = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.4, 0.4]).unwrap();
        let t = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(NoOp),
            Box::new(Hungarian),
        )
        .with_dummies(0.75);
        let r = p.execute(&s, &t, &MatchContext::default());
        assert_eq!(r.matching.assignment()[0], Some(0));
        assert_eq!(r.matching.assignment()[1], Some(1));
        assert_eq!(r.matching.assignment()[2], None);
    }

    #[test]
    fn elapsed_is_measured() {
        let (s, t) = toy_embeddings();
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let r = p.execute(&s, &t, &MatchContext::default());
        assert!(r.elapsed.as_nanos() > 0);
        // Stage times are each bounded by the total.
        assert!(r.similarity_time <= r.elapsed);
        assert!(r.optimize_time <= r.elapsed);
        assert!(r.match_time <= r.elapsed);
    }

    #[test]
    fn score_quantile_ignores_non_finite_scores() {
        let clean = Matrix::from_vec(1, 5, vec![0.1, 0.2, 0.3, 0.4, 0.5]).unwrap();
        let dirty = Matrix::from_vec(
            1,
            8,
            vec![f32::NAN, 0.1, 0.2, f32::INFINITY, 0.3, 0.4, f32::NEG_INFINITY, 0.5],
        )
        .unwrap();
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(
                score_quantile(&dirty, q),
                score_quantile(&clean, q),
                "q={q}: NaN/inf must not perturb the quantile"
            );
        }
        // All-NaN input degrades to the 0.0 fallback instead of indexing
        // an arbitrarily ordered sample.
        let all_nan = Matrix::from_vec(1, 2, vec![f32::NAN, f32::NAN]).unwrap();
        assert_eq!(score_quantile(&all_nan, 0.9), 0.0);
        assert_eq!(score_quantile(&Matrix::zeros(0, 0), 0.5), 0.0);
    }

    /// A matcher probe that records the dimensions its `aux_bytes` was
    /// asked about, so tests can pin the padded-dimension accounting.
    struct DimProbe {
        asked: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    impl Matcher for DimProbe {
        fn name(&self) -> &'static str {
            "DimProbe"
        }

        fn run(&self, scores: &Matrix, _ctx: &MatchContext) -> Matching {
            Matching::new(vec![None; scores.rows()])
        }

        fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
            self.asked.lock().unwrap().push((n_s, n_t));
            n_s * n_t
        }
    }

    #[test]
    fn padded_pipeline_accounts_matcher_memory_at_padded_dims() {
        // 3 sources, 2 targets: padding squares the matrix to 3 x 3, and
        // the matcher's memory estimate must be asked about 3 x 3, not the
        // unpadded 3 x 2 it never sees.
        let s = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.4, 0.4]).unwrap();
        let t = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let probe = DimProbe {
            asked: std::sync::Mutex::new(Vec::new()),
        };
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(probe))
            .with_dummies(0.75);
        let r = p.execute(&s, &t, &MatchContext::default());
        // Downcast-free readback: the probe is owned by the pipeline, so
        // re-derive expectations from the report instead. sim matrix 3x2
        // f32 = 24 bytes, matcher 3*3 = 9, pad buffer 3*3*4 = 36.
        assert_eq!(r.peak_aux_bytes, 24 + 9 + 36);

        // Unpadded comparison: same matcher estimate at true dims (3*2=6),
        // no pad buffer — strictly less than the padded report.
        let probe2 = DimProbe {
            asked: std::sync::Mutex::new(Vec::new()),
        };
        let p2 = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(probe2));
        let r2 = p2.execute(&s, &t, &MatchContext::default());
        assert_eq!(r2.peak_aux_bytes, 24 + 6);
        assert!(r.peak_aux_bytes > r2.peak_aux_bytes);
    }

    #[test]
    fn execution_report_is_a_view_of_the_trace() {
        use entmatcher_support::telemetry;

        let _guard = crate::telemetry_test_lock();
        let (s, t) = toy_embeddings();
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(Csls::default()),
            Box::new(Greedy),
        );
        telemetry::set_enabled(true);
        let r = p.execute(&s, &t, &MatchContext::default());
        let trace = telemetry::snapshot();
        telemetry::set_enabled(false);

        // Other tests may run concurrently with telemetry enabled, so
        // locate *our* spans by their exact recorded durations.
        let pipeline = trace
            .spans_named("pipeline")
            .find(|sp| sp.duration_ns == r.elapsed.as_nanos() as u64)
            .expect("pipeline span recorded");
        let stages = [
            ("similarity", r.similarity_time),
            ("optimize", r.optimize_time),
            ("match", r.match_time),
        ];
        for (name, want) in stages {
            let span = trace
                .spans_named(name)
                .find(|sp| sp.parent == Some(pipeline.id))
                .unwrap_or_else(|| panic!("{name} span under pipeline"));
            assert_eq!(
                span.duration_ns,
                want.as_nanos() as u64,
                "{name} report field must equal its span"
            );
            assert!(span.duration_ns <= pipeline.duration_ns);
        }
        // Stage byte attributions sum to the report's peak estimate.
        let byte_sum: u64 = trace
            .children(pipeline.id)
            .iter()
            .map(|sp| sp.bytes)
            .sum();
        assert_eq!(byte_sum, r.peak_aux_bytes as u64);
        // The stages run on the pipeline's thread, so all four spans share
        // one real thread lane (lanes are 1-based) — the invariant behind
        // the Chrome export's per-thread rows.
        assert!(pipeline.tid >= 1, "pipeline span missing thread lane");
        assert!(trace
            .children(pipeline.id)
            .iter()
            .all(|sp| sp.tid == pipeline.tid));
    }

    #[test]
    fn candidate_strategies_agree_with_exact_on_easy_data() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};

        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 150,
            dim: 16,
            clusters: 10,
            spread: 0.25,
            noise: 0.05,
            seed: 31,
        });
        // NoOp optimizer so disagreement measures candidate recall alone:
        // CSLS's neighbourhood statistics shift under densified fill and
        // would conflate rescoring drift with missed candidates.
        let build = |strategy: CandidateStrategy| {
            MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy))
                .with_candidates(strategy, 16)
        };
        let exact = build(CandidateStrategy::Exact)
            .execute(&pair.source, &pair.target, &MatchContext::default());
        for strategy in [
            CandidateStrategy::Lsh(LshBlocker {
                bits: 8,
                tables: 8,
                seed: 41,
            }),
            CandidateStrategy::Ivf(IvfParams::default()),
        ] {
            let name = strategy.name();
            let approx =
                build(strategy).execute(&pair.source, &pair.target, &MatchContext::default());
            let agree = exact
                .matching
                .assignment()
                .iter()
                .zip(approx.matching.assignment())
                .filter(|(a, b)| a == b)
                .count();
            assert!(
                agree >= 135,
                "{name} strategy agrees with exact on only {agree}/150 sources"
            );
        }
    }

    #[test]
    fn quantized_precisions_track_f32_decisions() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};

        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 150,
            dim: 16,
            clusters: 10,
            spread: 0.25,
            noise: 0.05,
            seed: 77,
        });
        let build = |precision| {
            MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy))
                .with_precision(precision)
        };
        let f32_run = build(Precision::F32)
            .execute(&pair.source, &pair.target, &MatchContext::default());
        for precision in [Precision::F16, Precision::Int8] {
            let q = build(precision).execute(&pair.source, &pair.target, &MatchContext::default());
            let agree = f32_run
                .matching
                .assignment()
                .iter()
                .zip(q.matching.assignment())
                .filter(|(a, b)| a == b)
                .count();
            assert!(
                agree >= 145,
                "{} agrees with f32 on only {agree}/150 sources",
                precision.name()
            );
        }
    }

    #[test]
    fn describe_appends_non_f32_precision() {
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        assert_eq!(p.describe(), "cosine+none+Greedy");
        let p = p.with_precision(Precision::Int8);
        assert_eq!(p.describe(), "cosine+none+Greedy@int8");
    }

    #[test]
    fn quantized_similarity_emits_pack_span() {
        use entmatcher_support::telemetry;

        let _guard = crate::telemetry_test_lock();
        let (s, t) = toy_embeddings();
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy))
            .with_precision(Precision::Int8);
        telemetry::set_enabled(true);
        let r = p.execute(&s, &t, &MatchContext::default());
        let trace = telemetry::snapshot();
        telemetry::set_enabled(false);

        let sim = trace
            .spans_named("similarity")
            .find(|sp| sp.duration_ns == r.similarity_time.as_nanos() as u64)
            .expect("similarity span recorded");
        assert!(
            trace
                .children(sim.id)
                .iter()
                .any(|sp| sp.name == "quant.pack"),
            "quant.pack span under similarity"
        );
        assert!(trace.counter("quant.packed_bytes").unwrap_or(0) > 0);
    }

    #[test]
    fn ivf_strategy_emits_probe_spans_under_similarity() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
        use entmatcher_support::telemetry;

        let _guard = crate::telemetry_test_lock();
        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 80,
            dim: 16,
            clusters: 8,
            spread: 0.25,
            noise: 0.05,
            seed: 12,
        });
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(NoOp),
            Box::new(Greedy),
        )
        .with_candidates(CandidateStrategy::Ivf(IvfParams::default()), 8);
        telemetry::set_enabled(true);
        let r = p.execute(&pair.source, &pair.target, &MatchContext::default());
        let trace = telemetry::snapshot();
        telemetry::set_enabled(false);

        let sim = trace
            .spans_named("similarity")
            .find(|sp| sp.duration_ns == r.similarity_time.as_nanos() as u64)
            .expect("similarity span recorded");
        let kids = trace.children(sim.id);
        assert!(
            kids.iter().any(|sp| sp.name == "ann.train"),
            "ann.train under similarity, got {kids:?}"
        );
        assert!(
            kids.iter().any(|sp| sp.name == "ann.probe"),
            "ann.probe under similarity, got {kids:?}"
        );
        assert!(trace.counter("ann.candidates").unwrap_or(0) > 0);
        assert!(trace.counter("pipeline.shortlist.candidates").unwrap_or(0) > 0);
    }

    #[test]
    fn padded_run_emits_pad_span_under_match() {
        use entmatcher_support::telemetry;

        let _guard = crate::telemetry_test_lock();
        let s = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.4, 0.4]).unwrap();
        let t = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(NoOp),
            Box::new(Hungarian),
        )
        .with_dummies(0.75);
        telemetry::set_enabled(true);
        let r = p.execute(&s, &t, &MatchContext::default());
        let trace = telemetry::snapshot();
        telemetry::set_enabled(false);

        let match_span = trace
            .spans_named("match")
            .find(|sp| sp.duration_ns == r.match_time.as_nanos() as u64)
            .expect("match span recorded");
        let pads = trace.children(match_span.id);
        assert!(
            pads.iter().any(|sp| sp.name == "pad" && sp.bytes == 9 * 4),
            "pad child span with the padded-buffer bytes, got {pads:?}"
        );
    }
}
