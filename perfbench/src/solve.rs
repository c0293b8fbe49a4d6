//! The match workloads: input preparation, one measured `entmatcher
//! match` solve per process, and the traced solve that calls each layer
//! in the order `MatchPipeline::execute` does.

use crate::trace::Tracer;
use crate::util::{fail, measure, vm_hwm_mb, Args, Report};
use entmatcher_core::{AlgorithmPreset, MatchContext, Matching};
use entmatcher_embed::{Encoder, RreaEncoder, UnifiedEmbeddings};
use entmatcher_eval::{evaluate_links, MatchTask};
use entmatcher_graph::io::{load_pair_dir, save_pair_dir};
use entmatcher_graph::{KgPair, Link};
use entmatcher_linalg::{snapshot, Matrix};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// `prepare`: D-Z at `--scale` from `--seed`, RREA-encoded, written as
/// the OpenEA directory `entmatcher generate` writes plus the snapshots
/// `entmatcher encode` writes.
///
/// `--bootstrap-rounds` is RREA's self-training round count (default 1).
pub fn prepare(args: &Args) {
    let scale: f64 = args.num("scale");
    let seed: u64 = args.num("seed");
    let out = Path::new(args.str("out"));
    let mut spec = entmatcher_data::dbp15k("D-Z", scale);
    spec.seed = seed;
    let pair = entmatcher_data::generate_pair(&spec);
    let data = out.join("data");
    save_pair_dir(&data, &pair).unwrap_or_else(|e| fail(&e.to_string()));
    let spec_json = entmatcher_support::json::to_string_pretty(&spec);
    write(&data.join("spec.json"), spec_json.as_bytes());
    // Encode what `match` will load: entity ids and splits come from the
    // written files, not from the in-memory pair.
    let pair = load_dataset(&data);
    let encoder = RreaEncoder {
        seed,
        bootstrap_rounds: args.num("bootstrap-rounds"),
        ..RreaEncoder::default()
    };
    let emb = encoder.encode(&pair);
    let dir = out.join("emb");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&e.to_string()));
    write(&dir.join("source.emb"), &snapshot::to_bytes(&emb.source));
    write(&dir.join("target.emb"), &snapshot::to_bytes(&emb.target));
}

fn write(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
}

/// `cmd_match`'s dataset load: the persisted spec's seed fixes the splits.
pub fn load_dataset(dir: &Path) -> KgPair {
    let seed = std::fs::read_to_string(dir.join("spec.json"))
        .ok()
        .and_then(|t| entmatcher_support::json::from_str::<entmatcher_data::PairSpec>(&t).ok())
        .map(|s| s.seed)
        .unwrap_or(0);
    load_pair_dir(dir, seed).unwrap_or_else(|e| fail(&e.to_string()))
}

/// `cmd_match`'s resident snapshot load.
pub fn load_embeddings(dir: &Path) -> UnifiedEmbeddings {
    let read = |name: &str| -> Matrix {
        let bytes = std::fs::read(dir.join(name)).unwrap_or_else(|e| fail(&e.to_string()));
        snapshot::from_bytes(&bytes).unwrap_or_else(|e| fail(&format!("{name}: {e}")))
    };
    let emb = UnifiedEmbeddings {
        source: read("source.emb"),
        target: read("target.emb"),
    };
    emb.assert_consistent();
    emb
}

fn preset(name: &str) -> AlgorithmPreset {
    match name {
        "csls" => AlgorithmPreset::Csls,
        "sinkhorn" => AlgorithmPreset::Sinkhorn,
        "hungarian" => AlgorithmPreset::Hungarian,
        other => fail(&format!("unsupported algorithm {other:?}")),
    }
}

/// Everything `cmd_match` holds before `execute`.
struct Loaded {
    pair: KgPair,
    task: MatchTask,
    src: Matrix,
    tgt: Matrix,
    ctx: MatchContext,
}

fn check_rows(pair: &KgPair, emb: &UnifiedEmbeddings) {
    if emb.source.rows() != pair.source.num_entities() {
        fail("embeddings do not cover the dataset's source entities");
    }
}

fn task_of(pair: &KgPair, emb: &UnifiedEmbeddings) -> (MatchTask, Matrix, Matrix, MatchContext) {
    let task = MatchTask::from_pair(pair);
    let (src, tgt) = task.candidate_embeddings(emb);
    let ctx = task.context(pair);
    (task, src, tgt, ctx)
}

fn setup(data: &Path, emb_dir: &Path) -> Loaded {
    let pair = load_dataset(data);
    let emb = load_embeddings(emb_dir);
    check_rows(&pair, &emb);
    let (task, src, tgt, ctx) = task_of(&pair, &emb);
    Loaded {
        pair,
        task,
        src,
        tgt,
        ctx,
    }
}

/// `cmd_match`'s TSV write.
fn write_links(path: &Path, pair: &KgPair, links: &[Link]) {
    let file = std::fs::File::create(path).unwrap_or_else(|e| fail(&e.to_string()));
    let mut out = std::io::BufWriter::new(file);
    for l in links {
        let u = pair.source.entity_name(l.source).unwrap_or("<?>");
        let v = pair.target.entity_name(l.target).unwrap_or("<?>");
        writeln!(out, "{u}\t{v}").unwrap_or_else(|e| fail(&e.to_string()));
    }
    out.flush().unwrap_or_else(|e| fail(&e.to_string()));
}

/// Output checks shared by the measured and the traced solve.
fn report_outputs(r: &mut Report, loaded: &Loaded, matching: &Matching, links: &[Link]) {
    let scores = evaluate_links(links, &loaded.task.gold);
    r.set("f1", scores.f1)
        .set("n_sources", loaded.task.num_sources() as u64)
        .set("matched", matching.matched_count() as u64)
        .set("injective", matching.is_injective());
}

/// Set-ups per process. Set-up time differs far more between processes
/// (up to ~50% on a 2-core VM) than between repeats in one (~5%), so
/// `run.py` takes its samples from several processes and the median of a
/// few repeats is enough within each.
const SETUPS: usize = 3;

/// Runs the set-up `SETUPS` times and returns each one's seconds with the
/// last set-up's state.
fn timed_setups(args: &Args) -> (Vec<f64>, Loaded) {
    let data = Path::new(args.str("data"));
    let emb = Path::new(args.str("emb"));
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        drop(loaded.take());
        let t0 = Instant::now();
        loaded = Some(setup(data, emb));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    (setup_s, loaded.expect("at least one set-up"))
}

/// `setup`: set-up samples only, for runs with too few solves to give
/// set-up samples from enough processes.
pub fn setup_only(args: &Args) {
    let (setup_s, _) = timed_setups(args);
    let mut r = Report::default();
    r.set("setup_s", setup_s);
    r.print();
}

/// `solve`: one measured run of `entmatcher match`'s steps. Set-up runs
/// `SETUPS` times (the last one is used) so a run reports several set-up
/// samples; the solve itself runs once, so this process's `VmHWM` is that
/// solve's peak.
pub fn solve(args: &Args) {
    let out = Path::new(args.str("out"));
    let pipeline = preset(args.str("algorithm")).build();
    let (setup_s, l) = timed_setups(args);

    let t0 = Instant::now();
    let report = pipeline.execute(&l.src, &l.tgt, &l.ctx);
    let links = l.task.matching_to_links(&report.matching);
    write_links(out, &l.pair, &links);
    let match_s = t0.elapsed().as_secs_f64();

    let mut r = Report::default();
    r.set("setup_s", setup_s)
        .set("match_s", match_s)
        .set("peak_rss_mb", vm_hwm_mb(None));
    report_outputs(&mut r, &l, &report.matching, &links);
    r.print();
}

/// Largest |column sum - 1| of a score matrix: Sinkhorn's
/// double-stochasticity oracle (it is far from 0 for other optimizers).
fn col_sum_dev(scores: &Matrix) -> f64 {
    let mut sums = vec![0f64; scores.cols()];
    for (_, row) in scores.iter_rows() {
        for (s, &v) in sums.iter_mut().zip(row) {
            *s += v as f64;
        }
    }
    sums.iter().map(|s| (s - 1.0).abs()).fold(0.0, f64::max)
}

/// `trace-solve`: the same steps as `solve`, with the pipeline opened up
/// so each layer's public function is timed on its own.
pub fn trace_solve(args: &Args) {
    let data = Path::new(args.str("data"));
    let emb_dir = Path::new(args.str("emb"));
    let out = Path::new(args.str("out"));
    let tracer = Tracer::new(args.str("workload"));
    let pipeline = preset(args.str("algorithm")).build();

    let t_run = Instant::now();
    let root = tracer.open("run", None, t_run);
    let stage = |name, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        let m = measure(f);
        tracer.record(name, Some(root), t0, Instant::now());
        m
    };
    let (mut pair, mut emb, mut task) = (None, None, None);
    let load_dataset_m = stage("load.dataset", &mut || pair = Some(load_dataset(data)));
    let load_emb_m = stage("load.embeddings", &mut || {
        emb = Some(load_embeddings(emb_dir))
    });
    let (pair, emb) = (pair.expect("loaded"), emb.expect("loaded"));
    check_rows(&pair, &emb);
    let load_task_m = stage("load.task", &mut || task = Some(task_of(&pair, &emb)));
    let (task, src, tgt, ctx) = task.expect("built");

    let (mut scores, mut matching, mut links) = (None, None, Vec::new());
    let sim = stage("similarity", &mut || {
        scores = Some(entmatcher_core::similarity_matrix(
            &src,
            &tgt,
            pipeline.metric,
        ))
    });
    let opt = stage("optimize", &mut || {
        scores = scores.take().map(|s| pipeline.optimizer.apply(s))
    });
    let scores = scores.expect("optimized");
    let mat = stage("match", &mut || {
        matching = Some(pipeline.matcher.run(&scores, &ctx))
    });
    let matching = matching.expect("matched");
    let wr = stage("write", &mut || {
        links = task.matching_to_links(&matching);
        write_links(out, &pair, &links);
    });
    let t_end = Instant::now();
    tracer.close(root, t_end);
    let run_wall = (t_end - t_run).as_secs_f64();

    // Oracles, computed outside every timed region.
    let score_sum: f64 = matching.pairs().map(|(i, j)| scores.get(i, j) as f64).sum();
    let (n_s, n_t, d) = (src.rows() as f64, tgt.rows() as f64, src.cols() as f64);

    let mut r = Report::default();
    r.set("load.dataset_s", load_dataset_m.wall_s)
        .set("load.embeddings_s", load_emb_m.wall_s)
        .set("load.task_s", load_task_m.wall_s)
        .set("similarity.wall_s", sim.wall_s)
        .set("similarity.cpu_s", sim.cpu_s)
        .set("similarity.gflops", 2.0 * n_s * n_t * d / sim.wall_s / 1e9)
        .set("similarity.rss_hwm_mb", sim.hwm_mb)
        .set("optimize.wall_s", opt.wall_s)
        .set("optimize.cpu_s", opt.cpu_s)
        .set("optimize.rss_hwm_mb", opt.hwm_mb)
        .set("optimize.col_sum_dev", col_sum_dev(&scores))
        .set("match.wall_s", mat.wall_s)
        .set("match.cpu_s", mat.cpu_s)
        .set("match.score_sum", score_sum)
        .set("write.wall_s", wr.wall_s)
        .set("run_wall_s", run_wall)
        .set("trace.coverage", tracer.coverage(root));
    let l = Loaded {
        pair,
        task,
        src,
        tgt,
        ctx,
    };
    report_outputs(&mut r, &l, &matching, &links);
    tracer.write(args.str("trace-out"));
    r.print();
}
