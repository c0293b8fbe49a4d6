#!/usr/bin/env python3
"""End-to-end benchmark of the paper's matchers and `entmatcher serve`.

    python3 perfbench/run.py --workload dbp15k_csls --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --quick

Run from the repository root. The script builds `perfbench/` (the native
harness plus the `entmatcher` binary, compiled from the CLI's own entry
point), prepares the seed's inputs once outside every timed region, runs
the workload and checks its outputs. Every measured match solve and every
served `entmatcher serve` runs in its own process, so each `VmHWM` belongs
to one solve or one server.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, from untraced runs; with `--trace 1`
they are its per-layer metrics, from a traced run whose spans are written
to `.bench_work/traces/`. Layers a workload does not exercise report 0.
`--quick` runs every workload on tiny inputs in both modes and asserts
that every metric BENCHMARK.json names is printed with its unit.

See perfbench/README.md for the workloads and how each metric is defined.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = {
    "dbp15k_csls": {"kind": "match", "scale": 1.0, "algorithm": "csls"},
    "dbp15k_sinkhorn": {"kind": "match", "scale": 1.0, "algorithm": "sinkhorn"},
    # Hungarian's solve time depends on the instance, so each run solves
    # three D-Z instances (seeds 3s, 3s+1, 3s+2 for run seed s).
    "dbp15k_hungarian": {"kind": "match", "scale": 0.3, "algorithm": "hungarian", "instances": 3},
    "serve_topk": {"kind": "serve", "scale": 1.0},
}

# RREA self-training rounds per D-Z scale. Its mutual-nearest-neighbour
# round costs ~17 s per seed at scale 1.0 on two cores (every new seed
# pays it) and ~1.3 s at scale 0.3, where it also keeps the Hungarian
# solve near the ~3-4 s the workload is sized for.
BOOTSTRAP_ROUNDS = {1.0: 0, 0.3: 1}
QUICK_SCALE = {1.0: 0.05, 0.3: 0.03}

SOLVES_MIN = 2  # per instance: a run's figure never rests on one solve
# Set-up time differs more between processes (up to ~50% here) than
# between repeats in one process (~5%). So a run takes set-up samples from
# at least SETUP_PROCS processes (set-up-only ones fill in where solves
# are few), and `setup_s` is the median of the per-process medians.
SETUP_PROCS = 8
F1_FLOOR = 0.05  # far above chance; catches misaligned inputs
STEP_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if done.returncode != 0:
        raise BenchError("build failed")
    bin_dir = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "release")
    return os.path.join(bin_dir, "perfbench"), os.path.join(bin_dir, "entmatcher")


def run_step(cmd):
    """Runs one step to completion and returns its standard output."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def run_json(cmd):
    """Runs one harness step and returns its last stdout line as JSON."""
    lines = run_step(cmd).strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def publish(tmp, final):
    """Moves a finished temporary path into place (another run may have won)."""
    try:
        os.rename(tmp, final)
    except OSError:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            os.remove(tmp)


def prepare(perfbench, scale, seed):
    """D-Z at `scale`, RREA-encoded, once per seed; returns its directory."""
    rounds = BOOTSTRAP_ROUNDS.get(scale, 0)
    final = os.path.join(WORK, "inputs", f"dz{scale}-rrea{rounds}-seed{seed}")
    if not os.path.isdir(final):
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        run_step([perfbench, "prepare", "--scale", str(scale), "--seed", str(seed),
                  "--bootstrap-rounds", str(rounds), "--out", tmp])
        publish(tmp, final)
    return final


def checksum(instances):
    """SHA-256 over every prepared file, so two runs can show they read
    byte-identical inputs."""
    h = hashlib.sha256()
    for inputs in instances:
        for sub in ("data", "emb"):
            base = os.path.join(inputs, sub)
            for name in sorted(os.listdir(base)):
                h.update(f"{sub}/{name}\0".encode())
                h.update(read(os.path.join(base, name)))
    return h.hexdigest()


def reference_tsv(entmatcher, inputs, algorithm):
    """Pairs from one `entmatcher match` call on the inputs. The inputs are
    shared by every build, but the reference belongs to this build's
    binary: its file name carries the binary's SHA-256."""
    build_id = hashlib.sha256(read(entmatcher)).hexdigest()[:16]
    final = os.path.join(inputs, f"ref-{algorithm}-{build_id}.tsv")
    if not os.path.exists(final):
        tmp = f"{final}.tmp{os.getpid()}"
        run_step([entmatcher, "match", "--data", os.path.join(inputs, "data"),
                  "--embeddings", os.path.join(inputs, "emb"), "--algorithm", algorithm,
                  "--out", tmp])
        publish(tmp, final)
    with open(final, "rb") as f:
        return f.read()


def read(path):
    with open(path, "rb") as f:
        return f.read()


def solve_checks(res, tsv, ref, algorithm):
    """Why a solve's output is wrong, or None."""
    if tsv != ref:
        return "pairs differ from `entmatcher match`"
    if res["matched"] != res["n_sources"]:
        return f"matched {res['matched']} of {res['n_sources']} sources"
    if algorithm == "hungarian" and not res["injective"]:
        return "Hungarian matching is not one-to-one"
    if res["f1"] < F1_FLOOR:
        return f"F1 {res['f1']:.4f} is below {F1_FLOOR}"
    return None


def run_match(wl, perfbench, entmatcher, instances, seconds, trace, name, seed):
    """Solves the run's instances round-robin, each solve in its own
    process, until `seconds` have passed and every instance ran
    SOLVES_MIN times."""
    algorithm = wl["algorithm"]
    refs = [reference_tsv(entmatcher, inputs, algorithm) for inputs in instances]
    out = os.path.join(WORK, "out", f"{name}-seed{seed}.tsv")
    solves, problems = [], []
    t0 = time.monotonic()
    while len(solves) < SOLVES_MIN * len(instances) or time.monotonic() - t0 < seconds:
        j = len(solves) % len(instances)
        res = run_json([perfbench, "solve", "--data", os.path.join(instances[j], "data"),
                        "--emb", os.path.join(instances[j], "emb"), "--algorithm", algorithm,
                        "--out", out])
        solves.append((j, res))
        problem = solve_checks(res, read(out), refs[j], algorithm)
        if problem:
            problems.append(problem)
    setups = [r["setup_s"] for _, r in solves]
    for j in range(len(solves), SETUP_PROCS):
        inputs = instances[j % len(instances)]
        setups.append(run_json([perfbench, "setup", "--data", os.path.join(inputs, "data"),
                                "--emb", os.path.join(inputs, "emb")])["setup_s"])
    by_instance = [[r for i, r in solves if i == j] for j in range(len(instances))]
    setup_s = statistics.median(statistics.median(s) for s in setups)
    match_s = statistics.mean(statistics.median([r["match_s"] for r in runs]) for runs in by_instance)
    f1 = statistics.mean(runs[0]["f1"] for runs in by_instance)
    lines = [f"solves: {len(solves)} over {len(instances)} instance(s), "
             f"set-ups from {len(setups)} processes; match_s per solve: "
             f"{' '.join('%.3f' % r['match_s'] for _, r in solves)}"]
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "match_s": match_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in solves),
            "f1": f1,
        }
        lines.append(f"hits1 (one answer per test source, so equal to f1): {f1:.6f}")
        return metrics, len(solves), len(problems), problems, lines

    trace_out = os.path.join(WORK, "traces", f"{name}-seed{seed}.json")
    t = run_json([perfbench, "trace-solve", "--data", os.path.join(instances[0], "data"),
                  "--emb", os.path.join(instances[0], "emb"), "--algorithm", algorithm,
                  "--out", out, "--workload", name, "--trace-out", trace_out])
    problem = solve_checks(t, read(out), refs[0], algorithm)
    if problem:
        problems.append(f"traced solve: {problem}")
    metrics = {k: v for k, v in t.items() if "." in k}
    metrics["match.matched"] = t["matched"]
    untraced = statistics.median([r["setup_s"][-1] + r["match_s"] for r in by_instance[0]])
    metrics["trace.overhead_ratio"] = t["run_wall_s"] / untraced - 1.0
    lines += share_lines(name, t)
    lines.append(f"spans written to {os.path.relpath(trace_out, ROOT)}")
    return metrics, len(solves) + 1, len(problems), problems, lines


# The ROADMAP-baseline layer shares each match workload is expected to show.
PREDICTED_SHARES = {
    "dbp15k_sinkhorn": (("optimize",), 0.90, "optimize >= 90% of the traced wall"),
    "dbp15k_hungarian": (("match",), 0.90, "match >= 90% of the traced wall"),
    "dbp15k_csls": (("similarity", "optimize"), 0.50, "similarity + optimize > 50% of the traced wall"),
}


def share_lines(name, t):
    wall = t["run_wall_s"]
    stages = ["load.dataset", "load.embeddings", "load.task", "similarity", "optimize", "match", "write"]
    key = lambda s: f"{s}_s" if s.startswith("load.") else f"{s}.wall_s"
    lines = ["layer shares of the traced wall: " +
             ", ".join(f"{s} {t[key(s)] / wall:.3f}" for s in stages)]
    layers, floor, text = PREDICTED_SHARES[name]
    share = sum(t[key(s)] for s in layers) / wall
    lines.append(f"prediction {text}: measured {share:.3f} -> {'met' if share >= floor else 'MISSED'}")
    return lines


def run_serve(perfbench, entmatcher, inputs, seconds, trace, name, seed):
    cmd = [perfbench, "serve", "--bin", entmatcher, "--data", os.path.join(inputs, "data"),
           "--emb", os.path.join(inputs, "emb"), "--seed", str(seed), "--seconds", str(seconds),
           "--workload", name]
    trace_out = os.path.join(WORK, "traces", f"{name}-seed{seed}.json")
    if trace:
        cmd += ["--trace-out", trace_out]
    r = run_json(cmd)
    problems = [f"{r['failed']} of {r['attempted']} requests failed"] if r["failed"] else []
    if r["f1"] < F1_FLOOR:
        problems.append(f"served top-1 F1 {r['f1']:.4f} is below {F1_FLOOR}")
    lines = [
        f"open loop at {r['http.offered_rps']:.0f} requests/s: p50 {r['http.p50_ms']:.3f} ms, "
        f"p99 {r['http.p99_ms']:.3f} ms over {r['http.latency_samples']} requests, "
        f"cache hit ratio {r['http.cache_hit_ratio']:.3f}, generator lag p99 "
        f"{r['loadgen.send_lag_p99_ms']:.3f} ms",
        f"sweeps (match_s): {' '.join('%.3f' % s for s in r['match_s'])} s; "
        f"server spawns (setup_s): {' '.join('%.4f' % s for s in r['setup_s'])} s",
        f"hits1 of the served top-1 (equal to f1): {r['f1']:.6f}; "
        f"failed_ratio {r['failed'] / max(r['attempted'], 1):.6f}",
    ]
    if not trace:
        metrics = {
            "setup_s": statistics.median(r["setup_s"]),
            "match_s": statistics.median(r["match_s"]),
            "peak_rss_mb": r["peak_rss_mb"],
            "f1": r["f1"],
        }
        return metrics, r["attempted"], r["failed"], problems, lines
    metrics = {k: v for k, v in r.items() if "." in k}
    lines.append(f"spans written to {os.path.relpath(trace_out, ROOT)}")
    return metrics, r["attempted"], r["failed"], problems, lines


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(name, seed, seconds, trace, spec, bins, quick=False, produced=None):
    """Runs one workload; `produced`, when given, collects the names of the
    metrics it measured (the result fills the others with 0)."""
    wl = WORKLOADS[name]
    perfbench, entmatcher = bins
    scale = QUICK_SCALE[wl["scale"]] if quick else wl["scale"]
    k = wl.get("instances", 1)
    instances = [prepare(perfbench, scale, seed * k + j) for j in range(k)]
    for sub in ("out", "traces"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    lines = [f"workload {name}, seed {seed}, D-Z scale {scale}, instance seeds "
             f"{[seed * k + j for j in range(k)]}, inputs sha256 {checksum(instances)}"]
    if wl["kind"] == "match":
        metrics, attempted, failed, problems, more = run_match(
            wl, perfbench, entmatcher, instances, seconds, trace, name, seed)
    else:
        metrics, attempted, failed, problems, more = run_serve(
            perfbench, entmatcher, instances[0], seconds, trace, name, seed)
    lines += more
    if produced is not None:
        produced.update(metrics)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
           for m in wanted}
    for m in wanted:
        lines.append(f"  {m['name']:<26} {out[m['name']]['value']:>16.6f} {m['unit']}")
    lines += [f"CHECK FAILED: {p}" for p in problems]
    result = {"correct": not problems, "attempted": int(attempted), "failed": int(failed),
              "metrics": out}
    return lines, result


def quick(spec, bins):
    """Every workload, both modes, tiny inputs. Asserts that each workload
    measures every end-to-end metric, that every per-layer metric is
    measured by some workload, and that each is printed with its unit."""
    layers = set()
    for name in WORKLOADS:
        for trace in (0, 1):
            produced = set()
            lines, result = run_workload(name, 1, 1, trace, spec, bins, quick=True,
                                         produced=produced)
            print("\n".join(lines))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            unprinted = [m["name"] for m in wanted
                         if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            unmeasured = [] if trace else [m["name"] for m in wanted if m["name"] not in produced]
            if unprinted or unmeasured or not result["correct"]:
                raise BenchError(f"quick {name} trace={trace}: not printed {unprinted}, "
                                 f"not measured {unmeasured}, result {result}")
            if trace:
                layers |= produced
            print(f"quick {name} trace={trace}: ok ({len(wanted)} metrics)")
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if never:
        raise BenchError(f"quick: no workload measures {never}")
    print(json.dumps({"quick": "ok"}))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not args.quick and not args.workload:
        ap.error("--workload is required (or --quick)")
    # Runs use the program's defaults: no ENTMATCHER_* switch leaks in.
    for key in [k for k in os.environ if k.startswith("ENTMATCHER_")]:
        del os.environ[key]
    try:
        spec = load_spec()
        bins = build()
        if args.quick:
            quick(spec, bins)
            return 0
        lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec, bins)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
