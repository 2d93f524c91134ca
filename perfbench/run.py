"""abscon benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):
  pools-large  large generated candidate pools through the whole in-process
               pipeline: parse, abstract, build_problem/weights, solve,
               induced_graph, check, serialize
  solve-dense  dense partial models straight into the solver under a fixed
               per-instance limit
  cli-small    cold `python -m abscon.cli` runs of pipeline and evaluate on
               the test fixtures and small generated pools

This file uses only the standard library and never imports abscon: it
generates the inputs from --seed, starts the worker processes that do, and
prints the result. --trace 0 prints the end-to-end metrics; --trace 1 runs
the traced worker and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 0 only when every output passed its checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKLOADS = ("pools-large", "solve-dense", "cli-small")
# Set-up is timed in this many extra process starts before the timed run and
# as many after it, plus the timed run's own: setup_s is their median. Spread
# out like this, a few seconds of a busy machine do not move the median.
SETUP_EXTRA_EACH_SIDE = 2
DEADLINE_S = 170  # the whole run, set-up and checks included

# Both library workloads time a fixed input set (the seed sets the order):
# their per-input cost is heavy-tailed (a few solves take 10-100x the
# median), so a run's worth of freshly drawn inputs moved the medians by
# more than the bounds from one seed to the next.
POOLS_LARGE_CLASSES = [("flowchart", 60, 20), ("flowchart", 100, 10), ("taxonomy", 100, 20)]
POOLS_LARGE_COPIES = 8
# Most pools solve in well under 0.1 s; the limit keeps a rare hard one from
# taking a whole run.
POOLS_LARGE_LIMIT_S = 1.0
SOLVE_DENSE_LIMIT_S = 1.5
SMALL_INSTANCES = [("taxonomy", 4), ("taxonomy", 4), ("taxonomy", 5), ("flowchart", 4),
                   ("flowchart", 4), ("flowchart", 5)]
CLI_SETS = 6  # sets of generated inputs, used in turn
FIXTURES = [
    {"name": "fig2_pool", "domain": "flowchart", "candidates": "tests/data/fig2_pool",
     "truth": "tests/data/fig2_reference.mmd", "exit": 0},
    {"name": "simple_pool", "domain": "flowchart", "candidates": "tests/data/simple_pool",
     "truth": "tests/data/simple_reference.mmd", "exit": 0},
    {"name": "infeasible_pool", "domain": "flowchart",
     "candidates": "tests/data/infeasible_pool", "exit": 2},
    {"name": "clevr_pool_query", "domain": "clevr", "candidates": "tests/data/clevr/pool_query",
     "truth": "tests/data/clevr/program_query.clv",
     "scene": "tests/data/clevr/scene_basic.json", "exit": 0},
]

END_TO_END = {
    "setup_s": "s", "merge_p50_s": "s", "merge_tail_s": "s", "merges_per_s": "1/s",
    "proven_ratio": "ratio", "f1_mean": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _write_pool(directory: Path, members, domain: str) -> None:
    directory.mkdir(parents=True)
    for i, member in enumerate(members):
        (directory / f"candidate_{i:02d}{gen.EXTENSION[domain]}").write_text(
            gen.render(member, domain), encoding="utf-8")


def inputs_pools_large(seed: int) -> dict:
    pools = []
    for copy in range(POOLS_LARGE_COPIES):
        for domain, n, size in POOLS_LARGE_CLASSES:
            name = f"{domain}-{n}x{size}-{copy}"
            rng = random.Random(f"pools-large/{name}")
            truth = gen.truth(rng, domain, n)
            pools.append({"name": name, "domain": domain,
                          "texts": [gen.render(m, domain) for m in gen.pool(rng, truth, domain, size)],
                          "truth": gen.render(truth, domain)})
    order = list(range(len(pools)))
    random.Random(f"pools-large/{seed}").shuffle(order)
    return {"solve_limit_s": POOLS_LARGE_LIMIT_S, "order": order, "inputs": pools}


def inputs_solve_dense(seed: int) -> dict:
    corpus = gen.dense_corpus()
    recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["instances"]
    by_name = {row["name"]: row for row in recorded}
    expected = []
    for inst in corpus:
        row = by_name.get(inst["name"])
        digest = hashlib.sha256(inst["partial"].encode("utf-8")).hexdigest()
        if row is None or row["sha256"] != digest:
            raise BenchError(f"expected.json has no optimum for corpus instance {inst['name']};"
                             " rerun perfbench/make_expected.py")
        expected.append(row)
    order = list(range(len(corpus)))
    random.Random(f"solve-dense/{seed}").shuffle(order)
    small = []
    for j, (domain, n) in enumerate(SMALL_INSTANCES):
        partial, _ = gen.dense_partial(random.Random(f"solve-dense/{seed}/small/{j}"), domain, n)
        small.append({"name": f"{domain}-{n}-{j}", "domain": domain, "partial": partial})
    return {"solve_limit_s": SOLVE_DENSE_LIMIT_S, "order": order, "inputs": corpus,
            "expected": expected, "small": small}


def inputs_cli_small(seed: int, work: Path) -> dict:
    rng = random.Random(f"cli-small/{seed}")
    sets = []
    for r in range(CLI_SETS):
        base = work / f"set{r}"
        specs = []
        for domain in ("flowchart", "taxonomy", "clevr"):
            truth = gen.truth(rng, domain, rng.randint(8, 15))
            pool_dir = base / domain
            _write_pool(pool_dir, gen.pool(rng, truth, domain, rng.randint(3, 5)), domain)
            (base / f"truth_{domain}{gen.EXTENSION[domain]}").write_text(
                gen.render(truth, domain), encoding="utf-8")
            spec = {"name": f"generated_{domain}", "domain": domain, "candidates": _rel(pool_dir),
                    "truth": _rel(base / f"truth_{domain}{gen.EXTENSION[domain]}"), "exit": 0}
            if domain == "clevr":
                (base / "scene.json").write_text(json.dumps(gen.scene(rng)), encoding="utf-8")
                spec["scene"] = _rel(base / "scene.json")
            specs.append(spec)
        samples = []
        for i in range(3):
            sample_dir = base / f"eval{i}"
            truth = gen.clevr_program(rng)
            _write_pool(sample_dir / "candidates", gen.pool(rng, truth, "clevr", rng.randint(3, 5)),
                        "clevr")
            (sample_dir / "truth.clv").write_text(gen.render(truth, "clevr"), encoding="utf-8")
            (sample_dir / "scene.json").write_text(json.dumps(gen.scene(rng)), encoding="utf-8")
            samples.append({"id": f"q{i}", "candidates": _rel(sample_dir / "candidates"),
                            "scene": _rel(sample_dir / "scene.json"),
                            "truth": _rel(sample_dir / "truth.clv")})
        specs.append({"name": "evaluate_clevr", "manifest": _rel(base / "manifest.json"),
                      "samples": samples, "exit": 0})
        sets.append(specs)
    return {"fixed": FIXTURES, "sets": sets}


def write_inputs(workload: str, seed: int, work: Path) -> None:
    if workload == "pools-large":
        data = inputs_pools_large(seed)
    elif workload == "solve-dense":
        data = inputs_solve_dense(seed)
    else:
        data = inputs_cli_small(seed, work)
    (work / "inputs.json").write_text(json.dumps(data), encoding="utf-8")


# ---------------------------------------------------------------------------
# Worker processes


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker to the end; returns its set-up time (process start to
    its `ready` line) and the rest of its standard output."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return setup, out


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "abscon" / "__init__.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        raise BenchError(f"{ROOT} is not an abscon checkout (src/abscon and tests/data needed)")
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_inputs(args.workload, args.seed, work)
        common = ["--workload", args.workload, "--work", str(work), "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
        extra_setups = 0 if args.trace else SETUP_EXTRA_EACH_SIDE
        setups = [run_worker(common + ["--setup-only"], deadline)[0] for _ in range(extra_setups)]
        seconds, out = run_worker(common + (["--trace"] if args.trace else []), deadline)
        setups.append(seconds)
        result = json.loads(out.strip().splitlines()[-1])
        setups += [run_worker(common + ["--setup-only"], deadline)[0] for _ in range(extra_setups)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, {"setup_s": statistics.median(setups), "setup_samples": len(setups)}


def report(args, result: dict, setup: dict) -> dict:
    """Print the human-readable report; return the metrics for the JSON line."""
    s = result["summary"]
    print(f"abscon benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, closed loop with one client")
    print(f"  {s['merges']} merges in {s['wall_s']:.2f} s of timed run")
    if args.trace:
        metrics = {}
        for name, value in result["layers"].items():
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:28s} {value:12.6g} {unit}")
        return metrics
    values = {
        "setup_s": setup["setup_s"],
        "merge_p50_s": s["merge_p50_s"],
        "merge_tail_s": s["merge_tail_s"],
        "merges_per_s": s["merges_per_s"],
        "proven_ratio": s["proven_ratio"],
        "f1_mean": s["f1_mean"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {setup['setup_samples']} process starts",
        "merge_p50_s": f"median of {s['merges']} merges",
        "merge_tail_s": f"p{s['merge_tail_pct']:.1f}, 10 samples beyond it",
        "f1_mean": f"{s['f1_samples']} outputs scored against ground truth",
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:16s} {values[name]:12.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':16s} {result['failed']}/{result['attempted']} merges failed")
    if s["answer_accuracy"] is None:
        print(f"  {'answer_accuracy':16s} {'n/a':>12s}        no clevr outputs in this workload")
    else:
        print(f"  {'answer_accuracy':16s} {s['answer_accuracy']:12.6g} ratio  "
              f"{s['answer_samples']} clevr outputs")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, setup = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics = report(args, result, setup)
    problems = result["errors"] + result["problems"]
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    correct = not problems and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
