"""One benchmark workload in one fresh process.

The worker imports abscon from the checkout's ``src`` directory, loads the
inputs that ``run.py`` generated, prints ``ready`` on stdout (``run.py``
times set-up up to that line), then runs the workload as a closed loop
(one client, one merge at a time, no threads), verifies every output, and
prints one JSON line with the workload's metrics.

With ``--trace`` the worker runs the loop twice, first untraced and then
with spans around each call into abscon's public functions, and reports
per-layer metrics plus the difference between the two runs.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import abscon  # noqa: E402
from abscon import (  # noqa: E402
    InfeasibleModel,
    PartialModel,
    abstract,
    build_problem,
    check,
    concretize,
    parse,
    profile as make_profile,
    serialize,
    solve,
    weights,
)
from abscon.concretize import INFEASIBLE, OPTIMAL, TIMED_OUT_BEST  # noqa: E402
from abscon.evaluation import similarity_for, soft_prf  # noqa: E402
from abscon.similarity import BuiltinProvider, CachingProvider  # noqa: E402

import gen  # noqa: E402

if Path(abscon.__file__).resolve().parent != (ROOT / "src" / "abscon").resolve():
    sys.exit(f"abscon imported from {abscon.__file__}, not from this checkout")

NOTATION = {
    "flowchart": abscon.Notation.MERMAID_FLOWCHART,
    "taxonomy": abscon.Notation.TAXONOMY_EDGES,
    "clevr": abscon.Notation.CLEVR_PROGRAM,
}
PROVEN = (OPTIMAL, INFEASIBLE)
# Objectives are sums of at most a few hundred logits; this is far below
# the gap between two distinct selections.
OBJECTIVE_TOL = 1e-6


# ---------------------------------------------------------------------------
# Tracing


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer.spans.append((self.name, self.tracer.merge, self.start, end))
        self.tracer.seconds[self.name] += end - self.start
        return False


class Tracer:
    """Spans and counters at the boundary between this benchmark and abscon.

    Spans are kept in memory as (layer, merge index, start, end) and written
    out when the run ends. Disabled, span() is a shared no-op and count()
    does nothing, so the untraced path runs the same code.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, int, float, float]] = []
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.merge = -1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n


class CountingProvider:
    """The default cached builtin provider, with its requests counted.

    Passed in through profile(domain, provider=...), so no abscon source is
    patched. Embedding calls are too many to keep one span each; they are
    summed instead.
    """

    def __init__(self, tracer: Tracer):
        self.inner = CachingProvider(BuiltinProvider())
        self.tracer = tracer

    def embed(self, texts):
        start = time.perf_counter()
        try:
            return self.inner.embed(texts)
        finally:
            self.tracer.seconds["similarity.embed"] += time.perf_counter() - start
            self.tracer.counts["similarity.embed_calls"] += 1
            self.tracer.counts["similarity.embed_texts"] += len(texts)


def domain_profile(domain: str, tracer: Tracer):
    if tracer.enabled:
        return make_profile(domain, provider=CountingProvider(tracer))
    return make_profile(domain)


# ---------------------------------------------------------------------------
# The library pipeline, called stage by stage so the solver status stays
# visible (concretize() returns only the graph).


class Outcome:
    """What one merge produced."""

    def __init__(self):
        self.seconds = 0.0
        self.status: str | None = None
        self.objective: float | None = None
        self.partial = None
        self.graph = None
        self.text: str | None = None
        self.error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def solve_partial(partial, prof, limit: float, tracer: Tracer, out: Outcome) -> None:
    """build_problem -> weights -> solve -> induced_graph -> check -> serialize."""
    with tracer.span("constraints.build"):
        problem = build_problem(partial, prof)
    tracer.count("constraints.variables", len(problem.variables))
    tracer.count("constraints.linear", len(problem.linear))
    with tracer.span("concretize.weights"):
        problem.weights = weights(partial)
    with tracer.span("concretize.solve"):
        solution = solve(problem, limit)
    tracer.count("concretize." + {OPTIMAL: "optimal", INFEASIBLE: "infeasible",
                                  TIMED_OUT_BEST: "timed_out"}[solution.status])
    out.status = solution.status
    if solution.assignment is None:
        if solution.status == TIMED_OUT_BEST:
            out.error = "solve timed out before finding any selection: no output"
        return
    out.objective = solution.objective
    with tracer.span("concretize.materialize"):
        graph = problem.induced_graph(solution.assignment)
    with tracer.span("constraints.check"):
        consistent = check(graph, prof).consistent
    if not consistent:
        out.error = f"{solution.status} output fails check()"
        return
    with tracer.span("notation.serialize"):
        out.text = serialize(graph, prof.notation)
    out.graph = graph


def merge_texts(domain: str, texts: list[str], limit: float, tracer: Tracer) -> Outcome:
    """Candidate texts in, checked and serialized final graph out."""
    out = Outcome()
    prof = domain_profile(domain, tracer)
    try:
        graphs = []
        for text in texts:
            with tracer.span("notation.parse"):
                parsed = parse(text, prof.notation)
            tracer.count("notation.warnings", len(parsed.warnings))
            graphs.append(parsed.graph)
        with tracer.span("abstraction.abstract"):
            partial = abstract(graphs, prof)
        tracer.count("abstraction.partial_nodes", len(partial.nodes))
        tracer.count("abstraction.partial_edges", len(partial.edges))
        out.partial = partial
        solve_partial(partial, prof, limit, tracer, out)
    except Exception as exc:  # a merge that raises is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def f1_score(domain: str, graph, truth, tracer: Tracer) -> float:
    prof = make_profile(domain)
    with tracer.span("evaluation.prf"):
        return soft_prf(graph, truth, similarity_for(prof), prof.case_sensitive_labels)[2]


# ---------------------------------------------------------------------------
# Workloads. round_items(r) gives the items of the r-th repetition of the
# workload's unit; a merge runs one item.


class LibraryWorkload:
    """A fixed list of inputs, each with a domain and a ground-truth text,
    passed in whole passes in the order the seed chose."""

    def __init__(self, data: dict):
        self.inputs = data["inputs"]
        self.order = data["order"]
        self.solve_limit = data["solve_limit_s"]
        self.truths: dict[int, object] = {}
        # Per input, computed once: concretize()'s serialized output (None
        # when it raises InfeasibleModel), and the first proven outcome.
        self.concretized: dict[int, str | None] = {}
        self.first_proven: dict[int, Outcome] = {}

    def round_items(self, r: int) -> list[int]:
        return self.order

    def after(self, item: int, out: Outcome, tracer: Tracer) -> dict:
        inp = self.inputs[item]
        if item not in self.truths:
            self.truths[item] = parse(inp["truth"], NOTATION[inp["domain"]]).graph
        if out.graph is None:
            return {"f1": 0.0}
        return {"f1": f1_score(inp["domain"], out.graph, self.truths[item], tracer)}

    def concretize_text(self, item: int, partial) -> str | None:
        if item not in self.concretized:
            prof = make_profile(self.inputs[item]["domain"])
            try:
                graph = concretize(partial, prof, solve_timeout=10 * self.solve_limit)
                self.concretized[item] = serialize(graph, prof.notation)
            except InfeasibleModel:
                self.concretized[item] = None
        return self.concretized[item]

    def check_proven(self, item: int, partial, out: Outcome) -> list[str]:
        """On every proven outcome, concretize() must give the same bytes (or
        raise InfeasibleModel when the input was proven infeasible), and so
        must every other proven outcome of the same input."""
        if out.status not in PROVEN:
            return []
        first = self.first_proven.setdefault(item, out)
        text = self.concretize_text(item, partial)
        problems = []
        if out.status == INFEASIBLE and text is not None:
            problems.append("concretize() returned a graph for an input proven infeasible")
        elif out.status == OPTIMAL and text is None:
            problems.append("concretize() raised InfeasibleModel")
        elif out.status == OPTIMAL and text != out.text:
            problems.append("concretize() output differs")
        if (out.status, out.objective, out.text) != (first.status, first.objective, first.text):
            problems.append("proven outcome differs from an earlier pass")
        return [f"{self.inputs[item]['name']}: {p}" for p in problems]


class PoolsLarge(LibraryWorkload):
    """Large generated candidate pools through the whole in-process pipeline."""

    def merge(self, item: int, tracer: Tracer) -> Outcome:
        inp = self.inputs[item]
        return merge_texts(inp["domain"], inp["texts"], self.solve_limit, tracer)

    def verify(self, outcomes: list[tuple[int, Outcome]]) -> list[str]:
        return [p for item, out in outcomes for p in self.check_proven(item, out.partial, out)]


class SolveDense(LibraryWorkload):
    """Dense partial models straight into the solver."""

    def __init__(self, data: dict):
        super().__init__(data)
        self.partials = [PartialModel.from_json(inp["partial"]) for inp in self.inputs]
        self.expected = data["expected"]
        self.small = data["small"]

    def merge(self, item: int, tracer: Tracer) -> Outcome:
        out = Outcome()
        domain = self.inputs[item]["domain"]
        try:
            solve_partial(self.partials[item], domain_profile(domain, tracer),
                          self.solve_limit, tracer, out)
        except Exception as exc:
            out.error = f"{type(exc).__name__}: {exc}"
        return out

    def verify(self, outcomes: list[tuple[int, Outcome]]) -> list[str]:
        problems = []
        for item, out in outcomes:
            exp = self.expected[item]
            name = self.inputs[item]["name"]
            if out.status == OPTIMAL:
                if out.objective is None:
                    problems.append(f"{name}: optimal without a selection")
                elif exp["status"] == OPTIMAL and abs(out.objective - exp["objective"]) > OBJECTIVE_TOL:
                    problems.append(f"{name}: optimum {out.objective} != recorded {exp['objective']}")
                elif exp["status"] == TIMED_OUT_BEST and out.objective < exp["objective"] - OBJECTIVE_TOL:
                    problems.append(f"{name}: proven {out.objective} < recorded best {exp['objective']}")
                elif exp["status"] == INFEASIBLE:
                    problems.append(f"{name}: solved an input recorded infeasible")
            elif out.status == INFEASIBLE and exp["status"] != INFEASIBLE and exp["objective"] is not None:
                problems.append(f"{name}: proven infeasible, recorded objective {exp['objective']}")
            elif (out.status == TIMED_OUT_BEST and out.objective is not None
                  and exp["status"] == OPTIMAL and out.objective > exp["objective"] + OBJECTIVE_TOL):
                problems.append(f"{name}: timed-out objective above the recorded optimum")
            problems += self.check_proven(item, self.partials[item], out)
        problems += self.verify_small()
        return problems

    def verify_small(self) -> list[str]:
        """Instances small enough for brute_force (at most 20 variables)."""
        problems = []
        for inst in self.small:
            partial = PartialModel.from_json(inst["partial"])
            prof = make_profile(inst["domain"])
            problem = build_problem(partial, prof)
            problem.weights = weights(partial)
            got = solve(problem, 60.0)
            want = abscon.brute_force(problem)
            if got.status not in PROVEN:
                problems.append(f"small {inst['name']}: not proven ({got.status})")
            elif got.status != want.status or (
                got.status == OPTIMAL and abs(got.objective - want.objective) > OBJECTIVE_TOL
            ):
                problems.append(f"small {inst['name']}: solve {got.status} {got.objective}"
                                f" != brute_force {want.status} {want.objective}")
        return problems


class CliSmall:
    """Cold `python -m abscon.cli` runs on fixtures and small generated pools."""

    def __init__(self, data: dict, work: Path):
        import abscon.cli  # noqa: F401  (part of this workload's set-up)
        from abscon import clevr

        self.clevr = clevr
        self.work = work
        self.sets = data["sets"]
        self.fixed = data["fixed"]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.per_set = len(self.fixed) + len(self.sets[0])
        self.items: list[dict] = []  # every invocation, so out dirs never collide
        self.cache: dict[str, dict] = {}
        self.solve_limit = make_profile("flowchart").solve_timeout
        for generated in self.sets:
            for spec in generated:
                if "manifest" in spec:
                    self._write_manifest(spec)

    def _scene_and_gold(self, spec: dict):
        scene = self.clevr.Scene.from_json((ROOT / spec["scene"]).read_text(encoding="utf-8"))
        truth = parse((ROOT / spec["truth"]).read_text(encoding="utf-8"), NOTATION["clevr"]).graph
        return scene, self.clevr.execute(truth, scene)

    def _write_manifest(self, spec: dict) -> None:
        """Gold answers come from executing each ground-truth program."""
        samples = []
        for sample in spec["samples"]:
            _, gold = self._scene_and_gold(sample)
            samples.append({"id": sample["id"], "candidates": str(ROOT / sample["candidates"]),
                            "scene": str(ROOT / sample["scene"]),
                            "reference": str(ROOT / sample["truth"]),
                            "gold_answer": self.clevr.answer_to_json(gold)})
        manifest = {"domain": "clevr", "methods": ["greedy", "mv", "esc", "escf", "abscon"],
                    "samples": samples}
        (ROOT / spec["manifest"]).write_text(json.dumps(manifest, indent=2), encoding="utf-8")

    def round_items(self, r: int) -> list[int]:
        """One invocation per round, so the run stops close to its time
        budget: the fixtures, then the next set of generated inputs."""
        specs = self.fixed + self.sets[(r // self.per_set) % len(self.sets)]
        self.items.append(dict(specs[r % self.per_set], out=str(self.work / "out" / f"r{r}")))
        return [len(self.items) - 1]

    def argv(self, spec: dict, out: str) -> list[str]:
        if "manifest" in spec:
            return ["evaluate", str(ROOT / spec["manifest"]), "--out", out, "--workers", "1"]
        return ["pipeline", "--domain", spec["domain"], "--candidates",
                str(ROOT / spec["candidates"]), "--out", out]

    def merge(self, item: int, tracer: Tracer) -> Outcome:
        spec = self.items[item]
        out = Outcome()
        cmd = [sys.executable, "-m", "abscon.cli"] + self.argv(spec, spec["out"])
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=150)
        if proc.returncode != spec["exit"]:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            out.error = f"exit code {proc.returncode}, expected {spec['exit']}: {tail}"
        return out

    def after(self, item: int, out: Outcome, tracer: Tracer) -> dict:
        """Untimed: replay through the library, compare, score.

        Traced, this also runs the same invocation in-process through
        abscon.cli.main and replays its stages with spans around each call.
        """
        spec = self.items[item]
        if tracer.enabled:
            from abscon.cli import main

            argv = self.argv(spec, spec["out"] + "-inproc")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with tracer.span("cli.main"):
                    main(argv)
        key = json.dumps({k: v for k, v in spec.items() if k != "out"}, sort_keys=True)
        if key not in self.cache or tracer.enabled:
            self.cache[key] = self._replay(spec, tracer)
        replay = self.cache[key]
        result = {"proven": replay["proven"]}
        if "manifest" not in spec and spec["exit"] == 0:
            result["f1"] = 0.0  # replaced below when the run left a readable output
        if out.failed:
            return result
        problems = list(replay["problems"])
        try:
            if "manifest" in spec:
                problems += self._check_evaluate(spec)
            elif spec["exit"] == 0:
                problems += self._check_pipeline(spec, replay["text"], result, tracer)
        except Exception as exc:  # a missing or unreadable output fails the merge
            problems.append(f"CLI output unreadable: {type(exc).__name__}: {exc}")
        if problems:
            out.error = "; ".join(problems)
        return result

    def _check_pipeline(self, spec: dict, library_text: str | None, result: dict,
                        tracer: Tracer) -> list[str]:
        final = Path(spec["out"]) / ("final" + gen.EXTENSION[spec["domain"]])
        text = final.read_text(encoding="utf-8")
        graph = parse(text, NOTATION[spec["domain"]]).graph
        problems = []
        if text != library_text:
            problems.append("CLI output differs from the library path")
        if not check(graph, make_profile(spec["domain"])).consistent:
            problems.append("CLI output fails check()")
        truth = parse((ROOT / spec["truth"]).read_text(encoding="utf-8"),
                      NOTATION[spec["domain"]]).graph
        result["f1"] = f1_score(spec["domain"], graph, truth, tracer)
        if spec["domain"] == "clevr":
            scene, gold = self._scene_and_gold(spec)
            result["answer_ok"] = self.clevr.answers_equal(self._execute(graph, scene, tracer), gold)
        return problems

    def _execute(self, graph, scene, tracer: Tracer):
        with tracer.span("clevr.execute"):
            answer = self.clevr.execute(graph, scene)
        if isinstance(answer, self.clevr.ExecError):
            tracer.count("clevr.exec_errors")
        return answer

    def _replay(self, spec: dict, tracer: Tracer) -> dict:
        from abscon.evaluation import majority_vote
        from abscon.llm import load_candidates

        pools = spec["samples"] if "manifest" in spec else [spec]
        proven, problems, text = True, [], None
        for pool in pools:
            domain = pool.get("domain", "clevr")
            with tracer.span("llm.load_candidates"):
                candidates, _ = load_candidates(ROOT / pool["candidates"], NOTATION[domain])
            out = merge_texts(domain, [c.source_text for c in candidates], self.solve_limit, tracer)
            proven = proven and out.status in PROVEN
            text = out.text
            if out.error:
                problems.append(f"library path: {out.error}")
            if "manifest" in spec:
                with tracer.span("evaluation.majority_vote"):
                    majority_vote([c.graph for c in candidates])
                scene, _ = self._scene_and_gold(pool)
                for cand in candidates:
                    self._execute(cand.graph, scene, tracer)
        if "manifest" not in spec and (spec["exit"] == 2) != (text is None):
            problems.append(f"library path gives {'no ' if text is None else ''}output")
        return {"proven": proven, "text": text, "problems": problems}

    def _check_evaluate(self, spec: dict) -> list[str]:
        out = Path(spec["out"])
        aggregate = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
        problems = []
        if sorted(a["method"] for a in aggregate) != sorted(["greedy", "mv", "esc", "escf", "abscon"]):
            problems.append("evaluate did not report all five methods")
        with (out / "per_sample.csv").open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["method"] == "abscon" and row["status"] == "ok" and row["consistent"] != "1":
                    problems.append(f"evaluate: abscon output for {row['sample']} is inconsistent")
        return problems

    def verify(self, outcomes: list[tuple[int, Outcome]]) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# Loop and metrics


def run_rounds(workload, seconds: float, tracer: Tracer, merges: list) -> float:
    """Whole rounds, one merge at a time, while the next round (estimated by
    the last one) still fits in `seconds`; at least one round."""
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        for item in workload.round_items(r):
            tracer.merge = len(merges)
            t0 = time.perf_counter()
            with tracer.span("merge"):
                out = workload.merge(item, tracer)
            out.seconds = time.perf_counter() - t0
            extra = workload.after(item, out, tracer) if tracer.enabled else None
            merges.append((item, out, extra))
        r += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return now - start


def tail(times: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it,
    and that percentile; the maximum when there are ten samples or fewer."""
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_seconds(samples: int = 3) -> float:
    """Median time a fresh interpreter spends in `import abscon.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    code = ("import time; t = time.perf_counter(); import abscon.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        values.append(float(proc.stdout.strip()))
    return statistics.median(values)


PER_MERGE_SECONDS = [
    ("cli.main_s", "cli.main"),
    ("llm.load_candidates_s", "llm.load_candidates"),
    ("notation.parse_s", "notation.parse"),
    ("notation.serialize_s", "notation.serialize"),
    ("similarity.embed_s", "similarity.embed"),
    ("abstraction.abstract_s", "abstraction.abstract"),
    ("constraints.build_s", "constraints.build"),
    ("constraints.check_s", "constraints.check"),
    ("concretize.weights_s", "concretize.weights"),
    ("concretize.solve_s", "concretize.solve"),
    ("concretize.materialize_s", "concretize.materialize"),
    ("evaluation.prf_s", "evaluation.prf"),
    ("evaluation.majority_vote_s", "evaluation.majority_vote"),
    ("clevr.execute_s", "clevr.execute"),
]
PER_MERGE_COUNTS = [
    "similarity.embed_calls", "similarity.embed_texts", "abstraction.partial_nodes",
    "abstraction.partial_edges", "constraints.variables", "constraints.linear",
]
TOTAL_COUNTS = [
    "notation.warnings", "concretize.optimal", "concretize.infeasible",
    "concretize.timed_out", "clevr.exec_errors",
]


def layer_metrics(tracer: Tracer, n_merges: int, overhead: float) -> dict:
    metrics = {"cli.import_s": import_seconds()}
    for name, layer in PER_MERGE_SECONDS:
        metrics[name] = tracer.seconds[layer] / n_merges
    for name in PER_MERGE_COUNTS:
        metrics[name] = tracer.counts[name] / n_merges
    for name in TOTAL_COUNTS:
        metrics[name] = tracer.counts[name]
    metrics["trace.merges"] = n_merges
    metrics["trace.overhead_s"] = overhead
    return metrics


def summarize(merges: list, wall: float) -> dict:
    times = [out.seconds for _, out, _ in merges]
    tail_value, tail_pct = tail(times)
    extras = [extra for _, _, extra in merges]
    proven = [e["proven"] if "proven" in e else out.status in PROVEN
              for (_, out, _), e in zip(merges, extras)]
    f1 = [e["f1"] for e in extras if "f1" in e]
    answers = [e["answer_ok"] for e in extras if "answer_ok" in e]
    return {
        "merges": len(merges),
        "wall_s": wall,
        "merge_p50_s": statistics.median(times),
        "merge_tail_s": tail_value,
        "merge_tail_pct": tail_pct,
        "merges_per_s": len(merges) / wall,
        "proven_ratio": sum(proven) / len(proven),
        "f1_mean": statistics.fmean(f1) if f1 else 0.0,
        "f1_samples": len(f1),
        "answer_accuracy": sum(answers) / len(answers) if answers else None,
        "answer_samples": len(answers),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["pools-large", "solve-dense", "cli-small"])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    data = json.loads((args.work / "inputs.json").read_text(encoding="utf-8"))
    if args.workload == "pools-large":
        workload = PoolsLarge(data)
    elif args.workload == "solve-dense":
        workload = SolveDense(data)
    else:
        workload = CliSmall(data, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    merges: list = []
    if args.trace:
        untraced = Tracer(False)
        run_rounds(workload, args.seconds / 2, untraced, merges)
        p50_untraced = statistics.median(out.seconds for _, out, _ in merges)
        first_traced = len(merges)
        tracer = Tracer(True)
        wall = run_rounds(workload, args.seconds / 2, tracer, merges)
        p50_traced = statistics.median(out.seconds for _, out, _ in merges[first_traced:])
    else:
        tracer = Tracer(False)
        wall = run_rounds(workload, args.seconds, tracer, merges)
    # Before the checks below, some of which (brute_force) use far more
    # memory than any merge.
    peak_mb = peak_rss_mb()

    # Untimed: score and verify every merge not already scored while traced.
    quiet = Tracer(False)
    merges = [(item, out, extra if extra is not None else workload.after(item, out, quiet))
              for item, out, extra in merges]
    problems = workload.verify([(item, out) for item, out, _ in merges])

    result = {
        "attempted": len(merges),
        "failed": sum(out.failed for _, out, _ in merges),
        "errors": sorted({out.error for _, out, _ in merges if out.failed})[:10],
        "problems": problems[:10],
        "peak_rss_mb": peak_mb,
    }
    if args.trace:
        traced = merges[first_traced:]
        result["summary"] = summarize(traced, wall)
        result["layers"] = layer_metrics(tracer, len(traced), p50_traced - p50_untraced)
        trace_file = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        spans = [{"name": n, "merge": m, "start": s, "end": e} for n, m, s, e in tracer.spans]
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": spans}), encoding="utf-8")
    else:
        result["summary"] = summarize(merges, wall)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
