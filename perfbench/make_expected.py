"""Record the optimum of every solve-dense corpus instance in expected.json.

Usage: python3 perfbench/make_expected.py

Each instance is solved with a 30 s limit; an instance already recorded
with the same hash keeps its record. An instance proven within it is
recorded with status "optimal" or "infeasible"; one that is not keeps the
best objective found, with status "timed_out_best", which the benchmark
treats as a lower bound on the optimum. Rerun this whenever gen.py changes
the corpus: the benchmark refuses instances whose hash is not recorded.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from abscon import PartialModel, build_problem, profile, solve, weights  # noqa: E402

import gen  # noqa: E402

REFERENCE_LIMIT_S = 30.0


def main() -> int:
    path = HERE / "expected.json"
    known = {}
    if path.exists():
        known = {row["sha256"]: row for row in json.loads(path.read_text(encoding="utf-8"))["instances"]}
    rows = []
    for inst in gen.dense_corpus():
        digest = hashlib.sha256(inst["partial"].encode("utf-8")).hexdigest()
        if digest in known:
            rows.append(dict(known[digest], name=inst["name"]))
            continue
        partial = PartialModel.from_json(inst["partial"])
        problem = build_problem(partial, profile(inst["domain"]))
        problem.weights = weights(partial)
        start = time.perf_counter()
        solution = solve(problem, REFERENCE_LIMIT_S)
        seconds = time.perf_counter() - start
        objective = solution.objective if math.isfinite(solution.objective) else None
        rows.append({"name": inst["name"], "sha256": digest, "status": solution.status,
                     "objective": objective, "limit_s": REFERENCE_LIMIT_S,
                     "seconds": round(seconds, 3)})
        print(f"{inst['name']}: {solution.status} {objective} in {seconds:.2f} s", flush=True)
    path.write_text(json.dumps({"instances": rows}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
