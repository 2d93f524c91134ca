"""The package root exports the documented pipeline, and README's "Library
use" snippet runs against it as written."""
from __future__ import annotations

import re
from pathlib import Path

import abscon

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

PUBLIC = [
    "AbsconError",
    "ConsistencyReport",
    "ConstraintProblem",
    "DomainProfile",
    "InfeasibleModel",
    "LabeledGraph",
    "ModelSyntaxError",
    "Notation",
    "PartialModel",
    "Solution",
    "abstract",
    "brute_force",
    "build_problem",
    "check",
    "concretize",
    "parse",
    "profile",
    "serialize",
    "solve",
    "solve_partial",
    "weights",
]


def test_root_exports_the_agreed_names():
    assert sorted(abscon.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(abscon, name) is not None, name


def test_readme_library_snippet_runs_on_fig2_pool():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    texts = [p.read_text(encoding="utf-8") for p in sorted((DATA / "fig2_pool").glob("*.mmd"))]
    namespace = {"candidate_texts": texts}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["solution"].status == "optimal"
    assert namespace["final"].nodes == namespace["solution"].graph.nodes
