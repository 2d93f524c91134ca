from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import abscon
from abscon.cli import main
from abscon.graph import LabeledGraph
from abscon.notation import Notation, serialize
from genutil import candidate_pool, dense_partial_model, random_flowchart

DATA = Path(__file__).parent / "data"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_env(**extra) -> dict:
    """Environment for a fresh interpreter that imports this checkout, with
    no BLAS thread count unless one is given in `extra`."""
    src = str(Path(abscon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return {**env, "PYTHONPATH": path, **extra}


def test_pipeline_fig2(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["pipeline", "--domain", "flowchart",
                 "--candidates", str(DATA / "fig2_pool"), "--out", str(out)])
    assert code == 0
    final = (out / "final.mmd").read_text()
    assert "Update ledger" not in final
    assert "Reorder stock" in final
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["consistent"] is True
    assert report["n_candidates"] == 3
    assert (out / "partial.json").exists()


def test_pipeline_infeasible_exit_code(tmp_path):
    out = tmp_path / "run"
    code = main(["pipeline", "--domain", "flowchart",
                 "--candidates", str(DATA / "infeasible_pool"), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "infeasible"


def test_pipeline_missing_directory(tmp_path):
    code = main(["pipeline", "--domain", "flowchart",
                 "--candidates", str(tmp_path / "nothing"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_abstract_then_concretize_stages(tmp_path):
    stage1 = tmp_path / "s1"
    assert main(["abstract", "--domain", "flowchart",
                 "--candidates", str(DATA / "fig2_pool"), "--out", str(stage1)]) == 0
    assert (stage1 / "partial.json").exists()
    stage2 = tmp_path / "s2"
    assert main(["concretize", "--domain", "flowchart",
                 "--partial", str(stage1 / "partial.json"), "--out", str(stage2)]) == 0
    assert "Update ledger" not in (stage2 / "final.mmd").read_text()


def _case_sensitive_pool(tmp_path) -> Path:
    # Two of three candidates write the decision arm as "Yes": a partial
    # model written by abstract and read back by concretize must keep that
    # count, as the in-memory one in pipeline does.
    pool = tmp_path / "pool"
    pool.mkdir()
    for i, arm in enumerate(["Yes", "Yes", "yes"]):
        (pool / f"candidate_{i}.mmd").write_text(
            "flowchart TD\nA[Receive order] --> B{In stock?}\n"
            f"B -->|{arm}| C[Ship order]\nB -->|no| D[Reorder stock]\n"
        )
    return pool


def _dense_taxonomy_pool(tmp_path, n: int, seed: int) -> Path:
    """Five candidates that abstract to genutil's dense taxonomy model with
    every node unanimous: candidate j holds every node and the edges whose
    count exceeds j. With no time to spend, the solver stops at search node
    128; the 15-node pool (seed 1) has a selection by then, the 30-node one
    (seed 0) has none."""
    partial = dense_partial_model(random.Random(seed), "taxonomy", n)
    pool = tmp_path / "pool"
    pool.mkdir(parents=True)
    for j in range(partial.n_candidates):
        graph = LabeledGraph()
        ids = {pid: graph.add_node(next(iter(e.labels)), e.kind) for pid, e in partial.nodes.items()}
        for (source, target, _), elem in partial.edges.items():
            if elem.count > j:
                graph.add_edge(ids[source], ids[target], next(iter(elem.labels)))
        (pool / f"candidate_{j}.tax").write_text(serialize(graph, Notation.TAXONOMY_EDGES))
    return pool


TIMED_OUT = {"domain": "taxonomy", "solve_timeout": 0}
# name: (pool, config, exit code, report status, whether final.* is written)
STAGE_CASES = {
    "case_sensitive": (_case_sensitive_pool, {"case_sensitive_labels": True}, 0, "ok", True),
    "fig2_pool": (lambda tmp: DATA / "fig2_pool", {}, 0, "ok", True),
    "infeasible_pool": (lambda tmp: DATA / "infeasible_pool", {}, 2, "infeasible", False),
    "timed_out_with_selection": (lambda tmp: _dense_taxonomy_pool(tmp, 15, 1), TIMED_OUT, 4,
                                 "timed_out", True),
    "timed_out_without_selection": (lambda tmp: _dense_taxonomy_pool(tmp, 30, 0), TIMED_OUT, 4,
                                    "timed_out", False),
}


@pytest.mark.parametrize("case", list(STAGE_CASES))
def test_case_sensitive_stages_write_what_pipeline_writes(tmp_path, case):
    make_pool, config, code, status, has_final = STAGE_CASES[case]
    pool = make_pool(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"domain": "flowchart", **config}))
    common = ["--config", str(config_path)]
    assert main(["pipeline", *common, "--candidates", str(pool), "--out", str(tmp_path / "p")]) == code
    assert main(["abstract", *common, "--candidates", str(pool), "--out", str(tmp_path / "s")]) == 0
    assert main(["concretize", *common, "--partial", str(tmp_path / "s" / "partial.json"),
                 "--out", str(tmp_path / "s")]) == code
    ext = ".tax" if config.get("domain") == "taxonomy" else ".mmd"
    written = {run: {path.name: path.read_bytes() for path in (tmp_path / run).iterdir()}
               for run in ("p", "s")}
    assert written["p"] == written["s"]
    assert sorted(written["p"]) == sorted(["partial.json", "report.json"]
                                          + [f"final{ext}"] * has_final)
    report = json.loads(written["p"]["report.json"])
    assert report["status"] == status
    assert report.get("consistent") == (True if has_final else None)
    assert report["solver_nodes"] == 128 if status == "timed_out" else report["solver_nodes"] > 0
    if case == "case_sensitive":
        assert b"|Yes|" in written["p"]["final.mmd"]


def _partial_json(tmp_path, edit=None) -> Path:
    """A flowchart partial model of three candidates whose "yes" arm is
    written in two rows, as a case-sensitive run used to write it; edit
    changes the data before it is written."""
    def node(elem_id, kind, label):
        return {"id": elem_id, "kind": {"kind": kind}, "count": 3, "labels": {label: 3}}

    def edge(source, target, count, labels):
        return {"source": source, "target": target, "count": count, "labels": labels}

    data = {
        "n_candidates": 3,
        "nodes": [node("p0", "activity", "Receive order"), node("p1", "decision", "In stock?"),
                  node("p2", "activity", "Ship order"), node("p3", "activity", "Reorder stock")],
        "edges": [edge("p0", "p1", 3, {"": 3}), edge("p1", "p2", 2, {"Yes": 2}),
                  edge("p1", "p2", 1, {"yes": 1}), edge("p1", "p3", 3, {"no": 3})],
    }
    if edit:
        edit(data)
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    return path


def test_concretize_sums_rows_that_share_an_edge_key(tmp_path):
    partial = _partial_json(tmp_path)
    assert main(["concretize", "--domain", "flowchart", "--partial", str(partial),
                 "--out", str(tmp_path / "out")]) == 0
    final = (tmp_path / "out" / "final.mmd").read_text()
    assert "|Yes|" in final and "|yes|" not in final


BAD_PARTIALS = {
    "dangling_endpoint": lambda d: d["edges"][0].update(source="p9"),
    "no_n_candidates": lambda d: d.pop("n_candidates"),
    "no_edge_target": lambda d: d["edges"][3].pop("target"),
    "empty_labels": lambda d: d["nodes"][2].update(labels={}),
    "duplicate_node_id": lambda d: d["nodes"][3].update(id="p2"),
    "count_not_label_total": lambda d: d["nodes"][0].update(count=2),
    "count_above_n_candidates": lambda d: d["edges"][3].update(count=4, labels={"no": 4}),
    "labels_of_two_edges": lambda d: d["edges"][3].update(labels={"no": 2, "yes": 1}),
}


@pytest.mark.parametrize("name", sorted(BAD_PARTIALS))
def test_concretize_rejects_a_bad_partial_model(tmp_path, capsys, name):
    partial = _partial_json(tmp_path, BAD_PARTIALS[name])
    assert main(["concretize", "--domain", "flowchart", "--partial", str(partial),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert json.loads(line)["error"].startswith("partial model: ")
    assert not (tmp_path / "out").exists()


def test_check_consistent_and_inconsistent(tmp_path, capsys):
    assert main(["check", "--domain", "flowchart", str(DATA / "fig2_reference.mmd")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is True

    bad = tmp_path / "bad.mmd"
    bad.write_text("flowchart TD\nA[go] --> D{ok?}\nD -->|yes| A\n")
    assert main(["check", "--domain", "flowchart", str(bad)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert any(v["name"] == "decision_min_out" for v in report["violations"])


def test_check_malformed_file(tmp_path):
    bad = tmp_path / "bad.mmd"
    bad.write_text("this is not mermaid")
    assert main(["check", "--domain", "flowchart", str(bad)]) == 1


def test_exec_command(tmp_path, capsys):
    code = main(["exec", str(DATA / "clevr" / "program_query.clv"),
                 str(DATA / "clevr" / "scene_basic.json")])
    assert code == 0
    answer = json.loads(capsys.readouterr().out)
    assert answer == {"type": "attr", "value": "red"}


def test_exec_cyclic_program(tmp_path, capsys):
    code = main(["exec", str(DATA / "clevr" / "program_cyclic.clv"),
                 str(DATA / "clevr" / "scene_basic.json")])
    assert code == 3
    answer = json.loads(capsys.readouterr().out)
    assert answer["type"] == "error"


def test_exec_missing_scene():
    code = main(["exec", str(DATA / "clevr" / "program_query.clv"),
                 str(DATA / "clevr" / "missing.json")])
    assert code == 1


def test_evaluate_command(tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["evaluate", str(DATA / "manifest_flowchart.json"),
                 "--method", "greedy", "--method", "mv", "--method", "abscon",
                 "--out", str(out)])
    assert code == 0
    aggregates = json.loads((out / "aggregate.json").read_text())
    by_method = {a["method"]: a for a in aggregates}
    assert by_method["abscon"]["consistency_ratio"] == 1.0
    assert by_method["mv"]["consistency_ratio"] < 1.0
    assert by_method["abscon"]["f1"] >= by_method["mv"]["f1"]
    csv_text = (out / "per_sample.csv").read_text()
    assert csv_text.count("\n") == 7  # header + 2 samples x 3 methods


def test_evaluate_reports_timed_out_solves(tmp_path):
    for name, n, seed in (("selected", 15, 1), ("none", 30, 0)):
        _dense_taxonomy_pool(tmp_path / name, n, seed)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"domain": "taxonomy", "samples": [
        {"id": name, "candidates": f"{name}/pool"} for name in ("selected", "none")]}))
    out = tmp_path / "eval"
    assert main(["evaluate", str(manifest), "--method", "abscon", "--timeout-solve", "0",
                 "--out", str(out)]) == 0
    rows = (out / "per_sample.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [["selected", "abscon", "timed_out", "1"],
                                                     ["none", "abscon", "timed_out", "0"]]


def test_evaluate_unknown_method(tmp_path):
    code = main(["evaluate", str(DATA / "manifest_flowchart.json"),
                 "--method", "magic", "--out", str(tmp_path / "e")])
    assert code == 1


def test_usage_error_exit_code():
    assert main(["pipeline", "--domain", "flowchart"]) == 1  # missing --out


def test_replay_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["pipeline", "--domain", "flowchart",
                     "--candidates", str(DATA / "fig2_pool"), "--out", str(out)]) == 0
    assert (out1 / "final.mmd").read_bytes() == (out2 / "final.mmd").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "partial.json").read_bytes() == (out2 / "partial.json").read_bytes()
    # re-running into the same directory overwrites deterministically
    assert main(["pipeline", "--domain", "flowchart",
                 "--candidates", str(DATA / "fig2_pool"), "--out", str(out1)]) == 0
    assert (out1 / "final.mmd").read_bytes() == (out2 / "final.mmd").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"domain": "flowchart", "tau": 0.4}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config),
                 "--candidates", str(DATA / "fig2_pool"), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["domain"] == "flowchart"


def test_evaluate_clevr_manifest(tmp_path):
    out = tmp_path / "eval"
    code = main(["evaluate", str(DATA / "manifest_clevr.json"),
                 "--method", "escf", "--method", "abscon", "--out", str(out)])
    assert code == 0
    aggregates = json.loads((out / "aggregate.json").read_text())
    by_method = {a["method"]: a for a in aggregates}
    assert by_method["abscon"]["success_rate"] == 1.0
    assert by_method["abscon"]["accuracy"] == 1.0
    assert by_method["escf"]["accuracy"] == 1.0
    header = (out / "per_sample.csv").read_text().splitlines()[0]
    assert "executed" in header and "accurate" in header


def test_cli_import_defers_scipy_and_requests(monkeypatch):
    # A fresh interpreter, since this one has imported all of these already.
    code = ("import os, sys; before = dict(os.environ); import abscon.cli; "
            "print([m for m in ('numpy', 'scipy.optimize', 'requests', 'abscon.evaluation',"
            " 'abscon.clevr', 'csv', 'concurrent.futures') if m in sys.modules],"
            " dict(os.environ) == before)")
    result = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[] True"

    # main(), not the import, pins OpenBLAS to one thread; a caller's count wins.
    for caller, expected in (({}, {"OPENBLAS_NUM_THREADS": "1"}),
                             ({"OMP_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "3"})):
        for name in BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "")  # so that undo restores this process's value
            monkeypatch.delenv(name)
        for name, value in caller.items():
            monkeypatch.setenv(name, value)
        assert main(["check", "--domain", "flowchart", str(DATA / "fig2_reference.mmd")]) == 0
        assert {n: os.environ[n] for n in BLAS_THREAD_VARS if n in os.environ} == expected


@pytest.mark.parametrize("pool", ["fig2_pool", "generated"])
def test_pipeline_outputs_do_not_depend_on_blas_threads(tmp_path, pool):
    candidates = DATA / pool
    if pool == "generated":
        # 14-node candidates: above the exact matcher's limit, so the
        # embedding cosines and the assignment warm start both run.
        rng = random.Random("blas-threads")
        candidates = tmp_path / "pool"
        candidates.mkdir()
        graphs = candidate_pool(rng, random_flowchart(rng, 14), "flowchart", size=5)
        for i, graph in enumerate(graphs):
            (candidates / f"candidate_{i}.mmd").write_text(
                serialize(graph, Notation.MERMAID_FLOWCHART), encoding="utf-8")
    outputs = []
    for i, extra in enumerate(({}, {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / f"out{i}"
        subprocess.run([sys.executable, "-m", "abscon.cli", "pipeline", "--domain", "flowchart",
                        "--candidates", str(candidates), "--out", str(out)],
                       env=_fresh_env(**extra), capture_output=True, timeout=120, check=True)
        outputs.append({name: (out / name).read_bytes()
                        for name in ("partial.json", "final.mmd", "report.json")})
    assert outputs[0] == outputs[1]


def test_evaluate_workers_flag_changes_nothing(tmp_path):
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"eval{workers}"
        assert main(["evaluate", str(DATA / "manifest_flowchart.json"), "--method", "greedy",
                     "--method", "mv", "--method", "abscon", "--out", str(out),
                     "--workers", workers]) == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("per_sample.csv", "aggregate.json")})
    assert outputs[0] == outputs[1]


def _error_line(capsys) -> str:
    """The single JSON error line on stderr, which holds no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    return json.loads(line)["error"]


@pytest.mark.parametrize("config, named", [
    (["flowchart"], ()),
    ({"domain": "flowchart", "tau": "abc"}, ()),
    ({"domain": "flowchart", "tau": 1.5}, ()),
    ({"domain": "flowchart", "match_timeout": -1}, ()),
    ({"domain": "flowchart", "case_sensitive_labels": "yes"}, ()),
    ({"domain": "flowchart", "solve_timout": 0.01}, ("'solve_timout'",)),
    ({"domain": "taxonomy", "taxonomy_require_connected": True}, ("'taxonomy_require_connected'",)),
    ({"domain": "flowchart", "embedding_fallback": "false"}, ("'embedding_fallback'",)),
    ({"domain": "flowchart", "description": 5}, ("'description'",)),
    ({"domain": "flowchart", "examples": "EX"}, ("'examples'",)),
    ({"domain": "flowchart", "examples": ["EX", 5]}, ("'examples'",)),
    ({"domain": "flowchart", "embedding_endpoint": 5}, ("'embedding_endpoint'",)),
], ids=["list", "tau_text", "tau_above_1", "negative_timeout", "toggle_text", "unknown_key",
        "removed_key", "fallback_text", "description_not_text", "examples_text",
        "examples_not_all_text", "endpoint_not_text"])
def test_bad_config_exits_1_with_one_error_line(tmp_path, capsys, config, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(path), "--candidates", str(DATA / "fig2_pool"),
                 "--out", str(tmp_path / "run")]) == 1
    error = _error_line(capsys)
    assert all(word in error for word in named), error
    assert not (tmp_path / "run").exists()


POOL = str(DATA / "fig2_pool")
CLEVR_POOL = str(DATA / "clevr" / "pool_query")


@pytest.mark.parametrize("manifest, named", [
    (["fig2_pool"], ()),
    ({"domain": "flowchart"}, ()),
    ({"domain": "flowchart", "samples": [{"candidates": "fig2_pool"}]}, ()),
    ({"domain": "flowchart", "samples": [{"id": "orders"}]}, ()),
    ({"domain": "clevr", "samples": [{"id": "q1", "candidates": CLEVR_POOL,
                                      "gold_answer": {"value": 3}}]}, ()),
    ({"domain": "clevr", "samples": [{"id": "q1", "candidates": CLEVR_POOL,
                                      "gold_answer": {"type": "colour", "value": "red"}}]}, ()),
    ({"domain": "clevr", "samples": [{"id": "q1", "candidates": CLEVR_POOL,
                                      "gold_answer": 3}]}, ()),
    ({"domain": "flowchart", "samples": [{"id": "s1", "candidates": 5}]},
     ("sample 0", "'candidates'")),
    ({"domain": "flowchart", "samples": [{"id": "s1", "candidates": POOL},
                                         {"id": "s2", "candidates": POOL, "reference": None}]},
     ("sample 1", "'reference'")),
    ({"domain": "clevr", "samples": [{"id": "q1", "candidates": CLEVR_POOL, "scene": ["x"]}]},
     ("sample 0", "'scene'")),
    ({"domain": "flowchart", "methods": "abscon", "samples": [{"id": "s1", "candidates": POOL}]},
     ("'methods'",)),
], ids=["list", "no_samples", "row_without_id", "row_without_candidates",
        "gold_answer_without_type", "gold_answer_unknown_type", "gold_answer_not_object",
        "candidates_not_text", "reference_not_text", "scene_not_text", "methods_not_list"])
def test_bad_manifest_exits_1_with_one_error_line(tmp_path, capsys, manifest, named):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["evaluate", str(path), "--out", str(tmp_path / "eval")]) == 1
    error = _error_line(capsys)
    assert error.startswith(f"manifest {path}")
    assert all(word in error for word in named)


def test_exec_scene_without_a_field_exits_1_with_one_error_line(tmp_path, capsys):
    scene = json.loads((DATA / "clevr" / "scene_basic.json").read_text())
    del scene["objects"][0]["color"]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert main(["exec", str(DATA / "clevr" / "program_query.clv"), str(path)]) == 1
    assert _error_line(capsys).startswith("scene: ")


@pytest.mark.parametrize("argv, expected", [
    (["check", "--domain", "taxonomy", str(DATA / "simple_reference.mmd")], ".tax"),
    (["check", "--domain", "clevr", str(DATA / "fig2_reference.mmd")], ".clv"),
    (["check", "--domain", "flowchart", str(DATA / "clevr" / "program_query.clv")], ".mmd"),
    (["exec", str(DATA / "simple_reference.mmd"), str(DATA / "clevr" / "scene_basic.json")], ".clv"),
], ids=["flowchart_as_taxonomy", "flowchart_as_clevr", "clevr_as_flowchart", "exec_flowchart"])
def test_graph_file_in_another_notation_exits_1_with_one_error_line(capsys, argv, expected):
    assert main(argv) == 1
    assert _error_line(capsys).endswith(f"({expected})")


def test_evaluate_reference_in_another_notation_exits_1_with_one_error_line(tmp_path, capsys):
    reference = tmp_path / "reference.tax"
    reference.write_text("ticket -> triage\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"domain": "flowchart", "samples": [
        {"id": "tickets", "candidates": str(DATA / "simple_pool"), "reference": reference.name}]}))
    assert main(["evaluate", str(manifest), "--out", str(tmp_path / "eval")]) == 1
    assert _error_line(capsys) == f"{reference}: expected a mermaid file (.mmd)"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("sampling", [
    {"endpoint": "http://127.0.0.1:9/v1", "model": "m", "bogus": 1},
    {"endpoint": "http://127.0.0.1:9/v1", "model": "m", "n_candidates": "3"},
    {"endpoint": "http://127.0.0.1:9/v1", "model": "m", "temperature": True},
    {"endpoint": 7, "model": "m"},
    ["http://127.0.0.1:9/v1", "m"],
], ids=["unknown_key", "count_text", "temperature_bool", "endpoint_number", "list"])
def test_bad_sampling_config_exits_1_with_one_error_line(tmp_path, capsys, sampling):
    """Checked before any request is made: the endpoint is never contacted."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain": "flowchart", "sampling": sampling}))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "gen")]) == 1
    _error_line(capsys)
    assert not (tmp_path / "gen").exists()
