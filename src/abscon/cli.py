"""Command-line orchestration of the pipeline and its stages.

`pipeline` runs the `abstract` stage, then the `concretize` stage, which
writes report.json and, when the solve left a checked graph, final.*.

Exit codes: 0 ok, 1 usage or IO error, 2 infeasible model,
3 inconsistent graph / execution error, 4 solver timed out (final.* is
then the best selection found, if there was one).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .abstraction import PartialModel, abstract
from .concretize import INFEASIBLE, NO_GRAPH, OPTIMAL, REPORTED, TIMED_OUT_BEST, solve_partial
from .constraints import check
from .domains import DOMAINS, DomainProfile, profile as make_profile
from .errors import AbsconError, IoError
from .llm import SamplingConfig, build_bundle, load_candidates, sample_candidates
from .notation import EXTENSION_FOR, EXTENSIONS, Notation, parse, serialize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INCONSISTENT = 3
EXIT_TIMED_OUT = 4
EXIT_FOR = {OPTIMAL: EXIT_OK, INFEASIBLE: EXIT_INFEASIBLE, TIMED_OUT_BEST: EXIT_TIMED_OUT}

# Thread counts OpenBLAS reads when it loads; a caller who sets one keeps it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # A usage error is one JSON line on stderr and exit 1, like every other
    # exit-1 error. argparse would print its usage text first and exit 2,
    # which means infeasible here.
    def error(self, message):
        raise SystemExit(_fail(f"usage: {message}"))


class _JsonLines(logging.Formatter):
    """A log record as one JSON line, such as {"warning": message}, like the
    {"error": message} line of a failed command."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps({record.levelname.lower(): record.getMessage()})


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


# Config keys the profile checks; domain and sampling are checked where
# they are read, the rest in _load_config.
_PROFILE_KEYS = ("tau", "solve_timeout", "case_sensitive_labels")
_CONFIG_KEYS = {*_PROFILE_KEYS, "domain", "sampling", "description", "examples",
                "embedding_endpoint", "embedding_fallback"}


def _load_config(args) -> dict:
    """The config file, checked whole: an unknown key or a value of the
    wrong type raises IoError before any stage runs."""
    if not getattr(args, "config", None):
        return {}
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise IoError(f"config {args.config} must hold a JSON object")
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise IoError(f"config {args.config} has unknown keys {unknown}")
    for key in ("description", "embedding_endpoint"):
        if not isinstance(config.get(key, ""), str):
            raise IoError(f"config {key!r} must be a string, not {config[key]!r}")
    if not isinstance(config.get("embedding_fallback", False), bool):
        raise IoError(f"config 'embedding_fallback' must be true or false,"
                      f" not {config['embedding_fallback']!r}")
    examples = config.get("examples", [])
    if not isinstance(examples, list) or not all(isinstance(e, str) for e in examples):
        raise IoError(f"config 'examples' must be a list of strings, not {examples!r}")
    return config


def _profile_from(args, config: dict) -> DomainProfile:
    domain = args.domain or config.get("domain")
    if domain not in DOMAINS:
        raise IoError(f"unknown or missing domain {domain!r}")
    overrides = {key: config[key] for key in _PROFILE_KEYS if key in config}
    if config.get("embedding_endpoint"):
        from .similarity import CachingProvider, RemoteProvider

        overrides["provider"] = CachingProvider(
            RemoteProvider(config["embedding_endpoint"]),
            fallback_to_builtin=config.get("embedding_fallback", False),
        )
    if getattr(args, "timeout_solve", None) is not None:
        overrides["solve_timeout"] = args.timeout_solve
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    return make_profile(domain, **overrides)


def _read_graph(path: Path, notation: Notation):
    """Parse a graph file; its extension must name the expected notation."""
    if EXTENSIONS.get(path.suffix) != notation:
        raise IoError(f"{path}: expected a {notation.value} file ({EXTENSION_FOR[notation]})")
    return parse(path.read_text(encoding="utf-8"), notation).graph


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _abstract_stage(graphs, profile: DomainProfile, out: Path) -> PartialModel:
    partial = abstract(graphs, profile)
    _write(out / "partial.json", partial.to_json())
    return partial


def _concretize_stage(partial: PartialModel, profile: DomainProfile, out: Path,
                      parse_warnings: list[dict] | None = None) -> int:
    """Solve; write report.json, and final.* when there is a checked graph.
    `pipeline` passes its candidates' parse warnings for the report."""
    solution = solve_partial(partial, profile)
    report = {
        "domain": profile.name,
        "n_candidates": partial.n_candidates,
        "partial_nodes": len(partial.nodes),
        "partial_edges": len(partial.edges),
        "status": REPORTED[solution.status],
        "solver_nodes": solution.nodes_explored,
    }
    if parse_warnings is not None:
        report["parse_warnings"] = parse_warnings
    if solution.assignment is not None:
        report["consistent"] = solution.graph is not None
    if solution.graph is None:
        report["detail"] = NO_GRAPH[solution.status]
        _write(out / "report.json", _dump_json(report))
        code = EXIT_FOR[solution.status] if solution.assignment is None else EXIT_INCONSISTENT
        return _fail(report["detail"], code)

    report["final_nodes"] = len(solution.graph.nodes)
    report["final_edges"] = len(solution.graph.edges)
    final = out / f"final{EXTENSION_FOR[profile.notation]}"
    _write(final, serialize(solution.graph, profile.notation))
    _write(out / "report.json", _dump_json(report))
    print(f"final model written to {final}")
    if solution.status == TIMED_OUT_BEST:
        return _fail(f"solver timed out: {final} is the best selection found, not a proven optimum",
                     EXIT_TIMED_OUT)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if args.candidates and (args.n is not None or args.temperature is not None):
        return _fail("usage: --n and --temperature set sampling, which --candidates skips")
    config = _load_config(args)
    profile = _profile_from(args, config)
    out = Path(args.out)
    if args.candidates:
        candidates, _ = load_candidates(args.candidates, profile.notation)
    else:
        candidates = _sample(args, config, profile, out)
    partial = _abstract_stage([c.graph for c in candidates], profile, out)
    parse_warnings = [{"candidate": i, "warning": warning}
                      for i, c in enumerate(candidates) for warning in c.warnings]
    return _concretize_stage(partial, profile, out, parse_warnings)


def cmd_abstract(args) -> int:
    config = _load_config(args)
    profile = _profile_from(args, config)
    candidates, _ = load_candidates(args.candidates, profile.notation)
    partial = _abstract_stage([c.graph for c in candidates], profile, Path(args.out))
    print(f"partial model with {len(partial.nodes)} nodes / {len(partial.edges)} edges")
    return EXIT_OK


def cmd_concretize(args) -> int:
    config = _load_config(args)
    profile = _profile_from(args, config)
    partial = PartialModel.from_json(Path(args.partial).read_text(encoding="utf-8"))
    return _concretize_stage(partial, profile, Path(args.out))


def cmd_check(args) -> int:
    config = _load_config(args)
    profile = _profile_from(args, config)
    graph = _read_graph(Path(args.graph), profile.notation)
    report = check(graph, profile)
    print(report.to_json(), end="")
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def cmd_exec(args) -> int:
    from . import clevr as clevr_exec

    program = _read_graph(Path(args.program), Notation.CLEVR_PROGRAM)
    scene = clevr_exec.Scene.from_json(Path(args.scene).read_text(encoding="utf-8"))
    answer = clevr_exec.execute(program, scene)
    print(_dump_json(clevr_exec.answer_to_json(answer)), end="")
    return EXIT_INCONSISTENT if isinstance(answer, clevr_exec.ExecError) else EXIT_OK


def cmd_evaluate(args) -> int:
    import csv

    from . import clevr as clevr_exec
    from .evaluation import METHODS, Sample, evaluate_dataset

    config = _load_config(args)
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or not isinstance(manifest.get("samples"), list):
        raise IoError(f"manifest {manifest_path} must be a JSON object with a 'samples' list")
    args.domain = args.domain or manifest.get("domain")
    profile = _profile_from(args, config)
    methods = args.method or manifest.get("methods") or ["abscon"]
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise IoError(f"manifest {manifest_path}: 'methods' must be a list of method names,"
                      f" not {methods!r}")
    for method in methods:
        if method not in METHODS:
            raise IoError(f"unknown method {method!r}")

    samples = []
    base = manifest_path.parent
    for i, row in enumerate(manifest["samples"]):
        if not isinstance(row, dict) or "id" not in row or "candidates" not in row:
            raise IoError(f"manifest {manifest_path}: sample {i} needs an 'id' and 'candidates'")
        for name in ("candidates", "reference", "scene"):
            if name in row and not isinstance(row[name], str):
                raise IoError(f"manifest {manifest_path}: sample {i} {name!r} must be a path,"
                              f" not {row[name]!r}")
        candidates, greedy_index = load_candidates(base / row["candidates"], profile.notation)
        sample = Sample(row["id"], [c.graph for c in candidates], greedy_index)
        if "reference" in row:
            sample.reference = _read_graph(base / row["reference"], profile.notation)
        if "scene" in row:
            sample.scene = clevr_exec.Scene.from_json(
                (base / row["scene"]).read_text(encoding="utf-8")
            )
        if "gold_answer" in row:
            try:
                sample.gold_answer = clevr_exec.answer_from_json(row["gold_answer"])
            except (KeyError, TypeError, ValueError):
                raise IoError(f"manifest {manifest_path}: sample {i} has a malformed gold_answer"
                              f" {row['gold_answer']!r}") from None
        samples.append(sample)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    aggregates = []
    with (out / "per_sample.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample", "method", "status", "consistent", "precision", "recall", "f1",
             "executed", "accurate"]
        )
        for method in methods:
            report = evaluate_dataset(samples, method, profile)
            aggregates.append(report.aggregate())
            for row in report.rows:
                writer.writerow(
                    [row.sample_id, method, row.status, int(row.consistent),
                     f"{row.precision:.6f}", f"{row.recall:.6f}", f"{row.f1:.6f}",
                     int(row.executed), int(row.accurate)]
                )
    _write(out / "aggregate.json", _dump_json(aggregates))
    for agg in aggregates:
        print(
            f"{agg['method']:>7}: CR={agg['consistency_ratio']:.3f} "
            f"P={agg['precision']:.3f} R={agg['recall']:.3f} F1={agg['f1']:.3f} "
            f"SR={agg['success_rate']:.3f} Acc={agg['accuracy']:.3f}"
        )
    return EXIT_OK


def cmd_generate(args) -> int:
    config = _load_config(args)
    profile = _profile_from(args, config)
    candidates = _sample(args, config, profile, Path(args.out), greedy=True)
    print(f"wrote {len(candidates) + 1} candidates to {Path(args.out) / 'candidates'}")
    return EXIT_OK


def _sample(args, config: dict, profile: DomainProfile, out: Path, greedy: bool = False) -> list:
    """Sample candidates from the configured endpoint and write them to
    out/candidates/sample_XX<ext>; with greedy, first one low-temperature
    candidate to greedy<ext>."""
    cfg = _sampling_config(args, config)
    bundle = build_bundle(profile.name, config.get("description", ""), config.get("examples"))
    cand_dir = out / "candidates"
    ext = EXTENSION_FOR[profile.notation]
    if greedy:
        greedy_cfg = SamplingConfig(**{**cfg.__dict__, "n_candidates": 1})
        (first,) = sample_candidates(bundle, greedy_cfg, profile.notation,
                                     run_dir=out / "greedy_run", temperature=cfg.greedy_temperature)
        _write(cand_dir / f"greedy{ext}", first.source_text)
    candidates = sample_candidates(bundle, cfg, profile.notation, run_dir=out)
    for i, cand in enumerate(candidates):
        _write(cand_dir / f"sample_{i:02d}{ext}", cand.source_text)
    return candidates


def _sampling_config(args, config: dict) -> SamplingConfig:
    sampling = config.get("sampling", {})
    if not isinstance(sampling, dict):
        raise IoError("config 'sampling' must hold a JSON object")
    unknown = sorted(set(sampling) - {f.name for f in dataclasses.fields(SamplingConfig)})
    if unknown:
        raise IoError(f"config 'sampling' has unknown keys {unknown}")
    merged = dict(sampling)
    if getattr(args, "n", None) is not None:
        merged["n_candidates"] = args.n
    if getattr(args, "temperature", None) is not None:
        merged["temperature"] = args.temperature
    if "endpoint" not in merged or "model" not in merged:
        raise IoError("sampling requires 'endpoint' and 'model' in the config file")
    return SamplingConfig(**merged)


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> _Parser:
    parser = _Parser(prog="abscon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes only the flags it reads: --tau acts on alignment,
    # --timeout-solve on the solve.
    def common(p, tau: bool = False, timeout_solve: bool = False):
        p.add_argument("--domain", choices=DOMAINS)
        p.add_argument("--config", help="JSON config file; flags override it")
        if timeout_solve:
            p.add_argument("--timeout-solve", dest="timeout_solve", type=float,
                           help="solver time limit in seconds")
        if tau:
            p.add_argument("--tau", type=float, help="alignment's label similarity threshold")

    p = sub.add_parser("pipeline", help="candidates -> partial model -> consistent final model")
    common(p, tau=True, timeout_solve=True)
    p.add_argument("--candidates", help="directory of candidate files (offline mode)")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--temperature", type=float)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("abstract", help="merge candidates into a partial model")
    common(p, tau=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("concretize", help="solve a stored partial model")
    common(p, timeout_solve=True)
    p.add_argument("--partial", required=True, help="partial.json produced by abstract")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_concretize)

    p = sub.add_parser("check", help="check a concrete model against domain constraints")
    common(p)
    p.add_argument("graph")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("exec", help="execute a clevr program on a scene")
    p.add_argument("program")
    p.add_argument("scene")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("evaluate", help="compare methods over a dataset manifest")
    common(p, tau=True, timeout_solve=True)
    p.add_argument("manifest")
    p.add_argument("--method", action="append",
                   help="repeatable; defaults to the manifest's methods, else abscon")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored: samples run in order")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="sample candidates from the configured endpoint")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--temperature", type=float)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    # abscon does no threaded BLAS work (the warm start's matrix is built on
    # the standard library, and scipy's _lsap links no BLAS), so OpenBLAS's
    # pool only starts and spins, competing with the main thread on a small
    # machine. numpy is first imported, after this, by _lsap at the first
    # alignment above matching.SMALL_LIMIT nodes; small pools never import it.
    if not any(name in os.environ for name in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    handler = logging.StreamHandler()
    handler.setFormatter(_JsonLines())
    logging.basicConfig(level=logging.WARNING, handlers=[handler])
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except AbsconError as exc:
        return _fail(str(exc))
    except json.JSONDecodeError as exc:
        return _fail(f"malformed JSON: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
