"""Quality and consistency metrics plus the comparison methods.

Graphs are compared through their relation-triple sets (source label, target
label, edge label, all normalized) using soft cardinality, which reduces to
ordinary set cardinality under exact-match similarity.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from . import clevr as clevr_exec
from .abstraction import abstract
from .concretize import REPORTED, Solution, solve_partial
from .constraints import check
from .domains import CLEVR, DomainProfile
from .graph import ACTIVITY, LabeledGraph, edge_key, normalize_label
from .notation import display_label

METHODS = ("greedy", "mv", "esc", "escf", "abscon")


class RelationTriple(NamedTuple):
    source: str
    target: str
    label: str


def relation_triples(graph: LabeledGraph, case_sensitive: bool = False) -> set[RelationTriple]:
    triples = set()
    for edge in graph.edges:
        source, target, label = edge_key(edge.source, edge.target, edge.label)
        triples.add(RelationTriple(
            normalize_label(display_label(graph.nodes[source]), case_sensitive),
            normalize_label(display_label(graph.nodes[target]), case_sensitive),
            label,
        ))
    return triples


def _tokenize(text: str) -> list[str]:
    """Word-and-punctuation split. It keeps case: relation_triples has
    already normalized the labels by the profile's rule."""
    return re.findall(r"\w+|[^\w\s]", text)


def token_overlap(e1: RelationTriple, e2: RelationTriple) -> float:
    """Jaccard similarity of the token sets of the concatenated triple text."""
    t1 = set(_tokenize(" ".join(e1)))
    t2 = set(_tokenize(" ".join(e2)))
    if not t1 and not t2:
        return 1.0
    if not t1 or not t2:
        return 0.0
    return len(t1 & t2) / len(t1 | t2)


def exact_similarity(e1: RelationTriple, e2: RelationTriple) -> float:
    return 1.0 if e1 == e2 else 0.0


def soft_cardinality(relations: Sequence[RelationTriple], sim) -> float:
    """card(E) = sum over e of 1 / sum over e' of Sim(e, e'); empty set -> 0."""
    items = list(relations)
    total = 0.0
    for e in items:
        denom = sum(sim(e, other) for other in items)
        total += 1.0 / denom
    return total


def soft_prf(predicted: LabeledGraph, reference: LabeledGraph, sim,
             case_sensitive: bool = False) -> tuple[float, float, float]:
    pred = relation_triples(predicted, case_sensitive)
    ref = relation_triples(reference, case_sensitive)
    return soft_prf_triples(pred, ref, sim)


def soft_prf_triples(pred: set[RelationTriple], ref: set[RelationTriple],
                     sim) -> tuple[float, float, float]:
    if not pred and not ref:
        return 1.0, 1.0, 1.0
    if not pred or not ref:
        return 0.0, 0.0, 0.0
    ordered_pred = sorted(pred)
    ordered_ref = sorted(ref)
    union = sorted(pred | ref)
    card_pred = soft_cardinality(ordered_pred, sim)
    card_ref = soft_cardinality(ordered_ref, sim)
    card_union = soft_cardinality(union, sim)
    card_inter = card_pred + card_ref - card_union
    precision = min(1.0, max(0.0, card_inter / card_pred))
    recall = min(1.0, max(0.0, card_inter / card_ref))
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


# ---------------------------------------------------------------------------
# Comparison methods


def majority_vote(candidates: Sequence[LabeledGraph], case_sensitive: bool = False) -> LabeledGraph:
    """Keep relations present in a strict majority of candidates; nodes are
    the endpoints of kept relations plus majority-label isolated nodes."""
    n = len(candidates)
    triple_votes: Counter = Counter()
    label_votes: Counter = Counter()
    kind_votes: dict[str, Counter] = {}
    for g in candidates:
        for t in relation_triples(g, case_sensitive):
            triple_votes[t] += 1
        seen = set()
        for node in g.nodes.values():
            label = normalize_label(display_label(node), case_sensitive)
            if label not in seen:
                seen.add(label)
                label_votes[label] += 1
            kind_votes.setdefault(label, Counter())[node.kind] += 1

    kept = sorted(t for t, v in triple_votes.items() if 2 * v > n)
    result = LabeledGraph()
    ids: dict[str, str] = {}

    def node_for(label: str) -> str:
        if label not in ids:
            counter = kind_votes.get(label, Counter({ACTIVITY: 1}))
            kind = min(counter.items(), key=lambda kv: (-kv[1], kv[0].kind, kv[0].op or ""))[0]
            ids[label] = result.add_node("" if kind.is_clevr else (label or "_"), kind)
        return ids[label]

    for t in kept:
        result.add_edge(node_for(t.source), node_for(t.target), t.label)
    for label, votes in sorted(label_votes.items()):
        if 2 * votes > n and label not in ids:
            node_for(label)
    return result


def _majority_answer(answers: Sequence[clevr_exec.Answer]) -> clevr_exec.Answer:
    # Classes under answers_equal; ties broken by earliest candidate.
    classes: list[tuple[clevr_exec.Answer, int]] = []
    for ans in answers:
        for i, (rep, count) in enumerate(classes):
            if clevr_exec.answers_equal(rep, ans):
                classes[i] = (rep, count + 1)
                break
        else:
            classes.append((ans, 1))
    return max(classes, key=lambda rc: rc[1])[0]


def run_method(
    method: str,
    candidates: Sequence[LabeledGraph],
    profile: DomainProfile,
    greedy_index: int = 0,
    scene: Optional[clevr_exec.Scene] = None,
):
    """Produce a graph (greedy, mv), a Solution (abscon) or an answer (esc, escf)."""
    if not candidates:
        raise ValueError("at least one candidate is required")
    if method == "greedy":
        return candidates[greedy_index]
    if method == "mv":
        return majority_vote(candidates, profile.case_sensitive_labels)
    if method == "abscon":
        return solve_partial(abstract(list(candidates), profile), profile)
    if method in ("esc", "escf"):
        if scene is None:
            raise ValueError(f"{method} requires a scene")
        answers = [clevr_exec.execute(g, scene) for g in candidates]
        if method == "escf":
            answers = [a for a in answers if not isinstance(a, clevr_exec.ExecError)]
            if not answers:
                return clevr_exec.ExecError("all_candidates_failed")
        return _majority_answer(answers)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Dataset evaluation


@dataclass
class Sample:
    id: str
    candidates: list[LabeledGraph]
    greedy_index: int = 0
    reference: Optional[LabeledGraph] = None
    scene: Optional[clevr_exec.Scene] = None
    gold_answer: Optional[clevr_exec.Answer] = None


@dataclass
class SampleResult:
    sample_id: str
    method: str
    status: str  # ok | infeasible | timed_out, as in report.json
    consistent: bool = False
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    executed: bool = False
    accurate: bool = False


@dataclass
class MetricReport:
    method: str
    domain: str
    rows: list[SampleResult] = field(default_factory=list)

    @property
    def consistency_ratio(self) -> float:
        return sum(r.consistent for r in self.rows) / len(self.rows) if self.rows else 0.0

    @property
    def success_rate(self) -> float:
        return sum(r.executed for r in self.rows) / len(self.rows) if self.rows else 0.0

    @property
    def accuracy(self) -> float:
        return sum(r.accurate for r in self.rows) / len(self.rows) if self.rows else 0.0

    def mean(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.rows) / len(self.rows) if self.rows else 0.0

    def aggregate(self) -> dict:
        return {
            "method": self.method,
            "domain": self.domain,
            "samples": len(self.rows),
            "consistency_ratio": self.consistency_ratio,
            "success_rate": self.success_rate,
            "accuracy": self.accuracy,
            "precision": self.mean("precision"),
            "recall": self.mean("recall"),
            "f1": self.mean("f1"),
        }


def similarity_for(profile: DomainProfile):
    if profile.name == "flowchart":
        return token_overlap
    return exact_similarity


def evaluate_sample(sample: Sample, method: str, profile: DomainProfile) -> SampleResult:
    output = run_method(
        method, sample.candidates, profile,
        greedy_index=sample.greedy_index, scene=sample.scene,
    )
    row = SampleResult(sample.id, method, "ok")
    if isinstance(output, Solution):
        # solve_partial() has checked its graph; without one the row scores 0.
        row.status = REPORTED[output.status]
        row.consistent = output.graph is not None
        output = output.graph
    elif isinstance(output, LabeledGraph):
        row.consistent = check(output, profile).consistent
    else:
        row.executed = not isinstance(output, clevr_exec.ExecError)
        row.consistent = row.executed
        if sample.gold_answer is not None:
            row.accurate = clevr_exec.answers_equal(output, sample.gold_answer)
        return row
    if output is None:
        return row
    if sample.reference is not None:
        sim = similarity_for(profile)
        row.precision, row.recall, row.f1 = soft_prf(
            output, sample.reference, sim, profile.case_sensitive_labels
        )
    if profile.name == CLEVR and sample.scene is not None:
        answer = clevr_exec.execute(output, sample.scene)
        row.executed = not isinstance(answer, clevr_exec.ExecError)
        if sample.gold_answer is not None:
            row.accurate = clevr_exec.answers_equal(answer, sample.gold_answer)
    return row


def evaluate_dataset(samples: Sequence[Sample], method: str, profile: DomainProfile) -> MetricReport:
    """One row per sample, in sample order."""
    rows = [evaluate_sample(s, method, profile) for s in samples]
    return MetricReport(method=method, domain=profile.name, rows=rows)
