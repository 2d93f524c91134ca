"""Well-formedness constraints: per-domain constraint problems over partial
model selection variables, plus a solver-independent checker for concrete
graphs. Both sides are built from the same graph predicates so that an
assignment satisfies the problem exactly when the induced graph checks out.

The encoding states each rule once: build_problem() the rules every domain
shares, each domain builder only its own, and no rule that the others
already imply. check() restates every rule, implied ones included, on
purpose: it is the independent statement that brute_force() and the
agreement tests hold the encoding to.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .abstraction import PartialModel
from .domains import CLEVR, FLOWCHART, TAXONOMY, DomainProfile
from .errors import UnknownDomain
from .graph import DECISION, Edge, LabeledGraph, NodeKind, edge_key

LE, GE, EQ = "<=", ">=", "="


@dataclass(frozen=True)
class LinearConstraint:
    terms: tuple[tuple[int, str], ...]  # (coefficient, variable id)
    relation: str  # one of <=, >=, =
    bound: int
    name: str = ""

    def evaluate(self, assignment: dict[str, int]) -> bool:
        lhs = sum(c * assignment[v] for c, v in self.terms)
        if self.relation == LE:
            return lhs <= self.bound
        if self.relation == GE:
            return lhs >= self.bound
        return lhs == self.bound


@dataclass
class NodeVar:
    var: str
    elem_id: str
    kind: NodeKind
    label: str  # representative label
    # The node's degree row, if any, as limits that hold while it is
    # selected; max_in None means no cap.
    min_in: int = 0
    max_in: int | None = None
    min_out: int = 0


@dataclass
class EdgeVar:
    var: str
    source: str  # node variable id
    target: str
    label: str  # representative label
    norm_label: str


def node_var(elem_id: str) -> str:
    return f"n:{elem_id}"


def edge_var(key: tuple[str, str, str]) -> str:
    return f"e:{key[0]}|{key[1]}|{key[2]}"


@dataclass
class ConstraintProblem:
    profile: DomainProfile
    nodes: dict[str, NodeVar] = field(default_factory=dict)
    edges: dict[str, EdgeVar] = field(default_factory=dict)
    fixed: dict[str, int] = field(default_factory=dict)
    linear: list[LinearConstraint] = field(default_factory=list)
    # Whole-graph rules: acyclic | single_source | single_sink | reachable_from_source
    global_rules: tuple[str, ...] = ()
    weights: dict[str, float] = field(default_factory=dict)

    @property
    def variables(self) -> list[str]:
        return list(self.nodes) + list(self.edges)

    def selected_structure(self, assignment: dict[str, int]) -> tuple[set[str], list[tuple[str, str, str]]]:
        nodes = {v for v in self.nodes if assignment.get(v, 0) == 1}
        edges = [
            (e.source, e.target, e.norm_label)
            for v, e in self.edges.items()
            if assignment.get(v, 0) == 1
        ]
        return nodes, edges

    def satisfied(self, assignment: dict[str, int]) -> bool:
        """Full satisfaction test for a total assignment."""
        for var, value in self.fixed.items():
            if assignment.get(var, 0) != value:
                return False
        for var, edge in self.edges.items():
            if assignment.get(var, 0) == 1:
                if assignment.get(edge.source, 0) != 1 or assignment.get(edge.target, 0) != 1:
                    return False
        for lc in self.linear:
            if not lc.evaluate({v: assignment.get(v, 0) for _, v in lc.terms}):
                return False
        nodes, edges = self.selected_structure(assignment)
        return all(global_holds(rule, nodes, edges) for rule in self.global_rules)

    def induced_graph(self, assignment: dict[str, int]) -> LabeledGraph | None:
        """Materialize the selected elements; None when an edge dangles. The
        edges are one per partial-model edge key, so unique by construction,
        and the graph keeps no edge-key set."""
        g = LabeledGraph()
        for var, nv in self.nodes.items():
            if assignment.get(var, 0) == 1:
                g.add_node(nv.label, nv.kind, node_id=nv.elem_id)
        for var, ev in self.edges.items():
            if assignment.get(var, 0) == 1:
                src = self.nodes[ev.source].elem_id
                tgt = self.nodes[ev.target].elem_id
                if src not in g.nodes or tgt not in g.nodes:
                    return None
                g.edges.append(Edge(src, tgt, ev.label))
        return g


# ---------------------------------------------------------------------------
# Graph predicates shared by the checker and the solver's leaf test.
# Edges are (source, target, normalized label) triples over node ids.


def out_degree(nodes: set[str], edges: list[tuple[str, str, str]]) -> dict[str, int]:
    deg = {n: 0 for n in nodes}
    for s, _, _ in edges:
        deg[s] += 1
    return deg


def in_degree(nodes: set[str], edges: list[tuple[str, str, str]]) -> dict[str, int]:
    deg = {n: 0 for n in nodes}
    for _, t, _ in edges:
        deg[t] += 1
    return deg


def source_nodes(nodes: set[str], edges: list[tuple[str, str, str]]) -> list[str]:
    deg = in_degree(nodes, edges)
    return sorted(n for n in nodes if deg[n] == 0)


def sink_nodes(nodes: set[str], edges: list[tuple[str, str, str]]) -> list[str]:
    deg = out_degree(nodes, edges)
    return sorted(n for n in nodes if deg[n] == 0)


def find_cycle(nodes: set[str], edges: list[tuple[str, str, str]]) -> list[str]:
    """Nodes on some directed cycle, empty when acyclic (Kahn peeling)."""
    indeg = in_degree(nodes, edges)
    out = {n: [] for n in nodes}
    for s, t, _ in edges:
        out[s].append(t)
    queue = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while queue:
        n = queue.pop()
        seen += 1
        for t in out[n]:
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    return sorted(n for n in nodes if indeg[n] > 0)


def unreachable_from_sources(nodes: set[str], edges: list[tuple[str, str, str]]) -> list[str]:
    """Nodes not reachable from the set of zero-in-degree nodes."""
    out = {n: [] for n in nodes}
    for s, t, _ in edges:
        out[s].append(t)
    stack = source_nodes(nodes, edges)
    seen = set(stack)
    while stack:
        n = stack.pop()
        for t in out[n]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sorted(n for n in nodes if n not in seen)


def global_holds(rule: str, nodes: set[str], edges: list[tuple[str, str, str]]) -> bool:
    if rule == "acyclic":
        return not find_cycle(nodes, edges)
    if rule == "single_source":
        return len(source_nodes(nodes, edges)) == 1
    if rule == "single_sink":
        return len(sink_nodes(nodes, edges)) == 1
    if rule == "reachable_from_source":
        return not unreachable_from_sources(nodes, edges)
    raise ValueError(f"unknown global rule {rule!r}")


# ---------------------------------------------------------------------------
# Problem construction


def build_problem(partial: PartialModel, profile: DomainProfile) -> ConstraintProblem:
    """The rules every domain shares, then the domain's own. An edge needs
    both endpoints: satisfied() checks that and the solver propagates it, so
    it takes no row."""
    domain_rules = _DOMAIN_BUILDERS.get(profile.name)
    if domain_rules is None:
        raise UnknownDomain(profile.name)
    # One source, from which every node is reachable.
    problem = ConstraintProblem(profile, global_rules=("single_source", "reachable_from_source"))
    for elem_id, elem in partial.nodes.items():
        var = node_var(elem_id)
        problem.nodes[var] = NodeVar(var, elem_id, elem.kind, elem.representative_label)
    for key, elem in partial.edges.items():
        var = edge_var(key)
        problem.edges[var] = EdgeVar(var, node_var(key[0]), node_var(key[1]),
                                     elem.representative_label, key[2])
        if key[0] == key[1]:
            problem.fixed[var] = 0  # no self-loops
    # Single source implies this row; the solver's propagation still uses it.
    problem.linear.append(
        LinearConstraint(tuple((1, v) for v in problem.nodes), GE, 1, "at_least_one_node")
    )
    domain_rules(problem)
    return problem


def _out_edge_vars(problem: ConstraintProblem, nvar: str) -> list[str]:
    return [v for v, e in problem.edges.items() if e.source == nvar]


def _in_edge_vars(problem: ConstraintProblem, nvar: str) -> list[str]:
    return [v for v, e in problem.edges.items() if e.target == nvar]


def _degree_row(problem: ConstraintProblem, nvar: str, edge_vars: list[str],
                relation: str, k: int, name: str) -> None:
    """Add a node's degree row, sum(edge_vars) - k * node (relation) 0, and
    record on the node what it states: at least k out-edges for >= over its
    out-edges; at most k, or exactly k for =, in-edges over its in-edges."""
    terms = tuple((1, v) for v in edge_vars) + ((-k, nvar),)
    problem.linear.append(LinearConstraint(terms, relation, 0, name))
    node = problem.nodes[nvar]
    if relation == GE:
        node.min_out = k
    else:
        node.max_in = k
        node.min_in = k if relation == EQ else 0


def _flowchart_constraints(problem: ConstraintProblem) -> None:
    for nvar, node in problem.nodes.items():
        if node.kind == DECISION:
            out_vars = _out_edge_vars(problem, nvar)
            _degree_row(problem, nvar, out_vars, GE, 2, "decision_min_out")
            for evar in out_vars:
                if problem.edges[evar].norm_label == "":
                    problem.fixed[evar] = 0  # decision arms need a condition


def _taxonomy_constraints(problem: ConstraintProblem) -> None:
    # With one parent each and a single root, a node on a cycle has its
    # parent on the cycle, so the root cannot reach it: reachability already
    # rules cycles out, and acyclic takes no rule.
    for nvar in problem.nodes:
        in_vars = _in_edge_vars(problem, nvar)
        if in_vars:
            _degree_row(problem, nvar, in_vars, LE, 1, "single_parent")


def _clevr_constraints(problem: ConstraintProblem) -> None:
    from . import clevr as clevr_ops  # the op catalog; other domains never load it

    # Every op but scene has arity >= 1, and its arity row gives it that many
    # parents, so only a scene can be the source: that rule takes no row.
    problem.global_rules += ("acyclic", "single_sink")

    def entry_of(node: NodeVar):
        if node.kind.is_clevr:
            return clevr_ops.lookup(node.kind.op)
        return None

    for var, edge in problem.edges.items():
        src_entry = entry_of(problem.nodes[edge.source])
        tgt_entry = entry_of(problem.nodes[edge.target])
        if src_entry is None or tgt_entry is None:
            problem.fixed[var] = 0  # non-operation node can take no part
            continue
        pos = edge.norm_label
        if tgt_entry.arity == 0 or pos not in {str(p) for p in range(tgt_entry.arity)}:
            problem.fixed[var] = 0  # invalid argument position
            continue
        if src_entry.output_type != tgt_entry.input_types[int(pos)]:
            problem.fixed[var] = 0  # type-incompatible wiring

    for nvar, node in problem.nodes.items():
        entry = entry_of(node)
        if entry is None:
            problem.fixed[nvar] = 0
            continue
        in_vars = _in_edge_vars(problem, nvar)
        _degree_row(problem, nvar, in_vars, EQ, entry.arity, "arity")
        if entry.arity == 2:
            for pos in ("0", "1"):
                pos_vars = [v for v in in_vars if problem.edges[v].norm_label == pos]
                terms = tuple((1, v) for v in pos_vars) + ((-1, nvar),)
                problem.linear.append(LinearConstraint(terms, EQ, 0, f"arg_position_{pos}"))


_DOMAIN_BUILDERS = {FLOWCHART: _flowchart_constraints, TAXONOMY: _taxonomy_constraints,
                 CLEVR: _clevr_constraints}


# ---------------------------------------------------------------------------
# Concrete-graph checker


@dataclass(frozen=True)
class Violation:
    name: str
    witnesses: tuple[str, ...]


@dataclass
class ConsistencyReport:
    consistent: bool
    violations: list[Violation]

    def to_json(self) -> str:
        data = {
            "consistent": self.consistent,
            "violations": [{"name": v.name, "witnesses": list(v.witnesses)} for v in self.violations],
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


def check(graph: LabeledGraph, profile: DomainProfile) -> ConsistencyReport:
    """Evaluate every domain constraint directly on a concrete graph."""
    if profile.name == FLOWCHART:
        violations = _check_flowchart(graph)
    elif profile.name == TAXONOMY:
        violations = _check_taxonomy(graph)
    elif profile.name == CLEVR:
        violations = _check_clevr(graph)
    else:
        raise UnknownDomain(profile.name)
    return ConsistencyReport(not violations, violations)


def _structure(graph: LabeledGraph):
    return set(graph.nodes), [edge_key(e.source, e.target, e.label) for e in graph.edges]


def _edge_name(triple: tuple[str, str, str]) -> str:
    s, t, l = triple
    return f"{s}->{t}" + (f"[{l}]" if l else "")


def _check_flowchart(graph: LabeledGraph) -> list[Violation]:
    nodes, edges = _structure(graph)
    violations = []
    sources = source_nodes(nodes, edges)
    if len(sources) != 1:
        violations.append(Violation("single_source", tuple(sources)))
    unreachable = unreachable_from_sources(nodes, edges)
    if unreachable:
        violations.append(Violation("reachable_from_source", tuple(unreachable)))
    outdeg = out_degree(nodes, edges)
    bad = sorted(n for n in nodes if graph.nodes[n].kind == DECISION and outdeg[n] < 2)
    if bad:
        violations.append(Violation("decision_min_out", tuple(bad)))
    unlabeled = [
        _edge_name(t) for t in edges if graph.nodes[t[0]].kind == DECISION and t[2] == ""
    ]
    if unlabeled:
        violations.append(Violation("decision_edge_condition", tuple(sorted(unlabeled))))
    loops = sorted(_edge_name(t) for t in edges if t[0] == t[1])
    if loops:
        violations.append(Violation("no_self_loop", tuple(loops)))
    return violations


def _check_taxonomy(graph: LabeledGraph) -> list[Violation]:
    nodes, edges = _structure(graph)
    violations = []
    cyclic = find_cycle(nodes, edges)
    if cyclic:
        violations.append(Violation("acyclic", tuple(cyclic)))
    roots = source_nodes(nodes, edges)
    if len(roots) != 1:
        violations.append(Violation("single_root", tuple(roots)))
    indeg = in_degree(nodes, edges)
    multi = sorted(n for n in nodes if indeg[n] > 1)
    if multi:
        violations.append(Violation("single_parent", tuple(multi)))
    unreachable = unreachable_from_sources(nodes, edges)
    if unreachable:
        violations.append(Violation("reachable_from_root", tuple(unreachable)))
    return violations


def _check_clevr(graph: LabeledGraph) -> list[Violation]:
    from . import clevr as clevr_ops

    nodes, edges = _structure(graph)
    violations = []
    cyclic = find_cycle(nodes, edges)
    if cyclic:
        violations.append(Violation("acyclic", tuple(cyclic)))
    sources = source_nodes(nodes, edges)
    if len(sources) != 1:
        violations.append(Violation("single_source", tuple(sources)))
    sinks = sink_nodes(nodes, edges)
    if len(sinks) != 1:
        violations.append(Violation("single_sink", tuple(sinks)))
    unreachable = unreachable_from_sources(nodes, edges)
    if unreachable:
        violations.append(Violation("reachable_from_source", tuple(unreachable)))

    bad_kind = sorted(
        n for n in nodes
        if not graph.nodes[n].kind.is_clevr or clevr_ops.lookup(graph.nodes[n].kind.op) is None
    )
    if bad_kind:
        violations.append(Violation("operation_kind", tuple(bad_kind)))
        return violations

    non_scene = [n for n in sources if graph.nodes[n].kind.op != "scene"]
    if non_scene:
        violations.append(Violation("source_is_scene", tuple(non_scene)))

    arity_bad, pos_bad, type_bad = [], [], []
    incoming: dict[str, list[tuple[str, str, str]]] = {n: [] for n in nodes}
    for triple in edges:
        incoming[triple[1]].append(triple)
    for n in sorted(nodes):
        entry = clevr_ops.lookup(graph.nodes[n].kind.op)
        valid = {str(p) for p in range(entry.arity)}
        counts = {p: 0 for p in valid}
        for triple in incoming[n]:
            src, _, pos = triple
            if pos not in valid:
                pos_bad.append(_edge_name(triple))
                continue
            counts[pos] += 1
            src_entry = clevr_ops.lookup(graph.nodes[src].kind.op)
            if src_entry.output_type != entry.input_types[int(pos)]:
                type_bad.append(_edge_name(triple))
        if any(c != 1 for c in counts.values()):
            arity_bad.append(n)
    if pos_bad:
        violations.append(Violation("arg_position", tuple(sorted(pos_bad))))
    if arity_bad:
        violations.append(Violation("arity", tuple(sorted(arity_bad))))
    if type_bad:
        violations.append(Violation("arg_type", tuple(sorted(type_bad))))
    return violations
