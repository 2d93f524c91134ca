from __future__ import annotations

import random

import pytest

from abscon.clevr import (
    _CATALOG,
    Attr,
    Count,
    ExecError,
    ObjectSet,
    Scene,
    SceneObject,
    SingleObject,
    Truth,
    answer_from_json,
    answer_to_json,
    answers_equal,
    clevr_op,
    execute,
    lookup,
)
from abscon.constraints import check
from abscon.domains import profile
from abscon.graph import ACTIVITY, LabeledGraph
from abscon.notation import Notation, parse
from genutil import random_clevr_program, random_scene


def scene_with(objs):
    """Scene from (color, shape, size, material) rows laid out left to right
    and front to back in listing order."""
    objects = [SceneObject(i, *row) for i, row in enumerate(objs)]
    n = len(objects)
    relations = {
        "left": [[j for j in range(n) if j < i] for i in range(n)],
        "right": [[j for j in range(n) if j > i] for i in range(n)],
        "front": [[j for j in range(n) if j < i] for i in range(n)],
        "behind": [[j for j in range(n) if j > i] for i in range(n)],
    }
    return Scene(objects, relations)


BASIC = scene_with([
    ("red", "cube", "small", "rubber"),
    ("blue", "sphere", "large", "metal"),
    ("red", "sphere", "small", "rubber"),
])


def program(text: str) -> LabeledGraph:
    return parse(text, Notation.CLEVR_PROGRAM).graph


def test_catalog_entries():
    entries = _CATALOG
    assert lookup("unique").arity == 1
    assert lookup("unique").input_types == ("ObjectSet",)
    assert lookup("unique").output_type == "SingleObject"
    assert lookup("scene").arity == 0
    assert not lookup("less_than").commutative
    assert lookup("equal_integer").commutative
    assert {e.name for e in entries.values() if e.arity == 0} == {"scene"}


def test_clevr_op_validation():
    with pytest.raises(ValueError):
        clevr_op("warp")
    with pytest.raises(ValueError):
        clevr_op("filter_color")  # parameter required
    with pytest.raises(ValueError):
        clevr_op("count", "3")  # no parameter allowed


def test_execute_count():
    assert execute(program("n0: scene()\nn1: count(n0)"), BASIC) == Count(3)


def test_execute_filter_exist_false():
    result = execute(program("n0: scene()\nn1: filter_color[green](n0)\nn2: exist(n1)"), BASIC)
    assert result == Truth(False)


def test_execute_unique_query_color():
    scene = scene_with([
        ("red", "cube", "small", "rubber"),
        ("blue", "sphere", "large", "metal"),
    ])
    text = "n0: scene()\nn1: filter_shape[cube](n0)\nn2: unique(n1)\nn3: query_color(n2)"
    assert execute(program(text), scene) == Attr("red")


def test_execute_non_unique():
    result = execute(program("n0: scene()\nn1: unique(n0)"), BASIC)
    assert result == ExecError("non_unique")


def test_execute_same_attr_excludes_self():
    text = (
        "n0: scene()\nn1: filter_shape[cube](n0)\nn2: unique(n1)\n"
        "n3: same_color(n2)\nn4: count(n3)"
    )
    assert execute(program(text), BASIC) == Count(1)  # the other red object only


def test_execute_relate():
    text = "n0: scene()\nn1: filter_shape[cube](n0)\nn2: unique(n1)\nn3: relate[right](n2)\nn4: count(n3)"
    assert execute(program(text), BASIC) == Count(2)


def test_execute_relate_unknown_relation():
    text = "n0: scene()\nn1: filter_shape[cube](n0)\nn2: unique(n1)\nn3: relate[above](n2)\nn4: count(n3)"
    assert execute(program(text), BASIC) == ExecError("unknown_relation")


def test_execute_commutative_op_takes_unlabeled_arguments():
    def counts_equal(label_a, label_b):
        g = LabeledGraph()
        s = g.add_node("", clevr_op("scene"))
        red = g.add_node("", clevr_op("filter_color", "red"))
        small = g.add_node("", clevr_op("filter_size", "small"))
        c1, c2 = g.add_node("", clevr_op("count")), g.add_node("", clevr_op("count"))
        eq = g.add_node("", clevr_op("equal_integer"))
        for a, b in [(s, red), (s, small), (red, c1), (small, c2)]:
            g.add_edge(a, b, "0")
        g.add_edge(c1, eq, label_a)
        g.add_edge(c2, eq, label_b)
        return execute(g, BASIC)

    assert counts_equal("", "") == counts_equal("0", "1") == Truth(True)


def test_execute_binary_ops():
    text = (
        "a: scene()\nb: filter_color[red](a)\nc: count(b)\n"
        "d: scene()\ne: filter_color[blue](d)\nf: count(e)\n"
        "g: greater_than(c, f)"
    )
    assert execute(program(text), BASIC) == Truth(True)
    text = text.replace("greater_than", "less_than")
    assert execute(program(text), BASIC) == Truth(False)


def test_execute_cycle_is_error():
    g = LabeledGraph()
    a = g.add_node("", clevr_op("filter_color", "red"))
    b = g.add_node("", clevr_op("filter_color", "blue"))
    g.add_edge(a, b, "0")
    g.add_edge(b, a, "0")
    assert execute(g, BASIC) == ExecError("cycle")


def test_execute_arity_and_type_errors():
    g = LabeledGraph()
    s = g.add_node("", clevr_op("scene"))
    u = g.add_node("", clevr_op("unique"))
    q = g.add_node("", clevr_op("query_color"))
    g.add_edge(s, q, "0")  # ObjectSet into a SingleObject slot
    g.add_edge(s, u, "0")
    assert execute(g, BASIC) == ExecError("multiple_sinks")
    g2 = LabeledGraph()
    s2 = g2.add_node("", clevr_op("scene"))
    q2 = g2.add_node("", clevr_op("query_color"))
    g2.add_edge(s2, q2, "0")
    assert execute(g2, BASIC) == ExecError("arg_type")


def test_execute_arg_order_strictness():
    g = LabeledGraph()
    s = g.add_node("", clevr_op("scene"))
    c1 = g.add_node("", clevr_op("count"))
    c2 = g.add_node("", clevr_op("count"))
    lt = g.add_node("", clevr_op("less_than"))
    g.add_edge(s, c1, "0")
    g.add_edge(s, c2, "0")
    g.add_edge(c1, lt, "0")
    g.add_edge(c2, lt, "x")  # malformed position on a non-commutative op
    assert execute(g, BASIC) == ExecError("arg_order")


def test_execute_never_raises_on_non_programs():
    g = LabeledGraph()
    g.add_node("hello", ACTIVITY)
    assert execute(g, BASIC) == ExecError("not_a_program")
    assert execute(LabeledGraph(), BASIC) == ExecError("empty_program")


def test_answers_equal_rules():
    assert answers_equal(Count(2), Count(2))
    assert not answers_equal(Truth(False), Count(0))
    assert answers_equal(ExecError("x"), ExecError("y"))
    assert not answers_equal(ExecError("x"), Truth(False))
    assert answers_equal(ObjectSet((1, 2)), ObjectSet((2, 1)))
    assert not answers_equal(SingleObject(1), SingleObject(2))


def test_answer_json_round_trip():
    for answer in (Count(2), Truth(True), Attr("red"), ExecError("cycle"),
                   ObjectSet((0, 2)), SingleObject(1)):
        assert answers_equal(answer_from_json(answer_to_json(answer)), answer)


def test_scene_json_round_trip():
    text = BASIC.to_json()
    back = Scene.from_json(text)
    assert back.to_json() == text
    assert back.objects == BASIC.objects


def test_scene_validation():
    with pytest.raises(ValueError):
        scene_with([("pink", "cube", "small", "rubber")])
    with pytest.raises(ValueError):
        Scene(
            [SceneObject(0, "red", "cube", "small", "rubber")],
            {"left": [[0]], "right": [[]], "front": [[]], "behind": [[]]},
        )


def _relations(**lists):
    """The relations of a two-object scene with nothing related, then lists."""
    return {**{name: [[], []] for name in ("left", "right", "front", "behind")}, **lists}


TWO = [SceneObject(0, "red", "cube", "small", "rubber"),
       SceneObject(1, "blue", "sphere", "large", "metal")]


@pytest.mark.parametrize("objects, relations, named", [
    (TWO[::-1], _relations(), "object ids"),
    (TWO, _relations(left=[[]]), "one list per object"),
    (TWO, _relations(left=[[2], []]), "unknown object"),
    (TWO, _relations(left=[[1], []]), "not mutually inverse"),
], ids=["ids_out_of_order", "list_missing", "unknown_object", "not_inverse"])
def test_scene_rule_raises(objects, relations, named):
    with pytest.raises(ValueError, match=named):
        Scene(objects, relations)


def test_consistent_programs_only_fail_semantically():
    rng = random.Random(23)
    prof = profile("clevr")
    for _ in range(40):
        prog = random_clevr_program(rng)
        assert check(prog, prof).consistent
        answer = execute(prog, random_scene(rng))
        if isinstance(answer, ExecError):
            assert answer.reason == "non_unique"


def test_filter_on_empty_set_and_count_scene():
    text = "n0: scene()\nn1: filter_color[green](n0)\nn2: filter_size[small](n1)\nn3: count(n2)"
    assert execute(program(text), BASIC) == Count(0)
    assert execute(program("n0: scene()\nn1: count(n0)"), BASIC) == Count(len(BASIC.objects))
