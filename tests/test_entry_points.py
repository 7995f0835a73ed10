"""The library's entry contract: each value type has one checked way in, and a
malformed node-set argument raises a TypeError (wrong Python type) or one of the
package's errors, never a raw error from deep inside and never a silent misread."""

import inspect
import math
import re
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ztransport as zt
from ztransport import expr as E
from ztransport import oracle
from ztransport.expr import is_int

from helpers import Tables, fig2a

ERRORS = (zt.InputError, zt.GraphError, zt.ExprError, zt.EvalError, zt.OracleError)


def test_the_value_types_are_made_by_their_maker_alone():
    d = fig2a()
    g = d.graph
    pair = zt.generate_pair(d, seed=1)
    for cls, args, maker in (
        (zt.SemiMarkovianGraph, (g.nodes, g.parent_bits, g.sibling_bits), "SemiMarkovianGraph.create"),
        (zt.SelectionDiagram, (g, frozenset({"Z"})), "SelectionDiagram.create"),
        (zt.Query, (frozenset({"X"}), frozenset({"Y"}), frozenset()), "Query.create"),
        (zt.DistributionSet, (pair, frozenset({"Z"})), "build_distribution_set"),
    ):
        for given_args in (args, ()):  # no arguments would make a value with no fields
            with pytest.raises(TypeError, match=rf"^{cls.__name__} is not called: {re.escape(maker)} makes it$"):
                cls(*given_args)
    # equality, hashing and repr read the fields alone, as the generated ones did
    again = zt.SemiMarkovianGraph.create(["W", "Z", "X", "Y"], g.directed_edges, [tuple(e) for e in g.bidirected_edges])
    assert again == g and hash(again) == hash(g) and again.index == g.index
    assert repr(g) == "SemiMarkovianGraph(nodes=('W', 'Z', 'X', 'Y'), parent_bits=(0, 1, 2, 4), sibling_bits=(8, 12, 2, 3))"
    assert zt.Query.create(["X"], ["Y"]) == zt.Query.create({"X"}, ("Y",), [])
    assert repr(zt.Query.create(["X"], ["Y"])) == "Query(x=frozenset({'X'}), y=frozenset({'Y'}), z=frozenset())"
    assert zt.build_distribution_set(pair, ["Z"]) == zt.build_distribution_set(pair, ("Z", "Z"))


def test_a_misread_the_unchecked_constructors_allowed_is_refused():
    d = fig2a()
    g = d.graph
    # the class calls that misread (Z and W marked; Q dropped; an overlapping query
    # validated to a small error) cannot be written, and create refuses their arguments
    with pytest.raises(TypeError):
        zt.SelectionDiagram(g, "ZW")
    with pytest.raises(zt.InputError, match="^s_targets must be a collection of node names, not the string 'ZW'$"):
        zt.SelectionDiagram.create(g, "ZW")
    with pytest.raises(TypeError):
        zt.SelectionDiagram(g, frozenset({"Q"}))
    with pytest.raises(zt.InputError, match=r"^unknown node\(s\): 'Q'$"):
        zt.SelectionDiagram.create(g, frozenset({"Q"}))
    formula = zt.sid_z(["Y"], ["X"], d, ["Z"]).formula
    pair = zt.generate_pair(d, seed=1)
    with pytest.raises(TypeError):
        zt.validate_formula(formula, pair, zt.Query(frozenset({"X"}), frozenset({"X", "Y"})))
    with pytest.raises(zt.InputError, match=r"^x and y overlap: \['X'\]$"):
        zt.validate_formula(formula, pair, zt.Query.create(frozenset({"X"}), frozenset({"X", "Y"})))


def test_an_unknown_node_that_is_not_a_string_is_named():
    d = fig2a()
    g = d.graph
    for call in (
        lambda: zt.ancestors(g, [1]),
        lambda: zt.sid_z(y=[1], x=["X"], d=d, z=["Z"]),
        lambda: zt.SelectionDiagram.create(g, [1]),
    ):
        with pytest.raises(zt.InputError, match=r"^unknown node\(s\): 1$"):
            call()
    # each is spelled by its repr, which tells 1 from "1", and the spellings are sorted
    with pytest.raises(zt.InputError, match=r"^unknown node\(s\): '1', 'Q', \('X',\), 1, None$"):
        zt.ancestors(g, ["Q", ("X",), None, "1", 1, "Y"])
    # a query, checked against a graph only when used, names its overlap the same way
    with pytest.raises(zt.InputError, match=r"^x and y overlap: \['X', 1\]$"):
        zt.Query.create([1, "X"], ["Y", "X", 1])


# A node-set argument is drawn as (kind, items): a container of items, a bare
# string, or a scalar.  Two draws in three are containers of known names, so
# many calls are accepted.
NAMES = ("W", "Z", "X", "Y")
ITEMS = st.one_of(
    st.sampled_from(("Q", "w", "", "X Y", "1")),  # unknown, case twin, not names
    st.integers(-1, 70),
    st.booleans(),
    st.none(),
    st.lists(st.sampled_from(NAMES), max_size=2),  # nested, unhashable
    st.tuples(st.sampled_from(NAMES)),  # nested, hashable
)
CONTAINERS = ("list", "tuple", "iter")
NODE_SETS = st.one_of(
    st.tuples(st.sampled_from(CONTAINERS), st.lists(st.sampled_from(NAMES), max_size=3, unique=True)),
    st.tuples(st.sampled_from(CONTAINERS), st.lists(st.sampled_from(NAMES), max_size=5)),  # repeats
    st.one_of(
        st.tuples(st.sampled_from(CONTAINERS), st.lists(st.one_of(st.sampled_from(NAMES), ITEMS), max_size=4)),
        st.tuples(st.just("str"), st.text("WZXYQ", max_size=3)),
        st.tuples(st.just("scalar"), st.one_of(st.integers(-1, 3), st.none())),
    ),
)


def build(arg):
    kind, items = arg
    return {"list": list, "tuple": tuple, "iter": lambda xs: (x for x in xs)}.get(kind, lambda x: x)(items)


def unreadable(arg) -> bool:
    """Not iterable, or holding an item that is not hashable: the arguments that may
    raise TypeError at the entry point."""
    kind, items = arg
    return kind == "scalar" or kind in CONTAINERS and any(isinstance(i, list) for i in items)


DIAGRAM = fig2a()
GRAPH = DIAGRAM.graph
# each entry point, with a letter per drawn argument: "g" a node set of GRAPH (a cut
# too), "a" any names (a query is checked when it is used), "n" a node list whose
# order counts
CALLS = {
    "SemiMarkovianGraph.create": (lambda nodes: zt.SemiMarkovianGraph.create(nodes), "n"),
    "SelectionDiagram.create": (lambda s: zt.SelectionDiagram.create(GRAPH, s), "g"),
    "Query.create": (lambda x, y, z: zt.Query.create(x, y, z), "aaa"),
    "ancestors": (lambda w, cut, within: zt.ancestors(GRAPH, w, cut, within), "ggg"),
    "c_components": (lambda w: zt.c_components(GRAPH, w), "g"),
    "induced_subgraph": (lambda w, cut: zt.induced_subgraph(GRAPH, w, cut), "gg"),
    "mutilate": (lambda cut: zt.mutilate(GRAPH, cut), "g"),
    "topological_order": (lambda w, cut: zt.topological_order(GRAPH, w, cut), "gg"),
    "sid_z": (lambda y, x, z: zt.sid_z(y, x, DIAGRAM, z), "ggg"),
    "gid_z": (lambda y, x, z: zt.gid_z(y, x, z, GRAPH), "ggg"),
}


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_malformed_node_set_raises_a_type_or_package_error_and_is_never_misread(name, data):
    fn, spec = CALLS[name]
    args = [data.draw(NODE_SETS) for _ in inspect.signature(fn).parameters]
    try:
        got = fn(*map(build, args))
    except TypeError:
        assert any(map(unreadable, args))
        return
    except ERRORS:
        return
    for (kind, items), letter in zip(args, spec):
        assert kind != "str"  # a bare string is never read as its characters
        if kind in CONTAINERS and letter == "g":
            assert all(i in NAMES for i in items)  # no unknown name is dropped
    cleaned = [
        (tuple(items) if letter == "n" else sorted(set(items), key=repr)) if kind in CONTAINERS else build((kind, items))
        for (kind, items), letter in zip(args, spec)
    ]
    assert got == fn(*cleaned)


def test_a_pair_refuses_a_domain_or_do_set_it_does_not_have(monkeypatch):
    pair = zt.generate_pair(fig2a(), seed=1)  # holds the source and target joints
    held = dict(pair._joints)
    for args, message in (
        (("tgt",), "domain must be 'source' or 'target', not 'tgt'"),
        ((E.SOURCE, frozenset({"Q"})), "unknown node(s): 'Q'"),
        ((E.SOURCE, "XY"), "do must be a collection of node names, not the string 'XY'"),
    ):
        with pytest.raises(zt.InputError, match=rf"^{re.escape(message)}$"):
            pair.joint(*args)
    for do in (("X",), {"X"}, ["X"], None):  # a set would be unhashable as a key
        with pytest.raises(TypeError, match=rf"^do must be a frozenset, not {type(do).__name__}$"):
            pair.joint(E.SOURCE, do)
    assert pair._joints == held  # nothing made, kept or counted
    # a held array is served without a check
    x = pair.joint(E.SOURCE, frozenset({"X"}))
    monkeypatch.setattr(zt.SemiMarkovianGraph, "check_nodes", None)
    assert pair.joint(E.SOURCE, frozenset({"X"})) is x


# -- expressions ----------------------------------------------------------------
# An expression is drawn as a recipe: leaves are terms made by ``term`` from drawn node
# sets, ``Term``s made from tuples of names (it takes its names as given), well-formed
# terms, or junk that is no ProbExpr; inner nodes are made by the builders (``product``,
# ``sum_over``, ``marginal_sum``) or the node classes (``Product``, ``Sum``, ``Quotient``).
PAIR = zt.generate_pair(DIAGRAM, seed=1)
TABLES = zt.build_distribution_set(PAIR, ["Z"])
JUNK = (3, None, "Y", ("Y",), frozenset({"Y"}))
NAME_TUPLES = st.lists(st.sampled_from(NAMES), max_size=2, unique=True).map(tuple)
GOOD = st.tuples(st.just("good"), st.sampled_from((E.SOURCE, E.TARGET)), st.permutations(NAMES),
                 st.integers(1, 2), st.integers(0, 2))
LEAVES = st.one_of(
    GOOD, GOOD, GOOD,  # so that most leaves are made
    st.tuples(st.just("term"), st.sampled_from((E.SOURCE, E.TARGET, "moon")), NODE_SETS, NODE_SETS, NODE_SETS),
    st.tuples(st.just("Term"), st.sampled_from((E.SOURCE, E.TARGET, "moon")), NAME_TUPLES, NAME_TUPLES, NAME_TUPLES),
    st.tuples(st.just("junk"), st.sampled_from(JUNK)),
)
OVER = st.one_of(st.frozensets(st.sampled_from(NAMES + ("Y'",)), min_size=1, max_size=2),
                 st.sampled_from(("XY", ["X"], frozenset({1}), frozenset())))
RECIPES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.tuples(st.just("product"), st.lists(kids, max_size=3)),
    st.tuples(st.just("Product"), st.sampled_from(("tuple",) + CONTAINERS), st.lists(kids, min_size=1, max_size=3)),
    st.tuples(st.just("sum_over"), NODE_SETS, kids),
    st.tuples(st.just("marginal_sum"), NODE_SETS, kids),
    st.tuples(st.just("Sum"), OVER, kids),
    st.tuples(st.just("Quotient"), kids, kids),
), max_leaves=5)


class Refused(Exception):
    """A builder or node refused its arguments as the contract allows."""


def refusable(call, sets=()):
    """``call()``, or Refused if it raises a package error, or a TypeError when one of
    the drawn node ``sets`` is unreadable; a bare string is never accepted."""
    try:
        got = call()
    except TypeError:
        assert any(map(unreadable, sets))
        raise Refused from None
    except ERRORS:
        raise Refused from None
    assert all(kind != "str" for kind, _ in sets)
    return got


def make(recipe):
    """The expression a recipe builds, and whether it holds junk."""
    kind, *args = recipe
    if kind == "junk":
        return args[0], True
    if kind == "good":
        domain, names, k, j = args
        do = names[k + j:] if domain == E.SOURCE else ()
        return E.term(domain, names[:k], names[k:k + j], do), False
    if kind == "term":
        return refusable(lambda: E.term(args[0], *map(build, args[1:])), args[1:]), False
    if kind == "Term":
        return refusable(lambda: E.Term(*args)), False
    if kind in ("product", "Product"):
        kids = [make(k) for k in args[-1]]
        fs = [f for f, _ in kids]
        call = (lambda: E.product(fs)) if kind == "product" else (lambda: E.Product(build((args[0], fs))))
        return refusable(call), any(j for _, j in kids)
    if kind == "Quotient":
        (num, j1), (den, j2) = make(args[0]), make(args[1])
        return E.Quotient(num, den), j1 or j2
    body, junk = make(args[1])
    if kind == "Sum":
        return refusable(lambda: E.Sum(args[0], body)), junk
    fn = E.sum_over if kind == "sum_over" else E.marginal_sum
    return refusable(lambda: fn(build(args[0]), body), [args[0]]), junk


@settings(max_examples=300, deadline=None)
@given(recipe=RECIPES, values=st.lists(st.one_of(st.integers(-1, 2), st.none(), st.booleans()), max_size=8))
def test_a_malformed_expression_raises_a_package_error_and_a_made_one_works(recipe, values):
    try:
        e, junk = make(recipe)
    except Refused:
        return
    if junk:  # each walk that reads no table meets the junk and names it
        for walk in (E.free_variables, E.normalize, E.render, lambda e: E.render(e, "latex"), E.to_json):
            with pytest.raises(zt.ExprError, match="^not a ProbExpr: "):
                walk(e)
    else:
        hash(e)
        assert E.from_json(E.to_json(e)) == e
        assert E.normalize(E.normalize(e)) == E.normalize(e)
        E.render(e), E.render(e, "latex"), list(E.term_corruptions(e))
    binding = dict(zip(sorted(E.free_variables(e)), values)) if not junk else {}
    for call in (lambda: E.validate(e), lambda: E.compile_expr(e, TABLES), lambda: E.evaluate(e, TABLES, binding)):
        try:
            call()
        except (zt.ExprError, zt.EvalError, zt.InputError):
            pass


def test_each_walk_names_a_child_that_is_not_a_prob_expr():
    e = E.Product((E.term(E.TARGET, ["Y"]), 3))
    walks = (E.free_variables, E.validate, E.normalize, E.render, E.to_json, lambda e: E.compile_expr(e, TABLES))
    for walk in walks:
        with pytest.raises(zt.ExprError, match="^not a ProbExpr: 3$"):
            walk(e)


JSON_LEAVES = st.one_of(st.none(), st.integers(-1, 2), st.sampled_from(["Y", "XY", "one", "term", "target"]),
                        st.just({"kind": "term", "domain": "target", "do": [], "outcome": ["Y"], "given": []}))
JSON_KEYS = ("domain", "do", "outcome", "given", "factors", "over", "body", "num", "den")
JSON = st.recursive(JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=3),
    st.fixed_dictionaries({"kind": st.sampled_from(["term", "product", "sum", "ratio", "one"])},
                          optional=dict.fromkeys(JSON_KEYS, kids)),
), max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(obj=JSON)
def test_from_json_reads_an_expression_or_raises_expr_error(obj):
    try:
        e = E.from_json(obj)
    except zt.ExprError:
        return
    hash(e)
    assert E.from_json(E.to_json(e)) == e
    E.render(e)


# -- the oracle and identify's other entry points --------------------------------
# Each argument is drawn as a kind and a value of it; an entry point lists the kinds it
# takes per argument.  A kind it does not take may raise TypeError (naming the argument
# and the type it expected, or a node set that is not iterable) or a package error; a
# kind it takes raises only a package error.  Each kind holds values over another graph too.
OTHER = zt.SelectionDiagram.create(zt.SemiMarkovianGraph.create(["A", "B"], [("A", "B")]), ["B"])
OTHER_PAIR = zt.generate_pair(OTHER, seed=1)
FORMULA = zt.sid_z(["Y"], ["X"], DIAGRAM, ["Z"]).formula
M = PAIR.source
VALUES = {
    "graph": (GRAPH, OTHER.graph),
    "diagram": (DIAGRAM, OTHER),
    "model": (M, PAIR.target, OTHER_PAIR.source),
    "pair": (PAIR, OTHER_PAIR),
    "query": (zt.Query.create(["X"], ["Y"], ["Z"]), zt.Query.create(["A"], ["B"]), zt.Query.create(["Q"], ["Y"])),
    "label": (zt.DistLabel(), zt.DistLabel(E.TARGET), zt.DistLabel(E.SOURCE, frozenset({"Z"}))),
    "tables": (TABLES, zt.build_distribution_set(OTHER_PAIR, [])),
    "formula": (FORMULA, E.term(E.TARGET, ["Y"], ["X"]), E.term(E.SOURCE, ["Q"])),
    "mapping": ({}, {"X": 0}, {"X": 1, "Z": 0}, {"X": 5}, {"Q": 0}, {1: 0}, {"X": True}, M.arities),
    "names": ([], ["Y"], ["X"], ("X", "Z"), ["Z", "W"], ["Q"], "XY", [1]),
    "int": (0, 1, 2, -1),
    "none": (None,),
}
ORACLE_CALLS = {
    "generate_pair": (zt.generate_pair, ("diagram", "int")),
    "DiscreteSCM": (lambda g, arities, latents: zt.DiscreteSCM(g, arities, latents, M.noise, M.functions),
                    ("graph", "mapping", "mapping")),
    "DiscreteModelPair": (zt.DiscreteModelPair, ("diagram", "model", "model")),
    "enumerate_joint": (zt.enumerate_joint, ("model", "mapping none")),
    "ground_truth_effect": (zt.ground_truth_effect, ("model", "mapping", "names")),
    "build_distribution_set": (zt.build_distribution_set, ("pair", "names")),
    "validate_formula": (zt.validate_formula, ("formula", "pair", "query", "tables none")),
    "evaluate": (lambda e, binding: zt.evaluate(e, TABLES, binding), ("formula", "mapping")),
    "bi": (zt.bi, ("names", "names", "label", "graph")),
    "transportable": (zt.transportable, ("names", "names", "diagram")),
    "direct_transportable": (zt.direct_transportable, ("names", "diagram")),
    "sid_z": (lambda d: zt.sid_z(["Y"], ["X"], d, ["Z"]), ("diagram",)),
    "gid_z": (lambda g: zt.gid_z(["Y"], ["X"], [], g), ("graph",)),
    "SelectionDiagram.create": (zt.SelectionDiagram.create, ("graph", "names")),
    "ancestors": (lambda g: zt.ancestors(g, ["Y"]), ("graph",)),
    "c_components": (zt.c_components, ("graph",)),
    "induced_subgraph": (lambda g: zt.induced_subgraph(g, ["Y"]), ("graph",)),
    "mutilate": (zt.mutilate, ("graph",)),
    "topological_order": (zt.topological_order, ("graph",)),
}


@pytest.mark.parametrize("name", ORACLE_CALLS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_argument_of_another_type_raises_a_type_error_naming_it(name, data):
    fn, takes = ORACLE_CALLS[name]
    kinds = [data.draw(st.one_of(st.sampled_from(t.split()), st.sampled_from(sorted(VALUES)))) for t in takes]
    args = [data.draw(st.sampled_from(VALUES[k])) for k in kinds]
    try:
        fn(*args)
    except TypeError as e:
        assert re.match(r"^(\w+ must be a \w+, not \w+|'\w+' object is not iterable)$", str(e)), e
        assert any(k not in t.split() for k, t in zip(kinds, takes))
    except (*ERRORS, zt.FailedFactor):  # bi's verdict on a factor it cannot identify
        pass


def test_a_table_supply_is_checked_at_entry():
    # compile_expr and evaluate read nodes, arity and joint off their tables
    for tables in ("tables", PAIR, None, {}):
        message = rf"^tables must be a table supply \(nodes, arity, joint\), not {type(tables).__name__}$"
        with pytest.raises(TypeError, match=message):
            zt.compile_expr(FORMULA, tables)
        with pytest.raises(TypeError, match=message):
            zt.evaluate(FORMULA, tables, {})
    # any value with the three members is one, such as the tests' stand-in
    assert zt.evaluate(E.term(E.TARGET, ["Y"]), Tables(["Y"], [0.25, 0.75]), {"Y": 1}) == 0.75


def test_a_pair_is_over_its_diagram_at_one_set_of_arities():
    # a model over another graph would be read as the diagram's: one node's joint for two
    for source, target in ((M, OTHER_PAIR.source), (OTHER_PAIR.source, M)):
        with pytest.raises(zt.InputError, match="model is over another graph than the diagram's$"):
            zt.DiscreteModelPair(DIAGRAM, source, target)
    # and a target at other arities would fail in numpy when its effect is compared
    with pytest.raises(zt.InputError, match="^the source and target models have different arities$"):
        zt.DiscreteModelPair(DIAGRAM, M, zt.generate_pair(DIAGRAM, seed=1, arity=3).target)


def test_a_table_reads_names_and_assignments_as_given():
    table = zt.enumerate_joint(M)
    with pytest.raises(zt.InputError, match="^keep must be a collection of node names, not the string 'XY'$"):
        table.marginal("XY")
    for call in (lambda: table.prob(["X"]), lambda: table.conditional({"Y": 0}, ["X"])):
        with pytest.raises(TypeError, match="^assignment must be a Mapping, not list$"):
            call()


# -- the table methods, the do-sets a pair and a distribution set read, and edge lists --
# An assignment is drawn as (kind, items): a mapping (a dict, or a read-only view of one)
# of drawn keys to drawn values, or a value that is no mapping.  Keys include unknown names
# and names that are not strings; values include out-of-range ints, bools, floats and None.
TABLE = zt.enumerate_joint(M)  # over W, Z, X, Y at arity 2
KEYS = st.one_of(st.sampled_from(NAMES), st.sampled_from(("Q", "w", "Y'")), st.integers(0, 1), st.none(),
                 st.tuples(st.sampled_from(NAMES)))
CELLS = st.one_of(st.integers(-1, 2), st.integers(0, 1).map(np.int64), st.booleans(), st.none(), st.just(1.0))
MAPPINGS = st.sampled_from(("dict", "proxy"))
ASSIGNMENTS = st.one_of(
    st.tuples(MAPPINGS, st.dictionaries(st.sampled_from(NAMES), st.integers(0, 1), max_size=3)),
    st.tuples(MAPPINGS, st.dictionaries(KEYS, CELLS, max_size=3)),
    st.tuples(st.just("pairs"), st.lists(st.tuples(st.sampled_from(NAMES), st.integers(0, 1)), max_size=2)),
    st.tuples(st.just("str"), st.text("WZXY", max_size=2)),
    st.tuples(st.just("scalar"), st.one_of(st.integers(0, 1), st.none())),
)


def assignment(arg):
    kind, items = arg
    return MappingProxyType(items) if kind == "proxy" else items


def readable(arg) -> bool:
    """A mapping of known names to values in range: an assignment a table reads."""
    kind, items = arg
    return kind in ("dict", "proxy") and all(k in NAMES and is_int(v) and 0 <= v < 2 for k, v in items.items())


def brute_prob(a) -> float:
    """P(a) summed cell by cell over TABLE."""
    axes = {k: TABLE.vars.index(k) for k in a}
    return sum(p for cell, p in np.ndenumerate(TABLE.probs) if all(cell[axes[k]] == v for k, v in a.items()))


TABLE_CALLS = {
    "marginal": (TABLE.marginal, (NODE_SETS,)),
    "prob": (TABLE.prob, (ASSIGNMENTS,)),
    "conditional": (TABLE.conditional, (ASSIGNMENTS, ASSIGNMENTS)),
}


@pytest.mark.parametrize("name", TABLE_CALLS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_table_method_refuses_a_malformed_argument_and_reads_the_rest_as_cleaned(name, data):
    fn, draws = TABLE_CALLS[name]
    args = [data.draw(d) for d in draws]
    build_arg = build if name == "marginal" else assignment
    try:
        got = fn(*map(build_arg, args))
    except TypeError as e:
        if name == "marginal":
            assert unreadable(args[0])
        else:
            assert re.match(r"^assignment must be a Mapping, not \w+$", str(e)), e
            assert any(kind not in ("dict", "proxy") for kind, _ in args)
        return
    except (zt.InputError, zt.EvalError) as e:
        assert isinstance(e, zt.EvalError) or args[0][0] == "str"  # a bare string of names is an InputError
        return
    if name == "marginal":
        kind, items = args[0]
        assert kind != "str" and all(i in NAMES for i in items)  # nothing misread or dropped
        assert np.array_equal(got, fn(sorted(set(items))))
        return
    assert all(map(readable, args))
    cleaned = [{k: int(v) for k, v in sorted(items.items())} for _, items in args]
    assert got == fn(*cleaned)
    if name == "prob":
        assert math.isclose(got, brute_prob(cleaned[0]), rel_tol=1e-12)
    else:
        outcome, given = cleaned
        assert not outcome.keys() & given.keys()  # P(X=0 | X=1) is no number a table reads
        assert math.isclose(got, brute_prob({**outcome, **given}) / brute_prob(given), rel_tol=1e-12)


# A do-set is drawn as (kind, names); a frozenset of known names is the one a joint reads.
DO_SETS = st.one_of(
    st.tuples(st.sampled_from(("frozenset", "frozenset", "set", "list", "tuple")),
              st.lists(st.sampled_from(NAMES + ("Q", 1)), max_size=3)),
    st.tuples(st.just("str"), st.text("WZXY", max_size=2)),
    st.tuples(st.just("scalar"), st.one_of(st.integers(0, 1), st.none())),
)
DOMAINS = st.sampled_from((E.SOURCE, E.TARGET, "tgt", None))


def do_set(arg):
    kind, items = arg
    return {"frozenset": frozenset, "set": set, "list": list, "tuple": tuple}.get(kind, lambda x: x)(items)


@pytest.mark.parametrize("name", ["DiscreteModelPair.joint", "DistributionSet.joint"])
@settings(max_examples=150, deadline=None)
@given(domain=DOMAINS, arg=DO_SETS)
def test_a_joint_refuses_a_malformed_do_set_and_keeps_nothing_for_it(name, domain, arg):
    fn = PAIR.joint if name == "DiscreteModelPair.joint" else TABLES.joint
    held = dict(PAIR._joints)
    kind, items = arg
    try:
        got = fn(domain, do_set(arg))
    except (TypeError, zt.InputError, zt.EvalError) as e:
        assert PAIR._joints == held
        if isinstance(e, TypeError):
            assert re.match(r"^do must be a frozenset, not \w+$", str(e)), e
            assert kind not in ("frozenset", "str")
        else:
            assert kind != "str" or isinstance(e, zt.InputError)  # a bare string is an InputError
    else:
        assert kind == "frozenset" and domain in (E.SOURCE, E.TARGET) and all(i in NAMES for i in items)
        m = PAIR.target if domain == E.TARGET else PAIR.source
        assert np.array_equal(got, oracle._contract(m, frozenset(items)))
        if name == "DistributionSet.joint":
            assert set(items) <= (TABLES.z if domain == E.SOURCE else set())


@settings(max_examples=100, deadline=None)
@given(v=st.one_of(st.sampled_from(NAMES + ("Y'", "X''", "Q", "", "Q'")), st.integers(0, 1), st.none(),
                   st.tuples(st.sampled_from(NAMES)), st.lists(st.sampled_from(NAMES), max_size=1)))
def test_an_arity_is_read_off_a_slot_name_or_refused(v):
    try:
        got = TABLES.arity(v)
    except TypeError as e:
        assert str(e) == f"v must be a str, not {type(v).__name__}"
        assert not isinstance(v, str)
    except zt.EvalError:
        assert v.rstrip("'") not in NAMES
    else:
        assert got == M.arities[v.rstrip("'")]


# An edge is drawn as (kind, items): a tuple or list of endpoints (pairs, self-loops, too
# few or too many, unknown, not names, unhashable), a set, frozenset or mapping of names,
# a string, or a scalar.  Only a tuple or list of two distinct known names is an arrow;
# a bidirected edge may also be a set or mapping, having no direction.
ENDPOINTS = st.one_of(st.sampled_from(NAMES), st.sampled_from(("Q", "w", "")), st.integers(0, 1), st.none(),
                      st.lists(st.sampled_from(NAMES), max_size=1))
EDGES = st.one_of(
    st.tuples(st.sampled_from(("tuple", "list")), st.lists(st.sampled_from(NAMES), min_size=2, max_size=2)),
    st.tuples(st.sampled_from(("tuple", "list")), st.lists(ENDPOINTS, min_size=1, max_size=3)),
    st.tuples(st.sampled_from(("set", "frozenset", "dict")), st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)),
    st.tuples(st.just("str"), st.text("WZXY", min_size=2, max_size=2)),
    st.tuples(st.just("scalar"), st.one_of(st.integers(0, 1), st.none())),
)
EDGE_LISTS = st.tuples(st.sampled_from(CONTAINERS), st.lists(EDGES, max_size=4))


def edge(arg):
    kind, items = arg
    return {"tuple": tuple, "list": list, "set": set, "frozenset": frozenset, "dict": dict.fromkeys}.get(
        kind, lambda x: x)(items)


def a_pair(arg, ordered: bool) -> bool:
    """Whether create reads this edge: two distinct known names, in order for an arrow."""
    kind, items = arg
    if kind in ("set", "frozenset", "dict") and not ordered:
        items = list(dict.fromkeys(items))
    elif kind not in ("tuple", "list"):
        return False
    return len(items) == 2 and items[0] != items[1] and all(i in NAMES for i in items)


@settings(max_examples=200, deadline=None)
@given(nodes=st.permutations(NAMES), directed=EDGE_LISTS, bidirected=EDGE_LISTS)
def test_create_refuses_a_malformed_edge_and_reads_the_rest_as_cleaned(nodes, directed, bidirected):
    lists = [build((kind, [edge(e) for e in edges])) for kind, edges in (directed, bidirected)]
    try:
        g = zt.SemiMarkovianGraph.create(nodes, *lists)
    except zt.GraphError:
        return
    assert all(a_pair(e, ordered=True) for e in directed[1]) and all(a_pair(e, ordered=False) for e in bidirected[1])
    arrows = {tuple(items) for _, items in directed[1]}
    assert g.directed_edges == arrows  # each arrow as given, whatever the hash seed
    links = {frozenset(items) for _, items in bidirected[1]}
    assert g.bidirected_edges == links
    assert g == zt.SemiMarkovianGraph.create(nodes, sorted(arrows), sorted(tuple(sorted(e)) for e in links))
