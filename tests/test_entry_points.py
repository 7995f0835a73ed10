"""The library's entry contract: each value type has one checked way in, and a
malformed node-set argument raises a TypeError (wrong Python type) or one of the
package's errors, never a raw error from deep inside and never a silent misread."""

import inspect
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ztransport as zt
from ztransport import expr as E

from helpers import fig2a

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
# each entry point, with a letter per drawn argument: "g" a node set of GRAPH, "a" any
# names (a cut may name nodes outside g; a query is checked when it is used), "n" a
# node list whose order counts
CALLS = {
    "SemiMarkovianGraph.create": (lambda nodes: zt.SemiMarkovianGraph.create(nodes), "n"),
    "SelectionDiagram.create": (lambda s: zt.SelectionDiagram.create(GRAPH, s), "g"),
    "Query.create": (lambda x, y, z: zt.Query.create(x, y, z), "aaa"),
    "ancestors": (lambda w, cut, within: zt.ancestors(GRAPH, w, cut, within), "gag"),
    "c_components": (lambda w: zt.c_components(GRAPH, w), "g"),
    "induced_subgraph": (lambda w, cut: zt.induced_subgraph(GRAPH, w, cut), "gg"),
    "topological_order": (lambda w, cut: zt.topological_order(GRAPH, w, cut), "ga"),
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
        ((E.SOURCE, ("X",)), "do must be a frozenset of node names, not ('X',)"),
    ):
        with pytest.raises(zt.InputError, match=rf"^{re.escape(message)}$"):
            pair.joint(*args)
    assert pair._joints == held  # nothing made, kept or counted
    # a held array is served without a check
    x = pair.joint(E.SOURCE, frozenset({"X"}))
    monkeypatch.setattr(zt.SemiMarkovianGraph, "check_nodes", None)
    assert pair.joint(E.SOURCE, frozenset({"X"})) is x
