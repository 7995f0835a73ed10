import itertools
import re

import pytest

import ztransport as zt
from ztransport import graph
from ztransport.graph import GraphError, InputError

from helpers import (
    brute_force_separated,
    fig2a,
    random_diagram,
    random_graph,
    sparse_graph,
    union_find_components,
)

G = zt.SemiMarkovianGraph.create


def chain():
    return G(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")])


# -- construction -------------------------------------------------------------

def test_create_rejects_bad_names_and_edges():
    with pytest.raises(GraphError):
        G(["a b"])
    with pytest.raises(GraphError):
        G(["A", "A"])
    with pytest.raises(GraphError):
        G(["A"], [("A", "A")])
    with pytest.raises(GraphError):
        G(["A"], [("A", "B")])
    with pytest.raises(GraphError):
        G(["A", "B"], [("A", "B"), ("B", "A")])  # cycle


def test_create_rejects_names_that_differ_only_in_case():
    # formulas print names lower-cased, so x and X would print alike
    with pytest.raises(GraphError, match="nodes x and X differ only in case"):
        G(["x", "X", "Y"], [("x", "X"), ("X", "Y")])
    with pytest.raises(GraphError, match="duplicate node: A"):
        G(["A", "B", "A"])


def test_empty_graph_is_legal():
    g = G([])
    assert zt.topological_order(g) == []
    assert zt.c_components(g) == []
    assert zt.ancestors(g, []) == frozenset()
    assert zt.induced_subgraph(g, []).nodes == ()


# -- ancestors ----------------------------------------------------------------

def test_ancestors_chain_full():
    assert zt.ancestors(chain(), ["Y"]) == {"Z", "X", "Y"}


def test_ancestors_source_node():
    assert zt.ancestors(chain(), ["Z"]) == {"Z"}


def test_ancestors_ignore_bidirected():
    g = G(["X", "Y"], [], [("X", "Y")])
    assert zt.ancestors(g, ["Y"]) == {"Y"}


def test_ancestors_unknown_node():
    with pytest.raises(InputError):
        zt.ancestors(chain(), ["Q"])


def redeclared_graphs(master: int, n: int = 60):
    """n random_graph diagrams, then two sparse_graph ones of over 64 nodes,
    with their nodes declared in a shuffled order, so declaration order is
    no longer a topological order, each followed by a copy with the arrows
    into a random set cut; yields (graph, rng)."""
    small = (random_graph(seed, master=master, max_nodes=10, max_bi=6) for seed in range(n))
    for g, rng in itertools.chain(small, (sparse_graph(seed, master) for seed in range(2))):
        g = G([str(v) for v in rng.permutation(g.nodes)], g.directed_edges, [tuple(e) for e in g.bidirected_edges])
        yield g, rng
        yield zt.mutilate(g, [v for v in g.nodes if rng.random() < 0.3]), rng


def test_ancestors_with_a_cut_equal_ancestors_of_the_mutilated_graph():
    for g, rng in redeclared_graphs(master=17):
        w = [v for v in g.nodes if rng.random() < 0.3]
        cut = frozenset(v for v in g.nodes if rng.random() < 0.4)
        assert zt.ancestors(g, w, cut=cut) == zt.ancestors(zt.mutilate(g, cut), w)
        # within a node set holding w: the ancestors in the cut subgraph on it
        within = frozenset(w).union(v for v in g.nodes if rng.random() < 0.6)
        sub = zt.induced_subgraph(g, within, cut)
        assert zt.ancestors(g, w, cut=cut, within=within) == zt.ancestors(sub, w)
    # nodes outside g in the cut are never reached
    assert zt.ancestors(chain(), ["Y"], cut=frozenset({"X", "Q"})) == {"X", "Y"}
    # within must be a node set of g that holds w
    for w, within, message in (
        (["Y"], {"X"}, "node(s) outside within: Y"),
        (["X", "Y"], {"Z", "Y"}, "node(s) outside within: X"),
        (["Y"], {"Y", "Q"}, "unknown node(s): Q"),
        (["Q"], {"Y"}, "unknown node(s): Q"),
    ):
        with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
            zt.ancestors(chain(), w, within=within)


def test_a_mask_names_its_nodes_in_declaration_order():
    for g, rng in redeclared_graphs(master=43):
        w = [v for v in g.nodes if rng.random() < 0.5]
        assert g.names(g.mask(rng.permutation(w))) == g.sorted(w)
    assert (chain().mask([]), chain().names(0)) == (0, ())
    # a name outside g is left out, as ancestors' cut allows
    assert chain().mask(["X", "Q"]) == chain().mask(["X"])
    big, _ = sparse_graph(0, master=43)  # a mask of more than one 64-bit word
    w = [big.nodes[i] for i in (0, 63, 64, len(big.nodes) - 1)]
    assert big.mask([w[2], "Q", *w, "V999"]) == sum(1 << big.index[v] for v in w)
    assert big.names(big.mask(["Q", *reversed(w)])) == tuple(w)


def ancestors_by_fixed_point(g, w, cut=frozenset()):
    """Reference: add the tail of every arrow whose head is in the set and
    not cut, until nothing changes."""
    an = set(w)
    while True:
        more = {a for a, b in g.directed_edges if b in an and b not in cut} - an
        if not more:
            return an
        an |= more


def test_ancestors_equal_a_fixed_point_over_the_edges():
    for g, rng in redeclared_graphs(master=37):
        w = [v for v in g.nodes if rng.random() < 0.3]
        cut = frozenset(v for v in g.nodes if rng.random() < 0.4)
        assert zt.ancestors(g, w) == ancestors_by_fixed_point(g, w)
        assert zt.ancestors(g, w, cut=cut) == ancestors_by_fixed_point(g, w, cut)


def test_ancestors_monotone_and_idempotent():
    for seed in range(40):
        g, rng = random_graph(seed, master=7)
        nodes = list(g.nodes)
        k = int(rng.integers(0, len(nodes) + 1))
        w2 = set(rng.permutation(nodes)[:k])
        w1 = {v for v in w2 if rng.random() < 0.5}
        a1, a2 = zt.ancestors(g, w1), zt.ancestors(g, w2)
        assert a1 <= a2
        assert zt.ancestors(g, a2) == a2


# -- induced subgraph ---------------------------------------------------------

def test_induced_subgraph_keeps_inner_edges():
    g = G(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")], [("Z", "Y")])
    sub = zt.induced_subgraph(g, ["X", "Y"])
    assert sub.nodes == ("X", "Y")
    assert sub.directed_edges == {("X", "Y")}
    assert sub.bidirected_edges == frozenset()


def test_induced_subgraph_identity_and_empty():
    g = G(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")], [("Z", "Y")])
    assert zt.induced_subgraph(g, g.nodes) == g
    assert zt.induced_subgraph(g, []).nodes == ()


def test_induced_subgraph_with_a_cut_equals_restricting_and_cutting_in_either_order():
    for g, rng in redeclared_graphs(master=31):
        w = frozenset(v for v in g.nodes if rng.random() < 0.7)
        cut = frozenset(v for v in g.nodes if rng.random() < 0.4)
        sub = zt.induced_subgraph(g, w, cut)
        assert sub == zt.mutilate(zt.induced_subgraph(g, w), cut & w)
        assert sub == zt.induced_subgraph(zt.mutilate(g, cut), w)
        # and from the definition: inner edges, less the arrows into cut
        assert sub.directed_edges == {(a, b) for a, b in g.directed_edges if {a, b} <= w and b not in cut}
        assert sub.bidirected_edges == {e for e in g.bidirected_edges if e <= w and not e & cut}


# -- mutilate -------------------------------------------------------------

def test_mutilate_cut_incoming_removes_bidirected():
    g = G(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")], [("Z", "X")])
    cut = zt.mutilate(g, cut_incoming=["X"])
    assert cut.directed_edges == {("X", "Y")}
    assert cut.bidirected_edges == frozenset()


def test_mutilate_identity():
    g = G(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")], [("Z", "X")])
    assert zt.mutilate(g) == g


def test_mutilate_then_components_gives_singletons():
    for seed in range(30):
        g, rng = random_graph(seed, master=11)
        cut_set = [v for v in g.nodes if rng.random() < 0.4]
        cut = zt.mutilate(g, cut_incoming=cut_set)
        comps = set(zt.c_components(cut))
        for v in cut_set:
            assert frozenset([v]) in comps


# -- c-components ---------------------------------------------------------

def test_c_components_singletons():
    assert zt.c_components(chain()) == [{"Z"}, {"X"}, {"Y"}]


def test_c_components_with_both_edge_kinds():
    g = G(["X", "Y"], [("X", "Y")], [("X", "Y")])
    assert zt.c_components(g) == [{"X", "Y"}]


def test_c_components_matches_union_find():
    g = G(["Z", "X", "Y", "W"], [("X", "Y")], [("Z", "X"), ("Y", "W")])
    got = set(zt.c_components(g))
    assert got == union_find_components(g) == {frozenset("ZX"), frozenset("YW")}


def test_c_components_partition_property():
    graphs = [random_graph(seed, master=13, max_nodes=10) for seed in range(200)]
    for g, _ in graphs + [sparse_graph(seed, master=13) for seed in range(3)]:
        members = zt.c_components(g)
        assert set().union(*members) == set(g.nodes) if members else not g.nodes
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert not (members[i] & members[j])
        assert set(members) == union_find_components(g)


def test_c_components_of_a_node_set_partition_its_induced_subgraph():
    # the same sets in the same order as the components of G[w], for w from
    # the empty set to all of g
    for g, rng in redeclared_graphs(master=23):
        subsets = [[], list(g.nodes)]
        subsets += [[v for v in g.nodes if rng.random() < p] for p in (0.3, 0.5, 0.8)]
        for w in subsets:
            assert zt.c_components(g, w) == zt.c_components(zt.induced_subgraph(g, w))
    for seed in range(100):
        g, rng = random_graph(seed, master=29, max_nodes=10, max_bi=8)
        w = {str(v) for v in rng.permutation(g.nodes)[: rng.integers(0, len(g.nodes) + 1)]}
        assert zt.c_components(g, w) == zt.c_components(zt.induced_subgraph(g, w))


def test_c_components_are_ordered_by_their_earliest_declared_member():
    kinds = set()
    for g, rng in redeclared_graphs(master=19):
        w = [v for v in g.nodes if rng.random() < 0.7]
        firsts = [min(map(g.index.__getitem__, c)) for c in zt.c_components(g, w)]
        assert firsts == sorted(firsts)
        kinds.add((g.forward, len(g.nodes) > 64))
    # forward and non-forward diagrams, and ones past one 64-bit word
    assert {(True, False), (False, False), (False, True)} <= kinds, kinds


def test_c_components_of_a_node_set_reject_unknown_nodes():
    with pytest.raises(InputError, match="unknown node"):
        zt.c_components(chain(), ["X", "Q"])


def test_c_components_deterministic_order():
    g = G(["B", "A", "C"], [], [("A", "C")])
    # ordered by smallest member's declaration index: B first, then {A, C}
    assert zt.c_components(g) == [{"B"}, {"A", "C"}]


# -- topological order ------------------------------------------------------

def test_topological_order_chain():
    assert zt.topological_order(chain()) == ["Z", "X", "Y"]


def test_topological_order_declaration_tiebreak():
    g = G(["B", "A"])
    assert zt.topological_order(g) == ["B", "A"]


def test_topological_order_diamond():
    g = G(["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    order = zt.topological_order(g)
    assert order == ["A", "B", "C", "D"]
    pos = {v: i for i, v in enumerate(order)}
    for a, b in g.directed_edges:
        assert pos[a] < pos[b]


def sort_every_pop_order(g):
    """Reference: sort the ready list by declaration index before each pop."""
    indeg = {n: sum(b == n for _, b in g.directed_edges) for n in g.nodes}
    ready = [n for n in g.nodes if indeg[n] == 0]
    order = []
    while ready:
        ready.sort(key=g.index.__getitem__)
        n = ready.pop(0)
        order.append(n)
        for c in g.sorted(b for a, b in g.directed_edges if a == n):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return order


def test_topological_order_equals_the_sort_every_pop_reference():
    # random_graph and sparse_graph declare every arrow forward, which the
    # walk answers without Kahn's loop; most shuffled redeclarations do not
    graphs = [random_graph(seed, master=23, max_nodes=10, max_bi=6) for seed in range(60)]
    graphs += [sparse_graph(seed, master=23) for seed in range(2)]
    graphs += redeclared_graphs(master=23)
    forward = [all(g.index[a] < g.index[b] for a, b in g.directed_edges) for g, _ in graphs]
    assert [g.forward for g, _ in graphs] == forward
    kinds = set()
    for g, rng in graphs:
        assert zt.topological_order(g) == sort_every_pop_order(g)
        # on a node set less the arrows into a cut: the order of that subgraph
        w = [v for v in g.nodes if rng.random() < 0.6]
        cut = frozenset(v for v in g.nodes if rng.random() < 0.3)
        sub = zt.induced_subgraph(g, w, cut)
        order = sort_every_pop_order(sub)
        assert zt.topological_order(g, w, cut) == zt.topological_order(sub) == order
        # the walk itself: each member of a random subset of w in that order,
        # paired with the mask of the nodes ahead of it there; no member, no pair
        members = [v for v in w if rng.random() < 0.5]
        keep = g.mask(w)
        want = [(g.index[v], g.mask(order[:k])) for k, v in enumerate(order) if v in members]
        assert graph._ahead(g, keep, g.mask(cut), g.mask(members)) == want
        assert graph._ahead(g, keep, g.mask(cut), 0) == []
        kinds.add((g.forward, len(g.nodes) > 64))
    # forward and non-forward graphs, each also past one 64-bit word
    assert kinds == {(True, False), (False, False), (True, True), (False, True)}, kinds


def test_topological_order_names_a_cycle():
    with pytest.raises(GraphError, match=r"^directed part contains a cycle: A -> B -> C -> A$"):
        G(["A", "B", "C", "D"], [("D", "A"), ("A", "B"), ("B", "C"), ("C", "A")])
    # a graph built without create may hold a self-loop, a cycle of one node
    loop = zt.SemiMarkovianGraph(("A", "B"), frozenset({("A", "B"), ("B", "B")}), frozenset())
    with pytest.raises(GraphError, match=r"^directed part contains a cycle: B -> B$"):
        zt.topological_order(loop)
    # on a node set, the cycle is one inside it
    with pytest.raises(GraphError, match=r"^directed part contains a cycle: B -> B$"):
        zt.topological_order(loop, ["B"])
    # past bit 64: a 70-node chain closed at its end
    nodes = [f"V{i}" for i in range(70)]
    with pytest.raises(GraphError, match=r"^directed part contains a cycle: V66 -> V67 -> V68 -> V69 -> V66$"):
        G(nodes, [*zip(nodes, nodes[1:]), ("V69", "V66")])
    assert zt.topological_order(loop, ["A", "B"], frozenset({"B"})) == ["A", "B"]


def test_a_cycle_message_names_a_cycle_of_the_graph():
    for seed in range(60):
        g, rng = random_graph(seed, master=41, max_nodes=10)
        # an arrow from a node back to one of its proper ancestors closes a cycle
        pairs = [(b, a) for b in g.nodes for a in sorted(zt.ancestors(g, [b]) - {b})]
        if not pairs:
            continue
        b, a = pairs[int(rng.integers(len(pairs)))]
        edges = g.directed_edges | {(b, a)}
        with pytest.raises(GraphError, match="^directed part contains a cycle: ") as info:
            G(g.nodes, edges)
        cycle = str(info.value).removeprefix("directed part contains a cycle: ").split(" -> ")
        assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
        assert all(arrow in edges for arrow in zip(cycle, cycle[1:]))


def test_topological_order_of_an_ancestral_subgraph_is_the_filtered_order():
    for g, rng in redeclared_graphs(master=29):
        s = zt.ancestors(g, [v for v in g.nodes if rng.random() < 0.3])
        sub = zt.induced_subgraph(g, s)
        assert zt.topological_order(sub) == [v for v in zt.topological_order(g) if v in s]
    # not for a set that misses an ancestor: D precedes A in g, not in G[{A, C}]
    g = G(["A", "C", "D"], [("D", "A")])
    assert zt.topological_order(g) == ["C", "D", "A"]
    assert zt.topological_order(zt.induced_subgraph(g, ["A", "C"])) == ["A", "C"]
    assert zt.topological_order(g, ["A", "C"]) == ["A", "C"]


# -- m-separation ---------------------------------------------------------
# on the path-enumeration reference, which the s-admissibility check below reads

def test_m_separated_chain_blocking():
    assert brute_force_separated(chain(), ["Z"], ["Y"], ["X"])
    assert not brute_force_separated(chain(), ["Z"], ["Y"])


def test_m_separated_collider():
    g = G(["Z", "X", "Y"], [("Z", "X"), ("Y", "X")])
    assert brute_force_separated(g, ["Z"], ["Y"])
    assert not brute_force_separated(g, ["Z"], ["Y"], ["X"])


def test_m_separated_bidirected_is_latent_cause():
    g = G(["X", "Y"], [], [("X", "Y")])
    assert not brute_force_separated(g, ["X"], ["Y"])
    # the hidden cause is no observed node, whatever the nodes are named
    g = G(["A", "B", "__u0"], [], [("A", "B")])
    assert not brute_force_separated(g, ["A"], ["B"], ["__u0"])


# -- the direct-transport test as a separation statement ----------------------

def s_admissible_by_separation(d: zt.SelectionDiagram, comp: frozenset[str]) -> bool:
    """Model S explicitly as parents of the marked nodes, cut incoming edges
    of everything outside the component, and ask for separation."""
    g = d.graph
    s_nodes = {t: f"S_{t}" for t in g.sorted(d.s_targets)}
    aug = zt.SemiMarkovianGraph.create(
        list(g.nodes) + list(s_nodes.values()),
        list(g.directed_edges) + [(s, t) for t, s in s_nodes.items()],
        [tuple(e) for e in g.bidirected_edges],
    )
    rest = set(g.nodes) - comp
    cut = zt.mutilate(aug, cut_incoming=rest)
    if not s_nodes:
        return True
    return brute_force_separated(cut, set(s_nodes.values()), comp, rest)


def test_s_admissibility_equivalence_example():
    d = fig2a()
    for comp in zt.c_components(d.graph):
        expected = not (d.s_targets & comp)
        assert s_admissible_by_separation(d, comp) == expected


def test_s_admissibility_equivalence_random():
    for seed in range(60):
        d, *_ = random_diagram(seed, master=19)
        for comp in zt.c_components(d.graph):
            expected = not (d.s_targets & comp)
            assert s_admissible_by_separation(d, comp) == expected
