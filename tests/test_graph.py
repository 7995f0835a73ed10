import itertools
import re

import numpy as np
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


def test_create_names_a_node_or_edge_it_cannot_read():
    with pytest.raises(GraphError, match=r"^invalid node name: 1$"):
        G([1, 2])
    with pytest.raises(GraphError, match=r"^bad edge: \('A', 'B', 'C'\)$"):
        G(["A", "B", "C"], [("A", "B", "C")])
    with pytest.raises(GraphError, match=r"^bad edge: \('A',\)$"):
        G(["A", "B"], [], [("A",)])
    with pytest.raises(GraphError, match=r"^bad edge: \(\['A'\], 'B'\)$"):
        G(["A", "B"], [(["A"], "B")])
    with pytest.raises(GraphError, match=r"^edge endpoint not declared: 1 -> B$"):
        G(["A", "B"], [(1, "B")])
    with pytest.raises(GraphError, match=r"^bad edge: 'AB'$"):
        G(["A", "B"], ["AB"])
    # a set or mapping would give its arrow in hash order (B -> A under some seeds);
    # a bidirected edge has no direction, so it may be a set
    for edge in ({"A", "B"}, frozenset({"A", "B"}), {"A": "B"}, {"A": 0, "B": 1}, {"A": "B"}.keys()):
        with pytest.raises(GraphError, match=rf"^bad edge: {re.escape(repr(edge))}$"):
            G(["A", "B"], [edge])
    assert G(["A", "B"], [], [{"A", "B"}]) == G(["A", "B"], [], [("B", "A")])


def test_the_stored_masks_rebuild_an_equal_graph():
    graphs = [g for g, _ in redeclared_graphs(master=47, n=20)] + [sparse_graph(seed, 53)[0] for seed in range(2)]
    assert sum(len(g.nodes) > 64 for g in graphs) >= 6
    rng = np.random.default_rng(5)
    for g in graphs:
        again = G(g.nodes, g.directed_edges, g.bidirected_edges)
        assert again == g and hash(again) == hash(g)
        assert (again.parent_bits, again.sibling_bits) == (g.parent_bits, g.sibling_bits)
        # edges in another order, repeated, bidirected ones either way round
        directed = [*g.directed_edges, *g.directed_edges]
        bidirected = [tuple(e)[::k] for e in g.bidirected_edges for k in (1, -1)]
        rng.shuffle(directed)
        rng.shuffle(bidirected)
        assert G(g.nodes, directed, bidirected) == g
        # the views read the masks bit by bit, the hidden variables in endpoint order
        n, pa, sib = len(g.nodes), g.parent_bits, g.sibling_bits
        bits = [(i, j) for i in range(n) for j in range(n)]
        assert g.directed_edges == {(g.nodes[i], g.nodes[j]) for i, j in bits if pa[j] >> i & 1}
        assert g.child_bits == tuple(sum(1 << j for j in range(n) if pa[j] >> i & 1) for i in range(n))
        assert list(g.bidirected_order) == [frozenset(g.names(1 << i | 1 << j)) for i, j in bits if i < j and sib[j] >> i & 1]
        assert g.bidirected_edges == set(g.bidirected_order)
    # another declaration order is another graph
    g = chain()
    assert G(g.nodes[::-1], g.directed_edges) != g


def test_a_bare_string_is_not_read_as_a_node_set():
    # on V0 -> V1 -> V2 the cut "V1" would be read as V and 1, both outside g, and cut nothing
    g = G(["V0", "V1", "V2"], [("V0", "V1"), ("V1", "V2")])
    calls = [
        ("nodes", lambda: G("XY")),  # would be the nodes X and Y
        ("nodes", lambda: g.check_nodes("V1")),
        ("w", lambda: zt.ancestors(g, "V2")),
        ("cut", lambda: zt.ancestors(g, ["V2"], cut="V1")),
        ("within", lambda: zt.ancestors(g, ["V2"], within="V2")),
        ("w", lambda: zt.topological_order(g, "V2")),
        ("cut", lambda: zt.topological_order(g, cut="V1")),
        ("w", lambda: zt.induced_subgraph(g, "V1")),
        ("cut", lambda: zt.induced_subgraph(g, g.nodes, "V1")),
        ("cut_incoming", lambda: zt.mutilate(g, "V1")),
        ("w", lambda: zt.c_components(g, "V1")),
        ("s_targets", lambda: zt.SelectionDiagram.create(g, "V1")),
        ("x", lambda: zt.Query.create("V0", ["V2"])),
        ("y", lambda: zt.Query.create(["V0"], "V2")),
        ("z", lambda: zt.Query.create(["V0"], ["V2"], "V1")),
    ]
    for what, call in calls:
        with pytest.raises(InputError, match=f"^{what} must be a collection of node names, not the string '"):
            call()
    assert zt.ancestors(g, ["V2"], cut=["V1"]) == {"V1", "V2"}


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
    # a cut is a node set of g, checked as induced_subgraph and mutilate check theirs
    with pytest.raises(InputError, match=r"^unknown node\(s\): 'Q'$"):
        zt.ancestors(chain(), ["Y"], cut=frozenset({"X", "Q"}))
    # within must be a node set of g that holds w
    for w, within, message in (
        (["Y"], {"X"}, "node(s) outside within: Y"),
        (["X", "Y"], {"Z", "Y"}, "node(s) outside within: X"),
        (["Y"], {"Y", "Q"}, "unknown node(s): 'Q'"),
        (["Q"], {"Y"}, "unknown node(s): 'Q'"),
    ):
        with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
            zt.ancestors(chain(), w, within=within)


def test_a_mask_names_its_nodes_in_declaration_order():
    for g, rng in redeclared_graphs(master=43):
        w = [v for v in g.nodes if rng.random() < 0.5]
        assert g.names(g.mask(rng.permutation(w))) == g.sorted(w)
    assert (chain().mask([]), chain().names(0)) == (0, ())
    big, _ = sparse_graph(0, master=43)  # a mask of more than one 64-bit word
    w = [big.nodes[i] for i in (0, 63, 64, len(big.nodes) - 1)]
    assert big.mask([w[2], *w]) == sum(1 << big.index[v] for v in w)
    assert big.names(big.mask(reversed(w))) == tuple(w)


def test_pick_and_names_equal_the_index_reference_on_both_sides_of_the_crossover():
    # _pick walks a mask of at most _SPARSE set bits and compresses a denser one
    n, k = 300, graph._SPARSE
    g = G([f"V{i}" for i in range(n)])
    rng = np.random.default_rng(11)
    masks = [0, 1, 1 << n - 1, (1 << n) - 1]
    for bits in (k - 1, k, k + 1):
        for top in (7, 63, 64, 65, 255, 256, 257, n - 1):  # past bits 64 and 256 too
            masks.append(1 << top | sum(1 << int(i) for i in rng.choice(top, bits - 1, replace=False)))
    for m in masks:
        want = [i for i in range(n) if m >> i & 1]
        assert list(graph._pick(g.nodes, m)) == [g.nodes[i] for i in want]
        assert g.names(m) == tuple(g.nodes[i] for i in want)
        assert list(graph._indices(g, m)) == want
    assert {m.bit_count() <= k for m in masks} == {True, False}


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


def test_ahead_pairs_past_bit_256_equal_the_sort_every_pop_reference():
    # a forward graph of 300 nodes, then the same graph declared in reverse;
    # members sparse and dense, so each side of _pick's crossover is read
    rng = np.random.default_rng(5)
    n = 300
    names = [f"V{i}" for i in range(n)]
    directed = [(names[int(j)], names[i]) for i in range(1, n) for j in rng.choice(i, min(i, 2), replace=False)]
    graphs = [G(names, directed), G(names[::-1], directed)]
    assert [g.forward for g in graphs] == [True, False]
    for g in graphs:
        w = [v for v in g.nodes if rng.random() < 0.8]
        cut = [v for v in g.nodes if rng.random() < 0.2]
        order = sort_every_pop_order(zt.induced_subgraph(g, w, cut))
        assert g.index[w[-1]] > 256
        for members in ([w[-1]], [w[0], w[-1]], list(rng.choice(w, 5, replace=False)), w):
            want = [(g.index[v], g.mask(order[:k])) for k, v in enumerate(order) if v in members]
            assert graph._ahead(g, g.mask(w), g.mask(cut), g.mask(members)) == want


def test_topological_order_names_a_cycle():
    with pytest.raises(GraphError, match=r"^directed part contains a cycle: A -> B -> C -> A$"):
        G(["A", "B", "C", "D"], [("D", "A"), ("A", "B"), ("B", "C"), ("C", "A")])
    # past bit 64: a 70-node chain closed at its end
    nodes = [f"V{i}" for i in range(70)]
    with pytest.raises(GraphError, match=r"^directed part contains a cycle: V66 -> V67 -> V68 -> V69 -> V66$"):
        G(nodes, [*zip(nodes, nodes[1:]), ("V69", "V66")])


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
