"""Semi-Markovian graphs and the graph primitives used by the identification engine.

A semi-Markovian graph has directed edges among observed variables plus
bidirected edges, each standing for a hidden common cause of its two
endpoints.  All values are immutable; every operation returns a new graph.
Node order is declaration order and is used as the canonical tie-break
everywhere, so results are deterministic.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class InputError(ValueError):
    """Bad caller-supplied values (unknown node, overlapping sets, ...)."""


class GraphError(ValueError):
    """Structurally invalid graph (cycle, bad edge, bad node name)."""


def _as_tuple(nodes: Iterable[str]) -> tuple[str, ...]:
    return tuple(nodes)


@dataclass(frozen=True)
class SemiMarkovianGraph:
    """Observed variables plus directed and bidirected edges.

    ``nodes`` is an ordered tuple (declaration order).  ``directed_edges``
    holds (parent, child) pairs; ``bidirected_edges`` holds unordered pairs,
    stored in canonical (declaration-order) orientation.
    """

    nodes: tuple[str, ...]
    directed_edges: frozenset[tuple[str, str]]
    bidirected_edges: frozenset[frozenset[str]]

    @staticmethod
    def create(
        nodes: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
    ) -> "SemiMarkovianGraph":
        node_tuple = _as_tuple(nodes)
        seen: set[str] = set()
        for n in node_tuple:
            if not NAME_RE.match(n):
                raise GraphError(f"invalid node name: {n!r}")
            if n in seen:
                raise GraphError(f"duplicate node: {n}")
            seen.add(n)
        de = set()
        for a, b in directed:
            if a not in seen or b not in seen:
                raise GraphError(f"edge endpoint not declared: {a} -> {b}")
            if a == b:
                raise GraphError(f"self-loop: {a} -> {b}")
            de.add((a, b))
        be = set()
        for a, b in bidirected:
            if a not in seen or b not in seen:
                raise GraphError(f"edge endpoint not declared: {a} <-> {b}")
            if a == b:
                raise GraphError(f"self-loop: {a} <-> {b}")
            be.add(frozenset((a, b)))
        g = SemiMarkovianGraph(node_tuple, frozenset(de), frozenset(be))
        topological_order(g)  # raises on a directed cycle
        return g

    @cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def parents(self) -> dict[str, frozenset[str]]:
        pa: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in self.directed_edges:
            pa[b].add(a)
        return {n: frozenset(s) for n, s in pa.items()}

    @cached_property
    def children(self) -> dict[str, frozenset[str]]:
        ch: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in self.directed_edges:
            ch[a].add(b)
        return {n: frozenset(s) for n, s in ch.items()}

    @cached_property
    def siblings(self) -> dict[str, frozenset[str]]:
        """Bidirected-edge neighbours."""
        ne: dict[str, set[str]] = {n: set() for n in self.nodes}
        for e in self.bidirected_edges:
            a, b = sorted(e, key=self.index.__getitem__)
            ne[a].add(b)
            ne[b].add(a)
        return {n: frozenset(s) for n, s in ne.items()}

    @cached_property
    def bidirected_order(self) -> tuple[frozenset[str], ...]:
        """Bidirected edges ordered by their endpoints' node order: the
        order of the hidden variables wherever they are enumerated."""
        return tuple(sorted(self.bidirected_edges, key=lambda e: sorted(self.index[v] for v in e)))

    def sorted(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """Return the given nodes in declaration order."""
        return tuple(sorted(nodes, key=self.index.__getitem__))

    def check_nodes(self, nodes: Iterable[str]) -> frozenset[str]:
        s = frozenset(nodes)
        unknown = s - self.node_set
        if unknown:
            raise InputError(f"unknown node(s): {', '.join(sorted(unknown))}")
        return s


@dataclass(frozen=True)
class SelectionDiagram:
    """A shared causal graph plus the nodes whose mechanisms may differ
    between the source and target domains (the selection-pointed nodes)."""

    graph: SemiMarkovianGraph
    s_targets: frozenset[str] = frozenset()

    @staticmethod
    def create(graph: SemiMarkovianGraph, s_targets: Iterable[str] = ()) -> "SelectionDiagram":
        s = graph.check_nodes(s_targets)
        return SelectionDiagram(graph, s)


@dataclass(frozen=True)
class Query:
    """A causal query: effect of x on y, with controllable set z."""

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str] = frozenset()

    @staticmethod
    def create(x: Iterable[str], y: Iterable[str], z: Iterable[str] = ()) -> "Query":
        xs, ys, zs = frozenset(x), frozenset(y), frozenset(z)
        if not ys:
            raise InputError("outcome set y must be nonempty")
        if xs & ys:
            raise InputError(f"x and y overlap: {sorted(xs & ys)}")
        return Query(xs, ys, zs)

    def validate_against(self, g: SemiMarkovianGraph) -> None:
        g.check_nodes(self.x)
        g.check_nodes(self.y)
        g.check_nodes(self.z)


def ancestors(g: SemiMarkovianGraph, w: Iterable[str], cut: frozenset[str] = frozenset()) -> frozenset[str]:
    """Directed-path ancestors of w within g, inclusive of w itself.

    Bidirected edges contribute no ancestry.  The arrows into ``cut`` are
    not followed, so the result is ``ancestors(mutilate(g, cut), w)``
    without building the mutilated graph; ``cut`` may name nodes outside g.
    """
    front = list(g.check_nodes(w))
    seen = set(front)
    while front:
        n = front.pop()
        if n in cut:
            continue
        for p in g.parents[n]:
            if p not in seen:
                seen.add(p)
                front.append(p)
    return frozenset(seen)


def induced_subgraph(g: SemiMarkovianGraph, w: Iterable[str]) -> SemiMarkovianGraph:
    """Subgraph on node set w keeping every edge with both endpoints in w."""
    keep = g.check_nodes(w)
    return SemiMarkovianGraph(
        nodes=tuple(n for n in g.nodes if n in keep),
        directed_edges=frozenset(e for e in g.directed_edges if e[0] in keep and e[1] in keep),
        bidirected_edges=frozenset(e for e in g.bidirected_edges if e <= keep),
    )


def mutilate(g: SemiMarkovianGraph, cut_incoming: Iterable[str] = ()) -> SemiMarkovianGraph:
    """Delete arrows into ``cut_incoming``.

    A bidirected edge is an arrow from a hidden parent, so it is deleted
    whenever either endpoint has its incoming arrows cut.
    """
    inc = g.check_nodes(cut_incoming)
    return SemiMarkovianGraph(
        nodes=g.nodes,
        directed_edges=frozenset((a, b) for a, b in g.directed_edges if b not in inc),
        bidirected_edges=frozenset(e for e in g.bidirected_edges if not (e & inc)),
    )


def c_component(g: SemiMarkovianGraph, w: Iterable[str]) -> frozenset[str]:
    """Nodes joined to w by bidirected paths in g, inclusive of w: for a
    bidirected-connected w, the member of ``c_components(g)`` holding it."""
    front = list(g.check_nodes(w))
    seen = set(front)
    while front:
        for m in g.siblings[front.pop()]:
            if m not in seen:
                seen.add(m)
                front.append(m)
    return frozenset(seen)


def c_components(g: SemiMarkovianGraph) -> list[frozenset[str]]:
    """Partition of g's nodes into maximal bidirected-connected components.

    Ordered by the declaration index of each component's earliest member.
    """
    visited: set[str] = set()
    comps: list[frozenset[str]] = []
    for start in g.nodes:
        if start not in visited:
            comps.append(c_component(g, (start,)))
            visited |= comps[-1]
    return comps


def topological_order(g: SemiMarkovianGraph) -> list[str]:
    """Topological order of the directed part, declaration order as tie-break:
    each step takes the ready node of smallest declaration index."""
    index = g.index
    indeg = {n: len(g.parents[n]) for n in g.nodes}
    ready = [i for i, n in enumerate(g.nodes) if indeg[n] == 0]  # ascending: a heap
    order: list[str] = []
    while ready:
        n = g.nodes[heapq.heappop(ready)]
        order.append(n)
        for c in g.children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, index[c])
    if len(order) != len(g.nodes):
        raise GraphError("directed part contains a cycle")
    return order


def m_separated(
    g: SemiMarkovianGraph,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> bool:
    """True iff every path between a and b is blocked given c.

    Bidirected edges behave as paths through a fresh hidden common cause.
    Uses the ancestral moral graph construction.
    """
    sa, sb, sc = g.check_nodes(a), g.check_nodes(b), g.check_nodes(c)
    if sa & sb or sa & sc or sb & sc:
        raise InputError("a, b, c must be pairwise disjoint")
    if not sa or not sb:
        return True
    # DAG view with one hidden parent per bidirected edge, keyed by the edge
    # itself so that it cannot clash with a node name
    pa: dict[str | frozenset[str], set] = {n: set(g.parents[n]) for n in g.nodes}
    for e in g.bidirected_edges:
        pa[e] = set()
        for v in e:
            pa[v].add(e)

    # restrict to ancestors of a | b | c in the latent-expanded DAG
    relevant = set(sa | sb | sc)
    front = list(relevant)
    while front:
        n = front.pop()
        for p in pa[n]:
            if p not in relevant:
                relevant.add(p)
                front.append(p)

    # moralize: undirected skeleton plus marriages of co-parents
    adj: dict[str, set[str]] = {n: set() for n in relevant}
    for n in relevant:
        for p in pa[n]:
            if p in relevant:
                adj[n].add(p)
                adj[p].add(n)
        ps = [p for p in pa[n] if p in relevant]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                adj[ps[i]].add(ps[j])
                adj[ps[j]].add(ps[i])

    # delete the conditioning set, test connectivity a -> b
    blocked = set(sc)
    front = [n for n in sa]
    seen = set(front)
    while front:
        n = front.pop()
        if n in sb:
            return False
        for m in adj[n]:
            if m not in seen and m not in blocked:
                seen.add(m)
                front.append(m)
    return True
