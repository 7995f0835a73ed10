"""Semi-Markovian graphs and the graph primitives used by the identification engine.

A semi-Markovian graph has directed edges among observed variables plus
bidirected edges, each standing for a hidden common cause of its two
endpoints.  All values are immutable; every operation returns a new graph.
Node order is declaration order and is used as the canonical tie-break
everywhere, so results are deterministic.
A node set may also be a mask, an int whose bit i stands for ``g.nodes[i]``.
Masks are the one adjacency encoding (``parent_bits``, ``child_bits``, ``sibling_bits``):
one walk over them, ``_reach``, finds every reachable set, and one, ``_ahead``, every order
with each member's predecessors in it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BITS = bytes.maketrans(b"01", b"\0\1")  # bin()'s digits as compress() selectors


class InputError(ValueError):
    """Bad caller-supplied values (unknown node, overlapping sets, ...)."""


class GraphError(ValueError):
    """Structurally invalid graph (cycle, bad edge, bad node name)."""


@dataclass(frozen=True)
class SemiMarkovianGraph:
    """Observed variables plus directed and bidirected edges.

    ``nodes`` is an ordered tuple (declaration order).  ``directed_edges``
    holds (parent, child) pairs; ``bidirected_edges`` holds unordered pairs
    as two-element frozensets.
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
        node_tuple = tuple(nodes)
        folded: dict[str, str] = {}  # formulas print names lower-cased, so no two may fold alike
        for n in node_tuple:
            if not NAME_RE.match(n):
                raise GraphError(f"invalid node name: {n!r}")
            twin = folded.get(n.lower())
            if twin is not None:
                raise GraphError(f"duplicate node: {n}" if twin == n else f"nodes {twin} and {n} differ only in case")
            folded[n.lower()] = n
        seen = set(node_tuple)
        de: set[tuple[str, str]] = set()
        be: set[frozenset[str]] = set()
        for arrow, edges, kept, edge in (("->", directed, de, tuple), ("<->", bidirected, be, frozenset)):
            for a, b in edges:
                if a not in seen or b not in seen:
                    raise GraphError(f"edge endpoint not declared: {a} {arrow} {b}")
                if a == b:
                    raise GraphError(f"self-loop: {a} {arrow} {b}")
                kept.add(edge((a, b)))
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
    def parent_bits(self) -> tuple[int, ...]:
        """The mask of node i's parents, for each i."""
        return self._bits(self.directed_edges)

    @cached_property
    def child_bits(self) -> tuple[int, ...]:
        """The mask of node i's children, for each i."""
        return self._bits((b, a) for a, b in self.directed_edges)

    @cached_property
    def sibling_bits(self) -> tuple[int, ...]:
        """The mask of node i's bidirected-edge neighbours, for each i."""
        return self._bits(arrow for a, b in self.bidirected_edges for arrow in ((a, b), (b, a)))

    def _bits(self, arrows: Iterable[tuple[str, str]]) -> tuple[int, ...]:
        """For each node i, the mask of the tails of the given arrows into it."""
        bits = [0] * len(self.nodes)
        for a, b in arrows:
            bits[self.index[b]] |= 1 << self.index[a]
        return tuple(bits)

    @cached_property
    def forward(self) -> bool:
        """Every arrow points from an earlier-declared node to a later one."""
        return all(pa < 1 << i for i, pa in enumerate(self.parent_bits))

    @cached_property
    def bidirected_order(self) -> tuple[frozenset[str], ...]:
        """Bidirected edges ordered by their endpoints' node order: the
        order of the hidden variables wherever they are enumerated."""
        return tuple(sorted(self.bidirected_edges, key=lambda e: sorted(self.index[v] for v in e)))

    def sorted(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """Return the given nodes in declaration order."""
        return tuple(sorted(nodes, key=self.index.__getitem__))

    def mask(self, nodes: Iterable[str]) -> int:
        """The mask of the given nodes, less any name outside g."""
        index, m = self.index, 0
        for n in nodes:
            if n in index:
                m |= 1 << index[n]
        return m

    def names(self, m: int) -> tuple[str, ...]:
        """The nodes of mask m in declaration order."""
        return tuple(_pick(self.nodes, m))

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


def _pick(items: Sequence, m: int) -> Iterable:
    """The items at the set bits of mask m, in index order."""
    return compress(items, bin(m)[:1:-1].encode().translate(_BITS))


def _reach(adj: Sequence[int], start: int, stop: int = 0, keep: int = -1) -> int:
    """The mask of ``start`` plus every index reachable from it through
    ``adj`` (``adj[i]`` the mask of i's neighbours) inside mask ``keep``
    (default: everywhere); an index in ``stop`` is reached but not walked from."""
    unseen, go, front = keep & ~start, ~stop, start & ~stop
    while front:
        i = front.bit_length() - 1
        front ^= 1 << i
        new = adj[i] & unseen
        if new:
            unseen ^= new
            front |= new & go
    return start | keep & ~unseen


def ancestors(
    g: SemiMarkovianGraph, w: Iterable[str], cut: frozenset[str] = frozenset(), within: frozenset[str] | None = None
) -> frozenset[str]:
    """Directed-path ancestors of w, inclusive of w, in G[within] (default: all of g).

    Bidirected edges contribute no ancestry.  The arrows into ``cut`` are
    not followed, so the result is ``ancestors(induced_subgraph(g, within,
    cut), w)`` without building that graph; ``cut`` may name nodes outside g.
    It makes its own ``within`` checks: InputError unless w and within are
    node sets of g and within holds w.
    """
    start = g.mask(g.check_nodes(w))
    keep = -1 if within is None else g.mask(g.check_nodes(within))
    if start & ~keep:
        raise InputError(f"node(s) outside within: {', '.join(g.names(start & ~keep))}")
    return frozenset(g.names(_reach(g.parent_bits, start, g.mask(cut), keep)))


def induced_subgraph(g: SemiMarkovianGraph, w: Iterable[str], cut: Iterable[str] = ()) -> SemiMarkovianGraph:
    """Subgraph on node set w keeping every edge with both endpoints in w,
    less the arrows into ``cut``; a bidirected edge is an arrow from a
    hidden parent, so it goes when either endpoint is cut."""
    keep = g.check_nodes(w)
    heads = keep - g.check_nodes(cut)  # the nodes that keep their incoming arrows
    return SemiMarkovianGraph(
        nodes=tuple(n for n in g.nodes if n in keep),
        directed_edges=frozenset((a, b) for a, b in g.directed_edges if a in keep and b in heads),
        bidirected_edges=frozenset(e for e in g.bidirected_edges if e <= heads),
    )


def mutilate(g: SemiMarkovianGraph, cut_incoming: Iterable[str] = ()) -> SemiMarkovianGraph:
    """Delete arrows into ``cut_incoming``: the cut subgraph on all of g."""
    return induced_subgraph(g, g.nodes, cut_incoming)


def c_components(g: SemiMarkovianGraph, w: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Partition of w (default: all of g) into the maximal bidirected-connected
    components of G[w], without building G[w]; ordered by the declaration
    index of each component's earliest member."""
    keep = g.mask(g.nodes if w is None else g.check_nodes(w))
    return [frozenset(g.names(c)) for c in _partition(g, keep)]


def _partition(g: SemiMarkovianGraph, keep: int) -> list[int]:
    """``c_components`` on masks: the components of G[keep], earliest first."""
    comps = []
    while keep:
        comps.append(_reach(g.sibling_bits, keep & -keep, keep=keep))
        keep &= ~comps[-1]
    return comps


def topological_order(g: SemiMarkovianGraph, w: Iterable[str] | None = None, cut: Iterable[str] = ()) -> list[str]:
    """``_ahead``'s order on names, for G[w] (default: all of g) less the arrows into ``cut`` (names
    outside g allowed).  Unless g is forward, G[w]'s order need not be g's order filtered to w."""
    keep = g.mask(g.nodes if w is None else g.check_nodes(w))
    return [g.nodes[i] for i, _ in _ahead(g, keep, g.mask(cut), keep)]


def _ahead(g: SemiMarkovianGraph, keep: int, cut: int, members: int) -> list[tuple[int, int]]:
    """Kahn's loop on masks, the one order of the graph layer: each index i of
    ``members`` (inside ``keep``) in the topological order of G[keep] less the
    arrows into ``cut``, paired with the mask of the indices ahead of i there.
    Each step takes the smallest ready index, so on a forward graph, and on
    every subgraph of one, the order is ascending and i's predecessors are
    keep's smaller indices: no order is walked.  That branch is the one
    reader of ``g.forward``: most chains have one member in a V of dozens,
    and walking the order for it cost ``large_decide`` about a seventh of its
    throughput."""
    if g.forward:  # g.index holds the ints 0..n-1; range() would make each one past 256 anew
        return [(i, keep & ((1 << i) - 1)) for i in _pick(g.index.values(), members)]
    pa, ch, left, out = g.parent_bits, g.child_bits, keep, []
    ready = sum(1 << i for i in _pick(g.index.values(), keep) if cut >> i & 1 or not pa[i] & keep)
    while ready:
        i = (ready & -ready).bit_length() - 1
        if members >> i & 1:
            out.append((i, keep ^ left))  # the indices ordered so far
        left ^= 1 << i
        ready ^= 1 << i
        kids = ch[i] & left  # a child in the cut is ready already: setting its bit again changes nothing
        while kids:
            c = kids.bit_length() - 1
            kids ^= 1 << c
            if not pa[c] & left:
                ready |= 1 << c
    if left:
        raise GraphError(f"directed part contains a cycle: {' -> '.join(_cycle(g, left))}")
    return out


def _cycle(g: SemiMarkovianGraph, left: int) -> list[str]:
    """A directed cycle, first node repeated last, among the indices Kahn's loop ``left``
    unordered: each keeps a parent there, so walking up the earliest one must repeat an index."""
    path, i = {}, (left & -left).bit_length() - 1  # a dict: ordered, O(1) lookups
    while i not in path:
        path[i] = None
        up = g.parent_bits[i] & left
        i = (up & -up).bit_length() - 1
    walk = list(path)
    return [g.nodes[j] for j in (i, *walk[:walk.index(i):-1], i)]
