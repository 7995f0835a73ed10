"""Semi-Markovian graphs and the graph primitives used by the identification engine.

A semi-Markovian graph has directed edges among observed variables plus
bidirected edges, each standing for a hidden common cause of its two
endpoints.  All values are immutable; every operation returns a new graph.
Node order is declaration order and is used as the canonical tie-break
everywhere, so results are deterministic.
A node set may also be a mask, an int whose bit i stands for ``g.nodes[i]``.
Masks are how a graph is stored: ``parent_bits`` and ``sibling_bits`` are its one
adjacency, and its edge sets and ``child_bits`` are views made from them when first read.
One walk over them, ``_reach``, finds every reachable set, and one, ``_ahead``, every order
with each member's predecessors in it.  Spelling a mask as names (``names``, ``_pick``)
costs its set bits when it has few, as most components and chains have; a denser
mask costs one pass over its bits up to the highest.
Each value type has one checked way in, its ``create``; ``induced_subgraph`` builds through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BITS = bytes.maketrans(b"01", b"\0\1")  # bin()'s digits as compress() selectors
# the most set bits a mask may have for _pick to walk them: walking 4 of them beat one
# compress over bin() at every highest bit from 8 to 399
_SPARSE = 4


class InputError(ValueError):
    """Bad caller-supplied values (unknown node, overlapping sets, ...)."""


class GraphError(ValueError):
    """Structurally invalid graph (cycle, bad edge, bad node name)."""


def _made(cls: type, **fields):
    """A ``cls`` holding ``fields``, made without an ``__init__`` by its one maker, which checked them."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _no_init(maker: str):
    """An ``__init__`` that refuses every call, the empty one too, naming the one way in."""
    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(f"{type(self).__name__} is not called: {maker} makes it")
    return __init__


@dataclass(frozen=True, init=False)
class SemiMarkovianGraph:
    """Observed variables plus directed and bidirected edges, stored as masks.

    ``nodes`` is an ordered tuple (declaration order), ``index`` its inverse.
    ``parent_bits[i]`` is the mask of node i's parents and ``sibling_bits[i]``
    the mask of its bidirected-edge neighbours: the graph's one adjacency.
    ``directed_edges`` ((parent, child) pairs), ``bidirected_edges``
    (two-element frozensets) and ``child_bits`` are views made from the masks
    when first read.  ``create`` alone makes a graph.
    """

    nodes: tuple[str, ...]
    parent_bits: tuple[int, ...]
    sibling_bits: tuple[int, ...]
    index: dict[str, int] = field(compare=False, repr=False)
    __init__ = _no_init("SemiMarkovianGraph.create")

    @staticmethod
    def create(
        nodes: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
    ) -> "SemiMarkovianGraph":
        node_tuple = tuple(_node_names(nodes, "nodes"))
        folded: dict[str, str] = {}  # formulas print names lower-cased, so no two may fold alike
        for n in node_tuple:
            if not isinstance(n, str) or not NAME_RE.match(n):
                raise GraphError(f"invalid node name: {n!r}")
            twin = folded.get(n.lower())
            if twin is not None:
                raise GraphError(f"duplicate node: {n}" if twin == n else f"nodes {twin} and {n} differ only in case")
            folded[n.lower()] = n
        index = {n: i for i, n in enumerate(node_tuple)}
        parents, siblings = [0] * len(node_tuple), [0] * len(node_tuple)
        for arrow, edges, into in (("->", directed, parents), ("<->", bidirected, siblings)):
            for edge in edges:
                try:
                    a, b = () if isinstance(edge, str) else edge  # "AB" would read as A, B
                    i, j = index.get(a), index.get(b)
                except (TypeError, ValueError):  # not a pair, or an unhashable endpoint
                    raise GraphError(f"bad edge: {edge!r}") from None
                if i is None or j is None:
                    raise GraphError(f"edge endpoint not declared: {a} {arrow} {b}")
                if i == j:
                    raise GraphError(f"self-loop: {a} {arrow} {b}")
                into[j] |= 1 << i
                if into is siblings:
                    siblings[i] |= 1 << j
        g = _made(SemiMarkovianGraph, nodes=node_tuple, parent_bits=tuple(parents), sibling_bits=tuple(siblings),
                  index=index)
        topological_order(g)  # raises on a directed cycle
        return g

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def directed_edges(self) -> frozenset[tuple[str, str]]:
        """The (parent, child) pairs."""
        return frozenset((a, b) for b, pa in zip(self.nodes, self.parent_bits) for a in _pick(self.nodes, pa))

    @cached_property
    def bidirected_edges(self) -> frozenset[frozenset[str]]:
        """The bidirected edges, each a two-element frozenset."""
        return frozenset(self.bidirected_order)

    @cached_property
    def child_bits(self) -> tuple[int, ...]:
        """The mask of node i's children, for each i."""
        bits = [0] * len(self.nodes)
        for j, pa in enumerate(self.parent_bits):
            for i in _indices(self, pa):
                bits[i] |= 1 << j
        return tuple(bits)

    @cached_property
    def forward(self) -> bool:
        """Every arrow points from an earlier-declared node to a later one."""
        return all(pa < 1 << i for i, pa in enumerate(self.parent_bits))

    @cached_property
    def bidirected_order(self) -> tuple[frozenset[str], ...]:
        """Bidirected edges ordered by their endpoints' node order: the
        order of the hidden variables wherever they are enumerated."""
        return tuple(
            frozenset((a, b))
            for i, (a, sib) in enumerate(zip(self.nodes, self.sibling_bits))
            for b in _pick(self.nodes, sib >> i + 1 << i + 1)  # the neighbours after a
        )

    def sorted(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """Return the given nodes in declaration order."""
        return tuple(sorted(nodes, key=self.index.__getitem__))

    def mask(self, nodes: Iterable[str]) -> int:
        """The mask of the given nodes, each a node of g (``check_nodes`` checks that)."""
        index, m = self.index, 0
        for n in nodes:
            m |= 1 << index[n]
        return m

    def names(self, m: int) -> tuple[str, ...]:
        """The nodes of mask m in declaration order."""
        return tuple(_pick(self.nodes, m))

    def check_nodes(self, nodes: Iterable[str], what: str = "nodes") -> frozenset[str]:
        """The given nodes as a set; InputError names ``what`` for a bare string, and any
        node outside g."""
        s = frozenset(_node_names(nodes, what))
        unknown = s.difference(self.index)
        if unknown:
            raise InputError(f"unknown node(s): {', '.join(sorted(map(repr, unknown)))}")
        return s


@dataclass(frozen=True, init=False)
class SelectionDiagram:
    """A shared causal graph plus the nodes whose mechanisms may differ
    between the source and target domains (the selection-pointed nodes)."""

    graph: SemiMarkovianGraph
    s_targets: frozenset[str]
    __init__ = _no_init("SelectionDiagram.create")

    @staticmethod
    def create(graph: SemiMarkovianGraph, s_targets: Iterable[str] = ()) -> "SelectionDiagram":
        s_targets = _expect(graph, SemiMarkovianGraph, "graph").check_nodes(s_targets, "s_targets")
        return _made(SelectionDiagram, graph=graph, s_targets=s_targets)


@dataclass(frozen=True, init=False)
class Query:
    """A causal query: effect of x on y (nonempty, disjoint), with controllable set z."""

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str]
    __init__ = _no_init("Query.create")

    @staticmethod
    def create(x: Iterable[str], y: Iterable[str], z: Iterable[str] = ()) -> "Query":
        xs, ys, zs = (frozenset(_node_names(v, what)) for v, what in ((x, "x"), (y, "y"), (z, "z")))
        if not ys:
            raise InputError("outcome set y must be nonempty")
        if xs & ys:
            raise InputError(f"x and y overlap: {sorted(xs & ys, key=repr)}")  # unchecked names may be non-strings
        return _made(Query, x=xs, y=ys, z=zs)

    def validate_against(self, g: SemiMarkovianGraph) -> None:
        _expect(g, SemiMarkovianGraph, "g").check_nodes(self.x)
        g.check_nodes(self.y)
        g.check_nodes(self.z)


def _node_names(nodes: Iterable[str], what: str) -> Iterable[str]:
    """``nodes`` as given, unless a bare string: InputError naming ``what``, where its
    characters would be read as node names."""
    if isinstance(nodes, str):
        raise InputError(f"{what} must be a collection of node names, not the string {nodes!r}")
    return nodes


def _expect(value, cls: type, what: str):
    """``value``, unless it is not a ``cls``: a TypeError naming ``what``, raised at the
    entry point where the value would otherwise fail deep inside."""
    if not isinstance(value, cls):
        raise TypeError(f"{what} must be a {cls.__name__}, not {type(value).__name__}")
    return value


def _pick(items: Sequence, m: int) -> Iterable:
    """The items at the set bits of mask m, in index order.  A sparse mask (at most
    ``_SPARSE`` set bits) walks them lowest first, at a cost per set bit; a denser one
    is one ``compress`` over ``bin(m)``, at a cost per bit up to the highest.  Only
    the walk indexes ``items``."""
    if m.bit_count() > _SPARSE:
        return compress(items, bin(m)[:1:-1].encode().translate(_BITS))
    out = []
    while m:
        low = m & -m
        out.append(items[low.bit_length() - 1])
        m ^= low
    return out


def _indices(g: SemiMarkovianGraph, m: int) -> Iterable[int]:
    """The indices of mask m's set bits in order.  A dense m reads them off ``g.index``,
    which holds the ints 0..n-1, where range() would make each one past 256 anew; a
    sparse m's walk needs items it can index, and makes at most ``_SPARSE`` of them."""
    return _pick(g.index.values() if m.bit_count() > _SPARSE else range(len(g.nodes)), m)


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
    cut), w)`` without building that graph.  It makes its own ``within``
    checks: InputError unless w, cut and within are node sets of g and
    within holds w.
    """
    start = _expect(g, SemiMarkovianGraph, "g").mask(g.check_nodes(w, "w"))
    keep = -1 if within is None else g.mask(g.check_nodes(within, "within"))
    if start & ~keep:
        raise InputError(f"node(s) outside within: {', '.join(g.names(start & ~keep))}")
    return frozenset(g.names(_reach(g.parent_bits, start, g.mask(g.check_nodes(cut, "cut")), keep)))


def induced_subgraph(g: SemiMarkovianGraph, w: Iterable[str], cut: Iterable[str] = ()) -> SemiMarkovianGraph:
    """Subgraph on node set w keeping every edge with both endpoints in w,
    less the arrows into ``cut``; a bidirected edge is an arrow from a
    hidden parent, so it goes when either endpoint is cut.  Built by
    ``create`` from w's names and the edges read off g's masks."""
    keep = _expect(g, SemiMarkovianGraph, "g").mask(g.check_nodes(w, "w"))
    heads = keep & ~g.mask(g.check_nodes(cut, "cut"))  # the nodes that keep their incoming arrows
    names, kept = g.nodes, list(_indices(g, heads))
    directed = [(a, names[i]) for i in kept for a in _pick(names, g.parent_bits[i] & keep)]
    bidirected = [(names[i], b) for i in kept for b in _pick(names, g.sibling_bits[i] & heads >> i + 1 << i + 1)]
    return SemiMarkovianGraph.create(g.names(keep), directed, bidirected)


def mutilate(g: SemiMarkovianGraph, cut_incoming: Iterable[str] = ()) -> SemiMarkovianGraph:
    """Delete arrows into ``cut_incoming``: the cut subgraph on all of g."""
    return induced_subgraph(g, _expect(g, SemiMarkovianGraph, "g").nodes, _node_names(cut_incoming, "cut_incoming"))


def c_components(g: SemiMarkovianGraph, w: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Partition of w (default: all of g) into the maximal bidirected-connected
    components of G[w], without building G[w]; ordered by the declaration
    index of each component's earliest member."""
    keep = _expect(g, SemiMarkovianGraph, "g").mask(g.nodes if w is None else g.check_nodes(w, "w"))
    return [frozenset(g.names(c)) for c in _partition(g, keep)]


def _partition(g: SemiMarkovianGraph, keep: int) -> list[int]:
    """``c_components`` on masks: the components of G[keep], earliest first."""
    comps = []
    while keep:
        comps.append(_reach(g.sibling_bits, keep & -keep, keep=keep))
        keep &= ~comps[-1]
    return comps


def topological_order(g: SemiMarkovianGraph, w: Iterable[str] | None = None, cut: Iterable[str] = ()) -> list[str]:
    """``_ahead``'s order on names, for G[w] (default: all of g) less the arrows into ``cut``, both
    node sets of g.  Unless g is forward, G[w]'s order need not be g's order filtered to w."""
    keep = _expect(g, SemiMarkovianGraph, "g").mask(g.nodes if w is None else g.check_nodes(w, "w"))
    return [g.nodes[i] for i, _ in _ahead(g, keep, g.mask(g.check_nodes(cut, "cut")), keep)]


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
    if g.forward:
        return [(i, keep & ((1 << i) - 1)) for i in _indices(g, members)]
    pa, ch, left, out = g.parent_bits, g.child_bits, keep, []
    ready = sum(1 << i for i in _indices(g, keep) if cut >> i & 1 or not pa[i] & keep)
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
