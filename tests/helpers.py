"""Shared test fixtures: canonical diagrams, random generators, independent
oracles used to cross-check library output."""

from __future__ import annotations

import itertools

import numpy as np

import ztransport as zt
from ztransport import expr as E

G = zt.SemiMarkovianGraph.create
D = zt.SelectionDiagram.create


# -- canonical catalog -------------------------------------------------------

def chain_graph():
    return G(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")])


def bow_graph():
    return G(["X", "Y"], [("X", "Y")], [("X", "Y")])


def front_door_graph():
    return G(["X", "M", "Y"], [("X", "M"), ("M", "Y")], [("X", "Y")])


def back_door_graph():
    return G(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])


def napkin_graph():
    return G(
        ["W1", "W2", "X", "Y"],
        [("W1", "W2"), ("W2", "X"), ("X", "Y")],
        [("W1", "X"), ("W1", "Y")],
    )


# -- the study diagrams ------------------------------------------------------
# Four-node diagrams where the effect of X on Y is not identifiable from
# observations but transports once experiments on Z are available in the
# source; S marks Z.  Swapping the controllable to W breaks identification,
# and (except in the first) pointing S at W breaks transport.

def fig2a():
    g = G(["W", "Z", "X", "Y"],
          [("W", "Z"), ("Z", "X"), ("X", "Y")],
          [("W", "Y"), ("X", "Z"), ("Z", "Y")])
    return D(g, ["Z"])


def fig2b():
    # the adjustment-needing member of the family
    g = G(["Z", "W", "X", "Y"],
          [("Z", "X"), ("W", "X"), ("X", "Y"), ("W", "Y")],
          [("X", "Z"), ("Z", "Y"), ("W", "Y")])
    return D(g, ["Z"])


def fig2c():
    g = G(["Z", "W", "X", "Y"],
          [("Z", "X"), ("X", "Y"), ("W", "Y")],
          [("X", "Z"), ("Z", "Y"), ("W", "Y")])
    return D(g, ["Z"])


def fig2d():
    g = G(["W", "Z", "X", "Y"],
          [("W", "Z"), ("Z", "X"), ("X", "Y"), ("W", "Y")],
          [("X", "Z"), ("Z", "Y"), ("W", "Y")])
    return D(g, ["Z"])


FIG2_QUERY = (["X"], ["Y"], ["Z"])


def fig5a():
    g = G(["Z1", "Z2", "W", "X", "Y"],
          [("Z1", "X"), ("W", "X"), ("X", "Y"), ("X", "Z2"), ("Z2", "Y")],
          [("X", "Z1"), ("Z1", "Y")])
    return D(g, ["W"])


def fig5b():
    g = G(["Z1", "Z2", "W", "X", "Y"],
          [("W", "X"), ("X", "Y"), ("Z1", "Y"), ("X", "Z2"), ("Z2", "Y")],
          [("Z1", "Y")])
    return D(g, ["W"])


def fig5c():
    g = G(["X1", "X2", "V1", "Y1", "Y2"],
          [("X1", "Y1"), ("V1", "Y1"), ("V1", "Y2"), ("X2", "Y2")],
          [("X2", "Y2")])
    return D(g, ["Y1"])


def fig5d():
    g = G(["X1", "X2", "V1", "Y1", "Y2"],
          [("V1", "X1"), ("X1", "Y1"), ("X2", "Y2")],
          [("X2", "Y2")])
    return D(g, ["Y1"])


FIG5_QUERIES = {
    "fig5a": (["X"], ["Y"], ["Z1", "Z2"]),
    "fig5b": (["X"], ["Y"], ["Z1", "Z2"]),
    "fig5c": (["X1", "X2"], ["Y1", "Y2"], ["V1", "X2"]),
    "fig5d": (["X1", "X2"], ["Y1", "Y2"], ["V1", "X2"]),
}

GOLDEN = {
    "fig2a": (fig2a, FIG2_QUERY),
    "fig2b": (fig2b, FIG2_QUERY),
    "fig2c": (fig2c, FIG2_QUERY),
    "fig2d": (fig2d, FIG2_QUERY),
    "fig5a": (fig5a, FIG5_QUERIES["fig5a"]),
    "fig5b": (fig5b, FIG5_QUERIES["fig5b"]),
    "fig5c": (fig5c, FIG5_QUERIES["fig5c"]),
    "fig5d": (fig5d, FIG5_QUERIES["fig5d"]),
}


# -- random generators -------------------------------------------------------

def random_graph(seed: int, master: int = 101, max_nodes: int = 7, max_bi: int = 4):
    rng = np.random.default_rng([master, seed])
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"V{i}" for i in range(n)]
    directed = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    n_bi = int(rng.integers(0, max_bi + 1))
    bidirected = [(names[i], names[j]) for i, j in pairs[:n_bi]]
    return G(names, directed, bidirected), rng


def sparse_graph(seed: int, master: int, max_parents: int = 2, n_bi: int | None = None):
    """A graph of n = 65-130 nodes, past one 64-bit word, declared in order:
    each node draws 0..max_parents parents among the five declared before
    it, and n_bi (default n/2) bidirected edges join nodes at most five apart."""
    rng = np.random.default_rng([master, seed])
    n = int(rng.integers(65, 131))
    n_bi = n // 2 if n_bi is None else n_bi
    names = [f"V{i}" for i in range(n)]
    directed = [
        (names[int(j)], names[i])
        for i in range(1, n)
        for j in rng.choice(range(max(0, i - 5), i), size=min(i, int(rng.integers(0, max_parents + 1))), replace=False)
    ]
    bidirected: set[tuple[str, str]] = set()
    while len(bidirected) < n_bi:
        a = int(rng.integers(0, n - 1))
        bidirected.add((names[a], names[min(n - 1, a + int(rng.integers(1, 6)))]))
    return G(names, directed, sorted(bidirected)), rng


def random_diagram(seed: int, master: int = 101):
    """Random selection diagram plus a random query over it."""
    g, rng = random_graph(seed, master)
    names = list(g.nodes)
    n = len(names)
    perm = list(rng.permutation(n))
    kx = int(rng.integers(1, 3))
    ky = int(rng.integers(1, 3))
    x = [names[i] for i in perm[:kx]]
    y = [names[i] for i in perm[kx:kx + ky]]
    rest = [names[i] for i in perm[kx + ky:]]
    kz = int(rng.integers(0, 4))
    zset = [v for v in (rest + x) if rng.random() < 0.5][:kz]
    ks = int(rng.integers(0, 3))
    s = [names[i] for i in rng.permutation(n)[:ks]]
    return D(g, s), x, y, zset


# -- independent oracles -----------------------------------------------------

class UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def union_find_components(g: zt.SemiMarkovianGraph) -> set[frozenset[str]]:
    """Independent c-component oracle: union-find over bidirected edges."""
    uf = UnionFind(g.nodes)
    for e in g.bidirected_edges:
        a, b = tuple(e)
        uf.union(a, b)
    groups: dict[str, set[str]] = {}
    for v in g.nodes:
        groups.setdefault(uf.find(v), set()).add(v)
    return {frozenset(s) for s in groups.values()}


def brute_force_separated(g, a, b, c=()):
    """Path-enumeration d-separation oracle on the latent-expanded DAG."""
    pa = {n: {a for a, b in g.directed_edges if b == n} for n in g.nodes}
    ch = {n: {b for a, b in g.directed_edges if a == n} for n in g.nodes}
    for k, e in enumerate(sorted(g.bidirected_edges, key=lambda e: sorted(e))):
        u = ("u", k)  # a tuple, so no node name can stand for it
        pa[u] = set()
        ch[u] = set(e)
        for v in e:
            pa[v].add(u)
    nodes = list(pa)
    a, b, c = set(a), set(b), set(c)

    def descendants(n):
        out, front = {n}, [n]
        while front:
            m = front.pop()
            for d in ch.get(m, ()):  # latent names included
                if d not in out:
                    out.add(d)
                    front.append(d)
        return out

    def open_paths(start):
        # walk all simple paths, tracking edge directions for collider tests
        stack = [(start, None, [start])]
        while stack:
            node, arrived_head, path = stack.pop()
            if node in b and len(path) > 1:
                return True
            for nxt in pa[node] | ch.get(node, set()):
                if nxt in path:
                    continue
                leaving_head = nxt in pa[node]  # edge points into `node`?
                # `node` is a collider on the path iff both edges point at it
                if len(path) > 1:
                    is_collider = arrived_head and leaving_head
                    if is_collider:
                        if not (descendants(node) & c):
                            continue
                    else:
                        if node in c:
                            continue
                stack.append((nxt, not leaving_head, path + [nxt]))
        return False

    return not any(open_paths(s) for s in a)


def exogenize(m: zt.DiscreteSCM, nodes) -> zt.DiscreteSCM:
    """m with the mechanisms of the given nodes replaced, so each depends on
    its private noise only: the reference model for experiments on them."""
    nodes = m.diagram.check_nodes(nodes)
    functions = dict(m.functions)
    for v in nodes:
        fn = m.functions[v]
        functions[v] = np.broadcast_to(np.arange(fn.shape[-1]) % m.arities[v], fn.shape).copy()
    return zt.DiscreteSCM(m.diagram, m.arities, m.latents, m.noise, functions)


class Tables:
    """A hand-made table supply for ``expr.compile_expr`` and ``expr.evaluate``,
    with the three members they read: ``nodes``, ``arity`` and ``joint``.
    ``target`` is the target's array over ``nodes``; ``source`` maps a do-set
    to the source's array over ``nodes`` with its do() axes free.  Arities
    are read off the target's shape."""

    def __init__(self, nodes, target, source=()):
        self.nodes = tuple(nodes)
        self.joints = {(E.TARGET, frozenset()): np.asarray(target)}
        self.joints.update(((E.SOURCE, do), a) for do, a in dict(source).items())

    def arity(self, v):
        try:
            return self.joints[E.TARGET, frozenset()].shape[self.nodes.index(E.base_var(v))]
        except ValueError:
            raise E.EvalError(f"unknown variable: {v}") from None

    def joint(self, domain, do):
        try:
            return self.joints[domain, do]
        except KeyError:
            raise E.EvalError(f"no {domain} table for do({sorted(do)})") from None


def chain_conditioners(g, w, cut, v) -> tuple[str, ...]:
    """Reference for a chain term's conditioning set: the nodes ahead of v in
    ``topological_order(g, w, cut)``, less the cut, name-sorted."""
    order = zt.topological_order(g, w, cut)
    return tuple(sorted(set(order[:order.index(v)]) - set(cut)))


def term_shapes_ok(e, z_allowed) -> bool:
    """The well-formedness contract: target terms are do-free and source
    do-sets remain inside the controllable set."""
    if isinstance(e, E.Term):
        if e.domain == E.TARGET and e.do:
            return False
        if e.domain == E.SOURCE and not {E.base_var(v) for v in e.do} <= set(z_allowed):
            return False
        return True
    if isinstance(e, E.Product):
        return all(term_shapes_ok(f, z_allowed) for f in e.factors)
    if isinstance(e, E.Sum):
        return term_shapes_ok(e.body, z_allowed)
    if isinstance(e, E.Quotient):
        return term_shapes_ok(e.num, z_allowed) and term_shapes_ok(e.den, z_allowed)
    return True
