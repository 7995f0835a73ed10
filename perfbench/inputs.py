"""Seeded input generators for the benchmark workloads.

Every input reaches the program as diagram text, the format read by
``ztransport.cli.parse_diagram``.  Nothing here imports ztransport: the
generators use numpy only, so they describe the inputs independently of
the code under measurement.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# criterion-4 stream of the acceptance suite: random_diagram(i, master=8101)
SWEEP_MASTER = 8101
SWEEP_DIAGRAMS = 150
SWEEP_PAIRS = 20
GOLDEN_PAIRS = 100
LARGE_MASTER = 4242
LARGE_SIZES = (50, 100, 200, 400)
# Sizes of one block of the large_decide list.  Six of ten queries have 200
# nodes and two have 400, so the median latency falls in the middle of the
# 200-node class and p90 in the middle of the 400-node class, not in a gap
# between classes.
LARGE_BLOCK = (50, 100) + (200,) * 6 + (400,) * 2
LARGE_BLOCKS = 12
LARGE_PICK_FAIL = 2  # non-transportable queries per block slot; the rest transport
# queries per size covered by the reference file; each list takes most of
# each pool, so lists of different seeds overlap and their costs agree
LARGE_POOL = {50: 32, 100: 32, 200: 96, 400: 32}

VERDICT_CODES = {"transportable": "T", "hedge": "h", "shedge": "s"}


@dataclass(frozen=True)
class QuerySpec:
    """One selection diagram plus its query, as plain names."""

    name: str
    nodes: tuple[str, ...]
    directed: tuple[tuple[str, str], ...]
    bidirected: tuple[tuple[str, str], ...]
    select: tuple[str, ...]
    x: tuple[str, ...]
    y: tuple[str, ...]
    z: tuple[str, ...]

    def text(self) -> str:
        lines = [f"node {v}" for v in self.nodes]
        lines += [f"{a} -> {b}" for a, b in self.directed]
        lines += [f"{a} <-> {b}" for a, b in self.bidirected]
        lines += [f"select {v}" for v in self.select]
        for key, names in (("X", self.x), ("Y", self.y), ("Z", self.z)):
            if names:
                lines.append(f"{key}: " + " ".join(names))
        return "\n".join(lines) + "\n"


# -- golden: the study diagrams with their README queries --------------------

def _edges(spec: str, arrow: str) -> tuple[tuple[str, str], ...]:
    return tuple(tuple(v.strip() for v in e.split(arrow)) for e in spec.split(","))


def _spec(name, nodes, directed, bidirected, select, x, y, z) -> QuerySpec:
    return QuerySpec(
        name,
        tuple(nodes.split()),
        _edges(directed, "->"),
        _edges(bidirected, "<->"),
        tuple(select.split()),
        tuple(x.split()),
        tuple(y.split()),
        tuple(z.split()),
    )


GOLDEN = (
    _spec("fig2a", "W Z X Y", "W->Z, Z->X, X->Y", "W<->Y, X<->Z, Z<->Y", "Z", "X", "Y", "Z"),
    _spec("fig2b", "Z W X Y", "Z->X, W->X, X->Y, W->Y", "X<->Z, Z<->Y, W<->Y", "Z", "X", "Y", "Z"),
    _spec("fig2c", "Z W X Y", "Z->X, X->Y, W->Y", "X<->Z, Z<->Y, W<->Y", "Z", "X", "Y", "Z"),
    _spec("fig2d", "W Z X Y", "W->Z, Z->X, X->Y, W->Y", "X<->Z, Z<->Y, W<->Y", "Z", "X", "Y", "Z"),
    _spec("fig5a", "Z1 Z2 W X Y", "Z1->X, W->X, X->Y, X->Z2, Z2->Y", "X<->Z1, Z1<->Y",
          "W", "X", "Y", "Z1 Z2"),
    _spec("fig5b", "Z1 Z2 W X Y", "W->X, X->Y, Z1->Y, X->Z2, Z2->Y", "Z1<->Y",
          "W", "X", "Y", "Z1 Z2"),
    _spec("fig5c", "X1 X2 V1 Y1 Y2", "X1->Y1, V1->Y1, V1->Y2, X2->Y2", "X2<->Y2",
          "Y1", "X1 X2", "Y1 Y2", "V1 X2"),
    _spec("fig5d", "X1 X2 V1 Y1 Y2", "V1->X1, X1->Y1, X2->Y2", "X2<->Y2",
          "Y1", "X1 X2", "Y1 Y2", "V1 X2"),
)


# -- random_sweep: the acceptance suite's random selection diagrams -----------

def random_query(index: int, master: int = SWEEP_MASTER) -> QuerySpec:
    """Random selection diagram and query: 3-7 nodes, at most 4 bidirected
    edges, at most 3 controllables and 2 selection marks.

    Draws from the generator in the same order as the acceptance suite's
    ``random_diagram(index, master)``, so the two yield the same diagrams.
    """
    rng = np.random.default_rng([master, index])
    n = int(rng.integers(3, 8))
    names = [f"V{i}" for i in range(n)]
    directed = [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
    ]
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    n_bi = int(rng.integers(0, 5))
    bidirected = [(names[i], names[j]) for i, j in pairs[:n_bi]]
    perm = list(rng.permutation(n))
    kx = int(rng.integers(1, 3))
    ky = int(rng.integers(1, 3))
    x = [names[i] for i in perm[:kx]]
    y = [names[i] for i in perm[kx:kx + ky]]
    rest = [names[i] for i in perm[kx + ky:]]
    kz = int(rng.integers(0, 4))
    z = [v for v in (rest + x) if rng.random() < 0.5][:kz]
    ks = int(rng.integers(0, 3))
    select = [names[i] for i in rng.permutation(n)[:ks]]
    return QuerySpec(
        f"sweep{index}", tuple(names), tuple(directed), tuple(bidirected),
        tuple(select), tuple(x), tuple(y), tuple(z),
    )


def sweep_queries() -> list[QuerySpec]:
    return [random_query(i) for i in range(SWEEP_DIAGRAMS)]


# -- large_decide: layered random selection diagrams --------------------------

def layered_query(n: int, index: int) -> QuerySpec:
    """Layered selection diagram of ``n`` nodes in layers of 10.

    Each node draws 1-3 parents from the two layers above it; n/4
    bidirected edges join nodes at most one layer apart; n/15 nodes carry
    selection marks.  Y is 1-2 nodes of the last layer and X is 1-2
    ancestors of Y in the middle layer; Z is n/10 nodes outside Y.  In
    about one query in seven, X is confounded with a marked child on its
    way to Y, which usually makes the effect not transportable.
    """
    rng = np.random.default_rng([LARGE_MASTER, n, index])
    names = [f"V{i}" for i in range(n)]
    layers = [list(range(i, min(i + 10, n))) for i in range(0, n, 10)]
    layer_of = np.arange(n) // 10
    parents: dict[int, list[int]] = {v: [] for v in range(n)}
    for li in range(1, len(layers)):
        pool = layers[li - 1] + (layers[li - 2] if li >= 2 else [])
        for v in layers[li]:
            k = min(int(rng.integers(1, 4)), len(pool))
            parents[v] = sorted(int(p) for p in rng.choice(pool, size=k, replace=False))
    bidirected: set[tuple[int, int]] = set()
    while len(bidirected) < n // 4:
        a = int(rng.integers(0, n))
        near = np.flatnonzero(np.abs(layer_of - layer_of[a]) <= 1)
        b = int(rng.choice(near[near != a]))
        bidirected.add((min(a, b), max(a, b)))
    select = {int(i) for i in rng.choice(n, size=max(1, n // 15), replace=False)}
    y = sorted({int(i) for i in rng.choice(layers[-1], size=int(rng.integers(1, 3)), replace=False)})
    an_y, front = set(y), list(y)
    while front:
        for p in parents[front.pop()]:
            if p not in an_y:
                an_y.add(p)
                front.append(p)
    middle = layers[len(layers) // 2]
    mid = [v for v in middle if v in an_y] or middle
    kx = min(len(mid), int(rng.integers(1, 3)))
    x = sorted({int(i) for i in rng.choice(mid, size=kx, replace=False)})
    rest = [v for v in range(n) if v not in y]
    z = {int(i) for i in rng.choice(rest, size=max(1, n // 10), replace=False)}
    if rng.random() < 0.15:
        kids = [v for v in sorted(an_y) if x[0] in parents[v] and v not in y]
        if kids:
            bidirected.add((min(x[0], kids[0]), max(x[0], kids[0])))
            select.add(kids[0])
            z.discard(kids[0])
    return QuerySpec(
        f"layered{n}_{index}",
        tuple(names),
        tuple((names[p], names[v]) for v in range(n) for p in parents[v]),
        tuple((names[a], names[b]) for a, b in sorted(bidirected)),
        tuple(names[v] for v in sorted(select)),
        tuple(names[v] for v in x),
        tuple(names[v] for v in y),
        tuple(names[v] for v in sorted(z)),
    )


def large_queries(seed: int, reference: dict) -> list[tuple[QuerySpec, str]]:
    """The large_decide list for one seed, with each query's reference code.

    For each block slot, the seed picks LARGE_PICK_FAIL non-transportable
    queries of that size from the reference pool and fills the slot's other
    places with transportable ones, so every list has the same verdict mix.
    The list is LARGE_BLOCKS blocks, so any prefix holds the sizes in the
    same measure.
    """
    rng = np.random.default_rng([LARGE_MASTER, 1, seed])
    queues = {}
    for n in LARGE_SIZES:
        slots = LARGE_BLOCK.count(n)
        codes = reference["large_decide"][str(n)]
        ok = [i for i, c in enumerate(codes) if c == "T"]
        fail = [i for i, c in enumerate(codes) if c != "T"]
        n_fail = slots * LARGE_PICK_FAIL
        picked = list(rng.choice(ok, size=slots * LARGE_BLOCKS - n_fail, replace=False))
        picked += list(rng.choice(fail, size=n_fail, replace=False))
        queues[n] = [(layered_query(n, int(i)), codes[i]) for i in rng.permutation(picked)]
    return [queues[n].pop() for _ in range(LARGE_BLOCKS) for n in LARGE_BLOCK]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
