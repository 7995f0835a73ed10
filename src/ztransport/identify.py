"""Identification engines for z-transportability.

``gid_z`` decides generalized z-identifiability of P_x(y) from the source
observational distribution plus experiments on subsets of Z, allowing
Z to overlap X.  ``sid_z`` decides z-transportability over a selection
diagram, postponing the use of experiments until after the c-component
factorization and choosing, per factor, between the source (directly
transportable components) and the target (trivially transportable ones).
``sid_z`` identifies each c-factor with the same recursion run with no
controllable experiments left (the paper's BI).  Failures surface as
hedge or s-hedge witnesses, raised inside the recursion as ``FailedFactor``.

The recursion threads a symbolic stand-in for its current distribution.
A base distribution is its ``DistLabel`` (domain, do-set), each of whose
marginals and conditionals is one term.  A derived one is a ``_Joint``:
the product of conditionals built over a c-component, an expression whose
marginals are sums of it and whose conditionals are quotients of those.
Both answer ``restrict``, ``marginal_expr`` and ``conditional_expr``; only
a base distribution can switch on experiments.

Every call reads one diagram g, never rebuilt, and a node set V.  The
graph at hand is G[V] with the arrows into ``P.do`` cut: the cut is always
exactly the experiment the current distribution comes from.  A graph is
built only for a failure witness.  Its node sets (y, x, z, V, the cut, the
components) are masks over g's declaration indices (``g.mask``, ``g.names``):
names enter only to build terms, sums, do-sets, the partition and witnesses.

``sid_z`` reads each factor's An(c) off one ancestor table per call (each
node's ancestors in An(y), arrows into z cut, filled in one topological
order of An(y)) as one union of table entries, and starts the factor's
recursion after its ancestral step (``_gid_an``); a nested call takes that
step with one mask walk.  Every order here, An(y)'s and each chain's, is
read off one walk, ``graph._ahead``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import expr as E
from .expr import ONE, ProbExpr, marginal_sum, product, sum_over, term
from .graph import (
    InputError,
    Query,
    SelectionDiagram,
    SemiMarkovianGraph,
    _ahead,
    _partition,
    _pick,
    _reach,
    induced_subgraph,
)


class InternalError(RuntimeError):
    """An algorithm invariant was violated; indicates a bug, not bad input."""


@dataclass(frozen=True)
class DistLabel:
    """Which base distribution the current call reads: a domain plus the
    do-set of the experiment it came from.  The recursion uses the label
    itself as the stand-in for that distribution: each of its marginals and
    conditionals is one term of it."""

    domain: str = E.SOURCE
    do: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.domain not in (E.SOURCE, E.TARGET):
            raise InputError(f"bad domain: {self.domain!r}")
        if self.domain == E.TARGET and self.do:
            raise InputError("target distributions carry no interventions")

    def restrict(self, g: SemiMarkovianGraph, keep: int) -> "DistLabel":
        return self

    def marginal_expr(self, y: tuple[str, ...]) -> ProbExpr:
        return term(self.domain, outcome=y, do=self.do) if y else ONE

    def conditional_expr(self, v: str, given: tuple[str, ...]) -> ProbExpr:
        """P(v | given) as one term; ``given`` arrives name-sorted and holds no node of the do-set."""
        return E.Term(self.domain, tuple(sorted(self.do)), (v,), given)


@dataclass(frozen=True)
class Witness:
    """Evidence of failure: the single-c-component graph F and the strict
    subgraph F' at which identification got stuck."""

    kind: str  # "hedge" | "shedge"
    f_graph: SemiMarkovianGraph
    f_sub: SemiMarkovianGraph
    s_targets_in_component: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.kind not in ("hedge", "shedge"):
            raise InputError(f"bad witness kind: {self.kind}")


@dataclass
class IdentTrace:
    """Per-call instrumentation used by the consistency test suites.  The
    recursion fills it in place; it is not changed after the call returns."""

    line3_activations: int = 0
    decompositions: int = 0
    partition: tuple[frozenset[str], ...] | None = None


@dataclass(frozen=True)
class IdentResult:
    """Either a formula or a failure witness, plus warnings and a trace."""

    formula: ProbExpr | None = None
    witness: Witness | None = None
    warnings: tuple[str, ...] = ()
    trace: IdentTrace = field(default_factory=IdentTrace, compare=False)

    @property
    def ok(self) -> bool:
        return self.formula is not None

    def __post_init__(self):
        if (self.formula is None) == (self.witness is None):
            raise InternalError("exactly one of formula/witness must be set")


class FailedFactor(Exception):
    """FAIL<F, F'>: a c-factor is not identifiable; carries the witness."""

    def __init__(self, witness: Witness):
        self.witness = witness
        super().__init__(witness.kind)


# ---------------------------------------------------------------------------
# the symbolic stand-in for a derived current distribution; a base one is
# its DistLabel


@dataclass(frozen=True)
class _Joint:
    """A joint expression over ``rand_vars`` built from terms under the
    experiment ``do``; marginals are its partial sums and conditionals
    quotients of them."""

    joint: ProbExpr
    rand_vars: tuple[str, ...]
    do: frozenset[str]

    def restrict(self, g: SemiMarkovianGraph, keep: int) -> "_Joint":
        kept = tuple(filter(frozenset(g.names(keep)).__contains__, self.rand_vars))
        return _Joint(self.marginal_expr(kept), kept, self.do)

    def marginal_expr(self, y: tuple[str, ...]) -> ProbExpr:
        return marginal_sum([v for v in self.rand_vars if v not in y], self.joint)

    def conditional_expr(self, v: str, given: tuple[str, ...]) -> ProbExpr:
        given_r = frozenset(given) & frozenset(self.rand_vars)
        num = marginal_sum([w for w in self.rand_vars if w not in given_r and w != v], self.joint)
        den = marginal_sum([w for w in self.rand_vars if w not in given_r], self.joint)
        return E.Quotient(num, den)


def _chain_over(P: DistLabel | _Joint, g: SemiMarkovianGraph, V: int, cut: int, members: int) -> _Joint:
    """The joint of ``members`` as the product of P's conditionals, each
    variable given every predecessor in the topological order of the graph
    at hand, G[V] less the arrows into ``cut`` (ID's line 7).  One pass of
    ``_ahead`` yields each member with its mask of predecessors.  ``cut`` is
    ``P.do``'s mask, so a conditioning set is that mask less the cut, handed
    to P name-sorted and cut-free."""
    nodes, rand_vars, factors = g.nodes, [], []
    for i, ahead in _ahead(g, V, cut, members):
        rand_vars.append(nodes[i])
        factors.append(P.conditional_expr(nodes[i], tuple(sorted(_pick(nodes, ahead & ~cut)))))
    return _Joint(product(factors), tuple(rand_vars), P.do)


# ---------------------------------------------------------------------------
# GID^z, and BI as GID^z with no controllable experiments left

def _gid(
    y: int,
    x: int,
    z: int,
    P: DistLabel | _Joint,
    g: SemiMarkovianGraph,
    V: int,
    trace: IdentTrace,
    depth: int,
) -> ProbExpr:
    """Identify P_x(y) from P, switching on experiments on subsets of z, in
    the graph at hand: G[V] with the arrows into ``P.do`` cut."""
    if depth <= 0:
        raise InternalError("recursion depth guard exceeded")

    # nothing left to intervene on: read the marginal off the current P
    if not x:
        return P.marginal_expr(g.names(y))

    # restrict to the ancestors of y
    cut = g.mask(P.do)
    V = _reach(g.parent_bits, y, cut, V)
    return _gid_an(y, x & V, z, P.restrict(g, V), g, V, cut, trace, depth)


def _gid_an(
    y: int,
    x: int,
    z: int,
    P: DistLabel | _Joint,
    g: SemiMarkovianGraph,
    V: int,
    cut: int,
    trace: IdentTrace,
    depth: int,
) -> ProbExpr:
    """``_gid`` from its ancestral step on: V is An(y) in the graph at hand
    and ``cut`` the mask of ``P.do``."""
    if not x:
        return P.marginal_expr(g.names(y))

    # cover x with the non-ancestors it creates, switching on experiments
    # where the controllable set allows it; y is among its own ancestors, so
    # only nodes outside x, P's do-set and y can be non-ancestors
    xa = (x | cut) & V
    w = V & ~xa & ~y
    if w:
        w &= ~_reach(g.parent_bits, y, xa, V)
    z_w = z & (x | w)
    if z_w | w:
        if z_w:
            trace.line3_activations += 1
            if trace.line3_activations > 1:
                raise InternalError("experiments were activated twice in one trace")
            if not isinstance(P, DistLabel):
                raise InternalError("activation requires a base distribution")
            P = DistLabel(P.domain, P.do.union(g.names(z_w)))
        return _gid(y, (x | w) & ~z_w, z & ~z_w, P, g, V, trace, depth - 1)

    # factorize over the confounded components
    comps = _partition(g, V & ~xa)
    if trace.partition is None:
        trace.partition = tuple(frozenset(g.names(c)) for c in comps)
    if len(comps) > 1:
        trace.decompositions += 1
        if trace.decompositions > 1:
            raise InternalError("decomposition executed twice in one trace")
        factors = []
        for c in comps:
            newly = z & V & ~c
            if newly and not isinstance(P, DistLabel):
                raise InternalError("activation requires a base distribution")
            p_i = DistLabel(P.domain, P.do.union(g.names(newly))) if newly else P
            factors.append(_gid(c, V & ~c & ~z, z & c, p_i, g, V, trace, depth - 1))
        return sum_over(g.names(V & ~(y | xa)), product(factors))
    c = comps[0]

    # the confounded component holding c, where the cut leaves no bidirected
    # edge at P.do; spanning the whole graph at hand, it is a dead end
    containing = _reach(g.sibling_bits, c, keep=V & ~cut)
    if containing == V:
        raise FailedFactor(Witness("hedge", induced_subgraph(g, g.names(V), P.do), induced_subgraph(g, g.names(c))))

    chain = _chain_over(P, g, V, cut, containing)
    # the component is intact in the graph at hand: emit its factor chain directly
    if c == containing:
        return marginal_sum(g.names(c & ~y), chain.joint)

    # otherwise descend into the strictly larger component
    return _gid(y, x & containing, z, chain, g, containing, trace, depth - 1)


def _identify(
    y: Iterable[str],
    x: Iterable[str],
    z: Iterable[str],
    g: SemiMarkovianGraph,
    run: Callable[[int, int, int, IdentTrace, int], ProbExpr],
) -> IdentResult:
    """Check the query, then call ``run(y, x, z, trace, depth)`` on its masks,
    a fresh trace and a depth guard; a ``FailedFactor`` is the result's witness."""
    q = Query.create(x, y, z)
    q.validate_against(g)
    warnings: tuple[str, ...] = ()
    if q.z & q.y:
        warnings = (
            "dropped controllable variables inside y (experiments on them "
            f"have no bearing): {sorted(q.z & q.y)}",
        )
        q = Query(q.x, q.y, q.z - q.y)
    trace = IdentTrace()
    try:
        f = run(g.mask(q.y), g.mask(q.x), g.mask(q.z), trace, 4 * len(g.nodes) + 8)
    except FailedFactor as e:
        return IdentResult(witness=e.witness, warnings=warnings, trace=trace)
    return IdentResult(formula=f, warnings=warnings, trace=trace)


def gid_z(
    y: Iterable[str],
    x: Iterable[str],
    z: Iterable[str],
    g: SemiMarkovianGraph,
) -> IdentResult:
    """Generalized z-identification of P_x(y) from the source observational
    distribution plus experiments on subsets of z.  Returns a source-only
    formula or a hedge witness."""
    return _identify(
        y, x, z, g, lambda y, x, z, trace, depth: _gid(y, x, z, DistLabel(), g, g.mask(g.nodes), trace, depth)
    )


def bi(y: Iterable[str], x: Iterable[str], dist: DistLabel, g: SemiMarkovianGraph) -> ProbExpr:
    """Public c-factor identification: P_x(y) from ``dist`` by gID^z with no
    controllable experiments left, the c-factor of y when x and dist's
    do-set hold every other node.  Raises ``FailedFactor`` with a hedge
    witness.

    ``dist`` names the table the emitted terms read; its do-set is the
    experiment that produced it, and ``g`` may still carry the arrows into
    it: the recursion cuts them.  Raises InputError on a node outside
    ``g``, an empty y, a y that overlaps x or dist's do-set, or (with x
    nonempty) a y outside one confounded component of g minus x.
    """
    q = Query.create(x, y, dist.do)
    q.validate_against(g)
    if q.y & q.z:
        raise InputError("y overlaps the do-set of dist")
    y, x, cut = g.mask(q.y), g.mask(q.x), g.mask(q.z)
    # callers must ask about a single factor at a time
    if x:
        rest = _reach(g.parent_bits, y, cut) & ~x & ~cut
        if not any(y & c == y for c in _partition(g, rest)):
            raise InputError("y must lie inside one confounded component of g minus x")
    # the recursion reads the do-set as a frozenset, whatever dist was given
    return _gid(y, x, 0, DistLabel(dist.domain, q.z), g, g.mask(g.nodes), IdentTrace(), 4 * len(g.nodes) + 8)


def direct_transportable(c: frozenset[str], d: SelectionDiagram) -> bool:
    """True iff no selection-pointed node lies in the component, in which
    case the component's factor is invariant across the two domains."""
    return not (d.s_targets & d.graph.check_nodes(c))


def _union(masks: list[int], m: int) -> int:
    """The OR of ``masks[j]`` over the set bits j of mask m."""
    u = 0
    while m:
        j = m.bit_length() - 1
        m ^= 1 << j
        u |= masks[j]
    return u


def _ancestor_table(g: SemiMarkovianGraph, order: list[int], cut: int) -> list[int]:
    """Entry i is the mask of node i's ancestors, i included, with the arrows
    into ``cut`` cut, for each index i in ``order``, a node set closed under
    ancestors in topological order; 0 elsewhere.  An entry outside the cut
    is i's bit OR-ed with the entries at the set bits of i's parent mask."""
    table, pa = [0] * len(g.nodes), g.parent_bits
    for i in order:
        table[i] = 1 << i if cut >> i & 1 else _union(table, pa[i]) | 1 << i
    return table


def _sid(
    y: int,
    x: int,
    d: SelectionDiagram,
    z: int,
    trace: IdentTrace,
    depth: int,
) -> ProbExpr:
    """sID^z: P_x(y) in the target from the target's observational
    distribution and source experiments on subsets of z.  After the
    c-component factorization each factor c is identified by BI on An(c)
    with the arrows into its experiment cut, read off one ancestor table per
    call (c OR-ed with the entries of its parents outside c), so its cost
    grows with An(c), not with the whole diagram.  A factor is direct when
    its mask meets no marked node's bit."""
    g = d.graph
    # restrict to the ancestors of y
    V = _reach(g.parent_bits, y)
    x, z = x & V, z & V
    if not x:
        return term(E.TARGET, outcome=g.names(y))
    # cover x with the non-ancestors it creates; experiments stay inactive
    # until after the factorization
    x |= V & ~_reach(g.parent_bits, y, x)
    # factorize over the confounded components; each factor call gets x and
    # its do-set covering the rest of its graph, so it neither activates nor
    # decomposes again
    comps = _partition(g, V & ~x)
    trace.partition = tuple(frozenset(g.names(c)) for c in comps)
    # a factor's ancestral set is read off an ancestor table of V, made when
    # first needed: arrows into z cut for direct factors, none for the others;
    # V's order serves both, since cutting arrows keeps it topological
    factors, tables, z_names = [], {}, frozenset(g.names(z))
    order, marked = [i for i, _ in _ahead(g, V, 0, V)], g.mask(d.s_targets)
    for c in comps:
        # the factor transports directly iff no marked node lies in the
        # component; it then reads the source experiment on z outside it
        direct = not c & marked
        do_set = z & ~c if direct else 0
        # the do-set's names are z's less c's: c seldom meets z, so a factor
        # spells few names, where g.names(do_set) would spell all of z's
        # (that made sid_z about a quarter slower over large_decide)
        base = DistLabel(E.SOURCE, z_names.difference(g.names(c & z))) if direct else DistLabel(E.TARGET)
        if direct not in tables:
            tables[direct] = _ancestor_table(g, order, z if direct else 0)
        # An(c) with the arrows into z - c cut is c plus the entries of its
        # parents outside c: a path from an ancestor to its first node in c
        # runs outside c, so outside z, and lies in the entry of that node's
        # parent on it
        an = c | _union(tables[direct], _union(g.parent_bits, c) & ~c)
        try:
            factors.append(_gid_an(c, an & ~c & ~do_set, 0, base, g, an, do_set, trace, depth))
        except FailedFactor as e:
            if direct:
                raise
            w = e.witness
            raise FailedFactor(Witness("shedge", w.f_graph, w.f_sub, frozenset(g.names(c & marked)))) from e
    return sum_over(g.names(V & ~(y | x)), product(factors))


def sid_z(
    y: Iterable[str],
    x: Iterable[str],
    d: SelectionDiagram,
    z: Iterable[str],
) -> IdentResult:
    """Decide z-transportability of P_x(y) and emit a transport formula
    over the target observational distribution and source experiments on
    subsets of z, or fail with a hedge / s-hedge witness."""
    return _identify(y, x, z, d.graph, lambda y, x, z, trace, depth: _sid(y, x, d, z, trace, depth))


def transportable(y: Iterable[str], x: Iterable[str], d: SelectionDiagram) -> IdentResult:
    """Plain transportability: z-transportability with every node outside y controllable."""
    y = list(y)
    return sid_z(y, x, d, d.graph.node_set.difference(y))
