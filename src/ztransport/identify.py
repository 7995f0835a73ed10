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
marginals and conditionals is one term.  A derived one is a chain of
conditional factors built over a c-component, or an opaque joint
expression when a chain had to be marginalized over a non-suffix of its
order.  All three answer ``restrict``, ``marginal_expr`` and
``conditional_expr``; only a base distribution can switch on experiments.
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
    ancestors,
    c_component,
    c_components,
    induced_subgraph,
    mutilate,
    topological_order,
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

    def restrict(self, keep: tuple[str, ...]) -> "DistLabel":
        return self

    def marginal_expr(self, y: tuple[str, ...]) -> ProbExpr:
        return term(self.domain, outcome=y, do=self.do) if y else ONE

    def conditional_expr(self, v: str, given: tuple[str, ...]) -> ProbExpr:
        cond = [w for w in given if w not in self.do]
        return term(self.domain, outcome=(v,), given=cond, do=self.do)


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
# symbolic stand-ins for a derived current distribution; a base one is its
# DistLabel


@dataclass(frozen=True)
class _Chain:
    """A product of conditional factors, one per variable, in graph order.

    Prefix marginals telescope, so dropping a suffix of factors is the
    marginal onto the remaining variables, and the conditional of a
    variable given all its predecessors is its own factor.
    """

    factors: tuple[tuple[str, ProbExpr], ...]

    @property
    def joint(self) -> ProbExpr:
        return product(f for _, f in self.factors)

    def restrict(self, keep: tuple[str, ...]) -> "_Chain | _Joint":
        keep_set = frozenset(keep)
        kept = tuple((v, f) for v, f in self.factors if v in keep_set)
        if all(v in keep_set for v, _ in self.factors[:len(kept)]):  # a suffix is removed
            return _Chain(kept)
        removed = [v for v, _ in self.factors if v not in keep_set]
        return _Joint(marginal_sum(removed, self.joint), tuple(v for v, _ in kept))

    def marginal_expr(self, y: tuple[str, ...]) -> ProbExpr:
        return self.restrict(y).joint

    def conditional_expr(self, v: str, given: tuple[str, ...]) -> ProbExpr:
        for w, f in self.factors:
            if w == v:
                return f
        raise InternalError(f"no chain factor for {v}")


@dataclass(frozen=True)
class _Joint:
    """An opaque joint expression over ``rand_vars``; conditionals become
    quotients of its partial sums."""

    joint: ProbExpr
    rand_vars: tuple[str, ...]

    def restrict(self, keep: tuple[str, ...]) -> "_Joint":
        keep_set = frozenset(keep)
        removed = [v for v in self.rand_vars if v not in keep_set]
        kept = tuple(v for v in self.rand_vars if v in keep_set)
        return _Joint(marginal_sum(removed, self.joint), kept)

    def marginal_expr(self, y: tuple[str, ...]) -> ProbExpr:
        return self.restrict(y).joint

    def conditional_expr(self, v: str, given: tuple[str, ...]) -> ProbExpr:
        given_r = frozenset(given) & frozenset(self.rand_vars)
        num = marginal_sum([w for w in self.rand_vars if w not in given_r and w != v], self.joint)
        den = marginal_sum([w for w in self.rand_vars if w not in given_r], self.joint)
        return E.Quotient(num, den)


def _chain_over(
    P: DistLabel | _Chain | _Joint, g: SemiMarkovianGraph, members: frozenset[str]
) -> _Chain:
    """Chain of P's conditionals for ``members``, each given every
    predecessor of the variable in P's factorization order.  A chain keeps
    the order its factors were built with (a valid topological order of any
    later subgraph); other stand-ins follow the graph's canonical order."""
    order = [v for v, _ in P.factors] if isinstance(P, _Chain) else topological_order(g)
    factors = []
    for i, v in enumerate(order):
        if v in members:
            factors.append((v, P.conditional_expr(v, tuple(order[:i]))))
    return _Chain(tuple(factors))


# ---------------------------------------------------------------------------
# GID^z, and BI as GID^z with no controllable experiments left

def _gid(
    y: frozenset[str],
    x: frozenset[str],
    z: frozenset[str],
    active: frozenset[str],
    P: DistLabel | _Chain | _Joint,
    g: SemiMarkovianGraph,
    trace: IdentTrace,
    depth: int,
) -> ProbExpr:
    """Identify P_x(y) from P, switching on experiments on subsets of z.
    P reads the ``active`` experiments, which may name nodes outside ``g``;
    g may still carry arrows into ``active``; the ancestral step cuts them."""
    if depth <= 0:
        raise InternalError("recursion depth guard exceeded")

    # nothing left to intervene on: read the marginal off the current P
    if not x:
        return P.marginal_expr(g.sorted(y))

    # restrict to the ancestors of y with the arrows into the active
    # experiments cut: the only place the recursion cuts arrows
    an_y = ancestors(g, y, cut=active)
    cut = active & an_y
    shrinks = len(an_y) < len(g.nodes)
    if shrinks or any(g.parents[v] or g.siblings[v] for v in cut):
        g = mutilate(induced_subgraph(g, an_y), cut)
        if shrinks:
            P = P.restrict(g.nodes)
        x &= an_y
        if not x:
            return P.marginal_expr(g.sorted(y))
    V = g.node_set

    # cover x with the non-ancestors it creates, switching on experiments
    # where the controllable set allows it; y is among its own ancestors, so
    # only nodes outside x, the active set and y can be non-ancestors
    xa = (x | active) & V
    w = V - xa - y
    if w:
        w -= ancestors(g, y, cut=xa)
    z_w = z & (x | w)
    if z_w | w:
        if z_w:
            trace.line3_activations += 1
            if trace.line3_activations > 1:
                raise InternalError("experiments were activated twice in one trace")
            if not isinstance(P, DistLabel):
                raise InternalError("activation requires a base distribution")
            P = DistLabel(P.domain, P.do | z_w)
        return _gid(y, (x | w) - z_w, z - z_w, active | z_w, P, g, trace, depth - 1)

    # factorize over the confounded components
    comps = c_components(induced_subgraph(g, V - xa))
    if trace.partition is None:
        trace.partition = tuple(comps)
    if len(comps) > 1:
        trace.decompositions += 1
        if trace.decompositions > 1:
            raise InternalError("decomposition executed twice in one trace")
        factors = []
        for c in comps:
            newly = z & (V - c)
            if newly and not isinstance(P, DistLabel):
                raise InternalError("activation requires a base distribution")
            p_i = DistLabel(P.domain, P.do | newly) if newly else P
            factors.append(_gid(c, V - c - z, z & c, active | newly, p_i, g, trace, depth - 1))
        return sum_over(g.sorted(V - (y | xa)), product(factors))
    c = comps[0]

    # the confounded component of g holding c; spanning the whole graph, it
    # is a dead end
    containing = c_component(g, c)
    if containing == V:
        raise FailedFactor(Witness("hedge", g, induced_subgraph(g, c)))

    chain = _chain_over(P, g, containing)
    # the component is intact in g: emit its factor chain directly
    if c == containing:
        return marginal_sum(g.sorted(c - y), chain.joint)

    # otherwise descend into the strictly larger component
    g2 = induced_subgraph(g, containing)
    return _gid(y, x & containing, z, active, chain, g2, trace, depth - 1)


def _identify(
    y: Iterable[str],
    x: Iterable[str],
    z: Iterable[str],
    g: SemiMarkovianGraph,
    run: Callable[[Query, IdentTrace, int], ProbExpr],
) -> IdentResult:
    """Check the query, then call ``run(query, trace, depth)`` with a fresh
    trace and a depth guard; a ``FailedFactor`` becomes the result's witness."""
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
        f = run(q, trace, 4 * len(g.nodes) + 8)
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
        y, x, z, g, lambda q, trace, depth: _gid(q.y, q.x, q.z, frozenset(), DistLabel(), g, trace, depth)
    )


def bi(
    y: Iterable[str],
    x: Iterable[str],
    dist: DistLabel,
    g: SemiMarkovianGraph,
    active: Iterable[str] = (),
) -> ProbExpr:
    """Public c-factor identification: P_x(y) from ``dist`` by gID^z with no
    controllable experiments left, the c-factor of y when x and ``active``
    hold every other node.  Raises ``FailedFactor`` with a hedge witness.

    ``g`` may still carry arrows into ``active``: the recursion cuts them.
    ``dist`` names the table the emitted terms read (its do-set is the
    experiment that produced it).  Raises InputError on a node outside
    ``g``, an empty y, a y that overlaps x, ``active`` or dist's do-set, or
    (with x nonempty) a y outside one confounded component of g minus x.
    """
    act = frozenset(active)
    q = Query.create(x, y, dist.do | act)
    q.validate_against(g)
    if q.y & q.z:
        raise InputError("y overlaps the active experiments or the do-set of dist")
    # callers must ask about a single factor at a time
    if q.x:
        rest = induced_subgraph(g, ancestors(g, q.y, cut=act) - q.x - act)
        if not any(q.y <= c for c in c_components(rest)):
            raise InputError("y must lie inside one confounded component of g minus x")
    return _gid(q.y, q.x, frozenset(), act, dist, g, IdentTrace(), 4 * len(g.nodes) + 8)


def direct_transportable(c: frozenset[str], d: SelectionDiagram) -> bool:
    """True iff no selection-pointed node lies in the component, in which
    case the component's factor is invariant across the two domains."""
    return not (d.s_targets & d.graph.check_nodes(c))


def _sid(
    y: frozenset[str],
    x: frozenset[str],
    d: SelectionDiagram,
    z: frozenset[str],
    trace: IdentTrace,
    depth: int,
) -> ProbExpr:
    """sID^z: P_x(y) in the target from the target's observational
    distribution and source experiments on subsets of z.  After the
    c-component factorization each factor c is identified by BI, whose
    ancestral step gives it G[An(c)] with the arrows into its experiment
    cut, so its cost grows with An(c), not with the whole diagram."""
    g = d.graph
    # restrict to the ancestors of y
    an_y = ancestors(g, y)
    x, z = x & an_y, z & an_y
    if not x:
        return term(E.TARGET, outcome=g.sorted(y))
    if an_y != g.node_set:
        g = induced_subgraph(g, an_y)
    V = g.node_set
    # cover x with the non-ancestors it creates; experiments stay inactive
    # until after the factorization
    x |= V - ancestors(g, y, cut=x)
    # factorize over the confounded components; each factor call gets x and
    # active covering the rest of its graph, so it neither activates nor
    # decomposes again
    comps = c_components(induced_subgraph(g, V - x))
    trace.partition = tuple(comps)
    factors = []
    for c in comps:
        # the factor transports directly iff no marked node lies in the
        # component; it then reads the source experiment on z outside it
        direct = direct_transportable(c, d)
        do_set = z - c if direct else frozenset()
        base = DistLabel(E.SOURCE if direct else E.TARGET, do_set)
        try:
            factors.append(_gid(c, V - c - do_set, frozenset(), do_set, base, g, trace, depth))
        except FailedFactor as e:
            if direct:
                raise
            w = e.witness
            raise FailedFactor(Witness("shedge", w.f_graph, w.f_sub, d.s_targets & c)) from e
    return sum_over(g.sorted(V - (y | x)), product(factors))


def sid_z(
    y: Iterable[str],
    x: Iterable[str],
    d: SelectionDiagram,
    z: Iterable[str],
) -> IdentResult:
    """Decide z-transportability of P_x(y) and emit a transport formula
    over the target observational distribution and source experiments on
    subsets of z, or fail with a hedge / s-hedge witness."""
    return _identify(y, x, z, d.graph, lambda q, trace, depth: _sid(q.y, q.x, d, q.z, trace, depth))


def transportable(y: Iterable[str], x: Iterable[str], d: SelectionDiagram) -> IdentResult:
    """Plain transportability: z-transportability with every variable controllable."""
    return sid_z(y, x, d, d.graph.nodes)
