"""Exact numerical ground truth for transport formulas.

Builds pairs of fully specified finite structural models that share a
diagram and differ only at the selection-pointed nodes, computes their
observational and interventional distributions exactly, and measures the
worst-case error of a symbolic formula against the true effect.

Each bidirected edge is realized as one shared hidden variable; every node
additionally owns a private noise input so that strictly positive joints
are attainable with deterministic mechanism tables.

Distributions are variable-elimination contractions of the truncated
factorization (Koller & Friedman 2009, ch. 9), all run from one plan per
diagram.  An intervened variable has no mechanism, only a free axis, so
one contraction holds the distribution under every assignment of its
do-set.  A pair's ``joint`` is the one store of its contractions: each is
made when first read, kept, and counted with the others against the cell
budget.  A distribution set is a view of a pair that offers the source
experiments on subsets of z.  A formula is checked as one array over all
of its free slots (``expr.compile_expr``) against the true effect.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from collections.abc import Iterable, Mapping
from dataclasses import KW_ONLY, InitVar, dataclass, field
from types import MappingProxyType

import numpy as np

from .expr import EvalError, ProbExpr, SOURCE, TARGET, _check_cells, align_axes, base_var, compile_expr, is_int
from .expr import evaluate  # noqa: F401  (scalar evaluation, also importable from here)
from .graph import (
    InputError, Query, SelectionDiagram, SemiMarkovianGraph, _expect, _made, _no_init, _node_names, _pick,
    topological_order,
)

MAX_NODES = 12
LATENT_ARITY = 4
MIN_ATOM = 0.05
_MAX_LABELS = 52  # np.einsum's subscript labels are the ints below 52
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # each live graph's plan and peaks, dropped with it


def _private_noise_arity(arity: int) -> int:
    """Enough private randomness that uniformly drawn mechanisms usually
    reach every output value, keeping rejection for positivity cheap."""
    return max(8, 4 * arity)


class OracleError(RuntimeError):
    """Generation or enumeration could not satisfy its contract."""


@dataclass(frozen=True)
class Table:
    """Exact probability table over ``vars`` (node order)."""

    vars: tuple[str, ...]
    probs: np.ndarray

    def total(self) -> float:
        return float(self.probs.sum())

    def marginal(self, keep: Iterable[str]) -> np.ndarray:
        """Array over ``keep`` in this table's variable order."""
        keep_set = frozenset(_node_names(keep, "keep"))
        unknown = keep_set - set(self.vars)
        if unknown:
            raise EvalError(f"variables not in table: {sorted(unknown)}")
        drop_axes = tuple(i for i, v in enumerate(self.vars) if v not in keep_set)
        return self.probs.sum(axis=drop_axes) if drop_axes else self.probs

    def prob(self, assignment: Mapping[str, int]) -> float:
        """Marginal probability of a (possibly partial) assignment."""
        arr = self.marginal(_expect(assignment, Mapping, "assignment").keys())
        idx = tuple(assignment[v] for v in self.vars if v in assignment)
        if not all(is_int(i) and 0 <= i < n for i, n in zip(idx, arr.shape)):
            raise EvalError(f"value out of range in {dict(assignment)}")
        return float(arr[idx])

    def conditional(self, outcome: Mapping[str, int], given: Mapping[str, int]) -> float:
        if not given:
            return self.prob(outcome)
        p_given = self.prob(given)
        if p_given <= 0.0:
            raise EvalError(f"conditioning event has zero probability: {dict(given)}")
        joint = dict(outcome)
        joint.update(given)
        return self.prob(joint) / p_given


def _positive_simplex(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """m random distributions over k atoms, one per row, each atom bounded
    away from zero.

    Atoms stay above MIN_ATOM; for spaces too large for that, the floor
    scales as half the uniform weight instead.  Each row is normalized as
    ``rng.dirichlet(np.ones(k))`` does it (sum left to right, one reciprocal),
    so the rows equal m consecutive Dirichlet draws bit for bit.
    """
    floor = min(MIN_ATOM, 0.5 / k)
    gam = rng.standard_gamma(1.0, size=(m, k))
    d = gam * (1.0 / np.cumsum(gam, axis=1)[:, -1:])
    return floor + (1.0 - floor * k) * d


@dataclass(frozen=True)
class DiscreteSCM:
    """Finite structural model over a semi-Markovian diagram.

    ``latents`` maps one hidden variable per bidirected edge to its
    distribution.  ``functions[v]`` is a deterministic lookup array indexed
    by (observed parents of v in node order, shared latents at v in the
    graph's ``bidirected_order``, private noise of v) yielding v's value.
    ``noise[v]`` is the private noise distribution.  Only these five are
    inputs; ``cpts[v]`` (``cpt(v)``) and ``plan`` (the diagram's elimination
    plan) are derived.  Every input is checked, and the plan against the
    cell budget at the model's arities and noise lengths, except in the
    models ``generate_pair`` draws: it checks one plan per pair, draws in
    range, and passes each model its plan and kept CPTs as ``_drawn``.
    """

    diagram: SemiMarkovianGraph
    arities: dict[str, int]
    latents: dict[frozenset[str], np.ndarray]
    noise: dict[str, np.ndarray]
    functions: dict[str, np.ndarray]
    cpts: Mapping[str, np.ndarray] = field(init=False, compare=False, repr=False)
    plan: tuple[tuple, ...] = field(init=False, compare=False, repr=False)
    _: KW_ONLY
    _drawn: InitVar[tuple | None] = None

    def __post_init__(self, _drawn: tuple | None):
        if _drawn is None:
            self._check_mechanisms()  # _plan keeps each graph's plan and its peak per arities
            _drawn = _plan(self.diagram, self.arities, {e: len(u) for e, u in self.latents.items()},
                           {v: len(u) for v, u in self.noise.items()}), {}
        plan, kept = _drawn
        object.__setattr__(self, "plan", plan)
        cpts = {v: kept[v] if v in kept else self.cpt(v) for v in self.diagram.nodes}
        object.__setattr__(self, "cpts", MappingProxyType(cpts))

    def _check_mechanisms(self) -> None:
        """Raise InputError unless every arity is an integer of at least 1, every
        mechanism table an integer array of the shape its inputs give, holding
        only values of its node (numpy would read a negative value as an
        index from the end), and every latent and noise vector a distribution.
        A diagram that is not a graph, or an input that is not a mapping, is a TypeError."""
        g = _expect(self.diagram, SemiMarkovianGraph, "diagram")
        for what in ("arities", "latents", "noise", "functions"):
            _expect(getattr(self, what), Mapping, what)
        for v, pa in zip(g.nodes, g.parent_bits):
            fn = self.functions.get(v)
            if not (isinstance(fn, np.ndarray) and np.issubdtype(fn.dtype, np.integer)):
                raise InputError(f"mechanism of {v} must be an integer array")
            try:
                k = self.arities[v]
                shape = (*(self.arities[p] for p in g.names(pa)),
                         *(len(self.latents[e]) for e in g.bidirected_order if v in e), len(self.noise[v]))
            except KeyError as e:
                raise InputError(f"model has no arity, latent or noise for {e.args[0]}") from None
            if not (is_int(k) and k >= 1):
                raise InputError(f"arity of {v} must be an integer of at least 1, not {k!r}")
            if fn.shape != shape:
                raise InputError(f"mechanism of {v} has shape {fn.shape}, not {shape}")
            if fn.size and not (fn.min() >= 0 and fn.max() < k):
                raise InputError(f"mechanism of {v} has a value outside 0..{k - 1}")
        named = [(f"latent of {' <-> '.join(g.sorted(e))}", self.latents[e]) for e in g.bidirected_order]
        for name, p in named + [(f"noise of {v}", self.noise[v]) for v in g.nodes]:
            p = np.asarray(p)
            if not (p.ndim == 1 and p.dtype.kind in "fiu" and np.isfinite(p).all() and p.min(initial=0) >= 0
                    and abs(p.sum() - 1) <= 1e-9):
                raise InputError(f"{name} must be a 1-D array of finite, nonnegative numbers summing to 1, not {p}")

    def cpt(self, v: str) -> np.ndarray:
        """P(v | observed parents, shared latents at v), private noise folded in.

        Axes: parents (node order), shared latents at v (edge order), v.
        """
        return np.eye(self.arities[v])[self.functions[v]].swapaxes(-1, -2) @ self.noise[v]


def _plan(g: SemiMarkovianGraph, arities: Mapping[str, int], hidden_arities: Mapping[frozenset[str], int],
          noise_arities: Mapping[str, int]) -> tuple[tuple, ...]:
    """Elimination steps of the observational contraction, from structure
    alone (so made once per graph): mechanisms in topological order, a
    hidden prior just before the first mechanism that reads it, its variable
    summed out right after the last.  A step is (v, priors opened, their
    labels, labels of v's CPT, output labels).  Labels are node indices,
    then ids recycled among the open hidden variables.

    A contraction under do() runs the same steps with an intervened v's CPT
    replaced by a ones-axis over v's label; the output labels stay the
    same, so one plan and one budget check serve every do-set.  Raises
    InputError if the steps need more labels than ``np.einsum`` takes, or
    if, at these arities, an intermediate or the one-hot mechanism table
    that builds a CPT (the CPT times its node's noise arity) exceeds the
    cell budget.  The peak is kept with the plan, by arities."""
    entry = _PLANS.get(g)
    if entry is None:
        order, index = topological_order(g), g.index
        at = {v: [e for e in g.bidirected_order if v in e] for v in g.nodes}
        last = {e: v for v in order for e in at[v]}
        label: dict[frozenset[str], int] = {}
        fresh, free, acc, steps = itertools.count(len(g.nodes)), [], (), []
        for v in order:
            opened = tuple(e for e in at[v] if e not in label)
            for e in opened:
                label[e] = free.pop() if free else next(fresh)
            cpt = (*_pick(range(len(g.nodes)), g.parent_bits[index[v]]), *(label[e] for e in at[v]), index[v])
            closed = [label[e] for e in at[v] if last[e] == v]
            acc = tuple(sorted(set(acc).union(cpt).difference(closed)))
            free += sorted(closed, reverse=True)
            steps.append((v, opened, tuple((label[e],) for e in opened), cpt, acc))
        labels = max((max(cpt) + 1 for _, _, _, cpt, _ in steps), default=0)  # every label is in some CPT
        if labels > _MAX_LABELS:
            raise InputError(f"enumeration needs {labels} einsum labels; numpy takes {_MAX_LABELS}")
        entry = _PLANS[g] = (tuple(steps), {})
    steps, peaks = entry
    key = (*((arities[v], noise_arities[v]) for v in g.nodes), *(hidden_arities[e] for e in g.bidirected_order))
    cells = peaks.get(key)
    if cells is None:
        cells = peaks[key] = _peak_cells(g, steps, arities, hidden_arities, noise_arities)
    _check_cells(cells, "enumeration")
    return steps


def _peak_cells(g: SemiMarkovianGraph, steps: tuple[tuple, ...], arities: Mapping[str, int],
                hidden_arities: Mapping[frozenset[str], int], noise_arities: Mapping[str, int]) -> int:
    """The most cells a step of the plan holds at once: its intermediate, or
    the one-hot mechanism table of its node, its CPT times its noise arity."""
    size, cells = [arities[v] for v in g.nodes], 1
    for v, opened, opened_subs, cpt, acc in steps:
        for e, (i,) in zip(opened, opened_subs):
            size[i:i + 1] = [hidden_arities[e]]
        cells = max(cells, noise_arities[v] * math.prod([size[i] for i in cpt]), math.prod([size[i] for i in acc]))
    return cells


def _contract(m: DiscreteSCM, do: Iterable[str] = ()) -> np.ndarray:
    """Read-only array over every node (node order) whose do() axes are free:
    fixing them to an assignment gives the distribution of the rest under it."""
    do = frozenset(do)
    acc, acc_sub = np.ones(()), ()
    for v, opened, opened_subs, cpt_sub, out in m.plan:
        args = [acc, acc_sub]
        for e, sub in zip(opened, opened_subs):
            args += (m.latents[e], sub)
        if v in do:
            args += (np.ones(m.arities[v]), cpt_sub[-1:])
        else:
            args += (m.cpts[v], cpt_sub)
        acc, acc_sub = np.einsum(*args, out), out
    totals = acc.sum(axis=tuple(i for i, v in enumerate(m.diagram.nodes) if v not in do))
    if not np.abs(totals - 1.0).max(initial=0.0) <= 1e-9:  # a NaN total fails too
        raise OracleError(f"enumerated tables sum to {totals.min()}..{totals.max()}, not 1")
    acc.flags.writeable = False
    return acc


def _draw_scm(d: SelectionDiagram, rng: np.random.Generator, arity: int, plan: tuple) -> DiscreteSCM:
    """One model in three generator calls: the latents, the private noise,
    then every mechanism table in node order, each a view of one draw (one
    ``integers`` call equals the per-node calls; a test pins this too)."""
    g = d.graph
    noise_arity = _private_noise_arity(arity)
    latents = dict(zip(g.bidirected_order, _positive_simplex(rng, len(g.bidirected_order), LATENT_ARITY)))
    noise = dict(zip(g.nodes, _positive_simplex(rng, len(g.nodes), noise_arity)))
    shapes = [(arity,) * pa.bit_count() + (LATENT_ARITY,) * sib.bit_count() + (noise_arity,)
              for pa, sib in zip(g.parent_bits, g.sibling_bits)]
    flat = rng.integers(0, arity, size=sum(math.prod(s) for s in shapes))
    functions, start = {}, 0
    for v, shape in zip(g.nodes, shapes):
        stop = start + math.prod(shape)
        functions[v], start = flat[start:stop].reshape(shape), stop
    return DiscreteSCM(g, dict.fromkeys(g.nodes, arity), latents, noise, functions, _drawn=(plan, {}))


@dataclass(frozen=True)
class DiscreteModelPair:
    """Source and target models sharing diagram, arities and hidden structure;
    mechanism discrepancies are confined to the selection-pointed nodes.

    ``joint`` makes, keeps and counts every array of the pair;
    ``source_joint`` and ``target_joint`` are its observational joints, so a
    pair rejected on its source never contracts its target.
    """

    diagram: SelectionDiagram
    source: DiscreteSCM
    target: DiscreteSCM
    _joints: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, compare=False, repr=False)

    def __post_init__(self):
        """TypeError for an argument of the wrong type; InputError for a
        model over a graph other than the diagram's, or at other arities."""
        g = _expect(self.diagram, SelectionDiagram, "diagram").graph
        for what in ("source", "target"):
            if _expect(getattr(self, what), DiscreteSCM, what).diagram != g:
                raise InputError(f"the {what} model is over another graph than the diagram's")
        if self.source.arities != self.target.arities:
            raise InputError("the source and target models have different arities")

    def joint(self, domain: str, do: frozenset[str] = frozenset()) -> np.ndarray:
        """The array over every node (node order) of the target's (TARGET) or
        the source's (otherwise) distribution under do() on ``do``, its do()
        axes free; made on first use and kept, one array when the target is
        the source.

        The arrays kept count against the cell budget together: a new one
        is counted with them before it is made, and kept only if it is
        made.  The lock makes each array once and the count exact when
        threads share the pair.  InputError for a domain other than SOURCE
        and TARGET, and, when the array is not held yet, for a do-set that
        is not a frozenset of the diagram's nodes."""
        m = self.target if domain == TARGET else self.source if domain == SOURCE else None
        if m is None:
            raise InputError(f"domain must be {SOURCE!r} or {TARGET!r}, not {domain!r}")
        key = (m is self.target, do)
        with self._lock:
            joint = self._joints.get(key)
            if joint is None:
                if self.diagram.graph.check_nodes(do, "do") != do:
                    raise InputError(f"do must be a frozenset of node names, not {do!r}")
                _check_cells((len(self._joints) + 1) * math.prod(m.arities.values()), "model pair")
                joint = self._joints[key] = _contract(m, do) if do else enumerate_joint(m).probs
        return joint

    @property
    def source_joint(self) -> np.ndarray:
        return self.joint(SOURCE)

    @property
    def target_joint(self) -> np.ndarray:
        return self.joint(TARGET)


def generate_pair(d: SelectionDiagram, seed: int, arity: int = 2) -> DiscreteModelPair:
    """Deterministic-in-seed model pair compatible with the selection diagram.

    Rejects and regenerates (incrementing a sub-seed) until both joints of
    the pair are strictly positive.  Before drawing anything, checks that
    the diagram's plan fits the cell budget at this arity, one-hot mechanism
    tables included; that one check serves every model the call draws.
    """
    if not is_int(arity) or arity < 2:
        raise InputError(f"arity must be an integer of at least 2, got {arity!r}")
    if not is_int(seed) or seed < 0:
        raise InputError(f"seed must be an integer of at least 0, got {seed!r}")
    g = _expect(d, SelectionDiagram, "d").graph
    if len(g.nodes) > MAX_NODES:
        raise InputError(f"diagram exceeds the {MAX_NODES}-node enumeration budget")
    noise_arity = _private_noise_arity(arity)
    hidden_arities = dict.fromkeys(g.bidirected_edges, LATENT_ARITY)
    plan = _plan(g, dict.fromkeys(g.nodes, arity), hidden_arities, dict.fromkeys(g.nodes, noise_arity))
    for attempt in range(500):
        rng = np.random.default_rng([seed, attempt])
        source = _draw_scm(d, rng, arity, plan)
        target = source
        if d.s_targets:
            # the target's draws interleave (noise, then mechanism, per node)
            rng_t = np.random.default_rng([seed, attempt, 1])
            noise, functions = dict(source.noise), dict(source.functions)
            for v in g.sorted(d.s_targets):
                noise[v] = _positive_simplex(rng_t, 1, noise_arity)[0]
                functions[v] = rng_t.integers(0, arity, size=source.functions[v].shape)
            shared = {v: c for v, c in source.cpts.items() if v not in d.s_targets}
            target = DiscreteSCM(g, source.arities, source.latents, noise, functions, _drawn=(plan, shared))
        pair = DiscreteModelPair(d, source, target)
        if pair.source_joint.min() > 0 and pair.target_joint.min() > 0:
            return pair
    raise OracleError(f"could not draw a strictly positive pair for seed {seed}")


def enumerate_joint(m: DiscreteSCM, do_set: Mapping[str, int] | None = None) -> Table:
    """Exact distribution over the non-intervened observables under do(do_set):
    the contraction with free do() axes, sliced at the assignment."""
    do = dict(_expect({} if do_set is None else do_set, Mapping, "do_set"))
    _expect(m, DiscreteSCM, "m").diagram.check_nodes(do.keys())
    for v, val in do.items():
        if not (is_int(val) and 0 <= val < m.arities[v]):
            raise InputError(f"value {val!r} out of range for {v}")
    keep = tuple(v for v in m.diagram.nodes if v not in do)
    index = tuple(do[v] if v in do else slice(None) for v in m.diagram.nodes)
    return Table(keep, _contract(m, do)[index])


@dataclass(frozen=True, init=False)
class DistributionSet:
    """The distributions a formula may read on a pair given experiments on z:
    the target's observational joint, and the source's joint under do() on
    each subset of z but all of V (the empty set included), do() axes free.

    A view: the pair makes, keeps and counts every array it serves
    (``DiscreteModelPair.joint``), so building it contracts nothing.  It is
    the table supply of ``expr.compile_expr`` and ``expr.evaluate``.
    """

    pair: DiscreteModelPair
    z: frozenset[str]
    __init__ = _no_init("build_distribution_set")

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.pair.diagram.graph.nodes

    def arity(self, v: str) -> int:
        try:
            return self.pair.source.arities[base_var(v)]
        except KeyError:
            raise EvalError(f"unknown variable: {v}")

    def joint(self, domain: str, do: frozenset[str]) -> np.ndarray:
        """The pair's array of a domain's distribution under do() on the given
        variables, their axes free.  Raises EvalError, reading no table,
        unless the set offers that domain under that do()."""
        if domain == TARGET:
            if do:
                raise EvalError("target terms carry no interventions")
        elif domain != SOURCE:
            raise EvalError(f"bad domain: {domain!r}")
        elif not (do <= self.z and len(do) < len(self.nodes)):  # experiments on all of V are not available
            raise EvalError(f"no source table for do({sorted(do)})")
        return self.pair.joint(domain, do)


def build_distribution_set(p: DiscreteModelPair, z: Iterable[str]) -> DistributionSet:
    """The view of ``p``'s distributions given source experiments on z."""
    return _made(DistributionSet, pair=p, z=_expect(p, DiscreteModelPair, "p").diagram.graph.check_nodes(z, "z"))


def ground_truth_effect(m: DiscreteSCM, x: Mapping[str, int], y: Iterable[str]) -> Table:
    """Marginal of the interventional distribution do(x) onto y."""
    ys = _expect(m, DiscreteSCM, "m").diagram.check_nodes(y, "y")
    if ys & set(_expect(x, Mapping, "x")):
        raise InputError("outcome overlaps the intervention assignment")
    joint = enumerate_joint(m, x)
    keep = tuple(v for v in joint.vars if v in ys)
    arr = joint.marginal(keep)
    return Table(keep, arr)


def validate_formula(
    e: ProbExpr,
    p: DiscreteModelPair,
    q: Query,
    tables: DistributionSet | None = None,
) -> float:
    """Max absolute error of the formula against the true target effect,
    over every assignment of the query's x and y and of every other free
    slot of the formula.

    Those other slots are auxiliary context variables introduced by the
    algorithm; a correct formula's value does not depend on them, and
    this checks it at each of their values.  The formula is compiled to
    one array over its free slots (``expr.compile_expr``) and compared
    with the truth P*_x(y), read as ``p.joint(TARGET, x)``, at once.
    Raises EvalError if any assignment meets a zero-probability
    conditioning event or denominator, and InputError if ``tables`` is not
    a view of ``p`` or an array exceeds the cell budget.
    """
    g = _expect(p, DiscreteModelPair, "p").diagram.graph
    _expect(q, Query, "q").validate_against(g)
    if tables is None:
        tables = build_distribution_set(p, q.z)
    elif _expect(tables, DistributionSet, "tables").pair is not p:
        raise InputError("the distribution set is another pair's")
    xy = [v for v in g.nodes if v in q.x or v in q.y]
    truth = p.joint(TARGET, q.x).sum(axis=tuple(i for i, v in enumerate(g.nodes) if v not in xy))
    slots, got = compile_expr(e, tables)
    aux = [s for s in slots if s not in q.x and s not in q.y]
    got = align_axes(slots, got, xy + aux)
    truth = truth.reshape(truth.shape + (1,) * len(aux))
    _check_cells(math.prod(np.broadcast_shapes(got.shape, truth.shape)), "validation")
    if np.isnan(got).any():
        raise EvalError("zero-probability conditioning event or denominator in the formula")
    return float(np.abs(got - truth).max())
