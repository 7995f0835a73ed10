"""Symbolic probability expressions for transport formulas.

The vocabulary is sums of products of atomic probability terms.  A term is a
conditional probability of one of the base distributions handed to the
engine: the target observational distribution, or a source distribution
under a do() on controllable variables.  Value slots are symbolic; the
engine manipulates variable names and evaluation binds them to values.

A quotient node is included for the cases where the identification
recursion derives a distribution whose conditionals are not expressible as
a single base-distribution term; it never appears in the golden formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .graph import InputError

SOURCE = "source"
TARGET = "target"


def base_var(slot: str) -> str:
    """The variable a value slot refers to.

    Slots are variable names, except that marginalization dummies carry
    trailing primes (``x'``); the primes never occur in node names, so
    stripping them recovers the table column.
    """
    return slot.rstrip("'")


class ExprError(ValueError):
    """Structurally invalid expression."""


class EvalError(ValueError):
    """Evaluation failed (missing table, zero conditioning event, ...)."""


@dataclass(frozen=True)
class ProbTerm:
    """P_{do}(outcome | given) under ``domain``; do is empty for target terms."""

    domain: str
    do: tuple[str, ...]
    outcome: tuple[str, ...]
    given: tuple[str, ...]

    def __post_init__(self):
        if self.domain not in (SOURCE, TARGET):
            raise ExprError(f"bad domain: {self.domain!r}")
        if self.domain == TARGET and self.do:
            raise ExprError("target terms carry no interventions")
        if set(self.outcome) & set(self.given):
            raise ExprError("outcome and conditioners overlap")
        if set(self.do) & set(self.outcome):
            raise ExprError("interventions and outcome overlap")
        if not self.outcome:
            raise ExprError("term needs a nonempty outcome")


class ProbExpr:
    """Base class; concrete nodes are Term, Product, Sum, One, Quotient."""

    __slots__ = ()


@dataclass(frozen=True)
class Term(ProbExpr):
    term: ProbTerm


@dataclass(frozen=True)
class Product(ProbExpr):
    factors: tuple[ProbExpr, ...]


@dataclass(frozen=True)
class Sum(ProbExpr):
    over: frozenset[str]
    body: ProbExpr


@dataclass(frozen=True)
class One(ProbExpr):
    pass


@dataclass(frozen=True)
class Quotient(ProbExpr):
    num: ProbExpr
    den: ProbExpr


ONE = One()


def term(
    domain: str,
    outcome: Iterable[str],
    given: Iterable[str] = (),
    do: Iterable[str] = (),
) -> Term:
    """Build a term; variable lists are stored sorted for canonical equality."""
    return Term(
        ProbTerm(
            domain=domain,
            do=tuple(sorted(set(do))),
            outcome=tuple(sorted(set(outcome))),
            given=tuple(sorted(set(given))),
        )
    )


def product(factors: Iterable[ProbExpr]) -> ProbExpr:
    fs = tuple(factors)
    if not fs:
        return ONE
    if len(fs) == 1:
        return fs[0]
    return Product(fs)


def sum_over(over: Iterable[str], body: ProbExpr) -> ProbExpr:
    ov = frozenset(over)
    if not ov:
        return body
    return Sum(ov, body)


def _slots(e: ProbExpr, bind: bool) -> frozenset[str]:
    """The value slots of ``e``; with ``bind``, those a sum binds are left out."""
    if isinstance(e, Term):
        t = e.term
        return frozenset(t.do) | frozenset(t.outcome) | frozenset(t.given)
    if isinstance(e, Product):
        return frozenset().union(*(_slots(f, bind) for f in e.factors))
    if isinstance(e, Sum):
        body = _slots(e.body, bind)
        return body - e.over if bind else body | e.over
    if isinstance(e, Quotient):
        return _slots(e.num, bind) | _slots(e.den, bind)
    if isinstance(e, One):
        return frozenset()
    raise ExprError(f"not a ProbExpr: {e!r}")


def free_variables(e: ProbExpr) -> frozenset[str]:
    """All value slots not bound by an enclosing sum."""
    return _slots(e, bind=True)


def all_slots(e: ProbExpr) -> frozenset[str]:
    """Every slot mentioned anywhere, free or bound."""
    return _slots(e, bind=False)


def substitute(e: ProbExpr, mapping: Mapping[str, str]) -> ProbExpr:
    """Rename free slots; descends into sums but respects their bindings."""
    if not mapping:
        return e
    if isinstance(e, Term):
        t = e.term
        sub = lambda vs: tuple(sorted(mapping.get(v, v) for v in vs))
        return Term(ProbTerm(t.domain, sub(t.do), sub(t.outcome), sub(t.given)))
    if isinstance(e, Product):
        return Product(tuple(substitute(f, mapping) for f in e.factors))
    if isinstance(e, Sum):
        inner = {k: v for k, v in mapping.items() if k not in e.over}
        return Sum(e.over, substitute(e.body, inner))
    if isinstance(e, Quotient):
        return Quotient(substitute(e.num, mapping), substitute(e.den, mapping))
    return e


def marginal_sum(removed: Iterable[str], body: ProbExpr) -> ProbExpr:
    """Sum ``body`` over ``removed``, renaming the bound slots to fresh
    primed dummies so no enclosing binding or free use is shadowed."""
    removed = list(removed)
    if not removed:
        return body
    taken = set(all_slots(body))
    mapping = {}
    for v in removed:
        fresh = v + "'"
        while fresh in taken:
            fresh += "'"
        taken.add(fresh)
        mapping[v] = fresh
    return Sum(frozenset(mapping.values()), substitute(body, mapping))


def _each_term_rewritten(
    e: ProbExpr, rewrite: Callable[[ProbTerm], Iterable[ProbTerm]]
) -> Iterator[ProbExpr]:
    """Every copy of ``e`` with one term, quotient denominators included,
    replaced by one of ``rewrite(term)``; terms in depth-first order."""
    if isinstance(e, Term):
        yield from map(Term, rewrite(e.term))
    elif isinstance(e, Product):
        for i, f in enumerate(e.factors):
            for new in _each_term_rewritten(f, rewrite):
                yield Product(e.factors[:i] + (new,) + e.factors[i + 1:])
    elif isinstance(e, Sum):
        yield from (Sum(e.over, new) for new in _each_term_rewritten(e.body, rewrite))
    elif isinstance(e, Quotient):
        yield from (Quotient(new, e.den) for new in _each_term_rewritten(e.num, rewrite))
        yield from (Quotient(e.num, new) for new in _each_term_rewritten(e.den, rewrite))


def term_corruptions(e: ProbExpr) -> Iterator[tuple[str, ProbExpr]]:
    """Every variant of ``e`` with one term's conditioners changed, as
    (kind, variant): first each ``"drop"`` of one conditioner, then each
    ``"graft"`` of one variable of ``e`` that the term does not mention."""

    def drop(t: ProbTerm) -> Iterator[ProbTerm]:
        for i in range(len(t.given)):
            yield ProbTerm(t.domain, t.do, t.outcome, t.given[:i] + t.given[i + 1:])

    names = sorted({base_var(v) for v in all_slots(e)})

    def graft(t: ProbTerm) -> Iterator[ProbTerm]:
        mentioned = {*t.given, *t.outcome, *map(base_var, t.do)}
        for v in names:
            if v not in mentioned:
                yield ProbTerm(t.domain, t.do, t.outcome, tuple(sorted(t.given + (v,))))

    yield from (("drop", v) for v in _each_term_rewritten(e, drop))
    yield from (("graft", v) for v in _each_term_rewritten(e, graft))


def validate(e: ProbExpr, bound: frozenset[str] = frozenset()) -> None:
    """Raise ExprError on double binding or sum variables absent from the body."""
    if isinstance(e, Sum):
        if e.over & bound:
            raise ExprError(f"double binding of {sorted(e.over & bound)}")
        if not e.over <= free_variables(e.body):
            missing = e.over - free_variables(e.body)
            raise ExprError(f"sum binds variables absent from body: {sorted(missing)}")
        validate(e.body, bound | e.over)
    elif isinstance(e, Product):
        for f in e.factors:
            validate(f, bound)
    elif isinstance(e, Quotient):
        validate(e.num, bound)
        validate(e.den, bound)
    elif not isinstance(e, (Term, One)):
        raise ExprError(f"not a ProbExpr: {e!r}")


def _sort_key(e: ProbExpr):
    if isinstance(e, Term):
        t = e.term
        return (0, t.domain, t.do, t.outcome, t.given)
    if isinstance(e, One):
        return (1,)
    if isinstance(e, Product):
        return (2, tuple(_sort_key(f) for f in e.factors))
    if isinstance(e, Sum):
        return (3, tuple(sorted(e.over)), _sort_key(e.body))
    return (4, _sort_key(e.num), _sort_key(e.den))


def normalize(e: ProbExpr) -> ProbExpr:
    """Canonical form for structural comparison.

    Products are flattened and sorted, identity factors absorbed, nested
    sums merged, and sum variables that do not occur free in the body are
    dropped.  Two expressions differing only in factor order, sum-variable
    order or trivial nesting normalize identically.  No algebraic rewriting
    (no cancellation) is performed.
    """
    if isinstance(e, (Term, One)):
        return e
    if isinstance(e, Product):
        factors: list[ProbExpr] = []
        for f in e.factors:
            nf = normalize(f)
            if isinstance(nf, One):
                continue
            if isinstance(nf, Product):
                factors.extend(nf.factors)
            else:
                factors.append(nf)
        factors.sort(key=_sort_key)
        return product(factors)
    if isinstance(e, Sum):
        body = normalize(e.body)
        over = set(e.over)
        while isinstance(body, Sum):
            over |= body.over
            body = body.body
        over &= free_variables(body)
        if isinstance(body, One) or not over:
            return body
        return Sum(frozenset(over), body)
    if isinstance(e, Quotient):
        num, den = normalize(e.num), normalize(e.den)
        if isinstance(den, One):
            return num
        return Quotient(num, den)
    raise ExprError(f"not a ProbExpr: {e!r}")


# ---------------------------------------------------------------------------
# rendering

def _slot_text(v: str) -> str:
    return v.lower()


def _slot_latex(v: str) -> str:
    s = v.lower()
    head = s.rstrip("0123456789")
    tail = s[len(head):]
    return f"{head}_{{{tail}}}" if head and tail else s


def _term_text(t: ProbTerm) -> str:
    head = "P*" if t.domain == TARGET else "P"
    if t.do:
        head += "_{%s}" % ",".join(_slot_text(v) for v in t.do)
    body = ",".join(_slot_text(v) for v in t.outcome)
    if t.given:
        body += "|" + ",".join(_slot_text(v) for v in t.given)
    return f"{head}({body})"


def _term_latex(t: ProbTerm) -> str:
    head = "P^{*}" if t.domain == TARGET else "P"
    if t.do:
        head += "_{%s}" % ", ".join(_slot_latex(v) for v in t.do)
    body = ", ".join(_slot_latex(v) for v in t.outcome)
    if t.given:
        body += r" \mid " + ", ".join(_slot_latex(v) for v in t.given)
    return f"{head}\\left({body}\\right)"


def render(e: ProbExpr, format: str = "text") -> str:
    """Render as plain text, LaTeX, or a lossless JSON string."""
    if format == "text":
        return _render_text(e, top=True)
    if format == "latex":
        return _render_latex(e)
    if format == "json":
        import json

        return json.dumps(to_json(e), sort_keys=True)
    raise ExprError(f"unknown render format: {format!r}")


def _render_text(e: ProbExpr, top: bool = False) -> str:
    if isinstance(e, Term):
        return _term_text(e.term)
    if isinstance(e, One):
        return "1"
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            s = _render_text(f)
            if isinstance(f, (Sum, Quotient)):
                s = f"({s})"
            parts.append(s)
        return " ".join(parts)
    if isinstance(e, Sum):
        ov = ",".join(_slot_text(v) for v in sorted(e.over))
        return f"sum_{{{ov}}} {_render_text(e.body)}"
    if isinstance(e, Quotient):
        return f"({_render_text(e.num)}) / ({_render_text(e.den)})"
    raise ExprError(f"not a ProbExpr: {e!r}")


def _render_latex(e: ProbExpr) -> str:
    if isinstance(e, Term):
        return _term_latex(e.term)
    if isinstance(e, One):
        return "1"
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            s = _render_latex(f)
            if isinstance(f, (Sum,)):
                s = f"\\left({s}\\right)"
            parts.append(s)
        return " ".join(parts)
    if isinstance(e, Sum):
        ov = ", ".join(_slot_latex(v) for v in sorted(e.over))
        return f"\\sum_{{{ov}}} {_render_latex(e.body)}"
    if isinstance(e, Quotient):
        return f"\\frac{{{_render_latex(e.num)}}}{{{_render_latex(e.den)}}}"
    raise ExprError(f"not a ProbExpr: {e!r}")


def to_json(e: ProbExpr) -> dict:
    if isinstance(e, Term):
        t = e.term
        return {
            "kind": "term",
            "domain": t.domain,
            "do": list(t.do),
            "outcome": list(t.outcome),
            "given": list(t.given),
        }
    if isinstance(e, One):
        return {"kind": "one"}
    if isinstance(e, Product):
        return {"kind": "product", "factors": [to_json(f) for f in e.factors]}
    if isinstance(e, Sum):
        return {"kind": "sum", "over": sorted(e.over), "body": to_json(e.body)}
    if isinstance(e, Quotient):
        return {"kind": "ratio", "num": to_json(e.num), "den": to_json(e.den)}
    raise ExprError(f"not a ProbExpr: {e!r}")


def from_json(obj: dict) -> ProbExpr:
    """Inverse of ``to_json``; raises ExprError on malformed input."""
    def names(key: str) -> tuple[str, ...]:
        if not (isinstance(obj[key], list) and all(isinstance(n, str) for n in obj[key])):
            raise ExprError(f"bad expression JSON: {key!r} must be a list of names in {obj!r}")
        return tuple(obj[key])

    try:
        kind = obj.get("kind")
        if kind == "term":
            return Term(ProbTerm(obj["domain"], names("do"), names("outcome"), names("given")))
        if kind == "one":
            return ONE
        if kind == "product":
            return Product(tuple(from_json(f) for f in obj["factors"]))
        if kind == "sum":
            return Sum(frozenset(names("over")), from_json(obj["body"]))
        if kind == "ratio":
            return Quotient(from_json(obj["num"]), from_json(obj["den"]))
    except (KeyError, AttributeError, TypeError) as e:
        raise ExprError(f"bad expression JSON: {obj!r}") from e
    raise ExprError(f"bad expression JSON: {obj!r}")


# ---------------------------------------------------------------------------
# evaluation

# einsum takes at most 31 operands in one call under numpy 1.x (63 under 2.x)
_MAX_OPERANDS = 31


def compile_expr(e: ProbExpr, tables) -> tuple[tuple[str, ...], np.ndarray]:
    """The value of ``e`` at every assignment of its free slots, as one array.

    Returns ``(slots, values)``: axis i of ``values`` runs over the values
    of ``slots[i]``.  A term becomes the conditional array of its
    distribution's joint, a product (or a sum of a product) one ``einsum``,
    a quotient a guarded divide.  NaN marks an assignment at which a
    conditioning event or a denominator has zero probability.

    ``tables`` must provide ``nodes`` (the variables in axis order),
    ``arity(slot) -> int``, ``joint(domain, do_vars) -> array`` over
    ``nodes`` with the do() axes free, and ``max_cells``: an array with more
    cells than that raises InputError before it is allocated.
    """
    return _compile(e, tables, {})


def align_axes(slots: tuple[str, ...], values: np.ndarray, order: Iterable[str]) -> np.ndarray:
    """``values`` (one axis per slot) with its axes permuted into ``order``
    and a length-1 axis for each slot of ``order`` it lacks; every slot of
    ``slots`` must occur in ``order``."""
    order = list(order)
    perm = [slots.index(s) for s in order if s in slots]
    shape = [values.shape[slots.index(s)] if s in slots else 1 for s in order]
    return values.transpose(perm).reshape(shape)


def evaluate(e: ProbExpr, tables, binding: Mapping[str, int]) -> float:
    """Value of ``e`` at one binding: the cell of ``compile_expr`` at it.

    Every free variable of ``e`` must be bound.  Raises EvalError if the
    binding meets a zero-probability conditioning event or denominator.
    """
    slots, values = compile_expr(e, tables)
    missing = set(slots) - set(binding)
    if missing:
        raise EvalError(f"unbound variables: {sorted(missing)}")
    index = tuple(binding[s] for s in slots)
    if not all(0 <= i < n for i, n in zip(index, values.shape)):
        raise EvalError(f"value out of range in {dict(binding)}")
    out = float(values[index])
    if math.isnan(out):
        raise EvalError(f"zero-probability conditioning event or denominator at {dict(binding)}")
    return out


def _compile(e: ProbExpr, tables, terms: dict) -> tuple[tuple[str, ...], np.ndarray]:
    if isinstance(e, Term):
        return _term_array(e.term, tables, terms)
    if isinstance(e, One):
        return (), np.ones(())
    if isinstance(e, Product):
        return _einsum([_compile(f, tables, terms) for f in e.factors], frozenset(), tables)
    if isinstance(e, Sum):
        parts = e.body.factors if isinstance(e.body, Product) else (e.body,)
        ops = [_compile(f, tables, terms) for f in parts]
        slots, values = _einsum(ops, e.over, tables)
        # a bound slot the body never reads counts each of its values once
        unread = e.over.difference(*(s for s, _ in ops))
        if unread:
            values = values * math.prod(tables.arity(v) for v in unread)
        return slots, values
    if isinstance(e, Quotient):
        (ns, num), (ds, den) = _compile(e.num, tables, terms), _compile(e.den, tables, terms)
        slots = tuple(dict.fromkeys(ns + ds))
        size = dict(zip(ns, num.shape)) | dict(zip(ds, den.shape))
        _check_cells(math.prod(size.values()), tables)
        return slots, _divide(align_axes(ns, num, slots), align_axes(ds, den, slots))
    raise ExprError(f"not a ProbExpr: {e!r}")


def _term_array(t: ProbTerm, tables, terms: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """P_do(outcome | given) over its slots; ``terms`` holds the arrays of
    terms already compiled in this expression, by base variables."""
    named = t.outcome + t.given + t.do
    bases = tuple(base_var(v) for v in named)
    key = (t.domain, bases, len(t.outcome), len(t.given))
    if key not in terms:
        if len(set(bases)) < len(bases):
            raise EvalError(f"term names one variable twice: {list(named)}")
        unknown = set(bases).difference(tables.nodes)
        if unknown:
            raise EvalError(f"variables not in table: {sorted(unknown)}")
        joint = tables.joint(t.domain, frozenset(bases[len(t.outcome) + len(t.given):]))
        kept = [v for v in tables.nodes if v in bases]
        drop = tuple(i for i, v in enumerate(tables.nodes) if v not in bases)
        values = joint.sum(axis=drop) if drop else joint
        if t.given:
            outcome = bases[:len(t.outcome)]
            axes = tuple(i for i, v in enumerate(kept) if v in outcome)
            values = _divide(values, values.sum(axis=axes, keepdims=True))
        terms[key] = (kept, values)
    kept, values = terms[key]
    slot_of = dict(zip(bases, named))
    return tuple(slot_of[v] for v in kept), values


def _einsum(ops: list, over: frozenset[str], tables) -> tuple[tuple[str, ...], np.ndarray]:
    """The product of ``ops`` (each (slots, array)) summed over ``over``."""
    while len(ops) > _MAX_OPERANDS:
        ops = [_einsum(ops[:_MAX_OPERANDS], frozenset(), tables)] + ops[_MAX_OPERANDS:]
    size: dict[str, int] = {}
    for slots, values in ops:
        size.update(zip(slots, values.shape))
    out = tuple(s for s in size if s not in over)
    if len(ops) == 1 and len(out) == len(size):
        return ops[0]
    _check_cells(math.prod(size[s] for s in out), tables)
    label = {s: i for i, s in enumerate(size)}
    args: list = []
    for slots, values in ops:
        args += (values, [label[s] for s in slots])
    return out, np.einsum(*args, [label[s] for s in out])


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, NaN elsewhere."""
    out = np.full(np.broadcast_shapes(num.shape, den.shape), np.nan)
    return np.divide(num, den, out=out, where=den > 0)


def _check_cells(cells: int, tables) -> None:
    if cells > tables.max_cells:
        raise InputError(f"evaluation needs {cells} cells at once; budget is {tables.max_cells}")
