"""Symbolic probability expressions for transport formulas.

The vocabulary is the one the engine emits, four node kinds: sums
(``Sum``) of products (``Product``) of atomic probability terms, and a
quotient (``Quotient``).  A term (``Term``: domain, do, outcome, given) is
a conditional probability of one of the base distributions handed to the
engine: the target observational distribution, or a source distribution
under a do() on controllable variables.  Value slots are symbolic; the
engine manipulates variable names and evaluation binds them to values.
``render`` prints text and LaTeX with one walk; what differs between the
formats is a ``_Style`` record each.  ``to_json`` is the one JSON form.

The quotient is for the cases where the identification recursion derives
a distribution whose conditionals are not expressible as a single
base-distribution term (ID's line 7 conditions a derived distribution);
it never appears in the golden formulas.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .graph import InputError, _expect, _node_names

SOURCE = "source"
TARGET = "target"
# the most cells an array of enumeration, evaluation or validation, or a distribution
# set's contracted experiments together, may hold at once
MAX_TABLE_ENTRIES = 10_000_000


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


def is_int(v) -> bool:
    """Whether ``v`` is an integer and not a bool (numpy reads a bool index as a mask)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


class ProbExpr:
    """Base class; concrete nodes are Term, Product, Sum and Quotient.  A
    product's factors must be a nonempty tuple and a sum's ``over`` a
    frozenset of names.  ``Term`` takes its names as given, since the engine
    makes thousands; ``term`` and ``from_json`` check them.  A child that is
    not a ProbExpr is an ExprError in the walks."""

    __slots__ = ()


@dataclass(frozen=True)
class Term(ProbExpr):
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
        outcome = frozenset(self.outcome)
        if not outcome.isdisjoint(self.given):
            raise ExprError("outcome and conditioners overlap")
        if not outcome.isdisjoint(self.do):
            raise ExprError("interventions and outcome overlap")
        if not self.outcome:
            raise ExprError("term needs a nonempty outcome")


@dataclass(frozen=True)
class Product(ProbExpr):
    factors: tuple[ProbExpr, ...]

    def __post_init__(self):
        if not isinstance(self.factors, tuple):
            raise ExprError(f"a product's factors must be a tuple, not {self.factors!r}")
        if not self.factors:
            raise ExprError("product needs at least one factor")


@dataclass(frozen=True)
class Sum(ProbExpr):
    over: frozenset[str]
    body: ProbExpr

    def __post_init__(self):
        if not (isinstance(self.over, frozenset) and _all_names(self.over)):
            raise ExprError(f"a sum's over must be a frozenset of names, not {self.over!r}")


@dataclass(frozen=True)
class Quotient(ProbExpr):
    num: ProbExpr
    den: ProbExpr


def _all_names(vs: Iterable) -> bool:
    """Whether every item of ``vs`` is a str: the join refuses any other, in one pass in C."""
    try:
        "".join(vs)
    except TypeError:
        return False
    return True


def _names(vs: Iterable[str], what: str) -> list[str]:
    """A builder's name collection as a list: InputError for a bare string, whose
    characters would be read as names, and ExprError for an item that is not a str."""
    vs = list(_node_names(vs, what))
    if not _all_names(vs):
        raise ExprError(f"{what} must hold names, not {vs!r}")
    return vs


def term(
    domain: str,
    outcome: Iterable[str],
    given: Iterable[str] = (),
    do: Iterable[str] = (),
) -> Term:
    """Build a term; variable lists are stored sorted for canonical equality."""
    lists = ((do, "do"), (outcome, "outcome"), (given, "given"))
    return Term(domain, *(tuple(sorted(set(_names(vs, what)))) for vs, what in lists))


def product(factors: Iterable[ProbExpr]) -> ProbExpr:
    fs = tuple(factors)
    return fs[0] if len(fs) == 1 else Product(fs)


def sum_over(over: Iterable[str], body: ProbExpr) -> ProbExpr:
    ov = frozenset(_names(over, "over"))
    if not ov:
        return body
    return Sum(ov, body)


def _slots(e: ProbExpr, bind: bool) -> frozenset[str]:
    """The value slots of ``e``; with ``bind``, those a sum binds are left out."""
    out: set[str] = set()
    _add_slots(e, bind, out)
    return frozenset(out)


def _add_slots(e: ProbExpr, bind: bool, out: set[str]) -> None:
    """Add ``_slots(e, bind)`` to ``out``; a sum that binds walks its body into a set of its own."""
    if isinstance(e, Term):
        out.update(e.do, e.outcome, e.given)
    elif isinstance(e, Product):
        for f in e.factors:
            _add_slots(f, bind, out)
    elif isinstance(e, Sum):
        if bind:
            body: set[str] = set()
            _add_slots(e.body, bind, body)
            out.update(body.difference(e.over))
        else:
            out.update(e.over)
            _add_slots(e.body, bind, out)
    elif isinstance(e, Quotient):
        _add_slots(e.num, bind, out)
        _add_slots(e.den, bind, out)
    else:
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
        sub = lambda vs: tuple(sorted(mapping.get(v, v) for v in vs))
        return Term(e.domain, sub(e.do), sub(e.outcome), sub(e.given))
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
    removed = _names(removed, "removed")
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


def _each_term_rewritten(e: ProbExpr, rewrite: Callable[[Term], Iterable[Term]]) -> Iterator[ProbExpr]:
    """Every copy of ``e`` with one term, quotient denominators included,
    replaced by one of ``rewrite(term)``; terms in depth-first order."""
    if isinstance(e, Term):
        yield from rewrite(e)
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

    def drop(t: Term) -> Iterator[Term]:
        for i in range(len(t.given)):
            yield Term(t.domain, t.do, t.outcome, t.given[:i] + t.given[i + 1:])

    names = sorted({base_var(v) for v in all_slots(e)})

    def graft(t: Term) -> Iterator[Term]:
        mentioned = {*t.given, *t.outcome, *map(base_var, t.do)}
        for v in names:
            if v not in mentioned:
                yield Term(t.domain, t.do, t.outcome, tuple(sorted(t.given + (v,))))

    yield from (("drop", v) for v in _each_term_rewritten(e, drop))
    yield from (("graft", v) for v in _each_term_rewritten(e, graft))


def validate(e: ProbExpr, bound: frozenset[str] = frozenset()) -> None:
    """Raise ExprError on double binding or sum variables absent from the body."""
    if isinstance(e, Sum):
        if e.over & bound:
            raise ExprError(f"double binding of {sorted(e.over & bound)}")
        missing = e.over - free_variables(e.body)
        if missing:
            raise ExprError(f"sum binds variables absent from body: {sorted(missing)}")
        validate(e.body, bound | e.over)
    elif isinstance(e, Product):
        for f in e.factors:
            validate(f, bound)
    elif isinstance(e, Quotient):
        validate(e.num, bound)
        validate(e.den, bound)
    elif not isinstance(e, Term):
        raise ExprError(f"not a ProbExpr: {e!r}")


def _sort_key(e: ProbExpr):
    if isinstance(e, Term):
        return (0, e.domain, e.do, e.outcome, e.given)
    if isinstance(e, Product):
        return (1, tuple(_sort_key(f) for f in e.factors))
    if isinstance(e, Sum):
        return (2, tuple(sorted(e.over)), _sort_key(e.body))
    return (3, _sort_key(e.num), _sort_key(e.den))


def normalize(e: ProbExpr) -> ProbExpr:
    """Canonical form for structural comparison.

    Products are flattened and sorted, nested sums merged, and sum
    variables that do not occur free in the body are dropped.  Two
    expressions differing only in factor order, sum-variable order or
    trivial nesting normalize identically.  No algebraic rewriting
    (no cancellation) is performed.
    """
    if isinstance(e, Term):
        return e
    if isinstance(e, Product):
        factors: list[ProbExpr] = []
        for f in e.factors:
            nf = normalize(f)
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
        return Sum(frozenset(over), body) if over else body
    if isinstance(e, Quotient):
        return Quotient(normalize(e.num), normalize(e.den))
    raise ExprError(f"not a ProbExpr: {e!r}")


# ---------------------------------------------------------------------------
# rendering

def _slot_latex(v: str) -> str:
    """A trailing digit run is a subscript unless the name has a ``_``,
    which is escaped; a dummy's primes follow its base's spelling."""
    s = v.lower()
    if "_" in s:
        return s.replace("_", r"\_")
    head = s.rstrip("0123456789")
    if head != s:
        return f"{head}_{{{s[len(head):]}}}" if head else s
    base = s.rstrip("'")
    return _slot_latex(base) + s[len(base):] if base != s else s


class _Spellings(dict):
    """One render's spelling of each slot, computed on its first lookup;
    ``render`` walks with its ``__getitem__`` as the style's ``slot``."""

    def __init__(self, slot: Callable[[str], str]):
        self.slot = slot

    def __missing__(self, v: str) -> str:
        self[v] = s = self.slot(v)
        return s


class _Style(NamedTuple):
    """How one output format spells each node; ``_render`` is the walk."""

    slot: Callable[[str], str]
    target: str  # the head of a target term
    sep: str  # between the names of one list
    given: str  # between a term's outcome and its conditioners
    brackets: str  # around a term's arguments and a bracketed factor
    bracketed: tuple[type, ...]  # the product factors put in brackets
    sum: str  # format template over (bound names, body)
    ratio: str  # format template over (numerator, denominator)

    def names(self, vs: Iterable[str]) -> str:
        return self.sep.join(map(self.slot, vs))


class _Text(_Style):
    """Text spells each name lower-cased, and a list lower-cased whole spells
    the same: ``str.lower``'s one context rule (Final_Sigma) looks across no
    ``,``, which is neither cased nor case-ignorable.  One call per list."""

    __slots__ = ()

    def names(self, vs: Iterable[str]) -> str:
        return self.sep.join(vs).lower()


_STYLES = {
    "text": _Text(str.lower, "P*", ",", "|", "({})", (Sum, Quotient), "sum_{{{}}} {}", "({}) / ({})"),
    "latex": _Style(
        _slot_latex, "P^{*}", ", ", r" \mid ", r"\left({}\right)", (Sum,), r"\sum_{{{}}} {}",
        r"\frac{{{}}}{{{}}}",
    ),
}


def render(e: ProbExpr, format: str = "text") -> str:
    """Render as plain text or LaTeX; ``to_json`` is the JSON form."""
    if format not in _STYLES:
        raise ExprError(f"unknown render format: {format!r}")
    style = _STYLES[format]
    return _render(e, style._replace(slot=_Spellings(style.slot).__getitem__))


def _render(e: ProbExpr, style: _Style) -> str:
    if isinstance(e, Term):
        head = style.target if e.domain == TARGET else "P"
        if e.do:
            head += "_{%s}" % style.names(e.do)
        body = style.names(e.outcome)
        if e.given:
            body += style.given + style.names(e.given)
        return head + style.brackets.format(body)
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            s = _render(f, style)
            parts.append(style.brackets.format(s) if isinstance(f, style.bracketed) else s)
        return " ".join(parts)
    if isinstance(e, Sum):
        return style.sum.format(style.names(sorted(e.over)), _render(e.body, style))
    if isinstance(e, Quotient):
        return style.ratio.format(_render(e.num, style), _render(e.den, style))
    raise ExprError(f"not a ProbExpr: {e!r}")


def to_json(e: ProbExpr) -> dict:
    if isinstance(e, Term):
        return {
            "kind": "term",
            "domain": e.domain,
            "do": list(e.do),
            "outcome": list(e.outcome),
            "given": list(e.given),
        }
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
            return Term(obj["domain"], names("do"), names("outcome"), names("given"))
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
# np.einsum's labels: it spells the sublist label i as the i-th of these letters
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
# each live formula's programs, by node order; a program dies with its formula
_PROGRAMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _subscripts(operands: Iterable[Iterable[int]], out: Iterable[int]) -> str:
    """The ``np.einsum`` subscript string of these label lists: the call it
    makes is the one the interleaved sublist form makes."""
    spell = lambda labels: "".join(_LETTERS[i] for i in labels)
    return ",".join(map(spell, operands)) + "->" + spell(out)


class _Program(NamedTuple):
    """A formula compiled against one node order; ``_run`` runs it on a
    table supply.  Sizes are read at run time, as the arities of ``bases``,
    and the steps name a size by its index there."""

    slots: tuple[str, ...]  # the free slots, in the value's axis order
    bases: tuple[str, ...]  # the variables whose arities size the arrays
    terms: tuple[tuple, ...]  # per distinct term: (domain, do variables, dropped axes, outcome axes if conditional)
    steps: tuple[int | tuple, ...]  # postfix over a stack of arrays; an int pushes that term's array


class _Compiler:
    """One symbolic pass over a formula: the static EvalErrors, each term's
    table, and the steps that sum, divide and contract."""

    def __init__(self, nodes: tuple[str, ...]):
        self.nodes = nodes
        self.bases: dict[str, int] = {}
        self.terms: dict[tuple, tuple[int, list[str]]] = {}
        self.specs: list[tuple] = []
        self.steps: list[tuple] = []

    def size(self, slot: str) -> int:
        return self.bases.setdefault(base_var(slot), len(self.bases))

    def walk(self, e: ProbExpr) -> tuple[str, ...]:
        """Add the steps that leave ``e``'s array on the stack; returns its slots."""
        if isinstance(e, Term):
            return self.term(e)
        if isinstance(e, Product):
            return self.einsum(e.factors, frozenset())
        if isinstance(e, Sum):
            return self.einsum(e.body.factors if isinstance(e.body, Product) else (e.body,), e.over)
        if isinstance(e, Quotient):
            ns, ds = self.walk(e.num), self.walk(e.den)
            slots = tuple(dict.fromkeys(ns + ds))
            self.steps.append(("divide", tuple(None if s not in ns else slice(None) for s in slots),
                               tuple(ds.index(s) for s in slots if s in ds),
                               tuple(None if s not in ds else slice(None) for s in slots),
                               tuple(map(self.size, slots))))
            return slots
        raise ExprError(f"not a ProbExpr: {e!r}")

    def term(self, t: Term) -> tuple[str, ...]:
        named = t.outcome + t.given + t.do
        bases = tuple(base_var(v) for v in named)
        key = (t.domain, bases, len(t.outcome), len(t.given))
        if key not in self.terms:
            if len(set(bases)) < len(bases):
                raise EvalError(f"term names one variable twice: {list(named)}")
            kept = [v for v in self.nodes if v in bases]
            outcome = bases[:len(t.outcome)]
            self.specs.append((t.domain, bases[len(t.outcome) + len(t.given):],
                               tuple(i for i, v in enumerate(self.nodes) if v not in bases),
                               tuple(i for i, v in enumerate(kept) if v in outcome) if t.given else ()))
            self.terms[key] = (len(self.specs) - 1, kept)
        k, kept = self.terms[key]
        self.steps.append(k)
        slot_of = dict(zip(bases, named))
        return tuple(slot_of[v] for v in kept)

    def einsum(self, factors: Iterable[ProbExpr], over: frozenset[str]) -> tuple[str, ...]:
        """The product of ``factors`` summed over ``over``: one einsum per
        ``_MAX_OPERANDS`` operands, or none for one operand summed over nothing."""
        ops: list[tuple[str, ...]] = []
        for f in factors:
            if len(ops) == _MAX_OPERANDS:
                ops = [self.einsum_of(ops, frozenset())]
            ops.append(self.walk(f))
        slots = self.einsum_of(ops, over)
        # a bound slot the body never reads counts each of its values once
        unread = over.difference(*ops)
        if unread:
            self.steps.append(("scale", tuple(map(self.size, unread))))
        return slots

    def einsum_of(self, ops: list[tuple[str, ...]], over: frozenset[str]) -> tuple[str, ...]:
        label = {s: i for i, s in enumerate(dict.fromkeys(s for slots in ops for s in slots))}
        out = tuple(s for s in label if s not in over)
        if len(ops) == 1 and len(out) == len(label):
            return ops[0]
        if len(label) > len(_LETTERS):
            raise InputError(f"evaluation needs {len(label)} einsum labels; numpy takes {len(_LETTERS)}")
        spec = sys.intern(_subscripts([[label[s] for s in slots] for slots in ops], [label[s] for s in out]))
        self.steps.append(("einsum", len(ops), spec, tuple(map(self.size, out))))
        return out


def _table_supply(tables):
    """``tables``, or a TypeError naming it unless it has the three members a formula reads."""
    if not all(hasattr(tables, m) for m in ("nodes", "arity", "joint")):
        raise TypeError(f"tables must be a table supply (nodes, arity, joint), not {type(tables).__name__}")
    return tables


def _program(e: ProbExpr, tables) -> _Program:
    """``e``'s program for the node order of ``tables``, compiled on first
    use and kept with the formula; a compile that raises keeps nothing."""
    nodes = tuple(_table_supply(tables).nodes)
    if not isinstance(e, ProbExpr):
        raise ExprError(f"not a ProbExpr: {e!r}")
    programs = _PROGRAMS.get(e)
    prog = None if programs is None else programs.get(nodes)
    if prog is None:
        unknown = {base_var(v) for v in all_slots(e)}.difference(nodes)
        if unknown:
            raise EvalError(f"variables not in table: {sorted(unknown)}")
        c = _Compiler(nodes)
        slots = c.walk(e)
        prog = _Program(slots, tuple(c.bases), tuple(c.specs), tuple(c.steps))
        _PROGRAMS.setdefault(e, {})[nodes] = prog
    return prog


def _run(prog: _Program, tables) -> np.ndarray:
    """The program's value over its slots: each term's array from
    ``tables.joint``, then the steps, each array checked against the cell
    budget at its real size before it is made."""
    sizes = [tables.arity(v) for v in prog.bases]
    arrays = []
    for domain, do, dropped, outcome in prog.terms:
        values = tables.joint(domain, frozenset(do))
        if dropped:
            values = values.sum(axis=dropped)
        if outcome:
            values = _divide(values, values.sum(axis=outcome, keepdims=True), values.shape)
        arrays.append(values)
    stack: list[np.ndarray] = []
    for step in prog.steps:
        if step.__class__ is int:
            stack.append(arrays[step])
            continue
        kind = step[0]
        if kind == "einsum":
            _, n, spec, out = step
            _check_cells(math.prod([sizes[i] for i in out]), "evaluation")
            ops = stack[-n:]
            del stack[-n:]
            stack.append(np.einsum(spec, *ops))
        elif kind == "scale":
            stack[-1] = stack[-1] * math.prod([sizes[i] for i in step[1]])
        else:
            _, num_axes, den_perm, den_axes, slots = step
            shape = tuple(sizes[i] for i in slots)
            _check_cells(math.prod(shape), "evaluation")
            den = stack.pop()
            stack[-1] = _divide(stack[-1][num_axes], den.transpose(den_perm)[den_axes], shape)
    return stack[0]


def compile_expr(e: ProbExpr, tables) -> tuple[tuple[str, ...], np.ndarray]:
    """The value of ``e`` at every assignment of its free slots, as one array.

    Returns ``(slots, values)``: axis i of ``values`` runs over the values
    of ``slots[i]``.  A term becomes the conditional array of its
    distribution's joint, a product (or a sum of a product) one ``einsum``,
    a quotient a guarded divide.  NaN marks an assignment at which a
    conditioning event or a denominator has zero probability.

    The formula is compiled once per node order and kept with it; each call
    runs that program, reading only the tables.  ``tables`` must provide
    ``nodes`` (the variables in axis order), ``arity(slot) -> int``,
    ``joint(domain, do_vars) -> array`` over ``nodes`` with the do() axes
    free, or the call is a TypeError.  An array with more cells than
    ``MAX_TABLE_ENTRIES`` raises InputError before it is allocated.
    """
    prog = _program(e, tables)
    return prog.slots, _run(prog, tables)


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

    Every free variable of ``e`` must be bound, in range, and is checked
    before any table is read.  Raises EvalError if the binding meets a
    zero-probability conditioning event or denominator.
    """
    prog = _program(e, tables)
    missing = set(prog.slots).difference(_expect(binding, Mapping, "binding"))
    if missing:
        raise EvalError(f"unbound variables: {sorted(missing)}")
    if not all(is_int(binding[s]) and 0 <= binding[s] < tables.arity(s) for s in prog.slots):
        raise EvalError(f"value out of range in {dict(binding)}")
    out = float(_run(prog, tables)[tuple(binding[s] for s in prog.slots)])
    if math.isnan(out):
        raise EvalError(f"zero-probability conditioning event or denominator at {dict(binding)}")
    return out


def _divide(num: np.ndarray, den: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """num / den where den > 0, NaN elsewhere; ``shape`` is the shape they broadcast to."""
    out = np.full(shape, np.nan)
    return np.divide(num, den, out=out, where=den > 0)


def _check_cells(cells: int, what: str) -> None:
    """Raise InputError if ``what`` needs more cells at once than the budget,
    read at call time: the one check of ``MAX_TABLE_ENTRIES``."""
    if cells > MAX_TABLE_ENTRIES:
        raise InputError(f"{what} needs {cells} cells at once; budget is {MAX_TABLE_ENTRIES}")
