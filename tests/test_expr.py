import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ztransport as zt
from ztransport import cli, expr as E
from ztransport.expr import EvalError, ExprError
from ztransport.oracle import DistributionSet, Table, build_distribution_set, generate_pair


def t_target_y():
    return E.term(E.TARGET, outcome=["Y"])


def t_source_cond():
    return E.term(E.SOURCE, outcome=["Y"], given=["X"], do=["Z"])


# -- construction constraints --------------------------------------------------

def test_term_invariants():
    with pytest.raises(ExprError):
        E.term(E.TARGET, outcome=["Y"], do=["Z"])  # target terms are do-free
    with pytest.raises(ExprError):
        E.term(E.SOURCE, outcome=["Y"], given=["Y"])
    with pytest.raises(ExprError):
        E.term(E.SOURCE, outcome=["Y"], do=["Y"])
    with pytest.raises(ExprError):
        E.term(E.SOURCE, outcome=[])
    # the same checks on the dataclass itself, which takes its tuples as given
    assert E.Term(E.SOURCE, ("Z",), ("Y",), ("W", "X")).given == ("W", "X")
    with pytest.raises(ExprError, match="outcome and conditioners overlap"):
        E.Term(E.SOURCE, (), ("X", "Y"), ("W", "Y"))
    with pytest.raises(ExprError, match="interventions and outcome overlap"):
        E.Term(E.SOURCE, ("Y", "Z"), ("Y",), ("X",))
    with pytest.raises(ExprError, match="outcome and conditioners overlap"):  # checked first
        E.Term(E.SOURCE, ("Y",), ("Y",), ("Y",))


# -- normalize -----------------------------------------------------------------

def test_normalize_absorbs_one():
    t = t_source_cond()
    assert E.normalize(E.Product((E.ONE, t))) == t
    assert E.normalize(E.Quotient(t, E.ONE)) == t


def test_normalize_commutative_products():
    t1, t2 = t_target_y(), t_source_cond()
    a = E.normalize(E.Product((t2, t1)))
    b = E.normalize(E.Product((t1, t2)))
    assert a == b


def test_normalize_merges_nested_sums():
    body = E.product([E.term(E.SOURCE, ["W"]), E.term(E.SOURCE, ["Z"], given=["W"])])
    nested = E.Sum(frozenset(["W"]), E.Sum(frozenset(["Z"]), body))
    flat = E.Sum(frozenset(["W", "Z"]), body)
    assert E.normalize(nested) == E.normalize(flat)


def test_normalize_drops_vacuous_sum_vars():
    t = t_target_y()
    assert E.normalize(E.Sum(frozenset(["Y"]), t)) == E.Sum(frozenset(["Y"]), t)
    # a bound variable that does not occur is dropped
    e = E.Sum(frozenset(["Q", "Y"]), t)
    assert E.normalize(e) == E.Sum(frozenset(["Y"]), t)
    # so is a sum none of whose bound variables occurs
    assert E.normalize(E.Sum(frozenset(["Q"]), t)) == t
    assert E.normalize(E.Sum(frozenset(["Y"]), E.ONE)) == E.ONE


def test_validate_rejects_double_binding():
    t = t_target_y()
    bad = E.Sum(frozenset(["Y"]), E.Sum(frozenset(["Y"]), t))
    with pytest.raises(ExprError):
        E.validate(bad)


# -- rendering -----------------------------------------------------------------

def test_render_target_marginal():
    assert E.render(t_target_y()) == "P*(y)"


def test_render_source_do_conditional():
    assert E.render(t_source_cond()) == "P_{z}(y|x)"


def test_render_sum_product():
    e = E.Sum(
        frozenset(["W"]),
        E.product(
            [
                E.term(E.SOURCE, ["W"], do=["Z"]),
                E.term(E.SOURCE, ["Y"], given=["W", "X"], do=["Z"]),
            ]
        ),
    )
    assert E.render(e) == "sum_{w} P_{z}(w) P_{z}(y|w,x)"
    # a sum or a quotient inside a product is parenthesized
    body = E.product([E.term(E.SOURCE, ["W"]), E.term(E.SOURCE, ["Y"], given=["W"])])
    e = E.Product((E.Sum(frozenset(["W"]), body), E.term(E.TARGET, ["X"])))
    assert E.render(e) == "(sum_{w} P(w) P(y|w)) P*(x)"
    ratio = E.Quotient(E.term(E.TARGET, ["X", "Y"]), E.term(E.TARGET, ["X"]))
    e = E.Product((ratio, E.term(E.TARGET, ["X"])))
    assert E.render(e) == "((P*(x,y)) / (P*(x))) P*(x)"


def test_render_latex():
    assert E.render(t_target_y(), "latex") == r"P^{*}\left(y\right)"
    e = E.term(E.SOURCE, ["Y"], given=["X"], do=["Z1"])
    assert E.render(e, "latex") == r"P_{z_{1}}\left(y \mid x\right)"
    e = E.Product((E.Sum(frozenset(["W"]), E.term(E.SOURCE, ["W"])), E.term(E.TARGET, ["X"])))
    assert E.render(e, "latex") == r"\left(\sum_{w} P\left(w\right)\right) P^{*}\left(x\right)"


def test_render_latex_escapes_underscores_and_primes_follow_the_base():
    # a name with "_" keeps its digits unsubscripted: a_{1} would be a__{1}
    e = E.term(E.SOURCE, ["B"], given=["A_1"])
    assert E.render(e, "latex") == r"P\left(b \mid a\_1\right)"
    assert E.render(e) == "P(b|a_1)"
    # a primed dummy is spelled as its base plus its primes
    e = E.marginal_sum(["W1", "X_2"], E.term(E.SOURCE, ["W1", "X_2", "Y"]))
    assert E.render(e, "latex") == r"\sum_{w_{1}', x\_2'} P\left(w_{1}', x\_2', y\right)"
    assert E.render(e) == "sum_{w1',x_2'} P(w1',x_2',y)"


def _lower_each(vs):
    return ",".join(v.lower() for v in vs)


# sigmas, cased letters whose lower case is longer or titlecase, and the
# case-ignorable marks Final_Sigma skips over (prime, middle dot, colon, a
# combining accent), mixed into names with digits and "_"
SIGMA_NAMES = st.text(alphabet="ΣσςAaİẞǅ_'·:́019", min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(SIGMA_NAMES, st.text(min_size=1, max_size=5)), min_size=1, max_size=9, unique=True))
def test_render_text_spells_each_name_lower_cased_on_its_own(names):
    # text lower-cases a whole list of names at once; it must spell every
    # list as its names lower-cased one by one
    outcome, given, do = names[0::3], names[1::3], names[2::3]
    t = E.Term(E.SOURCE, tuple(do), tuple(outcome), tuple(given))
    text = ("P_{%s}" % _lower_each(do) if do else "P") + f"({_lower_each(outcome)}"
    text += f"|{_lower_each(given)})" if given else ")"
    assert E.render(t) == text
    assert E.render(E.Sum(frozenset(names), t)) == f"sum_{{{_lower_each(sorted(names))}}} {text}"


def test_render_text_reads_final_sigma_inside_each_name():
    # a capital sigma ending a name is final and one starting a name is not,
    # whatever name sits on the other side of the ","
    assert E.render(E.Term(E.SOURCE, ("ΣA",), ("AΣ", "ΣB"), ("Σ",))) == "P_{σa}(aς,σb|σ)"
    # a prime is case-ignorable: a sigma before it is final unless a letter follows
    e = E.marginal_sum(["AΣ"], E.Term(E.SOURCE, (), ("AΣ", "AΣ'B"), ("X_1",)))
    assert E.render(e) == "sum_{aς'} P(aς',aσ'b|x_1)"


def test_render_spells_each_distinct_slot_once_per_call(monkeypatch):
    calls = []

    def slot(v):
        calls.append(v)
        return E._slot_latex(v)

    monkeypatch.setitem(E._STYLES, "latex", E._STYLES["latex"]._replace(slot=slot))
    # W1', Z1 and X_2 recur in both halves, and each half binds its own W1'
    body = E.product([E.term(E.SOURCE, ["W1"], do=["Z1"]), E.term(E.SOURCE, ["Y"], given=["W1", "X_2"], do=["Z1"])])
    e = E.Quotient(E.marginal_sum(["W1"], body), E.marginal_sum(["W1", "Y"], body))
    latex = (
        r"\frac{\sum_{w_{1}'} P_{z_{1}}\left(w_{1}'\right) P_{z_{1}}\left(y \mid w_{1}', x\_2\right)}"
        r"{\sum_{w_{1}', y'} P_{z_{1}}\left(w_{1}'\right) P_{z_{1}}\left(y' \mid w_{1}', x\_2\right)}"
    )
    assert E.render(e, "latex") == latex
    assert sorted(calls) == sorted(E.all_slots(e)) == ["W1'", "X_2", "Y", "Y'", "Z1"]
    # the spellings live for one call: a second render spells every slot again
    assert E.render(e, "latex") == latex
    assert len(calls) == 2 * len(E.all_slots(e))


def test_json_roundtrip_fixed():
    e = E.Sum(
        frozenset(["W"]),
        E.product([E.term(E.SOURCE, ["W"], do=["Z"]), t_target_y()]),
    )
    assert E.from_json(E.to_json(e)) == e


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "term", "domain": "x"},
        [],
        None,
        {"kind": "term", "domain": "source", "do": 3, "outcome": ["Y"], "given": []},
        {"kind": "term", "domain": "source", "do": [], "outcome": [["Y"]], "given": []},
        {"kind": "sum", "over": ["W"]},
        {"kind": "product", "factors": [{"kind": "one"}, "one"]},
        # an empty product would render as "" and break compile_expr
        {"kind": "product", "factors": []},
        {"kind": "ratio", "num": {"kind": "one"}, "den": {}},
        {"kind": "nothing"},
        # each slot list must be a list of names: a string is not split
        # into characters, and a number is not a name
        {"kind": "term", "domain": "source", "do": [], "outcome": [1], "given": []},
        {"kind": "term", "domain": "source", "do": [], "outcome": "YX", "given": []},
        {"kind": "term", "domain": "source", "do": "Z", "outcome": ["Y"], "given": []},
        {"kind": "term", "domain": "source", "do": [], "outcome": ["Y"], "given": "X"},
        {"kind": "sum", "over": "Y", "body": {"kind": "one"}},
        {"kind": "sum", "over": [None], "body": {"kind": "one"}},
    ],
)
def test_from_json_rejects_malformed_input(obj):
    with pytest.raises(ExprError):
        E.from_json(obj)


def test_term_corruptions_drop_before_graft_in_every_term():
    num = E.term(E.SOURCE, ["Y"], given=["X"])
    den = E.term(E.TARGET, ["X"], given=["W"])
    e = E.product([E.Quotient(num, den), E.term(E.TARGET, ["W"])])
    got = list(E.term_corruptions(e))
    keep_w = (E.term(E.TARGET, ["W"]),)
    assert got[:2] == [
        ("drop", E.Product((E.Quotient(E.term(E.SOURCE, ["Y"]), den),) + keep_w)),
        ("drop", E.Product((E.Quotient(num, E.term(E.TARGET, ["X"])),) + keep_w)),
    ]
    assert got[2:] == [
        ("graft", E.Product((E.Quotient(E.term(E.SOURCE, ["Y"], ["W", "X"]), den),) + keep_w)),
        ("graft", E.Product((E.Quotient(num, E.term(E.TARGET, ["X"], ["W", "Y"])),) + keep_w)),
        ("graft", E.Product((E.Quotient(num, den), E.term(E.TARGET, ["W"], ["X"])))),
        ("graft", E.Product((E.Quotient(num, den), E.term(E.TARGET, ["W"], ["Y"])))),
    ]
    assert cli._corrupt_formula(e) == got[0][1]
    with pytest.raises(zt.InputError, match="no conditioned term"):
        cli._corrupt_formula(E.term(E.TARGET, ["W"]))


# -- random ASTs: round trip and normalize soundness ---------------------------

VARS = ["A", "B", "C"]


def _leaf(rng):
    outcome = [VARS[rng.integers(0, 3)]]
    rest = [v for v in VARS if v not in outcome]
    given = [v for v in rest if rng.random() < 0.4]
    if rng.random() < 0.5:
        do = [v for v in rest if v not in given and rng.random() < 0.4]
        return E.term(E.SOURCE, outcome, given, do)
    return E.term(E.TARGET, outcome, given)


def _bound_inside(e):
    if isinstance(e, E.Sum):
        return e.over | _bound_inside(e.body)
    if isinstance(e, E.Product):
        out = frozenset()
        for f in e.factors:
            out |= _bound_inside(f)
        return out
    if isinstance(e, E.Quotient):
        return _bound_inside(e.num) | _bound_inside(e.den)
    return frozenset()


def random_expr(rng, depth=3):
    r = rng.random()
    if depth == 0 or r < 0.35:
        return _leaf(rng)
    if r < 0.6:
        return E.product([random_expr(rng, depth - 1) for _ in range(2)])
    body = random_expr(rng, depth - 1)
    candidates = sorted(E.free_variables(body) - _bound_inside(body))
    if not candidates:
        return body
    over = frozenset([candidates[rng.integers(0, len(candidates))]])
    return E.Sum(over, body)


def tiny_tables():
    rng = np.random.default_rng(5)
    arities = {v: 2 for v in VARS}
    source = {}
    for r in range(4):
        for combo in itertools.combinations(VARS, r):
            if len(combo) == len(VARS):
                continue
            joint = np.empty((2,) * len(VARS))  # do() axes free: one distribution per slice
            for values in itertools.product(range(2), repeat=len(combo)):
                keep = [v for v in VARS if v not in combo]
                p = rng.dirichlet(np.ones(2 ** len(keep))).reshape((2,) * len(keep))
                assignment = dict(zip(combo, values))
                joint[tuple(assignment.get(v, slice(None)) for v in VARS)] = p
            source[frozenset(combo)] = joint
    p = rng.dirichlet(np.ones(8)).reshape((2, 2, 2))
    return DistributionSet(Table(tuple(VARS), p), source, arities)


def test_evaluate_one():
    assert E.evaluate(E.ONE, tiny_tables(), {}) == 1.0


def test_evaluate_marginal_lookup():
    tab = Table(("Y",), np.array([0.3, 0.7]))
    ds = DistributionSet(tab, {}, {"Y": 2})
    assert E.evaluate(E.term(E.TARGET, ["Y"]), ds, {"Y": 1}) == pytest.approx(0.7)
    for bad in (-1, 2, True, 1.0):  # numpy would wrap, mask or refuse each
        with pytest.raises(EvalError, match="out of range"):
            E.evaluate(E.term(E.TARGET, ["Y"]), ds, {"Y": bad})


def test_evaluate_missing_table():
    tab = Table(("Y",), np.array([0.3, 0.7]))
    ds = DistributionSet(tab, {}, {"Y": 2})
    with pytest.raises(EvalError):
        E.evaluate(E.term(E.SOURCE, ["Y"], do=["Z"]), ds, {"Y": 1, "Z": 0})


def test_evaluate_unbound_variable():
    with pytest.raises(EvalError, match=r"^unbound variables: \['B'\]$"):
        E.evaluate(E.term(E.TARGET, ["A"], given=["B"]), tiny_tables(), {"A": 0})
    # a variable no table holds fails before any binding is read
    with pytest.raises(EvalError, match=r"^variables not in table: \['Y'\]$"):
        E.evaluate(t_target_y(), tiny_tables(), {})


def test_compile_rejects_a_term_naming_one_variable_twice():
    # A and its marginalization dummy A' read the same table column
    with pytest.raises(EvalError, match=r"^term names one variable twice: \['A', \"A'\"\]$"):
        E.compile_expr(E.term(E.TARGET, ["A"], given=["A'"]), tiny_tables())


def test_evaluate_zero_denominator_raises_only_at_that_binding():
    # P*(A=1) = 0: conditioning on A=1 is undefined, on A=0 it is not
    tab = Table(("A", "B"), np.array([[0.3, 0.7], [0.0, 0.0]]))
    ds = DistributionSet(tab, {}, {"A": 2, "B": 2})
    cond = E.term(E.TARGET, ["B"], given=["A"])
    assert E.evaluate(cond, ds, {"A": 0, "B": 1}) == pytest.approx(0.7)
    with pytest.raises(EvalError):
        E.evaluate(cond, ds, {"A": 1, "B": 1})
    ratio = E.Quotient(E.term(E.TARGET, ["B"]), E.term(E.TARGET, ["A"]))
    assert E.evaluate(ratio, ds, {"A": 0, "B": 0}) == pytest.approx(0.3)
    with pytest.raises(EvalError):
        E.evaluate(ratio, ds, {"A": 1, "B": 0})


def test_compiled_evaluation_checks_the_cell_budget(monkeypatch):
    ds = tiny_tables()
    e = E.product([E.term(E.TARGET, ["A"]), E.term(E.TARGET, ["B"])])  # 4 cells
    assert E.compile_expr(e, ds)[1].size == 4
    monkeypatch.setattr(DistributionSet, "max_cells", 3)
    with pytest.raises(zt.InputError, match="budget"):
        E.compile_expr(e, ds)


def test_compiled_product_of_more_operands_than_einsum_takes():
    # numpy's einsum refuses 64 operands or more; the compiler chunks them
    g = zt.SemiMarkovianGraph.create(["A", "B"], [("A", "B")])
    ds = build_distribution_set(generate_pair(zt.SelectionDiagram.create(g, []), 1), [])
    t = E.term(E.TARGET, ["B"], given=["A"])
    slots, one = E.compile_expr(t, ds)
    got_slots, got = E.compile_expr(E.Product((t,) * 70), ds)
    assert got_slots == slots
    np.testing.assert_allclose(got, one ** 70, rtol=1e-12)


def test_evaluate_conditional_is_ratio():
    ds = tiny_tables()
    e = E.term(E.TARGET, ["A"], given=["B"])
    binding = {"A": 1, "B": 0}
    joint = ds.target_joint.prob({"A": 1, "B": 0})
    marg = ds.target_joint.prob({"B": 0})
    assert E.evaluate(e, ds, binding) == pytest.approx(joint / marg)


def test_normalize_preserves_semantics_on_random_asts():
    ds = tiny_tables()
    rng = np.random.default_rng(11)
    for _ in range(150):
        e = random_expr(rng)
        E.validate(e)
        n = E.normalize(e)
        binding = {v: int(rng.integers(0, 2)) for v in E.free_variables(e)}
        assert E.evaluate(n, ds, binding) == pytest.approx(
            E.evaluate(e, ds, binding), abs=1e-12
        )


def test_json_roundtrip_random_asts():
    rng = np.random.default_rng(13)
    for _ in range(100):
        e = random_expr(rng)
        assert E.from_json(E.to_json(e)) == e
        import json

        assert E.from_json(json.loads(E.render(e, "json"))) == e


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_normalize_idempotent(seed):
    rng = np.random.default_rng(seed)
    e = random_expr(rng)
    assert E.normalize(E.normalize(e)) == E.normalize(e)


# -- marginalization dummies ---------------------------------------------------

def test_marginal_sum_renames_against_capture():
    body = E.product(
        [E.term(E.SOURCE, ["W"]), E.term(E.SOURCE, ["Y"], given=["W", "X"])]
    )
    s = E.marginal_sum(["W"], body)
    assert isinstance(s, E.Sum)
    assert s.over == {"W'"}
    assert "W" not in E.free_variables(s)
    assert "X" in E.free_variables(s)
    # wrapping again picks a second fresh name
    s2 = E.marginal_sum(["X"], E.product([s, E.term(E.SOURCE, ["X"])]))
    E.validate(s2)


def test_base_var_strips_primes():
    assert E.base_var("x''") == "x"
    assert E.base_var("X") == "X"


def test_evaluate_primed_dummy_resolves_base_column():
    ds = tiny_tables()
    inner = E.product(
        [E.term(E.SOURCE, ["A"]), E.term(E.SOURCE, ["B"], given=["A"])]
    )
    e = E.marginal_sum(["A"], inner)  # sums over A under the name A'
    direct = sum(
        E.evaluate(inner, ds, {"A": a, "B": 1}) for a in range(2)
    )
    assert E.evaluate(e, ds, {"B": 1}) == pytest.approx(direct)
