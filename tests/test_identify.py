import hashlib
import itertools
import json

import numpy as np
import pytest

import ztransport as zt
from ztransport import expr as E
from ztransport import identify
from ztransport.graph import InputError
from ztransport.identify import (
    DistLabel,
    FailedFactor,
    bi,
    direct_transportable,
    gid_z,
    sid_z,
    transportable,
)
from ztransport.oracle import (
    DiscreteModelPair,
    build_distribution_set,
    generate_pair,
    ground_truth_effect,
    validate_formula,
)

from helpers import (
    back_door_graph,
    bow_graph,
    chain_conditioners,
    chain_graph,
    exogenize,
    fig2a,
    fig2b,
    fig5c,
    front_door_graph,
    napkin_graph,
    random_diagram,
    random_graph,
    sparse_graph,
    term_shapes_ok,
)

D = zt.SelectionDiagram.create
TOL = 1e-9


def check_sound(formula, d, x, y, z, seeds=range(1, 6), arity=2):
    q = zt.Query.create(x, y, set(z) - set(y))
    worst = 0.0
    for seed in seeds:
        pair = generate_pair(d, seed, arity=arity)
        worst = max(worst, validate_formula(formula, pair, q))
    return worst


# -- gid_z ---------------------------------------------------------------------

def test_gid_no_interventions_returns_marginal():
    g = chain_graph()
    r = gid_z(["Y"], [], [], g)
    assert r.ok
    assert E.normalize(r.formula) == E.term(E.SOURCE, ["Y"])
    assert check_sound(r.formula, D(g, []), [], ["Y"], []) <= TOL


def test_gid_bow_fails_without_experiments():
    r = gid_z(["Y"], ["X"], [], bow_graph())
    assert not r.ok
    assert r.witness.kind == "hedge"
    assert set(r.witness.f_graph.nodes) == {"X", "Y"}
    assert set(r.witness.f_sub.nodes) == {"Y"}


def test_gid_bow_with_experiment_on_x():
    r = gid_z(["Y"], ["X"], ["X"], bow_graph())
    assert r.ok
    assert E.normalize(r.formula) == E.term(E.SOURCE, ["Y"], do=["X"])
    assert check_sound(r.formula, D(bow_graph(), []), ["X"], ["Y"], ["X"]) <= TOL


def test_gid_chain_identifiable():
    r = gid_z(["Y"], ["X"], [], chain_graph())
    assert r.ok
    assert check_sound(r.formula, D(chain_graph(), []), ["X"], ["Y"], []) <= TOL


def test_gid_front_and_back_door():
    for g in (front_door_graph(), back_door_graph()):
        r = gid_z(["Y"], ["X"], [], g)
        assert r.ok
        assert check_sound(r.formula, D(g, []), ["X"], ["Y"], []) <= TOL


def test_gid_napkin_needs_a_ratio_and_is_sound():
    g = napkin_graph()
    r = gid_z(["Y"], ["X"], [], g)
    assert r.ok
    f = E.normalize(r.formula)
    assert "ratio" in E.render(f, "json")
    assert E.render(f) == (
        "(sum_{w1'} P(w1') P(x|w1',w2) P(y|w1',w2,x)) / "
        "(sum_{w1',y'} P(w1') P(x|w1',w2) P(y'|w1',w2,x))"
    )
    assert E.render(f, "latex") == (
        r"\frac{\sum_{w_{1}'} P\left(w_{1}'\right) P\left(x \mid w_{1}', w_{2}\right) "
        r"P\left(y \mid w_{1}', w_{2}, x\right)}{\sum_{w_{1}', y'} P\left(w_{1}'\right) "
        r"P\left(x \mid w_{1}', w_{2}\right) P\left(y' \mid w_{1}', w_{2}, x\right)}"
    )
    assert check_sound(r.formula, D(g, []), ["X"], ["Y"], []) <= TOL


@pytest.mark.parametrize("k", [2, 3, 4])
def test_gid_longer_napkins_stay_sound(k):
    # longer observed chains into the confounded pair still force a
    # derived-factor conditional; the emitted quotient must stay exact
    ws = [f"W{i}" for i in range(1, k + 1)]
    g = zt.SemiMarkovianGraph.create(
        ws + ["X", "Y"],
        list(zip(ws, ws[1:] + ["X"])) + [("X", "Y")],
        [("W1", "X"), ("W1", "Y")],
    )
    r = gid_z(["Y"], ["X"], [], g)
    assert r.ok
    f = E.normalize(r.formula)
    assert "ratio" in E.render(f, "json")
    E.validate(f)
    assert check_sound(f, D(g, []), ["X"], ["Y"], [], seeds=(1, 2, 3)) <= TOL
    assert check_sound(f, D(g, []), ["X"], ["Y"], [], seeds=(1,), arity=3) <= TOL


@pytest.mark.parametrize("seed, x", [(2425, "V4"), (2848, "V3")])
def test_gid_joint_quotient_path_stays_sound(seed, x):
    # rare random graphs whose recursion marginalizes a factor chain over a
    # non-suffix of its order, so later conditionals become quotients
    g, _ = random_graph(seed, master=99, max_nodes=9, max_bi=6)
    r = gid_z(["V7"], [x], [], g)
    assert r.ok
    assert "ratio" in E.render(E.normalize(r.formula), "json")
    assert check_sound(r.formula, D(g, []), [x], ["V7"], []) <= TOL


def test_gid_rejects_overlapping_x_y():
    with pytest.raises(InputError):
        gid_z(["Y"], ["Y"], [], chain_graph())


def test_an_empty_outcome_set_is_an_input_error():
    g = chain_graph()
    for decide in (lambda: gid_z([], ["X"], [], g), lambda: sid_z([], ["X"], D(g, ["Z"]), ["Z"])):
        with pytest.raises(InputError, match="^outcome set y must be nonempty$"):
            decide()


def test_gid_drops_z_inside_y_with_warning():
    r = gid_z(["Y"], ["X"], ["Y"], chain_graph())
    assert r.ok
    assert any("dropped" in w for w in r.warnings)


# -- bi --------------------------------------------------------------------

def test_bi_marginal_when_x_empty():
    g = chain_graph()
    f = bi(["Y"], [], DistLabel(E.TARGET), g)
    assert E.normalize(f) == E.term(E.TARGET, ["Y"])


def test_bi_chain_factor_against_oracle():
    g = chain_graph()
    f = bi(["Y"], ["Z", "X"], DistLabel(E.TARGET), g)
    d = D(g, [])
    for seed in (1, 2, 3):
        pair = generate_pair(d, seed)
        tables = build_distribution_set(pair, [])
        for z, x, y in itertools.product(range(2), repeat=3):
            got = E.evaluate(f, tables, {"Z": z, "X": x, "Y": y})
            want = ground_truth_effect(pair.target, {"Z": z, "X": x}, ["Y"]).prob({"Y": y})
            assert got == pytest.approx(want, abs=TOL)


def test_bi_single_factor_leaves_context_free():
    # identifying the factor for Y with X intervened: the chain rule gives a
    # sum-free conditional with the untouched variable left as free context
    g = chain_graph()
    f = bi(["Y"], ["X"], DistLabel(E.TARGET), g)
    assert E.normalize(f) == E.term(E.TARGET, ["Y"], given=["Z", "X"])
    d = D(g, [])
    for seed in (1, 2, 3):
        pair = generate_pair(d, seed)
        tables = build_distribution_set(pair, [])
        for z, x, y in itertools.product(range(2), repeat=3):
            got = E.evaluate(f, tables, {"Z": z, "X": x, "Y": y})
            want = ground_truth_effect(pair.target, {"Z": z, "X": x}, ["Y"]).prob({"Y": y})
            assert got == pytest.approx(want, abs=TOL)


def test_bi_with_x_short_of_the_factor_identifies_the_effect():
    # x and the active set need not hold every node outside y; bi then
    # identifies P_x(y), here P_z(y) = sum_x P(x|z) P(y|z,x)
    g = chain_graph()
    f = bi(["Y"], ["Z"], DistLabel(E.SOURCE), g)
    assert check_sound(f, D(g, []), ["Z"], ["Y"], []) <= TOL


def test_bi_rejects_y_spanning_components():
    g = chain_graph()  # {Z} and {Y} are separate components of g minus X
    with pytest.raises(InputError):
        bi(["Z", "Y"], ["X"], DistLabel(E.TARGET), g)


def test_bi_rejects_overlapping_sets():
    with pytest.raises(InputError):
        bi(["Y"], ["Y"], DistLabel(E.TARGET), chain_graph())


@pytest.mark.parametrize(
    "make_dist",
    [
        lambda: DistLabel(E.SOURCE, frozenset({"Q"})),
        lambda: DistLabel(E.SOURCE, frozenset({"Y"})),
        lambda: DistLabel("elsewhere"),
        lambda: DistLabel(E.TARGET, frozenset({"X"})),
    ],
    ids=["unknown-do-node", "do-overlaps-y", "unknown-domain", "target-with-do"],
)
def test_bi_rejects_a_bad_dist(make_dist):
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")])
    with pytest.raises(InputError):
        bi(["Y"], [], make_dist(), g)


def test_bi_bow_throws_fail():
    with pytest.raises(FailedFactor) as exc:
        bi(["Y"], ["X"], DistLabel(E.TARGET), bow_graph())
    w = exc.value.witness
    assert set(w.f_graph.nodes) == {"X", "Y"}
    assert set(w.f_sub.nodes) == {"Y"}


def bi_outcome(y, x, dist, g):
    """bi's formula, or the witness graphs of its failure, or its input error."""
    try:
        return bi(y, x, dist, g)
    except FailedFactor as e:
        return "fail", e.witness.f_graph, e.witness.f_sub
    except InputError as e:
        return "input", str(e)


def test_bi_cuts_the_arrows_into_active_itself():
    # Z -> X -> Y with Z <-> Y and X <-> Z: with the arrows into Z cut, the
    # factor of Y is a conditional; bi cuts them itself, so the uncut graph
    # gives the same, not a hedge over {Z, X, Y}
    g = zt.SemiMarkovianGraph.create(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")], [("Z", "Y"), ("X", "Z")])
    dist = DistLabel(E.SOURCE, frozenset({"Z"}))
    f = bi(["Y"], ["X"], dist, g)
    assert E.render(E.normalize(f)) == "P_{z}(y|x)"
    assert f == bi(["Y"], ["X"], dist, zt.mutilate(g, ["Z"]))


def test_bi_reads_its_active_experiments_off_the_dist():
    # W -> Y <- X with the experiment on W switched on: the experiment holds
    # W, so no factor reads a term whose do-set overlaps its outcome
    g = zt.SemiMarkovianGraph.create(["W", "X", "Y"], [("W", "Y"), ("X", "Y")])
    f = bi(["Y"], ["X"], DistLabel(E.SOURCE, frozenset({"W"})), g)
    assert E.render(E.normalize(f)) == "P_{w}(y|x)"
    assert bi(["Y"], ["X"], DistLabel(E.SOURCE, ["W"]), g) == f  # any collection


def test_bi_on_random_diagrams_equals_bi_on_the_cut_graph():
    cut_mattered = 0
    for seed in range(300):
        d, x, y, z = random_diagram(seed, master=59)
        g, act = d.graph, frozenset(z) - set(y)
        cut = zt.mutilate(g, act)
        cut_mattered += cut != g
        dist = DistLabel(E.SOURCE, act)
        for xs in (set(x) - act, set(g.nodes) - set(y) - act):
            assert bi_outcome(y, xs, dist, g) == bi_outcome(y, xs, dist, cut), seed
    assert cut_mattered > 100


# -- direct_transportable ------------------------------------------------------

def test_direct_transportable_no_marks():
    d = D(chain_graph(), [])
    for c in zt.c_components(d.graph):
        assert direct_transportable(c, d)


def test_direct_transportable_disjoint_component():
    d = D(chain_graph(), ["Z"])
    assert direct_transportable(frozenset({"Y"}), d)


def test_direct_transportable_marked_component():
    d = D(chain_graph(), ["Y"])
    assert not direct_transportable(frozenset({"Y"}), d)


# -- sid_z ---------------------------------------------------------------------

def test_sid_marginal_when_x_empty():
    r = sid_z(["Y"], [], fig2a(), ["Z"])
    assert r.ok
    assert E.normalize(r.formula) == E.term(E.TARGET, ["Y"])


def test_sid_fig2a_single_conditional_term():
    d = fig2a()
    r = sid_z(["Y"], ["X"], d, ["Z"])
    assert r.ok
    assert E.normalize(r.formula) == E.term(E.SOURCE, ["Y"], given=["X"], do=["Z"])
    assert check_sound(r.formula, d, ["X"], ["Y"], ["Z"]) <= TOL


def test_sid_fig2b_adjustment_formula():
    d = fig2b()
    r = sid_z(["Y"], ["X"], d, ["Z"])
    assert r.ok
    want = E.Sum(
        frozenset(["W"]),
        E.product(
            [
                E.term(E.SOURCE, ["W"], do=["Z"]),
                E.term(E.SOURCE, ["Y"], given=["W", "X"], do=["Z"]),
            ]
        ),
    )
    assert E.normalize(r.formula) == E.normalize(want)
    assert check_sound(r.formula, d, ["X"], ["Y"], ["Z"]) <= TOL


def test_sid_results_are_distributions_over_y():
    # summing the formula over all y values gives 1 for every x
    d = fig2b()
    r = sid_z(["Y"], ["X"], d, ["Z"])
    pair = generate_pair(d, 3)
    tables = build_distribution_set(pair, ["Z"])
    f = E.normalize(r.formula)
    aux = sorted(E.free_variables(f) - {"X", "Y"})
    for x in range(2):
        total = 0.0
        for y in range(2):
            binding = {"X": x, "Y": y, **{a: 0 for a in aux}}
            total += E.evaluate(f, tables, binding)
        assert total == pytest.approx(1.0, abs=TOL)


def test_emitted_formulas_are_distributions_over_y_random():
    checked = 0
    for seed in range(60):
        if checked >= 8:
            break
        d, x, y, zset = random_diagram(seed, master=53)
        rs = sid_z(y, x, d, zset)
        if not rs.ok:
            continue
        checked += 1
        zc = set(zset) - set(y)
        pair = generate_pair(d, 1)
        tables = build_distribution_set(pair, zc)
        f = E.normalize(rs.formula)
        g = d.graph
        aux = sorted(E.free_variables(f) - set(x) - set(y))
        for x_vals in itertools.product(range(2), repeat=len(x)):
            binding = dict(zip(sorted(x), x_vals))
            binding.update({a: 0 for a in aux})
            total = 0.0
            ys = g.sorted(y)
            for y_vals in itertools.product(range(2), repeat=len(ys)):
                binding.update(zip(ys, y_vals))
                total += E.evaluate(f, tables, binding)
            assert total == pytest.approx(1.0, abs=TOL)
    assert checked == 8


def test_validation_supports_wider_arities():
    d = fig2a()
    r = sid_z(["Y"], ["X"], d, ["Z"])
    q = zt.Query.create(["X"], ["Y"], ["Z"])
    pair = generate_pair(d, 2, arity=3)
    assert validate_formula(E.normalize(r.formula), pair, q) <= TOL


def test_sid_warns_on_z_inside_y():
    d = fig2a()
    r = sid_z(["Y"], ["X"], d, ["Z", "Y"])
    assert r.ok
    assert any("dropped" in w for w in r.warnings)
    assert E.normalize(r.formula) == E.term(E.SOURCE, ["Y"], given=["X"], do=["Z"])


def test_sid_witness_invariants():
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")], [("X", "Y")])
    r = sid_z(["Y"], ["X"], D(g, ["Y"]), [])
    assert not r.ok
    w = r.witness
    assert w.kind == "shedge"
    assert len(zt.c_components(w.f_graph)) == 1
    assert set(w.f_sub.nodes) < set(w.f_graph.nodes)
    assert w.s_targets_in_component == {"Y"}


def result_record(r) -> dict:
    """Everything a result carries, raw: the formula as emitted, the witness
    graphs with their edges, the warnings and the trace."""
    def graph_record(g):
        return [list(g.nodes), sorted(g.directed_edges), sorted(sorted(e) for e in g.bidirected_edges)]

    w, t = r.witness, r.trace
    return {
        "formula": None if r.formula is None else E.to_json(r.formula),
        "witness": None if w is None else [
            w.kind, graph_record(w.f_graph), graph_record(w.f_sub), sorted(w.s_targets_in_component)
        ],
        "warnings": list(r.warnings),
        "trace": [
            t.line3_activations,
            t.decompositions,
            None if t.partition is None else [sorted(c) for c in t.partition],
        ],
    }


# sha256 of the records of 3,000 results, computed before each c-factor was
# identified on its own ancestral graph and recomputed when transportable()
# stopped warning about y (only the warnings of its 1,000 records changed);
# a speed-up of the recursion must leave every formula, witness, warning and
# trace as it was
RESULTS_SHA256 = "653bef956ebad2f2e5dc3fb7273d6cd2cefbf40383ba309ce97f2dce27535995"


def test_results_on_random_diagrams_are_pinned():
    h = hashlib.sha256()
    for seed in range(1000):
        d, x, y, z = random_diagram(seed, master=37)
        for r in (sid_z(y, x, d, z), gid_z(y, x, z, d.graph), transportable(y, x, d)):
            h.update(json.dumps(result_record(r), sort_keys=True).encode())
    assert h.hexdigest() == RESULTS_SHA256


def redeclare(d, master: int, seed: int):
    """d with its nodes declared in an order shuffled by (master, seed)."""
    g, rng = d.graph, np.random.default_rng([master, seed, 1])
    g = zt.SemiMarkovianGraph.create(
        [str(v) for v in rng.permutation(g.nodes)], g.directed_edges, [tuple(e) for e in g.bidirected_edges]
    )
    return D(g, d.s_targets)


def redeclared_diagram(seed: int, master: int = 37):
    """random_diagram(seed, master) with its nodes declared in a shuffled
    order, so declaration order is mostly no topological order."""
    d, x, y, z = random_diagram(seed, master)
    return redeclare(d, master, seed), x, y, z


# sha256 of the records of the same 3,000 results on the diagrams re-declared
# in a shuffled order, where every order is read off the arrows, not the
# declaration; computed before the recursion read node sets instead of built
# subgraphs
REDECLARED_RESULTS_SHA256 = "675c6e6088f3fb673986974ad0c61a2dcb35017569e2a6684b5e517f6df18ea3"


def test_results_on_redeclared_random_diagrams_are_pinned():
    h = hashlib.sha256()
    forward = 0
    for seed in range(1000):
        d, x, y, z = redeclared_diagram(seed)
        g = d.graph
        forward += all(g.index[a] < g.index[b] for a, b in g.directed_edges)
        for r in (sid_z(y, x, d, z), gid_z(y, x, z, g), transportable(y, x, d)):
            h.update(json.dumps(result_record(r), sort_keys=True).encode())
    assert forward < 500  # most re-declarations are not forward
    assert h.hexdigest() == REDECLARED_RESULTS_SHA256


def test_formulas_on_redeclared_random_diagrams_are_sound():
    # criterion 4's check on the re-declared stream, whose chains mostly
    # condition on Kahn orders, not on declaration order: every transportable
    # formula validated on two model pairs, on every value of its free slots
    worst, checked, non_forward = 0.0, 0, 0
    for seed in range(1000):
        d, x, y, z = redeclared_diagram(seed)
        r = sid_z(y, x, d, z)
        if not r.ok:
            continue
        zc = set(z) - set(y)
        f, q = E.normalize(r.formula), zt.Query.create(x, y, zc)
        for pair_seed in (1, 2):
            pair = generate_pair(d, pair_seed)
            worst = max(worst, validate_formula(f, pair, q, tables=build_distribution_set(pair, zc)))
        checked += 1
        non_forward += not d.graph.forward
    assert worst <= TOL, worst
    assert checked > 800 and non_forward > 600, (checked, non_forward)


def pick(rng, items, k: int) -> list[str]:
    return [str(v) for v in rng.choice(items, size=min(len(items), k), replace=False)]


def sparse_diagram(seed: int, master: int = 61):
    """sparse_graph(seed, master) as a selection diagram with a query: y is
    1-2 of the last ten nodes, x 1-2 of the middle third of y's other
    ancestors, z up to two of those, and up to two marked nodes that are
    ancestors of y but not of x; half the time x is also confounded with a
    child that is an ancestor of y, which is then marked too."""
    g, rng = sparse_graph(seed, master)
    y = pick(rng, g.nodes[-10:], int(rng.integers(1, 3)))
    an = g.sorted(zt.ancestors(g, y) - set(y))
    x = pick(rng, an[len(an) // 3: 2 * len(an) // 3] or an or g.nodes[:1], int(rng.integers(1, 3)))
    z = pick(rng, an, int(rng.integers(0, 3)))
    s = pick(rng, g.sorted(zt.ancestors(g, y) - zt.ancestors(g, x)), int(rng.integers(0, 3)))
    kids = g.sorted(b for a, b in g.directed_edges if a == x[0] and b in an)
    if kids and rng.random() < 0.5:
        g = zt.SemiMarkovianGraph.create(g.nodes, g.directed_edges, [*map(tuple, g.bidirected_edges), (x[0], kids[0])])
        s = sorted(set(s) | {kids[0]})
    return D(g, s), x, y, z


# sha256 of the records of 600 results on diagrams of 65-130 nodes, whose
# node sets take more than one 64-bit word: 100 sparse_diagrams, as declared
# and re-declared in a shuffled order; computed before the recursion held its
# node sets as masks (178 of the 600 are failures with witnesses)
WIDE_RESULTS_SHA256 = "31ed2e5b8fb82ca9001430bcd0c9cd58592ac09ef8eb24e3bc6e0a2354e85154"


def test_results_on_diagrams_past_64_nodes_are_pinned():
    h = hashlib.sha256()
    forward = 0
    for shuffled in (False, True):
        for seed in range(100):
            d, x, y, z = sparse_diagram(seed)
            if shuffled:
                d = redeclare(d, 61, seed)
            g = d.graph
            forward += g.forward
            for r in (sid_z(y, x, d, z), gid_z(y, x, z, g), transportable(y, x, d)):
                h.update(json.dumps(result_record(r), sort_keys=True).encode())
    assert forward == 100  # each diagram as declared is forward, and no re-declaration is
    assert h.hexdigest() == WIDE_RESULTS_SHA256


# sha256 of the text and LaTeX renders, raw and normalized, of the formulas
# of the same 3,000 results, computed before the two renderers were one walk
# and recomputed when a primed dummy took its base's LaTeX spelling (v1' is
# v_{1}'; only the LaTeX renders of 20 of the 2,771 formulas changed):
# primed dummies, digit subscripts and sums inside products must print as
# they do
RENDERS_SHA256 = "e85ffebd422773aed960ab037ec4b3c52ae5b4d3b5d77647b997517e96f6463d"


def test_renders_on_random_diagrams_are_pinned():
    h = hashlib.sha256()
    for seed in range(1000):
        d, x, y, z = random_diagram(seed, master=37)
        for r in (sid_z(y, x, d, z), gid_z(y, x, z, d.graph), transportable(y, x, d)):
            if r.formula is None:
                continue
            for f in (r.formula, E.normalize(r.formula)):
                for fmt in ("text", "latex"):
                    h.update(E.render(f, fmt).encode() + b"\n")
    assert h.hexdigest() == RENDERS_SHA256


# -- transportable ---------------------------------------------------------------

def test_transportable_no_marks_agrees_with_gid():
    for seed in range(25):
        d, x, y, _ = random_diagram(seed, master=31)
        d0 = D(d.graph, [])
        rt = transportable(y, x, d0)
        rg = gid_z(y, x, d0.graph.nodes, d0.graph)
        assert rt.ok == rg.ok
        if rt.ok and seed % 5 == 0:
            pair = generate_pair(d0, 1)
            z_all = set(d0.graph.nodes) - set(y)
            tables = build_distribution_set(pair, z_all)
            q = zt.Query.create(x, y, z_all)
            e1 = validate_formula(E.normalize(rt.formula), pair, q, tables=tables)
            e2 = validate_formula(E.normalize(rg.formula), pair, q, tables=tables)
            assert e1 <= TOL and e2 <= TOL


def test_transportable_fig2a_succeeds():
    r = transportable(["Y"], ["X"], fig2a())
    assert r.ok
    assert r.warnings == ()  # y is never among the controllable variables


def test_transportable_bow_with_mark_on_y():
    g = bow_graph()
    r = transportable(["Y"], ["X"], D(g, ["Y"]))
    assert not r.ok
    assert r.witness.kind == "shedge"


# -- cross-algorithm consistency on random diagrams -------------------------------

def test_transport_decision_agrees_with_its_two_ingredients():
    for seed in range(150):
        d, x, y, zset = random_diagram(seed, master=37)
        rs = sid_z(y, x, d, zset)
        rg = gid_z(y, x, zset, d.graph)
        rt = transportable(y, x, d)
        # z-transport holds exactly when both ingredients hold
        assert rs.ok == (rg.ok and rt.ok)
        # with no domain discrepancy, sid_z reduces to gid_z
        d0 = D(d.graph, [])
        assert sid_z(y, x, d0, zset).ok == rg.ok
        if rs.ok:
            zc = set(zset) - set(y)
            assert term_shapes_ok(E.normalize(rs.formula), zc)
            E.validate(rs.formula)
            # every free slot refers to a variable of the diagram
            free = {E.base_var(v) for v in E.free_variables(rs.formula)}
            assert free <= set(d.graph.nodes)
        if rg.ok:
            zc = set(zset) - set(y)
            assert term_shapes_ok(E.normalize(rg.formula), zc)
        for r in (rs, rg, rt):
            if not r.ok:
                w = r.witness
                assert len(zt.c_components(w.f_graph)) == 1
                assert set(w.f_sub.nodes) < set(w.f_graph.nodes)
                assert (w.kind == "shedge") == bool(w.s_targets_in_component)


def spy_on(monkeypatch, name):
    """Rebind ``identify.<name>`` to a wrapper that records each call's
    arguments and result; returns the list of (args, kwargs, result)."""
    calls, fn = [], getattr(identify, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs, fn(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(identify, name, spy)
    return calls


def test_gid_factors_get_their_own_ancestral_graphs(monkeypatch):
    # gid_z decomposes into {U}, {Z}, {Y1}, {Y2} and switches on the
    # experiment on Z for three of them; each factor's chain is read off its
    # own ancestral set (arrows into Z cut), never the whole diagram, and
    # no graph is built
    g = zt.SemiMarkovianGraph.create(
        ["U", "Z", "X", "Y1", "Y2"],
        [("U", "Z"), ("Z", "X"), ("X", "Y1"), ("Z", "Y1"), ("X", "Y2"), ("U", "Y2")],
    )
    # the graph at hand, G[V] less the arrows into P's do-set, is what a chain is read off
    chains = spy_on(monkeypatch, "_chain_over")
    built = spy_on(monkeypatch, "induced_subgraph")
    r = gid_z(["Y1", "Y2"], ["X"], ["Z"], g)
    assert r.ok and r.trace.decompositions == 1
    assert len(r.trace.partition) == 4
    ancestral = {(zt.ancestors(g, c, cut=frozenset({"Z"}) - c), frozenset({"Z"}) - c) for c in r.trace.partition}
    read = [(frozenset(g.names(V)), P.do) for (P, _, V, _, _), _, _ in chains]
    assert len(read) == 3
    for w, cut in read:
        assert w != g.node_set
        assert (w, cut) in ancestral
    assert built == []
    assert check_sound(r.formula, D(g, []), ["X"], ["Y1", "Y2"], ["Z"]) <= TOL


def test_sid_z_builds_no_graph_unless_it_fails(monkeypatch):
    # fig5c factorizes into {V1}, {Y1}, {Y2}; each factor's recursion starts
    # on its own ancestral set, arrows into its experiment cut, read off
    # sid_z's ancestor table; the partitions are read off the node set at hand
    entries = spy_on(monkeypatch, "_gid_an")
    chains = spy_on(monkeypatch, "_chain_over")
    built = spy_on(monkeypatch, "induced_subgraph")
    d = fig5c()
    g = d.graph
    r = sid_z(["Y1", "Y2"], ["X1", "X2"], d, ["V1", "X2"])
    assert r.ok and r.trace.partition == ({"V1"}, {"Y1"}, {"Y2"})
    # each factor enters with (An(c), its cut) as a node set and a cut mask
    assert [(set(g.names(V)), set(g.names(cut))) for (_, _, _, _, _, V, cut, _, _), _, _ in entries] == [
        ({"V1"}, {"X2"}), ({"X1", "V1", "Y1"}, set()), ({"X2", "V1", "Y2"}, {"V1", "X2"})
    ]
    # {V1} and {Y2} need no intervention inside their ancestral sets; only
    # {Y1}'s chain is built, off its ancestral set with nothing cut
    assert [(set(g.names(V)), set(P.do)) for (P, _, V, _, _), _, _ in chains] == [({"X1", "V1", "Y1"}, set())]
    assert built == []
    # a query that transports builds no graph; one that fails builds its
    # witness's two graphs and nothing else
    assert transportable(["Y"], ["X"], fig2a()).ok and built == []
    w = transportable(["Y"], ["X"], D(bow_graph(), ["Y"])).witness
    assert [sub for _, _, sub in built] == [w.f_graph, w.f_sub]


def test_sid_z_factors_start_on_their_ancestral_sets(monkeypatch):
    # each factor's recursion starts on An(c) inside An(y), with the arrows
    # into its cut cut (z - c for a direct factor, nothing for a marked one),
    # as the graph module's walk finds it; forward diagrams, re-declared ones
    # and some past 64 nodes, with the query's z and with every node controllable
    entries = spy_on(monkeypatch, "_gid_an")
    checked = {"cut": 0, "meets z": 0, "marked": 0, "past 64": 0}
    queries = [q for seed in range(200) for q in (random_diagram(seed, master=37), redeclared_diagram(seed))]
    queries += [sparse_diagram(seed) for seed in range(10)]
    for d, x, y, z in queries:
        g = d.graph
        an_y = zt.ancestors(g, y)
        for zq in (z, set(g.nodes) - set(y)):
            entries.clear()
            sid_z(y, x, d, zq)
            zc = (set(zq) - set(y)) & an_y
            for (c, cx, _, P, _, V, cut, _, depth), _, _ in entries:
                if depth != 4 * len(g.nodes) + 8:
                    continue  # a call inside a factor's recursion
                c = frozenset(g.names(c))
                do_set = frozenset(zc - c) if direct_transportable(c, d) else frozenset()
                assert set(g.names(cut)) == do_set and P.do == do_set
                an_c = zt.ancestors(g, c, cut=do_set, within=an_y)
                assert set(g.names(V)) == an_c and set(g.names(cx)) == an_c - c - do_set
                checked["cut"] += bool(do_set)
                checked["meets z"] += bool(do_set and c & zc)
                checked["marked"] += not direct_transportable(c, d)
                checked["past 64"] += len(g.nodes) > 64
    assert min(checked.values()) > 20, checked


def test_chain_terms_condition_on_their_predecessors(monkeypatch):
    # each chain term P(v | given) of a base distribution conditions on v's
    # predecessors in the order of the graph at hand, less the cut, spelled
    # name-sorted; the chain's variables come in that order; forward
    # diagrams, re-declared ones and some past 64 nodes, both ways declared,
    # with the query's z and with every node outside y controllable
    chains = spy_on(monkeypatch, "_chain_over")
    checked = {"forward": 0, "not forward": 0, "cut": 0, "past 64": 0}
    queries = [q for seed in range(400) for q in (random_diagram(seed, master=37), redeclared_diagram(seed))]
    for seed in range(10):
        d, x, y, z = sparse_diagram(seed)
        queries += [(d, x, y, z), (redeclare(d, 61, seed), x, y, z)]
    for d, x, y, z in queries:
        g = d.graph
        chains.clear()
        sid_z(y, x, d, z)
        gid_z(y, x, z, g)
        transportable(y, x, d)
        for (P, _, V, cut, members), _, chain in chains:
            w, cut = g.names(V), g.names(cut)
            assert set(cut) == set(P.do)
            order = zt.topological_order(g, w, cut)
            assert chain.rand_vars == tuple(v for v in order if v in g.names(members))
            if not isinstance(P, DistLabel):
                continue  # a nested chain's factors are quotients of its sums
            terms = chain.joint.factors if isinstance(chain.joint, E.Product) else (chain.joint,)
            for t, v in zip(terms, chain.rand_vars, strict=True):
                assert t.outcome == (v,) and t.do == tuple(sorted(P.do))
                assert t.given == tuple(sorted(t.given)) and set(t.given).isdisjoint(t.do)
                assert t.given == chain_conditioners(g, w, cut, v)
                checked["forward" if g.forward else "not forward"] += 1
                checked["cut"] += bool(cut)
                checked["past 64"] += len(g.nodes) > 64
    assert min(checked.values()) > 100, checked


def test_ancestor_table_matches_ancestors_under_random_cuts():
    # one entry per node of a node set closed under ancestors, each the
    # node's ancestors with the arrows into the cut cut; zero elsewhere
    rng = np.random.default_rng(71)
    graphs = [random_graph(seed, master=71, max_nodes=10, max_bi=6)[0] for seed in range(40)]
    graphs += [sparse_graph(seed, master=71)[0] for seed in range(2)]
    graphs += [
        zt.SemiMarkovianGraph.create(
            [str(v) for v in rng.permutation(g.nodes)], g.directed_edges, [tuple(e) for e in g.bidirected_edges]
        )
        for g in graphs
    ]
    assert any(len(g.nodes) > 64 and not g.forward for g in graphs)
    for g in graphs:
        for k in range(3):
            cut = frozenset(v for v in g.nodes if rng.random() < 0.3)
            within = zt.ancestors(g, [v for v in g.nodes if rng.random() < 0.2] or g.nodes[-1:]) if k else g.node_set
            table = identify._ancestor_table(g, [g.index[v] for v in zt.topological_order(g, within)], g.mask(cut))
            assert len(table) == len(g.nodes)
            for v, entry in zip(g.nodes, table):
                assert set(g.names(entry)) == (zt.ancestors(g, [v], cut=cut) if v in within else set())


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_factor_ancestral_set_reaches_through_z_inside_the_factor_past_64_nodes(monkeypatch, reverse):
    # the direct factor c = {V70, V71, V72} is a chain of its own: V70 and V71
    # are parents inside c, and V71 is in z, so the ancestor table (arrows into
    # all of z cut) holds V71 alone; yet the factor's cut is z - c, so An(c)
    # reaches V0..V5 through V71's parent V5 as well as V40..V69 through V69
    n = 80
    nodes = [f"V{i}" for i in range(n)]
    directed = [(f"V{i}", f"V{i + 1}") for i in range(n - 1)] + [("V5", "V71")]
    g = zt.SemiMarkovianGraph.create(
        nodes[::-1] if reverse else nodes, directed, [("V70", "V71"), ("V71", "V72"), ("V74", "V75")]
    )
    d, x, y, z = D(g, ["V75"]), ["V60"], ["V79"], {"V40", "V71"}
    entries = spy_on(monkeypatch, "_gid_an")
    assert sid_z(y, x, d, z).ok
    an_y, seen = zt.ancestors(g, y), {}
    for (c, cx, _, P, _, V, cut, _, depth), _, _ in entries:
        if depth == 4 * n + 8:
            c = frozenset(g.names(c))
            do_set = z - c if direct_transportable(c, d) else frozenset()
            assert set(g.names(cut)) == P.do == do_set
            seen[c] = set(g.names(V))
            assert seen[c] == zt.ancestors(g, c, cut=do_set, within=an_y)
    assert seen[frozenset({"V70", "V71", "V72"})] == {f"V{i}" for i in (*range(6), *range(40, 73))}
    assert seen[frozenset({"V74", "V75"})] == {f"V{i}" for i in range(76)}


def test_single_activation_and_matching_decompositions():
    for seed in range(150):
        d, x, y, zset = random_diagram(seed, master=41)
        rs = sid_z(y, x, d, zset)
        rg = gid_z(y, x, zset, d.graph)
        assert rg.trace.line3_activations <= 1
        assert rg.trace.decompositions <= 1
        if rs.trace.partition is not None and rg.trace.partition is not None:
            assert set(rs.trace.partition) == set(rg.trace.partition)


def test_sid_with_no_marks_matches_gid_numerically():
    d, x, y, zset = random_diagram(3, master=43)
    d0 = D(d.graph, [])
    rs = sid_z(y, x, d0, zset)
    rg = gid_z(y, x, zset, d0.graph)
    assert rs.ok == rg.ok
    if rs.ok:
        zc = set(zset) - set(y)
        pair = generate_pair(d0, 2)
        tables = build_distribution_set(pair, zc)
        q = zt.Query.create(x, y, zc)
        for f in (rs.formula, rg.formula):
            assert validate_formula(E.normalize(f), pair, q, tables=tables) <= TOL


# -- the overlap reformulation ---------------------------------------------------

def test_gid_overlapping_z_x_equivalence():
    hits = 0
    for seed in range(60):
        d, x, y, _ = random_diagram(seed, master=47)
        g = d.graph
        rng = np.random.default_rng([5, seed])
        zset = [v for v in g.nodes if v not in y and rng.random() < 0.4][:3]
        zx = sorted(set(zset) & set(x))
        left = gid_z(y, x, zset, g)
        right = gid_z(y, set(x) - set(zx), set(zset) - set(x), zt.mutilate(g, zx))
        assert left.ok == right.ok
        if left.ok and zx:
            hits += 1
            d0 = D(g, [])
            pair = generate_pair(d0, 11)
            assert check_sound(left.formula, d0, x, y, zset, seeds=(11,)) <= TOL
            m2 = exogenize(pair.source, zx)
            pair_r = DiscreteModelPair(d0, m2, m2)
            q_r = zt.Query.create(set(x) - set(zx), y, set(zset) - set(x) - set(y))
            err = validate_formula(E.normalize(right.formula), pair_r, q_r)
            assert err <= TOL
    assert hits >= 5  # the sweep genuinely exercised overlapping cases
