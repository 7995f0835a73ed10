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
    chain_graph,
    fig2a,
    fig2b,
    front_door_graph,
    napkin_graph,
    random_diagram,
    random_graph,
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
    assert "ratio" in E.render(E.normalize(r.formula), "json")
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


def bi_outcome(y, x, dist, g, active):
    """bi's formula, or the witness graphs of its failure, or its input error."""
    try:
        return bi(y, x, dist, g, active)
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
    f = bi(["Y"], ["X"], dist, g, active=["Z"])
    assert E.render(E.normalize(f)) == "P_{z}(y|x)"
    assert f == bi(["Y"], ["X"], dist, zt.mutilate(g, ["Z"]), active=["Z"])


def test_bi_on_random_diagrams_equals_bi_on_the_cut_graph():
    cut_mattered = 0
    for seed in range(300):
        d, x, y, z = random_diagram(seed, master=59)
        g, act = d.graph, frozenset(z) - set(y)
        cut = zt.mutilate(g, act)
        cut_mattered += cut != g
        for dist in (DistLabel(E.SOURCE, act), DistLabel(E.TARGET)):
            for xs in (set(x) - act, set(g.nodes) - set(y) - act):
                assert bi_outcome(y, xs, dist, g, act) == bi_outcome(y, xs, dist, cut, act), seed
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
# identified on its own ancestral graph; a speed-up of the recursion must
# leave every formula, witness, warning and trace as it was
RESULTS_SHA256 = "172dc3501c19ea1f78ee6b351106f04381fdd2ba4a30689d4a1ffa0e3632d6eb"


def test_results_on_random_diagrams_are_pinned():
    h = hashlib.sha256()
    for seed in range(1000):
        d, x, y, z = random_diagram(seed, master=37)
        for r in (sid_z(y, x, d, z), gid_z(y, x, z, d.graph), transportable(y, x, d)):
            h.update(json.dumps(result_record(r), sort_keys=True).encode())
    assert h.hexdigest() == RESULTS_SHA256


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


def test_gid_factors_get_their_own_ancestral_graphs(monkeypatch):
    # gid_z decomposes into {U}, {Z}, {Y1}, {Y2} and switches on the
    # experiment on Z for three of them; each factor's graph is its own
    # ancestral set (arrows into Z cut), never the whole diagram
    g = zt.SemiMarkovianGraph.create(
        ["U", "Z", "X", "Y1", "Y2"],
        [("U", "Z"), ("Z", "X"), ("X", "Y1"), ("Z", "Y1"), ("X", "Y2"), ("U", "Y2")],
    )
    received = []
    mutilate = identify.mutilate
    monkeypatch.setattr(identify, "mutilate", lambda h, cut=(): received.append(h) or mutilate(h, cut))
    r = gid_z(["Y1", "Y2"], ["X"], ["Z"], g)
    assert r.ok and r.trace.decompositions == 1
    assert len(r.trace.partition) == 4
    ancestral = {zt.ancestors(g, c, cut=frozenset({"Z"}) - c) for c in r.trace.partition}
    assert received
    for h in received:
        assert h.node_set != g.node_set
        assert h.node_set in ancestral
    assert check_sound(r.formula, D(g, []), ["X"], ["Y1", "Y2"], ["Z"]) <= TOL


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
            m2 = pair.source.exogenized(zx)
            pair_r = DiscreteModelPair(d0, m2, m2)
            q_r = zt.Query.create(set(x) - set(zx), y, set(zset) - set(x) - set(y))
            err = validate_formula(E.normalize(right.formula), pair_r, q_r)
            assert err <= TOL
    assert hits >= 5  # the sweep genuinely exercised overlapping cases
