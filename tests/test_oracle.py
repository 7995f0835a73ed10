import hashlib
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest

import ztransport as zt
from ztransport import expr as E
from ztransport import oracle
from ztransport.graph import InputError
from ztransport.oracle import (
    DiscreteModelPair,
    DiscreteSCM,
    OracleError,
    Table,
    build_distribution_set,
    enumerate_joint,
    generate_pair,
    ground_truth_effect,
    validate_formula,
)

from helpers import GOLDEN, bow_graph, chain_graph, exogenize, fig2a, fig5a, fig5c, random_diagram, random_graph

D = zt.SelectionDiagram.create


def brute_force_joint(m: DiscreteSCM, do: dict) -> dict:
    """Independent pure-python enumeration over every hidden configuration."""
    g = m.diagram
    order = zt.topological_order(g)
    edge_order = sorted(m.latents, key=lambda e: sorted(g.index[n] for n in e))
    out: dict[tuple, float] = {}
    noise_space = itertools.product(*[range(len(m.noise[v])) for v in g.nodes])
    for noise_vals in noise_space:
        noise_of = dict(zip(g.nodes, noise_vals))
        p_noise = 1.0
        for v in g.nodes:
            p_noise *= float(m.noise[v][noise_of[v]])
        for latent_vals in itertools.product(*[range(len(m.latents[e])) for e in edge_order]):
            u_of = dict(zip(edge_order, latent_vals))
            w = p_noise
            for e in edge_order:
                w *= float(m.latents[e][u_of[e]])
            values: dict[str, int] = {}
            for v in order:
                if v in do:
                    values[v] = do[v]
                    continue
                idx = tuple(values[p] for p in g.sorted(a for a, b in g.directed_edges if b == v))
                idx += tuple(u_of[e] for e in edge_order if v in e)
                idx += (noise_of[v],)
                values[v] = int(m.functions[v][idx])
            key = tuple(values[v] for v in g.nodes if v not in do)
            out[key] = out.get(key, 0.0) + w
    return out


# -- generate_pair --------------------------------------------------------------

def test_generate_pair_no_marks_means_identical_models():
    pair = generate_pair(D(chain_graph(), []), seed=4)
    assert pair.source is pair.target


def test_generate_pair_deterministic():
    d = fig2a()
    p1 = generate_pair(d, seed=9)
    p2 = generate_pair(d, seed=9)
    for v in d.graph.nodes:
        assert np.array_equal(p1.source.functions[v], p2.source.functions[v])
        assert np.array_equal(p1.target.functions[v], p2.target.functions[v])


def test_generate_pair_distinct_and_positive_across_seeds():
    d = fig2a()
    joints = []
    for seed in range(1, 21):
        pair = generate_pair(d, seed)
        j = enumerate_joint(pair.source, {})
        assert j.probs.min() > 0
        assert enumerate_joint(pair.target, {}).probs.min() > 0
        joints.append(j.probs)
    for a, b in itertools.combinations(joints, 2):
        assert not np.allclose(a, b)


def test_generate_pair_discrepancy_confined_to_marks():
    d = fig2a()  # marks Z
    pair = generate_pair(d, seed=2)
    for v in d.graph.nodes:
        if v not in d.s_targets:
            assert np.array_equal(pair.source.functions[v], pair.target.functions[v])
            assert np.array_equal(pair.source.noise[v], pair.target.noise[v])
    assert not np.array_equal(pair.source.functions["Z"], pair.target.functions["Z"])
    for e in pair.source.latents:  # shared hidden causes are domain-invariant
        assert np.array_equal(pair.source.latents[e], pair.target.latents[e])


def test_generate_pair_skips_the_target_of_an_attempt_rejected_on_its_source(monkeypatch):
    # fig5c at seed 3: attempt 0 draws a source with a zero cell, attempt 1 a
    # positive pair; the rejected attempt's target is never contracted
    seen = []

    def counted(m, do_set=None):
        t = enumerate_joint(m, do_set)
        seen.append((m, bool(t.probs.min() > 0)))
        return t

    monkeypatch.setattr(oracle, "enumerate_joint", counted)
    pair = generate_pair(fig5c(), seed=3)
    assert [ok for _, ok in seen] == [False, True, True]
    assert seen[1][0] is pair.source and seen[2][0] is pair.target


# sha256 of the draws (latents, noise and mechanisms of both models, as dtype,
# shape and bytes) and of both joints of 280 pairs: the 8 study diagrams at
# seeds 1-20 and the first 40 diagrams of criterion 4's stream at seeds 1-3.
# Computed while each distribution was one rng.dirichlet call and each
# mechanism one rng.integers call; a faster draw must draw the same models.
PAIRS_SHA256 = "dca9cf49c246afbfafd71f079530f92bec9dd90d7a04170f12c48fc7fed9cdc2"


def test_drawn_models_are_pinned():
    pairs = [generate_pair(make(), seed) for make, _ in GOLDEN.values() for seed in range(1, 21)]
    for i in range(40):
        d = random_diagram(i, master=8101)[0]
        pairs += [generate_pair(d, seed) for seed in range(1, 4)]
    h = hashlib.sha256()
    for pair in pairs:
        g = pair.diagram.graph
        arrays = [pair.source_joint, pair.target_joint]
        for m in (pair.source, pair.target):
            arrays += [m.latents[e] for e in g.bidirected_order]
            arrays += [a for v in g.nodes for a in (m.noise[v], m.functions[v])]
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    assert h.hexdigest() == PAIRS_SHA256


@pytest.mark.parametrize("k", [oracle.LATENT_ARITY, 8, 12, 20, 160])  # 8-160: noise at arity 2, 3, 5, 40
def test_batched_simplex_rows_are_consecutive_dirichlet_draws(k):
    floor = min(oracle.MIN_ATOM, 0.5 / k)
    for seed in range(200):
        m = seed % 7
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        got = oracle._positive_simplex(batched, m, k)
        want = [floor + (1.0 - floor * k) * looped.dirichlet(np.ones(k)) for _ in range(m)]
        assert got.shape == (m, k)
        assert np.array_equal(got, np.reshape(want, (m, k)))
        assert batched.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("arity", [2, 3, 5, 40])
def test_one_integers_call_equals_the_per_node_calls(arity):
    shape_rng = np.random.default_rng(arity)  # mechanism shapes, odd sizes included
    for seed in range(200):
        shapes = [tuple(shape_rng.integers(1, 6, size=shape_rng.integers(0, 4))) + (k,)
                  for k in shape_rng.integers(1, 30, size=shape_rng.integers(1, 8))]
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        flat = batched.integers(0, arity, size=sum(math.prod(s) for s in shapes))
        want = np.concatenate([looped.integers(0, arity, size=s).ravel() for s in shapes])
        assert flat.dtype == want.dtype and np.array_equal(flat, want)
        assert batched.bit_generator.state == looped.bit_generator.state


def test_hidden_tables_positive_and_normalized():
    pair = generate_pair(fig2a(), seed=3)
    for dist in list(pair.source.latents.values()) + list(pair.source.noise.values()):
        assert dist.min() >= 0.049
        assert abs(dist.sum() - 1.0) < 1e-12


def test_distribution_set_entry_budget():
    # each array holds 4^10 cells; the pair budgets every array it holds, its joint included
    g = zt.SemiMarkovianGraph.create([f"V{i}" for i in range(10)])
    pair = generate_pair(D(g, []), seed=1, arity=4)  # holds its joint, the target's too
    ds = build_distribution_set(pair, [f"V{i}" for i in range(8)])  # 256 experiments offered
    do_sets = [frozenset({f"V{i}"}) for i in range(8)] + [frozenset({"V0", "V1"})]
    for do in do_sets[:8]:
        assert ds.joint(E.SOURCE, do).size == 4 ** 10
    assert ds.joint(E.SOURCE, frozenset()) is pair.source_joint is pair.target_joint
    assert ds.joint(E.SOURCE, do_sets[0]) is ds.joint(E.SOURCE, do_sets[0])  # a held one: not counted again
    for _ in range(2):  # a refused read is not counted either
        with pytest.raises(InputError, match="^model pair needs 10485760 cells at once; budget is 10000000$"):
            ds.joint(E.SOURCE, do_sets[8])
    assert len(pair._joints) == 9


def test_generate_pair_cell_budget_checked_from_structure():
    # fig2a at arity 100 would need 10^8 observed cells; nothing is drawn
    d = fig2a()
    for _ in range(2):  # the second call reads the verdict kept with the plan
        with pytest.raises(InputError, match="needs 100000000 cells"):
            generate_pair(d, seed=1, arity=100)
    with pytest.raises(InputError, match="budget"):
        generate_pair(fig2a(), seed=1, arity=100)


def test_the_budget_verdict_is_kept_with_the_plan(monkeypatch):
    walks = []
    peak = oracle._peak_cells
    monkeypatch.setattr(oracle, "_peak_cells", lambda *a: walks.append(a) or peak(*a))
    d = fig5c()
    generate_pair(d, seed=1)
    generate_pair(d, seed=2)  # same diagram and arity: no second walk
    assert len(walks) == 1
    generate_pair(d, seed=1, arity=3)  # another arity is another verdict
    assert len(walks) == 2
    pair = generate_pair(d, seed=1)
    m = exogenize(pair.source, ["X1"])  # the pair's arities and noise lengths: its verdict
    assert len(walks) == 2
    noise, functions = dict(m.noise), dict(m.functions)  # another noise length is another verdict
    noise["X1"], functions["X1"] = np.full(4, 0.25), np.zeros(m.functions["X1"].shape[:-1] + (4,), dtype=int)
    DiscreteSCM(m.diagram, m.arities, m.latents, noise, functions)
    assert len(walks) == 3


def test_target_reuses_source_cpts_outside_the_marks():
    d = fig2a()  # marks Z
    pair = generate_pair(d, seed=2)
    for v in d.graph.nodes:
        shared = pair.target.cpts[v] is pair.source.cpts[v]
        assert shared == (v not in d.s_targets)
    with pytest.raises(TypeError):
        pair.source.cpts["Z"] = None  # read-only after construction


def test_a_model_built_directly_still_checks_the_cell_budget():
    # five independent nodes at arity 100: a joint of 10^10 cells
    g = zt.SemiMarkovianGraph.create([f"V{i}" for i in range(5)])
    noise = {v: np.ones(1) for v in g.nodes}
    functions = {v: np.zeros(1, dtype=int) for v in g.nodes}
    with pytest.raises(InputError, match="budget"):
        DiscreteSCM(g, dict.fromkeys(g.nodes, 100), {}, noise, functions)


def test_a_model_past_einsums_labels_is_refused_before_any_array_is_made():
    # a chain at arity 1 fits the cell budget at any length, but its plan labels each
    # node's axis, and np.einsum takes only the labels below 52
    def chain_model(n):
        g = zt.SemiMarkovianGraph.create([f"V{i}" for i in range(n)], [(f"V{i}", f"V{i + 1}") for i in range(n - 1)])
        functions = {v: np.zeros((1,) * (v != "V0") + (1,), dtype=int) for v in g.nodes}
        return DiscreteSCM(g, dict.fromkeys(g.nodes, 1), {}, {v: np.ones(1) for v in g.nodes}, functions)

    with pytest.raises(InputError, match="^enumeration needs 60 einsum labels; numpy takes 52$"):
        chain_model(60)
    assert len(chain_model(52).plan) == 52  # at 52 labels the model is made


def test_a_models_one_hot_tables_count_against_the_cell_budget(monkeypatch):
    # cpt(Y) builds a one-hot table of 2 x n x 2 cells from a noise of length n;
    # the verdict at n = 25 must not carry n = 30 past the budget
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")])
    monkeypatch.setattr(E, "MAX_TABLE_ENTRIES", 100)

    def model(n):
        noise = {"X": np.full(2, 0.5), "Y": np.full(n, 1 / n)}
        return DiscreteSCM(g, {"X": 2, "Y": 2}, {}, noise, {"X": np.array([0, 1]), "Y": np.zeros((2, n), dtype=int)})

    model(25)  # 100 cells: within the budget
    with pytest.raises(InputError, match="^enumeration needs 120 cells at once; budget is 100$"):
        model(30)


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {"cpts": {"Y": [[0.9, 0.1], [0.9, 0.1]]}}), ((), {"cpts": {"Y": "junk"}}), ((), {"plan": ()}),
     (({"Y": [[0.9, 0.1], [0.9, 0.1]]},), {})],
    ids=["cpts", "junk-cpts", "plan", "positional-cpts"],
)
def test_a_model_takes_no_cpts_or_plan(args, kwargs):
    # both are derived from the five inputs, so a model is the one they describe
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")])
    noise = {"X": np.array([0.5, 0.5]), "Y": np.array([0.5, 0.5])}
    functions = {"X": np.array([0, 1]), "Y": np.array([[0, 0], [1, 1]])}  # Y copies X
    with pytest.raises(TypeError):
        DiscreteSCM(g, {"X": 2, "Y": 2}, {}, noise, functions, *args, **kwargs)
    m = DiscreteSCM(g, {"X": 2, "Y": 2}, {}, noise, functions)
    assert np.array_equal(enumerate_joint(m).probs, [[0.5, 0], [0, 0.5]])


def bow_model(y_table):
    """A model on X -> Y, X <-> Y: X reads (latent, noise), Y reads (X, latent, noise)."""
    g = bow_graph()
    latents = {e: np.full(4, 0.25) for e in g.bidirected_edges}
    noise = {v: np.array([0.5, 0.5]) for v in g.nodes}
    functions = {"X": np.zeros((4, 2), dtype=int), "Y": y_table}
    return DiscreteSCM(g, {"X": 2, "Y": 2}, latents, noise, functions)


@pytest.mark.parametrize(
    "y_table, message",
    [
        (np.full((2, 4, 2), 5), "value outside 0..1"),
        (np.full((2, 4, 2), -1), "value outside 0..1"),  # numpy would index from the end
        (np.zeros((2, 2), dtype=int), r"shape \(2, 2\), not \(2, 4, 2\)"),
        (np.zeros((2, 4, 2, 1), dtype=int), "shape"),
        (np.zeros((2, 4, 2)), "integer array"),
        (np.zeros((2, 4, 2), dtype=bool), "integer array"),
        ([[[0, 0]] * 4] * 2, "integer array"),
    ],
    ids=["too-large", "negative", "too-few-axes", "too-many-axes", "float", "bool", "list"],
)
def test_a_malformed_mechanism_table_is_an_input_error(y_table, message):
    with pytest.raises(InputError, match=message):
        bow_model(y_table)


@pytest.mark.parametrize("node, arity", [("Y", 2.5), ("Y", "2"), ("Y", True), ("Y", 0), ("X", 2.0)],
                         ids=["fraction", "string", "bool", "zero", "float-parent"])
def test_an_arity_that_is_not_a_count_is_an_input_error(node, arity):
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")])
    arities = {"X": 2, "Y": 2, node: arity}
    noise = {"X": np.array([0.5, 0.5]), "Y": np.array([0.5, 0.5])}
    functions = {"X": np.array([0, 1]), "Y": np.array([[0, 1], [0, 1]])}
    with pytest.raises(InputError, match=f"^arity of {node} must be an integer of at least 1, not {arity!r}$"):
        DiscreteSCM(g, arities, {}, noise, functions)


def test_a_model_missing_an_input_is_an_input_error():
    g = chain_graph()
    noise = {v: np.array([0.5, 0.5]) for v in ("Z", "X")}  # none for Y
    functions = {"Z": np.zeros(2, dtype=int), "X": np.zeros((2, 2), dtype=int), "Y": np.zeros((2, 2), dtype=int)}
    with pytest.raises(InputError, match="no arity, latent or noise for Y"):
        DiscreteSCM(g, dict.fromkeys(g.nodes, 2), {}, noise, functions)
    noise["Y"] = noise["X"]
    del functions["Y"]
    with pytest.raises(InputError, match="mechanism of Y must be an integer array"):
        DiscreteSCM(g, dict.fromkeys(g.nodes, 2), {}, noise, functions)


NO_DISTRIBUTION = "must be a 1-D array of finite, nonnegative numbers summing to 1, not "


@pytest.mark.parametrize(
    "y_noise, shown",
    [
        ([0.7, 0.7], r"\[0.7 0.7\]"),  # used to fail in the enumeration, blaming it
        ([-0.5, 1.5], r"\[-0.5  1.5\]"),  # used to give a joint with negative cells
    ],
    ids=["sum", "negative"],
)
def test_a_noise_vector_that_is_no_distribution_is_an_input_error(y_noise, shown):
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")])
    noise = {"X": np.array([0.5, 0.5]), "Y": np.array(y_noise)}
    functions = {"X": np.array([0, 1]), "Y": np.array([[0, 1], [0, 1]])}  # Y copies its noise
    with pytest.raises(InputError, match=f"^noise of Y {NO_DISTRIBUTION}{shown}$"):
        DiscreteSCM(g, {"X": 2, "Y": 2}, {}, noise, functions)


@pytest.mark.parametrize(
    "vectors, named",
    [
        ({"Y": [np.nan, 1.0]}, "noise of Y"),
        ({"Y": [np.inf, 1.0]}, "noise of Y"),
        ({"Y": [[0.5], [0.5]]}, "noise of Y"),  # two axes, the first of the length Y's mechanism reads
        ({"Y": ["a", "b"]}, "noise of Y"),
        ({"X <-> Y": [0.5, 0.5, 0.5, -0.5]}, "latent of X <-> Y"),
        ({"X <-> Y": np.full(4, 0.25 + 1e-9)}, "latent of X <-> Y"),
    ],
    ids=["nan", "inf", "two-axes", "strings", "latent-negative", "latent-sum"],
)
def test_a_latent_or_noise_vector_that_is_no_distribution_is_an_input_error(vectors, named):
    g = bow_graph()
    (edge,) = g.bidirected_edges
    latents = {edge: np.asarray(vectors.get("X <-> Y", np.full(4, 0.25)))}
    noise = {v: np.asarray(vectors.get(v, [0.5, 0.5])) for v in g.nodes}
    functions = {"X": np.zeros((4, 2), dtype=int), "Y": np.zeros((2, 4, 2), dtype=int)}
    with pytest.raises(InputError, match=f"^{named} {NO_DISTRIBUTION}"):
        DiscreteSCM(g, {"X": 2, "Y": 2}, latents, noise, functions)
    # within the tolerance is a distribution
    noise["Y"] = np.array([0.5, 0.5 + 1e-12])
    DiscreteSCM(g, {"X": 2, "Y": 2}, {edge: np.full(4, 0.25)}, noise, functions)


def test_a_nan_total_fails_the_sum_to_one_check():
    # a model built unchecked, as generate_pair builds its draws, takes a NaN
    # in its noise to the contraction, whose totals are then all NaN
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")])
    noise = {"X": np.array([0.5, 0.5]), "Y": np.array([0.5, 0.5])}
    functions = {"X": np.array([0, 1]), "Y": np.array([[0, 1], [0, 1]])}
    checked = DiscreteSCM(g, {"X": 2, "Y": 2}, {}, noise, functions)
    assert enumerate_joint(checked).probs.sum() == pytest.approx(1.0)
    noise["X"] = np.array([np.nan, 0.5])
    m = DiscreteSCM(g, {"X": 2, "Y": 2}, {}, noise, functions, _drawn=(checked.plan, {}))
    with pytest.raises(OracleError, match="enumerated tables sum to nan..nan, not 1"):
        enumerate_joint(m)


def test_a_well_formed_model_built_directly_enumerates():
    y = np.zeros((2, 4, 2), dtype=np.int8)
    y[1] = 1  # Y copies X
    t = enumerate_joint(bow_model(y))
    assert t.prob({"X": 0, "Y": 0}) == pytest.approx(1.0)


def test_generate_pair_checks_the_budget_once_however_many_attempts(monkeypatch):
    plans, draws = [], []
    plan, draw = oracle._plan, oracle._draw_scm
    monkeypatch.setattr(oracle, "_plan", lambda *a, **k: plans.append(a) or plan(*a, **k))
    monkeypatch.setattr(oracle, "_draw_scm", lambda *a: draws.append(a) or draw(*a))
    pair = generate_pair(fig5c(), seed=3)  # attempt 0 is rejected on its source
    assert (len(plans), len(draws)) == (1, 2)
    assert pair.source.plan is pair.target.plan
    exogenize(pair.source, ["X1"])  # a model built any other way checks its own
    assert len(plans) == 2


def test_generate_pair_node_budget():
    big = zt.SemiMarkovianGraph.create([f"V{i}" for i in range(13)])
    with pytest.raises(InputError):
        generate_pair(D(big, []), seed=1)


def test_generate_pair_rejects_arity_one():
    with pytest.raises(InputError):
        generate_pair(D(chain_graph(), []), seed=1, arity=1)


@pytest.mark.parametrize("seed, arity", [(1, 2.5), (1, True), (1.5, 2), (True, 2), (np.int64(-1), 2)])
def test_generate_pair_rejects_a_seed_or_arity_that_is_not_a_count(seed, arity):
    with pytest.raises(InputError, match="must be an integer"):
        generate_pair(D(chain_graph(), []), seed=seed, arity=arity)


def test_generate_pair_supports_wider_arities():
    for arity in (3, 4):
        pair = generate_pair(fig2a(), seed=1, arity=arity)
        j = enumerate_joint(pair.source, {})
        assert j.probs.shape == (arity,) * 4
        assert j.probs.min() > 0


# -- enumerate_joint -------------------------------------------------------------

def test_enumerate_single_node_pushforward():
    g = zt.SemiMarkovianGraph.create(["Y"])
    noise = {"Y": np.array([0.1, 0.2, 0.3, 0.4])}
    fn = {"Y": np.array([0, 1, 1, 0])}
    m = DiscreteSCM(g, {"Y": 2}, {}, noise, fn)
    t = enumerate_joint(m, {})
    assert t.prob({"Y": 0}) == pytest.approx(0.5)
    assert t.prob({"Y": 1}) == pytest.approx(0.5)


def test_enumerate_do_everything_is_scalar_one():
    pair = generate_pair(D(chain_graph(), []), seed=1)
    t = enumerate_joint(pair.source, {"Z": 1, "X": 0, "Y": 1})
    assert t.vars == ()
    assert t.total() == pytest.approx(1.0)


def test_enumerate_matches_brute_force():
    for seed in (1, 2):
        for do in ({}, {"X": 1}):
            pair = generate_pair(D(chain_graph(), []), seed)
            got = enumerate_joint(pair.source, do)
            want = brute_force_joint(pair.source, do)
            for key, p in want.items():
                assert got.probs[key] == pytest.approx(p, abs=1e-12)


def test_enumerate_matches_brute_force_with_confounding():
    d = D(bow_graph(), [])
    pair = generate_pair(d, seed=3)
    for do in ({}, {"X": 0}):
        got = enumerate_joint(pair.source, do)
        want = brute_force_joint(pair.source, do)
        for key, p in want.items():
            assert got.probs[key] == pytest.approx(p, abs=1e-12)


def test_enumerate_tables_sum_to_one():
    for seed in range(6):
        g, _ = random_graph(seed, master=23, max_nodes=6)
        pair = generate_pair(D(g, []), seed)
        assert enumerate_joint(pair.source, {}).total() == pytest.approx(1.0, abs=1e-9)


def test_truncated_factorization_on_markovian_graphs():
    # without hidden variables, an intervention truncates the factorization
    for seed in range(4):
        g, rng = random_graph(seed, master=29, max_nodes=5, max_bi=0)
        pair = generate_pair(D(g, []), seed)
        obs = enumerate_joint(pair.source, {})
        do_vars = [v for v in g.nodes if rng.random() < 0.4][:2]
        do = {v: 1 for v in do_vars}
        got = enumerate_joint(pair.source, do)
        keep = [v for v in g.nodes if v not in do]
        for values in itertools.product(range(2), repeat=len(keep)):
            assign = dict(zip(keep, values))
            full = {**assign, **do}
            want = 1.0
            for v in keep:
                pa = {a: full[a] for a, b in g.directed_edges if b == v}
                want *= obs.conditional({v: full[v]}, pa)
            assert got.prob(assign) == pytest.approx(want, abs=1e-10)


def _assert_matches_brute_force(m, do):
    got = enumerate_joint(m, do)
    want = brute_force_joint(m, do)
    assert got.probs.size == len(want)
    for key, p in want.items():
        assert got.probs[key] == pytest.approx(p, abs=1e-12)


def test_contraction_matches_brute_force_with_random_do_sets():
    checked = 0
    for seed in range(16):
        g, rng = random_graph(seed, master=31, max_nodes=4, max_bi=2)
        if not g.bidirected_edges:
            continue
        pair = generate_pair(D(g, []), seed)
        for _ in range(2):
            do = {v: int(rng.integers(0, 2)) for v in g.nodes if rng.random() < 0.4}
            _assert_matches_brute_force(pair.source, do)
        checked += 1
    assert checked >= 8


def test_contraction_do_variable_without_children():
    # Y is a sink: intervening on it leaves a ones-axis that no mechanism reads
    g = zt.SemiMarkovianGraph.create(["X", "Y", "W"], [("X", "Y")], [("Y", "W"), ("X", "W")])
    pair = generate_pair(D(g, []), seed=4)
    for do in ({"Y": 1}, {"Y": 0, "X": 1}):
        _assert_matches_brute_force(pair.source, do)


def test_contraction_bidirected_edge_with_both_endpoints_intervened():
    # the hidden variable of X <-> Z has no reader left and sums out to 1
    g = zt.SemiMarkovianGraph.create(
        ["X", "Z", "Y"], [("X", "Y"), ("Z", "Y")], [("X", "Z"), ("Z", "Y")]
    )
    pair = generate_pair(D(g, []), seed=5)
    for do in ({"X": 0, "Z": 1}, {"X": 1, "Z": 0}):
        _assert_matches_brute_force(pair.source, do)


def test_enumerate_rejects_out_of_range():
    pair = generate_pair(D(chain_graph(), []), seed=1)
    ds = build_distribution_set(pair, ["X"])
    term = E.term(E.SOURCE, ["Y"], do=["X"])
    for bad in (5, -1, True, 1.0):  # numpy would refuse, wrap, mask or refuse each
        with pytest.raises(InputError, match="out of range"):
            enumerate_joint(pair.source, {"X": bad})
        with pytest.raises(InputError, match="out of range"):
            ground_truth_effect(pair.source, {"X": bad}, ["Y"])
        with pytest.raises(E.EvalError, match="out of range"):
            E.evaluate(term, ds, {"X": bad, "Y": 0})
    assert list(pair._joints) == [(True, frozenset())]  # a bad value is refused before any table is read
    one = enumerate_joint(pair.source, {"X": np.int64(1)})
    assert one.vars == ("Z", "Y")
    assert np.array_equal(one.probs, ds.joint(E.SOURCE, frozenset({"X"}))[:, 1])  # nodes Z, X, Y


# -- build_distribution_set ------------------------------------------------------

def source_tables(ds) -> dict:
    """Every source table the set serves, keyed by its do() assignment: each
    ``ds.joint(SOURCE, do)`` sliced at every assignment of its do() axes."""
    out = {}
    for r in range(len(ds.nodes) + 1):
        for combo in itertools.combinations(ds.nodes, r):
            try:
                joint = ds.joint(E.SOURCE, frozenset(combo))
            except E.EvalError:
                continue
            keep = tuple(v for v in ds.nodes if v not in combo)
            for values in itertools.product(*[range(ds.arity(v)) for v in combo]):
                assignment = dict(zip(combo, values))
                index = tuple(assignment.get(v, slice(None)) for v in ds.nodes)
                out[frozenset(assignment.items())] = Table(keep, joint[index])
    return out


def test_distribution_set_empty_z():
    pair = generate_pair(D(chain_graph(), []), seed=1)
    ds = build_distribution_set(pair, [])
    assert set(source_tables(ds)) == {frozenset()}


def test_distribution_set_single_z():
    pair = generate_pair(D(chain_graph(), []), seed=1)
    ds = build_distribution_set(pair, ["Z"])
    keys = set(source_tables(ds))
    assert keys == {frozenset(), frozenset({("Z", 0)}), frozenset({("Z", 1)})}


def test_distribution_set_table_count_two_z():
    pair = generate_pair(fig5a(), seed=1)
    ds = build_distribution_set(pair, ["Z1", "Z2"])
    # one observational + 2 per singleton + 4 for the pair
    assert len(source_tables(ds)) == 1 + 2 + 2 + 4


def test_distribution_set_never_includes_experiments_on_everything():
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")])
    pair = generate_pair(D(g, []), seed=1)
    ds = build_distribution_set(pair, ["X", "Y"])
    for key in source_tables(ds):
        assert len(key) < 2  # do() on all of V is not part of the index set


def test_distribution_set_tables_equal_per_assignment_enumeration():
    for seed in range(8):
        g, rng = random_graph(seed, master=37, max_nodes=5, max_bi=3)
        d = D(g, [v for v in g.nodes if rng.random() < 0.3])
        pair = generate_pair(d, seed)
        z = [v for v in g.nodes if rng.random() < 0.5]
        ds = build_distribution_set(pair, z)
        assert np.array_equal(ds.joint(E.TARGET, frozenset()), enumerate_joint(pair.target, {}).probs)
        for key, table in source_tables(ds).items():
            want = enumerate_joint(pair.source, dict(key))
            assert table.vars == want.vars
            assert np.array_equal(table.probs, want.probs)


def test_a_source_experiment_is_contracted_when_first_read(monkeypatch):
    contractions = []
    contract = oracle._contract
    monkeypatch.setattr(oracle, "_contract", lambda m, do=(): contractions.append((m, frozenset(do))) or contract(m, do))
    d = fig5a()  # marks W
    q = zt.Query.create(["X"], ["Y"], ["Z1", "Z2"])
    formula = E.term(E.SOURCE, ["Y"], given=["X"], do=["Z1"])  # reads do(Z1) alone
    pair = generate_pair(d, seed=1)
    tables = build_distribution_set(pair, q.z)
    with pytest.raises(E.EvalError, match="no source table"):
        tables.joint(E.SOURCE, frozenset({"W"}))  # an experiment not offered contracts nothing
    assert [do for m, do in contractions if m is pair.source and do] == []
    for _ in range(2):
        assert validate_formula(formula, pair, q, tables=tables) <= 1e-9
    assert [do for m, do in contractions if m is pair.source and do] == [frozenset({"Z1"})]
    z1 = tables.joint(E.SOURCE, frozenset({"Z1"}))
    assert z1 is pair.joint(E.SOURCE, frozenset({"Z1"})) and not z1.flags.writeable  # kept, read-only
    assert tables.joint(E.SOURCE, frozenset()) is pair.source_joint
    assert [do for m, do in contractions if m is pair.source and do] == [frozenset({"Z1"})]
    tables.joint(E.SOURCE, frozenset({"Z1", "Z2"}))  # offered: made when read
    assert [do for m, do in contractions if m is pair.source and do] == [frozenset({"Z1"}), frozenset({"Z1", "Z2"})]


def test_threads_sharing_a_pair_make_each_array_once(monkeypatch):
    contractions = []
    contract = oracle._contract
    monkeypatch.setattr(oracle, "_contract", lambda m, do=(): contractions.append((m, frozenset(do))) or contract(m, do))
    reads = [(E.SOURCE, frozenset(c)) for r in range(4) for c in itertools.combinations(["Z1", "Z2", "W"], r)]
    reads.append((E.TARGET, frozenset()))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(1, 9):
            pair = generate_pair(fig5a(), seed)  # marks W: two models
            ds, got, start = build_distribution_set(pair, ["Z1", "Z2", "W"]), [], threading.Barrier(6)

            def read(k):
                order = np.random.default_rng(k).permutation(len(reads))
                start.wait(timeout=60)
                got.append({reads[i]: ds.joint(*reads[i]) for i in order})

            threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and len(got) == 6
            assert all(all(a[k] is got[0][k] for k in reads) for a in got)  # one array per read, shared
            assert len(pair._joints) == len(reads)  # counted once each
            made = [do for m, do in contractions if m is pair.source and do]
            assert sorted(made, key=sorted) == sorted((do for _, do in reads if do), key=sorted)  # made once each
    finally:
        sys.setswitchinterval(switch)


def test_distribution_set_no_marks_target_equals_source():
    pair = generate_pair(D(chain_graph(), []), seed=5)
    ds = build_distribution_set(pair, [])
    assert ds.joint(E.TARGET, frozenset()) is ds.joint(E.SOURCE, frozenset())  # one array


# -- ground_truth_effect ---------------------------------------------------------

def test_ground_truth_observational_marginal():
    pair = generate_pair(D(chain_graph(), []), seed=1)
    t = ground_truth_effect(pair.source, {}, ["Y"])
    obs = enumerate_joint(pair.source, {})
    assert t.prob({"Y": 1}) == pytest.approx(obs.prob({"Y": 1}))


def test_ground_truth_full_outcome_is_joint():
    pair = generate_pair(D(chain_graph(), []), seed=1)
    t = ground_truth_effect(pair.source, {"X": 1}, ["Z", "Y"])
    j = enumerate_joint(pair.source, {"X": 1})
    assert np.allclose(t.marginal(("Z", "Y")), j.marginal(("Z", "Y")))
    # an outcome the intervention fixes is no outcome
    with pytest.raises(InputError, match="^outcome overlaps the intervention assignment$"):
        ground_truth_effect(pair.source, {"X": 1}, ["X", "Y"])
    # "ZY" would be read as the names Z and Y
    with pytest.raises(InputError, match="^y must be a collection of node names, not the string 'ZY'$"):
        ground_truth_effect(pair.source, {"X": 1}, "ZY")
    with pytest.raises(InputError, match="^z must be a collection of node names, not the string 'X'$"):
        build_distribution_set(pair, "X")


def test_ground_truth_bow_differs_from_conditional():
    # with a hidden common cause, do(x) is not observation of x
    pair = generate_pair(D(bow_graph(), []), seed=6)
    truth = ground_truth_effect(pair.source, {"X": 1}, ["Y"]).prob({"Y": 1})
    obs = enumerate_joint(pair.source, {})
    naive = obs.conditional({"Y": 1}, {"X": 1})
    assert abs(truth - naive) > 1e-3


# -- validate_formula ------------------------------------------------------------

def test_validate_formula_marginal_query():
    d = fig2a()
    pair = generate_pair(d, seed=1)
    q = zt.Query.create([], ["Y"], [])
    err = validate_formula(E.term(E.TARGET, ["Y"]), pair, q)
    assert err <= 1e-12


def test_validate_formula_flags_corruption():
    d = fig2a()
    q = zt.Query.create(["X"], ["Y"], ["Z"])
    good = E.term(E.SOURCE, ["Y"], given=["X"], do=["Z"])
    bad = E.term(E.SOURCE, ["Y"], do=["Z"])  # conditioner dropped
    worst_good = worst_bad = 0.0
    for seed in range(1, 6):
        pair = generate_pair(d, seed)
        worst_good = max(worst_good, validate_formula(good, pair, q))
        worst_bad = max(worst_bad, validate_formula(bad, pair, q))
    assert worst_good <= 1e-9
    assert worst_bad > 1e-3


def x_to_y_pair():
    """A seeded pair on X -> Y and the query of X's effect on Y."""
    d = D(zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")]), [])
    return generate_pair(d, seed=1), zt.Query.create(["X"], ["Y"])


def test_validate_formula_checks_the_cell_budget(monkeypatch):
    pair, q = x_to_y_pair()
    tables = build_distribution_set(pair, q.z)
    assert validate_formula(E.term(E.TARGET, ["Y"], given=["X"]), pair, q, tables) <= 1e-12  # the pair holds the truth
    monkeypatch.setattr(E, "MAX_TABLE_ENTRIES", 3)  # the comparison spans the 2 x 2 cells of (x, y)
    with pytest.raises(InputError, match="^validation needs 4 cells at once; budget is 3$"):
        validate_formula(E.term(E.TARGET, ["Y"], given=["X"]), pair, q, tables)
    # the product P*(x) P*(y|x) is 4 cells before any comparison, under the same budget
    product = E.product([E.term(E.TARGET, ["X"]), E.term(E.TARGET, ["Y"], given=["X"])])
    with pytest.raises(InputError, match="^evaluation needs 4 cells at once; budget is 3$"):
        validate_formula(product, pair, q, tables)


def test_a_pair_counts_every_array_it_holds(monkeypatch):
    # the pair holds its 4-cell joint; the truth P*_x(y) is a second array of 4 cells
    pair, q = x_to_y_pair()
    monkeypatch.setattr(E, "MAX_TABLE_ENTRIES", 7)
    for _ in range(2):  # a refused array is not counted
        with pytest.raises(InputError, match="^model pair needs 8 cells at once; budget is 7$"):
            validate_formula(E.term(E.TARGET, ["Y"], given=["X"]), pair, q)
    assert len(pair._joints) == 1


def test_validate_formula_refuses_a_formula_undefined_at_some_assignment():
    # X's mechanism is constant 1, so P*(X = 0) is 0 and P*(y | X = 0) is undefined
    g = zt.SemiMarkovianGraph.create(["X", "Y"], [("X", "Y")])
    noise = {v: np.full(4, 0.25) for v in g.nodes}
    m = DiscreteSCM(g, {"X": 2, "Y": 2}, {}, noise, {"X": np.ones(4, dtype=int), "Y": np.array([[0, 1, 0, 1]] * 2)})
    pair, q = DiscreteModelPair(D(g, []), m, m), zt.Query.create(["X"], ["Y"])
    with pytest.raises(E.EvalError, match="^zero-probability conditioning event or denominator in the formula$"):
        validate_formula(E.term(E.TARGET, ["Y"], given=["X"]), pair, q)
    # another pair's tables are refused, not read
    with pytest.raises(InputError, match="^the distribution set is another pair's$"):
        validate_formula(E.term(E.TARGET, ["Y"], given=["X"]), pair, q, build_distribution_set(x_to_y_pair()[0], []))


def test_a_distribution_set_refuses_unknown_variables_and_tables():
    pair, _ = x_to_y_pair()
    tables = build_distribution_set(pair, ["X"])
    assert tables.arity("X'") == 2  # a dummy reads its variable's arity
    with pytest.raises(E.EvalError, match="^unknown variable: Q$"):
        tables.arity("Q")
    with pytest.raises(E.EvalError, match="^target terms carry no interventions$"):
        tables.joint(E.TARGET, frozenset(["X"]))
    with pytest.raises(E.EvalError, match="^bad domain: 'moon'$"):
        tables.joint("moon", frozenset())
    with pytest.raises(E.EvalError, match=r"^variables not in table: \['Q'\]$"):
        Table(tables.nodes, tables.joint(E.TARGET, frozenset())).marginal(["Y", "Q"])


def test_table_zero_conditioning_event_raises():
    t = Table(("X", "Y"), np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(E.EvalError):
        t.conditional({"Y": 1}, {"X": 1})


def test_table_rejects_values_out_of_range():
    t = Table(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert t.prob({"A": np.int64(1)}) == pytest.approx(0.7)
    for bad in (-1, 2, True, 0.0, None):  # numpy would wrap, refuse or mask each
        with pytest.raises(E.EvalError, match="out of range"):
            t.prob({"A": bad})
        with pytest.raises(E.EvalError, match="out of range"):
            t.conditional({"B": bad}, {"A": 0})


def test_validate_formula_checks_every_auxiliary_value():
    # Z -> X -> Y plus Z -> Y: P*(y|x,z) is not P_x(y), by an amount that depends on z
    g = zt.SemiMarkovianGraph.create(["Z", "X", "Y"], [("Z", "X"), ("X", "Y"), ("Z", "Y")])
    q = zt.Query.create(["X"], ["Y"], [])
    formula = E.term(E.TARGET, ["Y"], given=["X", "Z"])
    worst_past_zero = 0
    for seed in range(1, 9):
        pair = generate_pair(D(g, []), seed)
        obs = enumerate_joint(pair.target, {})
        worst = [0.0, 0.0]  # per value of z
        for z, x, y in itertools.product(range(2), repeat=3):
            truth = ground_truth_effect(pair.target, {"X": x}, ["Y"]).prob({"Y": y})
            got = obs.conditional({"Y": y}, {"X": x, "Z": z})
            worst[z] = max(worst[z], abs(got - truth))
        assert validate_formula(formula, pair, q) == pytest.approx(max(worst), abs=1e-12)
        worst_past_zero += worst[1] > worst[0]
    assert worst_past_zero > 0  # binding z to 0 alone would understate these


# -- compiled evaluation ---------------------------------------------------------

def _random_term(rng, nodes, z):
    domain = E.SOURCE if rng.random() < 0.6 else E.TARGET
    do = [v for v in z if rng.random() < 0.5] if domain == E.SOURCE else []
    rest = [v for v in nodes if v not in do]
    outcome = [v for v in rest if rng.random() < 0.3] or [rest[rng.integers(0, len(rest))]]
    given = [v for v in rest if v not in outcome and rng.random() < 0.35]
    return E.term(domain, outcome, given, do)


def _random_formula(rng, nodes, z, depth=3):
    r = rng.random()
    if depth == 0 or r < 0.25:
        return _random_term(rng, nodes, z)
    if r < 0.35:
        return E.Product((_random_formula(rng, nodes, z, depth - 1),))
    if r < 0.55:
        return E.Product(tuple(_random_formula(rng, nodes, z, depth - 1) for _ in range(2)))
    if r < 0.7:
        return E.Quotient(_random_formula(rng, nodes, z, depth - 1), _random_formula(rng, nodes, z, depth - 1))
    body = _random_formula(rng, nodes, z, depth - 1)
    free = sorted(E.free_variables(body))
    unread = [v for v in nodes if v not in free]
    if unread and rng.random() < 0.1:  # a bound slot the body never reads
        return E.Sum(frozenset([unread[rng.integers(0, len(unread))]]), body)
    if not free:
        return body
    v = free[rng.integers(0, len(free))]
    if rng.random() < 0.5:
        return E.marginal_sum([v], body)  # binds a primed dummy
    return E.Sum(frozenset([v]), body)


def _kinds(e) -> set:
    """Node kinds in e, plus "Primed" and "NestedSum" where a sum binds a
    primed dummy or holds another sum."""
    out = {type(e).__name__}
    if isinstance(e, E.Sum):
        inner = _kinds(e.body)
        out |= inner | ({"NestedSum"} if "Sum" in inner else set())
        if any(v.endswith("'") for v in e.over):
            out.add("Primed")
    elif isinstance(e, E.Product):
        out = out.union(*map(_kinds, e.factors))
    elif isinstance(e, E.Quotient):
        out |= _kinds(e.num) | _kinds(e.den)
    return out


def reference_value(e, pair, binding, tables) -> float:
    """Scalar recursion over one binding, on per-assignment enumerations;
    raises ZeroDivisionError on a zero conditioning event or denominator."""
    if isinstance(e, E.Term):
        do = {E.base_var(v): binding[v] for v in e.do}
        key = (e.domain, frozenset(do.items()))
        if key not in tables:
            tables[key] = enumerate_joint(pair.source if e.domain == E.SOURCE else pair.target, do)
        outcome = {E.base_var(v): binding[v] for v in e.outcome}
        given = {E.base_var(v): binding[v] for v in e.given}
        den = tables[key].prob(given) if given else 1.0
        if den <= 0.0:
            raise ZeroDivisionError
        return tables[key].prob({**outcome, **given}) / den
    if isinstance(e, E.Product):
        return math.prod(reference_value(f, pair, binding, tables) for f in e.factors)
    if isinstance(e, E.Sum):
        over = sorted(e.over)
        ranges = [range(pair.source.arities[E.base_var(v)]) for v in over]
        return sum(
            reference_value(e.body, pair, {**binding, **dict(zip(over, vals))}, tables)
            for vals in itertools.product(*ranges)
        )
    den = reference_value(e.den, pair, binding, tables)
    if den <= 0.0:
        raise ZeroDivisionError
    return reference_value(e.num, pair, binding, tables) / den


def test_compiled_evaluation_matches_scalar_reference():
    rng = np.random.default_rng(2027)
    kinds, checked = set(), 0
    for seed in range(12):
        g, _ = random_graph(seed, master=43, max_nodes=5, max_bi=3)
        marks = [v for v in g.nodes if rng.random() < 0.3]
        z = [v for v in g.nodes if rng.random() < 0.4][: len(g.nodes) - 1]
        pair = generate_pair(D(g, marks), seed)
        ds = build_distribution_set(pair, z)
        tables: dict = {}
        for _ in range(6):
            e = _random_formula(rng, list(g.nodes), z)
            if len(E.free_variables(e)) > 6:
                continue
            slots, values = E.compile_expr(e, ds)
            assert set(slots) == E.free_variables(e)
            for vals in itertools.product(*[range(2)] * len(slots)):
                binding = dict(zip(slots, vals))
                want = reference_value(e, pair, binding, tables)
                assert values[vals] == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert E.evaluate(e, ds, binding) == values[vals]
            kinds |= _kinds(e)
            checked += 1
    assert checked >= 40
    assert {"Quotient", "NestedSum", "Primed", "Sum", "Product"} <= kinds


def test_one_plan_and_no_repeat_contraction_per_row(monkeypatch):
    plans, contractions = [], []
    topological_order, contract = oracle.topological_order, oracle._contract

    def counted_order(g):
        plans.append(g)
        return topological_order(g)

    def counted_contract(m, do=()):
        contractions.append((m, frozenset(do)))  # holds m, so ids stay distinct
        return contract(m, do)

    monkeypatch.setattr(oracle, "topological_order", counted_order)
    monkeypatch.setattr(oracle, "_contract", counted_contract)
    monkeypatch.setattr(oracle, "_PLANS", weakref.WeakKeyDictionary())  # no plan made by other tests
    d = fig2a()  # marks Z; formula P_{z}(y|x), with z an auxiliary slot
    q = zt.Query.create(["X"], ["Y"], ["Z"])
    formula = E.term(E.SOURCE, ["Y"], given=["X"], do=["Z"])
    for seed in range(1, 11):
        contractions.clear()
        pair = generate_pair(d, seed)
        tables = build_distribution_set(pair, q.z)
        assert validate_formula(formula, pair, q, tables=tables) <= 1e-9
        assert len(plans) == 1  # one plan for the diagram, made at the first seed
        keys = [(id(m), do) for m, do in contractions]
        assert len(keys) == len(set(keys))
        ours = {(m is pair.source, m is pair.target, do) for m, do in contractions
                if m is pair.source or m is pair.target}
        assert ours == {
            (True, False, frozenset()),  # positivity check, reused as the Z' = {} table
            (False, True, frozenset()),  # positivity check, reused as the target joint
            (True, False, frozenset({"Z"})),
            (False, True, frozenset({"X"})),  # the truth P*_x(y)
        }
