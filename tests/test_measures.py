"""Belief-space measures: occupation, images, transport, disintegration."""
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import linprog

import pomdp_evals as pe
from pomdp_evals.errors import InvalidInputError
from pomdp_evals.measures import (_FLOW_SCALE, MASS_FLOOR, DisintegrationTable, _edge_costs,
                                  _greedy_start, _transport)
from pomdp_evals.model import SIGNAL_PROB_FLOOR

from conftest import belief_sequence, random_belief, random_pomdp, sparse_instances


SM = pe.SupportedMeasure


def lp_transport(mu, nu):
    """Independent transport oracle: solve the coupling LP directly."""
    A = [a for a, _ in mu.atoms]
    B = [b for b, _ in nu.atoms]
    na, nb = len(A), len(B)
    cost = np.array([[np.abs(a - b).sum() for b in B] for a in A]).ravel()
    eq = []
    for i in range(na):
        row = np.zeros(na * nb)
        row[i * nb:(i + 1) * nb] = 1
        eq.append(row)
    for j in range(nb):
        row = np.zeros(na * nb)
        row[j::nb] = 1
        eq.append(row)
    rhs = [m for _, m in mu.atoms] + [m for _, m in nu.atoms]
    res = linprog(cost, A_eq=np.array(eq), b_eq=np.array(rhs), method="highs")
    assert res.status == 0
    return float(res.fun)


def lp_dual_transport(mu, nu):
    """Independent dual oracle: max sum_i a_i f_i - sum_j b_j g_j subject to
    f_i - g_j <= c_ij.  Shifting f and g together changes neither the
    constraints nor (as the masses balance) the objective, so g_1 is pinned
    to 0 to keep the LP bounded."""
    a = np.array([m for _, m in mu.atoms])
    b = np.array([m for _, m in nu.atoms])
    na, nb = len(a), len(b)
    cost = np.array([[np.abs(x - y).sum() for y, _ in nu.atoms] for x, _ in mu.atoms])
    ub = np.zeros((na * nb, na + nb))
    ub[np.arange(na * nb), np.repeat(np.arange(na), nb)] = 1.0
    ub[np.arange(na * nb), na + np.tile(np.arange(nb), na)] = -1.0
    bounds = [(None, None)] * (na + nb)
    bounds[na] = (0.0, 0.0)
    res = linprog(np.concatenate([-a, b]), A_ub=ub, b_ub=cost.ravel(), bounds=bounds,
                  method="highs")
    assert res.status == 0
    return float(-res.fun)


def random_measure(rng, k, max_atoms=5):
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.dirichlet(np.ones(k), size=n)
    w = rng.dirichlet(np.ones(n))
    return SM.from_pairs(list(zip(pts, w)))


@hst.composite
def measure_lists(draw, count):
    """`count` random measures on one belief simplex of dimension K in 2..4,
    with 1-6 atoms each; about a third of the atoms sit on a vertex or on a
    point shared by the measures."""
    k = draw(hst.integers(2, 4))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    shared = np.concatenate([np.eye(k), rng.dirichlet(np.ones(k), size=3)])
    out = []
    for _ in range(count):
        n = draw(hst.integers(1, 6))
        pts = np.where(rng.random((n, 1)) < 0.3, shared[rng.integers(len(shared), size=n)],
                       rng.dirichlet(np.ones(k), size=n))
        out.append(SM.from_pairs(list(zip(pts, rng.dirichlet(np.ones(n))))))
    return out


# ---------------------------------------------------------------------------
# SupportedMeasure basics
# ---------------------------------------------------------------------------

def test_measure_merges_and_prunes_atoms():
    m = SM.from_pairs([
        (np.array([0.5, 0.5]), 0.3),
        (np.array([0.5 + 1e-14, 0.5 - 1e-14]), 0.7),
        (np.array([1.0, 0.0]), 1e-15),
    ])
    assert m.n_atoms == 1
    assert np.isclose(m.atoms[0][1], 1.0)


def test_measure_requires_unit_mass_unless_renormalized():
    pairs = [(np.array([1.0, 0.0]), 0.5)]
    with pytest.raises(InvalidInputError):
        SM.from_pairs(pairs)
    m = SM.from_pairs(pairs, renormalize=True)
    assert np.isclose(m.atoms[0][1], 1.0)


@pytest.mark.parametrize("belief, mass", [
    ([np.nan, 1.0], 1.0),
    ([0.5, np.inf], 1.0),
    ([0.5, 0.5], np.nan),
    ([0.5, 0.5], np.inf),
])
def test_measure_rejects_non_finite_atoms(belief, mass):
    pairs = [(np.array([1.0, 0.0]), 0.0), (np.array(belief), mass)]
    for renormalize in (False, True):
        with pytest.raises(InvalidInputError, match="atom 1"):
            SM.from_pairs(pairs, renormalize=renormalize)


def test_measure_dict_round_trip():
    m = SM.from_pairs([(np.array([0.25, 0.75]), 0.4), (np.array([1.0, 0.0]), 0.6)])
    back = SM.from_dict(m.to_dict())
    assert back.n_atoms == m.n_atoms
    for (x, w), (y, v) in zip(m.atoms, back.atoms):
        assert np.allclose(x, y) and np.isclose(w, v)


# ---------------------------------------------------------------------------
# Occupation measures
# ---------------------------------------------------------------------------

def test_occupation_collapses_on_constant_beliefs(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    res = pe.occupation_measure(p, x1, pe.uniform_strategy(2),
                                pe.make_evaluation("n_stage", n=3), horizon=3)
    assert res.measure.n_atoms == 1
    assert np.allclose(res.measure.atoms[0][0], [0.5, 0.5])
    assert np.isclose(res.total_weight, 1.0)


def test_occupation_splits_mass_by_stage_weight(revealed_matching):
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    res = pe.occupation_measure(p, x1, pe.uniform_strategy(2),
                                pe.make_evaluation("n_stage", n=2), horizon=2)
    # half the weight sits on the uniform stage-1 belief, the rest splits
    # evenly between the two revealed Dirac beliefs
    atoms = {tuple(x): w for x, w in res.measure.atoms}
    assert np.isclose(atoms[(0.5, 0.5)], 0.5)
    assert np.isclose(atoms[(1.0, 0.0)], 0.25)
    assert np.isclose(atoms[(0.0, 1.0)], 0.25)


def test_occupation_renormalizes_truncated_weights(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    res = pe.occupation_measure(p, x1, pe.uniform_strategy(2),
                                pe.make_evaluation("n_stage", n=4), horizon=2)
    assert np.isclose(res.total_weight, 0.5)
    assert np.isclose(sum(w for _, w in res.measure.atoms), 1.0)


# ---------------------------------------------------------------------------
# Images and invariance
# ---------------------------------------------------------------------------

def test_image_of_redraw_fixed_point(redraw):
    p = redraw.pomdp
    mu = SM.dirac([0.5, 0.5])
    stat = pe.StationaryStrategy(2, [np.array([0.5, 0.5])], [np.array([0.5, 0.5])])
    img = pe.image_measure(p, mu, stat)
    assert img.n_atoms == 1
    assert np.allclose(img.atoms[0][0], [0.5, 0.5])
    assert pe.invariance_residual(p, mu, stat) <= 1e-12


def test_image_splits_on_revealing_signals(revealed_matching):
    p = revealed_matching.pomdp
    mu = SM.dirac([0.5, 0.5])
    stat = pe.StationaryStrategy(2, [np.array([0.5, 0.5])], [np.array([1.0, 0.0])])
    img = pe.image_measure(p, mu, stat)
    atoms = {tuple(x): w for x, w in img.atoms}
    assert np.isclose(atoms[(1.0, 0.0)], 0.5)
    assert np.isclose(atoms[(0.0, 1.0)], 0.5)
    assert np.isclose(pe.invariance_residual(p, mu, stat), 1.0)


def _reference_image(p, mu, stat):
    """The image one atom, action and signal at a time by the scalar Bayes
    update: an action of law at most MASS_FLOOR, or a signal of probability
    below SIGNAL_PROB_FLOOR, carries no mass."""
    pairs = []
    for x, mass in mu.atoms:
        law = stat.at_beliefs(x[None])[0]
        for i in range(p.n_actions):
            for s in range(p.n_signals):
                prob = (x @ p.transition[:, i, :, s]).sum()
                if law[i] > MASS_FLOOR and prob >= SIGNAL_PROB_FLOOR:
                    pairs.append((pe.bayes_update(p, x, i, s), mass * law[i] * prob))
    return SM.from_pairs(pairs, renormalize=True)


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances())
def test_image_matches_the_scalar_image(case):
    # a Dirac atom and zero transition cells give off-support signals, and a
    # zero action entry an action that carries no mass
    p, x1, rng = case
    xs = [x1, np.eye(p.n_states)[rng.integers(p.n_states)], rng.dirichlet(np.ones(p.n_states))]
    mu = SM.from_pairs(zip(xs, rng.dirichlet(np.ones(3))))
    rows = rng.dirichlet(np.ones(p.n_actions), mu.n_atoms)
    if p.n_actions > 1:
        rows[0, 0] = 0.0
        rows[0] /= rows[0].sum()
    stat = pe.StationaryStrategy(p.n_actions, [x for x, _ in mu.atoms], list(rows))
    img = pe.image_measure(p, mu, stat)
    assert pe.kr_distance(img, _reference_image(p, mu, stat)) <= 1e-9
    assert abs(sum(m for _, m in img.atoms) - 1.0) <= 1e-9


@pytest.mark.parametrize("support, rows, named", [
    ([], [], "at least one support belief"),
    ([[np.nan, 1.0]], [[0.5, 0.5]], "finite"),
    ([[0.5, 0.5], [0.2, 0.3, 0.5]], [[0.5, 0.5]] * 2, "differ in length"),
    ([[0.5, 0.6]], [[0.5, 0.5]], "sum to"),
])
def test_a_stationary_strategy_needs_valid_support_beliefs(support, rows, named):
    with pytest.raises(InvalidInputError, match=named):
        pe.StationaryStrategy(2, support, rows)


@pytest.mark.parametrize("support, rows, atom, named", [
    ([[0.5, 0.5]], [[0.2, 0.3, 0.5]], [0.5, 0.5], "3 actions"),
    ([[0.2, 0.3, 0.5]], [[0.5, 0.5]], [0.5, 0.5], "one per state"),
    ([[0.5, 0.5]], [[0.5, 0.5]], [0.2, 0.3, 0.5], "one per state"),
])
def test_images_and_belief_tracking_check_the_strategy_against_the_pomdp(
        redraw, support, rows, atom, named):
    # uniform redraw: 2 states, 2 actions; before these checks a third
    # action's mass was dropped and a support of the wrong length met a raw
    # broadcast error
    p = redraw.pomdp
    stat = pe.StationaryStrategy(len(rows[0]), support, rows)
    with pytest.raises(InvalidInputError, match=named):
        pe.image_measure(p, SM.dirac(atom), stat)
    if len(atom) == p.n_states:
        with pytest.raises(InvalidInputError, match=named):
            pe.belief_tracking_strategy(p, redraw.initial_belief, stat)


def test_frozen_beliefs_make_every_dirac_invariant(frozen_matching):
    p = frozen_matching.pomdp
    for x in ([0.5, 0.5], [0.3, 0.7]):
        mu = SM.dirac(x)
        stat = pe.StationaryStrategy(2, [np.array(x)], [np.array([0.4, 0.6])])
        assert pe.invariance_residual(p, mu, stat) <= 1e-12


# ---------------------------------------------------------------------------
# Transport distance
# ---------------------------------------------------------------------------

def test_transport_distance_basics():
    d1, d2 = SM.dirac([1.0, 0.0]), SM.dirac([0.0, 1.0])
    assert np.isclose(pe.kr_distance(d1, d2), 2.0)   # L1 ground distance
    assert pe.kr_distance(d1, d1) == 0.0
    half = SM.from_pairs([(np.array([1.0, 0.0]), 0.5), (np.array([0.0, 1.0]), 0.5)])
    assert np.isclose(pe.kr_distance(half, d1), 1.0)


@settings(max_examples=80, deadline=None)
@given(measures=measure_lists(2))
def test_transport_distance_matches_lp_oracle(measures):
    mu, nu = measures
    d = pe.kr_distance(mu, nu)
    assert abs(d - lp_transport(mu, nu)) <= 1e-9
    assert abs(d - lp_dual_transport(mu, nu)) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(measures=measure_lists(2))
def test_edge_costs_equal_the_per_pair_rounding(measures):
    mu, nu = measures
    per_pair = [[int(round(float(np.abs(x - y).sum()) * _FLOW_SCALE)) for y, _ in nu.atoms]
                for x, _ in mu.atoms]
    assert _edge_costs(mu, nu).tolist() == per_pair


@settings(max_examples=60, deadline=None)
@given(measures=measure_lists(3))
def test_transport_distance_is_a_metric(measures):
    mu, nu, rho = measures
    dmn = pe.kr_distance(mu, nu)
    assert np.isclose(dmn, pe.kr_distance(nu, mu), atol=1e-9)
    assert dmn <= pe.kr_distance(mu, rho) + pe.kr_distance(rho, nu) + 1e-9


def networkx_transport_cost(a, b, costs):
    """Independent integer oracle: networkx's network simplex on the
    bipartite graph with an arc from each supply to each demand."""
    g = nx.DiGraph()
    g.add_nodes_from((("s", i), {"demand": -supply}) for i, supply in enumerate(a))
    g.add_nodes_from((("t", j), {"demand": demand}) for j, demand in enumerate(b))
    g.add_edges_from((("s", i), ("t", j), {"weight": w})
                     for i, row in enumerate(costs.tolist()) for j, w in enumerate(row))
    return nx.network_simplex(g)[0]


def assert_optimal_basis(a, b, costs, cost, basis):
    """`basis` is a spanning tree of len(a) + len(b) - 1 cells carrying a
    feasible flow of total `cost`, and every zero-flow cell has its row below
    its column in the tree rooted at row 0 (a strongly feasible tree)."""
    n, m = len(a), len(b)
    assert len(basis) == n + m - 1
    assert all(type(f) is int and f >= 0 for f in basis.values())
    rows, cols = [0] * n, [0] * m
    for (i, j), f in basis.items():
        rows[i] += f
        cols[j] += f
    assert rows == list(a) and cols == list(b)
    assert cost == sum(f * int(costs[i, j]) for (i, j), f in basis.items())
    adj = {v: [] for v in range(n + m)}
    for i, j in basis:
        adj[i].append(n + j)
        adj[n + j].append(i)
    parent, walk = {0: None}, [0]
    for v in walk:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                walk.append(w)
    assert len(parent) == n + m
    assert all(parent[i] == n + j for (i, j), f in basis.items() if f == 0)


def _split(rng, total, size, equal):
    """`size` positive integers summing to `total`: equal shares (the
    remainder on the first) or random ones."""
    weights = np.ones(size, dtype=np.int64) if equal else rng.integers(1, 10**6, size)
    parts = (weights * total // weights.sum()).tolist()
    parts[0] += total - sum(parts)
    return parts


@hst.composite
def transport_problems(draw):
    """Integer transport problems of 1-12 x 1-12 cells with masses summing to
    the flow scale, drawn degenerate on purpose: equal masses, column atoms
    that repeat row atoms (zero-cost cells), costs from 2-3 values, and
    single rows or columns."""
    n, m = draw(hst.integers(1, 12)), draw(hst.integers(1, 12))
    shape = draw(hst.sampled_from(["any", "one row", "one column"]))
    n, m = (1 if shape == "one row" else n), (1 if shape == "one column" else m)
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    a = _split(rng, _FLOW_SCALE, n, draw(hst.booleans()))
    b = _split(rng, _FLOW_SCALE, m, draw(hst.booleans()))
    kind = draw(hst.sampled_from(["beliefs", "shared atoms", "few values"]))
    if kind == "few values":
        values = rng.integers(0, 2 * _FLOW_SCALE, draw(hst.integers(2, 3)))
        return a, b, rng.choice(values, size=(n, m)).astype(np.int64)
    k = draw(hst.integers(2, 4))
    x = rng.dirichlet(np.ones(k), size=n)
    y = rng.dirichlet(np.ones(k), size=m)
    if kind == "shared atoms":
        y = np.where(rng.random((m, 1)) < 0.5, x[rng.integers(n, size=m)], y)
    return a, b, np.rint(np.abs(x[:, None] - y[None]).sum(axis=2) * _FLOW_SCALE).astype(np.int64)


@settings(max_examples=300, deadline=None)
@given(problem=transport_problems())
def test_transport_cost_equals_networkx_exactly(problem):
    a, b, costs = problem
    cost, basis = _transport(a, b, costs)
    assert cost == networkx_transport_cost(a, b, costs)
    assert_optimal_basis(a, b, costs, cost, basis)


def _greedy_reference(a, b, costs):
    """The greedy start that visits every sorted cell until the supply is
    placed: the reference for `_greedy_start`."""
    m, flow = len(b), {}
    left_a, left_b, left = list(a), list(b), sum(a)
    for cell in np.argsort(costs, axis=None, kind="stable").tolist():
        if not left:
            break
        i, j = divmod(cell, m)
        moved = min(left_a[i], left_b[j])
        if moved:
            flow[i, j] = moved
            left_a[i] -= moved
            left_b[j] -= moved
            left -= moved
    return flow


@settings(max_examples=300, deadline=None)
@given(n=hst.integers(1, 40), m=hst.integers(1, 60), n_costs=hst.integers(1, 5),
       seed=hst.integers(0, 2**32 - 1))
def test_greedy_start_sets_the_reference_flows_in_its_order(n, m, n_costs, seed):
    # small supplies and costs from at most 5 values: many ties, and many
    # rows and columns exhausted at once
    rng = np.random.default_rng(seed)
    total = int(rng.integers(max(n, m), 3 * max(n, m) + 1))
    a, b = _split(rng, total, n, False), _split(rng, total, m, False)
    costs = rng.integers(0, n_costs, size=(n, m)).astype(np.int64)
    assert list(_greedy_start(a, b, costs).items()) == list(_greedy_reference(a, b, costs).items())


@settings(max_examples=100, deadline=None)
@given(problem=transport_problems())
def test_greedy_start_of_degenerate_problems_equals_the_reference(problem):
    a, b, costs = problem
    assert list(_greedy_start(a, b, costs).items()) == list(_greedy_reference(a, b, costs).items())


@settings(max_examples=60, deadline=None)
@given(measures=measure_lists(1))
def test_transport_distance_of_a_measure_to_itself_is_zero(measures):
    assert pe.kr_distance(measures[0], measures[0]) == 0.0


@pytest.mark.parametrize("k", [1, 2, 5, 12, 30])
def test_transport_terminates_on_degenerate_problems(k):
    # every greedy cell exhausts a row and a column at once, and every pivot
    # from such a start moves no flow unless it breaks a tie
    unit = _FLOW_SCALE // k
    equal = [unit] * k
    equal[0] += _FLOW_SCALE - unit * k
    eye = np.eye(k, dtype=np.int64)
    cases = [
        (equal, equal, np.full((k, k), 7, dtype=np.int64)),     # all costs equal
        (equal, equal, 1 - eye),                                # identity optimum, cost 0
        (equal, equal, eye),                                    # identity is the worst plan
        (equal, equal[::-1], np.add.outer(np.arange(k), np.arange(k)) % 2),
        (equal, [_FLOW_SCALE], np.arange(k, dtype=np.int64)[:, None]),
    ]
    for a, b, costs in cases:
        cost, basis = _transport(a, b, costs)
        assert cost == networkx_transport_cost(a, b, costs)
        assert_optimal_basis(a, b, costs, cost, basis)


def test_lipschitz_test_functions_respect_duality(rng):
    # |∫f dμ − ∫f dν| ≤ kr(μ,ν) for every 1-Lipschitz f (L1 ground metric)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        mu, nu = random_measure(rng, k), random_measure(rng, k)
        d = pe.kr_distance(mu, nu)
        for _ in range(10):
            z = random_belief(rng, k)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            f = lambda x: sign * np.abs(x - z).sum()
            gap = abs(sum(w * f(x) for x, w in mu.atoms)
                      - sum(w * f(x) for x, w in nu.atoms))
            assert gap <= d + 1e-9


def test_occupation_and_disintegration_match_per_play_belief_sequences(rng):
    # reference: one belief_sequence per enumerated play, deposits summed cell
    # by cell; the measures are compared through nonlinear test functions
    horizon = 3
    for seed in range(3):
        p = random_pomdp(rng, k=3, n_i=2, n_s=2)
        x1 = random_belief(rng, 3)
        strat = pe.RandomBehaviorStrategy(2, seed)
        e = pe.make_evaluation("run_block_ex2", l=1)
        b = pe.enumerate_plays(p, x1, strat, horizon)
        w = e.batch_weights(b.states, b.actions, b.signals)
        c, d = rng.random(3), rng.random(3)
        integral, total, ends = 0.0, 0.0, {}
        for j in range(len(b)):
            seq = belief_sequence(p, x1, b.actions[j], b.signals[j])
            for m in range(horizon):
                mass = b.prob[j] * w[j, m]
                if mass > 0:
                    integral += mass * ((seq[m] ** 2) @ c + seq[m] @ d)
                    total += mass
                    ends[(tuple(b.actions[j, :m].tolist()), tuple(b.signals[j, :m].tolist()))] = seq[m]
        occ = pe.occupation_measure(p, x1, strat, e, horizon)
        assert abs(occ.total_weight - total) <= 1e-12
        got = sum(m * ((x ** 2) @ c + x @ d) for x, m in occ.measure.atoms)
        assert abs(got - integral / total) <= 1e-12
        table, _ = pe.disintegrate(p, x1, strat, e, horizon)
        seen = set()
        for key, group in table.groups.items():
            for h, _, dist in group:
                seen.add((h.actions, h.signals))
                assert np.allclose(table.beliefs[key], ends[(h.actions, h.signals)],
                                   rtol=0, atol=1e-12)
                assert np.array_equal(dist, strat.action_distribution(h))
        assert seen == set(ends)


# ---------------------------------------------------------------------------
# Disintegration
# ---------------------------------------------------------------------------

def test_disintegration_on_constant_beliefs_is_one_group(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    table, stat = pe.disintegrate(p, x1, pe.uniform_strategy(2),
                                  pe.make_evaluation("n_stage", n=3), horizon=3)
    assert isinstance(table, DisintegrationTable)
    assert len(table.beliefs) == 1
    row = stat.at_beliefs(np.array([[0.5, 0.5]]))
    assert np.allclose(row, [[0.5, 0.5]])


def test_disintegration_groups_by_end_belief(revealed_matching):
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    strat = pe.belief_tracking_strategy(
        p, x1,
        pe.StationaryStrategy(
            2,
            [np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            [np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        ))
    table, stat = pe.disintegrate(p, x1, strat,
                                  pe.make_evaluation("n_stage", n=2), horizon=2)
    keys = {tuple(x) for x in table.beliefs.values()}
    assert keys == {(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)}
    # the induced stationary strategy replays the matched actions
    assert np.allclose(stat.at_beliefs(np.eye(2)), np.eye(2))
    # conditional masses within each group form distributions
    for key, group in table.groups.items():
        assert np.isclose(sum(m for _, m, _ in group), 1.0, atol=1e-9)
