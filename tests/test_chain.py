"""Finite chains induced by finite-memory strategies: ergodic structure."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import pomdp_evals as pe
from pomdp_evals import chain
from pomdp_evals.chain import (EDGE_THRESHOLD, MarkovChain, _strong_components,
                               ergodic_decomposition, liminf_value_transducer,
                               mixing_threshold, product_chain)
from pomdp_evals.errors import InvalidInputError, PomdpEvalError, ScenarioValidationError
from pomdp_evals import playspace
from pomdp_evals.playspace import simulate_plays

from conftest import random_pomdp, sparse_instances


def _chain(labels, T, payoff, init):
    return MarkovChain(tuple(labels), np.asarray(T, dtype=float),
                       np.asarray(payoff, dtype=float),
                       np.asarray(init, dtype=float))


def _law_after(c: MarkovChain, l: int) -> np.ndarray:
    """The chain's law after l steps from its initial law."""
    return c.initial @ np.linalg.matrix_power(c.transition, l)


def test_chain_validation_names_the_offending_row():
    with pytest.raises(InvalidInputError) as err:
        _chain(("u", "v"), [[0.5, 0.4], [0, 1]], [0, 1], [1, 0])
    assert "u" in str(err.value)


def test_chain_freezes_its_own_copies_not_the_callers_arrays():
    t, f, y = np.eye(2), np.array([0.0, 1.0]), np.array([1.0, 0.0])
    c = MarkovChain(("a", "b"), t, f, y)
    t[0, 0], f[0], y[0] = 0.5, 0.25, 0.75
    assert c.transition[0, 0] == 1.0 and c.payoff[0] == 0.0 and c.initial[0] == 1.0
    for arr in (c.transition, c.payoff, c.initial):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("table, T, payoff, init", [
    ("transition", [[np.nan, 0.3], [0, 1]], [0.3, 0.9], [1, 0]),
    ("payoff", [[0.5, 0.5], [0, 1]], [np.nan, 0.3], [1, 0]),
    ("initial law", [[0.5, 0.5], [0, 1]], [0.2, 0.3], [np.nan, 1])])
def test_chain_validation_rejects_non_finite_entries(table, T, payoff, init):
    # NaN fails every comparison, so the row-sum and range checks let it by
    with pytest.raises(InvalidInputError, match=table):
        _chain(("u", "v"), T, payoff, init)


def test_product_chain_of_constant_strategy_is_the_state_chain(blind):
    p, x1 = blind.pomdp, blind.initial_belief
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    c = product_chain(p, t, x1)
    assert c.n_states == 2
    assert np.allclose(c.transition, np.eye(2))
    assert np.allclose(c.payoff, [0.0, 1.0])
    assert np.allclose(c.initial, [0.5, 0.5])


def test_product_chain_size_scales_with_memory(blind):
    p, x1 = blind.pomdp, blind.initial_belief
    two = [t for t in pe.enumerate_transducers(p, max_memory=2) if t.n_memory == 2]
    c = product_chain(p, two[0], x1)
    assert c.n_states == 4


def _reference_product_chain(p, t, x1):
    """The product chain built entry by entry: state-major, memory-minor."""
    k, mem = p.n_states, t.n_memory
    n = k * mem
    trans = np.zeros((n, n))
    payoff = np.empty(n)
    labels = []
    for kk in range(k):
        for mm in range(mem):
            u = kk * mem + mm
            i = int(t.act[mm])
            labels.append((p.states[kk], mm))
            payoff[u] = p.reward[kk, i]
            for ll in range(k):
                for s in range(p.n_signals):
                    pr = p.transition[kk, i, ll, s]
                    if pr > 0:
                        trans[u, ll * mem + int(t.update[mm, i, s])] += pr
    initial = np.zeros(n)
    for kk in range(k):
        initial[kk * mem + t.initial] = float(x1[kk])
    return tuple(labels), trans, payoff, initial


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances(), n_memory=hst.integers(1, 4))
def test_product_chain_matches_the_entrywise_reference(case, n_memory):
    p, x1, rng = case
    t = pe.Transducer(p.n_actions, p.n_signals,
                      rng.integers(0, p.n_actions, n_memory),
                      rng.integers(0, n_memory, (n_memory, p.n_actions, p.n_signals)),
                      initial=int(rng.integers(n_memory)))
    c = product_chain(p, t, x1)
    labels, trans, payoff, initial = _reference_product_chain(p, t, x1)
    assert c.labels == labels
    assert np.array_equal(c.transition, trans)
    assert np.array_equal(c.payoff, payoff)
    assert np.array_equal(c.initial, initial)


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances(), n_memory=hst.integers(1, 4))
def test_kernel_successors_are_the_product_chains_positive_cells(case, n_memory):
    # the simulation kernel's next pair nxt[u, l*S + s] and the product
    # chain's row u name the same successors, and summing the kernel's law of
    # row u over them, code by code, gives the chain's row bit for bit
    p, x1, rng = case
    t = pe.Transducer(p.n_actions, p.n_signals,
                      rng.integers(0, p.n_actions, n_memory),
                      rng.integers(0, n_memory, (n_memory, p.n_actions, p.n_signals)),
                      initial=int(rng.integers(n_memory)))
    act, _, nxt, m, initial = playspace._chain_tables(p, t, 1)
    c = product_chain(p, t, x1)
    n = p.n_states * m
    law = p.transition.reshape(p.n_states, p.n_actions, -1)[np.arange(n) // m, act[0]]
    assert (m, initial) == (n_memory, t.initial) and nxt.shape == law.shape
    for u in range(n):
        assert set(nxt[u, law[u] > 0].tolist()) == set(np.flatnonzero(c.transition[u]).tolist())
        assert np.array_equal(np.bincount(nxt[u], weights=law[u], minlength=n), c.transition[u])


@pytest.mark.parametrize("reward", [-5e-10, 0.0, 1.0, 1.0 + 5e-10])
def test_rewards_within_the_model_tolerance_make_a_product_chain(reward):
    # Pomdp accepts rewards within ROW_SUM_TOL of [0, 1]; the product chain
    # and the exact liminf value built on it accept the same rewards
    p = pe.Pomdp(("k",), ("a",), ("o",), np.ones((1, 1, 1, 1)), [[reward]])
    t = pe.Transducer(1, 1, [0], [[[0]]])
    c = product_chain(p, t, [1.0])
    assert c.payoff.tolist() == [reward]
    assert chain.liminf_value_transducer(p, [1.0], t) == reward
    assert ergodic_decomposition(c).class_values == (reward,)


@pytest.mark.parametrize("payoff", [-2e-9, 1.0 + 2e-9])
def test_chain_payoffs_beyond_the_model_tolerance_are_rejected(payoff):
    with pytest.raises(InvalidInputError, match="out of range"):
        _chain(("u",), [[1.0]], [payoff], [1.0])
    with pytest.raises(ScenarioValidationError, match="outside"):
        pe.Pomdp(("k",), ("a",), ("o",), np.ones((1, 1, 1, 1)), [[payoff]])


@pytest.mark.parametrize("label", ["uniform", "hold:0:2:1"])
def test_product_chain_needs_a_transducer(blind, label):
    p = blind.pomdp
    with pytest.raises(InvalidInputError, match="finite-memory"):
        product_chain(p, pe.builtin_strategy(label, p), blind.initial_belief)


def test_decomposition_of_identity_chain():
    dec = ergodic_decomposition(_chain(("u", "v"), np.eye(2), [0.3, 0.9], [0.5, 0.5]))
    assert dec.transient == ()
    assert dec.classes == ((0,), (1,))
    assert np.allclose(dec.absorption, [0.5, 0.5])
    assert np.allclose(dec.class_values, [0.3, 0.9])


def test_decomposition_of_hand_solved_absorbing_chain():
    T = [[0.0, 0.3, 0.7], [0, 1, 0], [0, 0, 1]]
    dec = ergodic_decomposition(_chain(("a", "b", "c"), T, [0, 1, 0.5], [1, 0, 0]))
    assert dec.transient == (0,)
    assert dec.classes == ((1,), (2,))
    assert np.allclose(dec.absorption, [0.3, 0.7])
    assert np.allclose(dec.class_values, [1.0, 0.5])


def test_stationary_vectors_are_fixed_points(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        T = rng.random((n, n)) + 0.01
        T /= T.sum(axis=1, keepdims=True)
        c = _chain([f"u{j}" for j in range(n)], T, rng.random(n),
                   rng.dirichlet(np.ones(n)))
        dec = ergodic_decomposition(c)
        assert dec.transient == () and len(dec.classes) == 1
        pi = dec.stationary[0]
        assert np.allclose(pi @ T, pi, atol=1e-10)
        assert np.isclose(pi.sum(), 1.0, atol=1e-10)
        assert np.isclose(dec.class_values[0], pi @ c.payoff, atol=1e-10)


def test_absorption_masses_sum_to_one(rng):
    for _ in range(10):
        p = random_pomdp(rng, k=3, n_i=2, n_s=2)
        ts = pe.enumerate_transducers(p, max_memory=2)
        c = product_chain(p, ts[int(rng.integers(len(ts)))], pe.uniform_belief(3))
        dec = ergodic_decomposition(c)
        assert np.isclose(sum(dec.absorption), 1.0, atol=1e-9)
        for cls, pi in zip(dec.classes, dec.stationary):
            assert np.isclose(pi.sum(), 1.0, atol=1e-9)
            assert len(pi) == len(cls)


def _scipy_components(succ):
    """Strongly connected components by scipy's csgraph: the oracle."""
    n = len(succ)
    adj = np.zeros((n, n), dtype=bool)
    for v, ws in enumerate(succ):
        adj[v, ws] = True
    return connected_components(csr_matrix(adj), directed=True, connection="strong")


def _partition(labels):
    """Labels renumbered by first appearance: equal iff the partitions are."""
    first = {}
    return [first.setdefault(int(c), len(first)) for c in labels]


@hst.composite
def digraphs(draw):
    """Successor lists of a digraph on 1-40 nodes: each node's out-degree is
    drawn at a density of 0 (no successors), sparse or dense, and about a
    third of the nodes carry a self-loop."""
    n = draw(hst.integers(1, 40))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    density = rng.choice([0.0, 0.03, 0.1, 0.5, 0.95], size=(n, 1))
    adj = rng.random((n, n)) < density
    adj[np.diag_indices(n)] = rng.random(n) < 0.3
    return [np.flatnonzero(row).tolist() for row in adj]


@settings(max_examples=300, deadline=None)
@given(succ=digraphs())
def test_strong_components_match_scipy(succ):
    n_comp, comp = _strong_components(succ)
    ref_n, ref = _scipy_components(succ)
    assert n_comp == ref_n
    assert _partition(comp) == _partition(ref)


@pytest.mark.parametrize("closed", [False, True])
def test_strong_components_of_a_long_path_need_no_recursion(closed):
    n = 20_000
    succ = [[v + 1] for v in range(n - 1)] + [[0] if closed else []]
    n_comp, comp = _strong_components(succ)
    assert n_comp == (1 if closed else n)
    assert len(set(comp.tolist())) == n_comp


def _memory_chain(seed):
    """The exact-tree benchmark's memory chain: a dense random 3-state POMDP
    and a random 300-memory transducer drawn from one generator."""
    rng = np.random.default_rng(seed)
    trans = rng.uniform(0.05, 1.0, size=(3, 2, 6))
    trans /= trans.sum(axis=2, keepdims=True)
    p = pe.Pomdp(("k0", "k1", "k2"), ("a0", "a1"), ("s0", "s1"),
                 trans.reshape(3, 2, 3, 2), rng.uniform(0.05, 1.0, size=(3, 2)))
    t = pe.Transducer(2, 2, rng.integers(0, 2, size=300), rng.integers(0, 300, size=(300, 2, 2)))
    return product_chain(p, t, np.full(3, 1.0 / 3))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposition_of_a_300_memory_chain_equals_the_scipy_one(seed, monkeypatch):
    c = _memory_chain(seed)
    dec = ergodic_decomposition(c)
    monkeypatch.setattr(chain, "_strong_components", _scipy_components)
    ref = ergodic_decomposition(c)
    assert c.n_states == 900
    assert (dec.transient, dec.classes) == (ref.transient, ref.classes)
    for got, want in [(dec.class_values, ref.class_values), (dec.absorption, ref.absorption),
                      *zip(dec.stationary, ref.stationary)]:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _per_component_decomposition(c):
    """The decomposition that sums each component's outgoing submatrix on
    its own and builds every linear system from `np.ix_` submatrices: the
    reference for `ergodic_decomposition`."""
    support = c.transition > EDGE_THRESHOLD
    n_comp, comp = _strong_components([np.flatnonzero(row).tolist() for row in support])
    closed = []
    for d in range(n_comp):
        idx = np.nonzero(comp == d)[0]
        outside = c.transition[np.ix_(idx, np.nonzero(comp != d)[0])]
        if outside.size == 0 or outside.sum() <= EDGE_THRESHOLD:
            closed.append(tuple(int(j) for j in idx))
    closed.sort()
    recurrent = np.zeros(c.n_states, dtype=bool)
    for idx in closed:
        recurrent[list(idx)] = True
    transient = tuple(int(j) for j in np.nonzero(~recurrent)[0])
    stationary, values = [], []
    for idx in closed:
        a = c.transition[np.ix_(idx, idx)].T - np.eye(len(idx))
        a[-1, :] = 1.0
        b = np.zeros(len(idx))
        b[-1] = 1.0
        pi = np.linalg.solve(a, b)
        stationary.append(pi)
        values.append(float(pi @ c.payoff[list(idx)]))
    absorption = []
    tr = list(transient)
    if tr:
        lhs = np.eye(len(tr)) - c.transition[np.ix_(tr, tr)]
    for idx in closed:
        h = np.zeros(c.n_states)
        h[list(idx)] = 1.0
        if tr:
            h[tr] = np.linalg.solve(lhs, c.transition[np.ix_(tr, list(idx))].sum(axis=1))
        absorption.append(float(c.initial @ h))
    return transient, tuple(closed), stationary, values, absorption


def _assert_same_decomposition(c):
    dec = ergodic_decomposition(c)
    transient, classes, stationary, values, absorption = _per_component_decomposition(c)
    assert (dec.transient, dec.classes) == (transient, classes)
    assert len(dec.stationary) == len(stationary)
    for got, want in [(dec.class_values, values), (dec.absorption, absorption),
                      *zip(dec.stationary, stationary)]:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    return dec


@settings(max_examples=200, deadline=None)
@given(case=sparse_instances(), n_memory=hst.integers(1, 3))
def test_decomposition_of_random_transducer_chains_equals_the_per_component_one(case, n_memory):
    p, x1, rng = case
    t = pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, size=n_memory),
                      rng.integers(0, n_memory, size=(n_memory, p.n_actions, p.n_signals)),
                      initial=int(rng.integers(n_memory)))
    _assert_same_decomposition(product_chain(p, t, x1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposition_of_a_300_memory_chain_equals_the_per_component_one(seed):
    _assert_same_decomposition(_memory_chain(seed))


@settings(max_examples=100, deadline=None)
@given(scale=hst.sampled_from([0.5, 0.9, 0.99, 1.01, 1.1]), seed=hst.integers(0, 2**32 - 1))
def test_decomposition_with_sub_threshold_leaks_equals_the_per_component_one(scale, seed):
    # a strongly connected block of 2-4 states whose only way out is 2-4
    # distinct cells below EDGE_THRESHOLD into 1-2 absorbing states, summing
    # to `scale` times the threshold; the states are shuffled
    rng = np.random.default_rng(seed)
    size, n_out, n_leaks = (int(v) for v in rng.integers([2, 1, 2], [5, 3, 5]))
    n, n_leaks = size + n_out, min(n_leaks, size * n_out)
    T = np.zeros((n, n))
    T[np.arange(size), np.roll(np.arange(size), 1)] = 1.0       # a cycle through the block
    T[:size, :size] += rng.random((size, size)) * (rng.random((size, size)) < 0.5)
    T[:size, :size] /= T[:size, :size].sum(axis=1, keepdims=True)
    T[size:, size:] = np.eye(n_out)
    w = rng.random(n_leaks) + 0.5
    leaks = w / w.sum() * scale * EDGE_THRESHOLD
    assert (leaks > 0).all() and (leaks < EDGE_THRESHOLD).all()
    for leak, cell in zip(leaks, rng.choice(size * n_out, n_leaks, replace=False)):
        u, v = divmod(int(cell), n_out)
        T[u, size + v] = leak
        T[u, T[u, :size].argmax()] -= leak
    order = rng.permutation(n)
    c = _chain([f"u{j}" for j in range(n)], T[np.ix_(order, order)], rng.random(n)[order],
               rng.dirichlet(np.ones(n)))
    dec = _assert_same_decomposition(c)
    block = tuple(sorted(np.flatnonzero(order < size).tolist()))
    assert (block in dec.classes) == (scale < 1.0)
    assert (dec.transient == block) == (scale > 1.0)


def test_a_singular_absorption_system_names_the_transient_states():
    # a valid chain (row sums within 1e-9): state a keeps all of its mass and
    # leaks 5e-10 more, so it is transient and I - Q is exactly zero
    c = MarkovChain(("a", "b"), [[1.0, 5e-10], [0.0, 1.0]], [0, 1], [1, 0])
    with pytest.raises(PomdpEvalError, match=r"singular absorption system .*\['a'\]"):
        ergodic_decomposition(c)


def test_mixing_threshold_examples(redraw):
    # the redraw chain mixes immediately
    t = pe.always_strategy(2, 1, 0)
    c = product_chain(redraw.pomdp, t, redraw.initial_belief)
    assert mixing_threshold(c) == 0
    # a slowly mixing two-state chain needs several steps
    eps = 0.02
    T = np.array([[1 - eps, eps], [eps, 1 - eps]])
    c2 = _chain(("u", "v"), T, [0.0, 1.0], [1.0, 0.0])
    l = mixing_threshold(c2)
    assert l > 0
    # at the reported step the distribution's payoff is near the long-run one
    assert abs(_law_after(c2, l) @ c2.payoff - 0.5) <= 0.011
    assert abs(_law_after(c2, l - 1) @ c2.payoff - 0.5) > 0.01


def test_transient_mass_decays(rng):
    T = np.array([[0.5, 0.25, 0.25], [0, 1, 0], [0, 0, 1]])
    c = _chain(("a", "b", "c"), T, [0, 1, 0], [1, 0, 0])
    masses = [_law_after(c, j)[0] for j in range(8)]
    assert all(m2 < m1 or m1 == 0 for m1, m2 in zip(masses, masses[1:]))


def test_long_run_value_weights_classes_by_absorption(blind):
    p = blind.pomdp
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    # from the uniform start, half the mass freezes on payoff 1
    assert np.isclose(liminf_value_transducer(p, blind.initial_belief, t), 0.5)
    assert np.isclose(liminf_value_transducer(p, pe.dirac_belief(2, 1), t), 1.0)


def test_empirical_occupation_matches_stationary_law(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    c = product_chain(p, t, x1)
    pi = ergodic_decomposition(c).stationary[0]
    st, _, _ = simulate_plays(p, x1, t, 500, 200, np.random.default_rng(5))
    freq = (st == 0).mean()
    se = 0.5 / np.sqrt(st.size)
    assert abs(freq - pi[0]) <= 3 * se


@hst.composite
def sweep_cases(draw):
    """A random POMDP and transducer for `liminf_value_transducer`: K 1-4,
    I and S 1-3, memory 1-3 with a random initial memory, and a random
    initial belief.  About a third of the transition cells are exactly
    zero, some are 1e-13 (below EDGE_THRESHOLD), and each state is
    absorbing under every action with probability 0.3, so chains often have
    several closed classes."""
    k, n_i, n_s, m = (draw(hst.integers(1, hi)) for hi in (4, 3, 3, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    trans = rng.random((k, n_i, k * n_s)) * (rng.random((k, n_i, k * n_s)) > 0.35)
    trans[rng.random(trans.shape) < 0.15] = 1e-13
    trans[np.arange(k)[:, None], np.arange(n_i), rng.integers(0, k * n_s, (k, n_i))] += 0.1
    for j in np.flatnonzero(rng.random(k) < 0.3):
        trans[j] = 0.0
        trans[j, :, j * n_s + rng.integers(n_s)] = 1.0
    trans /= trans.sum(axis=2, keepdims=True)
    p = pe.Pomdp(tuple(f"s{j}" for j in range(k)), tuple(f"a{j}" for j in range(n_i)),
                 tuple(f"o{j}" for j in range(n_s)), trans.reshape(k, n_i, k, n_s),
                 rng.random((k, n_i)))
    t = pe.Transducer(n_i, n_s, rng.integers(0, n_i, size=m),
                      rng.integers(0, m, size=(m, n_i, n_s)), initial=int(rng.integers(m)))
    return p, pe.make_belief(rng.dirichlet(np.ones(k))), t


@settings(max_examples=300, deadline=None)
@given(case=sweep_cases())
def test_liminf_value_is_the_absorption_weighted_class_value_bit_for_bit(case):
    p, x1, t = case
    c = product_chain(p, t, x1)
    dec = ergodic_decomposition(c)
    want = float(sum(a * g for a, g in zip(dec.absorption, dec.class_values)))
    *_, values, absorption = _per_component_decomposition(c)
    assert float(sum(a * g for a, g in zip(absorption, values))).hex() == want.hex()
    assert liminf_value_transducer(p, x1, t).hex() == want.hex()


def test_liminf_value_builds_no_chain_and_no_decomposition(rng, monkeypatch):
    # a work count with no timing: the sweep's per-candidate value reads the
    # product chain's tables directly, with no wrapper objects around them
    built = []
    chain_check, dec_init = MarkovChain.__post_init__, pe.ErgodicDecomposition.__init__

    def counted_chain(self):
        built.append(type(self))
        chain_check(self)

    def counted_dec(self, *args, **kwargs):
        built.append(type(self))
        dec_init(self, *args, **kwargs)

    monkeypatch.setattr(MarkovChain, "__post_init__", counted_chain)
    monkeypatch.setattr(pe.ErgodicDecomposition, "__init__", counted_dec)
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    x1 = pe.make_belief(rng.dirichlet(np.ones(3)))
    ergodic_decomposition(product_chain(p, pe.always_strategy(2, 2, 0), x1))
    assert built == [MarkovChain, pe.ErgodicDecomposition]     # the counters count
    built.clear()
    for t in pe.enumerate_transducers(p, max_memory=3)[:100]:
        liminf_value_transducer(p, x1, t)
    assert built == []
