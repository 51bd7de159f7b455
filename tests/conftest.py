"""Shared fixtures and helpers for the test suite."""
import numpy as np
import pytest
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals.playspace import STAGE_BLOCK, _filter, belief_payoff_blocks

BUILTIN_SCENARIOS = ("matching-frozen", "matching-revealed", "uniform-redraw",
                     "blind-switching", "blind-switching-lift")


def random_pomdp(rng: np.random.Generator, k: int = 3, n_i: int = 2,
                 n_s: int = 2) -> pe.Pomdp:
    """Random valid instance with strictly positive transition cells."""
    trans = rng.random((k, n_i, k, n_s)) + 0.05
    trans /= trans.sum(axis=(2, 3), keepdims=True)
    rew = rng.random((k, n_i))
    return pe.Pomdp(
        states=tuple(f"s{j}" for j in range(k)),
        actions=tuple(f"a{j}" for j in range(n_i)),
        signals=tuple(f"o{j}" for j in range(n_s)),
        transition=trans,
        reward=rew,
    )


def random_belief(rng: np.random.Generator, k: int) -> np.ndarray:
    return pe.make_belief(rng.dirichlet(np.ones(k)))


@hst.composite
def sparse_instances(draw):
    """Random POMDP with K, I, S <= 3, about a third of its transition cells
    zero (each row keeps one positive cell), and a random initial belief."""
    k, n_i, n_s = (draw(hst.integers(1, 3)) for _ in range(3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    trans = rng.random((k, n_i, k * n_s)) * (rng.random((k, n_i, k * n_s)) > 0.35)
    keep = rng.integers(0, k * n_s, (k, n_i))
    trans[np.arange(k)[:, None], np.arange(n_i), keep] += 0.1
    trans /= trans.sum(axis=2, keepdims=True)
    p = pe.Pomdp(tuple(f"s{j}" for j in range(k)), tuple(f"a{j}" for j in range(n_i)),
                 tuple(f"o{j}" for j in range(n_s)), trans.reshape(k, n_i, k, n_s),
                 rng.random((k, n_i)))
    return p, pe.make_belief(rng.dirichlet(np.ones(k))), rng


@hst.composite
def closed_instances(draw, permuting: bool = True):
    """Random POMDP with K, I, S <= 3 whose belief orbits close.  An action
    either reveals the next state through its signal (each signal goes with
    one state and only the cells (that state, s) are positive, about a third
    of them zero, each row keeping one), so every posterior is a Dirac; or,
    when `permuting`, moves the states by a permutation and emits one fixed
    signal, so the posterior permutes the belief.  Normalising a permuted
    belief can move it by an ulp, so a permutation orbit may take a few
    rounds to close on exact floats.  Revealing actions alone give at most
    K + 1 beliefs."""
    k, n_i, n_s = (draw(hst.integers(1, 3)) for _ in range(3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    named = np.eye(k)[rng.integers(0, k, n_s)].T.ravel() > 0     # cell (l, s) with l named by s
    trans = rng.random((k, n_i, k * n_s)) * (rng.random((k, n_i, k * n_s)) > 0.35) * named
    keep = rng.choice(np.flatnonzero(named), (k, n_i))
    trans[np.arange(k)[:, None], np.arange(n_i), keep] += 0.1
    for i in range(n_i):
        if permuting and draw(hst.booleans()):
            trans[:, i] = 0.0
            trans[np.arange(k), i, rng.permutation(k) * n_s + rng.integers(0, n_s)] = 1.0
    trans /= trans.sum(axis=2, keepdims=True)
    p = pe.Pomdp(tuple(f"s{j}" for j in range(k)), tuple(f"a{j}" for j in range(n_i)),
                 tuple(f"o{j}" for j in range(n_s)), trans.reshape(k, n_i, k, n_s),
                 rng.random((k, n_i)))
    return p, pe.make_belief(rng.dirichlet(np.ones(k))), rng


def drifting_permutation():
    """Two blind permutations of three states and an initial belief whose
    orbit has 6 images; normalising a permuted belief moves it by an ulp now
    and then, so the orbit closes on exact floats only after 28 beliefs."""
    trans = np.zeros((3, 2, 3, 1))
    trans[[0, 1, 2], 0, [1, 2, 0], 0] = 1.0
    trans[[0, 1, 2], 1, [1, 0, 2], 0] = 1.0
    p = pe.Pomdp(("k0", "k1", "k2"), ("cycle", "swap"), ("o",), trans,
                 [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    return p, np.array([0.1, 0.2, 0.7])


@hst.composite
def builtin_cases(draw):
    """A builtin scenario's POMDP and initial belief, with a seeded generator."""
    sc = pe.builtin_scenario(draw(hst.sampled_from(BUILTIN_SCENARIOS)))
    return sc.pomdp, sc.initial_belief, np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))


def belief_sequence(p: pe.Pomdp, x1: np.ndarray, actions, signals) -> np.ndarray:
    """Scalar Bayes reference: the beliefs x_1 .. x_n held before each stage,
    from the observed pairs, one `bayes_update` per stage.  Entry m-1 is the
    belief at stage m (computed from the first m-1 pairs).  Off-support
    observations fall back to the Dirac at the first state."""
    n = len(actions)
    out = np.empty((n, p.n_states))
    x = np.asarray(x1, dtype=float)
    for m in range(n):
        out[m] = x
        x = pe.bayes_update(p, x, int(actions[m]), int(signals[m]))
    return out


def stage_blocks(actions: np.ndarray, signals: np.ndarray, block: int = STAGE_BLOCK) -> list:
    """(t0, actions, signals): (n, horizon) matrices cut into time-major
    blocks of at most `block` stages."""
    return [(t0, actions[:, t0:t0 + block].T, signals[:, t0:t0 + block].T)
            for t0 in range(0, actions.shape[1], block)]


def belief_payoffs(p: pe.Pomdp, x1: np.ndarray, actions: np.ndarray, signals: np.ndarray,
                   block: int = STAGE_BLOCK) -> np.ndarray:
    """(n, horizon) belief payoffs g(x_m, i_m) of (n, horizon) observed plays
    from `belief_payoff_blocks` over blocks of at most `block` stages."""
    blocks = belief_payoff_blocks(p, x1, stage_blocks(actions, signals, block))
    return np.concatenate([g for _, g in blocks]).T


def filter_payoffs(p: pe.Pomdp, x1: np.ndarray, actions: np.ndarray, signals: np.ndarray,
                   block: int = STAGE_BLOCK) -> np.ndarray:
    """The reference of `belief_payoffs`: the same payoffs from the Bayes
    filter `_filter` over the same blocks, whether or not the orbit closes."""
    reward_of = p.reward.T
    return np.concatenate([np.einsum("tnk,tnk->tn", bel, reward_of[ac]) for _, ac, bel in
                           _filter(p, x1, stage_blocks(actions, signals, block))]).T


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def frozen_matching():
    return pe.builtin_scenario("matching-frozen")


@pytest.fixture
def revealed_matching():
    return pe.builtin_scenario("matching-revealed")


@pytest.fixture
def redraw():
    return pe.builtin_scenario("uniform-redraw")


@pytest.fixture
def blind():
    return pe.builtin_scenario("blind-switching")


@pytest.fixture
def blind_lift():
    return pe.builtin_scenario("blind-switching-lift")
