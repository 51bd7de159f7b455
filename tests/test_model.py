"""Model layer: beliefs, Bayes updates, payoffs, lifts, scenario loading."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals.errors import InvalidInputError, ScenarioValidationError
from pomdp_evals.model import bayes_matrices, bayes_update_rows
from pomdp_evals.playspace import belief_blocks

from conftest import random_belief, random_pomdp, sparse_instances


# ---------------------------------------------------------------------------
# Beliefs
# ---------------------------------------------------------------------------

def test_make_belief_normalizes_and_validates():
    x = pe.make_belief([0.25, 0.75])
    assert np.allclose(x, [0.25, 0.75])
    with pytest.raises(InvalidInputError):
        pe.make_belief([0.5, 0.6])
    with pytest.raises(InvalidInputError):
        pe.make_belief([-0.1, 1.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_belief_rejects_non_finite_entries(bad):
    with pytest.raises(InvalidInputError) as err:
        pe.make_belief([bad, 1.0])
    assert "entry 0" in str(err.value)


def test_dirac_and_uniform_beliefs():
    assert np.array_equal(pe.dirac_belief(3, 1), [0.0, 1.0, 0.0])
    assert np.allclose(pe.uniform_belief(4), 0.25)


def test_canonical_belief_rounds_for_stable_keys():
    a = pe.make_belief([1 / 3, 2 / 3])
    b = pe.make_belief([1 / 3 + 1e-14, 2 / 3 - 1e-14])
    assert pe.belief_key(pe.canonical_belief(a)) == pe.belief_key(pe.canonical_belief(b))


# ---------------------------------------------------------------------------
# POMDP validation
# ---------------------------------------------------------------------------

def test_pomdp_validation_names_the_offending_row(rng):
    p = random_pomdp(rng)
    bad = p.transition.copy()
    bad[1, 0] *= 0.9
    with pytest.raises(ScenarioValidationError) as err:
        pe.Pomdp(p.states, p.actions, p.signals, bad, p.reward)
    assert "s1" in str(err.value) and "a0" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pomdp_rejects_non_finite_transition_and_reward_cells(rng, bad):
    p = random_pomdp(rng)
    trans = p.transition.copy()
    trans[2, 1, 0, 1] = bad
    with pytest.raises(ScenarioValidationError) as err:
        pe.Pomdp(p.states, p.actions, p.signals, trans, p.reward)
    assert "s2" in str(err.value) and "a1" in str(err.value)
    reward = p.reward.copy()
    reward[1, 0] = bad
    with pytest.raises(ScenarioValidationError) as err:
        pe.Pomdp(p.states, p.actions, p.signals, p.transition, reward)
    assert "s1" in str(err.value) and "a0" in str(err.value)


def test_pomdp_rejects_rewards_outside_unit_interval(rng):
    p = random_pomdp(rng)
    bad = p.reward.copy()
    bad[0, 0] = 1.5
    with pytest.raises(ScenarioValidationError):
        pe.Pomdp(p.states, p.actions, p.signals, p.transition, bad)


def test_pomdp_arrays_are_read_only(rng):
    p = random_pomdp(rng)
    with pytest.raises(ValueError):
        p.transition[0, 0, 0, 0] = 1.0


def test_state_and_action_lookup(rng):
    p = random_pomdp(rng)
    assert p.state_index("s1") == 1
    assert p.action_index("a0") == 0
    with pytest.raises(InvalidInputError):
        p.state_index("nope")


# ---------------------------------------------------------------------------
# Bayes updates
# ---------------------------------------------------------------------------

def test_bayes_posterior_on_hand_solved_instance():
    # Uniform prior, frozen state, signal likelihoods 0.6 (state a) and 0.2
    # (state b): posterior on "s" is (0.5*0.6, 0.5*0.2)/0.4 = (0.75, 0.25).
    trans = np.zeros((2, 1, 2, 2))
    trans[0, 0, 0] = [0.6, 0.4]
    trans[1, 0, 1] = [0.2, 0.8]
    p = pe.Pomdp(("a", "b"), ("go",), ("s", "t"), trans, np.zeros((2, 1)))
    post = pe.bayes_update(p, pe.uniform_belief(2), 0, 0)
    assert np.allclose(post, [0.75, 0.25], atol=1e-12)


def test_posteriors_average_back_to_the_next_marginal(rng):
    for _ in range(20):
        p = random_pomdp(rng, k=int(rng.integers(2, 5)),
                         n_i=int(rng.integers(1, 4)), n_s=int(rng.integers(1, 4)))
        x = random_belief(rng, p.n_states)
        for i in range(p.n_actions):
            marginal = np.einsum("k,kl->l", x, p.transition[:, i].sum(axis=2))
            mix = sum(prob * post for _, prob, post in pe.belief_transition(p, x, i))
            assert np.allclose(mix, marginal, atol=1e-12)
            sig = pe.signal_distribution(p, x, i)
            assert np.isclose(sig.sum(), 1.0, atol=1e-12)
            for s, prob, post in pe.belief_transition(p, x, i):
                assert np.isclose(prob, sig[s], atol=1e-12)
                assert np.allclose(post, pe.bayes_update(p, x, i, s), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances(), width=hst.integers(1, 8), horizon=hst.integers(1, 70))
def test_posterior_rows_sum_to_one(case, width, horizon):
    # random beliefs (Diracs among them) and observed pairs, many of them
    # impossible on the sparse instance, so the off-support fallback runs too
    p, x1, rng = case
    x = rng.dirichlet(np.ones(p.n_states), width)
    x[::2] = np.eye(p.n_states)[rng.integers(0, p.n_states, len(x[::2]))]
    code = rng.integers(0, p.n_actions * p.n_signals, width)
    assert np.all(np.abs(bayes_update_rows(bayes_matrices(p), x, code).sum(axis=1) - 1) <= 1e-12)
    actions = rng.integers(0, p.n_actions, (width, horizon))
    signals = rng.integers(0, p.n_signals, (width, horizon))
    for _, bel in belief_blocks(p, x1, actions, signals):
        assert np.all(np.abs(bel.sum(axis=2) - 1) <= 1e-12)


def test_off_support_signal_falls_back_to_dirac(blind):
    p = blind.pomdp
    # the blind instance emits only signal 0, so signal probabilities are
    # never off-support; build one with an unreachable signal instead
    trans = np.zeros((1, 1, 1, 2))
    trans[0, 0, 0, 0] = 1.0
    q = pe.Pomdp(("s0",), ("a0",), ("o0", "o1"), trans, np.zeros((1, 1)))
    assert np.array_equal(pe.bayes_update(q, [1.0], 0, 1), [1.0])


def test_frozen_matching_belief_never_moves(frozen_matching):
    p, x = frozen_matching.pomdp, frozen_matching.initial_belief
    for i in range(p.n_actions):
        steps = pe.belief_transition(p, x, i)
        assert len(steps) == 1
        _, prob, post = steps[0]
        assert np.isclose(prob, 1.0)
        assert np.allclose(post, x)


def test_revealed_matching_belief_jumps_to_dirac(revealed_matching):
    p, x = revealed_matching.pomdp, revealed_matching.initial_belief
    posts = {tuple(post) for _, _, post in pe.belief_transition(p, x, 0)}
    assert posts == {(1.0, 0.0), (0.0, 1.0)}


# ---------------------------------------------------------------------------
# Stage payoff
# ---------------------------------------------------------------------------

def test_stage_payoff_is_affine_in_the_belief(rng):
    p = random_pomdp(rng)
    x, y = random_belief(rng, 3), random_belief(rng, 3)
    for i in range(p.n_actions):
        for t in (0.0, 0.3, 1.0):
            mix = t * x + (1 - t) * y
            assert np.isclose(
                pe.stage_payoff(p, mix, i),
                t * pe.stage_payoff(p, x, i) + (1 - t) * pe.stage_payoff(p, y, i),
                atol=1e-12,
            )


# ---------------------------------------------------------------------------
# Known payoffs and the state lift
# ---------------------------------------------------------------------------

def test_lift_states_pair_base_states_with_reward_values(blind):
    p = blind.pomdp
    lifted = pe.known_payoff_lift(p)
    assert lifted.n_states == p.n_states * 2   # reward values {0, 1}
    # lifted reward depends only on the recorded value component
    for j, name in enumerate(lifted.states):
        v = float(name.split("~")[1])
        assert np.allclose(lifted.reward[j], v)


def test_lift_reward_tracks_previous_stage(blind):
    p = blind.pomdp
    lifted = pe.known_payoff_lift(p)
    x1 = pe.lift_belief(p, lifted, blind.initial_belief)
    # from the high state (value 1 recorded next), playing T forever yields
    # reward 0 at stage 1 (pinned component) and 1 from stage 2 onward
    j = lifted.state_index("high~0")
    assert lifted.reward[j, 0] == 0.0
    dest = np.argmax(lifted.transition[j, 0].sum(axis=1))
    assert lifted.states[dest] == "high~1"
    assert np.isclose(x1.sum(), 1.0)
    assert np.isclose(x1[lifted.state_index("low~0")], 0.5)


def test_lift_preserves_base_state_marginal_dynamics(rng):
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    lifted = pe.known_payoff_lift(p)
    n_v = lifted.n_states // p.n_states
    for k in range(p.n_states):
        for i in range(p.n_actions):
            row = lifted.transition[k * n_v, i]
            marg = row.reshape(p.n_states, n_v, p.n_signals).sum(axis=1)
            assert np.allclose(marg, p.transition[k, i], atol=1e-12)


def test_known_payoff_partition_examples(blind, revealed_matching):
    # single uninformative signal but distinct rewards: no compatible partition
    assert not pe.has_known_payoffs(blind.pomdp)
    assert pe.known_payoff_partition(blind.pomdp) is None
    # revealing signals: singleton classes work
    part = pe.known_payoff_partition(revealed_matching.pomdp)
    assert part is not None
    assert sorted(part) == [(0,), (1,)]
    # states grouped together must share reward rows
    for g in part:
        rows = revealed_matching.pomdp.reward[list(g)]
        assert np.allclose(rows, rows[0])


# ---------------------------------------------------------------------------
# Scenario serialization
# ---------------------------------------------------------------------------

def _scenario_doc():
    return {
        "states": ["u", "v"],
        "actions": ["go"],
        "signals": ["o"],
        "transition": {
            "u,go": {"u,o": 0.5, "v,o": 0.5},
            "v,go": {"v,o": 1.0},
        },
        "reward": {"u,go": 1.0, "v,go": 0.0},
        "initial_belief": [0.5, 0.5],
    }


def test_load_scenario_round_trip(tmp_path):
    doc = _scenario_doc()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    for source in (doc, json.dumps(doc), str(path)):
        sc = pe.load_scenario(source)
        assert sc.pomdp.states == ("u", "v")
        assert np.allclose(sc.initial_belief, [0.5, 0.5])
        assert np.isclose(sc.pomdp.transition[0, 0, 0, 0], 0.5)


def test_load_scenario_reports_missing_fields_and_bad_rows():
    doc = _scenario_doc()
    del doc["reward"]
    with pytest.raises(ScenarioValidationError) as err:
        pe.load_scenario(doc)
    assert "reward" in str(err.value)

    doc = _scenario_doc()
    doc["transition"]["u,go"]["v,o"] = 0.4
    with pytest.raises(ScenarioValidationError) as err:
        pe.load_scenario(doc)
    assert "u" in str(err.value) and "go" in str(err.value)

    doc = _scenario_doc()
    doc["transition"]["u,go"] = {"w,o": 1.0}
    with pytest.raises(ScenarioValidationError):
        pe.load_scenario(doc)
