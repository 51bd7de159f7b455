"""Model layer: beliefs, Bayes updates, payoffs, lifts, scenario loading."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals.errors import InvalidInputError, ScenarioValidationError
from pomdp_evals.model import bayes_matrices, bayes_update_rows
from pomdp_evals.playspace import _filter

from conftest import random_belief, random_pomdp, sparse_instances, stage_blocks


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


def _pair_posteriors(p, x):
    """(post, prob) of `bayes_update_rows` for the belief x under every
    observed pair, shaped (I, S, K) and (I, S)."""
    n_c = p.n_actions * p.n_signals
    post, prob = bayes_update_rows(bayes_matrices(p), np.tile(x, (n_c, 1)), np.arange(n_c))
    return (post.reshape(p.n_actions, p.n_signals, p.n_states),
            prob.reshape(p.n_actions, p.n_signals))


def test_posteriors_average_back_to_the_next_marginal(rng):
    for _ in range(20):
        p = random_pomdp(rng, k=int(rng.integers(2, 5)),
                         n_i=int(rng.integers(1, 4)), n_s=int(rng.integers(1, 4)))
        x = random_belief(rng, p.n_states)
        post, prob = _pair_posteriors(p, x)
        for i in range(p.n_actions):
            marginal = np.einsum("k,kl->l", x, p.transition[:, i].sum(axis=2))
            assert np.allclose(prob[i] @ post[i], marginal, atol=1e-12)
            # the signal law is the marginal of the joint law over signals
            sig = np.einsum("k,kls->s", x, p.transition[:, i])
            assert np.allclose(prob[i], sig, atol=1e-12)
            assert np.isclose(prob[i].sum(), 1.0, atol=1e-12)
            for s in range(p.n_signals):
                assert np.allclose(post[i, s], pe.bayes_update(p, x, i, s), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances(), width=hst.integers(1, 8), horizon=hst.integers(1, 70),
       block=hst.integers(1, 70))
def test_posterior_rows_sum_to_one(case, width, horizon, block):
    # random beliefs (Diracs among them) and observed pairs, many of them
    # impossible on the sparse instance, so the off-support fallback runs too
    p, x1, rng = case
    x = rng.dirichlet(np.ones(p.n_states), width)
    x[::2] = np.eye(p.n_states)[rng.integers(0, p.n_states, len(x[::2]))]
    code = rng.integers(0, p.n_actions * p.n_signals, width)
    post, _ = bayes_update_rows(bayes_matrices(p), x, code)
    assert np.all(np.abs(post.sum(axis=1) - 1) <= 1e-12)
    actions = rng.integers(0, p.n_actions, (width, horizon))
    signals = rng.integers(0, p.n_signals, (width, horizon))
    for _, _, bel in _filter(p, x1, stage_blocks(actions, signals, block)):
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
    post, prob = _pair_posteriors(p, x)
    assert prob.shape == (p.n_actions, 1)     # one signal, sure under every action
    assert np.allclose(prob, 1.0)
    assert np.allclose(post, x)


def test_revealed_matching_belief_jumps_to_dirac(revealed_matching):
    p, x = revealed_matching.pomdp, revealed_matching.initial_belief
    post, prob = _pair_posteriors(p, x)
    assert {tuple(row) for row in post[0]} == {(1.0, 0.0), (0.0, 1.0)}
    assert np.allclose(prob, 0.5)


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


def test_load_scenario_reads_an_inline_document_longer_than_a_file_name(rng):
    # a dense random instance: its document is too long to be a path name
    p = random_pomdp(rng)
    doc = {"states": list(p.states), "actions": list(p.actions), "signals": list(p.signals),
           "transition": {f"{k},{i}": {f"{l},{s}": float(p.transition[a, b, c, d])
                                       for c, l in enumerate(p.states)
                                       for d, s in enumerate(p.signals)}
                          for a, k in enumerate(p.states) for b, i in enumerate(p.actions)},
           "reward": {f"{k},{i}": float(p.reward[a, b])
                      for a, k in enumerate(p.states) for b, i in enumerate(p.actions)},
           "initial_belief": [1 / 3] * 3}
    text = json.dumps(doc)
    assert len(text) > 255
    sc = pe.load_scenario(text)
    assert np.array_equal(sc.pomdp.transition, p.transition)
    assert np.array_equal(sc.pomdp.reward, p.reward)


@pytest.mark.parametrize("field, value, named", [
    ("transition", {"u,go": {"u,o": "0.5", "v,o": 0.5}, "v,go": {"v,o": 1.0}},
     "transition row 'u,go' entry 'u,o'"),
    ("transition", [1.0], "'transition'"),
    ("reward", {"u,go": "1", "v,go": 0.0}, "reward row 'u,go'"),
    ("reward", 5, "'reward'"),
    ("actions", "go", "'actions'"),
    ("signals", [], "'signals'"),
    ("initial_belief", ["0.5", "0.5"], "initial_belief entry 0"),
    ("initial_belief", 1.0, "'initial_belief'"),
])
def test_load_scenario_names_a_field_of_the_wrong_type(field, value, named):
    doc = _scenario_doc()
    doc[field] = value
    with pytest.raises(ScenarioValidationError, match=re.escape(named)):
        pe.load_scenario(doc)


def test_load_scenario_names_a_path_it_cannot_read(tmp_path):
    # a directory exists, so it is read as a path, and reading it fails
    for source in (tmp_path, str(tmp_path)):
        with pytest.raises(ScenarioValidationError, match=re.escape(f"{tmp_path} cannot be read")):
            pe.load_scenario(source)


def test_load_scenario_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe\x00")
    for source in (path, str(path)):
        with pytest.raises(ScenarioValidationError, match=re.escape(f"{path} is not UTF-8")):
            pe.load_scenario(source)


def test_pomdp_from_tables_takes_any_iterable_of_names():
    p = pe.pomdp_from_tables(range(1), ("go",), iter(["o"]), {"0,go": {"0,o": 1.0}},
                             {"0,go": 0.5})
    assert p.states == (0,) and p.signals == ("o",) and p.reward.tolist() == [[0.5]]


@pytest.mark.parametrize("doc", ["[1, 2]", "5", "null", '"x"', [_scenario_doc()]])
def test_load_scenario_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(ScenarioValidationError, match="JSON object"):
        pe.load_scenario(doc)


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
