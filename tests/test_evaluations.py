"""Stage-weight evaluations: makers, irregularity, conditional weights."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals.errors import BudgetExceededError, InvalidInputError, TruncationError
from pomdp_evals.evaluations import (EvalContext, _eta_stages, block_smooth,
                                     conditional_evaluation, eta_horizon, irregularity_supremum,
                                     pathwise_irregularity, weight_sums)
from pomdp_evals.playspace import enumerate_plays, one_block_stream, simulate_plays
from pomdp_evals.values import weighted_payoff_and_irregularity_mc

from conftest import random_pomdp, sparse_instances


def one_play(states, actions=None, signals=None):
    """A batch holding one play; actions and signals default to zeros."""
    states = np.asarray(states)[None, :]
    zeros = np.zeros_like(states)
    return (states,
            zeros if actions is None else np.asarray(actions)[None, :],
            zeros if signals is None else np.asarray(signals)[None, :])


# ---------------------------------------------------------------------------
# Deterministic weight makers
# ---------------------------------------------------------------------------

def test_uniform_prefix_weights():
    e = pe.make_evaluation("n_stage", n=4)
    assert np.allclose(e.stage_fn(6), [0.25, 0.25, 0.25, 0.25, 0.0, 0.0])
    assert e.support_horizon == 4
    assert e.normalization == "pointwise"
    assert e.measurability == "prefix-observed"


def test_geometric_weights():
    e = pe.make_evaluation("discounted", lam=0.25)
    w = e.stage_fn(5)
    assert np.allclose(w, 0.25 * 0.75 ** np.arange(5))
    assert e.support_horizon is None
    assert np.isclose(e.mass_tail(20), 0.75 ** 20)


def test_decreasing_weights_validate_monotonicity():
    e = pe.make_evaluation("decreasing", weights=[0.5, 0.3, 0.2])
    assert e.normalization == "pointwise"
    assert np.allclose(e.stage_fn(2), [0.5, 0.3])
    with pytest.raises(InvalidInputError):
        pe.make_evaluation("decreasing", weights=[0.2, 0.5])


def test_piecewise_constant_weights():
    e = pe.make_evaluation("piecewise_constant", breaks=[2, 4], levels=[0.3, 0.2])
    assert np.allclose(e.stage_fn(6), [0.3, 0.3, 0.2, 0.2, 0.0, 0.0])
    assert e.normalization == "pointwise"
    with pytest.raises(InvalidInputError):
        pe.make_evaluation("piecewise_constant", breaks=[4, 2], levels=[0.1, 0.1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_weight_makers_reject_non_finite_entries(bad):
    with pytest.raises(InvalidInputError, match="weights entry 1"):
        pe.make_evaluation("decreasing", weights=[0.5, bad, 0.1])
    with pytest.raises(InvalidInputError, match="levels entry 0"):
        pe.make_evaluation("piecewise_constant", breaks=[2, 3], levels=[bad, 0.1])


def test_evaluation_has_exactly_one_weight_function():
    with pytest.raises(InvalidInputError):
        pe.Evaluation(kind="none", measurability="general", normalization="none")
    with pytest.raises(InvalidInputError):
        pe.Evaluation(kind="both", measurability="general", normalization="none",
                      stage_fn=np.ones, batch_fn=lambda *play: None)
    assert pe.make_evaluation("n_stage", n=2).deterministic
    assert not pe.make_evaluation("run_block_ex2", l=2).deterministic


def test_evaluation_spec_parsing_accepts_json_and_aliases():
    e = pe.evaluation_from_spec('{"kind": "discounted", "lambda": 0.5}')
    assert e.params["lam"] == 0.5
    with pytest.raises(InvalidInputError):
        pe.evaluation_from_spec('{"n": 3}')
    with pytest.raises(InvalidInputError):
        pe.make_evaluation("nope")


# ---------------------------------------------------------------------------
# Play-dependent weight makers
# ---------------------------------------------------------------------------

def test_initial_state_block_weights(frozen_matching):
    p = frozen_matching.pomdp
    e = pe.make_evaluation("state_block_ex1", l=3)
    early = e.batch_weights(*one_play(np.zeros(6, dtype=int)))[0]
    late = e.batch_weights(*one_play(np.ones(6, dtype=int)))[0]
    assert np.allclose(early, [1 / 3] * 3 + [0] * 3)
    assert np.allclose(late, [0] * 3 + [1 / 3] * 3)
    assert e.measurability == "prefix-full"
    assert e.support_horizon == 6


def test_state_run_block_weights():
    e = pe.make_evaluation("run_block_ex2", l=2)
    # first length-2 target run after stage 1 sits at stages 3-4
    w = e.batch_weights(*one_play([0, 1, 0, 0, 0, 1]))[0]
    assert np.allclose(w, [0, 0, 0.5, 0.5, 0, 0])
    assert np.allclose(e.batch_weights(*one_play(np.ones(6, dtype=int))), 0.0)
    # a run that begins at stage 1 only counts from stage 2 onward
    assert np.allclose(e.batch_weights(*one_play([0, 0, 1, 1, 1, 1])), 0.0)


_ESTIMATORS = {
    "weighted_payoff_mc": lambda p, x1, s, e: pe.weighted_payoff_mc(p, x1, s, e, 6, 10, 1),
    "weighted_payoff_exact": lambda p, x1, s, e: pe.weighted_payoff_exact(p, x1, s, e, 4),
    "weighted_payoff_and_irregularity_mc":
        lambda p, x1, s, e: weighted_payoff_and_irregularity_mc(p, x1, s, e, 6, 10, 1),
    "irregularity_mc": lambda p, x1, s, e: pe.irregularity_mc(p, x1, s, e, 6, 10, 1),
    "irregularity_exact": lambda p, x1, s, e: pe.irregularity_exact(p, x1, s, e, 4),
    "conditional_table": lambda p, x1, s, e: pe.conditional_table(p, x1, s, e, 3),
}


@pytest.mark.parametrize("estimator", sorted(_ESTIMATORS))
@pytest.mark.parametrize("spec", [{"kind": "run_block_ex2", "l": 3, "target_state": 5},
                                  {"kind": "run_block_ex2", "l": 3, "target_state": -1},
                                  {"kind": "state_block_ex1", "l": 2, "early_state": 9},
                                  {"kind": "state_block_ex1", "l": 2, "early_state": 2}])
def test_every_estimator_rejects_a_state_index_outside_the_pomdp(redraw, estimator, spec):
    # uniform-redraw has states 0 and 1: an evaluation naming another state
    # is an input error on the API path too, not weights of 0
    key = "target_state" if "target_state" in spec else "early_state"
    e = pe.evaluation_from_spec(spec)
    with pytest.raises(InvalidInputError,
                       match=rf"{key} {spec[key]} is not a state index in \[0, 2\)"):
        _ESTIMATORS[estimator](redraw.pomdp, redraw.initial_belief, pe.uniform_strategy(2), e)
    e = pe.evaluation_from_spec({**spec, key: 1})
    try:
        _ESTIMATORS[estimator](redraw.pomdp, redraw.initial_belief, pe.uniform_strategy(2), e)
    except TruncationError:      # a run block has no exact irregularity at a finite horizon
        assert (estimator, e.kind) == ("irregularity_exact", "run_block_ex2")


def run_block_reference(states, l: int, target_state: int = 0) -> np.ndarray:
    """Per-play run-block rule: weight 1/l on the first l consecutive stages
    in the target state, searched from stage 2 onward."""
    out = np.zeros(len(states))
    flags = np.asarray(states[1:]) == target_state
    for j in range(len(flags) - l + 1):
        if flags[j:j + l].all():
            out[j + 1:j + 1 + l] = 1.0 / l
            break
    return out


def test_run_block_batch_weights_match_per_play(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    e = pe.make_evaluation("run_block_ex2", l=3)
    st, ac, sg = simulate_plays(p, x1, pe.always_strategy(2, 1, 0), 60, 40,
                                np.random.default_rng(2))
    no_run = np.ones(60, dtype=np.int32)
    at_end = no_run.copy()
    at_end[-3:] = 0                      # run ends at the last stage
    before_search = no_run.copy()
    before_search[:3] = 0                # stage 1 is not searched
    st = np.vstack([st, no_run, at_end, before_search])
    ac, sg = np.vstack([ac, ac[:3]]), np.vstack([sg, sg[:3]])
    # horizon - 1 == l: the only possible run fills stages 2..4
    short = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.int32)
    for plays in ((st, ac, sg), (short, short, short)):
        batch = e.batch_weights(*plays)
        for j in range(len(plays[0])):
            assert np.array_equal(batch[j], run_block_reference(plays[0][j], 3))
    third = [1 / 3] * 3
    assert batch[0, 1:].tolist() == third and not batch[1].any()
    batch = e.batch_weights(st, ac, sg)
    assert not batch[[40, 42]].any() and batch[41, -3:].tolist() == third


def test_prefix_observed_weights_ignore_the_future(rng):
    # deterministic stage weights cannot react to suffix perturbations
    p = random_pomdp(rng, k=2, n_i=2, n_s=2)
    e = pe.make_evaluation("n_stage", n=3)
    wa = e.batch_weights(*one_play([0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1]))[0]
    wb = e.batch_weights(*one_play([0, 1, 1, 0], [0, 0, 0, 0], [0, 1, 1, 0]))[0]
    assert np.allclose(wa[:2], wb[:2])   # shared prefix of observed pairs
    assert np.allclose(wa, wb)           # deterministic kind: equal everywhere


def test_pointwise_normalization_across_enumerated_plays(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    e = pe.make_evaluation("state_block_ex1", l=2)
    b = enumerate_plays(p, x1, pe.uniform_strategy(2), horizon=4)
    w = e.batch_weights(b.states, b.actions, b.signals)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Pathwise irregularity
# ---------------------------------------------------------------------------

def test_pathwise_irregularity_hand_examples():
    assert np.isclose(pathwise_irregularity(np.array([1.0, 0, 0])), 2.0)
    assert np.isclose(pathwise_irregularity(np.array([0.25, 0.25, 0.25, 0.25])), 0.5)
    assert np.isclose(pathwise_irregularity(np.array([0.0, 0.5, 0.0, 0.5])), 2.0)
    w = 0.3 * 0.7 ** np.arange(50)
    assert np.isclose(pathwise_irregularity(w), 0.6, atol=1e-9)


def test_batched_irregularity_matches_loop(rng):
    # the weight fold's irregularity on a one-block stream of 10 plays whose
    # weights are the rows of w
    w = rng.random((10, 8))
    e = pe.Evaluation(kind="rows", measurability="general", normalization="none",
                      batch_fn=lambda blocks, ctx: ((*blk, w.T, None) for blk in blocks))
    batch = weight_sums(e, one_block_stream(*np.zeros((3, 10, 8), dtype=int)), 8)[2]
    for j in range(10):
        assert np.isclose(batch[j], pathwise_irregularity(w[j]))


# ---------------------------------------------------------------------------
# Irregularity of evaluations
# ---------------------------------------------------------------------------

def test_exact_irregularity_closed_forms(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    strat = pe.uniform_strategy(2)
    for n in (2, 5, 10):
        rep = pe.irregularity_exact(p, x1, strat, pe.make_evaluation("n_stage", n=n),
                                    horizon=n)
        assert abs(rep.value - 2.0 / n) <= 1e-12
        assert rep.lower <= rep.value <= rep.upper
    for l in (2, 4):
        rep = pe.irregularity_exact(p, x1, strat,
                                    pe.make_evaluation("state_block_ex1", l=l),
                                    horizon=2 * l)
        assert abs(rep.value - 2.0 / l) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(case=sparse_instances(), lam=hst.floats(0.01, 1.0), horizon=hst.integers(1, 200),
       l_h=hst.sampled_from([(1, 2), (1, 3), (2, 4)]))
def test_exact_irregularity_of_discounted_and_state_block_weights(case, lam, horizon, l_h):
    # the discounted weights telescope to 2*lam at every horizon; the
    # state-block weights rise to 1/l and fall back once on every play
    # whose window fits the horizon
    p, x1, rng = case
    m = int(rng.integers(1, 3))
    strat = pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, m),
                          rng.integers(0, m, (m, p.n_actions, p.n_signals)))
    rep = pe.irregularity_exact(p, x1, strat, pe.make_evaluation("discounted", lam=lam), horizon)
    assert rep.lower - 1e-12 <= 2 * lam <= rep.upper + 1e-12
    l, h = l_h
    rep = pe.irregularity_exact(p, x1, pe.uniform_strategy(p.n_actions),
                                pe.make_evaluation("state_block_ex1", l=l,
                                                   early_state=int(rng.integers(p.n_states))), h)
    assert rep.lower == rep.upper and abs(rep.value - 2.0 / l) <= 1e-12


def test_truncated_exact_irregularity_brackets_the_tail(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    e = pe.make_evaluation("discounted", lam=0.5)
    rep = pe.irregularity_exact(p, x1, pe.uniform_strategy(2), e, horizon=60)
    assert abs(rep.value - 1.0) <= 1e-9
    assert rep.upper - rep.lower <= 2 * rep.tail_bound + 1e-9


def test_truncation_error_when_support_exceeds_horizon(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    e = pe.make_evaluation("state_block_ex1", l=8)
    with pytest.raises(TruncationError):
        pe.irregularity_exact(p, x1, pe.uniform_strategy(2), e, horizon=4)


def test_mc_irregularity_is_exact_for_deterministic_weights(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    est = pe.irregularity_mc(p, x1, pe.always_strategy(2, 1, 0),
                             pe.make_evaluation("n_stage", n=10), horizon=10,
                             samples=200, seed=1)
    assert np.isclose(est.mean, 0.2, atol=1e-12)
    assert est.std_error == 0.0


def test_mc_irregularity_tracks_run_block_value(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    est = pe.irregularity_mc(p, x1, pe.always_strategy(2, 1, 0),
                             pe.make_evaluation("run_block_ex2", l=3),
                             horizon=200, samples=3000, seed=7)
    assert abs(est.mean - 2.0 / 3) <= 3 * est.std_error + 1e-3


def test_schedule_sweep_irregularity(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    # initial-state block weights do not depend on the actions played, so the
    # sweep maximum equals the common value
    rep = irregularity_supremum(p, x1, pe.make_evaluation("state_block_ex1", l=2),
                                horizon=4)
    assert abs(rep.value - 1.0) <= 1e-12
    with pytest.raises(BudgetExceededError):
        irregularity_supremum(p, x1, pe.make_evaluation("n_stage", n=4), horizon=20)


# ---------------------------------------------------------------------------
# Empirical limsup stopping stage
# ---------------------------------------------------------------------------

def _eta_oracle(g, l):
    g = np.asarray(g, dtype=float)
    n = len(g)
    avg = [g[:m].mean() for m in range(1, n + 1)]
    proxy = max(avg[max(n // 2, 1) - 1:])
    for m in range(l, n + 1):
        if avg[m - 1] >= proxy - 1.0 / l - 1e-12:
            return m
    return int(np.argmax(avg)) + 1


def test_eta_on_constant_payoffs_is_l():
    for l in (1, 3, 7):
        assert eta_horizon(np.full(40, 0.4), l) == l


def test_eta_matches_independent_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(8, 60))
        g = (rng.random(n) < rng.random()).astype(float)
        l = int(rng.integers(1, 6))
        assert eta_horizon(g, l) == _eta_oracle(g, l)


def test_eta_of_every_play_at_once_matches_the_oracle(rng):
    # the columns of one payoff matrix; 0/1 payoffs tie often, and l = n
    # often has no hit, so eta falls back to the largest prefix average
    for n, plays in ((1, 3), (8, 5), (17, 50), (60, 20)):
        g = (rng.random((n, plays)) < rng.random(plays)).astype(float)
        for l in sorted({1, min(3, n), n}):
            assert _eta_stages(g, l).tolist() == [_eta_oracle(g[:, j], l)
                                                  for j in range(plays)]


def test_eta_validates_inputs():
    with pytest.raises(InvalidInputError):
        eta_horizon(np.ones(3), 5)
    with pytest.raises(InvalidInputError):
        eta_horizon(np.ones(3), 0)


@pytest.mark.parametrize("payoffs, l", [
    ([0.5] * 6, 2.5), ([0.5] * 6, True), ([0.5] * 6, "2"), ([0.5] * 6, None),
    ([[0.5] * 6], 2), (np.full((6, 1), 0.5), 2), (0.5, 1), ([[0.5, 0.5], [0.5]], 1),
    ([0.5, float("nan"), 0.2], 1), ([0.5, float("inf")], 1), (["0.5", "0.2"], 1),
    ([True, False, True], 1), ([0.5, None], 1)])
def test_eta_horizon_takes_a_1d_finite_sequence_and_an_integer_l(payoffs, l):
    # a float l raised a raw TypeError, True ran as l = 1, a 2-D input raised
    # a raw TypeError, and a NaN payoff silently gave stage 2
    with pytest.raises(InvalidInputError):
        eta_horizon(payoffs, l)


def test_limsup_weights_are_uniform_up_to_eta(blind):
    p, x1 = blind.pomdp, blind.initial_belief
    e = pe.make_evaluation("limsup_theta", l=4, horizon=16)
    ctx = EvalContext(p, x1)
    play = one_play(np.zeros(16, dtype=int))
    w = e.batch_weights(*play, ctx)[0]
    # blind beliefs stay uniform, payoffs are constant, so eta = l
    assert np.allclose(w, [0.25] * 4 + [0.0] * 12)
    with pytest.raises(InvalidInputError):
        e.batch_weights(*play)   # needs the model context


# ---------------------------------------------------------------------------
# Block smoothing
# ---------------------------------------------------------------------------

def test_block_smoothing_holds_the_first_weight_of_each_block():
    e = pe.make_evaluation("discounted", lam=0.5)
    sm = block_smooth(e, 3)
    w = sm.stage_fn(7)
    base = e.stage_fn(7)
    assert np.allclose(w, [base[0]] * 3 + [base[3]] * 3 + [base[6]])
    assert sm.measurability == e.measurability


def test_block_smoothing_an_unbounded_deterministic_base_computes_no_weights():
    # the normalisation is "none" whenever the support is unbounded, so the
    # smoothed evaluation needs no weights of the base before it is used
    base = pe.make_evaluation("discounted", lam=0.5)
    calls = []

    def stage_fn(horizon):
        calls.append(horizon)
        return base.stage_fn(horizon)

    sm = block_smooth(dataclasses.replace(base, stage_fn=stage_fn), 3)
    assert calls == [] and sm.normalization == "none"
    assert np.array_equal(sm.stage_fn(7), base.stage_fn(7)[[0, 0, 0, 3, 3, 3, 6]])


def test_block_smoothing_with_unit_block_is_identity():
    e = pe.make_evaluation("n_stage", n=4)
    assert block_smooth(e, 1) is e


def test_block_smoothing_aligned_blocks_preserve_uniform_weights():
    e = pe.make_evaluation("n_stage", n=4)
    sm = block_smooth(e, 2)
    assert np.allclose(sm.stage_fn(6), e.stage_fn(6))
    assert sm.normalization == "pointwise"


# ---------------------------------------------------------------------------
# Conditional weights on the observed tree
# ---------------------------------------------------------------------------

def test_conditional_weights_average_over_hidden_state(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    for l in (2, 4):
        e = pe.make_evaluation("state_block_ex1", l=l)
        cond = conditional_evaluation(p, x1, pe.uniform_strategy(2), e, horizon=2 * l)
        assert cond.measurability == "prefix-observed"
        assert cond.normalization == "in-expectation"
        table = cond.params["table"]
        # both initial states are equally likely at every observed node, so
        # the conditional weight is 1/(2l) everywhere
        assert all(np.isclose(v, 1.0 / (2 * l)) for v in table.rho.values())


def test_conditional_weights_fix_observable_evaluations(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    e = pe.make_evaluation("n_stage", n=3)
    cond = conditional_evaluation(p, x1, pe.uniform_strategy(2), e, horizon=3)
    table = cond.params["table"]
    for (m, _, _), v in table.rho.items():
        assert np.isclose(v, 1.0 / 3 if m <= 3 else 0.0)


def test_conditional_table_children_match_a_scan_over_all_prefixes(rng):
    p = random_pomdp(rng, k=2, n_i=2, n_s=2)
    x1 = pe.uniform_belief(2)
    strat = pe.RandomBehaviorStrategy(2, 3)
    table = pe.conditional_table(p, x1, strat, pe.make_evaluation("state_block_ex1", l=2), 4)
    assert len(table.mass) > 4
    for m, acts, sigs in table.mass:
        scan = [k for k in table.mass
                if k[0] == m + 1 and k[1][:m - 1] == acts and k[2][:m - 1] == sigs]
        assert sorted(table.children((m, acts, sigs))) == sorted(scan)
        if m < 4:
            assert scan


def test_conditional_weights_are_normalized_in_expectation(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    e = pe.make_evaluation("state_block_ex1", l=3)
    strat = pe.uniform_strategy(2)
    cond = conditional_evaluation(p, x1, strat, e, horizon=6)
    ctx = EvalContext(p, x1)
    b = enumerate_plays(p, x1, strat, 6)
    total = b.prob @ cond.batch_weights(b.states, b.actions, b.signals, ctx).sum(axis=1)
    assert np.isclose(total, 1.0, atol=1e-9)
