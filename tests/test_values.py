"""Values and weighted payoffs: dynamic programming, simulation, chains."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals.chain import product_chain
from pomdp_evals.errors import BudgetExceededError, InvalidInputError
from pomdp_evals.evaluations import EvalContext, weight_sums
from pomdp_evals.model import SIGNAL_PROB_FLOOR, belief_graph, belief_key
from pomdp_evals.playspace import SCALAR_PLAYS, one_block_stream, simulate_plays
from pomdp_evals.values import (average_extrema, value_n_sequence,
                                weighted_payoff_and_irregularity_mc,
                                weighted_payoff_chain)

from conftest import belief_payoffs, drifting_permutation, random_pomdp, sparse_instances


# ---------------------------------------------------------------------------
# Finite-horizon values
# ---------------------------------------------------------------------------

def test_value_of_frozen_matching_is_half(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    for n in (1, 5, 20):
        rep = pe.value_n(p, x1, n)
        assert abs(rep.value - 0.5) <= 1e-12
        assert rep.method == "exact_dp"


def test_value_of_revealed_matching_has_closed_form(revealed_matching):
    # stage 1 is a coin flip worth 1/2; every later stage is matched exactly,
    # so v_n = (1/2 + (n-1)) / n = 1 - 1/(2n)
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    for n in (1, 2, 8, 16):
        rep = pe.value_n(p, x1, n)
        assert abs(rep.value - (1.0 - 0.5 / n)) <= 1e-12


def test_value_sequence_matches_single_calls(revealed_matching):
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    seq = value_n_sequence(p, x1, 10)
    assert len(seq) == 10
    for n, v in enumerate(seq, start=1):
        assert np.isclose(v, pe.value_n(p, x1, n).value, atol=1e-12)


def test_discounted_value_examples(redraw, revealed_matching):
    # constant expected payoff 1/2 gives discounted value 1/2 at any rate
    p, x1 = redraw.pomdp, redraw.initial_belief
    for lam in (0.5, 0.1):
        rep = pe.value_discounted(p, x1, lam)
        assert abs(rep.value - 0.5) <= 1e-6
    # revealed matching: stage 1 worth 1/2, then 1 forever
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    rep = pe.value_discounted(p, x1, 0.5)
    assert abs(rep.value - (0.5 * 0.5 + 0.5 * 1.0)) <= 1e-6


def test_asymptotic_estimate_brackets_the_limit(revealed_matching):
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    rep = pe.asymptotic_value_estimate(p, x1, 16)
    assert abs(rep.value - 1.0) <= rep.error_bound
    assert rep.method == "truncated_dp"


class _RecursiveBeliefDp:
    """Reference: memoised recursive backward induction on (belief key,
    remaining stages), one scalar Bayes step per action, signal and node
    (signals below SIGNAL_PROB_FLOOR skipped); `discount` scales the
    continuation term."""

    def __init__(self, p, discount=1.0):
        self.p = p
        self.discount = discount
        self.memo = {}

    def total(self, x, t):
        if t == 0:
            return 0.0
        key = (belief_key(x), t)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        best = -np.inf
        for i in range(self.p.n_actions):
            cont = 0.0
            for s in range(self.p.n_signals):
                joint = x @ self.p.transition[:, i, :, s]
                prob = joint.sum()
                if prob >= SIGNAL_PROB_FLOOR:
                    cont += prob * self.total(joint / prob, t - 1)
            total = x @ self.p.reward[:, i] + self.discount * cont
            if total > best:
                best = total
        self.memo[key] = best
        return best


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances(), horizon=hst.integers(1, 6),
       lam=hst.floats(0.05, 0.95))
def test_backward_induction_matches_the_recursive_dp(case, horizon, lam):
    # zero transition cells give off-support signals and coinciding beliefs
    p, x1, _ = case
    ref = _RecursiveBeliefDp(p)
    totals = [ref.total(x1, n) for n in range(1, horizon + 1)]
    assert abs(pe.value_n(p, x1, horizon).value - totals[-1] / horizon) <= 1e-12
    seq = value_n_sequence(p, x1, horizon)
    assert np.allclose(seq, np.array(totals) / np.arange(1, horizon + 1), rtol=0, atol=1e-12)
    # tol = (1 - lam)^(horizon - 1/2) truncates the discounted sum at `horizon`
    rep = pe.value_discounted(p, x1, lam, tol=(1.0 - lam) ** (horizon - 0.5))
    assert rep.horizon_or_samples == horizon
    expected = lam * _RecursiveBeliefDp(p, discount=1.0 - lam).total(x1, horizon)
    assert abs(rep.value - expected) <= 1e-12


def test_an_off_support_code_adds_a_dirac_edge_of_probability_zero():
    # two frozen states revealed by the signal: from state 1 the signal of
    # state 0 never comes, yet its code keeps an edge, to the Dirac fallback
    # at state 0, which pays 1 a stage; with probability 0 the edge leaves
    # v_n at state 1's payoff
    trans = np.zeros((2, 1, 2, 2))
    trans[0, 0, 0, 0] = trans[1, 0, 1, 1] = 1.0
    p = pe.Pomdp(("k0", "k1"), ("stay",), ("o0", "o1"), trans, [[1.0], [0.25]])
    x1 = pe.dirac_belief(2, 1)
    beliefs, child, prob, _ = belief_graph(p, x1, 10)
    assert np.array_equal(beliefs, [[0.0, 1.0], [1.0, 0.0]])
    assert child[0].tolist() == [1, 0] and prob[0].tolist() == [0.0, 1.0]
    for n in (1, 2, 7):
        assert pe.value_n(p, x1, n).value == 0.25
        assert pe.value_n(p, beliefs[1], n).value == 1.0


def test_the_dp_merges_drifted_beliefs_and_agrees_with_the_recursive_dp():
    # the exact graph keeps each float the Bayes update makes; the DP's graph,
    # like the recursive DP, merges beliefs by their rounded key
    p, x1 = drifting_permutation()
    assert len(belief_graph(p, x1, 1000, 30)[0]) == 28
    assert len(belief_graph(p, x1, 1000, 30, rounded=True)[0]) == 6
    ref = _RecursiveBeliefDp(p)
    seq = value_n_sequence(p, x1, 30)
    want = [ref.total(x1, n) / n for n in range(1, 31)]
    assert np.allclose(seq, want, rtol=0, atol=1e-12)


def test_the_dp_merges_a_contracting_orbit_the_exact_graph_cannot_hold():
    # blind, two states: action i maps the probability q of state 0 to
    # 0.1 q + b_i with b = (0.1, 0.8), so the orbit contracts onto a Cantor
    # set with 12 287 points at 1e-12 but 533 154 floats
    trans = np.zeros((2, 2, 2, 1))
    for i, b in enumerate((0.1, 0.8)):
        trans[:, i, 0, 0] = b + 0.1, b
    trans[:, :, 1, 0] = 1.0 - trans[:, :, 0, 0]
    p = pe.Pomdp(("s", "u"), ("L", "R"), ("o",), trans, [[1.0, 0.3], [0.0, 0.8]])
    x1 = np.array([0.37, 0.63])
    assert belief_graph(p, x1, 20_000, 39) is None
    assert len(belief_graph(p, x1, 20_000, 39, rounded=True)[0]) == 12_287
    ref = _RecursiveBeliefDp(p)
    seq = value_n_sequence(p, x1, 40, budget=20_000)
    want = [ref.total(x1, n) / n for n in range(1, 11)]
    assert np.allclose(seq[:10], want, rtol=0, atol=1e-12)
    assert pe.value_n(p, x1, 40, budget=20_000).value == seq[-1]


def test_belief_budget_counts_distinct_beliefs(rng):
    # every transition cell is positive, so no two observed histories share a
    # belief and depths 0..h-1 hold sum_d (I*S)^d distinct beliefs
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    x1 = pe.uniform_belief(3)
    h = 5
    n = sum(4 ** d for d in range(h))
    pe.value_n(p, x1, h, budget=n)
    with pytest.raises(BudgetExceededError, match="budget"):
        pe.value_n(p, x1, h, budget=n - 1)


# ---------------------------------------------------------------------------
# Weighted payoffs
# ---------------------------------------------------------------------------

def test_exact_weighted_payoff_on_frozen_matching(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    e = pe.make_evaluation("state_block_ex1", l=4)
    strat = pe.block_switch_strategy(2, 0, 1, switch_after=4)
    rep = pe.weighted_payoff_exact(p, x1, strat, e, horizon=8)
    assert abs(rep.value - 1.0) <= 1e-12
    # uniform play only matches half the time
    rep = pe.weighted_payoff_exact(p, x1, pe.uniform_strategy(2), e, horizon=8)
    assert abs(rep.value - 0.5) <= 1e-12


def test_exact_weighted_payoff_reports_truncation_tail(frozen_matching):
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    e = pe.make_evaluation("discounted", lam=0.5)
    rep = pe.weighted_payoff_exact(p, x1, pe.uniform_strategy(2), e, horizon=12)
    assert abs(rep.value - 0.5) <= rep.error_bound
    assert rep.error_bound <= 0.5 ** 12 + 1e-12


def test_mc_weighted_payoff_is_exact_for_deterministic_play(blind):
    p = blind.pomdp
    e = pe.make_evaluation("n_stage", n=6)
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    rep = pe.weighted_payoff_mc(p, pe.dirac_belief(2, 1), t, e, horizon=6,
                                samples=100, seed=0)
    assert np.isclose(rep.value, 1.0)
    assert rep.error_bound == 0.0


def test_mc_weighted_payoff_matches_exact_tree(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    e = pe.make_evaluation("run_block_ex2", l=2)
    t = pe.always_strategy(2, 1, 0)
    exact = pe.weighted_payoff_exact(p, x1, t, e, horizon=10)
    mc = pe.weighted_payoff_mc(p, x1, t, e, horizon=10, samples=4000, seed=3)
    assert abs(mc.value - exact.value) <= mc.error_bound + 1e-9


def test_joint_mc_estimates_agree_with_separate_passes(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    e = pe.make_evaluation("run_block_ex2", l=3)
    t = pe.always_strategy(2, 1, 0)
    pay, irr = weighted_payoff_and_irregularity_mc(p, x1, t, e, horizon=80,
                                                   samples=2000, seed=5)
    pay2 = pe.weighted_payoff_mc(p, x1, t, e, horizon=80, samples=2000, seed=5)
    irr2 = pe.irregularity_mc(p, x1, t, e, horizon=80, samples=2000, seed=5)
    assert np.isclose(pay.value, pay2.value, atol=1e-12)
    assert np.isclose(irr.mean, irr2.mean, atol=1e-12)
    assert np.isclose(irr.std_error, irr2.std_error, atol=1e-12)


def test_chain_payoff_matches_tree_payoff(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    t = pe.always_strategy(2, 1, 0)
    c = product_chain(p, t, x1)
    for e in (pe.make_evaluation("n_stage", n=6),
              pe.make_evaluation("discounted", lam=0.3)):
        a = weighted_payoff_chain(c, e, horizon=40)
        b = pe.weighted_payoff_exact(p, x1, t, e, horizon=12)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=sparse_instances(), horizon=hst.integers(1, 4),
       kind=hst.sampled_from(["n_stage", "discounted", "run_block_ex2", "state_block_ex1"]),
       samples=hst.sampled_from([3, SCALAR_PLAYS, SCALAR_PLAYS + 1, 40]),
       seed=hst.integers(0, 2**16))
def test_mc_payoff_lies_within_five_sigma_of_the_exact_payoff(case, horizon, kind, samples,
                                                              seed):
    # sigma is the standard error of a mean of `samples` plays under the
    # enumerated law of the horizon-truncated payoff, which both estimators
    # target; the sampled standard error is 0 whenever every sampled play
    # pays the same, as few plays often do.  The examples are fixed
    # (derandomize): a 5-sigma miss by chance, from a rare play, still
    # comes about once in 10^4 examples.
    p, x1, rng = case
    m = int(rng.integers(1, 4))
    strat = pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, m),
                          rng.integers(0, m, (m, p.n_actions, p.n_signals)))
    e = pe.make_evaluation(kind, **{"n_stage": {"n": int(rng.integers(1, horizon + 1))},
                                    "discounted": {"lam": 0.5}}.get(kind, {"l": 2}))
    exact = pe.weighted_payoff_exact(p, x1, strat, e, horizon)
    b = pe.enumerate_plays(p, x1, strat, horizon)
    v = weight_sums(e, one_block_stream(b.states, b.actions, b.signals), horizon,
                    EvalContext(p, x1), p.reward)[0]
    sigma = np.sqrt(b.prob @ (v - exact.value) ** 2 / samples)
    mc = pe.weighted_payoff_mc(p, x1, strat, e, horizon, samples, seed)
    assert abs(mc.value - exact.value) <= 5 * sigma + 1e-12


# ---------------------------------------------------------------------------
# Long-run average proxies
# ---------------------------------------------------------------------------

def test_running_average_extrema_hand_example():
    g = [(0, np.array([[1.0], [0.0], [0.0], [1.0]]))]
    # prefix averages: 1, 1/2, 1/3, 1/2 ; default window is [2, 4]
    hi, lo = average_extrema(g, 4)
    assert np.isclose(hi[0], 0.5)
    assert np.isclose(lo[0], 1 / 3)
    assert np.isclose(average_extrema(g, 4, window_start=1)[0][0], 1.0)
    with pytest.raises(InvalidInputError):
        average_extrema(g, 4, window_start=9)


def test_liminf_proxy_never_exceeds_limsup_proxy(rng):
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    x1 = pe.uniform_belief(3)
    lo = pe.limsup_belief_payoff_mc(p, x1, pe.uniform_strategy(2), 60, 200, 4,
                                    mode="liminf")
    hi = pe.limsup_belief_payoff_mc(p, x1, pe.uniform_strategy(2), 60, 200, 4,
                                    mode="limsup")
    assert lo.value <= hi.value + 1e-12


@pytest.mark.parametrize("estimate", [
    lambda p, x1, t, e: pe.weighted_payoff_mc(p, x1, t, e, 10, 0, 1),
    lambda p, x1, t, e: weighted_payoff_and_irregularity_mc(p, x1, t, e, 10, 0, 1),
    lambda p, x1, t, e: pe.irregularity_mc(p, x1, t, e, 10, 0, 1),
    lambda p, x1, t, e: pe.limsup_belief_payoff_mc(p, x1, t, 10, 0, 1),
])
def test_mc_estimators_reject_zero_samples(redraw, estimate):
    p, x1 = redraw.pomdp, redraw.initial_belief
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    with pytest.raises(InvalidInputError):
        estimate(p, x1, t, pe.make_evaluation("n_stage", n=6))


# each count once where the layers share it; these ran truncated, reported a
# fractional count or raised a raw TypeError or ValueError
@pytest.mark.parametrize("name, call", [
    ("samples", lambda p, x1, t, e: pe.weighted_payoff_mc(p, x1, t, e, 6, 2.5, 1)),
    ("seed", lambda p, x1, t, e: pe.weighted_payoff_mc(p, x1, t, e, 6, 4, 1.5)),
    ("samples", lambda p, x1, t, e: pe.irregularity_mc(p, x1, t, e, 6, "4", 1)),
    ("horizon", lambda p, x1, t, e: pe.weighted_payoff_exact(p, x1, t, e, 2.5)),
    ("budget", lambda p, x1, t, e: pe.weighted_payoff_exact(p, x1, t, e, 3, budget=1e4)),
    ("horizon", lambda p, x1, t, e: simulate_plays(p, x1, t, 2.5, 3,
                                                   np.random.default_rng(0))),
    ("window_start", lambda p, x1, t, e: pe.limsup_belief_payoff_mc(p, x1, t, 8, 4, 1,
                                                                    window_start=3.5)),
    ("horizon", lambda p, x1, t, e: average_extrema([(0, np.zeros((4, 2)))], 4.0)),
    ("n", lambda p, x1, t, e: pe.value_n(p, x1, 2.5)),
    ("n", lambda p, x1, t, e: pe.value_n(p, x1, True)),
    ("budget", lambda p, x1, t, e: pe.value_n(p, x1, 3, budget=2.5)),
    ("n_max", lambda p, x1, t, e: pe.asymptotic_value_estimate(p, x1, n_max=3.5)),
    ("n_max", lambda p, x1, t, e: value_n_sequence(p, x1, "3")),
    ("budget", lambda p, x1, t, e: pe.value_discounted(p, x1, 0.5, budget=None)),
    ("tol", lambda p, x1, t, e: pe.value_discounted(p, x1, 0.5, tol=float("nan"))),
    ("lam", lambda p, x1, t, e: pe.value_discounted(p, x1, "0.5")),
])
def test_api_counts_are_checked_not_truncated(redraw, name, call):
    p, x1 = redraw.pomdp, redraw.initial_belief
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    with pytest.raises(InvalidInputError, match=rf"^{name} (has a non-integer|is )"):
        call(p, x1, t, pe.make_evaluation("n_stage", n=3))


def test_belief_and_state_modes_coincide_when_states_are_revealed(revealed_matching):
    # beliefs collapse to Dirac masses after one stage, so belief payoffs and
    # state payoffs agree except at the first stage
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    st, ac, sg = simulate_plays(p, x1, pe.uniform_strategy(2), 40, 100,
                                np.random.default_rng(8))
    state_pay = p.reward[st, ac]
    belief_pay = belief_payoffs(p, x1, ac, sg)
    assert np.allclose(state_pay[:, 1:], belief_pay[:, 1:], atol=1e-12)


def test_blind_belief_mode_limsup_is_exactly_half(blind):
    # the blind belief stays uniform forever, so the belief payoff is 1/2
    p, x1 = blind.pomdp, blind.initial_belief
    rep = pe.limsup_belief_payoff_mc(p, x1, pe.doubling_strategy(), 500, 50, 2,
                                     mode="limsup", payoff_on="belief")
    assert np.isclose(rep.value, 0.5, atol=1e-12)
