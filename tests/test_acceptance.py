"""End-to-end acceptance suite: pinned numbers for the bundled instances and
property checks at their stated tolerances."""
import time

import numpy as np
import pytest

import pomdp_evals as pe
from pomdp_evals.chain import (ergodic_decomposition, liminf_value_transducer,
                               mixing_threshold, product_chain)
from pomdp_evals.evaluations import EvalContext, conditional_evaluation
from pomdp_evals.playspace import enumerate_plays, simulate_plays
from pomdp_evals.values import (average_extrema, value_n_sequence,
                                weighted_payoff_and_irregularity_mc,
                                weighted_payoff_chain)

from conftest import belief_payoffs
from test_measures import lp_transport, random_measure


def test_frozen_matching_values_payoff_and_irregularity():
    start = time.monotonic()
    sc = pe.builtin_scenario("matching-frozen")
    p, x1 = sc.pomdp, sc.initial_belief
    for v in value_n_sequence(p, x1, 50):
        assert abs(v - 0.5) <= 1e-9
    for l in (2, 4, 8, 16):
        e = pe.make_evaluation("state_block_ex1", l=l)
        strat = pe.block_switch_strategy(2, 0, 1, switch_after=l)
        payoff = pe.weighted_payoff_exact(p, x1, strat, e, horizon=2 * l)
        assert abs(payoff.value - 1.0) <= 1e-9
        irr = pe.irregularity_exact(p, x1, strat, e, horizon=2 * l)
        assert abs(irr.value - 2.0 / l) <= 1e-9
    assert time.monotonic() - start < 5.0


def test_redraw_chain_ergodics_and_run_weighted_payoff():
    start = time.monotonic()
    sc = pe.builtin_scenario("uniform-redraw")
    p, x1 = sc.pomdp, sc.initial_belief
    strat = pe.always_strategy(p.n_actions, p.n_signals, 0)
    dec = ergodic_decomposition(product_chain(p, strat, x1))
    assert dec.n_classes == 1
    assert np.allclose(dec.stationary[0], [0.5, 0.5], atol=1e-9)
    assert abs(dec.class_values[0] - 0.5) <= 1e-9
    for l in (5, 10):
        e = pe.make_evaluation("run_block_ex2", l=l)
        # horizon long enough that a length-l run appears with prob 1 - e^-9
        horizon = max(50 * l, 9 * 2 ** (l + 1))
        payoff, irr = weighted_payoff_and_irregularity_mc(
            p, x1, strat, e, horizon, samples=10_000, seed=3)
        assert payoff.value >= 0.99
        assert abs(irr.mean - 2.0 / l) <= 3.0 * irr.std_error
    assert time.monotonic() - start < 30.0


def test_blind_chain_finite_memory_gap_to_doubling_play():
    start = time.monotonic()
    sc = pe.builtin_scenario("blind-switching")
    p, x1 = sc.pomdp, sc.initial_belief
    for t in pe.enumerate_transducers(p, max_memory=3):
        assert abs(liminf_value_transducer(p, x1, t) - 0.5) <= 1e-9
    strat = pe.doubling_strategy()
    sups, infs = [], []
    for k in range(2):
        x = pe.dirac_belief(2, k)
        sups.append(pe.limsup_belief_payoff_mc(
            p, x, strat, 100_000, 1, 0, mode="limsup", payoff_on="state",
            window_start=1).value)
        infs.append(pe.limsup_belief_payoff_mc(
            p, x, strat, 100_000, 1, 0, mode="liminf", payoff_on="state",
            window_start=1).value)
    assert min(sups) >= 0.9
    assert sum(infs) / 2 <= 0.2
    assert time.monotonic() - start < 60.0


def _reveal_recorded_value(lifted: pe.Pomdp) -> pe.Pomdp:
    """The payoff-tracking lift with the recorded value revealed: each signal
    s becomes (s, v'), where v' is the value component of the destination
    state.  States, actions, rewards and state dynamics are unchanged."""
    k, n_i, _, n_s = lifted.transition.shape
    values = sorted({float(v) for v in lifted.reward.ravel()})
    n_v = len(values)
    trans = np.zeros((k, n_i, k, n_s * n_v))
    for dst in range(k):
        v = dst % n_v
        trans[:, :, dst, v::n_v] = lifted.transition[:, :, dst, :]
    signals = tuple(f"{s}~{v:g}" for s in lifted.signals for v in values)
    return pe.Pomdp(lifted.states, lifted.actions, signals, trans, lifted.reward)


def test_lifted_blind_state_and_belief_limsup_agree():
    # State-mode and belief-mode limsup payoffs agree when payoffs are known:
    # the realised stage payoff is then fixed by the observed history, so the
    # two running averages coincide along every play.  The plain lift only
    # records the previous reward in the state; the blind chain's single
    # signal never reveals it, so has_known_payoffs(lift) is False (belief
    # payoffs sit at 0.5 while state payoffs follow a 0/1 path).  Revealing
    # the recorded value through the signal gives the lift known payoffs, and
    # the agreement is checked there.
    sc = pe.builtin_scenario("blind-switching-lift")
    lift, x1 = sc.pomdp, sc.initial_belief
    assert not pe.has_known_payoffs(lift)
    p = _reveal_recorded_value(lift)
    assert pe.has_known_payoffs(p)
    horizon, samples = 200, 1000
    for seed in range(5):
        strat = pe.RandomBehaviorStrategy(p.n_actions, seed)
        st, ac, sg = simulate_plays(p, x1, strat, horizon, samples,
                                    np.random.default_rng(100 + seed))
        state_payoffs = p.reward[st, ac].astype(float)
        belief_pay = belief_payoffs(p, x1, ac, sg)
        assert np.allclose(state_payoffs, belief_pay, rtol=0.0, atol=1e-12)
        state = average_extrema([(0, state_payoffs.T)], horizon)[0]
        belief = average_extrema([(0, belief_pay.T)], horizon)[0]
        diff = state - belief
        se = diff.std(ddof=1) / np.sqrt(samples)
        assert abs(diff.mean()) <= 3.0 * se


def test_lifted_blind_rewards_are_one_stage_shifts():
    # companion check for the lift construction: along matched plays the lift
    # reproduces the base rewards shifted by one stage (stage 1 reads the
    # pinned placeholder value)
    base = pe.builtin_scenario("blind-switching")
    lifted = pe.builtin_scenario("blind-switching-lift")
    strat = pe.doubling_strategy()
    horizon = 9
    bp = enumerate_plays(base.pomdp, base.initial_belief, strat, horizon)
    lp = enumerate_plays(lifted.pomdp, lifted.initial_belief, strat, horizon)
    assert len(bp) == len(lp) == 2
    # rows come in lexicographic order; the lift numbers (state, value) pairs
    # state-major, so matched plays share a row index
    assert np.allclose(bp.prob, lp.prob)
    base_r = base.pomdp.reward[bp.states, bp.actions]
    lift_r = lifted.pomdp.reward[lp.states, lp.actions]
    assert np.all(lift_r[:, 0] == 0.0)
    assert np.array_equal(lift_r[:, 1:], base_r[:, :-1])


def test_irregularity_closed_forms():
    sc = pe.builtin_scenario("matching-frozen")
    p, x1 = sc.pomdp, sc.initial_belief
    strat = pe.uniform_strategy(2)
    for n in (2, 10, 100):
        rep = pe.irregularity_exact(p, x1, strat,
                                    pe.make_evaluation("n_stage", n=n), horizon=n)
        assert abs(rep.value - 2.0 / n) <= 1e-12
    for lam in (0.5, 0.1, 0.01):
        horizon = int(np.ceil(np.log(1e-12) / np.log(1.0 - lam))) + 1
        assert (1.0 - lam) ** horizon < 1e-12
        rep = pe.irregularity_exact(p, x1, strat,
                                    pe.make_evaluation("discounted", lam=lam),
                                    horizon=horizon)
        assert abs(rep.value - 2.0 * lam) <= 1e-9


def test_conditional_weight_bounds_and_supermartingale_property():
    horizon = 24
    for name in ("blind-switching", "matching-frozen"):
        sc = pe.builtin_scenario(name)
        p, x1 = sc.pomdp, sc.initial_belief

        def rule(h, n=p.n_actions):
            if len(h) < 5:
                return np.full(n, 1.0 / n)
            out = np.zeros(n)
            out[0] = 1.0
            return out

        strat = pe.BehaviorStrategy(p.n_actions, rule)
        prev = None
        for l in (2, 4, 8):
            e = pe.make_evaluation("limsup_theta", l=l, horizon=horizon)
            cond = conditional_evaluation(p, x1, strat, e, horizon=horizon)
            table = cond.params["table"]
            for (m, *_), v in ((k, table.rho[k]) for k in table.rho):
                assert abs(v) <= min(1.0 / l, 1.0 / m) + 1e-9
            for key, v in table.rho.items():
                if key[0] >= horizon:
                    continue
                kids = table.children(key)
                if not kids:
                    continue
                mass = sum(table.mass[c] for c in kids)
                nxt = sum(table.mass[c] * table.rho[c] for c in kids) / mass
                assert nxt <= v + 1e-9
            irr = pe.irregularity_exact(p, x1, strat, cond, horizon=horizon)
            if prev is not None:
                assert irr.value <= prev + 1e-9
            prev = irr.value


def test_transport_distance_matches_lp_oracle_at_scale():
    rng = np.random.default_rng(77)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        mu, nu = random_measure(rng, k), random_measure(rng, k)
        assert abs(pe.kr_distance(mu, nu) - lp_transport(mu, nu)) <= 1e-9


def test_patient_evaluations_of_best_transducer_approach_the_limit_value():
    evals = [
        (pe.make_evaluation("n_stage", n=20), 0.1, 20),
        (pe.make_evaluation("n_stage", n=100), 0.02, 100),
        (pe.make_evaluation("discounted", lam=0.05), 0.1, 600),
        (pe.make_evaluation("discounted", lam=0.01), 0.02, 2800),
        (pe.make_evaluation("decreasing", weights=np.full(25, 0.04)), 0.08, 25),
        (pe.make_evaluation("piecewise_constant", breaks=[10, 30],
                            levels=[0.05, 0.025]), 0.1, 30),
    ]
    for name in ("blind-switching", "uniform-redraw"):
        sc = pe.builtin_scenario(name)
        p, x1 = sc.pomdp, sc.initial_belief
        vstar = pe.asymptotic_value_estimate(p, x1, 24).value
        transducers = pe.enumerate_transducers(p, max_memory=2)
        for e, irr_bound, horizon in evals:
            assert e.measurability == "prefix-observed"
            rep = pe.irregularity_exact(p, x1, pe.uniform_strategy(p.n_actions),
                                        e, horizon=max(horizon, 2800))
            assert rep.value <= irr_bound + 1e-9
            best, best_t = -np.inf, None
            for t in transducers:
                chain = product_chain(p, t, x1)
                val = weighted_payoff_chain(chain, e, horizon).value
                if val > best:
                    best, best_t = val, t
            l = mixing_threshold(product_chain(p, best_t, x1))
            assert best >= vstar - 4.0 * l * rep.value - 0.05


def test_invariant_measures_have_zero_residual():
    sc = pe.builtin_scenario("uniform-redraw")
    stat = pe.StationaryStrategy(2, [np.array([0.5, 0.5])],
                                 [np.array([0.5, 0.5])])
    assert pe.invariance_residual(sc.pomdp, pe.SupportedMeasure.dirac([0.5, 0.5]),
                                  stat) < 1e-9
    for seed in range(10):
        scn = pe.observed_random_chain(seed)
        p = scn.pomdp
        t = pe.always_strategy(p.n_actions, p.n_signals, 0)
        dec = ergodic_decomposition(product_chain(p, t, scn.initial_belief))
        cls, vec = dec.classes[0], dec.stationary[0]
        pi = np.zeros(p.n_states)
        for idx, w in zip(cls, vec):
            pi[idx] += w
        atoms = [(pe.dirac_belief(p.n_states, k), pi[k])
                 for k in range(p.n_states) if pi[k] > 0]
        mu = pe.SupportedMeasure.from_pairs(atoms)
        push = pe.StationaryStrategy(p.n_actions, [a for a, _ in atoms],
                                     [np.array([1.0])] * len(atoms))
        assert pe.invariance_residual(p, mu, push) < 1e-9
