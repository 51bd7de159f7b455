"""Play enumeration, belief sequences, and seeded simulation."""
import functools
import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals import playspace
from pomdp_evals.errors import BudgetExceededError, InvalidInputError
from pomdp_evals.model import ObservedHistory, bayes_matrices, bayes_update_rows, belief_graph
from pomdp_evals.playspace import (belief_payoff_blocks, enumerate_plays, play_blocks,
                                   shard_seeds, simulate_plays, BLOCK_CELLS, PROB_FLOOR,
                                   SCALAR_PLAYS, STAGE_BLOCK)

from conftest import (BUILTIN_SCENARIOS, belief_payoffs, belief_sequence, builtin_cases,
                      closed_instances, drifting_permutation, filter_payoffs, random_belief,
                      random_pomdp, sparse_instances)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerated_play_probabilities_sum_to_one(rng):
    for _ in range(5):
        p = random_pomdp(rng, k=2, n_i=2, n_s=2)
        x1 = random_belief(rng, 2)
        plays = enumerate_plays(p, x1, pe.uniform_strategy(2), horizon=4)
        assert np.isclose(plays.prob.sum(), 1.0, atol=1e-9)
        assert plays.states.shape == plays.actions.shape == plays.signals.shape
        assert plays.states.shape == (len(plays), 4)
        assert np.all(plays.prob > 0)


_PLAYS_FROM = {
    "enumerate": lambda p, x1, strat: enumerate_plays(p, x1, strat, 2),
    "simulate": lambda p, x1, strat: simulate_plays(p, x1, strat, 2, 3,
                                                    np.random.default_rng(0)),
    "mc": lambda p, x1, strat: pe.weighted_payoff_mc(p, x1, strat,
                                                     pe.make_evaluation("n_stage", n=2), 2, 3, 0),
    "chain": lambda p, x1, strat: pe.product_chain(p, strat, x1),
}


@pytest.mark.parametrize("entry, x1, strat, named", [
    ("enumerate", [1.0], pe.uniform_strategy(2), "dimension"),
    ("simulate", [0.2, 0.3, 0.5], pe.uniform_strategy(2), "dimension"),
    ("simulate", [1.5, -0.5], pe.uniform_strategy(2), "lie in"),
    ("mc", [np.nan, 1.0], pe.uniform_strategy(2), "finite"),
    ("chain", [0.7, 0.7], pe.always_strategy(2, 1, 0), "sum to"),
    ("enumerate", [0.5, 0.5], pe.uniform_strategy(3), "3 actions"),
    ("simulate", [0.5, 0.5], pe.uniform_strategy(3), "3 actions"),
    ("chain", [0.5, 0.5], pe.always_strategy(3, 1, 2), "3 actions"),
    ("simulate", [0.5, 0.5], pe.always_strategy(2, 2, 0), "2 signals"),
    ("chain", [0.5, 0.5], pe.always_strategy(2, 2, 0), "2 signals"),
])
def test_plays_start_only_from_a_belief_and_a_strategy_of_the_pomdp(blind, entry, x1, strat,
                                                                     named):
    # blind switching: 2 states, 2 actions, 1 signal
    with pytest.raises(InvalidInputError, match=named):
        _PLAYS_FROM[entry](blind.pomdp, x1, strat)


def test_enumeration_respects_node_budget(rng):
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    with pytest.raises(BudgetExceededError):
        enumerate_plays(p, pe.uniform_belief(3), pe.uniform_strategy(2),
                        horizon=12, budget=1000)


def test_observed_prefix_mass_is_consistent(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    mass = pe.conditional_table(p, x1, pe.uniform_strategy(2),
                                pe.make_evaluation("n_stage", n=3), 3).mass
    assert np.isclose(mass[(1, (), ())], 1.0)
    # stage masses each sum to 1
    for m in range(1, 4):
        tot = sum(v for (stage, _, _), v in mass.items() if stage == m)
        assert np.isclose(tot, 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Belief sequences
# ---------------------------------------------------------------------------

def test_belief_sequence_matches_iterated_bayes_updates(rng):
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    x1 = random_belief(rng, 3)
    actions = [0, 1, 0, 1]
    signals = [1, 0, 0, 1]
    seq = belief_sequence(p, x1, actions, signals)
    x = x1
    for m in range(4):
        assert np.allclose(seq[m], x, atol=1e-12)
        x = pe.bayes_update(p, x, actions[m], signals[m])


def test_belief_payoff_blocks_match_scalar_path(rng):
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    x1 = random_belief(rng, 3)
    st, ac, sg = simulate_plays(p, x1, pe.uniform_strategy(2), 6, 20,
                                np.random.default_rng(1))
    batch = belief_payoffs(p, x1, ac, sg)
    for j in range(20):
        seq = belief_sequence(p, x1, ac[j], sg[j])
        manual = [seq[m] @ p.reward[:, ac[j, m]] for m in range(6)]
        assert np.allclose(batch[j], manual, atol=1e-10)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_simulation_is_seed_deterministic(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    a = simulate_plays(p, x1, t, 30, 50, np.random.default_rng(9))
    b = simulate_plays(p, x1, t, 30, 50, np.random.default_rng(9))
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_transducer_simulation_on_deterministic_chain(blind):
    # playing T forever in the switching chain freezes the state
    p = blind.pomdp
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    st, ac, sg = simulate_plays(p, pe.dirac_belief(2, 1), t, 20, 8,
                                np.random.default_rng(0))
    assert np.all(st == 1) and np.all(ac == 0) and np.all(sg == 0)


def test_schedule_simulation_follows_switching_dynamics(blind):
    p = blind.pomdp
    sched = pe.block_switch_strategy(2, 0, 1, switch_after=3)
    st, ac, sg = simulate_plays(p, pe.dirac_belief(2, 0), sched, 6, 4,
                                np.random.default_rng(0))
    # hold in state 0 for 3 stages, then swap every stage
    assert np.array_equal(st[0], [0, 0, 0, 0, 1, 0])
    assert np.array_equal(ac[0], [0, 0, 0, 1, 1, 1])


def test_generic_and_batched_paths_agree_on_deterministic_chain(blind):
    p = blind.pomdp
    sched = pe.block_switch_strategy(2, 0, 1, switch_after=2)
    wrapped = pe.BehaviorStrategy(
        2, lambda h: np.eye(2)[sched.action_at_stage(len(h) + 1)])
    a = simulate_plays(p, pe.dirac_belief(2, 1), sched, 8, 3,
                       np.random.default_rng(4))
    b = simulate_plays(p, pe.dirac_belief(2, 1), wrapped, 8, 3,
                       np.random.default_rng(4))
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_schedule_with_an_action_out_of_range_is_rejected(blind):
    p, x1 = blind.pomdp, blind.initial_belief
    sched = pe.ScheduleStrategy(2, lambda t: -1 if t == STAGE_BLOCK + 2 else 0)
    with pytest.raises(InvalidInputError):
        simulate_plays(p, x1, sched, 2 * STAGE_BLOCK, 3, np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        enumerate_plays(p, x1, sched, 2 * STAGE_BLOCK)


def test_simulated_state_frequencies_match_the_law(redraw):
    p, x1 = redraw.pomdp, redraw.initial_belief
    t = pe.always_strategy(p.n_actions, p.n_signals, 0)
    st, _, _ = simulate_plays(p, x1, t, 100, 400, np.random.default_rng(11))
    freq = (st == 0).mean()
    se = 0.5 / np.sqrt(st.size)
    assert abs(freq - 0.5) <= 3 * se


def _reference_transducer(p, x1, strat, horizon, samples, rng):
    """Per-stage transducer loop the stage-blocked kernel must reproduce."""
    k, n_s, m = p.n_states, p.n_signals, strat.n_memory
    cum = np.empty((k * m, k * n_s))
    act_of = np.empty(k * m, dtype=np.int32)
    nxt_of = np.empty((k * m, k * n_s), dtype=np.int32)
    for kk in range(k):
        for mm in range(m):
            c = kk * m + mm
            i = int(strat.act[mm])
            act_of[c] = i
            cum[c] = np.cumsum(p.transition[kk, i].ravel())
            for code in range(k * n_s):
                nxt_of[c, code] = (code // n_s) * m + strat.update[mm, i, code % n_s]
    states = np.empty((samples, horizon), dtype=np.int32)
    actions = np.empty((samples, horizon), dtype=np.int32)
    signals = np.empty((samples, horizon), dtype=np.int32)
    start = rng.choice(k, size=samples, p=np.asarray(x1) / np.asarray(x1).sum())
    cur = (start * m + strat.initial).astype(np.int64)
    width = k * n_s
    flat = (cum + np.arange(k * m)[:, None]).ravel()
    for t in range(horizon):
        y = cur + rng.random(samples)
        code = np.searchsorted(flat, y, side="right") - cur * width
        np.clip(code, 0, width - 1, out=code)
        states[:, t] = cur // m
        actions[:, t] = act_of[cur]
        signals[:, t] = code % n_s
        cur = nxt_of[cur, code]
    return states, actions, signals


def _reference_schedule(p, x1, strat, horizon, samples, rng):
    """Per-stage open-loop schedule loop the stage-blocked kernel must reproduce."""
    k, n_i, n_s = p.n_states, p.n_actions, p.n_signals
    width = k * n_s
    cum = np.cumsum(p.transition.reshape(k, n_i, width), axis=2)
    flat = np.stack([
        (cum[:, i, :] + np.arange(k)[:, None]).ravel() for i in range(n_i)
    ])
    states = np.empty((samples, horizon), dtype=np.int32)
    actions = np.empty((samples, horizon), dtype=np.int32)
    signals = np.empty((samples, horizon), dtype=np.int32)
    cur = rng.choice(k, size=samples, p=np.asarray(x1) / np.asarray(x1).sum())
    for t in range(horizon):
        i = strat.action_at_stage(t + 1)
        y = cur + rng.random(samples)
        code = np.searchsorted(flat[i], y, side="right") - cur * width
        np.clip(code, 0, width - 1, out=code)
        states[:, t] = cur
        actions[:, t] = i
        signals[:, t] = code % n_s
        cur = code // n_s
    return states, actions, signals


def _signal_rule(n_actions, rng):
    """Behavior rule whose law rotates with the last observed signal."""
    law = rng.dirichlet(np.ones(n_actions))
    return pe.BehaviorStrategy(n_actions, lambda h: np.roll(law, h.signals[-1] if h else 0))


def _dense_instance_with_a_zero_cell(rng):
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    trans = p.transition.copy()
    trans[1, 0, 2, 1] = 0.0
    trans /= trans.sum(axis=(2, 3), keepdims=True)
    return pe.Pomdp(p.states, p.actions, p.signals, trans, p.reward)


@pytest.mark.parametrize("horizon", [1, STAGE_BLOCK - 1, STAGE_BLOCK,
                                     STAGE_BLOCK + 1, 3 * STAGE_BLOCK + 5,
                                     2 * BLOCK_CELLS // 7 + 5])
@pytest.mark.parametrize("samples", [1, 7, SCALAR_PLAYS, SCALAR_PLAYS + 1, 40])
def test_blocked_kernel_reproduces_per_stage_loops(rng, horizon, samples):
    # widths up to SCALAR_PLAYS take the kernel's scalar step, wider ones
    # its numpy step; the longest horizon takes several blocks of up to
    # BLOCK_CELLS cells at every width but 1
    p = _dense_instance_with_a_zero_cell(rng)
    x1 = random_belief(rng, 3)
    transducer = pe.Transducer(2, 2, rng.integers(0, 2, 5),
                               rng.integers(0, 5, (5, 2, 2)), initial=2)
    # Thue-Morse schedule: both actions occur inside every block
    schedule = pe.ScheduleStrategy(2, lambda t: bin(t).count("1") % 2)
    for strat, reference in ((transducer, _reference_transducer),
                             (schedule, _reference_schedule)):
        got = simulate_plays(p, x1, strat, horizon, samples, np.random.default_rng(17))
        want = reference(p, x1, strat, horizon, samples, np.random.default_rng(17))
        for g, w in zip(got, want):
            assert g.dtype == np.int32
            assert np.array_equal(g, w)


def _stream_blocks(p, x1, strat, horizon, streams, left, seed):
    """Every block of a chain-kernel stream that, after block j, retires
    plays at random until at most left[j] are kept (None: keeps them all)."""
    stream, pick, out = play_blocks(p, x1, strat, horizon, streams), \
        np.random.default_rng(seed), []
    for j, (t0, ids, *blk) in enumerate(stream):
        out.append((t0, ids.copy(), *blk))
        if j < len(left) and left[j] is not None:
            stream.retire(pick.permutation(ids)[:max(0, len(ids) - left[j])])
    return out


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances(), kind=hst.sampled_from(["transducer", "schedule"]),
       counts=hst.lists(hst.integers(0, SCALAR_PLAYS), min_size=2, max_size=4)
       .filter(lambda c: sum(c) > SCALAR_PLAYS),
       left=hst.lists(hst.one_of(hst.none(), hst.integers(0, 2 * SCALAR_PLAYS)),
                      min_size=3, max_size=3),
       last=hst.integers(0, SCALAR_PLAYS), seed=hst.integers(0, 2**16),
       cells=hst.sampled_from([0, 2000, BLOCK_CELLS]))
def test_scalar_and_numpy_steps_give_the_same_blocks(case, kind, counts, left, last, seed,
                                                     cells):
    # a pass that starts wider than SCALAR_PLAYS and retires plays block by
    # block, narrowing to at most `last` plays in its last blocks: its blocks
    # must equal, bit for bit, those of the same pass with every block on the
    # numpy step.  sparse_instances hold zero-probability cells.  Small
    # BLOCK_CELLS values keep several blocks within the horizon.
    with mock.patch.object(playspace, "BLOCK_CELLS", cells):
        _scalar_and_numpy_steps_give_the_same_blocks(case, kind, counts, left, last, seed)


def _scalar_and_numpy_steps_give_the_same_blocks(case, kind, counts, left, last, seed):
    p, x1, rng = case
    horizon = 5 * STAGE_BLOCK + 3
    if kind == "transducer":
        m = int(rng.integers(1, 5))
        strat = pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, m),
                              rng.integers(0, m, (m, p.n_actions, p.n_signals)),
                              initial=int(rng.integers(0, m)))
    else:
        plan = rng.integers(0, p.n_actions, horizon)
        strat = pe.ScheduleStrategy(p.n_actions, lambda t: int(plan[t - 1]))
    streams = lambda: [(np.random.default_rng([seed, j]), n) for j, n in enumerate(counts)]
    got = _stream_blocks(p, x1, strat, horizon, streams(), [*left, last], seed)
    with mock.patch.object(playspace, "SCALAR_PLAYS", 0):
        want = _stream_blocks(p, x1, strat, horizon, streams(), [*left, last], seed)
    assert len(got[0][1]) > SCALAR_PLAYS
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[0] == w[0]
        for a, b in zip(g[1:], w[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(width=hst.integers(1, 40), n_tables=hst.integers(1, 3), n_c=hst.integers(1, 5),
       sums=hst.lists(hst.sampled_from([-1e-12, 0.0, 1e-12]), min_size=1, max_size=5),
       n=hst.integers(1, 60), seed=hst.integers(0, 2**32 - 1))
def test_row_search_lands_where_searchsorted_lands_on_the_flat_table(width, n_tables, n_c,
                                                                     sums, n, seed):
    # the numpy step's search of a play's own row gives the code that
    # searchsorted gives on the whole flat table of rows 2c + cum[c, :-1]
    # with the guard 2c + 2, and the position searchsorted gives on the
    # padded table.  Rows hold zero-probability cells and sum to 1 +- 1e-12;
    # queries hit cumulative entries exactly, 0, and 1 - 2**-53, which
    # rounds 2c + u up to 2c + 1 for every c >= 1.
    rng = np.random.default_rng(seed)
    law = rng.random((n_tables, n_c, width)) * (rng.random((n_tables, n_c, width)) > 0.3)
    law[..., rng.integers(width)] += 0.1
    law /= law.sum(axis=2, keepdims=True)
    law *= 1.0 + np.resize(sums, (n_c, 1))
    cum = np.cumsum(law, axis=2)
    padded, levels = playspace._search_tables(cum)
    pad = padded.shape[2]
    assert pad >= width and pad & (pad - 1) == 0 and pad < 2 * width + (width == 1)
    shift = 2.0 * np.arange(n_c)[:, None]
    flat = np.concatenate([cum[:, :, :-1] + shift,
                           np.broadcast_to(shift + 2.0, (n_tables, n_c, 1))], axis=2)
    c = rng.integers(0, n_c, n)
    u = rng.choice(np.concatenate([rng.random(n), cum.ravel(), [0.0, 1.0 - 2.0 ** -53]]), n)
    u = u[u < 1.0]
    c = c[:len(u)]
    q = u + 2.0 * c
    for a in range(n_tables):
        got = playspace._row_search(levels[a], c, q, np.empty(len(c), dtype=np.int64),
                                    np.empty(len(c)), np.empty(len(c), dtype=bool))
        assert np.array_equal(got, padded[a].ravel().searchsorted(q, side="right"))
        code = flat[a].ravel().searchsorted(q, side="right") - c * width
        assert np.array_equal(got - c * pad, code)
        assert ((code >= 0) & (code < width)).all()


@pytest.mark.parametrize("short, long", [(STAGE_BLOCK - 3, STAGE_BLOCK + 2),
                                         (STAGE_BLOCK, 2 * STAGE_BLOCK + 1)])
def test_simulated_prefix_does_not_depend_on_horizon(rng, short, long):
    p = _dense_instance_with_a_zero_cell(rng)
    x1 = random_belief(rng, 3)
    transducer = pe.Transducer(2, 2, [0, 1, 1], rng.integers(0, 3, (3, 2, 2)))
    for strat in (transducer, pe.doubling_strategy(), pe.uniform_strategy(2),
                  pe.RandomBehaviorStrategy(2, 7), _signal_rule(2, rng)):
        a = simulate_plays(p, x1, strat, short, 5, np.random.default_rng(3))
        b = simulate_plays(p, x1, strat, long, 5, np.random.default_rng(3))
        for u, v in zip(a, b):
            assert np.array_equal(u, v[:, :short])


def _chi_square_p(p, x1, strat, horizon, samples, seed):
    """p-value of the sampled play counts against the enumerated play law.
    Plays are (states, actions, signals) rows; cells expected fewer than 5
    times are pooled into one bin."""
    b = enumerate_plays(p, x1, strat, horizon)
    support, where = np.unique(np.hstack([b.states, b.actions, b.signals]), axis=0,
                               return_inverse=True)
    prob = np.bincount(where.ravel(), weights=b.prob, minlength=len(support))
    index = {tuple(r): j for j, r in enumerate(support.tolist())}
    sampled = np.hstack(simulate_plays(p, x1, strat, horizon, samples,
                                       np.random.default_rng(seed)))
    rows, counts = np.unique(sampled, axis=0, return_counts=True)
    observed = np.zeros(len(support))
    for r, c in zip(rows.tolist(), counts):
        assert tuple(r) in index, f"sampled play {r} has probability 0"
        observed[index[tuple(r)]] = c
    expected = samples * prob
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    keep = expected > 0
    stat = float((((observed - expected) ** 2)[keep] / expected[keep]).sum())
    return float(scipy.stats.chi2.sf(stat, keep.sum() - 1))


def test_sampled_plays_follow_the_enumerated_law():
    # one chi-square test per strategy kind: 20 000 plays at horizon 3 on a
    # 2-state instance with a zero cell, generator seed 500 + the kind's index
    rng = np.random.default_rng(31)
    p = random_pomdp(rng, k=2, n_i=2, n_s=2)
    trans = p.transition.copy()
    trans[1, 0, 0, 1] = 0.0
    trans /= trans.sum(axis=(2, 3), keepdims=True)
    p = pe.Pomdp(p.states, p.actions, p.signals, trans, p.reward)
    x1 = random_belief(rng, 2)
    # the tracker's support: every belief held before stage 3, each with an
    # action law that depends on the belief
    weight = rng.random((2, 2)) + 0.1
    b = enumerate_plays(p, x1, pe.uniform_strategy(2), 3)
    beliefs = [belief_sequence(p, x1, a, s) for a, s in zip(b.actions, b.signals)]
    support = list({pe.belief_key(x): x for seq in beliefs for x in seq}.values())
    stat = pe.StationaryStrategy(2, support, [weight @ x / (weight @ x).sum() for x in support])
    strategies = [
        pe.uniform_strategy(2),
        pe.RandomBehaviorStrategy(2, 3),
        _signal_rule(2, rng),
        pe.belief_tracking_strategy(p, x1, stat),
        pe.Transducer(2, 2, [0, 1], [[[1, 0], [0, 1]], [[1, 1], [0, 0]]]),
        pe.ScheduleStrategy(2, lambda t: [0, 1, 1][t - 1]),
    ]
    for j, strat in enumerate(strategies):
        assert _chi_square_p(p, x1, strat, 3, 20_000, 500 + j) >= 1e-6, type(strat).__name__


# ---------------------------------------------------------------------------
# Properties on random instances
# ---------------------------------------------------------------------------

HORIZONS = hst.sampled_from([1, 2, STAGE_BLOCK - 1, STAGE_BLOCK, STAGE_BLOCK + 1,
                             2 * STAGE_BLOCK + 3])


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances(), horizon=HORIZONS, width=hst.integers(1, 6),
       data=hst.data())
def test_grouped_pass_equals_separate_shard_calls(case, horizon, width, data):
    p, x1, rng = case
    cuts = sorted(data.draw(hst.sets(hst.integers(1, width - 1), max_size=width - 1))
                  if width > 1 else [])
    counts = np.diff([0, *cuts, width]).tolist()
    seeds = [int(s) for s in rng.integers(0, 2**32, len(counts))]
    m = int(rng.integers(1, 5))
    transducer = pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, m),
                               rng.integers(0, m, (m, p.n_actions, p.n_signals)),
                               initial=int(rng.integers(0, m)))
    plan = rng.integers(0, p.n_actions, horizon)
    schedule = pe.ScheduleStrategy(p.n_actions, lambda t: int(plan[t - 1]))
    # stepped strategies have no reference loop; their per-stream calls are it
    for strat, reference in ((transducer, _reference_transducer),
                             (schedule, _reference_schedule),
                             (pe.uniform_strategy(p.n_actions), None),
                             (pe.RandomBehaviorStrategy(p.n_actions, seeds[0] % 100), None),
                             (_signal_rule(p.n_actions, rng), None)):
        streams = [(np.random.default_rng(s), n) for s, n in zip(seeds, counts)]
        grouped = simulate_plays(p, x1, strat, horizon, width, streams)
        separate = [simulate_plays(p, x1, strat, horizon, n, np.random.default_rng(s))
                    for s, n in zip(seeds, counts)]
        loops = separate if reference is None else \
            [reference(p, x1, strat, horizon, n, np.random.default_rng(s))
             for s, n in zip(seeds, counts)]
        for j, g in enumerate(grouped):
            assert g.shape == (width, horizon)
            assert np.array_equal(g, np.concatenate([play[j] for play in separate]))
            assert np.array_equal(g, np.concatenate([play[j] for play in loops]))


@settings(max_examples=60, deadline=None)
@given(case=sparse_instances(), horizon=HORIZONS, width=hst.integers(1, 6))
def test_belief_payoff_blocks_match_belief_sequences(case, horizon, width):
    # arbitrary observed histories: with zero cells many of them leave the
    # support, where both paths fall back to the Dirac at the first state;
    # one block over every stage, as an enumerated batch is filtered, gives
    # the payoffs of STAGE_BLOCK-stage blocks bit for bit
    p, x1, rng = case
    actions = rng.integers(0, p.n_actions, (width, horizon))
    signals = rng.integers(0, p.n_signals, (width, horizon))
    batch = belief_payoffs(p, x1, actions, signals)
    assert batch.shape == (width, horizon)
    assert np.array_equal(batch, belief_payoffs(p, x1, actions, signals, block=horizon))
    for j in range(width):
        seq = belief_sequence(p, x1, actions[j], signals[j])
        want = [seq[m] @ p.reward[:, actions[j, m]] for m in range(horizon)]
        assert np.allclose(batch[j], want, rtol=0, atol=1e-12)
        assert np.array_equal(batch[j:j + 1],
                              belief_payoffs(p, x1, actions[j:j + 1], signals[j:j + 1]))


def test_off_support_history_falls_back_to_the_first_state_at_width_one():
    # a switching chain whose signal reveals the next state
    trans = np.zeros((2, 2, 2, 2))
    trans[0, 0, 0, 0] = trans[1, 0, 1, 1] = 1.0      # T: stay
    trans[0, 1, 1, 1] = trans[1, 1, 0, 0] = 1.0      # B: swap
    q = pe.Pomdp(("L", "R"), ("T", "B"), ("o0", "o1"), trans, [[0.25, 0.5], [0.75, 1.0]])
    x1 = pe.dirac_belief(2, 1)
    actions = np.array([[0, 0, 1, 0]])
    signals = np.array([[1, 0, 0, 0]])        # stage 2 reports state 0: off support
    seq = belief_sequence(q, x1, actions[0], signals[0])
    assert np.array_equal(seq[2], [1.0, 0.0])
    want = [seq[m] @ q.reward[:, actions[0, m]] for m in range(4)]
    assert np.allclose(belief_payoffs(q, x1, actions, signals)[0], want,
                       rtol=0, atol=1e-12)


@settings(max_examples=120, deadline=None)
@given(case=hst.one_of(builtin_cases(), closed_instances(), sparse_instances()),
       width=hst.integers(1, 40), horizon=hst.integers(1, 150), block=hst.integers(1, 70),
       sampled=hst.booleans())
def test_belief_graph_payoffs_equal_the_filter_bit_for_bit(case, width, horizon, block,
                                                           sampled):
    # the builtin scenarios and the closed instances close their belief
    # orbits, within GRAPH_BELIEFS beliefs; most sparse instances do not; random observed pairs leave the
    # support, where both paths fall back to the Dirac at the first state
    p, x1, rng = case
    if sampled:
        _, actions, signals = simulate_plays(p, x1, pe.uniform_strategy(p.n_actions),
                                             horizon, width, rng)
    else:
        actions = rng.integers(0, p.n_actions, (width, horizon))
        signals = rng.integers(0, p.n_signals, (width, horizon))
    got = belief_payoffs(p, x1, actions, signals, block)
    assert got.shape == (width, horizon)
    assert np.array_equal(got, filter_payoffs(p, x1, actions, signals, block))


def _graph_is_closed(p, x1, graph):
    """Every edge of the graph leads to the filter's posterior, bytes and all."""
    beliefs, child, _, _ = graph
    codes = np.arange(child.shape[1])
    for b, x in enumerate(beliefs):
        post, _ = bayes_update_rows(bayes_matrices(p), np.repeat(x[None], len(codes), axis=0),
                                    codes)
        assert post.tobytes() == beliefs[child[b]].tobytes()
    assert beliefs[0].tobytes() == np.asarray(x1, dtype=float).tobytes()


def test_builtin_belief_orbits_close():
    counts = []
    for name in BUILTIN_SCENARIOS:
        sc = pe.builtin_scenario(name)
        graph = belief_graph(sc.pomdp, sc.initial_belief, 1000)
        _graph_is_closed(sc.pomdp, sc.initial_belief, graph)
        counts.append(len(graph[0]))
        # the limit is the number of beliefs the graph may hold
        assert belief_graph(sc.pomdp, sc.initial_belief, counts[-1]) is not None
        assert belief_graph(sc.pomdp, sc.initial_belief, counts[-1] - 1) is None
    assert counts == [1, 3, 1, 1, 3]


def test_a_narrow_pass_walks_a_closed_graph_larger_than_its_width(rng, monkeypatch):
    # matching-revealed holds 3 beliefs: a pass of 2 plays still walks its
    # graph, because the graph may hold GRAPH_BELIEFS beliefs whatever the
    # pass's width
    sc = pe.builtin_scenario("matching-revealed")
    p, x1 = sc.pomdp, sc.initial_belief
    _, actions, signals = simulate_plays(p, x1, pe.uniform_strategy(p.n_actions), 150, 2, rng)
    want = filter_payoffs(p, x1, actions, signals)
    monkeypatch.setattr(playspace, "_filter", None)
    assert np.array_equal(belief_payoffs(p, x1, actions, signals), want)


def test_a_wide_pass_of_short_blocks_walks_a_graph_longer_than_its_first_block(monkeypatch):
    # a blind 30-state cycle from a Dirac start has a closed graph of 30
    # beliefs; a pass of 1100 plays draws its first block of STAGE_BLOCK < 30
    # stages, yet walks the graph, whose limit is its own 64
    k = 30
    trans = np.zeros((k, 1, k, 1))
    trans[np.arange(k), 0, (np.arange(k) + 1) % k, 0] = 1.0
    p = pe.Pomdp(tuple(f"s{j}" for j in range(k)), ("a",), ("o",), trans,
                 np.random.default_rng(3).random((k, 1)))
    x1 = pe.dirac_belief(k, 0)
    assert STAGE_BLOCK < k < playspace.GRAPH_BELIEFS
    assert len(belief_graph(p, x1, playspace.GRAPH_BELIEFS)[0]) == k
    assert belief_graph(p, x1, STAGE_BLOCK) is None
    blocks = [(t0, ac, sg) for t0, _, _, ac, sg in play_blocks(
        p, x1, pe.always_strategy(1, 1, 0), 100, [(np.random.default_rng(0), 1100)])]
    assert len(blocks[0][1]) == STAGE_BLOCK
    want = np.concatenate([g for _, g in belief_payoff_blocks(p, x1, blocks)])
    assert np.array_equal(want, np.tile(p.reward[np.arange(100) % k, 0][:, None], (1, 1100)))
    monkeypatch.setattr(playspace, "_filter", None)
    assert np.array_equal(np.concatenate([g for _, g in belief_payoff_blocks(p, x1, blocks)]),
                          want)


@settings(max_examples=60, deadline=None)
@given(revealing=closed_instances(permuting=False), case=closed_instances())
def test_graph_edges_lead_to_the_filters_posteriors(revealing, case):
    p, x1, _ = revealing
    _graph_is_closed(p, x1, belief_graph(p, x1, p.n_states + 1))
    # a permutation orbit drifts by ulps before it closes: each drifted
    # belief is a belief of its own
    p, x1, _ = case
    graph = belief_graph(p, x1, 1000)
    if graph is not None:
        _graph_is_closed(p, x1, graph)


def test_a_drifting_permutation_orbit_keeps_each_drifted_belief(rng):
    # the orbit of x1 has 6 images, but the filter carries the ulps by which
    # normalising moves a permuted belief, so the graph holds 28 beliefs
    p, x1 = drifting_permutation()
    graph = belief_graph(p, x1, 1000)
    assert len(graph[0]) == 28
    _graph_is_closed(p, x1, graph)
    for width in (1, 40):
        actions = rng.integers(0, 2, (width, 300))
        signals = np.zeros_like(actions)
        assert np.array_equal(belief_payoffs(p, x1, actions, signals),
                              filter_payoffs(p, x1, actions, signals))


@settings(max_examples=80, deadline=None)
@given(case=hst.one_of(sparse_instances(), closed_instances()), depth=hst.integers(0, 3))
def test_a_depth_limited_graph_is_the_first_levels_of_the_closed_graph(case, depth):
    # an open orbit has no closed graph: its graph one level deeper stands in
    p, x1, _ = case
    full = belief_graph(p, x1, 2000) or belief_graph(p, x1, 10_000, depth + 1)
    beliefs, child, prob, seen = belief_graph(p, x1, 10_000, depth)
    assert seen == full[3][:len(seen)]
    assert beliefs.tobytes() == full[0][:seen[-1]].tobytes()
    # every belief but those first reached at the last depth is expanded
    expanded = ([0] + seen)[-2]
    assert len(child) == len(prob) == expanded
    assert np.array_equal(child, full[1][:expanded])
    assert prob.tobytes() == full[2][:expanded].tobytes()
    if len(seen) <= depth:      # closed within `depth`: the whole graph
        assert len(full[0]) == seen[-1] == expanded


def test_a_level_expanded_in_several_chunks_keeps_every_edge(rng):
    # with K = 100 and I*S = 4, 26 beliefs are expanded at a time, so the 64
    # beliefs of depth 3 take three chunks; every cell is positive, so no
    # two observed histories share a belief
    p = random_pomdp(rng, k=100)
    x1 = pe.uniform_belief(100)
    beliefs, child, prob, seen = belief_graph(p, x1, 341, 4)
    assert seen == [1, 5, 21, 85, 341] and child.tolist() == [
        list(range(4 * b + 1, 4 * b + 5)) for b in range(85)]
    codes = np.arange(4)
    for b in range(85):
        post, tot = bayes_update_rows(bayes_matrices(p), np.repeat(beliefs[b][None], 4, axis=0),
                                      codes)
        assert post.tobytes() == beliefs[child[b]].tobytes()
        assert tot.tobytes() == prob[b].tobytes()
    # the limit holds inside a level
    for limit in (300, 340):
        assert belief_graph(p, x1, limit, 4) is None


def test_a_posterior_found_in_several_chunks_of_a_level_is_one_belief():
    # K = 100 and I*S = 8: 13 beliefs are expanded at a time.  From the Dirac
    # at state 0 the signals reveal 8 and then 64 states, and each of those
    # 64 moves to state 73 under signal 0, so all five chunks of depth 2 find
    # the Dirac at 73 as a new belief
    trans = np.zeros((100, 1, 100, 8))
    trans[0, 0, np.arange(1, 9), np.arange(8)] = 1 / 8
    for j in range(1, 9):
        trans[j, 0, 8 * j + np.arange(1, 9), np.arange(8)] = 1 / 8
    trans[9:73, 0, 73, 0] = 1.0
    trans[np.arange(73, 100), 0, np.arange(73, 100), 0] = 1.0
    p = pe.Pomdp(tuple(range(100)), ("go",), tuple(range(8)), trans, np.zeros((100, 1)))
    beliefs, child, _, seen = belief_graph(p, pe.dirac_belief(100, 0), 1000)
    assert seen == [1, 9, 73, 74, 74] and len(beliefs) == len(child) == 74
    assert (child[9:73, 0] == 73).all() and (child[9:73, 1:] == 0).all()


def test_dense_orbit_is_open_and_falls_back_to_the_filter():
    # shaped like the benchmark's random instances: every cell positive, so
    # no two observed histories share a belief
    rng = np.random.default_rng(7)
    trans = rng.uniform(0.05, 1.0, size=(3, 2, 6))
    trans /= trans.sum(axis=2, keepdims=True)
    p = pe.Pomdp(("k0", "k1", "k2"), ("a0", "a1"), ("s0", "s1"), trans.reshape(3, 2, 3, 2),
                 rng.uniform(0.05, 1.0, size=(3, 2)))
    x1 = np.full(3, 1.0 / 3)
    assert belief_graph(p, x1, 4) is None
    assert belief_graph(p, x1, 1000) is None
    for width in (4, 40):
        _, actions, signals = simulate_plays(p, x1, pe.uniform_strategy(2), 150, width, rng)
        assert np.array_equal(belief_payoffs(p, x1, actions, signals),
                              filter_payoffs(p, x1, actions, signals))


def _product_plays(p, x1, strat, horizon):
    """Brute-force play tree: every (k_1, (i, k', s) per stage, (i, s) at the
    last stage) tuple from itertools.product, kept when every factor exceeds
    PROB_FLOOR.  The last stage's transition factor is the signal law
    q(s | k, i), the state after the horizon summed out.  Returns the
    (states, actions, signals) rows, the left-to-right probability products and
    the number of distinct kept prefixes over all stages (the stage cells)."""
    stage = list(itertools.product(range(p.n_actions), range(p.n_states), range(p.n_signals)))
    last = list(itertools.product(range(p.n_actions), [None], range(p.n_signals)))
    signal_law = p.transition.sum(axis=2)

    @functools.lru_cache(maxsize=None)
    def dist(acts, sigs):
        return strat.action_distribution(ObservedHistory(acts, sigs))

    rows, probs, prefixes = [], [], set()
    for k1, *path in itertools.product(range(p.n_states), *[stage] * (horizon - 1), last):
        q, k, keep = x1[k1], k1, x1[k1] > PROB_FLOOR
        for t, (i, nxt, s) in enumerate(path):
            pi = dist(tuple(c[0] for c in path[:t]), tuple(c[2] for c in path[:t]))[i]
            move = signal_law[k, i, s] if nxt is None else p.transition[k, i, nxt, s]
            keep = keep and pi > PROB_FLOOR and move > PROB_FLOOR
            q = q * pi * move
            k = nxt
        if keep:
            rows.append(([k1] + [c[1] for c in path[:-1]], [c[0] for c in path],
                         [c[2] for c in path]))
            probs.append(q)
            prefixes.update((k1, *path[:t]) for t in range(1, horizon + 1))
    return rows, probs, len(prefixes)


@settings(max_examples=80, deadline=None)
@given(case=sparse_instances(), horizon=hst.integers(1, 4),
       kind=hst.sampled_from(["uniform", "random-behavior", "transducer", "schedule"]))
def test_enumerated_plays_match_a_product_enumeration(case, horizon, kind):
    p, x1, rng = case
    k, n_i, n_s = p.n_states, p.n_actions, p.n_signals
    if k > 1:                            # a zero initial cell
        x1 = x1.copy()
        x1[rng.integers(k)] = 0.0
        x1 = pe.make_belief(x1 / x1.sum())
    # keep the brute-force product small: at most (K I S)^horizon K tuples
    while horizon > 1 and (k * n_i * n_s) ** horizon * k > 10_000:
        horizon -= 1
    m = int(rng.integers(1, 4))
    plan = rng.integers(0, n_i, horizon)
    strat = {
        "uniform": pe.uniform_strategy(n_i),
        "random-behavior": pe.RandomBehaviorStrategy(n_i, int(rng.integers(0, 100))),
        "transducer": pe.Transducer(n_i, n_s, rng.integers(0, n_i, m),
                                    rng.integers(0, m, (m, n_i, n_s))),
        "schedule": pe.ScheduleStrategy(n_i, lambda t: int(plan[t - 1])),
    }[kind]
    rows, probs, cells = _product_plays(p, x1, strat, horizon)
    batch = enumerate_plays(p, x1, strat, horizon, budget=cells)
    assert len(batch) == len(rows) == len(batch.prob)
    got = list(zip(batch.states.tolist(), batch.actions.tolist(), batch.signals.tolist()))
    assert got == [tuple(r) for r in rows]
    assert batch.prob.tolist() == [float(q) for q in probs]
    assert np.isclose(batch.prob.sum(), 1.0, rtol=0, atol=1e-12)
    with pytest.raises(BudgetExceededError):
        enumerate_plays(p, x1, strat, horizon, budget=cells - 1)


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------

def test_shard_seeds_are_reproducible_and_distinct():
    a = shard_seeds(3, 4)
    b = shard_seeds(3, 4)
    draws_a = [g.random() for g in a]
    draws_b = [g.random() for g in b]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 4


@given(ids=hst.lists(hst.integers(0, 40), max_size=25, unique=True),
       gone=hst.lists(hst.integers(-3, 45), max_size=30))
def test_narrow_keeps_the_plays_np_isin_keeps(ids, gone):
    # sorted alive ids; retired ids repeat, and some are absent or out of range
    alive = np.array(sorted(ids), dtype=np.int64)
    gone = np.array(gone, dtype=np.int64)
    keep, kept, _ = playspace._narrow([(None, 41)], alive, gone)
    want = np.flatnonzero(~np.isin(alive, gone))
    assert keep.dtype == want.dtype
    assert np.array_equal(keep, want) and np.array_equal(kept, alive[want])
