"""Block-streamed Monte Carlo reductions against whole-play matrix reductions.

The references below are the matrix forms the streamed folds replace: each
family's weights on (n_plays, horizon) matrices, the per-play payoff and mass
rows, the padded-difference irregularity, the prefix-average extrema and the
belief payoffs of the whole play.  The streamed results must agree with them
to 1e-12 on random instances, block cuts and horizons on both sides of
STAGE_BLOCK.  Sampled passes retire the plays whose weights are spent; the
run-block sums must then equal, bit for bit, the matrix sums added up block by
block as the fold adds them, and every block must hold the simulated columns
of the plays it keeps."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals.evaluations import (EvalContext, block_smooth, conditional_evaluation,
                                     eta_horizon, weight_sums)
from pomdp_evals.model import bayes_matrices, bayes_update_rows
from pomdp_evals.playspace import (STAGE_BLOCK, belief_payoff_blocks, plan_shards,
                                   play_blocks, reduce_sampled_plays, shard_seeds,
                                   simulate_plays)
from pomdp_evals.values import average_extrema, weighted_payoff_and_irregularity_mc

from conftest import sparse_instances


# ---------------------------------------------------------------------------
# Matrix references
# ---------------------------------------------------------------------------

def ref_run_block(states, l, target):
    n, horizon = states.shape
    out = np.zeros((n, horizon))
    if horizon - 1 < l:
        return out
    c = np.empty((n, horizon), dtype=np.int32)
    c[:, 0] = 0
    np.cumsum(states[:, 1:] == target, axis=1, dtype=np.int32, out=c[:, 1:])
    full = c[:, l:] - c[:, :-l] == l
    first = full.argmax(axis=1)
    rows = np.flatnonzero(full[np.arange(n), first])
    cells = (rows * horizon + first[rows] + 1)[:, None] + np.arange(l)
    out.put(cells, 1.0 / l)
    return out


def ref_state_block(states, l, early):
    n, horizon = states.shape
    out = np.zeros((n, horizon))
    cols = np.arange(horizon)
    start = np.where(states[:, 0] == early, 0, l)[:, None]
    out[(cols >= start) & (cols < start + l)] = 1.0 / l
    return out


def ref_belief_payoffs(p, x1, actions, signals):
    n, horizon = actions.shape
    bayes = bayes_matrices(p)
    bel = np.empty((horizon + 1, n, p.n_states))
    bel[0] = x1
    for t in range(horizon):
        bayes_update_rows(bayes, bel[t], actions[:, t] * p.n_signals + signals[:, t],
                          out=bel[t + 1])
    return np.einsum("tnk,tnk->nt", bel[:horizon], p.reward.T[actions.T])


def ref_limsup_theta(p, x1, actions, signals, l):
    g = ref_belief_payoffs(p, x1, actions, signals)
    out = np.zeros(g.shape)
    for j in range(len(g)):
        eta = eta_horizon(g[j], l)
        out[j, :eta] = 1.0 / eta
    return out


def ref_smooth(w, l):
    return w[..., (np.arange(w.shape[-1]) // l) * l]


def ref_conditional(table, actions, signals, horizon):
    out = np.zeros(actions.shape)
    for j in range(len(actions)):
        for m in range(1, min(actions.shape[1], horizon) + 1):
            key = (m, tuple(actions[j, :m - 1].tolist()), tuple(signals[j, :m - 1].tolist()))
            out[j, m - 1] = table.rho.get(key, 0.0)
    return out


def ref_sums(p, w, states, actions):
    padded = np.concatenate([w, np.zeros((w.shape[0], 1))], axis=1)
    return ((w * p.reward[states, actions]).sum(axis=1), w.sum(axis=1),
            np.abs(w[:, 0]) + np.abs(np.diff(padded, axis=1)).sum(axis=1))


def ref_block_sums(p, w, states, actions):
    """`ref_sums` added up in the fold's order: numpy sums each STAGE_BLOCK
    block of time-major (block, plays) matrices over its stages, and the
    block sums are added in stage order."""
    payoff = mass = jumps = last = 0.0
    g = p.reward[states, actions]
    for t0 in range(0, w.shape[1], STAGE_BLOCK):
        blk = np.ascontiguousarray(w[:, t0:t0 + STAGE_BLOCK].T)
        payoff = payoff + (g[:, t0:t0 + STAGE_BLOCK].T * blk).sum(axis=0)
        mass = mass + blk.sum(axis=0)
        jumps = jumps + np.abs(blk[0] - last) + np.abs(np.diff(blk, axis=0)).sum(axis=0)
        last = blk[-1]
    return payoff, mass, jumps + np.abs(last)


def ref_stepped(p, x1, strat, horizon, streams):
    """Plays of a strategy stepped through its interface, one stage at a time
    by the draw contract: per stage each stream's next (2, count) uniforms,
    row 0 for the actions and row 1 for the (next state, signal) pairs."""
    k, n_s = p.n_states, p.n_signals
    state = np.concatenate([g.choice(k, size=n, p=x1 / x1.sum()) for g, n in streams])
    mem = strat.start(len(state))
    out = np.empty((3, len(state), horizon), dtype=np.int32)
    for t in range(horizon):
        u = np.concatenate([g.random((2, n)) for g, n in streams], axis=1)
        law = np.cumsum(strat.dist(mem), axis=1)
        action = (law <= (u[0] * law[:, -1])[:, None]).sum(axis=1)
        row = np.cumsum(p.transition[state, action].reshape(len(state), -1), axis=1)
        code = (row <= (u[1] * row[:, -1])[:, None]).sum(axis=1)
        out[:, :, t] = state, action, code % n_s
        mem = strat.step(mem, action, code % n_s)
        state = code // n_s
    return out


def ref_extremum(payoffs, mode, window_start):
    avg = np.cumsum(payoffs, axis=1)
    avg /= np.arange(1, payoffs.shape[1] + 1)
    window = avg[:, window_start - 1:]
    return window.max(axis=1) if mode == "limsup" else window.min(axis=1)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def cut(plays, sizes):
    """(t0, states, actions, signals) time-major blocks of the (n, horizon)
    plays, with block lengths taken cyclically from `sizes`."""
    horizon, t0, j = plays[0].shape[1], 0, 0
    while t0 < horizon:
        b = sizes[j % len(sizes)]
        yield (t0, *(m[:, t0:t0 + b].T for m in plays))
        t0, j = t0 + b, j + 1


def streamed_weights(e, plays, sizes, ctx=None):
    blocks = list(e.weight_blocks(cut(plays, sizes), plays[0].shape[1], ctx))
    assert [b[0] for b in blocks] == [b[0] for b in cut(plays, sizes)]
    return np.concatenate([b[4] for b in blocks]).T


HORIZONS = [1, 2, STAGE_BLOCK - 1, STAGE_BLOCK, STAGE_BLOCK + 1, 2 * STAGE_BLOCK + 3]
BLOCK_SIZES = hst.lists(hst.integers(1, STAGE_BLOCK), min_size=1, max_size=4)


def _family(kind, p, x1, horizon, rng):
    """(evaluation, reference weights on (states, actions, signals)) of a kind."""
    k = p.n_states
    if kind == "run_block":
        l, target = int(rng.integers(1, STAGE_BLOCK + 12)), int(rng.integers(k))
        return (pe.make_evaluation("run_block_ex2", l=l, target_state=target),
                lambda st, ac, sg: ref_run_block(st, l, target))
    if kind == "state_block":
        l, early = int(rng.integers(1, STAGE_BLOCK + 12)), int(rng.integers(k))
        return (pe.make_evaluation("state_block_ex1", l=l, early_state=early),
                lambda st, ac, sg: ref_state_block(st, l, early))
    if kind == "limsup_theta":
        l = int(rng.integers(1, horizon + 1))
        return (pe.make_evaluation("limsup_theta", l=l, horizon=horizon),
                lambda st, ac, sg: ref_limsup_theta(p, x1, ac, sg, l))
    if kind == "smooth_play_dependent":
        l, s = int(rng.integers(1, STAGE_BLOCK + 12)), int(rng.integers(2, STAGE_BLOCK + 12))
        if rng.random() < 0.5:
            return (block_smooth(pe.make_evaluation("run_block_ex2", l=l), s),
                    lambda st, ac, sg: ref_smooth(ref_run_block(st, l, 0), s))
        return (block_smooth(pe.make_evaluation("state_block_ex1", l=l), s),
                lambda st, ac, sg: ref_smooth(ref_state_block(st, l, 0), s))
    if kind == "smooth_discounted":
        lam, s = float(rng.uniform(0.01, 0.5)), int(rng.integers(2, STAGE_BLOCK + 12))
        base = pe.make_evaluation("discounted", lam=lam)
        return (block_smooth(base, s),
                lambda st, ac, sg: np.tile(ref_smooth(base.stage_fn(st.shape[1]), s),
                                           (len(st), 1)))
    # conditional: the table comes from the exact tree over a short horizon
    l, cond_h = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    base = pe.make_evaluation("state_block_ex1", l=l) if rng.random() < 0.5 else \
        pe.make_evaluation("run_block_ex2", l=l)
    cond = conditional_evaluation(p, x1, pe.uniform_strategy(p.n_actions), base, cond_h)
    table = cond.params["table"]
    return cond, lambda st, ac, sg: ref_conditional(table, ac, sg, cond_h)


KINDS = hst.sampled_from(["run_block", "state_block", "limsup_theta", "smooth_play_dependent",
                          "smooth_discounted", "conditional"])


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(case=sparse_instances(), kind=KINDS, horizon=hst.sampled_from(HORIZONS),
       width=hst.integers(1, 5), sizes=BLOCK_SIZES, density=hst.floats(0.5, 1.0))
def test_streamed_weights_equal_the_matrix_weights(case, kind, horizon, width, sizes,
                                                   density):
    # arbitrary plays, with the target state 0 frequent enough that long runs
    # form, straddle block cuts and end at the last stage
    p, x1, rng = case
    states = np.where(rng.random((width, horizon)) < density, 0,
                      rng.integers(0, p.n_states, (width, horizon)))
    plays = (states, rng.integers(0, p.n_actions, (width, horizon)),
             rng.integers(0, p.n_signals, (width, horizon)))
    e, ref = _family(kind, p, x1, horizon, rng)
    ctx = EvalContext(p, x1)
    want = ref(*plays)
    np.testing.assert_allclose(streamed_weights(e, plays, sizes, ctx), want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(e.batch_weights(*plays, ctx), want, rtol=0, atol=1e-12)
    got = weight_sums(e, cut(plays, sizes), horizon, ctx, p.reward)
    for g, r in zip(got, ref_sums(p, want, plays[0], plays[1])):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)


def _into_state_zero(p):
    """The instance with every transition moved into state 0, so that every
    play stays there from stage 2 on."""
    trans = np.zeros_like(p.transition)
    trans[:, :, 0, :] = p.transition.sum(axis=2)
    return pe.Pomdp(p.states, p.actions, p.signals, trans, p.reward)


@settings(max_examples=80, deadline=None)
@given(case=sparse_instances(), kind=KINDS, horizon=hst.sampled_from(HORIZONS[1:]),
       samples=hst.integers(1, 12), shards=hst.integers(1, 4), seed=hst.integers(0, 2**16),
       stepped=hst.booleans(), absorbing=hst.booleans())
def test_sampled_pass_equals_the_matrix_reductions(case, kind, horizon, samples, shards,
                                                   seed, stepped, absorbing):
    # the same seeded plays reduced from (samples, horizon) matrices and
    # streamed block by block through reduce_sampled_plays: once with every
    # block listed first, so that nothing retires, and once through the
    # weight fold alone, which retires plays whose weights are spent (all of
    # them early when every play runs into state 0)
    p, x1, rng = case
    if absorbing:
        p = _into_state_zero(p)
    m = int(rng.integers(1, 4))
    strat = pe.uniform_strategy(p.n_actions) if stepped else \
        pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, m),
                      rng.integers(0, m, (m, p.n_actions, p.n_signals)))
    e, ref = _family(kind, p, x1, horizon, rng)
    ctx = EvalContext(p, x1)
    counts = [len(c) for c in np.array_split(np.arange(samples),
                                             plan_shards(samples, horizon, shards))]
    st, ac, sg = simulate_plays(p, x1, strat, horizon, samples,
                                list(zip(shard_seeds(seed, len(counts)), counts)))
    window = int(rng.integers(1, horizon + 1))

    def reduce(blocks):
        blocks = list(blocks)
        g = [(t0, p.reward[s, a]) for t0, s, a, _ in blocks]
        bel = belief_payoff_blocks(p, x1, [(t0, a, s) for t0, _, a, s in blocks])
        return (*weight_sums(e, blocks, horizon, ctx, p.reward),
                *average_extrema(g, horizon, window), *average_extrema(bel, horizon))

    got = reduce_sampled_plays(p, x1, strat, horizon, samples, seed, reduce, shards)
    retiring = reduce_sampled_plays(p, x1, strat, horizon, samples, seed,
                                    lambda blocks: weight_sums(e, blocks, horizon, ctx, p.reward),
                                    shards)
    state_g = p.reward[st, ac]
    belief_g = ref_belief_payoffs(p, x1, ac, sg)
    w = ref(st, ac, sg)
    want = [*ref_sums(p, w, st, ac),
            ref_extremum(state_g, "limsup", window), ref_extremum(state_g, "liminf", window),
            ref_extremum(belief_g, "limsup", max(horizon // 2, 1)),
            ref_extremum(belief_g, "liminf", max(horizon // 2, 1))]
    for g, r in zip([*got, *retiring], [*want, *want[:3]]):
        assert g.shape == (samples,)
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)
    if kind == "run_block":
        for g, r in zip(retiring, ref_block_sums(p, w, st, ac)):
            assert np.array_equal(g, r)


def test_run_block_weights_across_block_cuts():
    # l > STAGE_BLOCK: one run straddles two cuts, one ends at the last stage,
    # one play has no run, one has a run of l - 1 broken and restarted, and
    # one has its only full run beginning at stage 1 (searched from stage 2)
    l, horizon = STAGE_BLOCK + 7, 3 * STAGE_BLOCK + 5
    states = np.ones((5, horizon), dtype=np.int32)
    states[0, 50:50 + l] = 0
    states[1, horizon - l:] = 0
    states[2, ::2] = 0
    states[3, 10:10 + l - 1] = 0
    states[3, 10 + l:10 + 2 * l] = 0
    states[4, :l] = 0
    plays = (states, np.zeros_like(states), np.zeros_like(states))
    want = ref_run_block(states, l, 0)
    assert want[0, 50:50 + l].tolist() == [1 / l] * l and want[1, -l:].sum() > 0
    assert not want[2].any() and not want[4].any()
    e = pe.make_evaluation("run_block_ex2", l=l)
    for sizes in ([STAGE_BLOCK], [1], [STAGE_BLOCK - 1, 3], [l - 1], [l + 1]):
        assert np.array_equal(streamed_weights(e, plays, sizes), want)


STRATEGY_KINDS = hst.sampled_from(["transducer", "schedule", "uniform", "random_behavior"])


def _strategy(kind, p, rng):
    if kind == "transducer":
        m = int(rng.integers(1, 4))
        return pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, m),
                             rng.integers(0, m, (m, p.n_actions, p.n_signals)))
    if kind == "schedule":
        plan = rng.integers(0, p.n_actions, 4 * STAGE_BLOCK)
        return pe.ScheduleStrategy(p.n_actions, lambda t: int(plan[t - 1]))
    if kind == "uniform":
        return pe.uniform_strategy(p.n_actions)
    return pe.RandomBehaviorStrategy(p.n_actions, int(rng.integers(2**16)))


@settings(max_examples=80, deadline=None)
@given(case=sparse_instances(), kind=STRATEGY_KINDS,
       horizon=hst.sampled_from([1, STAGE_BLOCK, STAGE_BLOCK + 1, 3 * STAGE_BLOCK + 5]),
       counts=hst.lists(hst.integers(0, 6), min_size=1, max_size=4).filter(any),
       rate=hst.sampled_from([0.0, 0.1, 0.5, 1.0]), seed=hst.integers(0, 2**16))
def test_retired_plays_leave_the_kept_plays_draws_unchanged(case, kind, horizon, counts,
                                                            rate, seed):
    # a stream that retires random plays after random blocks: every block
    # holds the plays not yet retired with their columns of the full
    # simulation, and only those, unless that would leave a lone play of
    # several (the retired ones then wait for it); the stream ends once no
    # play is left.  The full simulation of a stepped strategy is the
    # per-stage one (the chain kernel has its references in test_playspace).
    p, x1, rng = case
    strat = _strategy(kind, p, rng)
    samples = sum(counts)
    streams = lambda: [(np.random.default_rng([seed, j]), n) for j, n in enumerate(counts)]
    full = simulate_plays(p, x1, strat, horizon, samples, streams())
    if kind in ("uniform", "random_behavior"):
        assert np.array_equal(full, ref_stepped(p, x1, strat, horizon, streams()))
    stream = play_blocks(p, x1, strat, horizon, streams())
    retired, end = np.zeros(samples, dtype=bool), 0
    for t0, *blk in stream:
        ids = stream.ids(t0)
        live = np.flatnonzero(~retired)
        assert t0 == end and np.isin(live, ids).all()
        assert len(ids) == len(live) or (len(live) == 1 and len(ids) > 1)
        for got, want in zip(blk, full):
            assert got.dtype == np.int32
            assert np.array_equal(got, want[ids, t0:t0 + len(got)].T)
        end = t0 + len(blk[0])
        done = rng.random(len(ids)) < rate
        stream.retire(t0, done)
        retired[ids[done]] = True
    assert end == horizon or retired.all()


@pytest.mark.parametrize("spec, blocks", [
    ({"kind": "run_block_ex2", "l": 5}, 2),
    ({"kind": "run_block_ex2", "l": STAGE_BLOCK + 11}, 4),
    ({"kind": "n_stage", "n": STAGE_BLOCK + 6}, 2),
    ({"kind": "state_block_ex1", "l": 40}, 2)])
def test_the_pass_stops_once_every_play_is_retired(redraw, spec, blocks):
    # every play starts in state 0 and stays there, so every play's weights
    # end in the first or second block; the stream makes only the blocks the
    # weights need (look-ahead included) and the fold's sums are unchanged
    p, x1 = _into_state_zero(redraw.pomdp), np.array([1.0, 0.0])
    strat, horizon, samples = pe.always_strategy(2, 1, 0), 8 * STAGE_BLOCK, 50
    e, ctx = pe.evaluation_from_spec(spec), EvalContext(p, x1)
    stream = play_blocks(p, x1, strat, horizon, [(np.random.default_rng(7), samples)])
    made = []
    for t0, *_, done in e.weight_blocks(stream, horizon, ctx):
        made.append(t0)
        stream.retire(t0, done)
    assert made == list(range(0, blocks * STAGE_BLOCK, STAGE_BLOCK))
    got = reduce_sampled_plays(p, x1, strat, horizon, samples, 7,
                               lambda b: weight_sums(e, b, horizon, ctx, p.reward), 3)
    plays = simulate_plays(p, x1, strat, horizon, samples,
                           list(zip(shard_seeds(7, 3), [17, 17, 16])))
    want = ref_block_sums(p, e.batch_weights(*plays, ctx), *plays[:2])
    for g, r in zip(got, want):
        assert np.array_equal(g, r)
    assert np.allclose(got[1], 1.0)


def _late_switch(stage):
    """Action at `stage`: flip the state at stage 140, else alternate between
    two actions that keep it and pay differently."""
    return 2 if stage == 140 else bin(stage).count("1") % 2


@pytest.mark.parametrize("l", [4, 9, 14])
@pytest.mark.parametrize("stepped", [False, True])
def test_a_play_left_alone_sums_as_a_column_of_its_pass(l, stepped):
    # two plays start in state 0 and retire within the first block; the
    # third starts in state 1, reaches state 0 at stage 141 and has its run
    # in a block after the others left.  Its sums must be those of a column
    # of the three-play pass, which numpy would not give for a lone column.
    trans = np.zeros((2, 3, 2, 1))
    for k in range(2):
        trans[k, 0, k, 0] = trans[k, 1, k, 0] = trans[k, 2, 1 - k, 0] = 1.0
    p = pe.Pomdp(("s0", "s1"), ("stay", "hold", "flip"), ("o",), trans,
                 np.array([[0.1, 0.7, 0.2], [0.3, 0.9, 0.4]]))
    x1, horizon = np.array([0.5, 0.5]), 4 * STAGE_BLOCK
    strat = pe.BehaviorStrategy(3, lambda h: np.eye(3)[_late_switch(len(h) + 1)]) if stepped \
        else pe.ScheduleStrategy(3, _late_switch)
    e = pe.make_evaluation("run_block_ex2", l=l)
    plays = simulate_plays(p, x1, strat, horizon, 3, np.random.default_rng(0))
    assert plays[0][:, 0].tolist() == [1, 0, 0]
    got = weight_sums(e, play_blocks(p, x1, strat, horizon, [(np.random.default_rng(0), 3)]),
                      horizon, None, p.reward)
    for g, r in zip(got, ref_block_sums(p, e.batch_weights(*plays), *plays[:2])):
        assert np.array_equal(g, r)


def test_streamed_pass_memory_stays_below_a_quarter_of_one_play_matrix(redraw):
    # the ex2 shape at l = 8: one (samples, horizon) float64 matrix is 73.7 MB
    p, x1 = redraw.pomdp, redraw.initial_belief
    samples, horizon = 2000, 9 * 2 ** 9
    e = pe.make_evaluation("run_block_ex2", l=8)
    strat = pe.always_strategy(2, 1, 0)
    tracemalloc.start()
    try:
        pay, irr = weighted_payoff_and_irregularity_mc(p, x1, strat, e, horizon, samples, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pay.value >= 0.99 and abs(irr.mean - 2 / 8) <= 3 * irr.std_error
    assert peak < 0.25 * samples * horizon * 8, f"peak {peak / 2**20:.1f} MB"


def test_window_start_outside_the_horizon_is_rejected():
    with pytest.raises(pe.InvalidInputError):
        average_extrema([(0, np.zeros((3, 2)))], 3, 4)
