"""Block-streamed Monte Carlo reductions against whole-play matrix reductions.

The references below are the matrix forms the streamed folds replace: each
family's weights on (n_plays, horizon) matrices, the per-play payoff and mass
rows, the padded-difference irregularity, the prefix-average extrema and the
belief payoffs of the whole play.  The streamed results must agree with them
to 1e-12 on random instances, block cuts and horizons on both sides of
STAGE_BLOCK.  The fold adds each play's terms one stage at a time, so its
sums equal, bit for bit, the matrix sums added up stage by stage, whatever
the block cuts and widths; the prefix-average extrema and belief payoffs
are as cut-free.  Sampled passes retire the plays whose weights are spent,
size their blocks by the columns they draw, and every block must hold the
simulated columns of the plays it keeps."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals.evaluations import (EvalContext, _eta_stages, block_smooth,
                                     conditional_evaluation, eta_horizon, pathwise_irregularity,
                                     weight_sums)
from pomdp_evals.model import bayes_matrices, bayes_update_rows
from pomdp_evals import playspace
from pomdp_evals.playspace import (BLOCK_CELLS, MC_SHARDS, STAGE_BLOCK, PlayStream,
                                   belief_payoff_blocks, play_blocks, reduce_sampled_plays,
                                   shard_seeds, simulate_plays)
from pomdp_evals.values import (average_extrema, weighted_payoff_and_irregularity_mc,
                                weighted_payoff_mc)

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


def ref_fold_sums(p, w, states, actions):
    """`ref_sums` added up in the fold's order, one stage at a time along
    each play (np.cumsum adds in order at any width); the final drop to zero
    comes last."""
    padded = np.concatenate([np.zeros((len(w), 1)), w, np.zeros((len(w), 1))], axis=1)
    drops = np.abs(np.diff(padded, axis=1))
    return (np.cumsum(w * p.reward[states, actions], axis=1)[:, -1],
            np.cumsum(w, axis=1)[:, -1], np.cumsum(drops[:, :-1], axis=1)[:, -1] + drops[:, -1])


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
    """A `PlayStream` of (t0, ids, states, actions, signals) time-major
    blocks of the (n, horizon) plays, with block lengths taken cyclically
    from `sizes`.  Like the simulation kernels, it leaves the plays its
    consumer retires out of every later block and ends once none is left."""
    def blocks():
        horizon, t0, j = plays[0].shape[1], 0, 0
        ids = np.arange(len(plays[0]))
        while t0 < horizon and len(ids):
            b = sizes[j % len(sizes)]
            gone = yield (t0, ids, *(m[ids, t0:t0 + b].T for m in plays))
            if gone is not None:
                ids = ids[~np.isin(ids, gone)]
            t0, j = t0 + b, j + 1
    return PlayStream(blocks())


def streamed_weights(e, plays, sizes, ctx=None):
    blocks = list(e.weight_blocks(cut(plays, sizes), plays[0].shape[1], ctx))
    assert [b[0] for b in blocks] == [b[0] for b in cut(plays, sizes)]
    return np.concatenate([b[5] for b in blocks]).T


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


# BLOCK_CELLS values under which short passes still run several blocks: 0
# gives every block STAGE_BLOCK stages
CELLS = hst.sampled_from([0, 300, BLOCK_CELLS])


@settings(max_examples=80, deadline=None)
@given(case=sparse_instances(), kind=KINDS, horizon=hst.sampled_from(HORIZONS[1:]),
       samples=hst.integers(1, 12), seed=hst.integers(0, 2**16),
       stepped=hst.booleans(), absorbing=hst.booleans(), cells=CELLS)
def test_sampled_pass_equals_the_matrix_reductions(case, kind, horizon, samples, seed,
                                                   stepped, absorbing, cells):
    # the same seeded plays reduced from (samples, horizon) matrices and
    # streamed block by block through reduce_sampled_plays: once with every
    # block listed first, so that nothing retires, and once through the
    # weight fold alone, which retires plays whose weights are spent (all of
    # them early when every play runs into state 0)
    with mock.patch.object(playspace, "BLOCK_CELLS", cells):
        _sampled_pass_equals_the_matrix_reductions(case, kind, horizon, samples, seed,
                                                   stepped, absorbing)


def _sampled_pass_equals_the_matrix_reductions(case, kind, horizon, samples, seed, stepped,
                                               absorbing):
    p, x1, rng = case
    if absorbing:
        p = _into_state_zero(p)
    m = int(rng.integers(1, 4))
    strat = pe.uniform_strategy(p.n_actions) if stepped else \
        pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, m),
                      rng.integers(0, m, (m, p.n_actions, p.n_signals)))
    e, ref = _family(kind, p, x1, horizon, rng)
    ctx = EvalContext(p, x1)
    counts = [len(c) for c in np.array_split(np.arange(samples), min(samples, MC_SHARDS))]
    st, ac, sg = simulate_plays(p, x1, strat, horizon, samples,
                                list(zip(shard_seeds(seed, len(counts)), counts)))
    window = int(rng.integers(1, horizon + 1))

    def reduce(blocks):
        blocks = list(blocks)
        g = [(t0, p.reward[s, a]) for t0, _, s, a, _ in blocks]
        bel = belief_payoff_blocks(p, x1, [(t0, a, s) for t0, _, _, a, s in blocks])
        # the listed blocks replayed as a stream that leaves no play out
        return (*weight_sums(e, PlayStream(b for b in blocks), horizon, ctx, p.reward),
                *average_extrema(g, horizon, window), *average_extrema(bel, horizon))

    got = reduce_sampled_plays(p, x1, strat, horizon, samples, seed, reduce)
    retiring = reduce_sampled_plays(p, x1, strat, horizon, samples, seed,
                                    lambda blocks: weight_sums(e, blocks, horizon, ctx, p.reward))
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
    # the fold's sums, retiring or not, are the stage-by-stage sums of the
    # evaluation's own weights on the matrices, bit for bit
    folded = ref_fold_sums(p, e.batch_weights(st, ac, sg, ctx), st, ac)
    for g, r in zip([*got[:3], *retiring], [*folded, *folded]):
        assert np.array_equal(g, r)


def test_sampled_pass_splits_samples_over_mc_shards_streams_at_any_horizon(redraw):
    # 8 plays over 25 000 000 stages are 200M cells, yet the samples still
    # go two by two to MC_SHARDS streams; the pass stops after one block,
    # which holds the first stages of those streams' plays
    p, x1 = redraw.pomdp, redraw.initial_belief
    strat, seed = pe.uniform_strategy(p.n_actions), 11

    def reduce(blocks):
        _, ids, *first = next(blocks)
        blocks.retire(ids)
        assert next(blocks, None) is None
        return tuple(b.T for b in first)

    got = reduce_sampled_plays(p, x1, strat, 25_000_000, 8, seed, reduce)
    want = simulate_plays(p, x1, strat, got[0].shape[1], 8,
                          list(zip(shard_seeds(seed, MC_SHARDS), [2, 2, 2, 2])))
    assert STAGE_BLOCK <= got[0].shape[1] < 25_000_000
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_run_block_weights_across_block_cuts():
    # l > 64 > STAGE_BLOCK: one run straddles two cuts, one ends at the last
    # stage, one play has no run, one has a run of l - 1 broken and
    # restarted, and one has its only full run beginning at stage 1
    # (searched from stage 2).  The fold retires plays 0 and 3 once their
    # runs end, so with short blocks one look-ahead window holds blocks with
    # and without them.
    l, horizon = 71, 197
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
    for sizes in ([64], [1], [63, 3], [l - 1], [l + 1], [STAGE_BLOCK]):
        assert np.array_equal(streamed_weights(e, plays, sizes), want)
        _, mass, jumps = weight_sums(e, cut(plays, sizes), horizon)
        np.testing.assert_allclose(mass, want.sum(axis=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(jumps, [pathwise_irregularity(w) for w in want],
                                   rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(l=hst.integers(1, 80), horizon=hst.integers(1, 120), n=hst.integers(1, 12),
       density=hst.floats(0.6, 1.0), sizes=hst.lists(hst.integers(1, 90), min_size=1,
                                                      max_size=4),
       seed=hst.integers(0, 2**32 - 1))
def test_run_block_weights_equal_the_reference_under_any_cut_and_retirement(l, horizon, n,
                                                                             density, sizes,
                                                                             seed):
    # Blocks are cut at random, many shorter than l, and horizons may be
    # shorter than l.  Play 0's first l stages are all in the target state,
    # a run from stage 1, which the search (from stage 2) does not count.
    # The consumer retires each play flagged done at a random later block or
    # never, and some plays whatever their weights, in the middle of their
    # run or at a random block: every play never retired so gets, in every
    # block, the reference weights, and is flagged done in the block where
    # its run ends.
    rng = np.random.default_rng(seed)
    states = (rng.random((n, horizon)) > density).astype(np.int32)
    states[0, :l] = 0
    want = ref_run_block(states, l, 0)
    last = [int(np.flatnonzero(r)[-1]) if r.any() else None for r in want]
    dropped = rng.random(n) < 0.3                     # retired at random, done or not
    stream = cut((states, np.zeros_like(states), np.zeros_like(states)), sizes)
    pending, seen = [], set()
    e = pe.make_evaluation("run_block_ex2", l=l)
    for t0, ids, st, _, _, w, done in e.weight_blocks(stream, horizon):
        b = len(st)
        for j, i in enumerate(ids.tolist()):
            if not dropped[i]:
                seen.add(i)
                assert np.array_equal(w[:, j], want[i, t0:t0 + b])
                assert done[j] == (last[i] is not None and t0 <= last[i] < t0 + b)
        pending += [(d, i) for d, i in zip(rng.integers(0, 4, n).tolist(), ids[done].tolist())
                    if d < 3]                     # retired now, a block or two on, or never
        # a dropped play leaves mid-run, or at random
        pending += [(0, i) for j, i in enumerate(ids.tolist())
                    if dropped[i] and (w[:, j].any() and not done[j] or rng.random() < 0.3)]
        stream.retire(np.array([i for d, i in pending if d == 0], dtype=int))
        pending = [(d - 1, i) for d, i in pending if d > 0]
    assert seen == set(np.flatnonzero(~dropped).tolist())


def test_conditional_prefix_ids_carry_across_block_cuts(frozen_matching):
    # a table deeper than STAGE_BLOCK: under hold:0:70:1 the frozen game has
    # a tree of 2 plays and one observed prefix per stage, switching action
    # after a cut.  Plays of that schedule stay on the table through stage
    # 150; plays of always:1 leave it at stage 2 and must weigh zero from
    # there on, in every block, as their prefix id is carried across cuts.
    p, x1 = frozen_matching.pomdp, frozen_matching.initial_belief
    horizon, stages = 150, 3 * STAGE_BLOCK
    e = pe.make_evaluation("state_block_ex1", l=horizon // 2)
    cond = conditional_evaluation(p, x1, pe.builtin_strategy("hold:0:70:1", p), e, horizon)
    table = cond.params["table"]
    assert len(pe.enumerate_plays(p, x1, pe.builtin_strategy("hold:0:70:1", p), horizon)) == 2
    rng = np.random.default_rng(0)
    plays = [np.concatenate(m) for m in zip(*(
        simulate_plays(p, x1, pe.builtin_strategy(name, p), stages, 2, rng)
        for name in ("hold:0:70:1", "always:1")))]
    want = ref_conditional(table, plays[1], plays[2], horizon)
    assert np.all(want[:2, :horizon] > 0) and np.all(want[2:, 1:] == 0) and want[2, 0] > 0
    assert np.array_equal(streamed_weights(cond, plays, [STAGE_BLOCK]), want)
    assert np.array_equal(cond.batch_weights(*plays), want)


STRATEGY_KINDS = hst.sampled_from(["transducer", "schedule", "uniform", "random_behavior"])


def _strategy(kind, p, rng):
    if kind == "transducer":
        m = int(rng.integers(1, 4))
        return pe.Transducer(p.n_actions, p.n_signals, rng.integers(0, p.n_actions, m),
                             rng.integers(0, m, (m, p.n_actions, p.n_signals)))
    if kind == "schedule":
        plan = rng.integers(0, p.n_actions, 4 * STAGE_BLOCK + 1)
        return pe.ScheduleStrategy(p.n_actions, lambda t: int(plan[(t - 1) % len(plan)]))
    if kind == "doubling":
        return pe.doubling_strategy(p.n_actions, 0, p.n_actions - 1)
    if kind == "uniform":
        return pe.uniform_strategy(p.n_actions)
    return pe.RandomBehaviorStrategy(p.n_actions, int(rng.integers(2**16)))


@settings(max_examples=80, deadline=None)
@given(case=sparse_instances(), kind=STRATEGY_KINDS,
       horizon=hst.sampled_from([1, STAGE_BLOCK, STAGE_BLOCK + 1, 3 * STAGE_BLOCK + 5]),
       counts=hst.lists(hst.integers(0, 6), min_size=1, max_size=4).filter(any),
       rate=hst.sampled_from([0.0, 0.1, 0.5, 1.0]), seed=hst.integers(0, 2**16), cells=CELLS)
def test_retired_plays_leave_the_kept_plays_draws_unchanged(case, kind, horizon, counts,
                                                            rate, seed, cells):
    # a stream that retires random plays after random blocks: every block
    # holds the plays not yet retired with their columns of the full
    # simulation, and only those, a lone play of several included; the
    # stream ends once no play is left.  The full simulation of a stepped
    # strategy is the per-stage one (the chain kernel has its references in
    # test_playspace).
    p, x1, rng = case
    strat = _strategy(kind, p, rng)
    samples = sum(counts)
    streams = lambda: [(np.random.default_rng([seed, j]), n) for j, n in enumerate(counts)]
    with mock.patch.object(playspace, "BLOCK_CELLS", cells):
        full = simulate_plays(p, x1, strat, horizon, samples, streams())
        if kind in ("uniform", "random_behavior"):
            assert np.array_equal(full, ref_stepped(p, x1, strat, horizon, streams()))
        stream = play_blocks(p, x1, strat, horizon, streams())
        retired, end = np.zeros(samples, dtype=bool), 0
        for t0, ids, *blk in stream:
            assert t0 == end and np.array_equal(ids, np.flatnonzero(~retired))
            for got, want in zip(blk, full):
                assert got.dtype == np.int32
                assert np.array_equal(got, want[ids, t0:t0 + len(got)].T)
            end = t0 + len(blk[0])
            done = rng.random(len(ids)) < rate
            stream.retire(ids[done])
            retired[ids[done]] = True
    assert end == horizon or retired.all()


@settings(max_examples=40, deadline=None)
@given(case=sparse_instances(), kind=hst.sampled_from(["transducer", "schedule", "doubling",
                                                       "uniform", "random_behavior"]),
       horizon=hst.sampled_from([1, STAGE_BLOCK + 1, 2500, 9000]),
       counts=hst.lists(hst.integers(0, 6), min_size=1, max_size=4).filter(any),
       seed=hst.integers(0, 2**16))
def test_long_blocks_give_the_plays_and_draws_of_64_stage_blocks(case, kind, horizon, counts,
                                                                 seed):
    # a narrow pass cut into blocks of up to BLOCK_CELLS cells gives the
    # plays of the same pass cut every STAGE_BLOCK stages (BLOCK_CELLS = 0),
    # and leaves every generator where that pass leaves it: the draw
    # contract does not see the cut
    p, x1, rng = case
    strat = _strategy(kind, p, rng)
    if kind in ("uniform", "random_behavior"):
        horizon = min(horizon, 2500)
    samples = sum(counts)
    got_gens = [(np.random.default_rng([seed, j]), n) for j, n in enumerate(counts)]
    want_gens = [(np.random.default_rng([seed, j]), n) for j, n in enumerate(counts)]
    got = simulate_plays(p, x1, strat, horizon, samples, got_gens)
    with mock.patch.object(playspace, "BLOCK_CELLS", 0):
        want = simulate_plays(p, x1, strat, horizon, samples, want_gens)
    for g, w in zip(got, want):
        assert g.dtype == np.int32 and np.array_equal(g, w)
    for (g, _), (w, _) in zip(got_gens, want_gens):
        assert g.bit_generator.state == w.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(case=sparse_instances(), kind=hst.sampled_from(["transducer", "schedule", "uniform"]),
       counts=hst.lists(hst.sampled_from([0, 1, 2, 5, 40, 300, 1100]), min_size=1, max_size=4)
       .filter(any),
       rate=hst.sampled_from([0.0, 0.3, 1.0]), seed=hst.integers(0, 2**16))
def test_no_block_holds_more_than_its_cell_budget(case, kind, counts, rate, seed):
    # whatever plays retire, a block holds min(max(STAGE_BLOCK, BLOCK_CELLS
    # // drawn), stages left) stages, drawn being the columns of the streams
    # still drawing, so at most max(STAGE_BLOCK * drawn, BLOCK_CELLS) cells;
    # a pass of BLOCK_CELLS // STAGE_BLOCK columns or more keeps
    # STAGE_BLOCK-stage blocks, as a stream of 1100 plays makes it do.
    p, x1, rng = case
    strat = _strategy(kind, p, rng)
    bounds = np.cumsum([0] + counts)
    first = max(STAGE_BLOCK, BLOCK_CELLS // bounds[-1])
    horizon = min(4 * first + 7, 3000 if kind == "uniform" else 40_000)
    stream = play_blocks(p, x1, strat, horizon,
                         [(np.random.default_rng([seed, j]), n) for j, n in enumerate(counts)])
    kept, end = np.ones(bounds[-1], dtype=bool), 0
    for t0, ids, st, _, _ in stream:
        drawn = sum(hi - lo for lo, hi in zip(bounds, bounds[1:]) if kept[lo:hi].any())
        assert len(st) == min(max(STAGE_BLOCK, BLOCK_CELLS // drawn), horizon - t0)
        assert st.size <= max(STAGE_BLOCK * drawn, BLOCK_CELLS)
        end = t0 + len(st)
        done = ids[rng.random(len(ids)) < rate]
        stream.retire(done)
        kept[done] = False
    assert end == horizon or not kept.any()


CUTS = hst.lists(hst.integers(1, 2 * STAGE_BLOCK + 5), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(case=sparse_instances(), kind=KINDS, horizon=hst.integers(1, 3 * STAGE_BLOCK),
       width=hst.integers(1, 5), cuts=hst.lists(CUTS, min_size=2, max_size=2),
       density=hst.floats(0.5, 1.0))
def test_folds_do_not_see_the_block_cut_or_width(case, kind, horizon, width, cuts, density):
    # the weight fold, the prefix-average extrema and the belief payoffs of
    # the same plays, cut anyhow, or each play alone in one-column blocks,
    # are those of one block over every play and stage, bit for bit
    p, x1, rng = case
    states = np.where(rng.random((width, horizon)) < density, 0,
                      rng.integers(0, p.n_states, (width, horizon)))
    plays = (states, rng.integers(0, p.n_actions, (width, horizon)),
             rng.integers(0, p.n_signals, (width, horizon)))
    e, _ = _family(kind, p, x1, horizon, rng)
    ctx, window = EvalContext(p, x1), int(rng.integers(1, horizon + 1))

    def reductions(plays, sizes):
        blocks = list(cut(plays, sizes))
        g = [(t0, p.reward[st, ac]) for t0, _, st, ac, _ in blocks]
        bel = list(belief_payoff_blocks(p, x1, [(t0, a, s) for t0, _, _, a, s in blocks]))
        return [*weight_sums(e, cut(plays, sizes), horizon, ctx, p.reward),
                *average_extrema(g, horizon, window), *average_extrema(bel, horizon),
                np.concatenate([b for _, b in bel]).T]

    want = reductions(plays, [horizon])
    for sizes in cuts:
        for got, w in zip(reductions(plays, sizes), want):
            assert np.array_equal(got, w)
    for j in range(width):
        alone = reductions(tuple(m[j:j + 1] for m in plays), cuts[j % 2])
        for got, w in zip(alone, want):
            assert np.array_equal(got, w[j:j + 1])


def _block_bounds(stream) -> list:
    """(t0, stages) of every block of a stream that retires no play."""
    return [(t0, len(st)) for t0, _, st, _, _ in stream]


def _blocks_needed(bounds, stage, ahead) -> int:
    """How many of the blocks `bounds` hold stage `stage` (1-based) and at
    least `ahead` stages after the end of the block that holds it, or all
    of them."""
    j = next(j for j, (t0, b) in enumerate(bounds) if t0 < stage <= t0 + b) + 1
    while ahead > 0 and j < len(bounds):
        ahead, j = ahead - bounds[j][1], j + 1
    return j


@pytest.mark.parametrize("spec, stage, ahead", [
    ({"kind": "run_block_ex2", "l": 5}, 6, 4),
    ({"kind": "run_block_ex2", "l": STAGE_BLOCK + 11}, STAGE_BLOCK + 12, STAGE_BLOCK + 10),
    ({"kind": "n_stage", "n": STAGE_BLOCK + 6}, STAGE_BLOCK + 6, 0),
    ({"kind": "state_block_ex1", "l": 40}, 80, 0)])
@pytest.mark.parametrize("cells", [0, BLOCK_CELLS])
def test_the_pass_stops_once_every_play_is_retired(redraw, spec, stage, ahead, cells):
    # every play starts in state 0 and stays there, so every play's weights
    # are known to end at the same stage, given the look-ahead its block
    # step reads past that stage's block (a run of l ends at stage l + 1
    # and is seen l - 1 stages on); the stream makes only the blocks that
    # holds, of the blocks a pass retiring no play makes, and the fold's sums
    # are unchanged.  With cells = 0 every block holds STAGE_BLOCK stages.
    p, x1 = _into_state_zero(redraw.pomdp), np.array([1.0, 0.0])
    strat, samples = pe.always_strategy(2, 1, 0), 50
    e, ctx = pe.evaluation_from_spec(spec), EvalContext(p, x1)
    with mock.patch.object(playspace, "BLOCK_CELLS", cells):
        horizon = 12 * playspace._block_stages([(None, samples, None)])
        stream = lambda: play_blocks(p, x1, strat, horizon, [(np.random.default_rng(7), samples)])
        bounds = _block_bounds(stream())
        retiring, made = stream(), []
        for t0, ids, *_, done in e.weight_blocks(retiring, horizon, ctx):
            made.append(t0)
            if done is not None:
                retiring.retire(ids[done])
        got = reduce_sampled_plays(p, x1, strat, horizon, samples, 7,
                                   lambda b: weight_sums(e, b, horizon, ctx, p.reward))
    assert made == [t0 for t0, _ in bounds[:_blocks_needed(bounds, stage, ahead)]]
    assert len(made) < len(bounds)
    plays = simulate_plays(p, x1, strat, horizon, samples,
                           list(zip(shard_seeds(7, MC_SHARDS), [13, 13, 12, 12])))
    want = ref_fold_sums(p, e.batch_weights(*plays, ctx), *plays[:2])
    for g, r in zip(got, want):
        assert np.array_equal(g, r)
    assert np.allclose(got[1], 1.0)


@pytest.mark.parametrize("cells", [0, BLOCK_CELLS])
@pytest.mark.parametrize("stepped", [False, True])
def test_a_stream_whose_plays_all_retire_stops_drawing(redraw, stepped, cells):
    # stream 0's plays retire after the first block: its generator then ends
    # where a pass of one block leaves it, while stream 1's plays keep the
    # columns of the pass that retires none, in blocks that run on to the
    # horizon
    p, x1 = redraw.pomdp, redraw.initial_belief
    strat = pe.uniform_strategy(2) if stepped else pe.always_strategy(2, 1, 0)
    counts = [3, 4]
    streams = lambda: [(np.random.default_rng([9, j]), n) for j, n in enumerate(counts)]
    with mock.patch.object(playspace, "BLOCK_CELLS", cells):
        horizon = 3 * playspace._block_stages([(None, sum(counts), None)]) + 5
        full = simulate_plays(p, x1, strat, horizon, sum(counts), streams())
        gens = streams()
        stream = play_blocks(p, x1, strat, horizon, gens)
        made, end = [], 0
        for t0, ids, *blk in stream:
            assert t0 == end
            made.append(t0)
            for got, want in zip(blk, full):
                assert np.array_equal(got, want[ids, t0:t0 + len(got)].T)
            if t0 == 0:
                stream.retire(np.arange(counts[0]))
            end = t0 + len(blk[0])
        one_block = streams()
        for _ in play_blocks(p, x1, strat, made[1], one_block):
            pass
    assert end == horizon and len(made) > 1
    assert gens[0][0].bit_generator.state == one_block[0][0].bit_generator.state
    assert gens[1][0].bit_generator.state != one_block[1][0].bit_generator.state


def test_conditional_weights_retire_every_play_at_the_table_horizon(redraw):
    # the conditional of a 3-stage table weighs zero from stage 4 on, so a
    # pass of ten blocks ends after its first block, with the sums of a pass
    # that retires no play
    p, x1 = redraw.pomdp, redraw.initial_belief
    strat = pe.uniform_strategy(2)
    horizon = 10 * playspace._block_stages([(None, 20, None)])
    cond = conditional_evaluation(p, x1, strat, pe.make_evaluation("n_stage", n=3), 3)
    stream = lambda: play_blocks(p, x1, strat, horizon, [(np.random.default_rng(4), 20)])
    retiring, made = stream(), []
    for t0, ids, *_, done in cond.weight_blocks(retiring, horizon):
        made.append(t0)
        if done is not None:
            retiring.retire(ids[done])
    assert made == [0]
    keeping = stream()
    keeping.retire = lambda ids: None
    assert len(list(cond.weight_blocks(stream(), horizon))) == 10
    got = weight_sums(cond, stream(), horizon, None, p.reward)
    for g, r in zip(got, weight_sums(cond, keeping, horizon, None, p.reward)):
        assert np.array_equal(g, r)
    assert np.allclose(got[1], 1.0)


class _StageRule(pe.Strategy):
    """A pure strategy blind to the observed pairs, the action at stage t
    being rule(t), that is no schedule: it runs through the stepped kernel."""

    def __init__(self, n_actions, rule):
        self.n_actions, self.rule = n_actions, rule

    def dist(self, mem):
        return np.eye(self.n_actions)[[self.rule(m + 1) for m in mem.tolist()]]


@pytest.mark.parametrize("cells", [0, BLOCK_CELLS])
@pytest.mark.parametrize("l", [4, 9, 14])
@pytest.mark.parametrize("stepped", [False, True])
def test_a_play_left_alone_sums_as_a_column_of_its_pass(l, stepped, cells):
    # two plays start in state 0 and retire within the first block; the
    # third starts in state 1, reaches state 0 after stage `late` and has
    # its run in a block that holds it alone.  Its sums must be those of a
    # column of the three-play pass, added stage by stage as for the others:
    # numpy sums a lone column pairwise, so the fold must not.
    trans = np.zeros((2, 3, 2, 1))
    for k in range(2):
        trans[k, 0, k, 0] = trans[k, 1, k, 0] = trans[k, 2, 1 - k, 0] = 1.0
    p = pe.Pomdp(("s0", "s1"), ("stay", "hold", "flip"), ("o",), trans,
                 np.array([[0.1, 0.7, 0.2], [0.3, 0.9, 0.4]]))
    x1, e = np.array([0.5, 0.5]), pe.make_evaluation("run_block_ex2", l=l)
    with mock.patch.object(playspace, "BLOCK_CELLS", cells):
        block = playspace._block_stages([(None, 3, None)])
        late, horizon = 2 * block + 12, 2 * block + 4 * STAGE_BLOCK

        def rule(stage):
            # flip the state at stage `late`, else alternate between two
            # actions that keep it and pay differently
            return 2 if stage == late else bin(stage).count("1") % 2

        strat = _StageRule(3, rule) if stepped else pe.ScheduleStrategy(3, rule)
        plays = simulate_plays(p, x1, strat, horizon, 3, np.random.default_rng(0))
        stream = lambda: play_blocks(p, x1, strat, horizon, [(np.random.default_rng(0), 3)])
        retiring, widths = stream(), []
        for t0, ids, *_, done in e.weight_blocks(retiring, horizon):
            widths.append(len(ids))
            retiring.retire(ids[done])
        got = weight_sums(e, stream(), horizon, None, p.reward)
    assert plays[0][:, 0].tolist() == [1, 0, 0]
    assert widths[0] == 3 and widths[-1] == 1
    for g, r in zip(got, ref_fold_sums(p, e.batch_weights(*plays), *plays[:2])):
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


def _action_payoffs():
    """An instance whose signal reveals the next state from a Dirac start, so
    every belief is a Dirac, and whose reward is the action's index: the
    belief payoff at a stage is exactly its action, 0 or 1."""
    q = np.array([[[0.3, 0.7], [0.6, 0.4]], [[0.5, 0.5], [0.2, 0.8]]])
    trans = q[..., None] * np.eye(2)
    p = pe.Pomdp(("s0", "s1"), ("a0", "a1"), ("o0", "o1"), trans, np.array([[0.0, 1.0]] * 2))
    return p, np.array([1.0, 0.0])


def _limsup_reference(g, l):
    """limsup_theta's weights from `_eta_stages` of the whole (stages, plays)
    payoffs g."""
    eta = _eta_stages(g, l)
    return np.where(np.arange(len(g))[:, None] < eta, 1.0 / eta, 0.0).T


@settings(max_examples=100, deadline=None)
@given(case=sparse_instances(), by_action=hst.booleans(),
       horizon=hst.integers(1, 2 * STAGE_BLOCK + 70), width=hst.integers(1, 6),
       l_at=hst.sampled_from(["horizon", "any"]), cuts=hst.lists(CUTS, min_size=1, max_size=2),
       density=hst.floats(0.0, 1.0), stop=hst.floats(0.0, 1.0))
def test_limsup_theta_weights_equal_eta_stages_of_the_whole_play(case, by_action, horizon, width,
                                                                 l_at, cuts, density, stop):
    # the weights from two streamed sweeps over any block cut are those of
    # `_eta_stages` on the concatenated belief payoffs, bit for bit.  With
    # payoffs 0/1 (the actions of `_action_payoffs`) prefix averages tie
    # often, across cuts too, and where the ones stop at a fraction `stop` of
    # the horizon, l = horizon often has no hit, so eta falls back to the
    # first largest average.
    p, x1, rng = case
    if by_action:
        p, x1 = _action_payoffs()
        actions = (rng.random((width, horizon)) < density).astype(np.int64)
        actions[:, int(stop * horizon):] = 0
    else:
        actions = rng.integers(0, p.n_actions, (width, horizon))
    l = horizon if l_at == "horizon" else int(rng.integers(1, horizon + 1))
    plays = (rng.integers(0, p.n_states, (width, horizon)), actions,
             rng.integers(0, p.n_signals, (width, horizon)))
    g = ref_belief_payoffs(p, x1, plays[1], plays[2]).T
    if by_action:
        assert np.array_equal(g, plays[1].T.astype(float))
    want = _limsup_reference(g, l)
    e, ctx = pe.make_evaluation("limsup_theta", l=l, horizon=horizon), EvalContext(p, x1)
    for sizes in cuts:
        assert np.array_equal(streamed_weights(e, plays, sizes, ctx), want)
    assert np.array_equal(e.batch_weights(*plays, ctx), want)


@pytest.mark.parametrize("sizes", [[1], [3], [7, 2], [STAGE_BLOCK], [40]])
def test_limsup_theta_falls_back_to_the_first_largest_average_across_cuts(sizes):
    # at l = n = 40 neither play's last average is within 1/40 of its
    # tail-half maximum: the first play's largest average 1 ties at stages
    # 1-3, the second's 1/2 at every even stage up to 18, across every cut
    p, x1 = _action_payoffs()
    actions = np.zeros((2, 40), dtype=np.int64)
    actions[0, :3] = 1
    actions[1, 1:18:2] = 1
    plays = (np.zeros_like(actions), actions, np.zeros_like(actions))
    e = pe.make_evaluation("limsup_theta", l=40, horizon=40)
    w = streamed_weights(e, plays, sizes, EvalContext(p, x1))
    assert [eta_horizon(a, 40) for a in actions] == [1, 2]
    assert np.array_equal(w, _limsup_reference(actions.T.astype(float), 40))
    assert w[0, 0] == 1.0 and w[1, :2].tolist() == [0.5, 0.5] and w.sum() == 2.0


def test_limsup_theta_pass_holds_under_20_bytes_per_play_stage(redraw):
    # the limsup_theta pass holds its play blocks (three int32 per cell)
    # and streams everything else: no (plays, horizon) float matrix of
    # belief payoffs, averages or weights is built (whole-play float
    # matrices of those would take about 38 traced bytes per cell)
    p, x1 = redraw.pomdp, redraw.initial_belief
    samples, horizon = 2000, 400
    e = pe.make_evaluation("limsup_theta", l=4, horizon=horizon)
    tracemalloc.start()
    try:
        rep = weighted_payoff_mc(p, x1, pe.builtin_strategy("always:0", p), e, horizon,
                                 samples, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(rep.value - 0.5) <= rep.error_bound
    assert peak < 20 * samples * horizon, f"{peak / (samples * horizon):.1f} B per cell"


def test_window_start_outside_the_horizon_is_rejected():
    with pytest.raises(pe.InvalidInputError):
        average_extrema([(0, np.zeros((3, 2)))], 3, 4)
