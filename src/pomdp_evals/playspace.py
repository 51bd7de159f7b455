"""Play-space machinery shared by the payoff, irregularity and measure code.

Exact and Monte Carlo results reduce plays with the same block folds:
`enumerate_plays` returns the whole play tree as one `PlayBatch` with its
probabilities (one block), and `play_blocks` streams seeded plays one stage
block at a time, so Monte Carlo never holds a (plays, horizon) matrix and
stops simulating the plays its consumer retires; `simulate_plays` collects
that stream for API callers.  Also here:
observed-prefix grouping and the stage-blocked Bayes filter along observed
histories."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .model import Pomdp, bayes_matrices, bayes_update, bayes_update_rows
from .strategies import ScheduleStrategy, Strategy, Transducer

DEFAULT_NODE_BUDGET = 2_000_000
PROB_FLOOR = 1e-12
# Stages per block: simulation draws uniforms and emits plays, and the Bayes
# filter and every Monte Carlo reduction consume them, one block at a time,
# so a Monte Carlo pass holds O(plays x STAGE_BLOCK) memory whatever the
# horizon.  At 64 stages x 10 000 plays one float64 block takes 5 MB.
STAGE_BLOCK = 64


@dataclass(frozen=True)
class PlayBatch:
    """Horizon-truncated plays with their probabilities: `states`, `actions`
    and `signals` are (n_plays, horizon) int matrices, `prob` is (n_plays,)."""

    states: np.ndarray
    actions: np.ndarray
    signals: np.ndarray
    prob: np.ndarray

    def __len__(self) -> int:
        return len(self.prob)


def enumerate_plays(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                    budget: int = DEFAULT_NODE_BUDGET) -> PlayBatch:
    """All horizon-truncated plays with positive probability under (x1, strat).

    The tree is built stage by stage.  A stage cell is a prefix extended by
    one (action, next state, signal) triple whose action and transition
    probabilities both exceed PROB_FLOOR.  The cells of the last stage are the
    plays, so two rows are equal when their plays differ only in the state
    after the horizon.  Rows come in lexicographic order of
    (k_1, i_1, k_2, s_1, i_2, k_3, s_2, ...), and each probability is the
    left-to-right product x1(k_1) pi_1(i_1) q(k_2, s_1 | k_1, i_1) pi_2(i_2) ...
    The strategy's memory is stepped along the tree, one batched call per stage.

    Raises BudgetExceededError, before a stage is built, once the total number
    of stage cells would pass `budget`.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    n_k, n_s = p.n_states, p.n_signals
    live = p.transition > PROB_FLOOR                     # (K, I, K, S)
    live_count = live.sum(axis=(2, 3))                   # (K, I)
    state = np.flatnonzero(np.asarray(x1) > PROB_FLOOR)  # current state per node
    prob = np.asarray(x1, dtype=float)[state]
    mem = strat.start(len(state))                        # strategy memory per node
    cols = [np.empty((len(state), 0), dtype=np.intp)] * 3  # states, actions, signals so far
    cells = 0
    for t in range(horizon):
        pi = strat.dist(mem)
        played = pi > PROB_FLOOR
        cells += int((played * live_count[state]).sum())
        if cells > budget:
            raise BudgetExceededError(f"play enumeration exceeded the node budget ({budget})")
        parent, cell = np.nonzero((played[:, :, None, None] & live[state]).reshape(len(state), -1))
        action, rest = np.divmod(cell, n_k * n_s)
        nxt, signal = np.divmod(rest, n_s)
        cols = [np.column_stack([c[parent], v]) for c, v in
                zip(cols, (state[parent], action, signal))]
        prob = prob[parent] * pi[parent, action] * p.transition[state[parent], action, nxt, signal]
        state = nxt
        if t + 1 < horizon:
            mem = strat.step(mem[parent], action, signal)
    return PlayBatch(*cols, prob)


def prefix_ids(actions: np.ndarray, signals: np.ndarray) -> tuple:
    """Number the observed prefixes of a batch of plays stage by stage.

    Returns (ids, first): ids[j, m] numbers, among the distinct observed
    prefixes held before stage m+1 (the first m action/signal pairs), the one
    of play j, in lexicographic order of (i_1, s_1, ..., i_m, s_m); first[m]
    lists for each id the first row that holds it.  Column 0 is the empty
    prefix.
    """
    n, horizon = actions.shape
    n_a = int(actions.max(initial=0)) + 1
    n_s = int(signals.max(initial=0)) + 1
    ids = np.zeros((n, horizon), dtype=np.intp)
    first = [np.zeros(min(n, 1), dtype=np.intp)]
    for m in range(1, horizon):
        key = (ids[:, m - 1] * n_a + actions[:, m - 1]) * n_s + signals[:, m - 1]
        _, rows, ids[:, m] = np.unique(key, return_index=True, return_inverse=True)
        first.append(rows)
    return ids, first


# ---------------------------------------------------------------------------
# Beliefs along histories
# ---------------------------------------------------------------------------

def belief_sequence(p: Pomdp, x1: np.ndarray, actions, signals) -> np.ndarray:
    """Beliefs x_1 .. x_n held before each stage, from the observed pairs.

    Entry m-1 is the belief at stage m (computed from the first m-1 pairs).
    Off-support observations fall back to the Dirac at the first state.
    """
    n = len(actions)
    out = np.empty((n, p.n_states))
    x = np.asarray(x1, dtype=float)
    for m in range(n):
        out[m] = x
        x = bayes_update(p, x, int(actions[m]), int(signals[m]))
    return out


def belief_blocks(p: Pomdp, x1: np.ndarray, actions: np.ndarray, signals: np.ndarray):
    """Stage-blocked Bayes filter for a batch of observed plays.

    actions/signals have shape (n_plays, horizon).  Yields (t0, bel) for
    consecutive blocks of at most STAGE_BLOCK stages, where bel[j] (n_plays, K)
    holds the beliefs at stage t0 + j + 1.  `bel` is a view of a one-block
    buffer that the next block overwrites.  Off-support observations fall
    back to the Dirac at the first state, as in `belief_sequence`.
    """
    for t0, _, bel in _filter(p, x1, _column_blocks(actions, signals)):
        yield t0, bel


def belief_payoff_blocks(p: Pomdp, x1: np.ndarray, blocks):
    """Per-stage belief payoffs g(x_m, i_m) along a stream of observed play
    blocks (t0, actions, signals), each time-major (block, plays) with at
    most STAGE_BLOCK stages: yields (t0, g) with g of the block's shape.  The
    filter state carried between blocks is one (plays, K) belief."""
    reward_of = p.reward.T
    for t0, actions, bel in _filter(p, x1, blocks):
        yield t0, np.einsum("tnk,tnk->tn", bel, reward_of[actions])


def batched_belief_payoffs(p: Pomdp, x1: np.ndarray, actions: np.ndarray,
                           signals: np.ndarray) -> np.ndarray:
    """Per-stage belief payoffs g(x_m, i_m) for a batch of observed plays.

    actions/signals have shape (n_plays, horizon); returns the same shape.
    """
    out = np.empty(actions.shape)
    for t0, g in belief_payoff_blocks(p, x1, _column_blocks(actions, signals)):
        out[:, t0:t0 + len(g)] = g.T
    return out


def _column_blocks(*mats):
    """(t0, *blocks): the (n, horizon) matrices cut into time-major blocks of
    at most STAGE_BLOCK stages."""
    for t0 in range(0, mats[0].shape[1], STAGE_BLOCK):
        yield (t0, *(m[:, t0:t0 + STAGE_BLOCK].T for m in mats))


def _filter(p: Pomdp, x1: np.ndarray, blocks):
    """Bayes filter over (t0, actions, signals) blocks of at most STAGE_BLOCK
    stages: yields (t0, actions, bel), bel[j] (plays, K) being the beliefs at
    stage t0 + j + 1, a view of a buffer that the next block overwrites."""
    bayes = bayes_matrices(p)
    bel = None
    for t0, actions, signals in blocks:
        if bel is None:
            # bel[j] holds the beliefs at the block's stage j; bel[b] carries
            # into the next block, so only one block of beliefs is ever held
            bel = np.empty((STAGE_BLOCK + 1, actions.shape[1], p.n_states))
            bel[0] = np.asarray(x1, dtype=float)
        codes = actions * p.n_signals + signals
        for j, code in enumerate(codes):
            bayes_update_rows(bayes, bel[j], code, out=bel[j + 1])
        yield t0, actions, bel[:len(codes)]
        bel[0] = bel[len(codes)]


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

def simulate_plays(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                   samples: int, rng: np.random.Generator | list):
    """Sample plays; returns (states, actions, signals) as (samples, horizon)
    int32 matrices collected from the blocks of `play_blocks`.  Transducers
    and open-loop schedules have finite tables over the horizon and run as a
    Markov chain in the stage-blocked kernel; every other strategy is stepped
    through its `start`/`dist`/`step` interface, one stage at a time for all
    plays at once.

    `rng` is either one generator for all `samples` plays or a list of
    (generator, count) streams whose counts sum to `samples`.  Each stream
    fills its own consecutive block of rows from its own generator, so a
    multi-stream call returns exactly the concatenation of separate calls,
    one per stream.

    Draw contract, per stream: the initial states come from one `rng.choice`
    call.  Then, on the chain kernel, stage t uses the next `count` uniforms,
    one per play in order, for the (next state, signal) draw.  A stepped
    strategy draws two rows of `count` uniforms per stage: one uniform per
    play for its action, then one per play for the (next state, signal) pair.
    The plays therefore depend only on the generator state, not on how stages
    are blocked, and a shorter horizon gives a prefix of a longer one.
    """
    streams = [(rng, samples)] if isinstance(rng, np.random.Generator) else list(rng)
    if sum(n for _, n in streams) != samples:
        raise InvalidInputError("stream counts must sum to the sample count")
    blocks = play_blocks(p, x1, strat, horizon, streams)
    plays = [np.empty((samples, horizon), dtype=np.int32) for _ in range(3)]
    for t0, *blk in blocks:
        for out, b in zip(plays, blk):
            out[:, t0:t0 + len(b)] = b.T
    return tuple(plays)


def play_blocks(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int, streams: list):
    """Sampled plays one stage block at a time, as a `PlayStream` over
    `horizon` stages.  `streams` lists (generator, count) pairs as in
    `simulate_plays`, whose draw contract the blocks follow; a consumer that
    keeps only per-play state holds O(plays x STAGE_BLOCK) memory.  A
    consumer may retire plays it needs no more stages of: later blocks leave
    them out and neither kernel steps them, while each stream still draws
    its full (block, count) uniforms, so the plays kept see exactly the
    draws they would without retirement."""
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    if any(n < 0 for _, n in streams):
        raise InvalidInputError("stream counts must be >= 0")
    tables = _chain_tables(p, strat, horizon)
    if tables is None:
        return PlayStream(_simulate_stepped(p, x1, strat, horizon, streams))
    return PlayStream(_simulate_chain(p, x1, *tables, horizon, streams))


class PlayStream:
    """One pass's sampled plays, one stage block at a time.

    Iterating yields (t0, states, actions, signals) for consecutive blocks of
    at most STAGE_BLOCK stages, each a time-major (block, plays) int32 array
    whose row j is stage t0 + j + 1.  A block's columns are plays of the pass
    in id order, a play's id being its position among the pass's plays;
    `ids(t0)` lists them for the block at stage t0.  A consumer that needs no
    more stages of some plays retires them: every block made afterwards
    leaves them out, both simulation kernels step only the plays kept, and
    the stream ends once no play is left.  A consumer that never retires
    sees every play in every block.
    """

    def __init__(self, kernel):
        self._kernel = kernel   # yields (ids, t0, states, actions, signals); sent retired ids
        self._ids = {}          # t0 -> play ids of the block's columns, until it is retired
        self._alive = None      # play ids of the last block made
        self._gone = []         # play ids retired and not yet left out

    def __iter__(self):
        return self

    def __next__(self):
        gone = np.concatenate(self._gone) if self._gone else None
        # A block is never cut to one play of several: numpy sums a lone
        # column pairwise, not stage by stage as it sums each column of a
        # wider block, so the consumers' sums would change in the last bits.
        # The retired plays wait until the last one goes too.
        if gone is not None and np.isin(self._alive, gone, invert=True).sum() == 1:
            gone = None
        else:
            self._gone = []
        self._alive, *blk = self._kernel.send(gone)
        self._ids[blk[0]] = self._alive
        return tuple(blk)

    def ids(self, t0: int) -> np.ndarray:
        """Play ids of the columns of the block at stage t0."""
        return self._ids[t0]

    def retire(self, t0: int, done) -> None:
        """Called once per block, in stage order, when the consumer is through
        with the block at stage t0: the plays its boolean `done` flags (none
        when None) are left out of every block made afterwards."""
        ids = self._ids.pop(t0)
        if done is not None and done.any():
            self._gone.append(ids[done])


def block_ids(blocks, t0: int, width: int) -> np.ndarray:
    """Play ids of the columns of the block at stage t0: a `PlayStream`'s
    own, else all `width` plays in order."""
    return blocks.ids(t0) if isinstance(blocks, PlayStream) else np.arange(width)


def _stream_draws(streams: list, alive: np.ndarray) -> list:
    """(generator, count, columns) per stream: which columns of its
    (rows, count) uniforms belong to the plays `alive` (sorted ids), a slice
    when all of them do."""
    bounds = np.cumsum([0] + [n for _, n in streams])
    cut = alive.searchsorted(bounds)
    return [(g, n, slice(None) if hi - lo == n else alive[lo:hi] - first)
            for (g, n), first, lo, hi in zip(streams, bounds, cut, cut[1:])]


def _draw(draws: list, out: np.ndarray) -> np.ndarray:
    """Fill out (rows, plays) with every stream's next (rows, count)
    uniforms, each stream drawing all of them, keeping its alive columns."""
    col = 0
    for g, n, cols in draws:
        u = g.random((len(out), n))[:, cols]
        out[:, col:col + u.shape[1]] = u
        col += u.shape[1]
    return out


def _narrow(streams: list, alive: np.ndarray, gone: np.ndarray) -> tuple:
    """(keep, alive, draws) once the plays `gone` leave: the positions in
    `alive` of the plays kept, their ids and their streams' draw columns."""
    keep = np.flatnonzero(~np.isin(alive, gone))
    return keep, alive[keep], _stream_draws(streams, alive[keep])


def _chain_tables(p: Pomdp, strat: Strategy, horizon: int):
    """Chain-kernel tables (act, stage_table, nxt, m, initial) of a strategy
    with finite tables over the horizon, else None.  A transducer runs as a
    Markov chain on (state, memory) pairs; an open-loop schedule as one on
    states, with the stage's action picking the transition table."""
    k, n_s = p.n_states, p.n_signals
    code = np.arange(k * n_s)
    if isinstance(strat, Transducer):
        m = strat.n_memory
        mem = np.arange(k * m) % m
        act = strat.act[mem][None, :]
        nxt = (code // n_s) * m + strat.update[mem[:, None], act.T, code % n_s]
        return act, np.zeros(horizon, dtype=np.intp), nxt, m, strat.initial
    if isinstance(strat, ScheduleStrategy):
        act = np.repeat(np.arange(p.n_actions)[:, None], k, axis=1)
        stage_table = strat.dist(np.arange(horizon)).argmax(axis=1)
        return act, stage_table, np.broadcast_to(code // n_s, (k, k * n_s)), 1, 0
    return None


def _simulate_stepped(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                      streams: list):
    """All plays one stage at a time through the strategy's interface: an
    inverse-CDF draw of each play's action from `dist`, then of its (next
    state, signal) pair, then one `step` of the memory.  Each uniform is
    scaled by its row's total, so a draw never lands past the last
    positive-probability entry.  Yields (ids, t0, states, actions, signals)
    per block and takes the ids of retired plays back, as `PlayStream`
    drives it."""
    k, n_s = p.n_states, p.n_signals
    samples = sum(n for _, n in streams)
    cum = np.cumsum(p.transition.reshape(k, p.n_actions, k * n_s), axis=2)
    x1 = np.asarray(x1) / np.asarray(x1).sum()
    state = np.concatenate([g.choice(k, size=n, p=x1) for g, n in streams])
    mem = strat.start(samples)
    alive = np.arange(samples)
    draws = _stream_draws(streams, alive)
    for t0 in range(0, horizon, STAGE_BLOCK):
        blk = np.empty((3, min(STAGE_BLOCK, horizon - t0), len(alive)), dtype=np.int32)
        u = np.empty((2, len(alive)))
        for out in blk.transpose(1, 0, 2):
            _draw(draws, u)
            law = np.cumsum(strat.dist(mem), axis=1)
            action = (law <= (u[0] * law[:, -1])[:, None]).sum(axis=1)
            row = cum[state, action]
            code = (row <= (u[1] * row[:, -1])[:, None]).sum(axis=1)
            out[:] = state, action, code % n_s
            mem = strat.step(mem, action, code % n_s)
            state = code // n_s
        gone = yield alive, t0, *blk
        if gone is not None:
            keep, alive, draws = _narrow(streams, alive, gone)
            if not len(alive):
                return
            state, mem = state[keep], mem[keep]


def _simulate_chain(p: Pomdp, x1: np.ndarray, act: np.ndarray, stage_table: np.ndarray,
                    nxt: np.ndarray, m: int, initial: int, horizon: int, streams: list):
    """Stage-blocked run of a Markov chain on combined indices c = state*m + memory.

    act[a, c] is the action played at c under table a, stage_table[t] the
    table used at stage t+1, and nxt[c, code] the next combined index after
    the (next state, signal) code = l*S + s.  Each stage is one inverse-CDF
    draw per play from its stream's next uniforms, in stage order.  Yields
    and takes back as `_simulate_stepped` does.
    """
    k, n_s = p.n_states, p.n_signals
    width = k * n_s
    n_c = act.shape[1]
    samples = sum(n for _, n in streams)
    cum = np.cumsum(p.transition.reshape(k, p.n_actions, width)[np.arange(n_c) // m, act],
                    axis=2)
    # Row c of a table holds 2c + cum[c, :-1] and the guard 2c + 2.  A draw
    # 2c + u of row c counts every earlier entry and exactly `code` of its
    # own, so searchsorted returns c*width + code, the flat index into nxt,
    # with no clamping: dropping the last cumulative entry caps the code at
    # width - 1, and rows two apart stay apart even when 2c + u rounds up to
    # 2c + 1 or a row sums to slightly more than 1.
    shift = 2.0 * np.arange(n_c)[:, None]
    tables = list(np.concatenate(
        [cum[:, :, :-1] + shift, np.broadcast_to(shift + 2.0, (len(act), n_c, 1))],
        axis=2).reshape(len(act), -1))
    nxt_flat = np.ascontiguousarray(nxt, dtype=np.int64).ravel()
    shift_of = 2.0 * nxt_flat
    state_of = (np.arange(n_c) // m).astype(np.int32)
    signal_of = (np.arange(n_c * width) % n_s).astype(np.int32)
    act = act.astype(np.int32)
    # time-major block rows: idx[j] is the combined index at the block's stage
    # j, and idx[b] carries into the next block; `base` is 2 * idx at the
    # stage being drawn.  y and pos, the block's uniforms and table
    # positions, share one buffer reused from block to block: the positions
    # are copied in once every uniform of the block is spent.  Both buffers
    # are flat, so a block over fewer plays is a contiguous prefix of them.
    idx_buf = np.empty((STAGE_BLOCK + 1) * samples, dtype=np.int64)
    y_buf = np.empty(STAGE_BLOCK * samples)
    x1 = np.asarray(x1) / np.asarray(x1).sum()
    idx_buf[:samples] = np.concatenate([g.choice(k, size=n, p=x1) for g, n in streams]) * m \
        + initial
    base = 2.0 * idx_buf[:samples]
    alive = np.arange(samples)
    draws = _stream_draws(streams, alive)
    for t0 in range(0, horizon, STAGE_BLOCK):
        b, n = min(STAGE_BLOCK, horizon - t0), len(alive)
        idx = idx_buf[:(b + 1) * n].reshape(b + 1, n)
        y = _draw(draws, y_buf[:b * n].reshape(b, n))
        pos = y.view(np.int64)
        drawn = []
        for yj, a in zip(y, stage_table[t0:t0 + b].tolist()):
            yj += base
            drawn.append(tables[a].searchsorted(yj, side="right"))
            shift_of.take(drawn[-1], out=base)
        np.concatenate(drawn, out=pos.reshape(-1))
        del drawn                     # hold only the block while it is consumed
        nxt_flat.take(pos, out=idx[1:])
        signals = signal_of.take(pos)
        # pos is spent too: reuse it for the flat indices into act
        np.add(idx[:b], (stage_table[t0:t0 + b] * n_c)[:, None], out=pos)
        gone = yield alive, t0, state_of.take(idx[:b]), act.take(pos), signals
        carry = idx[b]
        if gone is not None:
            keep, alive, draws = _narrow(streams, alive, gone)
            if not len(alive):
                return
            carry, base = carry[keep], base[keep]
        idx_buf[:len(alive)] = carry


def shard_seeds(seed: int, shards: int) -> list:
    """Deterministic per-shard generators for parallel-style Monte Carlo."""
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(shards)]


MC_CELL_BUDGET = 40_000_000


def plan_shards(samples: int, horizon: int, shards: int) -> int:
    """Number of generator streams (shards) for `samples` plays: never fewer
    than the requested shard count, and enough that each shard holds at most
    MC_CELL_BUDGET (play, stage) cells.  A shard fixes which generator draws
    its plays, not how they are simulated, so this count keeps fixed-seed
    draws stable however the plays are reduced."""
    need = -(-samples * horizon // MC_CELL_BUDGET)
    return max(1, min(samples, max(shards, need)))


def reduce_sampled_plays(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                         samples: int, seed: int, reduce, shards: int = 4) -> list:
    """Simulate `samples` plays in seeded shards and reduce them play by play.

    `reduce(blocks)` consumes one pass's `PlayStream` from `play_blocks`,
    (t0, states, actions, signals) time-major blocks in stage order, and
    returns a tuple of per-play arrays, indexed by play id; the result lists
    each of them concatenated over all plays, in shard order.  No
    (plays, horizon) matrix is built: a pass holds O(plays x STAGE_BLOCK)
    cells plus what `reduce` carries.  A `reduce` that retires plays (the
    weight fold `evaluations.weight_sums` retires those whose weights are
    spent) makes the pass simulate only the plays still needed, and ends it
    once none is.  Consecutive shards share one pass while it stays within
    MC_CELL_BUDGET block cells; each shard still draws from its own
    generator, so the plays do not depend on the grouping.
    """
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    counts = [len(c) for c in
              np.array_split(np.arange(samples), plan_shards(samples, horizon, shards))]
    passes = [[]]
    for g, n in zip(shard_seeds(seed, len(counts)), counts):
        if passes[-1] and (sum(c for _, c in passes[-1]) + n) * STAGE_BLOCK > MC_CELL_BUDGET:
            passes.append([])
        passes[-1].append((g, n))
    parts = [reduce(play_blocks(p, x1, strat, horizon, grp)) for grp in passes]
    return [np.concatenate(col) for col in zip(*parts)]


def sample_mean(v: np.ndarray) -> tuple:
    """Mean of per-play values and its standard error (0 for one play)."""
    se = float(v.std(ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0
    return float(v.mean()), se
