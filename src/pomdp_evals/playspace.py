"""Play-space machinery shared by the payoff, irregularity and measure code.

Exact and Monte Carlo results reduce one stream type, the `PlayStream`,
whose blocks carry their play ids: `enumerate_plays` returns the whole play
tree as one `PlayBatch` with its probabilities, which `one_block_stream`
turns into a stream of one block, and `play_blocks` streams seeded plays one
stage block at a time, each sized by the cells it costs (`BLOCK_CELLS`), so
Monte Carlo never holds a (plays, horizon) matrix, a narrow pass pays the
fixed cost of a block once per thousands of stages, and the pass stops
simulating the plays its consumer retires; `simulate_plays`
collects that stream for API callers.  Also here: observed-prefix grouping
and belief payoffs along observed histories, walked on the closed belief
graph of the initial belief (`model.belief_graph`) or filtered stage block
by stage block."""
from __future__ import annotations

import functools
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .model import (Pomdp, _check_dims, bayes_matrices, bayes_update_rows, belief_graph,
                    make_belief)
from .strategies import ScheduleStrategy, Strategy, Transducer, json_integer

DEFAULT_NODE_BUDGET = 2_000_000
PROB_FLOOR = 1e-12
# Stages per block: simulation draws uniforms and emits plays, and the Bayes
# filter and every Monte Carlo reduction consume them, one block at a time,
# so a Monte Carlo pass holds O(max(plays x STAGE_BLOCK, BLOCK_CELLS)) memory
# whatever the horizon.  A block holds at least STAGE_BLOCK stages, and as
# many more as keep it within BLOCK_CELLS cells of the columns its streams
# draw: a narrow pass pays the fixed per-block cost of Python and numpy
# dispatch across kernel, stream and consumer once per BLOCK_CELLS // columns
# stages, and a pass of 1024 columns or more keeps 16-stage blocks.  At 16
# stages x 10 000 plays one float64 block takes 1.3 MB.
STAGE_BLOCK = 16
BLOCK_CELLS = 2 ** 14
# Beliefs a closed belief graph may hold for `belief_payoff_blocks` to walk
# it; a value of its own, not the block length.
GRAPH_BELIEFS = 64
# Blocks of at most this many plays step play by play in scalar Python,
# wider ones stage by stage in numpy: the chain kernel (`_simulate_chain`,
# one row search per stage) and the belief walk of `belief_payoff_blocks`
# (one take per stage).  Per stage, scalar against numpy (best of 5 passes
# of 8 blocks of max(16, BLOCK_CELLS // plays) stages, 2-core host): the
# kernel under a 3-memory transducer on random instances of table width
# K * S = 2: 16 plays 3.0 vs 5.4 us, 24 4.4 vs 4.9, 32 6.3 vs 5.3;
# width 12: 24 plays 6.7 vs 12.4, 32 8.7 vs 12.5, 48 13.8 vs 12.0;
# width 48: 24 plays 7.9 vs 14.8, 48 17.3 vs 16.5.  The belief walk on
# matching-revealed: 16 plays 1.2 vs 1.6, 24 2.1 vs 2.2, 32 2.5 vs 1.9.
# 24 keeps the scalar step where it won or tied in every case.
SCALAR_PLAYS = 24


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


def _check_play_inputs(p: Pomdp, x1: np.ndarray, strat: Strategy) -> np.ndarray:
    """x1 as a belief over the K states of p, once the strategy is checked
    to play p's actions and, for a transducer, to read p's signals; where
    plays start, so a mismatch raises InvalidInputError, not an index or
    broadcast error deep inside."""
    x1 = make_belief(_check_dims(p, x1))
    if strat.n_actions != p.n_actions:
        raise InvalidInputError(f"the strategy plays {strat.n_actions} actions, the POMDP "
                                f"has {p.n_actions}")
    if isinstance(strat, Transducer) and strat.n_signals != p.n_signals:
        raise InvalidInputError(f"the transducer reads {strat.n_signals} signals, the POMDP "
                                f"has {p.n_signals}")
    return x1


def enumerate_plays(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                    budget: int = DEFAULT_NODE_BUDGET) -> PlayBatch:
    """All horizon-truncated plays with positive probability under (x1, strat).

    The tree is built stage by stage.  A stage cell is a prefix extended by
    one (action, next state, signal) triple whose action and transition
    probabilities both exceed PROB_FLOOR; the last stage sums out the state
    after the horizon, so its cells are (action, signal) pairs and each play
    is one row.  Rows come in lexicographic order of (k_1, i_1, k_2, s_1, ...,
    i_h, s_h), and each probability is the left-to-right product x1(k_1)
    pi_1(i_1) q(k_2, s_1 | k_1, i_1) ... pi_h(i_h) q(s_h | k_h, i_h).
    The strategy's memory is stepped along the tree, one batched call per stage.

    Raises BudgetExceededError, before a stage is built, once the total number
    of stage cells would pass `budget`.  A `horizon` or `budget` that is not
    an integer is rejected with InvalidInputError, never truncated.
    """
    horizon, budget = json_integer(horizon, "horizon"), json_integer(budget, "budget")
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    x1 = _check_play_inputs(p, x1, strat)
    state = np.flatnonzero(x1 > PROB_FLOOR)              # current state per node
    prob = x1[state]
    mem = strat.start(len(state))                        # strategy memory per node
    cols = [np.empty((len(state), 0), dtype=np.intp)] * 3  # states, actions, signals so far
    cells = 0
    for t in range(horizon):
        table = p.transition if t + 1 < horizon else p.transition.sum(axis=2, keepdims=True)
        live = table > PROB_FLOOR                        # (K, I, next states, S)
        pi = strat.dist(mem)
        played = pi > PROB_FLOOR
        cells += int((played * live.sum(axis=(2, 3))[state]).sum())
        if cells > budget:
            raise BudgetExceededError(f"play enumeration exceeded the node budget ({budget})")
        parent, cell = np.nonzero((played[:, :, None, None] & live[state]).reshape(len(state), -1))
        action, rest = np.divmod(cell, live[0, 0].size)
        nxt, signal = np.divmod(rest, p.n_signals)
        cols = [np.column_stack([c[parent], v]) for c, v in
                zip(cols, (state[parent], action, signal))]
        prob = prob[parent] * pi[parent, action] * table[state[parent], action, nxt, signal]
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

def belief_payoff_blocks(p: Pomdp, x1: np.ndarray, blocks):
    """Per-stage belief payoffs g(x_m, i_m) along a stream of observed play
    blocks (t0, actions, signals), each time-major (block, plays) over the
    same plays, as `_filter` takes them: yields (t0, g) with g of the
    block's shape.

    When the beliefs reachable from x1 close into a graph of at most
    GRAPH_BELIEFS (64) beliefs (`model.belief_graph`, the graph the belief
    DP sweeps), each play carries a belief id, stepped along the graph by
    its observed pairs, and g is gathered from a (beliefs, actions) payoff
    table.  A block of at most SCALAR_PLAYS plays walks its ids play by
    play in scalar Python (`_walk_plays`), a wider one with one numpy
    `take` per stage; both read the same table, so the ids are the same.
    The limit is its own value, not read from the blocks: it holds a failed
    attempt to at most 64 * I * S posteriors, however many plays the filter
    then carries or however long the blocks are, lets a narrow pass close a
    graph wider than itself, and lets a wide pass of 16-stage blocks close
    a graph of more beliefs than its first block has stages.
    An open orbit runs the Bayes filter `_filter`, carrying one (plays, K)
    belief.  Both paths give the same floats: the graph's beliefs are the
    filter's own updates told apart by their bytes, and the table is made
    by the filter path's einsum."""
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        return
    blocks = chain([first], blocks)
    reward_of = p.reward.T
    graph = belief_graph(p, x1, GRAPH_BELIEFS)
    if graph is None:
        for t0, actions, bel in _filter(p, x1, blocks):
            yield t0, np.einsum("tnk,tnk->tn", bel, reward_of[actions])
        return
    beliefs, child, _, _ = graph
    n_b, n_c = child.shape
    # A play at belief b is carried as b*n_c in `at` and `walk`, so one add
    # and one take step it: the flat index of its posterior after code is
    # b*n_c + code, and of its payoff under action i is b*n_c + i (i < n_c).
    # g_at holds g(belief b, i) there, summed over the same (rows, K)
    # layouts as the filter path's einsum.
    step = (child * n_c).ravel()
    step_list = step.tolist()
    g_at = np.zeros((n_b, n_c))
    g_at[:, :p.n_actions] = np.einsum(
        "tnk,tnk->tn", beliefs[:, None].repeat(p.n_actions, axis=1),
        reward_of[np.tile(np.arange(p.n_actions), (n_b, 1))])
    g_at = g_at.ravel()
    at = np.zeros(first[1].shape[1], dtype=np.intp)     # every play starts at x1, id 0
    for t0, actions, signals in blocks:
        codes = actions * p.n_signals + signals
        if len(at) <= SCALAR_PLAYS:
            walk = np.array(_walk_plays(codes, at, step_list), dtype=np.intp) \
                .reshape(len(at), len(codes) + 1).T
        else:
            walk = np.empty((len(codes) + 1, len(at)), dtype=np.intp)
            walk[0] = at
            for j, code in enumerate(codes):
                step.take(walk[j] + code, out=walk[j + 1])
        at = walk[-1]
        yield t0, g_at.take(walk[:-1] + actions)


def _walk_plays(codes: np.ndarray, at: np.ndarray, step: list) -> list:
    """The belief walk of `belief_payoff_blocks`, play by play in scalar
    Python: for each column of the (block, plays) observed codes, its play's
    carried id from `at` and its id after each stage, one flat list."""
    out = []
    push = out.append
    for col, b in zip(codes.T.tolist(), at.tolist()):
        push(b)
        for code in col:
            b = step[b + code]
            push(b)
    return out


def _filter(p: Pomdp, x1: np.ndarray, blocks):
    """Bayes filter over (t0, actions, signals) blocks of any length: yields
    (t0, actions, bel), bel[j] (plays, K) being the beliefs at stage
    t0 + j + 1, a view of a buffer that the next block overwrites.  The
    buffer is sized from the first block and grows when a later block is
    longer, as a narrow sampled pass's blocks grow when its streams stop
    drawing.  `belief_payoff_blocks` runs it for open belief
    orbits, and the tests take it as the reference of the belief graph."""
    bayes = bayes_matrices(p)
    bel = np.asarray(x1, dtype=float)[None, None]      # bel[0]: the beliefs carried in
    for t0, actions, signals in blocks:
        if len(bel) <= len(actions):
            # bel[j] holds the beliefs at the block's stage j; bel[b] carries
            # into the next block, so only one block of beliefs is ever held
            carry, bel = bel[0], np.empty((len(actions) + 1, actions.shape[1], p.n_states))
            bel[0] = carry
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
    for t0, _, *blk in blocks:
        for out, b in zip(plays, blk):
            out[:, t0:t0 + len(b)] = b.T
    return tuple(plays)


def play_blocks(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int, streams: list):
    """Sampled plays one stage block at a time, as a `PlayStream` over
    `horizon` stages whose (t0, ids, states, actions, signals) blocks each
    hold max(STAGE_BLOCK, BLOCK_CELLS // drawn) stages but the last, which
    may hold fewer, `drawn` being the columns of the streams still drawing
    when the block is made.  A pass of 1024 columns or more gets 16-stage
    blocks; a narrower one longer blocks, which grow as its streams stop
    drawing, so a later block may be longer than the first.  `streams` lists
    (generator, count) pairs as in `simulate_plays`, whose draw contract the
    blocks follow whatever their lengths; `reduce_sampled_plays` passes a
    group of its seeded streams.  A consumer that keeps only per-play state
    holds O(max(plays x STAGE_BLOCK, BLOCK_CELLS)) memory.  A
    consumer may retire plays it needs no more stages of: later blocks leave
    them out and neither kernel steps them, while each stream with a play
    kept still draws its full (block, count) uniforms, so the plays kept see
    exactly the draws they would without retirement.  A stream whose plays
    are all retired stops drawing.  A `horizon` or stream count that is not
    an integer is rejected with InvalidInputError, never truncated."""
    horizon = json_integer(horizon, "horizon")
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    streams = [(g, json_integer(n, "stream count")) for g, n in streams]
    if any(n < 0 for _, n in streams):
        raise InvalidInputError("stream counts must be >= 0")
    x1 = _check_play_inputs(p, x1, strat)
    tables = _chain_tables(p, strat, horizon)
    if tables is None:
        return PlayStream(_simulate_stepped(p, x1, strat, horizon, streams))
    return PlayStream(_simulate_chain(p, x1, *tables, horizon, streams))


class PlayStream:
    """One pass's plays, one block at a time.

    Iterating yields (t0, ids, states, actions, signals) for consecutive
    blocks in stage order: `states`, `actions` and `signals` are time-major
    (block, plays) int arrays whose row j is stage t0 + j + 1, and `ids`
    numbers their columns by play id, a play's id being its position among
    the pass's plays.  Sampled streams (`play_blocks`) cut the plays into
    blocks of at most max(STAGE_BLOCK x drawn, BLOCK_CELLS) cells, drawn
    being the columns their streams still draw; `one_block_stream` holds a
    whole enumerated batch in one block.  The consumers fold each play stage
    by stage, so their results do not depend on the cut.  A consumer that
    needs no more stages of some plays retires them: every block made
    afterwards leaves them out, both simulation kernels step only the plays
    kept, and the stream ends once no play is left.  A consumer that never
    retires sees every play in every block.
    """

    def __init__(self, kernel):
        self._kernel = kernel   # yields (t0, ids, states, actions, signals); sent retired ids
        self._gone = []         # play ids retired and not yet left out

    def __iter__(self):
        return self

    def __next__(self):
        gone = np.concatenate(self._gone) if self._gone else None
        self._gone = []
        return self._kernel.send(gone)

    def retire(self, ids: np.ndarray) -> None:
        """Leave the plays `ids` out of every block made afterwards."""
        if len(ids):
            self._gone.append(ids)


def one_block_stream(states: np.ndarray, actions: np.ndarray, signals: np.ndarray) -> PlayStream:
    """The (n_plays, horizon) play matrices as a `PlayStream` of one block
    over every stage, each play's id being its row."""
    def kernel():
        yield 0, np.arange(len(states)), states.T, actions.T, signals.T
    return PlayStream(kernel())


def _stream_draws(streams: list, alive: np.ndarray) -> list:
    """(generator, count, columns) per stream holding a play of `alive`
    (sorted ids): which columns of its (rows, count) uniforms belong to
    those plays, a slice when all of them do.  A stream with none is left
    out, so it draws no more."""
    bounds = np.cumsum([0] + [n for _, n in streams])
    cut = alive.searchsorted(bounds)
    return [(g, n, slice(None) if hi - lo == n else alive[lo:hi] - first)
            for (g, n), first, lo, hi in zip(streams, bounds, cut, cut[1:]) if hi > lo]


def _block_stages(draws: list) -> int:
    """Stages of the next block: STAGE_BLOCK, or more as long as the block
    holds at most BLOCK_CELLS cells of the columns its streams draw.  The
    rule reads drawn columns, not kept plays, so a wide pass that retires
    most of its plays keeps its 16-stage blocks and never draws ahead."""
    return max(STAGE_BLOCK, BLOCK_CELLS // max(sum(n for _, n, _ in draws), 1))


def _draw(draws: list, out: np.ndarray) -> np.ndarray:
    """Fill out (rows, plays) with the next (rows, count) uniforms of every
    stream in `draws`, each drawing all of them, keeping its alive columns."""
    col = 0
    for g, n, cols in draws:
        u = g.random((len(out), n))[:, cols]
        out[:, col:col + u.shape[1]] = u
        col += u.shape[1]
    return out


def _narrow(streams: list, alive: np.ndarray, gone: np.ndarray) -> tuple:
    """(keep, alive, draws) once the plays `gone` leave: the positions in
    `alive` of the plays kept, their ids and their streams' draw columns.
    `alive` is sorted, so each id of `gone` is looked up by bisection; a
    repeated id, or one no longer alive, leaves nothing more."""
    at = alive.searchsorted(gone)
    inside = at < len(alive)
    at = at[inside]
    kept = np.ones(len(alive), dtype=bool)
    kept[at[alive[at] == gone[inside]]] = False
    keep = np.flatnonzero(kept)
    return keep, alive[keep], _stream_draws(streams, alive[keep])


@functools.lru_cache(maxsize=64)
def _product_index(k: int, n_i: int, n_s: int, m: int) -> tuple:
    """Read-only index arrays of the product chain on k states x m
    memories, which depend on nothing else.  Per row u = state * m + memory:
    the memory, then memory * n_i and state * n_i (plus the action, the row
    of the update and of the transition table to read); the offset l * m of
    each next state l, shaped (1, k, 1); and the flat offset u * k * m of
    row u in a (k * m, k * m) table, shaped (k * m, 1, 1)."""
    n = k * m
    row = np.arange(n)
    out = (row % m, row % m * n_i, row // m * n_i, (np.arange(k) * m)[None, :, None],
           (row * n)[:, None, None])
    for a in out:
        a.setflags(write=False)
    return out


def _product_moves(p: Pomdp, t: Transducer) -> tuple:
    """(act, row, nxt, start) of transducer t on the (state, memory) pairs of
    p, u = state * M + memory: the action played at u, the row state * I +
    action of p's transition table that u draws from, nxt[u, l, s] = l * M +
    the memory after signal s, the pair that the (next state, signal) code
    l * S + s moves u to, and the flat offset of row u in a (K*M, K*M)
    table.  The one builder of the product's moves: the chain kernel steps
    by them and `chain.product_chain` sums its transition rows over them."""
    n_s = p.n_signals
    mem, mem_row, state_row, next_state, start = _product_index(
        p.n_states, p.n_actions, n_s, t.n_memory)
    act = t.act.take(mem)
    nxt = next_state + t.update.reshape(-1, n_s).take(mem_row + act, axis=0)[:, None, :]
    return act, state_row + act, nxt, start


def _chain_tables(p: Pomdp, strat: Strategy, horizon: int):
    """Chain-kernel tables (act, stage_table, nxt, m, initial) of a strategy
    with finite tables over the horizon, else None.  A transducer runs as a
    Markov chain on (state, memory) pairs (`_product_moves`); an open-loop
    schedule as one on states, with the stage's action picking the
    transition table."""
    if isinstance(strat, Transducer):
        act, _, nxt, _ = _product_moves(p, strat)
        return (act[None, :], np.zeros(horizon, dtype=np.intp), nxt.reshape(len(act), -1),
                strat.n_memory, strat.initial)
    if isinstance(strat, ScheduleStrategy):
        k, n_s = p.n_states, p.n_signals
        code = np.arange(k * n_s)
        act = np.repeat(np.arange(p.n_actions)[:, None], k, axis=1)
        return act, strat.stage_actions(horizon), np.broadcast_to(code // n_s, (k, k * n_s)), 1, 0
    return None


def _simulate_stepped(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                      streams: list):
    """All plays one stage at a time through the strategy's interface: an
    inverse-CDF draw of each play's action from `dist`, then of its (next
    state, signal) pair, then one `step` of the memory.  Each uniform is
    scaled by its row's total, so a draw never lands past the last
    positive-probability entry.  Yields (t0, ids, states, actions, signals)
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
    t0 = 0
    while t0 < horizon:
        blk = np.empty((3, min(_block_stages(draws), horizon - t0), len(alive)), dtype=np.int32)
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
        gone = yield t0, alive, *blk
        t0 += blk.shape[1]
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
    draw per play from its stream's next uniforms, in stage order.  A block
    of at most SCALAR_PLAYS plays is stepped play by play in scalar Python
    (`_step_plays`), a wider one stage by stage in numpy, each play searching
    only its own row of the table; the width is taken per block, as retired
    plays leave.  Both steps compare the same floats with the same <=, so
    they give the same positions.  Yields and takes back as
    `_simulate_stepped` does.
    """
    k, n_s = p.n_states, p.n_signals
    width = k * n_s
    n_c = act.shape[1]
    samples = sum(n for _, n in streams)
    cum = np.cumsum(p.transition.reshape(k, p.n_actions, width)[np.arange(n_c) // m, act],
                    axis=2)
    # a draw of row c lands at c * pad + code (`_search_tables`): nxt and the
    # signal of each position are padded to match
    padded, levels = _search_tables(cum)
    pad = padded.shape[2]
    nxt_flat = np.zeros((n_c, pad), dtype=np.int64)
    nxt_flat[:, :width] = nxt
    nxt_flat = nxt_flat.ravel()
    # the same tables as Python lists, for the scalar step
    table_lists = [t.ravel().tolist() for t in padded]
    shift_list = (2.0 * nxt_flat).tolist()
    state_of = (np.arange(n_c) // m).astype(np.int32)
    signal_of = (np.arange(n_c * pad) % pad % n_s).astype(np.int32)
    act = act.astype(np.int32)
    # time-major block rows: idx[j] is the combined index at the block's stage
    # j, and idx[b] carries into the next block; `base` is 2 * idx at the
    # stage being drawn.  y and pos, the block's uniforms and table
    # positions, share one buffer reused from block to block: the numpy step
    # writes stage j's positions over its spent uniforms.  Both buffers
    # are flat, so a block over fewer plays is a contiguous prefix of them,
    # and sized for the largest block: b stages of at most `drawn` plays,
    # b * drawn <= max(STAGE_BLOCK * samples, BLOCK_CELLS).  `query`,
    # `entry` and `over` hold one stage of the search.
    cells = max(STAGE_BLOCK * samples, BLOCK_CELLS)
    idx_buf = np.empty(cells + samples, dtype=np.int64)
    y_buf = np.empty(cells)
    query, entry, over = (np.empty(samples, dtype=d) for d in (float, float, bool))
    x1 = np.asarray(x1) / np.asarray(x1).sum()
    idx_buf[:samples] = np.concatenate([g.choice(k, size=n, p=x1) for g, n in streams]) * m \
        + initial
    base = 2.0 * idx_buf[:samples]
    alive = np.arange(samples)
    draws = _stream_draws(streams, alive)
    t0 = 0
    while t0 < horizon:
        b, n = min(_block_stages(draws), horizon - t0), len(alive)
        idx = idx_buf[:(b + 1) * n].reshape(b + 1, n)
        y = _draw(draws, y_buf[:b * n].reshape(b, n))
        pos = y.view(np.int64)
        stage_a = stage_table[t0:t0 + b].tolist()
        if n <= SCALAR_PLAYS:
            _step_plays(y, base, [table_lists[a] for a in stage_a], shift_list, pos)
            nxt_flat.take(pos, out=idx[1:], mode="clip")
        else:
            q, scratch = query[:n], (entry[:n], over[:n])
            for j, a in enumerate(stage_a):
                np.add(y[j], base, out=q)
                # y[j] is spent: the play's position goes there
                g = _row_search(levels[a], idx[j], q, pos[j], *scratch)
                nxt_flat.take(g, out=idx[j + 1], mode="clip")
                np.multiply(idx[j + 1], 2.0, out=base)
        signals = signal_of.take(pos, mode="clip")
        # pos is spent too: reuse it for the flat indices into act
        np.add(idx[:b], (stage_table[t0:t0 + b] * n_c)[:, None], out=pos)
        gone = yield (t0, alive, state_of.take(idx[:b], mode="clip"), act.take(pos, mode="clip"),
                      signals)
        t0, carry = t0 + b, idx[b]
        if gone is not None:
            keep, alive, draws = _narrow(streams, alive, gone)
            if not len(alive):
                return
            carry, base = carry[keep], base[keep]
        idx_buf[:len(alive)] = carry


def _search_tables(cum: np.ndarray) -> tuple:
    """(padded, levels): the chain kernel's search tables of the cumulative
    laws cum[a, c] of table a's rows c, each a power of two `pad` >= width
    long.  Row c of a padded table holds 2c + cum[c, :-1], then the guard
    2c + 2.  Every entry of an earlier row is at most 2c and every entry of
    a later one at least 2c + 2, so a draw 2c + u of row c lands at
    c * pad + code, the number of the row's own entries <= 2c + u: the flat
    index into the padded nxt, with no clamping.  Dropping the last
    cumulative entry caps the code at width - 1, and rows two apart stay
    apart even when 2c + u rounds up to 2c + 1 or a row sums to slightly
    more than 1.  The scalar step bisects a whole padded table from the
    right.  The numpy step (`_row_search`) counts only the play's own row,
    one bit of the code per round from the top, on the table's levels:
    level d holds, for each row c and each first d bits h of a code, the
    entry (2h + 1) * 2**(rank - d - 1) - 1 of row c at c * 2**d + h, where
    pad = 2**rank.  Both steps compare the same entries with the same <=."""
    n_tables, n_c, width = cum.shape
    rank = (width - 1).bit_length()
    shift = 2.0 * np.arange(n_c)[:, None]
    padded = np.concatenate(
        [cum[:, :, :-1] + shift,
         np.broadcast_to(shift + 2.0, (n_tables, n_c, (1 << rank) - width + 1))], axis=2)
    levels = [[np.ascontiguousarray(t[:, (1 << r) - 1::2 << r]).ravel()
               for r in range(rank - 1, -1, -1)] for t in padded]
    return padded, levels


def _row_search(levels: list, c: np.ndarray, q: np.ndarray, out: np.ndarray,
                entry: np.ndarray, over: np.ndarray) -> np.ndarray:
    """Branch-free binary search of each query q[i] in its own row c[i] of a
    padded table whose `_search_tables` levels are given: writes c * pad +
    the number of the row's entries <= q to out and returns it.  Each level
    is one gather, compare and add over all plays; the next level's index is
    twice this one's plus the compare.  entry and over are scratch."""
    at = c
    for level in levels:
        level.take(at, out=entry, mode="clip")      # every index is in range
        np.less_equal(entry, q, out=over)
        at = np.left_shift(at, 1, out=out)
        out += over
    if not levels:                                  # rows of one code
        out[:] = c
    return out


def _step_plays(y: np.ndarray, base: np.ndarray, rows: list, shifts: list,
                pos: np.ndarray) -> None:
    """The chain kernel's block step, play by play in scalar Python: for
    each column of the (block, plays) uniforms y, its table positions, stage
    by stage, from its own 2c + u and the table (a list) of each stage in
    `rows`, written to the same column of pos, which may share y's memory
    (a column is read whole before it is written).  Like the numpy step it
    leaves each play's 2c for the next block in `base`.  The column goes
    through C arrays, not lists, so a long block holds no Python float or
    int per stage."""
    for j, c2 in enumerate(base.tolist()):
        at = array("q")
        push = at.append
        for u, row in zip(array("d", y[:, j].tobytes()), rows):
            i = bisect_right(row, u + c2)
            push(i)
            c2 = shifts[i]
        base[j] = c2
        pos[:, j] = np.frombuffer(at, dtype=np.int64)


def shard_seeds(seed: int, shards: int) -> list:
    """Deterministic per-shard generators for parallel-style Monte Carlo.  A
    `seed` or `shards` that is not an integer is rejected with
    InvalidInputError, never truncated."""
    seed, shards = json_integer(seed, "seed"), json_integer(shards, "shards")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(shards)]


# Generator streams every Monte Carlo estimator splits its samples over.
MC_SHARDS = 4


def reduce_sampled_plays(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                         samples: int, seed: int, reduce) -> tuple:
    """Simulate `samples` plays in seeded streams and reduce them play by play.

    The samples are split as evenly as `np.array_split` splits them over
    min(samples, MC_SHARDS) generator streams from `shard_seeds(seed, ...)`,
    whatever the horizon, and all of them run in one pass.  `reduce(blocks)`
    consumes the pass's `PlayStream` from `play_blocks`, (t0, ids, states,
    actions, signals) time-major blocks in stage order, and returns the
    result: a tuple of per-play arrays, indexed by play id, so in stream
    order.  No (plays, horizon) matrix is built: the pass holds
    O(max(plays x STAGE_BLOCK, BLOCK_CELLS)) cells plus what `reduce`
    carries.  A `reduce` that retires plays (the weight fold
    `evaluations.weight_sums` retires those whose weights are spent) makes
    the pass simulate only the plays still needed, and ends it once none is.
    Each stream draws from its own generator, so its plays are those it
    would give in a pass of its own.  `samples`, `seed` and `horizon` must
    be integers (`shard_seeds`, `play_blocks`), else InvalidInputError.
    """
    samples = json_integer(samples, "samples")
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    counts = [len(c) for c in np.array_split(np.arange(samples), min(samples, MC_SHARDS))]
    return reduce(play_blocks(p, x1, strat, horizon,
                              list(zip(shard_seeds(seed, len(counts)), counts))))


def sample_mean(v: np.ndarray) -> tuple:
    """Mean of per-play values and its standard error (0 for one play)."""
    se = float(v.std(ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0
    return float(v.mean()), se
