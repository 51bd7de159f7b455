"""Stage-weight evaluations over plays: standard families, block smoothing,
the stopping-rule weights built from running payoffs, conditional
(prefix-observed) versions, which carry one observed-prefix id per play down
their table's prefix tree, and the irregularity metric.

Every evaluation computes its weights one stage block at a time for a whole
batch of plays, carrying what it needs between blocks, and `weight_sums`
folds them into per-play payoff, mass and irregularity sums and retires from
the `PlayStream` the plays whose weights are spent: exact results fold the
enumerated play batch as a stream of one block and average with the play
probabilities, Monte Carlo results fold the sampled stream."""
from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, TruncationError
from .model import Pomdp, json_float
from .playspace import (DEFAULT_NODE_BUDGET, belief_payoff_blocks, enumerate_plays,
                        one_block_stream, prefix_ids, reduce_sampled_plays,
                        sample_mean)
from .strategies import ScheduleStrategy, Strategy, json_integer

MEASURABILITY = ("prefix-observed", "prefix-full", "play-observed", "general")
NORMALIZATION = ("pointwise", "in-expectation", "none")


@dataclass(frozen=True)
class EvalContext:
    """What a play-observed weight rule may consult besides the play itself."""

    pomdp: Pomdp
    x1: np.ndarray


def _context(p: Pomdp, x1: np.ndarray, e: "Evaluation") -> EvalContext:
    """The context of evaluation e on (p, x1), once every state index e
    names is checked to be a state of p: the one check the estimators share."""
    for key in ("target_state", "early_state"):
        k = e.params.get(key)
        if k is not None and not 0 <= k < p.n_states:
            raise InvalidInputError(f"evaluation {e.kind!r}: {key} {k} is not a state "
                                    f"index in [0, {p.n_states})")
    return EvalContext(p, np.asarray(x1, dtype=float))


@dataclass
class Evaluation:
    """A stage-weight process giving theta_1..theta_n in [0,1] along each play.

    It has exactly one weight function: deterministic kinds give `stage_fn`
    (horizon -> weight vector, the same on every play), the others a block
    step `batch_fn(blocks, ctx)`.  The step consumes the (t0, ids, states,
    actions, signals) blocks of a `PlayStream`, each a time-major (block,
    plays) array whose row j is stage t0 + j + 1 with its columns' play ids,
    and yields every block back in order as (t0, ids, states, actions,
    signals, w, done) with its (block, plays) weights and the boolean flags
    `done` of the block's plays whose weights are zero at every later stage
    (None when the step reports none); what it needs across blocks (a flag,
    a run length, look-ahead stages, a prefix id, the play columns) it
    carries itself.
    `weight_blocks` streams either kind and `batch_weights` runs it on the
    one-block stream of (n_plays, horizon) matrices.
    `support_horizon` is the stage past which weights vanish on every play
    (None when unbounded).  `irregularity_tail` bounds the truncation error of
    the pathwise irregularity at a given horizon; `mass_tail` bounds the weight
    mass past a horizon.
    """

    kind: str
    measurability: str
    normalization: str
    support_horizon: Optional[int] = None
    stage_fn: Optional[Callable[[int], np.ndarray]] = None
    batch_fn: Optional[Callable] = None
    irregularity_tail: Optional[Callable[[int], float]] = None
    mass_tail: Optional[Callable[[int], float]] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.measurability not in MEASURABILITY:
            raise InvalidInputError(f"unknown measurability class {self.measurability!r}")
        if self.normalization not in NORMALIZATION:
            raise InvalidInputError(f"unknown normalization class {self.normalization!r}")
        if (self.stage_fn is None) == (self.batch_fn is None):
            raise InvalidInputError("an evaluation needs exactly one of stage_fn and batch_fn")

    @property
    def deterministic(self) -> bool:
        return self.stage_fn is not None

    def weight_blocks(self, blocks, horizon: int, ctx: Optional[EvalContext] = None):
        """The (t0, ids, states, actions, signals) blocks of a `PlayStream`
        over `horizon` stages, each yielded back with its weights and `done`
        flags appended.  Deterministic weights flag every play once the
        stream passes `support_horizon`."""
        if not self.deterministic:
            return self.batch_fn(blocks, ctx)
        w, end = self.stage_fn(horizon), self.support_horizon
        return ((t0, ids, st, ac, sg, np.broadcast_to(w[t0:t0 + len(st), None], st.shape),
                 None if end is None or t0 + len(st) < end else np.ones(st.shape[1], dtype=bool))
                for t0, ids, st, ac, sg in blocks)

    def batch_weights(self, states: np.ndarray, actions: np.ndarray,
                      signals: np.ndarray, ctx: Optional[EvalContext] = None) -> np.ndarray:
        """Weights for a batch of plays, shape (n_plays, horizon)."""
        blocks = self.weight_blocks(one_block_stream(states, actions, signals),
                                    states.shape[1], ctx)
        return np.concatenate([blk[5] for blk in blocks]).T


def weight_sums(e: "Evaluation", stream, horizon: int, ctx: Optional[EvalContext] = None,
                reward: Optional[np.ndarray] = None) -> tuple:
    """Per-play weighted payoff sum theta_m r(k_m, i_m) (None without
    `reward`), weight mass sum theta_m and pathwise irregularity
    |theta_1| + sum |theta_m - theta_{m+1}| (the final drop to zero included)
    of evaluation e, folded over the blocks of `e.weight_blocks(stream,
    horizon, ctx)` for the plays of a `PlayStream`.  Between blocks it
    carries the three sums and the last weight of each play, by play id.
    Each sum adds its play's terms one stage at a time in stage order, on
    from the carried total (`_add_on`), so its bits depend on neither the
    block cut nor the block width.  It retires
    from the stream the plays each block flags `done`, so no later block
    simulates or weighs them: a retired play would only add exact zeros,
    and its last weight's drop is counted once either way."""
    payoff = mass = jumps = last = None
    for t0, ids, st, ac, _, w, done in e.weight_blocks(stream, horizon, ctx):
        if mass is None:                   # the first block holds every play
            payoff, mass, jumps, last = np.zeros((4, w.shape[1]))
        # one C-contiguous (block, plays) buffer holds each sum's terms in
        # turn; `take` returns a new C-contiguous array
        if reward is None:
            terms = np.empty(w.shape)
        else:
            terms = reward.take(st * reward.shape[1] + ac)
            terms *= w
            payoff[ids] = _add_on(payoff[ids], terms)
        np.copyto(terms, w)
        mass[ids] = _add_on(mass[ids], terms)
        np.subtract(w[0], last[ids], out=terms[0])
        np.subtract(w[1:], w[:-1], out=terms[1:])
        jumps[ids] = _add_on(jumps[ids], np.abs(terms, out=terms))
        last[ids] = w[-1]
        if done is not None:
            stream.retire(ids[done])
        del st, ac, w, terms  # drop the block before the next one is made
    return (None if reward is None else payoff), mass, jumps + np.abs(last)


def _add_on(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """total + terms[0] + terms[1] + ... per column of the C-contiguous
    (stages, plays) terms, added one row at a time in that order; overwrites
    terms.  numpy sums axis 0 of two or more such columns row by row, but a
    lone column pairwise, so one column takes `np.cumsum`, which adds in
    order at any width (and along axis 0 of a wide block is some 20x slower
    than the sum)."""
    terms[0] += total
    if terms.shape[1] == 1:
        return np.cumsum(terms, axis=0, out=terms)[-1]
    return terms.sum(axis=0)


@dataclass(frozen=True)
class IrregularityReport:
    lower: float
    upper: float
    horizon: int
    tail_bound: float

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------

def _deterministic(kind: str, stage_fn, support, normalization, tail=None,
                   mass_tail=None, **params) -> Evaluation:
    return Evaluation(
        kind=kind,
        measurability="prefix-observed",
        normalization=normalization,
        support_horizon=support,
        stage_fn=stage_fn,
        irregularity_tail=tail,
        mass_tail=mass_tail,
        params=params,
    )


def _uniform_prefix(n: int):
    def stage_fn(horizon: int) -> np.ndarray:
        w = np.zeros(horizon)
        w[: min(n, horizon)] = 1.0 / n
        return w

    return stage_fn


def _padded(w: np.ndarray):
    """stage_fn of the finite weight vector w, zero past its end."""
    def stage_fn(horizon: int) -> np.ndarray:
        out = np.zeros(horizon)
        t = min(horizon, len(w))
        out[:t] = w[:t]
        return out

    return stage_fn


def make_n_stage(n: int) -> Evaluation:
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return _deterministic("n_stage", _uniform_prefix(n), n, "pointwise", n=n)


def make_discounted(lam: float) -> Evaluation:
    if not 0.0 < lam <= 1.0:
        raise InvalidInputError("discount weight must lie in (0, 1]")

    def stage_fn(horizon: int) -> np.ndarray:
        m = np.arange(horizon)
        return lam * (1.0 - lam) ** m

    # Non-increasing weights telescope: the truncated pathwise irregularity
    # (with the terminal drop to zero) equals 2*lam at every horizon.
    return _deterministic("discounted", stage_fn, None, "pointwise",
                          tail=lambda h: 0.0,
                          mass_tail=lambda h: (1.0 - lam) ** h,
                          lam=lam)


def _floats(name: str, values) -> list:
    """The entries of `values` as floats, each checked by `json_float`."""
    return [json_float(v, f"{name} entry {j}") for j, v in enumerate(values)]


def make_decreasing(weights) -> Evaluation:
    if np.ndim(weights) != 1 or len(weights) == 0:
        raise InvalidInputError("weights must be a non-empty vector")
    w = np.array(_floats("weights", weights))
    if np.any(w < 0) or np.any(w > 1):
        raise InvalidInputError("weights must lie in [0,1]")
    if np.any(np.diff(w) > 1e-12):
        raise InvalidInputError("weights must be non-increasing")
    norm = "pointwise" if abs(w.sum() - 1.0) <= 1e-9 else "none"
    return _deterministic("decreasing", _padded(w), len(w), norm, weights=w.tolist())


def make_piecewise_constant(breaks, levels) -> Evaluation:
    breaks = [json_integer(b, "evaluation 'piecewise_constant' field 'breaks'") for b in breaks]
    levels = _floats("levels", levels)
    if len(breaks) != len(levels) or not breaks:
        raise InvalidInputError("breaks and levels must be non-empty and equal-length")
    if breaks[0] < 1 or any(b >= c for b, c in zip(breaks, breaks[1:])):
        raise InvalidInputError("breaks must be strictly increasing stages >= 1")
    if any(v < 0 or v > 1 for v in levels):
        raise InvalidInputError("levels must lie in [0,1]")
    full = np.concatenate([
        np.full(b - prev, v)
        for prev, b, v in zip([0] + breaks[:-1], breaks, levels)
    ])
    norm = "pointwise" if abs(full.sum() - 1.0) <= 1e-9 else "none"
    return _deterministic("piecewise_constant", _padded(full), breaks[-1], norm,
                          breaks=breaks, levels=levels)


def make_state_block(l: int, early_state: int = 0) -> Evaluation:
    """Weight 1/l on stages 1..l when the initial state is `early_state`,
    and on stages l+1..2l otherwise.  Depends on the unobserved k_1."""
    if l < 1:
        raise InvalidInputError("block length must be >= 1")

    def batch_fn(blocks, ctx):
        start = None                 # per play: 0-based stage where its weights start
        for t0, ids, st, ac, sg in blocks:
            if start is None:        # the first block holds stage 1
                start = np.where(st[0] == early_state, 0, l)
            t = np.arange(t0, t0 + len(st))[:, None]
            yield (t0, ids, st, ac, sg, np.where((t >= start) & (t < start + l), 1.0 / l, 0.0),
                   np.ones(st.shape[1], dtype=bool) if t0 + len(st) >= 2 * l else None)

    return Evaluation(
        kind="state_block_ex1",
        measurability="prefix-full",
        normalization="pointwise",
        support_horizon=2 * l,
        batch_fn=batch_fn,
        params={"l": l, "early_state": early_state},
    )


def _with_later_states(blocks, rows: int):
    """Each play block (t0, ids, states, actions, signals) with the blocks
    holding its next `rows` stages (fewer at the end of the stream) appended
    as a list of (states, ids).  Holds back as many blocks as that takes.  A
    block made after some plays were retired holds fewer plays than the
    block it serves, so each is read by its own ids."""
    held = []

    def release():
        return (*held.pop(0), [(h[2], h[1]) for h in held])

    for blk in blocks:
        held.append(blk)
        while held and sum(len(h[2]) for h in held[1:]) >= rows:
            yield release()
    while held:
        yield release()


def _first_runs(window: np.ndarray, l: int) -> tuple:
    """(columns, starts): the columns of the (rows, plays) boolean window
    that hold l consecutive true rows, and the row where the first such run
    starts in each.  all_of[i] ANDs the `span` rows from row i on, the span
    doubling, so l rows take O(log l) ANDs: two overlapping spans of the
    largest power of two <= l."""
    if len(window) < l:
        return np.empty((2, 0), dtype=np.intp)
    all_of, span = window, 1
    while 2 * span <= l:
        all_of, span = all_of[:-span] & all_of[span:], 2 * span
    if span < l:
        all_of = all_of[:len(all_of) - (l - span)] & all_of[l - span:]
    cols = np.flatnonzero(all_of.any(axis=0))
    return cols, all_of[:, cols].argmax(axis=0)


def make_run_block(l: int, target_state: int = 0) -> Evaluation:
    """Weight 1/l on the first run of l consecutive stages in the target
    state, searched from stage 2 onward.  Depends on the realized states, not
    on the observed history.  Zero weights when no run fits in the truncated
    play."""
    if l < 1:
        raise InvalidInputError("block length must be >= 1")

    def batch_fn(blocks, ctx):
        # Each block is weighed with the states of its next l - 1 stages, so
        # a run starting in the block is seen whole in one boolean window of
        # target flags, in the block's columns, and no play carries anything
        # across blocks while it searches.  A play whose first run is found
        # stops searching; it is flagged done in the block where the run
        # ends, and until then carries the row where the run ends.  Those
        # stages were simulated before it could be retired, so the play is
        # in every block up to there.
        searching = ahead = ends = None  # by play id; ids of plays whose run ends later, and where
        for t0, ids, st, ac, sg, later in _with_later_states(blocks, l - 1):
            b, n = st.shape
            if searching is None:           # the first block holds every play
                searching, ahead, ends = np.ones(n, dtype=bool), ids[:0], ids[:0]
            window = np.empty((b + min(l - 1, sum(len(s) for s, _ in later)), n), dtype=bool)
            np.equal(st, target_state, out=window[:b])
            if t0 == 0:
                window[0] = False                   # the search starts at stage 2
            row = b
            for s, i in later:                      # their first l - 1 stages
                s = s[:len(window) - row]
                flags = window[row:row + len(s)]
                if len(i) == n:
                    np.equal(s, target_state, out=flags)
                else:   # a play retired since this block was made: no later stages
                    flags[:] = False
                    flags[:, ids.searchsorted(i)] = s == target_state
                row += len(s)
            cols, start = _first_runs(window, l)
            new = searching[ids[cols]]
            cols, start = cols[new], start[new]
            searching[ids[cols]] = False
            cols = np.concatenate([ids.searchsorted(ahead), cols])
            end = np.concatenate([ends, start + (l - 1)])
            w = np.zeros((b, n))
            stage = np.arange(b)[:, None]
            w[:, cols] = ((stage > end - l) & (stage <= end)) / l
            done = np.zeros(n, dtype=bool)
            done[cols[end < b]] = True
            ahead, ends = ids[cols[end >= b]], end[end >= b] - b
            yield t0, ids, st, ac, sg, w, done
            del st, ac, sg, w    # drop the block before the next one is made

    return Evaluation(
        kind="run_block_ex2",
        measurability="play-observed",
        normalization="pointwise",
        support_horizon=None,
        batch_fn=batch_fn,
        params={"l": l, "target_state": target_state},
    )


def eta_horizon(running_payoffs, l: int) -> int:
    """Smallest stage n' >= l whose prefix-average payoff is within 1/l of the
    empirical limsup proxy (max prefix average over the tail half), or the
    stage of the largest prefix average when none is: `_eta_stages` of one
    play.  `running_payoffs` must be a 1-D sequence of finite numbers and l
    an integer, else InvalidInputError."""
    l = json_integer(l, "eta_horizon's l")
    try:
        g = np.asarray(running_payoffs)
    except ValueError:           # a ragged nesting
        g = None
    if g is None or g.ndim != 1 or g.dtype.kind not in "iuf" or not np.isfinite(g).all():
        raise InvalidInputError("eta_horizon takes a 1-D sequence of finite numbers")
    return int(_eta_stages(g.astype(float)[:, None], l)[0])


def _eta_stages(g: np.ndarray, l: int) -> np.ndarray:
    """`eta_horizon` of every column of the (stages, plays) payoffs g at once:
    `_eta_sweeps` of g as one block."""
    return _eta_sweeps(lambda: [(0, g)], len(g), l)


def prefix_averages(payoff_blocks):
    """The prefix averages of every play, block by block: for each (t0, g)
    block of stage payoffs, time-major (block, plays), in stage order, yield
    (t0, avg) with avg[j] the average over stages 1..t0 + j + 1.  It carries
    each play's payoff sum between blocks, so every prefix sum is the same
    in-order `cumsum` addition and the same division whatever the block
    cut."""
    total = None                 # per play: the payoff sum before the block
    for t0, g in payoff_blocks:
        avg = np.array(g, dtype=float)
        if total is not None:
            avg[0] += total
        np.cumsum(avg, axis=0, out=avg)
        total = avg[-1].copy()
        avg /= np.arange(t0 + 1, t0 + len(avg) + 1)[:, None]
        yield t0, avg


def _eta_sweeps(sweep, n: int, l: int) -> np.ndarray:
    """The stopping stage of `eta_horizon` for every play of n stages, from
    two sweeps over its payoffs: each call of `sweep()` yields the (t0, g)
    payoff blocks of all plays in stage order, g being (block, plays).
    Each sweep reads their `prefix_averages`.  The first sweep finds the
    tail-half maximum (the proxy) and the first stage of the largest
    average, the second the first stage >= l whose average reaches
    proxy - 1/l - 1e-12, stopping once every play has one.  No (stages,
    plays) matrix is built."""
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    if n < l:
        raise InvalidInputError("payoff sequence shorter than l")
    tail = max(n // 2, 1) - 1    # the proxy's first row
    proxy = top = top_at = None  # tail-half maximum; largest average and its row
    for t0, avg in prefix_averages(sweep()):
        if top is None:
            top, top_at = np.full(avg.shape[1], -np.inf), np.zeros(avg.shape[1], dtype=np.intp)
            proxy = top.copy()
        row = avg.argmax(axis=0)
        best = avg[row, np.arange(avg.shape[1])]
        later = best > top       # ties keep the first occurrence
        top[later], top_at[later] = best[later], t0 + row[later]
        if t0 + len(avg) > tail:
            np.maximum(proxy, avg[max(tail - t0, 0):].max(axis=0), out=proxy)
    floor = proxy - 1.0 / l - 1e-12
    eta, found = top_at + 1, np.zeros(len(top_at), dtype=bool)
    for t0, avg in prefix_averages(sweep()):
        if t0 + len(avg) < l:
            continue
        hits = avg[max(l - 1 - t0, 0):] >= floor
        first = hits.any(axis=0) & ~found
        eta[first] = hits.argmax(axis=0)[first] + max(l, t0 + 1)
        found |= first
        if found.all():
            break
    return eta


def make_limsup_theta(l: int, horizon: int) -> Evaluation:
    """Uniform weights 1/eta on stages 1..eta, where eta is the stopping stage
    from eta_horizon applied to the play's belief payoffs.  Its block step
    holds every block of the stream, because eta depends on the whole play,
    and holds nothing else of its size: `_eta_sweeps` takes the belief
    payoffs twice from `belief_payoff_blocks` over the held blocks (walked
    along the closed belief graph, or filtered on an open orbit), one block
    at a time, and each block is yielded with its own weights and dropped."""
    if l < 1 or horizon < l:
        raise InvalidInputError("need horizon >= l >= 1")

    def batch_fn(blocks, ctx):
        if ctx is None:
            raise InvalidInputError("limsup weights need a POMDP context")
        held = list(blocks)
        eta = _eta_sweeps(lambda: belief_payoff_blocks(
            ctx.pomdp, ctx.x1, ((t0, ac, sg) for t0, _, _, ac, sg in held)),
            sum(len(blk[2]) for blk in held), l)
        share = 1.0 / eta
        while held:
            t0, ids, st, ac, sg = held.pop(0)
            t = np.arange(t0, t0 + len(st))[:, None]
            yield t0, ids, st, ac, sg, np.where(t < eta, share, 0.0), None

    return Evaluation(
        kind="limsup_theta",
        measurability="play-observed",
        normalization="pointwise",
        support_horizon=horizon,
        batch_fn=batch_fn,
        params={"l": l, "horizon": horizon},
    )


# each kind's fields are its maker's parameters
_MAKERS = {
    "n_stage": make_n_stage,
    "discounted": make_discounted,
    "decreasing": make_decreasing,
    "piecewise_constant": make_piecewise_constant,
    "state_block_ex1": make_state_block,
    "run_block_ex2": make_run_block,
    "limsup_theta": make_limsup_theta,
}
# the parameters that hold integers, and those that hold floats, whatever the kind
_INTEGER_PARAMS = ("n", "l", "early_state", "target_state", "horizon")
_FLOAT_PARAMS = ("lam", "lambda")


def make_evaluation(kind: str, **params) -> Evaluation:
    """Build a named evaluation; see _MAKERS for the accepted kinds, whose
    fields are their makers' parameters, and "lambda" for the discounted
    kind's "lam".  A field the kind does not read is rejected, and so is an
    integer field given as a bool, a float or a string, or a float field
    given as a bool, a string or a non-finite number."""
    if kind not in _MAKERS:
        raise InvalidInputError(f"unknown evaluation kind {kind!r}")
    fields = inspect.signature(_MAKERS[kind]).parameters
    for k in params:
        if k not in fields and (kind, k) != ("discounted", "lambda"):
            raise InvalidInputError(f"evaluation {kind!r} has no field {k!r} "
                                    f"(its fields: {', '.join(fields)})")
    params = {k: json_integer(v, f"evaluation {kind!r} field {k!r}") if k in _INTEGER_PARAMS
              else json_float(v, f"evaluation {kind!r} field {k!r}") if k in _FLOAT_PARAMS
              else v for k, v in params.items()}
    if "lambda" in params:
        if "lam" in params:
            raise InvalidInputError("evaluation 'discounted' gives both 'lam' and 'lambda'")
        params["lam"] = params.pop("lambda")
    try:
        return _MAKERS[kind](**params)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"evaluation {kind!r}: missing or malformed "
                                f"parameter ({type(exc).__name__}: {exc})") from exc


def evaluation_from_spec(doc) -> Evaluation:
    """Parse {"kind": ..., <params>} (dict or JSON string)."""
    import json

    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"evaluation spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError("evaluation spec must be a JSON object")
    doc = dict(doc)
    kind = doc.pop("kind", None)
    if kind is None:
        raise InvalidInputError("evaluation spec needs a 'kind' field")
    return make_evaluation(kind, **doc)


# ---------------------------------------------------------------------------
# Block smoothing
# ---------------------------------------------------------------------------

def block_smooth(e: Evaluation, l: int) -> Evaluation:
    """Replace theta_m on each block {tl+1,...,(t+1)l} by the block's first
    weight theta_{tl+1}."""
    if l < 1:
        raise InvalidInputError("block length must be >= 1")
    if l == 1:
        return e

    def batch_fn(blocks, ctx):
        head = None          # weights at the last block head seen
        for t0, ids, st, ac, sg, w, _ in e.batch_fn(blocks, ctx):
            src = np.arange(t0, t0 + len(w)) // l * l - t0   # head row; < 0: earlier block
            out = w[np.maximum(src, 0)]
            out[src < 0] = head
            head = out[-1]
            yield t0, ids, st, ac, sg, out, None

    support = None if e.support_horizon is None else -(-e.support_horizon // l) * l
    if e.deterministic:
        stage_fn = lambda horizon: e.stage_fn(horizon)[np.arange(horizon) // l * l]
        norm = "pointwise" if support and abs(stage_fn(support).sum() - 1.0) <= 1e-9 else "none"
        return Evaluation(
            kind=f"block_smooth({e.kind},{l})",
            measurability=e.measurability,
            normalization=norm,
            support_horizon=support,
            stage_fn=stage_fn,
            params={"base": e.kind, "l": l},
        )
    return Evaluation(
        kind=f"block_smooth({e.kind},{l})",
        measurability=e.measurability,
        normalization="none",
        support_horizon=support,
        batch_fn=batch_fn,
        params={"base": e.kind, "l": l},
    )


# ---------------------------------------------------------------------------
# Irregularity
# ---------------------------------------------------------------------------

def pathwise_irregularity(w: np.ndarray) -> float:
    """|theta_1| + sum |theta_m - theta_{m+1}| on a truncated weight vector,
    with the final drop to zero included."""
    return float(abs(w[0]) + np.abs(np.diff(np.append(w, 0.0))).sum())


def _truncation_tail(e: Evaluation, horizon: int) -> float:
    if e.support_horizon is not None:
        if e.support_horizon > horizon:
            raise TruncationError(
                f"evaluation {e.kind} has weights up to stage {e.support_horizon}, "
                f"beyond the horizon {horizon}"
            )
        return 0.0
    if e.irregularity_tail is not None:
        return float(e.irregularity_tail(horizon))
    raise TruncationError(
        f"evaluation {e.kind} has unbounded support and no declared tail bound"
    )


def irregularity_exact(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                       horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> IrregularityReport:
    """Expected pathwise irregularity by exhaustive tree enumeration; exact
    when the weights vanish within the horizon, bracketed otherwise.  The
    Monte Carlo estimator's fold on the enumerated plays as one block,
    averaged with the play probabilities."""
    ctx = _context(p, x1, e)
    tail = _truncation_tail(e, horizon)
    if e.deterministic:
        total = pathwise_irregularity(e.stage_fn(horizon))
    else:
        b = enumerate_plays(p, x1, strat, horizon, budget=budget)
        total = float(b.prob @ weight_sums(e, one_block_stream(b.states, b.actions, b.signals),
                                           horizon, ctx)[2])
    return IrregularityReport(lower=max(total - tail, 0.0), upper=total + tail,
                              horizon=horizon, tail_bound=tail)


def irregularity_mc(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                    horizon: int, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the horizon-truncated irregularity."""
    ctx = _context(p, x1, e)
    v, = reduce_sampled_plays(
        p, x1, strat, horizon, samples, seed,
        lambda blocks: weight_sums(e, blocks, horizon, ctx)[2:])
    mean, se = sample_mean(v)
    return McEstimate(mean=mean, std_error=se, samples=samples, seed=seed)


def irregularity_supremum(p: Pomdp, x1: np.ndarray, e: Evaluation, horizon: int,
                          budget: int = DEFAULT_NODE_BUDGET) -> IrregularityReport:
    """Max irregularity over all open-loop pure action sequences (a lower
    bound on the strategy supremum, exhaustive over schedules)."""
    import itertools

    from .errors import BudgetExceededError

    if p.n_actions ** horizon > 10_000:
        raise BudgetExceededError(
            f"{p.n_actions ** horizon} open-loop schedules exceed the sweep cap"
        )
    best = None
    for seq in itertools.product(range(p.n_actions), repeat=horizon):
        strat = ScheduleStrategy(p.n_actions, lambda m, s=seq: s[m - 1])
        rep = irregularity_exact(p, x1, strat, e, horizon, budget=budget)
        if best is None or rep.lower > best.lower:
            best = rep
    return best


# ---------------------------------------------------------------------------
# Conditional (prefix-observed) evaluations
# ---------------------------------------------------------------------------

@dataclass
class ConditionalTable:
    """Prefix-conditional expected weights rho_m and the prefix masses that
    support them.  Keys are (stage, actions, signals) with len = stage-1;
    `kids` maps a key to the keys one stage deeper that extend it.  As arrays
    over stage m's prefix ids (`prefix_ids`): `weights[m-1]` is rho_m with a
    trailing 0 for the off-table id, and `child[m-1][g, i, s]` the stage-m+1
    id of g extended by (i, s), off-table where unreached."""

    rho: dict
    mass: dict
    horizon: int
    kids: dict
    weights: list
    child: list

    def children(self, key) -> list:
        return self.kids.get(key, [])


def _prefix_sums(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                 horizon: int, budget: int):
    """The enumerated plays grouped by observed prefix (`prefix_ids`), per
    stage m = 1..horizon: the (n, m-1) actions and signals of stage m's n
    prefixes in id order, each one's parent id among stage m-1's (none at
    m = 1), and per prefix h the sums E[1{h}] and E[1{h} theta_m]."""
    ctx = _context(p, x1, e)
    b = enumerate_plays(p, x1, strat, horizon, budget=budget)
    w = e.batch_weights(b.states, b.actions, b.signals, ctx)
    ids, first = prefix_ids(b.actions, b.signals)
    for m, rows in enumerate(first):
        yield (b.actions[rows, :m], b.signals[rows, :m], ids[rows, m - 1] if m else None,
               np.bincount(ids[:, m], weights=b.prob),
               np.bincount(ids[:, m], weights=b.prob * w[:, m]))


def conditional_table(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                      horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> ConditionalTable:
    """Expected evaluation weight at each stage given the observed prefix."""
    rho, mass, kids, weights, child, keys = {}, {}, {}, [], [], []
    for m, (acts, sigs, parent, den, num) in enumerate(
            _prefix_sums(p, x1, strat, e, horizon, budget), 1):
        up, keys = keys, [(m, a, s) for a, s in zip(map(tuple, acts.tolist()),
                                                   map(tuple, sigs.tolist()))]
        if m > 1:            # stage m's prefixes extend their parents' by one pair
            for g, key in zip(parent.tolist(), keys):
                kids.setdefault(up[g], []).append(key)
            child.append(np.full((len(up) + 1, p.n_actions, p.n_signals), len(keys)))
            child[-1][parent, acts[:, -1], sigs[:, -1]] = np.arange(len(keys))
        mass.update(zip(keys, den.tolist()))
        rho.update((k, v / d) for k, v, d in zip(keys, num.tolist(), den.tolist()) if d > 0)
        weights.append(np.append(np.divide(num, den, out=np.zeros(len(keys)), where=den > 0), 0.0))
    return ConditionalTable(rho, mass, horizon, kids, weights, child)


def conditional_evaluation(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                           horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> Evaluation:
    """Prefix-observed version of e under (x1, strat): at each observed prefix
    the weight is the conditional expectation of e's weight.  Unreached
    prefixes, and every stage past the table's horizon, weigh zero; its
    block step flags every play done in the block that reaches that
    horizon."""
    table = conditional_table(p, x1, strat, e, horizon, budget=budget)

    def batch_fn(blocks, ctx):
        at = None            # per play id: its prefix id in the table at the block's first stage
        for t0, ids, st, ac, sg in blocks:
            if at is None:   # the first block holds every play, at the empty prefix
                at = np.zeros(st.shape[1], dtype=np.intp)
            w = np.zeros(st.shape)
            g = at[ids]
            for j in range(min(len(st), horizon - t0)):
                w[j] = table.weights[t0 + j][g]
                if t0 + j + 1 < horizon:
                    g = table.child[t0 + j][g, ac[j], sg[j]]
            at[ids] = g
            # every weight past the table's horizon is 0
            yield t0, ids, st, ac, sg, w, \
                None if t0 + len(st) < horizon else np.ones(st.shape[1], dtype=bool)

    return Evaluation(
        kind=f"conditional({e.kind})",
        measurability="prefix-observed",
        normalization="in-expectation",
        support_horizon=horizon if e.support_horizon is not None else None,
        batch_fn=batch_fn,
        irregularity_tail=e.irregularity_tail,
        params={"base": e.kind, "horizon": horizon, "table": table},
    )
