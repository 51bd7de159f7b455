"""Stage-weight evaluations over plays: standard families, block smoothing,
the stopping-rule weights built from running payoffs, conditional
(prefix-observed) versions, and the irregularity metric.

Every evaluation computes its weights one stage block at a time for a whole
batch of plays, carrying what it needs between blocks, and `weight_sums`
folds them into per-play payoff, mass and irregularity sums: exact results
run it on the enumerated play batch as one block and average with the play
probabilities, Monte Carlo results stream the sampled blocks through it and
retire from the stream the plays whose weights are spent."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, TruncationError
from .model import Pomdp
from .playspace import (DEFAULT_NODE_BUDGET, PlayStream, batched_belief_payoffs,
                        block_ids, enumerate_plays, prefix_ids,
                        reduce_sampled_plays, sample_mean)
from .strategies import ScheduleStrategy, Strategy

MEASURABILITY = ("prefix-observed", "prefix-full", "play-observed", "general")
NORMALIZATION = ("pointwise", "in-expectation", "none")


@dataclass(frozen=True)
class EvalContext:
    """What a play-observed weight rule may consult besides the play itself."""

    pomdp: Pomdp
    x1: np.ndarray


@dataclass
class Evaluation:
    """A stage-weight process giving theta_1..theta_n in [0,1] along each play.

    It has exactly one weight function: deterministic kinds give `stage_fn`
    (horizon -> weight vector, the same on every play), the others a block
    step `batch_fn(blocks, ctx)`.  The step consumes a stream of (t0, states,
    actions, signals) play blocks, each a time-major (block, plays) array
    whose row j is stage t0 + j + 1, and yields every block back in order as
    (t0, states, actions, signals, w, done) with its (block, plays) weights
    and the boolean flags `done` of the block's plays whose weights are zero
    at every later stage (None when the step reports none); what it needs
    across blocks (a flag, a run length, look-ahead stages, the play columns)
    it carries itself.  `weight_blocks` streams either kind and
    `batch_weights` is the one-block case on (n_plays, horizon) matrices.
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
        """The play blocks (t0, states, actions, signals) of a play stream over
        `horizon` stages, each yielded back with its weights and `done` flags
        appended.  Deterministic weights flag every play once the stream
        passes `support_horizon`."""
        if not self.deterministic:
            return self.batch_fn(blocks, ctx)
        w, end = self.stage_fn(horizon), self.support_horizon
        return ((t0, st, ac, sg, np.broadcast_to(w[t0:t0 + len(st), None], st.shape),
                 None if end is None or t0 + len(st) < end else np.ones(st.shape[1], dtype=bool))
                for t0, st, ac, sg in blocks)

    def batch_weights(self, states: np.ndarray, actions: np.ndarray,
                      signals: np.ndarray, ctx: Optional[EvalContext] = None) -> np.ndarray:
        """Weights for a batch of plays, shape (n_plays, horizon)."""
        if self.deterministic:
            return np.tile(self.stage_fn(states.shape[1]), (len(states), 1))
        blocks = self.batch_fn([(0, states.T, actions.T, signals.T)], ctx)
        return np.concatenate([blk[4] for blk in blocks]).T


def weight_sums(e: "Evaluation", blocks, horizon: int, ctx: Optional[EvalContext] = None,
                reward: Optional[np.ndarray] = None) -> tuple:
    """Per-play weighted payoff sum theta_m r(k_m, i_m) (None without
    `reward`), weight mass sum theta_m and pathwise irregularity
    |theta_1| + sum |theta_m - theta_{m+1}| (the final drop to zero included)
    of evaluation e, folded over the blocks of `e.weight_blocks(blocks,
    horizon, ctx)`.  Between blocks it carries the three sums and the last
    weight of each play, by play id.  On a `PlayStream` it retires the plays
    each block flags `done`, so no later block simulates or weighs them: a
    retired play would only add exact zeros, and its last weight's drop is
    counted once either way."""
    payoff = mass = jumps = last = None
    for t0, st, ac, _, w, done in e.weight_blocks(blocks, horizon, ctx):
        ids = block_ids(blocks, t0, w.shape[1])
        if mass is None:                   # the first block holds every play
            payoff, mass, jumps, last = np.zeros((4, w.shape[1]))
        if reward is not None:
            payoff[ids] += (reward.take(st * reward.shape[1] + ac) * w).sum(axis=0)
        mass[ids] += w.sum(axis=0)
        jumps[ids] = jumps[ids] + np.abs(w[0] - last[ids]) + np.abs(np.diff(w, axis=0)).sum(axis=0)
        last[ids] = w[-1]
        if isinstance(blocks, PlayStream):
            blocks.retire(t0, done)
        del st, ac, w        # drop the block before the next one is made
    return (None if reward is None else payoff), mass, jumps + np.abs(last)


def enumerated_weights(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                       horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> tuple:
    """The enumerated play batch and its weights, shape (n_plays, horizon)."""
    b = enumerate_plays(p, x1, strat, horizon, budget=budget)
    return b, e.batch_weights(b.states, b.actions, b.signals,
                              EvalContext(p, np.asarray(x1, dtype=float)))


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


def _check_finite(name: str, v: np.ndarray) -> None:
    if not np.all(np.isfinite(v)):
        j = int(np.flatnonzero(~np.isfinite(v))[0])
        raise InvalidInputError(f"{name} entry {j} is {v[j]}, expected a finite number")


def make_decreasing(weights) -> Evaluation:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise InvalidInputError("weights must be a non-empty vector")
    _check_finite("weights", w)
    if np.any(w < 0) or np.any(w > 1):
        raise InvalidInputError("weights must lie in [0,1]")
    if np.any(np.diff(w) > 1e-12):
        raise InvalidInputError("weights must be non-increasing")
    norm = "pointwise" if abs(w.sum() - 1.0) <= 1e-9 else "none"

    def stage_fn(horizon: int) -> np.ndarray:
        out = np.zeros(horizon)
        t = min(horizon, len(w))
        out[:t] = w[:t]
        return out

    return _deterministic("decreasing", stage_fn, len(w), norm, weights=w.tolist())


def make_piecewise_constant(breaks, levels) -> Evaluation:
    breaks = [int(b) for b in breaks]
    levels = [float(v) for v in levels]
    if len(breaks) != len(levels) or not breaks:
        raise InvalidInputError("breaks and levels must be non-empty and equal-length")
    if breaks[0] < 1 or any(b >= c for b, c in zip(breaks, breaks[1:])):
        raise InvalidInputError("breaks must be strictly increasing stages >= 1")
    _check_finite("levels", np.asarray(levels))
    if any(v < 0 or v > 1 for v in levels):
        raise InvalidInputError("levels must lie in [0,1]")
    full = np.concatenate([
        np.full(b - prev, v)
        for prev, b, v in zip([0] + breaks[:-1], breaks, levels)
    ])
    norm = "pointwise" if abs(full.sum() - 1.0) <= 1e-9 else "none"

    def stage_fn(horizon: int) -> np.ndarray:
        out = np.zeros(horizon)
        t = min(horizon, len(full))
        out[:t] = full[:t]
        return out

    return _deterministic("piecewise_constant", stage_fn, breaks[-1], norm,
                          breaks=breaks, levels=levels)


def make_state_block(l: int, early_state: int = 0) -> Evaluation:
    """Weight 1/l on stages 1..l when the initial state is `early_state`,
    and on stages l+1..2l otherwise.  Depends on the unobserved k_1."""
    if l < 1:
        raise InvalidInputError("block length must be >= 1")

    def batch_fn(blocks, ctx):
        start = None                 # per play: 0-based stage where its weights start
        for t0, st, ac, sg in blocks:
            if start is None:        # the first block holds stage 1
                start = np.where(st[0] == early_state, 0, l)
            t = np.arange(t0, t0 + len(st))[:, None]
            yield (t0, st, ac, sg, np.where((t >= start) & (t < start + l), 1.0 / l, 0.0),
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
    """Each play block (t0, states, actions, signals) with its play ids and
    the blocks holding its next `rows` stages (fewer at the end of the
    stream) appended, the latter as a list of (states, ids).  Holds back as
    many blocks as that takes.  A block made after some plays were retired
    holds fewer plays than the block it serves, so each keeps its own ids."""
    held = []

    def release():
        t0, st, ac, sg, ids = held.pop(0)
        return t0, st, ac, sg, ids, [(h[1], h[4]) for h in held]

    for t0, st, ac, sg in blocks:
        held.append((t0, st, ac, sg, block_ids(blocks, t0, st.shape[1])))
        while held and sum(len(h[1]) for h in held[1:]) >= rows:
            yield release()
    while held:
        yield release()


def _first_run(hit: np.ndarray, run: np.ndarray, l: int, b: int) -> tuple:
    """Weights 1/l on the first run of l target stages, for a block of b
    stages followed by up to l - 1 later ones: hit (rows, plays) flags the
    target state and run is each play's run length before the block.
    Returns the (b, plays) weights, the run lengths after the block and
    which plays are still searching (no run ends within the block)."""
    rows = np.arange(len(hit), dtype=np.int32)[:, None]
    # last row out of the target state at or before each row; a run carried
    # into the block counts as ending at row -1 - run
    out = np.maximum.accumulate(np.where(hit, -1 - run, rows), axis=0)
    full = rows - out >= l                  # a run of l target stages ends here
    end = full.argmax(axis=0)
    found = full[end, np.arange(hit.shape[1])]
    w = (found & (rows[:b] > end - l) & (rows[:b] <= end)) / l
    searching = ~(found & (end < b))
    return w, (b - 1 - out[b - 1])[searching], searching


def make_run_block(l: int, target_state: int = 0) -> Evaluation:
    """Weight 1/l on the first run of l consecutive stages in the target
    state, searched from stage 2 onward.  Depends on the realized states, not
    on the observed history.  Zero weights when no run fits in the truncated
    play."""
    if l < 1:
        raise InvalidInputError("block length must be >= 1")

    def batch_fn(blocks, ctx):
        # A stage's weight is known once the l - 1 stages after it are seen:
        # each block is weighted with the states of that many later stages.
        # Plays whose first run is found weigh zero from then on: they drop
        # out and are flagged done in the block where their run ends.
        run = live = None    # target run length before the block; ids of plays still searching
        for t0, st, ac, sg, ids, later in _with_later_states(blocks, l - 1):
            b, n = st.shape
            if live is None:
                run, live = np.zeros(n, dtype=np.int32), ids
            cols = ids.searchsorted(live)
            hit = np.concatenate([st[:, cols]] + [s[:, i.searchsorted(live)] for s, i in later])
            hit = hit[:b + l - 1] == target_state
            if t0 == 0:
                hit[0] = False                      # the search starts at stage 2
            w = np.zeros((b, n))
            w[:, cols], run, searching = _first_run(hit, run, l, b)
            done = np.zeros(n, dtype=bool)
            done[cols[~searching]] = True
            live = live[searching]
            yield t0, st, ac, sg, w, done
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
    empirical limsup proxy (max prefix average over the tail half)."""
    g = np.asarray(running_payoffs, dtype=float)
    n = len(g)
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    if n < l:
        raise InvalidInputError("payoff sequence shorter than l")
    avg = np.cumsum(g) / np.arange(1, n + 1)
    window = avg[max(n // 2, 1) - 1:]
    proxy = float(window.max())
    hits = np.nonzero(avg[l - 1:] >= proxy - 1.0 / l - 1e-12)[0]
    if len(hits):
        return int(hits[0]) + l
    return int(avg.argmax()) + 1


def make_limsup_theta(l: int, horizon: int) -> Evaluation:
    """Uniform weights 1/eta on stages 1..eta, where eta is the stopping stage
    from eta_horizon applied to the play's belief payoffs."""
    if l < 1 or horizon < l:
        raise InvalidInputError("need horizon >= l >= 1")

    def batch_fn(blocks, ctx):
        if ctx is None:
            raise InvalidInputError("limsup weights need a POMDP context")
        # eta depends on the whole play, so this step keeps the play columns
        held = list(blocks)
        actions, signals = (np.concatenate(c).T for c in list(zip(*held))[2:])
        g = batched_belief_payoffs(ctx.pomdp, ctx.x1, actions, signals)
        w = np.zeros(g.shape[::-1])
        for j in range(len(g)):
            eta = eta_horizon(g[j], l)
            w[:eta, j] = 1.0 / eta
        for t0, st, ac, sg in held:
            yield t0, st, ac, sg, w[t0:t0 + len(st)], None

    return Evaluation(
        kind="limsup_theta",
        measurability="play-observed",
        normalization="pointwise",
        support_horizon=horizon,
        batch_fn=batch_fn,
        params={"l": l, "horizon": horizon},
    )


_MAKERS = {
    "n_stage": lambda **kw: make_n_stage(int(kw["n"])),
    "discounted": lambda **kw: make_discounted(float(kw.get("lam", kw.get("lambda", 0.0)))),
    "decreasing": lambda **kw: make_decreasing(kw["weights"]),
    "piecewise_constant": lambda **kw: make_piecewise_constant(kw["breaks"], kw["levels"]),
    "state_block_ex1": lambda **kw: make_state_block(int(kw["l"]), int(kw.get("early_state", 0))),
    "run_block_ex2": lambda **kw: make_run_block(int(kw["l"]), int(kw.get("target_state", 0))),
    "limsup_theta": lambda **kw: make_limsup_theta(int(kw["l"]), int(kw["horizon"])),
}


def make_evaluation(kind: str, **params) -> Evaluation:
    """Build a named evaluation; see _MAKERS for the accepted kinds."""
    if kind not in _MAKERS:
        raise InvalidInputError(f"unknown evaluation kind {kind!r}")
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

    def smooth(w: np.ndarray) -> np.ndarray:
        return w[..., (np.arange(w.shape[-1]) // l) * l]

    def batch_fn(blocks, ctx):
        head = None          # weights at the last block head seen
        for t0, st, ac, sg, w, _ in e.batch_fn(blocks, ctx):
            src = np.arange(t0, t0 + len(w)) // l * l - t0   # head row; < 0: earlier block
            out = w[np.maximum(src, 0)]
            out[src < 0] = head
            head = out[-1]
            yield t0, st, ac, sg, out, None

    support = None if e.support_horizon is None else -(-e.support_horizon // l) * l
    if e.deterministic:
        stage_fn = lambda horizon: smooth(e.stage_fn(horizon))
        probe = stage_fn(support) if support else stage_fn(1000)
        norm = "pointwise" if support and abs(probe.sum() - 1.0) <= 1e-9 else "none"
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


def batch_pathwise_irregularity(w: np.ndarray) -> np.ndarray:
    """`pathwise_irregularity` of each row of w, summed as `weight_sums`
    sums one block of (horizon, n_plays) weights."""
    w = w.T
    return np.abs(w[0]) + np.abs(np.diff(w, axis=0)).sum(axis=0) + np.abs(w[-1])


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
    when the weights vanish within the horizon, bracketed otherwise."""
    tail = _truncation_tail(e, horizon)
    if e.deterministic:
        total = pathwise_irregularity(e.stage_fn(horizon))
    else:
        b, w = enumerated_weights(p, x1, strat, e, horizon, budget)
        total = float(b.prob @ batch_pathwise_irregularity(w))
    return IrregularityReport(lower=max(total - tail, 0.0), upper=total + tail,
                              horizon=horizon, tail_bound=tail)


def irregularity_mc(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                    horizon: int, samples: int, seed: int, shards: int = 4) -> McEstimate:
    """Monte Carlo estimate of the horizon-truncated irregularity."""
    ctx = EvalContext(p, np.asarray(x1, dtype=float))
    v, = reduce_sampled_plays(
        p, x1, strat, horizon, samples, seed,
        lambda blocks: weight_sums(e, blocks, horizon, ctx)[2:], shards)
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
    `kids` maps a key to the keys one stage deeper that extend it."""

    rho: dict
    mass: dict
    horizon: int
    kids: dict

    def children(self, key) -> list:
        return self.kids.get(key, [])


def _prefix_keys(actions: np.ndarray, signals: np.ndarray, rows: np.ndarray, m: int) -> list:
    """(stage, actions, signals) keys of the prefixes held before stage m on `rows`."""
    return [(m, tuple(a), tuple(s)) for a, s in
            zip(actions[rows, :m - 1].tolist(), signals[rows, :m - 1].tolist())]


def conditional_table(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                      horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> ConditionalTable:
    """Expected evaluation weight at each stage given the observed prefix."""
    b, w = enumerated_weights(p, x1, strat, e, horizon, budget)
    ids, first = prefix_ids(b.actions, b.signals)
    rho: dict = {}
    mass: dict = {}
    kids: dict = {}
    for m in range(1, horizon + 1):
        keys = _prefix_keys(b.actions, b.signals, first[m - 1], m)
        num = np.bincount(ids[:, m - 1], weights=b.prob * w[:, m - 1], minlength=len(keys))
        den = np.bincount(ids[:, m - 1], weights=b.prob, minlength=len(keys))
        mass.update(zip(keys, den.tolist()))
        rho.update((k, v / d) for k, v, d in zip(keys, num.tolist(), den.tolist()) if d > 0)
        if m > 1:
            for key in keys:
                kids.setdefault((m - 1, key[1][:-1], key[2][:-1]), []).append(key)
    return ConditionalTable(rho=rho, mass=mass, horizon=horizon, kids=kids)


def conditional_evaluation(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                           horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> Evaluation:
    """Prefix-observed version of e under (x1, strat): at each observed prefix
    the weight is the conditional expectation of e's weight.  Unreached
    prefixes weigh zero."""
    table = conditional_table(p, x1, strat, e, horizon, budget=budget)

    def batch_fn(blocks, ctx):
        seen = []            # the observed columns of stages 1..horizon so far
        for t0, st, ac, sg in blocks:
            w = np.zeros(st.shape)
            if t0 < horizon:
                seen.append((ac[:horizon - t0], sg[:horizon - t0]))
                acts, sigs = (np.concatenate(c).T for c in zip(*seen))
                ids, first = prefix_ids(acts, sigs)
                for m in range(t0 + 1, acts.shape[1] + 1):
                    keys = _prefix_keys(acts, sigs, first[m - 1], m)
                    w[m - 1 - t0] = np.array([table.rho.get(k, 0.0) for k in keys])[ids[:, m - 1]]
            yield t0, st, ac, sg, w, None

    return Evaluation(
        kind=f"conditional({e.kind})",
        measurability="prefix-observed",
        normalization="in-expectation",
        support_horizon=horizon if e.support_horizon is not None else None,
        batch_fn=batch_fn,
        irregularity_tail=e.irregularity_tail,
        params={"base": e.kind, "horizon": horizon, "table": table},
    )
