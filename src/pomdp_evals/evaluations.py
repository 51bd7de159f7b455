"""Stage-weight evaluations over plays: standard families, block smoothing,
the stopping-rule weights built from running payoffs, conditional
(prefix-observed) versions, and the irregularity metric."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, TruncationError
from .model import Play, Pomdp
from .playspace import (DEFAULT_NODE_BUDGET, batched_belief_payoffs,
                        enumerate_plays, reduce_sampled_plays, sample_mean)
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
    """A stage-weight process: weights(play) gives theta_1..theta_n in [0,1].

    `support_horizon` is the stage past which weights vanish on every play
    (None when unbounded).  `irregularity_tail` bounds the truncation error of
    the pathwise irregularity at a given horizon; `mass_tail` bounds the weight
    mass past a horizon.  Deterministic evaluations expose `stage_fn` so bulk
    consumers can skip per-play work.
    """

    kind: str
    measurability: str
    normalization: str
    vector_fn: Callable[[Play, Optional[EvalContext]], np.ndarray]
    support_horizon: Optional[int] = None
    deterministic: bool = False
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

    def weights(self, play: Play, ctx: Optional[EvalContext] = None) -> np.ndarray:
        """Per-stage weights theta_1..theta_n along a truncated play."""
        if self.deterministic:
            return self.stage_fn(len(play.states))
        return np.asarray(self.vector_fn(play, ctx), dtype=float)

    def batch_weights(self, states: np.ndarray, actions: np.ndarray,
                      signals: np.ndarray, ctx: Optional[EvalContext] = None) -> np.ndarray:
        """Weights for a batch of sampled plays, shape (n_plays, horizon)."""
        n, horizon = states.shape
        if self.deterministic:
            return np.tile(self.stage_fn(horizon), (n, 1))
        if self.batch_fn is not None:
            return self.batch_fn(states, actions, signals, ctx)
        out = np.empty((n, horizon))
        for j in range(n):
            out[j] = self.weights(Play(states[j], actions[j], signals[j]), ctx)
        return out


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
        vector_fn=lambda play, ctx: stage_fn(len(play.states)),
        support_horizon=support,
        deterministic=True,
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


def make_decreasing(weights) -> Evaluation:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise InvalidInputError("weights must be a non-empty vector")
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

    def vector_fn(play: Play, ctx) -> np.ndarray:
        horizon = len(play.states)
        out = np.zeros(horizon)
        start = 0 if int(play.states[0]) == early_state else l
        out[start: min(start + l, horizon)] = 1.0 / l
        return out

    def batch_fn(states, actions, signals, ctx) -> np.ndarray:
        n, horizon = states.shape
        out = np.zeros((n, horizon))
        cols = np.arange(horizon)
        start = np.where(states[:, 0] == early_state, 0, l)[:, None]
        out[(cols >= start) & (cols < start + l)] = 1.0 / l
        return out

    return Evaluation(
        kind="state_block_ex1",
        measurability="prefix-full",
        normalization="pointwise",
        vector_fn=vector_fn,
        support_horizon=2 * l,
        batch_fn=batch_fn,
        params={"l": l, "early_state": early_state},
    )


def _first_run_start(flags: np.ndarray, l: int) -> int:
    """First index j with flags[j:j+l] all true, or -1."""
    if len(flags) < l:
        return -1
    c = np.concatenate([[0], np.cumsum(flags.astype(np.int64))])
    hits = np.nonzero(c[l:] - c[:-l] == l)[0]
    return int(hits[0]) if len(hits) else -1


def make_run_block(l: int, target_state: int = 0) -> Evaluation:
    """Weight 1/l on the first run of l consecutive stages in the target
    state, searched from stage 2 onward.  Depends on the realized states, not
    on the observed history.  Zero weights when no run fits in the truncated
    play."""
    if l < 1:
        raise InvalidInputError("block length must be >= 1")

    def vector_fn(play: Play, ctx) -> np.ndarray:
        horizon = len(play.states)
        out = np.zeros(horizon)
        j = _first_run_start(np.asarray(play.states[1:]) == target_state, l)
        if j >= 0:
            out[j + 1: j + 1 + l] = 1.0 / l
        return out

    def batch_fn(states, actions, signals, ctx) -> np.ndarray:
        n, horizon = states.shape
        out = np.zeros((n, horizon))
        if horizon - 1 < l:
            return out
        c = np.empty((n, horizon), dtype=np.int32)   # run counts from column 1
        c[:, 0] = 0
        np.cumsum(states[:, 1:] == target_state, axis=1, dtype=np.int32, out=c[:, 1:])
        full = c[:, l:] - c[:, :-l] == l          # run starting at column j+1
        first = full.argmax(axis=1)
        rows = np.flatnonzero(full[np.arange(n), first])
        cells = (rows * horizon + first[rows] + 1)[:, None] + np.arange(l)
        out.put(cells, 1.0 / l)
        return out

    return Evaluation(
        kind="run_block_ex2",
        measurability="play-observed",
        normalization="pointwise",
        vector_fn=vector_fn,
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

    def vector_fn(play: Play, ctx: Optional[EvalContext]) -> np.ndarray:
        if ctx is None:
            raise InvalidInputError("limsup weights need a POMDP context")
        g = batched_belief_payoffs(ctx.pomdp, ctx.x1,
                                   play.actions[None, :], play.signals[None, :])[0]
        eta = eta_horizon(g, l)
        out = np.zeros(len(play.states))
        out[:eta] = 1.0 / eta
        return out

    def batch_fn(states, actions, signals, ctx) -> np.ndarray:
        if ctx is None:
            raise InvalidInputError("limsup weights need a POMDP context")
        g = batched_belief_payoffs(ctx.pomdp, ctx.x1, actions, signals)
        n, h = g.shape
        out = np.zeros((n, h))
        for j in range(n):
            eta = eta_horizon(g[j], l)
            out[j, :eta] = 1.0 / eta
        return out

    return Evaluation(
        kind="limsup_theta",
        measurability="play-observed",
        normalization="pointwise",
        vector_fn=vector_fn,
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
    return _MAKERS[kind](**params)


def evaluation_from_spec(doc) -> Evaluation:
    """Parse {"kind": ..., <params>} (dict or JSON string)."""
    import json

    if isinstance(doc, str):
        doc = json.loads(doc)
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
        idx = (np.arange(len(w)) // l) * l
        return w[idx]

    support = None if e.support_horizon is None else -(-e.support_horizon // l) * l
    if e.deterministic:
        stage_fn = lambda horizon: smooth(e.stage_fn(horizon))
        probe = stage_fn(support) if support else stage_fn(1000)
        norm = "pointwise" if support and abs(probe.sum() - 1.0) <= 1e-9 else "none"
        return Evaluation(
            kind=f"block_smooth({e.kind},{l})",
            measurability=e.measurability,
            normalization=norm,
            vector_fn=lambda play, ctx: stage_fn(len(play.states)),
            support_horizon=support,
            deterministic=True,
            stage_fn=stage_fn,
            params={"base": e.kind, "l": l},
        )
    batch = None
    if e.batch_fn is not None:
        def batch(states, actions, signals, ctx):
            w = e.batch_fn(states, actions, signals, ctx)
            idx = (np.arange(w.shape[1]) // l) * l
            return w[:, idx]
    return Evaluation(
        kind=f"block_smooth({e.kind},{l})",
        measurability=e.measurability,
        normalization="none",
        vector_fn=lambda play, ctx: smooth(e.weights(play, ctx)),
        support_horizon=support,
        batch_fn=batch,
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
    padded = np.concatenate([w, np.zeros((w.shape[0], 1))], axis=1)
    return np.abs(w[:, 0]) + np.abs(np.diff(padded, axis=1)).sum(axis=1)


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
    ctx = EvalContext(p, np.asarray(x1, dtype=float))
    if e.deterministic:
        total = pathwise_irregularity(e.stage_fn(horizon))
    else:
        total = 0.0
        for wp in enumerate_plays(p, x1, strat, horizon, budget=budget):
            total += wp.probability * pathwise_irregularity(e.weights(wp.play, ctx))
    return IrregularityReport(lower=max(total - tail, 0.0), upper=total + tail,
                              horizon=horizon, tail_bound=tail)


def irregularity_mc(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                    horizon: int, samples: int, seed: int, shards: int = 4) -> McEstimate:
    """Monte Carlo estimate of the horizon-truncated irregularity."""
    ctx = EvalContext(p, np.asarray(x1, dtype=float))
    v, = reduce_sampled_plays(
        p, x1, strat, horizon, samples, seed,
        lambda st, ac, sg: (batch_pathwise_irregularity(e.batch_weights(st, ac, sg, ctx)),),
        shards)
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
    support them.  Keys are (stage, actions, signals) with len = stage-1."""

    rho: dict
    mass: dict
    horizon: int

    def children(self, key):
        m, acts, sigs = key
        out = []
        for other in self.mass:
            if other[0] == m + 1 and other[1][:m - 1] == acts and other[2][:m - 1] == sigs:
                out.append(other)
        return out


def conditional_table(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                      horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> ConditionalTable:
    """Expected evaluation weight at each stage given the observed prefix."""
    ctx = EvalContext(p, np.asarray(x1, dtype=float))
    plays = enumerate_plays(p, x1, strat, horizon, budget=budget)
    num: dict = {}
    mass: dict = {}
    for wp in plays:
        w = e.weights(wp.play, ctx)
        a = tuple(int(v) for v in wp.play.actions)
        s = tuple(int(v) for v in wp.play.signals)
        for m in range(1, horizon + 1):
            key = (m, a[: m - 1], s[: m - 1])
            num[key] = num.get(key, 0.0) + wp.probability * float(w[m - 1])
            mass[key] = mass.get(key, 0.0) + wp.probability
    rho = {k: num[k] / mass[k] for k in num if mass[k] > 0}
    return ConditionalTable(rho=rho, mass=mass, horizon=horizon)


def conditional_evaluation(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                           horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> Evaluation:
    """Prefix-observed version of e under (x1, strat): at each observed prefix
    the weight is the conditional expectation of e's weight.  Unreached
    prefixes weigh zero."""
    table = conditional_table(p, x1, strat, e, horizon, budget=budget)

    def vector_fn(play: Play, ctx) -> np.ndarray:
        a = tuple(int(v) for v in play.actions)
        s = tuple(int(v) for v in play.signals)
        n = min(len(play.states), horizon)
        out = np.zeros(len(play.states))
        for m in range(1, n + 1):
            out[m - 1] = table.rho.get((m, a[: m - 1], s[: m - 1]), 0.0)
        return out

    return Evaluation(
        kind=f"conditional({e.kind})",
        measurability="prefix-observed",
        normalization="in-expectation",
        vector_fn=vector_fn,
        support_horizon=horizon if e.support_horizon is not None else None,
        irregularity_tail=e.irregularity_tail,
        params={"base": e.kind, "horizon": horizon, "table": table},
    )
