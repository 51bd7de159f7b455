"""Values and payoffs: one weighted backward induction on the belief graph
of the initial belief (`model.belief_graph`, built as for the Monte Carlo
belief payoffs but with beliefs merged at 1e-12) for the n-stage and
discounted values (stage weights 1 and lam (1 - lam)^(m-1)) and
the sequence v_1..v_n, asymptotic-value estimates, exact and Monte Carlo
weighted payoffs, chain-based payoffs for deterministic weights, and
finite-horizon proxies for long-run superior/inferior average payoffs.

Exact and Monte Carlo weighted payoffs reduce one `PlayStream` with the same
block fold (`evaluations.weight_sums`): the enumerated batch as a stream of
one block, averaged with its play probabilities, or the sampled play stream
block by block, as a sample mean with its standard error.  The long-run
proxies fold the same stream into running extrema of prefix averages
(`average_extrema`)."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .chain import MarkovChain
from .errors import BudgetExceededError, InvalidInputError
from .evaluations import Evaluation, McEstimate, _context, prefix_averages, weight_sums
from .model import Pomdp, belief_graph, json_float
from .playspace import (DEFAULT_NODE_BUDGET, belief_payoff_blocks, enumerate_plays,
                        one_block_stream, reduce_sampled_plays, sample_mean)
from .strategies import Strategy, json_integer

METHODS = ("exact_dp", "truncated_dp", "monte_carlo", "ergodic_exact")


@dataclass(frozen=True)
class ValueReport:
    value: float
    method: str
    error_bound: float
    horizon_or_samples: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        if not np.isfinite(self.value):
            raise InvalidInputError("value must be finite")


# ---------------------------------------------------------------------------
# Dynamic programming on beliefs
# ---------------------------------------------------------------------------

def _root_values(p: Pomdp, x1: np.ndarray, theta: np.ndarray, budget: int) -> np.ndarray:
    """V_1(x1)..V_H(x1) for stage weights theta_1..theta_H, where V_0 = 0 and
    V_t(x) = max_i [theta_{H-t+1} g(x, i) + sum_s P(s | x, i) V_{t-1}(x'_s)].

    The sweep runs on the `belief_graph` of x1 to depth H-1, with beliefs
    merged by their rounded key, in order of first depth, so the sweep for
    V_t runs over the prefix first seen within depth H-t.  `budget` caps the
    beliefs the graph holds; one that is not an integer is rejected with
    InvalidInputError."""
    budget = json_integer(budget, "budget")
    horizon = len(theta)
    graph = belief_graph(p, x1, budget, horizon - 1, rounded=True)
    if graph is None:
        raise BudgetExceededError(f"belief DP exceeded the node budget ({budget})")
    beliefs, child, prob, seen = graph
    g = beliefs @ p.reward
    succ, succ_prob = (a.reshape(-1, p.n_actions, p.n_signals) for a in (child, prob))
    roots = np.empty(horizon)
    for t in range(1, horizon + 1):
        n = seen[min(horizon - t, len(seen) - 1)]
        q = theta[horizon - t] * g[:n]
        if t > 1:   # summed in signal order, off-support signals adding 0
            q += sum(succ_prob[:n, :, s] * v[succ[:n, :, s]] for s in range(p.n_signals))
        v = q.max(axis=1)
        roots[t - 1] = v[0]
    return roots


def value_n(p: Pomdp, x1: np.ndarray, n: int,
            budget: int = DEFAULT_NODE_BUDGET) -> ValueReport:
    """Exact normalized n-stage value: the weighted backward induction with
    theta = 1, divided by n.  `budget` caps the distinct beliefs stored."""
    n = json_integer(n, "n")
    if n < 1:
        raise InvalidInputError("horizon must be >= 1")
    return ValueReport(value=_root_values(p, x1, np.ones(n), budget)[-1] / n,
                       method="exact_dp", error_bound=0.0, horizon_or_samples=n)


def value_discounted(p: Pomdp, x1: np.ndarray, lam: float, tol: float = 1e-6,
                     budget: int = DEFAULT_NODE_BUDGET) -> ValueReport:
    """Discounted value within tol: the weighted backward induction with
    theta_m = lam (1 - lam)^(m-1), truncated once the geometric tail is
    below tol."""
    lam, tol = json_float(lam, "lam"), json_float(tol, "tol")
    if not 0.0 < lam < 1.0:
        raise InvalidInputError("discount weight must lie in (0, 1)")
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    horizon = int(np.ceil(np.log(tol) / np.log(1.0 - lam)))
    horizon = max(horizon, 1)
    if horizon > 100_000:
        raise BudgetExceededError(
            f"discounted DP needs horizon {horizon}, beyond the supported range"
        )
    value = _root_values(p, x1, lam * (1.0 - lam) ** np.arange(horizon), budget)[-1]
    return ValueReport(value=value, method="truncated_dp",
                       error_bound=(1.0 - lam) ** horizon,
                       horizon_or_samples=horizon)


def value_n_sequence(p: Pomdp, x1: np.ndarray, n_max: int,
                     budget: int = DEFAULT_NODE_BUDGET) -> np.ndarray:
    """v_1..v_{n_max} at x1 from one sweep with theta = 1: after step t the
    root holds the t-stage total."""
    n_max = json_integer(n_max, "n_max")
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
    return _root_values(p, x1, np.ones(n_max), budget) / np.arange(1, n_max + 1)


def asymptotic_value_estimate(p: Pomdp, x1: np.ndarray, n_max: int,
                              budget: int = DEFAULT_NODE_BUDGET) -> ValueReport:
    """v_{n_max} reported as an estimate of the long-horizon limit, with the
    last-quartile spread of v_n plus 1/n_max as the error bound."""
    n_max = json_integer(n_max, "n_max")
    if n_max < 2:
        raise InvalidInputError("n_max must be >= 2")
    vs = value_n_sequence(p, x1, n_max, budget=budget)
    tail = vs[(3 * n_max) // 4 - 1:]
    spread = float(tail.max() - tail.min())
    return ValueReport(value=float(vs[-1]), method="truncated_dp",
                       error_bound=spread + 1.0 / n_max,
                       horizon_or_samples=n_max)


# ---------------------------------------------------------------------------
# Weighted payoffs
# ---------------------------------------------------------------------------

def _tail_weight(e: Evaluation, horizon: int, truncated_mass: float) -> float:
    """Bound on the expected evaluation weight past the horizon."""
    if e.support_horizon is not None and e.support_horizon <= horizon:
        return 0.0
    if e.mass_tail is not None:
        return float(e.mass_tail(horizon))
    if e.normalization == "pointwise":
        return float(max(0.0, 1.0 - truncated_mass))
    return float("inf")


def weighted_payoff_exact(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                          horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> ValueReport:
    """E[sum theta_m r(k_m, i_m)] by exhaustive tree enumeration; exact when
    the weights vanish within the horizon.  The Monte Carlo estimators' fold
    on the enumerated plays as one block, averaged with the play
    probabilities."""
    ctx = _context(p, x1, e)
    b = enumerate_plays(p, x1, strat, horizon, budget=budget)
    v, masses, _ = weight_sums(e, one_block_stream(b.states, b.actions, b.signals), horizon,
                               ctx, p.reward)
    return ValueReport(value=float(b.prob @ v), method="exact_dp",
                       error_bound=_tail_weight(e, horizon, float(b.prob @ masses)),
                       horizon_or_samples=horizon)


def weighted_payoff_mc(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                       horizon: int, samples: int, seed: int) -> ValueReport:
    """Monte Carlo estimate of the weighted payoff; the error bound combines
    three standard errors with the expected tail weight."""
    return weighted_payoff_and_irregularity_mc(p, x1, strat, e, horizon, samples, seed)[0]


def weighted_payoff_and_irregularity_mc(p: Pomdp, x1: np.ndarray, strat: Strategy,
                                        e: Evaluation, horizon: int, samples: int,
                                        seed: int):
    """Weighted payoff and irregularity estimated from one shared batch of
    sampled plays; returns (ValueReport, McEstimate).  Matches calling
    weighted_payoff_mc and irregularity_mc with the same seed at half the
    simulation cost."""
    ctx = _context(p, x1, e)
    v, masses, j = reduce_sampled_plays(
        p, x1, strat, horizon, samples, seed,
        lambda blocks: weight_sums(e, blocks, horizon, ctx, p.reward))
    value, v_se = sample_mean(v)
    j_mean, j_se = sample_mean(j)
    payoff = ValueReport(value=value, method="monte_carlo",
                         error_bound=3.0 * v_se + _tail_weight(e, horizon, float(masses.mean())),
                         horizon_or_samples=samples)
    return payoff, McEstimate(mean=j_mean, std_error=j_se, samples=samples, seed=seed)


def weighted_payoff_chain(c: MarkovChain, e: Evaluation, horizon: int) -> ValueReport:
    """Exact weighted payoff of a deterministic evaluation on a finite chain:
    sum_m theta_m E[f(u_m)] by stepping the state law.  A `horizon` that is
    not an integer is rejected with InvalidInputError."""
    horizon = json_integer(horizon, "horizon")
    if not e.deterministic:
        raise InvalidInputError("chain payoffs need a deterministic evaluation")
    w = e.stage_fn(horizon)
    y = c.initial.copy()
    total = 0.0
    for m in range(horizon):
        total += w[m] * float(y @ c.payoff)
        y = y @ c.transition
    return ValueReport(value=total, method="ergodic_exact",
                       error_bound=_tail_weight(e, horizon, float(w.sum())),
                       horizon_or_samples=horizon)


# ---------------------------------------------------------------------------
# Long-run average proxies
# ---------------------------------------------------------------------------

def average_extrema(payoff_blocks, horizon: int, window_start: int = None) -> tuple:
    """Per-play max (limsup proxy) and min (liminf proxy) of the prefix
    averages over stages [window_start, horizon], folded over (t0, g) blocks
    of stage payoffs, each time-major (block, plays), in stage order.  It
    reads their `prefix_averages` and carries the two running extrema
    between blocks.  A `horizon` or `window_start` that is not an integer is
    rejected with InvalidInputError."""
    horizon = json_integer(horizon, "horizon")
    window_start = (max(horizon // 2, 1) if window_start is None
                    else json_integer(window_start, "window_start"))
    if not 1 <= window_start <= horizon:
        raise InvalidInputError("window start outside [1, horizon]")
    hi = lo = None
    for t0, avg in prefix_averages(payoff_blocks):
        window = avg[max(window_start - 1 - t0, 0):]
        if len(window):
            top, bottom = window.max(axis=0), window.min(axis=0)
            hi = top if hi is None else np.maximum(hi, top)
            lo = bottom if lo is None else np.minimum(lo, bottom)
    return hi, lo


def check_long_run_inputs(horizon: int, samples: int, seed: int,
                          window_start: int = None) -> None:
    """The long-run proxies' checks of their sizes, made before any play is
    simulated: `horizon` >= 2, `samples` >= 1, `seed` >= 0 and a
    `window_start` in [1, horizon] (None reads h/2), each an integer, else
    InvalidInputError."""
    horizon = json_integer(horizon, "horizon")
    if horizon < 2:
        raise InvalidInputError("horizon must be >= 2")
    if json_integer(samples, "samples") < 1:
        raise InvalidInputError("samples must be >= 1")
    seed = json_integer(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if window_start is not None and \
            not 1 <= json_integer(window_start, "window_start") <= horizon:
        raise InvalidInputError("window start outside [1, horizon]")


def _stage_payoffs(p: Pomdp, x1: np.ndarray, blocks, bases: tuple):
    """(t0, g) blocks of per-stage payoffs along a `PlayStream`: r(k_m, i_m)
    for the base "state", g(x_m, i_m) for "belief", and for the bases
    ("state", "belief") both side by side, g being (block, 2 * plays) with
    the state columns first.  Each column holds the payoffs its base alone
    gives."""
    if bases == ("state",):
        return ((t0, p.reward[st, ac]) for t0, _, st, ac, _ in blocks)
    if bases == ("belief",):
        return belief_payoff_blocks(p, x1, ((t0, ac, sg) for t0, _, _, ac, sg in blocks))
    return _state_and_belief_payoffs(p, x1, blocks)


def _state_and_belief_payoffs(p: Pomdp, x1: np.ndarray, blocks):
    """`_stage_payoffs` for both bases: the state payoffs of each block are
    put aside as `belief_payoff_blocks` reads the block, and joined to its
    belief payoffs when it yields them, one block for one block."""
    rewards = deque()

    def observed():
        for t0, _, st, ac, sg in blocks:
            rewards.append(p.reward[st, ac])
            yield t0, ac, sg

    for t0, g in belief_payoff_blocks(p, x1, observed()):
        yield t0, np.hstack([rewards.popleft(), g])


def long_run_payoffs_mc(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                        samples: int, seed: int, mode: str = "limsup",
                        bases: tuple = ("state", "belief"),
                        window_start: int = None) -> tuple:
    """`limsup_belief_payoff_mc` for each payoff base in `bases` ("state",
    "belief" or both, in that order), from one simulated pass: one
    ValueReport per base.  With both bases the two payoff blocks go side by
    side through one `average_extrema`; a column's prefix averages and
    extrema are its own, so each report is bit for bit the one a pass of
    its own gives, at the cost of one simulation."""
    check_long_run_inputs(horizon, samples, seed, window_start)
    if mode not in ("limsup", "liminf"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    bases = tuple(bases)
    if bases not in (("state",), ("belief",), ("state", "belief")):
        raise InvalidInputError(f"unknown payoff bases {bases!r}")

    def reduce(blocks):
        return (average_extrema(_stage_payoffs(p, x1, blocks, bases), horizon,
                                window_start)[mode == "liminf"],)

    v, = reduce_sampled_plays(p, x1, strat, horizon, samples, seed, reduce)
    reports = []
    for part in np.split(v, len(bases)):
        value, se = sample_mean(part)
        reports.append(ValueReport(value=value, method="monte_carlo",
                                   error_bound=3.0 * se, horizon_or_samples=samples))
    return tuple(reports)


def limsup_belief_payoff_mc(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                            samples: int, seed: int, mode: str = "limsup",
                            payoff_on: str = "state", window_start: int = None) -> ValueReport:
    """Finite-horizon estimate of the expected limsup/liminf average payoff,
    with per-stage payoffs r(k_m, i_m) ("state") or g(x_m, i_m) ("belief").
    The sizes are checked by `check_long_run_inputs`, so a `horizon` that is
    not an integer is rejected with InvalidInputError."""
    return long_run_payoffs_mc(p, x1, strat, horizon, samples, seed, mode, (payoff_on,),
                               window_start)[0]
