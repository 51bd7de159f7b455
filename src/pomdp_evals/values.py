"""Values and payoffs: one weighted backward induction on beliefs for the
n-stage and discounted values (stage weights 1 and lam (1 - lam)^(m-1)) and
the sequence v_1..v_n, asymptotic-value estimates, exact and Monte Carlo
weighted payoffs, chain-based payoffs for deterministic weights, and
finite-horizon proxies for long-run superior/inferior average payoffs.

Exact and Monte Carlo weighted payoffs reduce plays with the same block fold
(`evaluations.weight_sums`): the enumerated batch as one block, averaged with
its play probabilities, or the sampled play stream block by block, as a
sample mean with its standard error.  The long-run proxies fold the same
stream into running extrema of prefix averages (`average_extrema`)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import MarkovChain
from .errors import BudgetExceededError, InvalidInputError
from .evaluations import EvalContext, Evaluation, McEstimate, weight_sums
from .model import (SIGNAL_PROB_FLOOR, Pomdp, _check_dims, bayes_matrices, belief_key,
                    canonical_belief)
from .playspace import (DEFAULT_NODE_BUDGET, belief_payoff_blocks,
                        enumerate_plays, reduce_sampled_plays, sample_mean)
from .strategies import Strategy

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

    The beliefs reachable within depth H-1 are built level by level with the
    batched Bayes step, dropping signals below SIGNAL_PROB_FLOOR, and stored
    once per `belief_key` (the first belief with a key stands for it), at
    most `budget` of them.  They are stored in order of first depth, so the
    sweep for V_t runs over the prefix first seen within depth H-t."""
    horizon, codes = len(theta), p.n_actions * p.n_signals
    frontier = _check_dims(p, x1)[None, :]
    keys = {belief_key(frontier[0]): 0}
    payoffs = [frontier @ p.reward]
    edges = [(np.zeros((0, codes), dtype=np.intp), np.zeros((0, codes)))]   # successors
    seen = [1]                         # beliefs first seen within each depth
    while True:
        if len(keys) > budget:
            raise BudgetExceededError(
                f"belief DP exceeded the node budget ({budget}) at depth {len(seen) - 1}")
        if len(seen) == horizon or not len(frontier):
            break
        joint = np.einsum("nk,jkl->njl", frontier, bayes_matrices(p))
        prob = joint.sum(axis=2)
        keep = prob >= SIGNAL_PROB_FLOOR
        post = joint[keep] / prob[keep][:, None]
        found = [keys.setdefault(row.tobytes(), len(keys)) for row in canonical_belief(post)]
        child = np.zeros(prob.shape, dtype=np.intp)
        child[keep] = found
        edges.append((child, np.where(keep, prob, 0.0)))
        index, first = np.unique(found, return_index=True)
        frontier = post[first[index >= seen[-1]]]
        payoffs.append(frontier @ p.reward)
        seen.append(len(keys))
    g = np.concatenate(payoffs)
    succ, succ_prob = (np.concatenate(e).reshape(-1, p.n_actions, p.n_signals) for e in zip(*edges))
    roots = np.empty(horizon)
    for t in range(1, horizon + 1):
        n = seen[min(horizon - t, len(seen) - 1)]
        q = theta[horizon - t] * g[:n]
        if t > 1:   # summed in signal order, dropped signals adding 0
            q += sum(succ_prob[:n, :, s] * v[succ[:n, :, s]] for s in range(p.n_signals))
        v = q.max(axis=1)
        roots[t - 1] = v[0]
    return roots


def value_n(p: Pomdp, x1: np.ndarray, n: int,
            budget: int = DEFAULT_NODE_BUDGET) -> ValueReport:
    """Exact normalized n-stage value: the weighted backward induction with
    theta = 1, divided by n.  `budget` caps the distinct beliefs stored."""
    if n < 1:
        raise InvalidInputError("horizon must be >= 1")
    return ValueReport(value=_root_values(p, x1, np.ones(n), budget)[-1] / n,
                       method="exact_dp", error_bound=0.0, horizon_or_samples=n)


def value_discounted(p: Pomdp, x1: np.ndarray, lam: float, tol: float = 1e-6,
                     budget: int = DEFAULT_NODE_BUDGET) -> ValueReport:
    """Discounted value within tol: the weighted backward induction with
    theta_m = lam (1 - lam)^(m-1), truncated once the geometric tail is
    below tol."""
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
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
    return _root_values(p, x1, np.ones(n_max), budget) / np.arange(1, n_max + 1)


def asymptotic_value_estimate(p: Pomdp, x1: np.ndarray, n_max: int,
                              budget: int = DEFAULT_NODE_BUDGET) -> ValueReport:
    """v_{n_max} reported as an estimate of the long-horizon limit, with the
    last-quartile spread of v_n plus 1/n_max as the error bound."""
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
    on the play batch as one block, averaged with the play probabilities."""
    ctx = EvalContext(p, np.asarray(x1, dtype=float))
    b = enumerate_plays(p, x1, strat, horizon, budget=budget)
    v, masses, _ = weight_sums(e, [(0, b.states.T, b.actions.T, b.signals.T)], horizon, ctx,
                               p.reward)
    return ValueReport(value=float(b.prob @ v), method="exact_dp",
                       error_bound=_tail_weight(e, horizon, float(b.prob @ masses)),
                       horizon_or_samples=horizon)


def weighted_payoff_mc(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                       horizon: int, samples: int, seed: int,
                       shards: int = 4) -> ValueReport:
    """Monte Carlo estimate of the weighted payoff; the error bound combines
    three standard errors with the expected tail weight."""
    ctx = EvalContext(p, np.asarray(x1, dtype=float))
    v, masses = reduce_sampled_plays(
        p, x1, strat, horizon, samples, seed,
        lambda blocks: weight_sums(e, blocks, horizon, ctx, p.reward)[:2], shards)
    value, se = sample_mean(v)
    return ValueReport(value=value, method="monte_carlo",
                       error_bound=3.0 * se + _tail_weight(e, horizon, float(masses.mean())),
                       horizon_or_samples=samples)


def weighted_payoff_and_irregularity_mc(p: Pomdp, x1: np.ndarray, strat: Strategy,
                                        e: Evaluation, horizon: int, samples: int,
                                        seed: int, shards: int = 4):
    """Weighted payoff and irregularity estimated from one shared batch of
    sampled plays; returns (ValueReport, McEstimate).  Matches calling
    weighted_payoff_mc and irregularity_mc with the same seed at half the
    simulation cost."""
    ctx = EvalContext(p, np.asarray(x1, dtype=float))
    v, masses, j = reduce_sampled_plays(
        p, x1, strat, horizon, samples, seed,
        lambda blocks: weight_sums(e, blocks, horizon, ctx, p.reward), shards)
    value, v_se = sample_mean(v)
    j_mean, j_se = sample_mean(j)
    payoff = ValueReport(value=value, method="monte_carlo",
                         error_bound=3.0 * v_se + _tail_weight(e, horizon, float(masses.mean())),
                         horizon_or_samples=samples)
    return payoff, McEstimate(mean=j_mean, std_error=j_se, samples=samples, seed=seed)


def weighted_payoff_chain(c: MarkovChain, e: Evaluation, horizon: int) -> ValueReport:
    """Exact weighted payoff of a deterministic evaluation on a finite chain:
    sum_m theta_m E[f(u_m)] by stepping the state law."""
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
    of stage payoffs, each time-major (block, plays), in stage order.  Between
    blocks it carries the cumulative payoff and the two running extrema; the
    prefix sums add stage by stage, as one cumulative sum along the play."""
    if window_start is None:
        window_start = max(horizon // 2, 1)
    if not 1 <= window_start <= horizon:
        raise InvalidInputError("window start outside [1, horizon]")
    cum = hi = lo = None
    for t0, g in payoff_blocks:
        avg = np.array(g, dtype=float)
        if cum is not None:
            avg[0] += cum
        np.cumsum(avg, axis=0, out=avg)
        cum = avg[-1].copy()
        avg /= np.arange(t0 + 1, t0 + len(avg) + 1)[:, None]
        window = avg[max(window_start - 1 - t0, 0):]
        if len(window):
            top, bottom = window.max(axis=0), window.min(axis=0)
            hi = top if hi is None else np.maximum(hi, top)
            lo = bottom if lo is None else np.minimum(lo, bottom)
    return hi, lo


def running_average_extremum(payoffs: np.ndarray, mode: str,
                             window_start: int = None) -> np.ndarray:
    """Per-play max (limsup proxy) or min (liminf proxy) of the prefix
    averages over stages [window_start, horizon]; payoffs is (n, horizon).
    The one-block case of `average_extrema`."""
    hi, lo = average_extrema([(0, payoffs.T)], payoffs.shape[1], window_start)
    return hi if mode == "limsup" else lo


def limsup_belief_payoff_mc(p: Pomdp, x1: np.ndarray, strat: Strategy, horizon: int,
                            samples: int, seed: int, mode: str = "limsup",
                            payoff_on: str = "state", window_start: int = None,
                            shards: int = 4) -> ValueReport:
    """Finite-horizon estimate of the expected limsup/liminf average payoff,
    with per-stage payoffs r(k_m, i_m) ("state") or g(x_m, i_m) ("belief")."""
    if horizon < 2:
        raise InvalidInputError("horizon must be >= 2")
    if mode not in ("limsup", "liminf"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if payoff_on not in ("state", "belief"):
        raise InvalidInputError(f"unknown payoff base {payoff_on!r}")

    def reduce(blocks):
        if payoff_on == "state":
            g = ((t0, p.reward[st, ac]) for t0, st, ac, _ in blocks)
        else:
            g = belief_payoff_blocks(p, x1, ((t0, ac, sg) for t0, _, ac, sg in blocks))
        return (average_extrema(g, horizon, window_start)[mode == "liminf"],)

    v, = reduce_sampled_plays(p, x1, strat, horizon, samples, seed, reduce, shards)
    value, se = sample_mean(v)
    return ValueReport(value=value, method="monte_carlo",
                       error_bound=3.0 * se, horizon_or_samples=samples)
