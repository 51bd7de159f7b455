"""Independent answers for the benchmark's output checks.

Nothing here imports `pomdp_evals`: every oracle recomputes its answer from
the raw tables (transition[k, i, l, s], reward[k, i], x1) by a different
method than the package uses.  Each check returns None when the output is
right and a one-line reason when it is not.

Monte Carlo checks use a 5-sigma band: the larger of 5/3 of the reported
3-sigma bound and 5 standard errors of the exact law (the reported bound is 0
when every sample agrees).  The benchmark runs on seeds it does not choose, and
a 3-sigma band would fail a correct program on 0.27% of seeds per check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Tables:
    trans: np.ndarray    # (K, I, K, S)
    reward: np.ndarray   # (K, I)
    x1: np.ndarray       # (K,)


def close(value, exact: float, tol: float, what: str) -> Optional[str]:
    if value is None or not abs(float(value) - exact) <= tol:
        return f"{what}: got {value!r}, expected {exact!r} within {tol:.3g}"
    return None


def mc_band(rec: dict, exact: float, sd: float, n: int, what: str) -> Optional[str]:
    """Monte Carlo estimate within the 5-sigma band around the exact answer."""
    tol = max(5.0 / 3.0 * float(rec["error_bound"]), 5.0 * sd / np.sqrt(n)) + 1e-12
    return close(rec["value"], exact, tol, what)


# ---------------------------------------------------------------------------
# Closed forms for the Monte Carlo jobs
# ---------------------------------------------------------------------------

def no_run_probability(l: int, n: int, p: float = 0.5) -> float:
    """P(no l consecutive successes in n Bernoulli(p) trials), by the
    run-length chain."""
    law = np.zeros(l)
    law[0] = 1.0
    for _ in range(n):
        nxt = np.zeros(l)
        nxt[0] = law.sum() * (1 - p)
        nxt[1:] = law[:-1] * p
        law = nxt
    return float(law.sum())


def run_block_payoff(rec: dict, l: int, horizon: int, n: int) -> Optional[str]:
    """Run-block weights on the redraw chain sit on payoff-1 stages, so the
    payoff is the probability that a run of l fits in stages 2..horizon."""
    q = no_run_probability(l, horizon - 1)
    return mc_band(rec, 1 - q, np.sqrt(q * (1 - q)), n, f"run-block payoff l={l}")


def run_block_irregularity(rec: dict, l: int, horizon: int, n: int) -> Optional[str]:
    """A found block has irregularity 2/l, a missing one 0."""
    q = no_run_probability(l, horizon - 1)
    return mc_band(rec, 2 / l * (1 - q), 2 / l * np.sqrt(q * (1 - q)), n,
                   f"run-block irregularity l={l}")


def lift_state_limsup(rec: dict, horizon: int, n: int) -> Optional[str]:
    """Lifted blind chain under the keep action: the high start earns 1 from
    stage 2 on, so its windowed limsup is (h-1)/h; the low start earns 0."""
    top = (horizon - 1) / horizon
    return mc_band(rec, 0.5 * top, 0.5 * top, n, "lifted state limsup")


def feasible_plays(t: Tables, states, actions, signals, n: int, horizon: int) -> Optional[str]:
    """Sampled plays have the requested shape and positive probability."""
    for name, a in (("states", states), ("actions", actions), ("signals", signals)):
        if np.shape(a) != (n, horizon):
            return f"{name} has shape {np.shape(a)}, expected {(n, horizon)}"
    k, n_i, _, n_s = t.trans.shape
    if actions.min() < 0 or actions.max() >= n_i or signals.min() < 0 or signals.max() >= n_s:
        return "action or signal index out of range"
    if np.any(t.x1[states[:, 0]] <= 0):
        return "play starts outside the initial support"
    step = t.trans[states[:, :-1], actions[:, :-1], states[:, 1:], signals[:, :-1]]
    last = t.trans[states[:, -1], actions[:, -1], :, signals[:, -1]].sum(axis=-1)
    if np.any(step <= 0) or np.any(last <= 0):
        return "play takes a zero-probability transition"
    return None


# ---------------------------------------------------------------------------
# Exact oracles on the random instance
# ---------------------------------------------------------------------------

def _prefix_levels(t: Tables, depth: int, action_prob=None):
    """Unnormalized beliefs after every observed (action, signal) prefix, level
    by level: level d has shape (I*S)**d x K, child index parent*I*S + i*S + s.
    With `action_prob` the strategy's probability is folded in."""
    k, n_i, _, n_s = t.trans.shape
    ops = np.stack([t.trans[:, i, :, s] * (1.0 if action_prob is None else action_prob[i])
                    for i in range(n_i) for s in range(n_s)])      # (I*S, K, K)
    levels = [t.x1[None, :].astype(float)]
    for _ in range(depth):
        levels.append(np.einsum("nk,jkl->njl", levels[-1], ops).reshape(-1, k))
    return levels


def belief_dp_value(t: Tables, n: int) -> float:
    """Normalized n-stage value by backward induction over the full tree of
    unnormalized beliefs (the value is positively homogeneous)."""
    k, n_i, _, n_s = t.trans.shape
    levels = _prefix_levels(t, n - 1)
    below = np.zeros(len(levels[-1]) * n_i * n_s)
    for d in range(n - 1, -1, -1):
        a = levels[d]
        cont = below.reshape(len(a), n_i, n_s).sum(axis=2)       # (N, I)
        below = (a @ t.reward + cont).max(axis=1)
    return float(below[0]) / n


def discounted_payoff_uniform(t: Tables, lam: float, horizon: int) -> float:
    """Truncated discounted payoff of the uniform strategy from forward state
    laws."""
    pi = np.full(t.reward.shape[1], 1.0 / t.reward.shape[1])
    step = np.einsum("i,kils->kl", pi, t.trans)
    stage = t.reward @ pi
    y, total = t.x1.astype(float), 0.0
    for m in range(horizon):
        total += lam * (1 - lam) ** m * float(y @ stage)
        y = y @ step
    return total


def conditional_table(t: Tables, table, l: int, horizon: int) -> Optional[str]:
    """Prefix masses and conditional state-block weights under the uniform
    strategy from a forward filter on (k_1, k_m)."""
    k, n_i, _, n_s = t.trans.shape
    expected = {}
    for m in range(1, horizon + 1):
        for pairs in itertools.product(itertools.product(range(n_i), range(n_s)), repeat=m - 1):
            joint = np.diag(t.x1.astype(float))               # (k_1, k_m)
            for i, s in pairs:
                joint = joint @ t.trans[:, i, :, s] / n_i
            mass = float(joint.sum())
            early = float(joint[0].sum()) / mass
            w = (early if m <= l else 0.0) + ((1 - early) if l < m <= 2 * l else 0.0)
            key = (m, tuple(i for i, _ in pairs), tuple(s for _, s in pairs))
            expected[key] = (mass, w / l)
    if set(table.mass) != set(expected):
        return f"table has {len(table.mass)} prefixes, expected {len(expected)}"
    for key, (mass, rho) in expected.items():
        if abs(table.mass[key] - mass) > 1e-12 or abs(table.rho[key] - rho) > 1e-12:
            return f"prefix {key}: got ({table.mass[key]}, {table.rho[key]}), " \
                   f"expected ({mass}, {rho})"
    return None


def transport_lp(a_atoms, a_mass, b_atoms, b_mass) -> float:
    """Optimal transport cost with L1 ground metric as a dense LP."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    na, nb = len(a_mass), len(b_mass)
    cost = np.abs(a_atoms[:, None, :] - b_atoms[None, :, :]).sum(axis=2).ravel()
    rows = sp.kron(sp.eye(na), np.ones((1, nb)))
    cols = sp.kron(np.ones((1, na)), sp.eye(nb))
    res = linprog(cost, A_eq=sp.vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([a_mass, b_mass]), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def occupation_transport(t: Tables, out, horizon: int) -> Optional[str]:
    """Occupation measure of the uniform strategy under n-stage weights, its
    induced stationary strategy (uniform everywhere) and the invariance
    residual, against a prefix enumeration and a transport LP."""
    occ, induced, residual = out
    k, n_i, _, n_s = t.trans.shape
    levels = _prefix_levels(t, horizon - 1, action_prob=np.full(n_i, 1.0 / n_i))
    alpha = np.concatenate(levels)
    mass = alpha.sum(axis=1)
    atoms = alpha / mass[:, None]
    mass = mass / horizon
    order = np.lexsort(np.round(atoms, 9).T[::-1])
    atoms, mass = atoms[order], mass[order]
    got = sorted(occ.measure.atoms, key=lambda a: tuple(np.round(a[0], 9)))
    if len(got) != len(mass):
        return f"occupation measure has {len(got)} atoms, expected {len(mass)}"
    got_x = np.array([x for x, _ in got])
    got_m = np.array([w for _, w in got])
    if np.abs(got_x - atoms).max() > 1e-9 or np.abs(got_m - mass).max() > 1e-12:
        return "occupation atoms or masses differ from the prefix enumeration"
    if abs(occ.total_weight - 1.0) > 1e-12:
        return f"occupation total weight {occ.total_weight}, expected 1"
    rows = np.array(induced.action_dists)
    if rows.shape != (len(mass), n_i) or np.abs(rows - 1.0 / n_i).max() > 1e-12:
        return "induced strategy of the uniform play is not uniform"
    image_x, image_m = [], []
    for x, w in zip(atoms, mass):
        for i in range(n_i):
            joint = np.einsum("k,kls->ls", x, t.trans[:, i])     # (K', S)
            for s in range(n_s):
                ps = float(joint[:, s].sum())
                image_x.append(joint[:, s] / ps)
                image_m.append(w * ps / n_i)
    lp = transport_lp(atoms, mass, np.array(image_x), np.array(image_m))
    return close(residual, lp, 1e-8, "invariance residual vs transport LP")


def _product_chain(t: Tables, act, update, initial: int):
    """Chain on (state, memory) pairs of a transducer, with payoff and initial law."""
    k, _, _, n_s = t.trans.shape
    mem = len(act)
    n = k * mem
    p = np.zeros((n, n))
    f = np.empty(n)
    for a, m in itertools.product(range(k), range(mem)):
        i = act[m]
        f[a * mem + m] = t.reward[a, i]
        for b, s in itertools.product(range(k), range(n_s)):
            p[a * mem + m, b * mem + update[m][i][s]] += t.trans[a, i, b, s]
    y0 = np.zeros(n)
    y0[np.arange(k) * mem + initial] = t.x1
    return p, f, y0


def transducer_sweep(t: Tables, transducers, values, expected: Optional[int]) -> Optional[str]:
    """Liminf values as Cesaro limits y0 (1/N sum_{t<N} P^t) f with N = 2^40,
    computed by doubling on an independently built chain per transducer."""
    if expected is not None and len(transducers) != expected:
        return f"{len(transducers)} transducers, expected {expected}"
    by_size: dict = {}
    for j, tr in enumerate(transducers):
        chain = _product_chain(t, [int(v) for v in tr.act], np.asarray(tr.update).tolist(),
                               int(tr.initial))
        by_size.setdefault(chain[0].shape[0], []).append((j, chain))
    for n, group in by_size.items():
        idx = [j for j, _ in group]
        power = np.stack([c[0] for _, c in group])
        avg = np.broadcast_to(np.eye(n), power.shape).copy()
        for _ in range(40):
            avg = 0.5 * (avg + avg @ power)
            power = power @ power
            # squaring amplifies row-sum rounding as (1+eps)^N; keep rows stochastic
            avg /= avg.sum(axis=2, keepdims=True)
            power /= power.sum(axis=2, keepdims=True)
        f = np.stack([c[1] for _, c in group])
        y0 = np.stack([c[2] for _, c in group])
        exact = np.einsum("tu,tuv,tv->t", y0, avg, f)
        got = np.asarray(values)[idx]
        bad = np.abs(got - exact) > 1e-8
        if bad.any():
            j = int(np.nonzero(bad)[0][0])
            return f"transducer {idx[j]}: liminf {got[j]}, Cesaro limit {exact[j]}"
    return None


def memory_chain(t: Tables, memory: dict, n_states: int, dec, threshold: int,
                 cap: int = 10_000) -> Optional[str]:
    """Closed classes from the transitive closure, stationary laws by
    residual, absorption by stepping the law, and the mixing threshold by
    re-running its definition on an independently built chain."""
    p, f, y0 = _product_chain(t, memory["act"], memory["update"], memory["initial"])
    n = p.shape[0]
    if n_states != n:
        return f"chain has {n_states} states, expected {n}"
    reach = ((p > 1e-12) | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range(int(np.ceil(np.log2(n))) + 1):
        reach = ((reach @ reach) > 0).astype(np.float32)
    r = reach > 0
    recurrent = ~np.any(r & ~r.T, axis=1)
    classes = {tuple(np.nonzero(r[u] & r[:, u])[0].tolist()) for u in np.nonzero(recurrent)[0]}
    got = {tuple(int(v) for v in c) for c in dec.classes}
    if got != classes:
        return f"{len(got)} closed classes, transitive closure gives {len(classes)}"
    if set(dec.transient) != set(np.nonzero(~recurrent)[0].tolist()):
        return "transient set differs from the transitive closure"
    y, steps = y0.copy(), 0
    trans_idx = np.nonzero(~recurrent)[0]
    while y[trans_idx].sum() > 1e-14 and steps < 100_000:
        y, steps = y @ p, steps + 1
    for idx, pi, gamma, absorb in zip(dec.classes, dec.stationary, dec.class_values,
                                      dec.absorption):
        idx = list(idx)
        pi = np.asarray(pi)
        if abs(pi.sum() - 1) > 1e-9 or pi.min() < -1e-12 \
                or np.abs(pi @ p[np.ix_(idx, idx)] - pi).max() > 1e-9:
            return f"class {idx[:3]}...: stationary vector fails pi P = pi"
        if abs(gamma - float(pi @ f[idx])) > 1e-9:
            return f"class {idx[:3]}...: class value differs from pi . f"
        if abs(absorb - float(y[idx].sum())) > 1e-9:
            return f"class {idx[:3]}...: absorption {absorb}, stepped law {y[idx].sum()}"

    def mixed(law) -> bool:
        if len(trans_idx) and law[trans_idx].sum() >= 0.01:
            return False
        for idx, gamma in zip(dec.classes, dec.class_values):
            idx = list(idx)
            mass = law[idx].sum()
            if mass > 1e-12 and abs(float(law[idx] @ f[idx]) / mass - gamma) > 0.01:
                return False
        return True

    law = y0.copy()
    for l in range(cap + 1):
        if mixed(law):
            return None if l == threshold else f"mixing threshold {threshold}, expected {l}"
        law = law @ p
    return None if threshold == cap else f"mixing threshold {threshold}, expected the cap {cap}"
