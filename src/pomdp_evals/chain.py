"""Finite Markov chains induced by a POMDP and a finite-memory strategy:
ergodic decomposition, stationary vectors, absorption probabilities, class
payoffs, mixing diagnostics, and exact long-run inferior values."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PomdpEvalError
from .model import Pomdp
from .playspace import _chain_tables, _check_play_inputs
from .strategies import Transducer

EDGE_THRESHOLD = 1e-12
TRANSIENT_MASS_TOL = 0.01
CLASS_AVG_TOL = 0.01
MIXING_CAP = 10_000


@dataclass(frozen=True)
class MarkovChain:
    """Row-stochastic chain with a per-state payoff and an initial law."""

    labels: tuple
    transition: np.ndarray   # (U, U)
    payoff: np.ndarray       # (U,)
    initial: np.ndarray      # (U,)

    def __post_init__(self):
        # copies: the tables are frozen below, and the caller's arrays stay theirs
        t = np.array(self.transition, dtype=float)
        f = np.array(self.payoff, dtype=float)
        y = np.array(self.initial, dtype=float)
        u = len(self.labels)
        if t.shape != (u, u) or f.shape != (u,) or y.shape != (u,):
            raise InvalidInputError("chain table shapes disagree with the state count")
        # NaN fails every comparison below, so it is caught here
        for name, arr in (("transition", t), ("payoff", f), ("initial law", y)):
            if not np.isfinite(arr).all():
                raise InvalidInputError(f"chain {name} has a non-finite entry")
        bad = np.abs(t.sum(axis=1) - 1.0) > 1e-9
        if bad.any():
            j = int(np.nonzero(bad)[0][0])
            raise InvalidInputError(
                f"chain row {self.labels[j]!r} sums to {t[j].sum():.12f}"
            )
        if (t < 0).any() or (f < 0).any() or (f > 1).any() or (y < 0).any():
            raise InvalidInputError("chain entries out of range")
        if abs(y.sum() - 1.0) > 1e-9:
            raise InvalidInputError("initial distribution does not sum to 1")
        for arr in (t, f, y):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "payoff", f)
        object.__setattr__(self, "initial", y)

    @property
    def n_states(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ErgodicDecomposition:
    transient: tuple               # indices of U_0
    classes: tuple                 # tuple of index tuples U_1..U_D
    stationary: tuple              # per-class probability vectors
    class_values: tuple            # per-class stationary average payoffs
    absorption: tuple              # absorption probability per class

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def product_chain(p: Pomdp, t: Transducer, x1: np.ndarray) -> MarkovChain:
    """Markov chain on state x memory pairs under a transducer, indexed by the
    sampler's combined index c = state * M + memory.

    The action and signal at each step are determined by (state, memory), so
    the chain on the full (state, memory, action, signal) space projects onto
    this quotient without losing the payoff process.
    """
    if not isinstance(t, Transducer):
        raise InvalidInputError(f"a product chain needs a finite-memory strategy "
                                f"(a transducer), not {type(t).__name__}")
    x1 = _check_play_inputs(p, x1, t)
    act, _, nxt, m, initial = _chain_tables(p, t, 0)
    n = p.n_states * m
    state, act = np.arange(n) // m, act[0]
    # bincount adds each cell's contributions in index order, as np.add.at does
    cell = (np.arange(n)[:, None] * n + nxt).ravel()
    trans = np.bincount(cell, weights=p.transition[state, act].ravel(),
                        minlength=n * n).reshape(n, n)
    init = np.zeros(n)
    init[np.arange(p.n_states) * m + initial] = x1
    labels = tuple((k, mm) for k in p.states for mm in range(m))
    return MarkovChain(labels, trans, p.reward[state, act], init)


def _stationary_vector(sub: np.ndarray, label) -> np.ndarray:
    """Solve pi P = pi, pi . 1 = 1 on a closed class by dense LU.  The
    system is built in place of `sub`, a copy the caller gives away."""
    n = sub.shape[0]
    sub.flat[::n + 1] -= 1.0
    a = sub.T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise PomdpEvalError(f"singular stationary system for class {label}") from exc
    return pi


def _strong_components(succ: list) -> tuple:
    """(component count, component label per node) of the digraph whose
    node v has the successors succ[v]: Tarjan's (1972) algorithm with an
    explicit stack of (node, successor iterator), so a long path needs no
    recursion."""
    n = len(succ)
    index = [-1] * n          # discovery order; -1 = not yet visited
    low = [0] * n
    on_stack = [False] * n
    comp = np.empty(n, dtype=np.int64)
    stack, n_comp, seen = [], 0, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = seen
        seen += 1
        stack.append(root)
        on_stack[root] = True
        path = [(root, iter(succ[root]))]
        while path:
            v, todo = path[-1]
            for w in todo:
                if index[w] < 0:
                    index[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    on_stack[w] = True
                    path.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                # every successor of v is done: v leaves the path
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return n_comp, comp


def ergodic_decomposition(c: MarkovChain) -> ErgodicDecomposition:
    """Closed strongly connected components, their stationary laws and
    average payoffs, and the absorption probabilities from the initial law."""
    t, n = c.transition, c.n_states
    rows, cols = np.nonzero(t)
    mass = t[rows, cols]
    edge = mass > EDGE_THRESHOLD
    ends = np.bincount(rows[edge], minlength=n).cumsum().tolist()
    succ = cols[edge].tolist()
    n_comp, comp = _strong_components([succ[a:b] for a, b in zip([0, *ends], ends)])
    # a component is recurrent iff it is closed: the mass leaving it, over
    # every positive cell (support or not), is at most EDGE_THRESHOLD
    leaving = comp[rows] != comp[cols]
    leak = np.bincount(comp[rows[leaving]], weights=mass[leaving], minlength=n_comp)
    is_closed = leak <= EDGE_THRESHOLD
    members = [[] for _ in range(n_comp)]
    for u, d in enumerate(comp.tolist()):
        members[d].append(u)
    closed = sorted(tuple(members[d]) for d in np.flatnonzero(is_closed).tolist())
    transient = tuple(np.flatnonzero(~is_closed[comp]).tolist())

    stationary, values = [], []
    for d, idx in enumerate(closed):
        ix = np.array(idx)
        pi = _stationary_vector(t[ix[:, None], ix], d)
        stationary.append(pi)
        values.append(float(pi @ c.payoff[ix]))

    # absorption: h_d(u) = P(absorbed in class d | start u), linear system on
    # the transient part; recurrent states hit their own class with prob 1
    absorption = []
    if transient:
        tr = np.array(transient)
        lhs = np.eye(len(tr)) - t[tr[:, None], tr]
    for idx in closed:
        ix = np.array(idx)
        h = np.zeros(n)
        h[ix] = 1.0
        if transient:
            try:
                h[tr] = np.linalg.solve(lhs, t[tr[:, None], ix].sum(axis=1))
            except np.linalg.LinAlgError as exc:
                raise PomdpEvalError(f"singular absorption system on the transient states "
                                     f"{[c.labels[j] for j in transient]}") from exc
        absorption.append(float(c.initial @ h))
    return ErgodicDecomposition(
        transient=transient,
        classes=tuple(closed),
        stationary=tuple(stationary),
        class_values=tuple(values),
        absorption=tuple(absorption),
    )


def mixing_threshold(c: MarkovChain, dec: ErgodicDecomposition = None) -> int:
    """Smallest l with transient mass < 0.01 and every reachable class's
    l-step conditional average payoff within 0.01 of its stationary value,
    capped at 10^4."""
    if dec is None:
        dec = ergodic_decomposition(c)
    tr = list(dec.transient)
    y = c.initial.copy()
    for l in range(MIXING_CAP + 1):
        ok = (y[tr].sum() < TRANSIENT_MASS_TOL) if tr else True
        if ok:
            for idx, gamma in zip(dec.classes, dec.class_values):
                mass = y[list(idx)].sum()
                if mass > EDGE_THRESHOLD:
                    avg = float(y[list(idx)] @ c.payoff[list(idx)]) / mass
                    if abs(avg - gamma) > CLASS_AVG_TOL:
                        ok = False
                        break
        if ok:
            return l
        y = y @ c.transition
    return MIXING_CAP


def liminf_value_transducer(p: Pomdp, x1: np.ndarray, t: Transducer) -> float:
    """Exact expected long-run inferior average payoff of a transducer: the
    running average converges to the entered class's stationary payoff, so
    the expectation is the absorption-weighted class payoff."""
    dec = ergodic_decomposition(product_chain(p, t, x1))
    return float(sum(a * g for a, g in zip(dec.absorption, dec.class_values)))
