"""Finite Markov chains induced by a POMDP and a finite-memory strategy:
ergodic decomposition, stationary vectors, absorption probabilities, class
payoffs, mixing diagnostics, and exact long-run inferior values."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PomdpEvalError
from .model import ROW_SUM_TOL, Pomdp
from .playspace import _check_play_inputs, _product_moves
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
        # payoffs within ROW_SUM_TOL of [0, 1], as `Pomdp` accepts rewards
        if (t < 0).any() or (f < -ROW_SUM_TOL).any() or (f > 1 + ROW_SUM_TOL).any() \
                or (y < 0).any():
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
    trans, payoff, init = _product_tables(p, t, x1)
    labels = tuple((k, mm) for k in p.states for mm in range(t.n_memory))
    return MarkovChain(labels, trans, payoff, init)


def _product_tables(p: Pomdp, t: Transducer, x1: np.ndarray) -> tuple:
    """(transition, payoff, initial law) of `product_chain`, once the
    transducer is checked to fit p and x1 to be a belief over its states."""
    if not isinstance(t, Transducer):
        raise InvalidInputError(f"a product chain needs a finite-memory strategy "
                                f"(a transducer), not {type(t).__name__}")
    x1 = _check_play_inputs(p, x1, t)
    k, m = p.n_states, t.n_memory
    n = k * m
    _, row, nxt, start = _product_moves(p, t)
    # cell (u, l, s) moves row u to the pair nxt[u, l, s]; bincount adds each
    # cell's contributions in index order, as np.add.at does
    trans = np.bincount((start + nxt).ravel(), minlength=n * n,
                        weights=p.transition.reshape(-1, k * p.n_signals).take(row, axis=0).ravel())
    init = np.zeros(n)
    init[t.initial::m] = x1
    return trans.reshape(n, n), p.reward.take(row), init


def _stationary_vector(a: np.ndarray, label) -> np.ndarray:
    """Solve pi P = pi, pi . 1 = 1 on a closed class by dense LU.  `a` is the
    transpose of the class's block of P, a copy the caller gives away, and
    the system is built in its place."""
    n = a.shape[0]
    a.ravel()[::n + 1] -= 1.0
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
    recursion.  A node leaves the stack with its component and its
    discovery number set to n, above every low link, so no successor test
    reads an on-stack flag."""
    n = len(succ)
    index = [-1] * n          # discovery order; -1 = not yet visited, n = done
    low = [0] * n
    comp = np.empty(n, dtype=np.int64)
    stack, n_comp, seen = [], 0, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = seen
        seen += 1
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, todo = path[-1]
            for w in todo:
                iw = index[w]
                if iw < 0:
                    index[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if iw < low[v]:
                    low[v] = iw
            else:
                # every successor of v is done: v leaves the path
                path.pop()
                lv = low[v]
                if path and lv < low[path[-1][0]]:
                    low[path[-1][0]] = lv
                if lv == index[v]:
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return n_comp, comp


def ergodic_decomposition(c: MarkovChain) -> ErgodicDecomposition:
    """Closed strongly connected components, their stationary laws and
    average payoffs, and the absorption probabilities from the initial law."""
    return ErgodicDecomposition(*_decompose(c.transition, c.payoff, c.initial,
                                            c.labels.__getitem__))


def _decompose(trans: np.ndarray, payoff: np.ndarray, initial: np.ndarray, label) -> tuple:
    """(transient, classes, stationary, class values, absorption) of the
    chain with these tables, as `ErgodicDecomposition` holds them; `label(u)`
    names state u in errors.  The bookkeeping reads the nonzero cells from
    one `np.nonzero` and walks them as Python lists, in row-major order."""
    n = len(payoff)
    rows, cols = np.nonzero(trans)
    mass = trans[rows, cols].tolist()
    rows, cols = rows.tolist(), cols.tolist()
    succ, threshold = [[] for _ in range(n)], EDGE_THRESHOLD
    for u, v, w in zip(rows, cols, mass):
        if w > threshold:
            succ[u].append(v)
    n_comp, comp = _strong_components(succ)
    if n_comp == 1:                     # a lone component leaks nothing
        closed, transient = [tuple(range(n))], ()
    else:
        # a component is recurrent iff it is closed: the mass leaving it,
        # over every positive cell (support or not) added in row-major
        # order, is at most EDGE_THRESHOLD
        comp, leak = comp.tolist(), [0.0] * n_comp
        for u, v, w in zip(rows, cols, mass):
            if comp[u] != comp[v]:
                leak[comp[u]] += w
        members = [[] for _ in range(n_comp)]
        for u, d in enumerate(comp):
            members[d].append(u)
        closed = sorted(tuple(members[d]) for d in range(n_comp) if leak[d] <= threshold)
        transient = tuple(u for u, d in enumerate(comp) if leak[d] > threshold)

    index, stationary, values = [np.array(idx) for idx in closed], [], []
    for d, ix in enumerate(index):
        pi = _stationary_vector(trans[ix, ix[:, None]], d)
        stationary.append(pi)
        values.append(float(pi @ payoff.take(ix)))

    # absorption: h_d(u) = P(absorbed in class d | start u), linear system on
    # the transient part; recurrent states hit their own class with prob 1
    absorption = []
    if transient:
        tr = np.array(transient)
        lhs = np.eye(len(tr)) - trans[tr[:, None], tr]
    for ix in index:
        h = np.zeros(n)
        h[ix] = 1.0
        if transient:
            try:
                h[tr] = np.linalg.solve(lhs, trans[tr[:, None], ix].sum(axis=1))
            except np.linalg.LinAlgError as exc:
                raise PomdpEvalError(f"singular absorption system on the transient states "
                                     f"{[label(u) for u in transient]}") from exc
        absorption.append(float(initial @ h))
    return transient, tuple(closed), tuple(stationary), tuple(values), tuple(absorption)


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
    the expectation is the absorption-weighted class payoff.  The product
    chain's tables are decomposed as they are built, with no `MarkovChain`
    or `ErgodicDecomposition` around them."""
    *_, values, absorption = _decompose(
        *_product_tables(p, t, x1), lambda u: (p.states[u // t.n_memory], u % t.n_memory))
    return float(sum(a * g for a, g in zip(absorption, values)))
