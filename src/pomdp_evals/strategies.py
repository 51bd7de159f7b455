"""Strategies: behavior rules, finite-memory transducers, open-loop schedules
and stationary belief strategies, plus transducer enumeration.

Every strategy answers through one batched interface on observed histories,
the only way the package asks a strategy anything: `start(n)` returns the
memory of n empty histories, `dist(mem)` the (n, I) action laws after them,
and `step(mem, actions, signals)` the memory after each history is extended
by its observed pair.  A memory selects rows with `mem[rows]`.

The memory of a history strategy (`HistoryStrategy`: behavior rules and
random behavior) is a node of the observed-prefix tree per distinct history,
extended by one batched hook call per stage, so a stage costs work per
distinct history and never per stage played before."""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .model import (ObservedHistory, Pomdp, _check_dims, bayes_matrices, bayes_update_rows,
                    canonical_belief, make_belief)

STATIONARY_LOOKUP_TOL = 1e-9
_INT64, _PAIR = struct.Struct("=q"), struct.Struct("=qq")    # native int64 keys, as numpy's


def _is_law(d: np.ndarray, n_actions: int) -> bool:
    """Whether d is a distribution over n_actions actions: finite,
    non-negative entries summing to 1 within 1e-9."""
    return (d.shape == (n_actions,) and bool(np.all(np.isfinite(d)))
            and abs(d.sum() - 1.0) <= 1e-9 and not np.any(d < 0))


class Strategy:
    """Base interface: a batched automaton on observed histories.  The default
    memory is the length of the history, all that a strategy blind to the
    observed pairs needs."""

    n_actions: int

    def start(self, n: int):
        return np.zeros(n, dtype=np.intp)

    def step(self, mem, actions: np.ndarray, signals: np.ndarray):
        return mem + 1

    def dist(self, mem) -> np.ndarray:
        raise NotImplementedError

    def action_distribution(self, h: ObservedHistory) -> np.ndarray:
        """The action law after one observed history.  A pair whose action
        lies outside [0, n_actions), or whose signal is negative or, where
        the strategy knows S (its `n_signals`), at least S, raises
        InvalidInputError."""
        n_s = getattr(self, "n_signals", None)
        for a, s in h.pairs:
            ints = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (a, s))
            if not (ints and 0 <= a < self.n_actions and s >= 0 and (n_s is None or s < n_s)):
                signals = "non-negative" if n_s is None else f"in [0, {n_s})"
                raise InvalidInputError(
                    f"the observed pair (action {a!r}, signal {s!r}) is out of range: actions "
                    f"are integers in [0, {self.n_actions}), signals integers {signals}")
        mem = self.start(1)
        for a, s in h.pairs:
            mem = self.step(mem, np.array([a]), np.array([s]))
        return self.dist(mem)[0]


@dataclass
class HistoryIds:
    """Memory of a history strategy: ids[j] numbers the distinct observed
    history of row j, and nodes[ids[j]] is that history's node in the
    observed-prefix tree, as the strategy's `root` and `extend` build it.
    Every node is some row's history.  `laws` holds the nodes' (n_nodes, I)
    action laws once a `dist` has read them, and rows selected by
    `mem[rows]` keep theirs."""

    ids: np.ndarray
    nodes: list
    laws: np.ndarray | None = None

    def __getitem__(self, rows) -> "HistoryIds":
        used, ids = np.unique(self.ids[rows], return_inverse=True)
        return HistoryIds(ids, [self.nodes[u] for u in used.tolist()],
                          None if self.laws is None else self.laws[used])


class HistoryStrategy(Strategy):
    """A strategy given by one law per observed history.  The distinct
    histories are renumbered each stage by `np.unique` of (parent id, action,
    signal), and the new histories' nodes come from one `extend` call on
    their parents' nodes, so a stage costs work per distinct history, never
    per stage played before.  `laws` runs once per node, at the first `dist`
    that reads it."""

    def root(self):
        """The node of the empty history."""
        raise NotImplementedError

    def extend(self, nodes: list, actions: np.ndarray, signals: np.ndarray) -> list:
        """The nodes of the histories nodes[j] followed by the pair
        (actions[j], signals[j])."""
        raise NotImplementedError

    def laws(self, nodes: list) -> np.ndarray:
        """(len(nodes), I) action laws after the nodes' histories."""
        raise NotImplementedError

    def start(self, n: int) -> HistoryIds:
        return HistoryIds(np.zeros(n, dtype=np.intp), [self.root()] if n else [])

    def dist(self, mem: HistoryIds) -> np.ndarray:
        if mem.laws is None:
            mem.laws = self.laws(mem.nodes)
        return mem.laws[mem.ids]

    def step(self, mem: HistoryIds, actions, signals) -> HistoryIds:
        if len(mem.nodes) == len(mem.ids):
            # every row its own history: np.unique would keep each row's id
            rows = np.empty_like(mem.ids)
            rows[mem.ids] = np.arange(len(rows))
            return HistoryIds(mem.ids, self.extend(mem.nodes, actions[rows], signals[rows]))
        n_s = int(signals.max(initial=0)) + 1
        uniq, ids = np.unique((mem.ids * self.n_actions + actions) * n_s + signals,
                              return_inverse=True)
        parent, pair = np.divmod(uniq, self.n_actions * n_s)
        return HistoryIds(ids, self.extend([mem.nodes[q] for q in parent.tolist()],
                                           pair // n_s, pair % n_s))


@dataclass
class BehaviorStrategy(HistoryStrategy):
    """Wraps an arbitrary rule ObservedHistory -> distribution over actions.
    The node of a history is its `ObservedHistory`."""

    n_actions: int
    rule: Callable[[ObservedHistory], np.ndarray]

    def root(self) -> ObservedHistory:
        return ObservedHistory()

    def extend(self, nodes, actions, signals) -> list:
        return [ObservedHistory(h.actions + (a,), h.signals + (s,))
                for h, a, s in zip(nodes, actions.tolist(), signals.tolist())]

    def laws(self, nodes) -> np.ndarray:
        out = np.empty((len(nodes), self.n_actions))
        for j, h in enumerate(nodes):
            dist = np.asarray(self.rule(h), dtype=float)
            if not _is_law(dist, self.n_actions):
                raise InvalidInputError(f"behavior rule returned an invalid action "
                                        f"distribution {dist} after the history {h}")
            out[j] = dist
        return out


@dataclass
class RandomBehaviorStrategy(HistoryStrategy):
    """Deterministic pseudo-random behavior rule: each observed history gets a
    fixed randomized action distribution, one 8-byte blake2b digest word per
    action (so at most 8 actions), plus one, normalised.  The digest is of
    the int64 key (seed, a_1, s_1, a_2, s_2, ...); the node of a history is
    the blake2b state after its key, so a child is its parent's state copied
    and fed 16 bytes."""

    n_actions: int
    seed: int

    def __post_init__(self):
        self.n_actions = json_integer(self.n_actions, "random behavior action count")
        if not 1 <= self.n_actions <= 8:
            raise InvalidInputError(
                f"random behavior strategies take 1 to 8 actions, got {self.n_actions}")
        seed = json_integer(self.seed, "random behavior seed")
        if not -2 ** 63 <= seed < 2 ** 63:
            raise InvalidInputError(f"random behavior seed {seed} is outside the int64 range")
        self.seed = seed

    def root(self):
        return hashlib.blake2b(_INT64.pack(self.seed), digest_size=8 * self.n_actions)

    def extend(self, nodes, actions, signals) -> list:
        out = []
        for node, a, s in zip(nodes, actions.tolist(), signals.tolist()):
            child = node.copy()
            child.update(_PAIR.pack(a, s))
            out.append(child)
        return out

    def laws(self, nodes) -> np.ndarray:
        digests = b"".join([node.digest() for node in nodes])
        raw = np.frombuffer(digests, dtype=np.uint64).reshape(len(nodes), self.n_actions)
        raw = raw.astype(float) + 1.0
        return raw / raw.sum(axis=1, keepdims=True)


@dataclass
class UniformStrategy(Strategy):
    """Uniform play after every history."""

    n_actions: int

    def __post_init__(self):
        self.n_actions = json_integer(self.n_actions, "uniform play's action count")
        if self.n_actions < 1:
            raise InvalidInputError(f"uniform play needs at least one action, got {self.n_actions}")

    def dist(self, mem) -> np.ndarray:
        return np.full((len(mem), self.n_actions), 1.0 / self.n_actions)


def uniform_strategy(n_actions: int) -> UniformStrategy:
    return UniformStrategy(n_actions)


@dataclass
class ScheduleStrategy(Strategy):
    """Open-loop pure strategy: the action depends only on the stage number.
    `dist` reads the actions of `stage_actions` up to the latest stage in the
    batch."""

    n_actions: int
    action_at_stage: Callable[[int], int]

    def stage_actions(self, n: int) -> np.ndarray:
        """The actions at stages 1..n, as ints; raises when one is out of range."""
        plan = self._plan(n)
        if np.any((plan < 0) | (plan >= self.n_actions)):
            raise InvalidInputError("schedule action out of range")
        return plan

    def _plan(self, n: int) -> np.ndarray:
        return np.array([self.action_at_stage(t) for t in range(1, n + 1)], dtype=np.intp)

    def dist(self, mem) -> np.ndarray:
        return np.eye(self.n_actions)[self.stage_actions(int(np.max(mem, initial=0)) + 1)[mem]]


class _TabledSchedule(ScheduleStrategy):
    """A schedule whose stage table has a closed form: `plan(n)`, which
    stands in for `_plan`, gives in numpy the ints that `action_at_stage`
    gives at stages 1..n one call each."""

    def __init__(self, n_actions: int, action_at_stage: Callable[[int], int], plan):
        super().__init__(n_actions, action_at_stage)
        self._plan = plan


@dataclass
class Transducer(Strategy):
    """Finite-memory pure strategy (memory set M, initial state, action map,
    update map on memory x action x signal).  The memory of a history is the
    transducer's memory state."""

    n_actions: int
    n_signals: int
    act: np.ndarray        # (M,) action index per memory state
    update: np.ndarray     # (M, I, S) next memory state
    initial: int = 0

    def __post_init__(self):
        n_actions = json_integer(self.n_actions, "transducer action count")
        n_signals = json_integer(self.n_signals, "transducer signal count")
        initial = json_integer(self.initial, "transducer initial memory")
        act, upd = _integer_table(self.act, "action map"), _integer_table(self.update, "update map")
        m = len(act) if act.ndim == 1 else -1
        if m < 0 or upd.shape != (m, n_actions, n_signals):
            raise InvalidInputError(f"transducer tables have shapes {act.shape} and {upd.shape}; "
                                    f"they need (M,) and (M, {n_actions}, {n_signals})")
        # negative entries read as huge unsigned ones: one reduction per table
        if not act.view(np.uint64).max(initial=0) < n_actions:
            raise InvalidInputError("transducer action map out of range")
        if not upd.view(np.uint64).max(initial=0) < m:
            raise InvalidInputError("transducer update map out of range")
        if not 0 <= initial < m:
            raise InvalidInputError(
                f"transducer initial memory {initial} out of range [0, {m})")
        self.n_actions, self.n_signals, self.initial = n_actions, n_signals, initial
        self.act, self.update = act, upd

    @property
    def n_memory(self) -> int:
        return len(self.act)

    def start(self, n: int) -> np.ndarray:
        return np.full(n, self.initial, dtype=np.int64)

    def dist(self, mem) -> np.ndarray:
        return np.eye(self.n_actions)[self.act[mem]]

    def step(self, mem, actions, signals) -> np.ndarray:
        return self.update[mem, actions, signals]

    def canonical_form(self) -> tuple:
        """Breadth-first relabeling of the memory states reachable along the
        transducer's own run (only the played action's update entries matter)."""
        played = self.update[np.arange(self.n_memory), self.act]      # (M, S)
        return _canonical_key(self.act.tolist(), played.ravel().tolist(), self.n_signals,
                             self.initial)


def _canonical_key(acts, moves, n_signals: int, initial: int = 0) -> tuple:
    """(reachable count, actions, moves) of a transducer relabeled by the
    breadth-first order of its run from `initial`; acts[m] is memory m's
    action and moves[m * n_signals + s] its next memory after signal s."""
    seen = {initial: 0}
    order = [initial]
    for m in order:                     # order grows as new memories are met
        for nxt in moves[m * n_signals:(m + 1) * n_signals]:
            if nxt not in seen:
                seen[nxt] = len(order)
                order.append(nxt)
    return (len(order), tuple(acts[m] for m in order),
            tuple(seen[nxt] for m in order for nxt in moves[m * n_signals:(m + 1) * n_signals]))


def _integer_table(value, what: str) -> np.ndarray:
    """value as an int64 array; a table whose entries are not integers
    (floats, bools, strings) is rejected with InvalidInputError, never
    truncated."""
    table = np.asarray(value)
    if table.dtype.kind not in "iu":
        raise InvalidInputError(f"transducer {what} has non-integer entries "
                                f"(dtype {table.dtype})")
    return table.astype(np.int64, copy=False)


@dataclass
class StationaryStrategy(Strategy):
    """Belief-stationary strategy on a finite support, with nearest-support
    lookup (L1 tolerance 1e-9) to absorb float drift.  It acts on beliefs,
    not on observed histories: wrap it with `belief_tracking_strategy`.
    The support holds at least one belief, each valid for `make_belief`, all
    of one length."""

    n_actions: int
    support: list           # list of belief vectors
    action_dists: list      # matching list of distributions over actions

    def __post_init__(self):
        if len(self.support) != len(self.action_dists):
            raise InvalidInputError("support and action tables differ in length")
        if len(self.support) == 0:
            raise InvalidInputError("a stationary strategy needs at least one support belief")
        sup = [canonical_belief(make_belief(x)) for x in self.support]
        if len({len(x) for x in sup}) > 1:
            raise InvalidInputError("stationary strategy support beliefs differ in length")
        dists = []
        for j, d in enumerate(self.action_dists):
            d = np.asarray(d, dtype=float)
            if not _is_law(d, self.n_actions):
                raise InvalidInputError(f"stationary strategy action row {j} is not a "
                                        f"finite distribution over {self.n_actions} actions")
            dists.append(d)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "action_dists", dists)

    def at_beliefs(self, xs: np.ndarray) -> np.ndarray:
        """(n, I) action rows at the support points nearest to the (n, K)
        beliefs xs; raises when one lies farther than the tolerance."""
        xs = canonical_belief(xs)
        dists = np.abs(xs[:, None, :] - np.array(self.support)[None]).sum(axis=2)
        j = dists.argmin(axis=1)
        worst = float(dists[np.arange(len(xs)), j].max(initial=0.0))
        if worst > STATIONARY_LOOKUP_TOL:
            raise InvalidInputError(f"belief is {worst:.3e} (L1) away from the strategy support")
        return np.array(self.action_dists)[j]

    def dist(self, mem):
        raise InvalidInputError(
            "stationary strategies act on beliefs; wrap with belief_tracking_strategy"
        )

    def check_pomdp(self, p: Pomdp) -> None:
        """Raise InvalidInputError unless the strategy plays p's actions at
        beliefs over p's states."""
        if self.n_actions != p.n_actions:
            raise InvalidInputError(f"the stationary strategy plays {self.n_actions} actions, "
                                    f"the POMDP has {p.n_actions}")
        if len(self.support[0]) != p.n_states:
            raise InvalidInputError(f"the stationary strategy's support beliefs have "
                                    f"{len(self.support[0])} entries, they need "
                                    f"{p.n_states} entries, one per state")


class BeliefTrackingStrategy(Strategy):
    """A stationary belief strategy played along the Bayes filter: the memory
    of a history is its belief, one row of an (n, K) array."""

    def __init__(self, p: Pomdp, x1: np.ndarray, stationary: StationaryStrategy):
        stationary.check_pomdp(p)
        self.n_actions, self.n_signals = stationary.n_actions, p.n_signals
        self.x1, self.stationary = make_belief(_check_dims(p, x1)), stationary
        self.bayes = bayes_matrices(p)

    def start(self, n: int) -> np.ndarray:
        return np.tile(self.x1, (n, 1))

    def dist(self, mem) -> np.ndarray:
        return self.stationary.at_beliefs(mem)

    def step(self, mem, actions, signals) -> np.ndarray:
        return bayes_update_rows(self.bayes, mem, actions * self.n_signals + signals)[0]


def belief_tracking_strategy(p: Pomdp, x1: np.ndarray,
                             stat: StationaryStrategy) -> BeliefTrackingStrategy:
    """Turn a stationary belief strategy into a behavior strategy that tracks
    the belief by Bayes updates along the observed history."""
    return BeliefTrackingStrategy(p, x1, stat)


# ---------------------------------------------------------------------------
# Hand-built strategies
# ---------------------------------------------------------------------------

def doubling_strategy(n_actions: int = 2, hold_action: int = 0, switch_action: int = 1) -> ScheduleStrategy:
    """Hold for blocks of length 2^(n^2), n = 1, 2, ..., with a single switch
    action after each block.  Infinite memory; deterministic."""
    # switch stages sit at cumulative positions sum_{j<=n} (2^(j*j) + 1)
    switch_stages = set()
    frontier = [0, 0]  # [last boundary, block index]

    def action_at_stage(stage: int) -> int:
        while frontier[0] < stage:
            frontier[1] += 1
            frontier[0] += 2 ** (frontier[1] * frontier[1]) + 1
            switch_stages.add(frontier[0])
        return switch_action if stage in switch_stages else hold_action

    def plan(n: int) -> np.ndarray:
        out = np.full(n, hold_action, dtype=np.intp)
        switch, j = 0, 1
        while switch + 2 ** (j * j) + 1 <= n:
            switch += 2 ** (j * j) + 1
            out[switch - 1] = switch_action
            j += 1
        return out

    return _TabledSchedule(n_actions, action_at_stage, plan)


def block_switch_strategy(n_actions: int, first_action: int, second_action: int,
                          switch_after: int) -> ScheduleStrategy:
    """Play one action for `switch_after` stages, then the other forever."""

    def action_at_stage(stage: int) -> int:
        return first_action if stage <= switch_after else second_action

    def plan(n: int) -> np.ndarray:
        return np.where(np.arange(1, n + 1) <= switch_after, first_action,
                        second_action).astype(np.intp)

    return _TabledSchedule(n_actions, action_at_stage, plan)


def always_strategy(n_actions: int, n_signals: int, action: int) -> Transducer:
    return Transducer(
        n_actions=n_actions,
        n_signals=n_signals,
        act=np.array([action]),
        update=np.zeros((1, n_actions, n_signals), dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_transducers(p: Pomdp, max_memory: int, cap: int = 1_000_000) -> list:
    """One transducer per canonical form (BFS relabeling of the reachable
    part along the run) with at most `max_memory` memory states, each given
    by its own canonical tables, in the order of memory size, action map and
    move table, each in `itertools.product` order.

    A move table lists memory j's next memory after signal s at j * S + s.
    It is its own BFS relabeling exactly when each entry names a memory
    already met or else the next new one, memory 0 being met at the start,
    and each memory j >= 1 is met before its own row starts.  So each size
    keeps these rows of its move grid and pairs every action map with each;
    this is the string representation of initially connected automata of
    Almeida, Moreira & Reis (TCS 387, 2007), labelled with actions.

    Only update entries for the played action are enumerated; entries for
    foreign actions are filled with the played action's moves, since the run
    never consults them.  The cap counts every candidate table,
    sum over m of I^m m^(m S).
    """
    max_memory = json_integer(max_memory, "max_memory")
    cap = json_integer(cap, "the enumeration cap")
    if max_memory < 1:
        raise InvalidInputError("max_memory must be >= 1")
    n_i, n_s = p.n_actions, p.n_signals
    total = sum(n_i ** m * m ** (m * n_s) for m in range(1, max_memory + 1))
    if total > cap:
        raise BudgetExceededError(f"transducer enumeration would generate {total} "
                                  f"candidates (cap {cap})")
    out = []
    for m in range(1, max_memory + 1):
        moves = _product_grid(m, m * n_s)
        # the largest memory met so far rises by at most one per entry, and
        # passes j before memory j's row starts
        met = np.maximum.accumulate(moves, axis=1)
        keep = ((np.diff(met, axis=1, prepend=0) <= 1).all(axis=1)
                & (met[:, n_s - 1:-1:n_s] >= np.arange(1, m)).all(axis=1))
        updates = np.repeat(moves[keep].reshape(-1, m, 1, n_s), n_i, axis=2)
        out.extend(Transducer(n_actions=n_i, n_signals=n_s, act=act, update=update)
                   for act in _product_grid(n_i, m) for update in updates)
    return out


def _product_grid(base: int, width: int) -> np.ndarray:
    """(base ** width, width) int64 rows of `itertools.product(range(base),
    repeat=width)`, in its order."""
    return np.indices((base,) * width).reshape(width, -1).T.astype(np.int64)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def transducer_to_dict(t: Transducer) -> dict:
    return {
        "type": "transducer",
        "n_actions": t.n_actions,
        "n_signals": t.n_signals,
        "initial": int(t.initial),
        "act": [int(a) for a in t.act],
        "update": t.update.tolist(),
    }


def transducer_from_dict(doc: dict) -> Transducer:
    """Transducer from its JSON form.  `n_actions`, `n_signals` and `initial`
    (default 0) must be integers, `act` a list and `update` a nested list of
    integers; anything else is rejected with InvalidInputError naming the
    field, never truncated."""
    n_actions, n_signals, initial = (_json_integers(doc, name, scalar=True)
                                     for name in ("n_actions", "n_signals", "initial"))
    act, update = (_json_integers(doc, name, scalar=False) for name in ("act", "update"))
    if act.ndim != 1:
        raise InvalidInputError("transducer field 'act' must be a flat list of integers")
    return Transducer(n_actions, n_signals, act, update, initial=initial)


def _json_integers(doc: dict, name: str, scalar: bool):
    """doc[name] as an int (`scalar`) or an int64 array from a rectangular
    nested list; bools and integral floats count as non-integers."""
    if name not in doc and name != "initial":
        raise InvalidInputError(f"transducer field {name!r} is missing")
    value = doc.get(name, 0)
    if scalar == isinstance(value, list):
        raise InvalidInputError(f"transducer field {name!r} must be "
                                f"{'an integer' if scalar else 'a list of integers'}")
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        else:
            json_integer(v, f"transducer field {name!r}")
    if scalar:
        return int(value)
    try:
        return np.asarray(value, dtype=np.int64)
    except ValueError as exc:
        raise InvalidInputError(f"transducer field {name!r} is not a rectangular "
                                f"table ({exc})") from None


def json_integer(v, what: str) -> int:
    """v as an int.  A bool, a float (integral or not) or a string is
    rejected with InvalidInputError naming `what`, never truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise InvalidInputError(f"{what} has a non-integer entry {v!r}")
    return int(v)
