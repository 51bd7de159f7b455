"""Strategies: behavior rules, finite-memory transducers, open-loop schedules
and stationary belief strategies, plus transducer enumeration."""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .model import ObservedHistory, Pomdp, canonical_belief

STATIONARY_LOOKUP_TOL = 1e-9


class Strategy:
    """Base interface: a distribution over actions after each observed history."""

    n_actions: int

    def action_distribution(self, h: ObservedHistory) -> np.ndarray:
        raise NotImplementedError


def _dirac(n: int, i: int) -> np.ndarray:
    out = np.zeros(n)
    out[i] = 1.0
    return out


@dataclass
class BehaviorStrategy(Strategy):
    """Wraps an arbitrary rule ObservedHistory -> distribution over actions."""

    n_actions: int
    rule: Callable[[ObservedHistory], np.ndarray]

    def action_distribution(self, h: ObservedHistory) -> np.ndarray:
        dist = np.asarray(self.rule(h), dtype=float)
        if dist.shape != (self.n_actions,) or abs(dist.sum() - 1.0) > 1e-9 or np.any(dist < 0):
            raise InvalidInputError("behavior rule returned an invalid action distribution")
        return dist


def uniform_strategy(n_actions: int) -> BehaviorStrategy:
    dist = np.full(n_actions, 1.0 / n_actions)
    return BehaviorStrategy(n_actions, lambda h: dist)


@dataclass
class ScheduleStrategy(Strategy):
    """Open-loop pure strategy: the action depends only on the stage number."""

    n_actions: int
    action_at_stage: Callable[[int], int]

    def action_distribution(self, h: ObservedHistory) -> np.ndarray:
        return _dirac(self.n_actions, self.action_at_stage(len(h) + 1))


@dataclass
class RandomBehaviorStrategy(Strategy):
    """Deterministic pseudo-random behavior rule: each observed history gets a
    fixed randomized action distribution derived from a seed."""

    n_actions: int
    seed: int

    def action_distribution(self, h: ObservedHistory) -> np.ndarray:
        key = (self.seed,) + h.actions + (-1,) + h.signals
        digest = hashlib.blake2b(
            np.asarray(key, dtype=np.int64).tobytes(), digest_size=8 * self.n_actions
        ).digest()
        raw = np.frombuffer(digest, dtype=np.uint64).astype(float) + 1.0
        return raw / raw.sum()


@dataclass
class Transducer(Strategy):
    """Finite-memory pure strategy (memory set M, initial state, action map,
    update map on memory x action x signal)."""

    n_actions: int
    n_signals: int
    act: np.ndarray        # (M,) action index per memory state
    update: np.ndarray     # (M, I, S) next memory state
    initial: int = 0

    def __post_init__(self):
        act = np.asarray(self.act, dtype=np.int64)
        upd = np.asarray(self.update, dtype=np.int64)
        m = act.shape[0]
        if upd.shape != (m, self.n_actions, self.n_signals):
            raise InvalidInputError("transducer update table has wrong shape")
        if np.any(act < 0) or np.any(act >= self.n_actions):
            raise InvalidInputError("transducer action map out of range")
        if np.any(upd < 0) or np.any(upd >= m):
            raise InvalidInputError("transducer update map out of range")
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "update", upd)

    @property
    def n_memory(self) -> int:
        return len(self.act)

    def memory_after(self, h: ObservedHistory) -> int:
        m = self.initial
        for a, s in zip(h.actions, h.signals):
            m = int(self.update[m, a, s])
        return m

    def action_distribution(self, h: ObservedHistory) -> np.ndarray:
        return _dirac(self.n_actions, int(self.act[self.memory_after(h)]))

    def canonical_form(self) -> tuple:
        """Breadth-first relabeling of the memory states reachable along the
        transducer's own run (only the played action's update entries matter)."""
        order = [self.initial]
        seen = {self.initial: 0}
        pos = 0
        while pos < len(order):
            m = order[pos]
            pos += 1
            for s in range(self.n_signals):
                nxt = int(self.update[m, int(self.act[m]), s])
                if nxt not in seen:
                    seen[nxt] = len(order)
                    order.append(nxt)
        acts = tuple(int(self.act[m]) for m in order)
        moves = tuple(
            seen[int(self.update[m, int(self.act[m]), s])]
            for m in order
            for s in range(self.n_signals)
        )
        return (len(order), acts, moves)


@dataclass
class StationaryStrategy(Strategy):
    """Belief-stationary strategy on a finite support, with nearest-support
    lookup (L1 tolerance 1e-9) to absorb float drift."""

    n_actions: int
    support: list           # list of belief vectors
    action_dists: list      # matching list of distributions over actions

    def __post_init__(self):
        if len(self.support) != len(self.action_dists):
            raise InvalidInputError("support and action tables differ in length")
        sup = [canonical_belief(x) for x in self.support]
        dists = []
        for d in self.action_dists:
            d = np.asarray(d, dtype=float)
            if d.shape != (self.n_actions,) or abs(d.sum() - 1.0) > 1e-9 or np.any(d < 0):
                raise InvalidInputError("stationary strategy has an invalid action row")
            dists.append(d)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "action_dists", dists)

    def at_belief(self, x: np.ndarray) -> np.ndarray:
        x = canonical_belief(x)
        dists = np.array([np.abs(x - y).sum() for y in self.support])
        j = int(dists.argmin())
        if dists[j] > STATIONARY_LOOKUP_TOL:
            raise InvalidInputError(
                f"belief is {dists[j]:.3e} (L1) away from the strategy support"
            )
        return self.action_dists[j]

    def action_distribution(self, h: ObservedHistory) -> np.ndarray:
        raise InvalidInputError(
            "stationary strategies act on beliefs; wrap with belief_tracking_strategy"
        )


def belief_tracking_strategy(p: Pomdp, x1: np.ndarray, stat: StationaryStrategy) -> BehaviorStrategy:
    """Turn a stationary belief strategy into a behavior strategy by replaying
    the Bayes updates along the observed history."""
    from .model import bayes_update

    def rule(h: ObservedHistory) -> np.ndarray:
        x = np.asarray(x1, dtype=float)
        for a, s in zip(h.actions, h.signals):
            x = bayes_update(p, x, a, s)
        return stat.at_belief(x)

    return BehaviorStrategy(stat.n_actions, rule)


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

    return ScheduleStrategy(n_actions, action_at_stage)


def block_switch_strategy(n_actions: int, first_action: int, second_action: int,
                          switch_after: int) -> ScheduleStrategy:
    """Play one action for `switch_after` stages, then the other forever."""

    def action_at_stage(stage: int) -> int:
        return first_action if stage <= switch_after else second_action

    return ScheduleStrategy(n_actions, action_at_stage)


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

def transducer_count_raw(n_actions: int, n_signals: int, n_memory: int) -> int:
    """Full-table count |I|^M * M^(M*I*S) for a fixed memory size."""
    return (n_actions ** n_memory) * (n_memory ** (n_memory * n_actions * n_signals))


def enumerate_transducers(p: Pomdp, max_memory: int, cap: int = 1_000_000) -> list:
    """All transducers with at most `max_memory` memory states, de-duplicated
    by canonical form (BFS relabeling of the reachable part along the run).

    Only update entries for the played action are enumerated; entries for
    foreign actions are filled with the played action's moves, since the run
    never consults them.  Deterministic order.
    """
    if max_memory < 1:
        raise InvalidInputError("max_memory must be >= 1")
    n_i, n_s = p.n_actions, p.n_signals
    total = sum(
        (n_i ** m) * (m ** (m * n_s)) for m in range(1, max_memory + 1)
    )
    if total > cap:
        raise BudgetExceededError(
            f"transducer enumeration would generate {total} candidates (cap {cap})"
        )
    out = []
    seen = set()
    for m in range(1, max_memory + 1):
        for acts in itertools.product(range(n_i), repeat=m):
            for moves in itertools.product(range(m), repeat=m * n_s):
                update = np.empty((m, n_i, n_s), dtype=np.int64)
                for mm in range(m):
                    row = moves[mm * n_s:(mm + 1) * n_s]
                    for i in range(n_i):
                        update[mm, i, :] = row
                t = Transducer(n_actions=n_i, n_signals=n_s,
                               act=np.array(acts), update=update)
                key = t.canonical_form()
                if key not in seen:
                    seen.add(key)
                    out.append(t)
    return out


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
    return Transducer(
        n_actions=int(doc["n_actions"]),
        n_signals=int(doc["n_signals"]),
        act=np.asarray(doc["act"], dtype=np.int64),
        update=np.asarray(doc["update"], dtype=np.int64),
        initial=int(doc.get("initial", 0)),
    )
