"""Finitely supported probability measures on belief space: occupation
measures, one-step images under stationary strategies, exact transport
distance, invariance residuals, and the history disintegration that induces
a stationary strategy.

The occupation measure and the disintegration reduce the enumerated play
batch: deposits are grouped by the beliefs of the stage-blocked Bayes filter
and by observed prefix, not play by play."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .evaluations import Evaluation, enumerated_weights
from .model import (ObservedHistory, Pomdp, belief_key, belief_transition,
                    canonical_belief, make_belief)
from .playspace import DEFAULT_NODE_BUDGET, belief_blocks, prefix_ids
from .strategies import StationaryStrategy, Strategy

MASS_FLOOR = 1e-12
_FLOW_SCALE = 10 ** 12


@dataclass(frozen=True)
class SupportedMeasure:
    """Probability measure with finitely many belief atoms."""

    atoms: tuple  # tuple of (belief vector, mass)

    @staticmethod
    def from_pairs(pairs, renormalize: bool = False) -> "SupportedMeasure":
        """Canonicalize, merge coinciding beliefs, prune dust, validate mass."""
        merged: dict = {}
        for j, (x, mass) in enumerate(pairs):
            if not (np.all(np.isfinite(x)) and np.isfinite(mass)):
                raise InvalidInputError(f"atom {j} has a non-finite belief entry or mass")
            x = canonical_belief(x)
            key = belief_key(x)
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + float(mass))
            else:
                merged[key] = (x, float(mass))
        kept = [(x, m) for x, m in merged.values() if m >= MASS_FLOOR]
        total = sum(m for _, m in kept)
        if renormalize:
            if total <= 0:
                raise InvalidInputError("measure has no mass to renormalize")
            kept = [(x, m / total) for x, m in kept]
        elif abs(total - 1.0) > 1e-9:
            raise InvalidInputError(f"atom masses sum to {total:.12f}, not 1")
        kept.sort(key=lambda a: belief_key(a[0]))
        return SupportedMeasure(tuple(kept))

    @staticmethod
    def dirac(x) -> "SupportedMeasure":
        return SupportedMeasure.from_pairs([(x, 1.0)])

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def to_dict(self) -> dict:
        return {"atoms": [{"belief": [float(v) for v in x], "mass": m}
                          for x, m in self.atoms]}

    @staticmethod
    def from_dict(doc: dict) -> "SupportedMeasure":
        """Parse {"atoms": [{"belief": [...], "mass": m}, ...]}: finite
        entries and masses summing to 1 (`from_pairs`), and beliefs of one
        length, each valid for `make_belief`."""
        try:
            pairs = [(np.asarray(a["belief"], dtype=float), float(a["mass"]))
                     for a in doc["atoms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError("a measure needs an 'atoms' list with a 'belief' and a "
                                    f"'mass' per atom ({type(exc).__name__}: {exc})") from None
        if len({x.shape for x, _ in pairs}) > 1:
            raise InvalidInputError("measure atoms have beliefs of different lengths")
        measure = SupportedMeasure.from_pairs(pairs)
        for x, _ in pairs:
            make_belief(x)
        return measure


@dataclass(frozen=True)
class OccupationResult:
    measure: SupportedMeasure
    total_weight: float   # expected truncated weight mass before renormalizing


def occupation_measure(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                       horizon: int, budget: int = DEFAULT_NODE_BUDGET) -> OccupationResult:
    """Expected evaluation weight deposited on each visited belief."""
    b, w = enumerated_weights(p, x1, strat, e, horizon, budget)
    ids, _, stages = _history_beliefs(p, x1, b)
    xs, masses = [], []
    for m, x in stages:
        d = np.bincount(ids[:, -1], weights=b.prob * w[:, m], minlength=len(x))
        xs.append(x[d > 0])
        masses.append(d[d > 0])
    masses = np.concatenate(masses)
    atoms, where = np.unique(canonical_belief(np.concatenate(xs)), axis=0, return_inverse=True)
    measure = SupportedMeasure.from_pairs(
        zip(atoms, np.bincount(where, weights=masses)), renormalize=True)
    return OccupationResult(measure=measure, total_weight=float(masses.sum()))


def _history_beliefs(p: Pomdp, x1: np.ndarray, b) -> tuple:
    """Observed-prefix ids of a play batch (see `prefix_ids`) and its beliefs.

    The third item yields (m, x) per stage m+1, in order: x[g] is the belief
    of every play j whose observed history ids[j, -1] is g.  The Bayes filter
    runs once per distinct observed history, not once per play.
    """
    ids, first = prefix_ids(b.actions, b.signals)
    rows = first[-1]
    return ids, first, ((m, x) for t0, bel in belief_blocks(p, x1, b.actions[rows], b.signals[rows])
                        for m, x in enumerate(bel, t0))


def image_measure(p: Pomdp, mu: SupportedMeasure, strat: StationaryStrategy) -> SupportedMeasure:
    """Push each atom one step: split mass over (action, signal) by the
    stationary strategy and the signal law, landing on the posteriors."""
    pairs = []
    for x, mass in mu.atoms:
        dist = strat.at_belief(x)
        for i in range(p.n_actions):
            if dist[i] <= MASS_FLOOR:
                continue
            for _, prob, nxt in belief_transition(p, x, i):
                pairs.append((nxt, mass * float(dist[i]) * prob))
    return SupportedMeasure.from_pairs(pairs, renormalize=True)


# ---------------------------------------------------------------------------
# Transport distance
# ---------------------------------------------------------------------------

def _integer_masses(measure: SupportedMeasure) -> list:
    """Masses scaled to integers summing exactly to the flow scale, with the
    rounding remainder assigned to the largest atom."""
    raw = [int(round(m * _FLOW_SCALE)) for _, m in measure.atoms]
    raw[int(np.argmax([m for _, m in measure.atoms]))] += _FLOW_SCALE - sum(raw)
    return raw


def _edge_costs(mu: SupportedMeasure, nu: SupportedMeasure) -> np.ndarray:
    """Integer cost of moving unit mass from each atom of mu to each atom of
    nu: the L1 distance of their beliefs, rounded to 1/_FLOW_SCALE."""
    x = np.array([x for x, _ in mu.atoms])
    y = np.array([y for y, _ in nu.atoms])
    return np.rint(np.abs(x[:, None] - y[None]).sum(axis=2) * _FLOW_SCALE).astype(np.int64)


def kr_distance(mu: SupportedMeasure, nu: SupportedMeasure) -> float:
    """Exact optimal-transport distance with L1 ground metric on beliefs,
    via integer min-cost flow on the bipartite support graph."""
    import networkx as nx  # on first use: the package's only networkx caller

    dim = len(mu.atoms[0][0])
    if any(len(x) != dim for x, _ in nu.atoms):
        raise InvalidInputError("measures live on belief spaces of different dimension")
    a = _integer_masses(mu)
    b = _integer_masses(nu)
    g = nx.DiGraph()
    for j, supply in enumerate(a):
        g.add_node(("s", j), demand=-supply)
    for j, demand in enumerate(b):
        g.add_node(("t", j), demand=demand)
    g.add_edges_from((("s", j), ("t", jj), {"weight": w})
                     for j, row in enumerate(_edge_costs(mu, nu).tolist())
                     for jj, w in enumerate(row))
    cost, _ = nx.network_simplex(g)
    return cost / (_FLOW_SCALE * _FLOW_SCALE)


def invariance_residual(p: Pomdp, mu: SupportedMeasure, strat: StationaryStrategy) -> float:
    """Transport distance between a measure and its one-step image; zero
    certifies invariance under the strategy at tolerance."""
    return kr_distance(mu, image_measure(p, mu, strat))


# ---------------------------------------------------------------------------
# Disintegration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisintegrationTable:
    """Weighted observed histories grouped by the belief they end at.

    groups maps the belief key to a list of (ObservedHistory, conditional
    mass, action distribution played there); `beliefs` recovers the actual
    belief vector per key."""

    groups: dict
    beliefs: dict


def disintegrate(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                 horizon: int, budget: int = DEFAULT_NODE_BUDGET):
    """Group the evaluation-weighted history measure by end-belief and induce
    a stationary strategy by averaging the played action distributions.

    Returns (DisintegrationTable, StationaryStrategy).
    """
    b, w = enumerated_weights(p, x1, strat, e, horizon, budget)
    ids, first, stages = _history_beliefs(p, x1, b)
    prefixes = []   # (actions, signals, weight, belief at the prefix's end)
    for m, x in stages:
        weight = np.bincount(ids[:, m], weights=b.prob * w[:, m])
        kept = np.flatnonzero(weight > 0)
        rows = first[m][kept]
        prefixes += zip(map(tuple, b.actions[rows, :m].tolist()),
                        map(tuple, b.signals[rows, :m].tolist()),
                        weight[kept].tolist(), canonical_belief(x[ids[rows, -1]]))

    groups: dict = {}
    beliefs: dict = {}
    for acts, sigs, mass, x in sorted(prefixes, key=lambda q: q[:2]):
        h = ObservedHistory(acts, sigs)
        key = belief_key(x)
        beliefs[key] = x
        groups.setdefault(key, []).append(
            (h, mass, np.asarray(strat.action_distribution(h), dtype=float))
        )

    support, rows = [], []
    normalized: dict = {}
    for key, entries in groups.items():
        total = sum(mass for _, mass, _ in entries)
        normalized[key] = [(h, mass / total, dist) for h, mass, dist in entries]
        blended = sum((mass / total) * dist for _, mass, dist in entries)
        support.append(beliefs[key])
        rows.append(np.asarray(blended, dtype=float))
    table = DisintegrationTable(groups=normalized, beliefs=beliefs)
    induced = StationaryStrategy(n_actions=p.n_actions, support=support,
                                 action_dists=rows)
    return table, induced
