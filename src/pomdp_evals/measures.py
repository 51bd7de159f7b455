"""Finitely supported probability measures on belief space: occupation
measures, one-step images under stationary strategies, exact transport
distance, invariance residuals, and the history disintegration that induces
a stationary strategy.

The occupation measure and the disintegration group the weight of the
enumerated plays by observed prefix, in the one pass over the prefix tree
that the conditional table also reads (`evaluations._prefix_sums`), filter
the belief once per prefix from its parent's (`_weighted_prefixes`), and
then group by belief.  The image of a measure under a stationary strategy
takes every atom and observed pair through one batched Bayes update.

The transport distance is solved exactly on integer masses and costs by a
transportation simplex in numpy (`_transport`): a least-cost greedy start,
Dantzig pricing, and the strongly feasible tree rule for the leaving cell,
which rules out cycling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .evaluations import Evaluation, _prefix_sums
from .model import (ObservedHistory, Pomdp, bayes_matrices, bayes_update_rows, belief_key,
                    canonical_belief, make_belief)
from .playspace import DEFAULT_NODE_BUDGET
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
    _, _, masses, xs, _ = zip(*_weighted_prefixes(p, x1, strat, e, horizon, budget))
    masses = np.concatenate(masses)
    atoms, where = np.unique(canonical_belief(np.concatenate(xs)), axis=0, return_inverse=True)
    measure = SupportedMeasure.from_pairs(
        zip(atoms, np.bincount(where, weights=masses)), renormalize=True)
    return OccupationResult(measure=measure, total_weight=float(masses.sum()))


def _weighted_prefixes(p: Pomdp, x1: np.ndarray, strat: Strategy, e: Evaluation,
                       horizon: int, budget: int):
    """Per stage m = 1..horizon, the observed prefixes h held before stage m
    with E[1{h} theta_m] > 0 on the enumerated plays (`_prefix_sums`): their
    (n, m-1) actions and signals, those expectations, beliefs and strategy
    memory.  Each distinct prefix takes one Bayes update and one `step` from
    its parent's."""
    bayes = bayes_matrices(p)
    x, mem = np.asarray(x1, dtype=float)[None], strat.start(1)
    for acts, sigs, parent, _, weight in _prefix_sums(p, x1, strat, e, horizon, budget):
        if parent is not None:
            i, s = acts[:, -1], sigs[:, -1]
            x = bayes_update_rows(bayes, x[parent], i * p.n_signals + s)[0]
            mem = strat.step(mem[parent], i, s)
        kept = np.flatnonzero(weight > 0)
        yield acts[kept], sigs[kept], weight[kept], x[kept], mem[kept]


def image_measure(p: Pomdp, mu: SupportedMeasure, strat: StationaryStrategy) -> SupportedMeasure:
    """Push each atom one step: split mass over (action, signal) by the
    stationary strategy and the signal law, landing on the posteriors, all
    atoms and observed pairs in one `bayes_update_rows` call.  An action of
    law at most MASS_FLOOR carries no mass, nor does an off-support signal
    (prob 0)."""
    if any(len(x) != p.n_states for x, _ in mu.atoms):
        raise InvalidInputError(f"the measure's beliefs need {p.n_states} entries, one per state")
    strat.check_pomdp(p)
    xs, mass = np.array([x for x, _ in mu.atoms]), np.array([m for _, m in mu.atoms])
    n_c = p.n_actions * p.n_signals
    post, prob = bayes_update_rows(bayes_matrices(p), xs.repeat(n_c, axis=0),
                                   np.tile(np.arange(n_c), len(xs)))
    law = strat.at_beliefs(xs).repeat(p.n_signals, axis=1).ravel()
    carried = (law > MASS_FLOOR) & (prob > 0)
    weight = mass.repeat(n_c) * law * prob
    return SupportedMeasure.from_pairs(zip(post[carried], weight[carried]), renormalize=True)


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


def _greedy_start(a: list, b: list, costs: np.ndarray) -> dict:
    """The least-cost greedy flows {(i, j): flow} of `_transport`'s start, in
    the order they are set: cells in stable ascending cost order each take
    as much as both their ends have left.  A row or column once exhausted
    stays so, and its cells take nothing: the sorted cells are read in
    doubling chunks, numpy drops those with an end exhausted before the
    chunk, and Python visits only the rest."""
    m = len(b)
    order = np.argsort(costs, axis=None, kind="stable")
    left_a, left_b, left = list(a), list(b), sum(a)
    open_a, open_b = np.ones(len(a), dtype=bool), np.ones(m, dtype=bool)
    flow: dict = {}
    start, size = 0, len(a) + m
    while left and start < len(order):
        rows, cols = np.divmod(order[start:start + size], m)
        keep = open_a[rows] & open_b[cols]
        for i, j in zip(rows[keep].tolist(), cols[keep].tolist()):
            moved = min(left_a[i], left_b[j])
            if moved:
                flow[i, j] = moved
                left_a[i] -= moved
                left_b[j] -= moved
                left -= moved
                open_a[i], open_b[j] = left_a[i] > 0, left_b[j] > 0
                if not left:
                    break
        start, size = start + size, 2 * size
    return flow


def _transport(a: list, b: list, costs: np.ndarray) -> tuple:
    """Exact min-cost transport of the positive integer supplies `a` (rows) to
    the demands `b` (columns) of equal total, at int64 `costs[i, j]` per unit.
    Returns the optimal total cost as a Python int and an optimal basis
    {(i, j): flow} of len(a) + len(b) - 1 cells.

    Transportation simplex on the bipartite network with an arc from each
    row i to each column j; a basis is a spanning tree of cells.
      - Start: least-cost greedy (`_greedy_start`).  Cells in ascending
        cost order take as much flow as both their ends have left; zero-flow
        cells then join the forest into one tree, each hanging a component
        by one of its rows under a column of row 0's component.
      - Pricing: row and column potentials u, v from one walk of the tree
        from row 0, reduced costs costs - u - v in one numpy expression; the
        most negative cell enters (Dantzig's rule).
      - Leaving cell: the strongly feasible tree rule (Cunningham 1976).  In
        the tree rooted at row 0 every zero-flow cell has its row below its
        column.  The entering cell closes a cycle through the apex of its two
        ends; of the cells whose flow the pivot lowers to zero, the one met
        last going round the cycle from the apex in the entering cell's
        direction leaves.  This keeps the tree strongly feasible, and so no
        basis repeats even when pivots move no flow.
    Flows stay integers, and the total is summed in Python ints, since flow
    times cost may exceed int64.  Potentials are sums of costs along tree
    paths, so (len(a) + len(b)) * max |cost| must fit in int64."""
    n, m = len(a), len(b)
    cost_rows = costs.tolist()
    flow = _greedy_start(a, b, costs)
    # nodes: row i is i, column j is n + j; join the components at row 0's
    component = list(range(n + m))

    def find(v):
        while component[v] != v:
            v = component[v]
        return v

    for i, j in flow:
        component[find(i)] = find(n + j)
    hub = next(j for j in range(m) if (0, j) in flow)
    for i in range(1, n):
        if find(i) != find(0):
            component[find(i)] = find(0)
            flow[i, hub] = 0
    adj = [set() for _ in range(n + m)]
    for i, j in flow:
        adj[i].add(n + j)
        adj[n + j].add(i)

    while True:
        parent, depth, potential = [-1] * (n + m), [0] * (n + m), [0] * (n + m)
        above = [None] * (n + m)   # the tree cell joining a node to its parent
        walk = [0]
        for v in walk:
            for w in adj[v]:
                if w != parent[v]:
                    parent[w], depth[w] = v, depth[v] + 1
                    i, j = above[w] = (w, v - n) if w < n else (v, w - n)
                    potential[w] = cost_rows[i][j] - potential[v]
                    walk.append(w)
        potential = np.array(potential, dtype=np.int64)
        reduced = costs - potential[:n, None] - potential[None, n:]
        enter = int(reduced.argmin())
        if reduced.flat[enter] >= 0:
            break
        k, l = divmod(enter, m)
        down, up = [], []   # tree paths from row k and from column l to the apex
        x, y = k, n + l
        while depth[x] > depth[y]:
            down.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            up.append(y)
            y = parent[y]
        while x != y:
            down.append(x)
            x = parent[x]
            up.append(y)
            y = parent[y]
        # the cycle from the apex: down to row k, across to column l, back up;
        # a cell is passed against its row-to-column direction, so loses
        # flow, where the path enters a row
        cycle = [(above[v], v < n) for v in reversed(down)]
        cycle += [(above[v], v >= n) for v in up]
        theta = min(flow[c] for c, lowered in cycle if lowered)
        leave = [c for c, lowered in cycle if lowered and flow[c] == theta][-1]
        for c, lowered in cycle:
            flow[c] += -theta if lowered else theta
        del flow[leave]
        flow[k, l] = theta
        adj[leave[0]].discard(n + leave[1])
        adj[n + leave[1]].discard(leave[0])
        adj[k].add(n + l)
        adj[n + l].add(k)
    return sum(f * cost_rows[i][j] for (i, j), f in flow.items()), flow


def kr_distance(mu: SupportedMeasure, nu: SupportedMeasure) -> float:
    """Exact optimal-transport distance with L1 ground metric on beliefs:
    masses and costs are rounded to integers (`_integer_masses`,
    `_edge_costs`), the integer problem is solved exactly by `_transport`, and
    its optimal cost is divided by the flow scale squared."""
    dim = len(mu.atoms[0][0])
    if any(len(x) != dim for x, _ in nu.atoms):
        raise InvalidInputError("measures live on belief spaces of different dimension")
    cost, _ = _transport(_integer_masses(mu), _integer_masses(nu), _edge_costs(mu, nu))
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
    prefixes = []   # (actions, signals, weight, belief, action law) per weighted prefix
    for acts, sigs, weight, x, mem in _weighted_prefixes(p, x1, strat, e, horizon, budget):
        prefixes += zip(map(tuple, acts.tolist()), map(tuple, sigs.tolist()), weight.tolist(),
                        canonical_belief(x), strat.dist(mem))

    groups: dict = {}
    beliefs: dict = {}
    for acts, sigs, mass, x, dist in sorted(prefixes, key=lambda q: q[:2]):
        key = belief_key(x)
        beliefs[key] = x
        groups.setdefault(key, []).append((ObservedHistory(acts, sigs), mass, dist))

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
