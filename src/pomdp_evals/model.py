"""Finite POMDPs: the model tuple, beliefs, Bayes updates, the belief graph
of an initial belief, the payoff-tracking state lift and scenario JSON.

Every belief step of the package goes through the batched Bayes update
(`bayes_update_rows`); `bayes_update` is its one-belief form.  The belief
graph (`belief_graph`) is the one finite belief MDP of the package: the
belief DP sweeps it to the horizon, with beliefs merged to 12 decimals, and
the Monte Carlo belief payoffs walk it once it closes.

A POMDP is the tuple (states, actions, signals, transition, reward).  The
transition table maps a (state, action) pair to a joint distribution over
(next state, signal); rewards live in [0, 1].  Beliefs are plain numpy
probability vectors over the state set.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, ScenarioValidationError

ROW_SUM_TOL = 1e-9
SIGNAL_PROB_FLOOR = 1e-12
BELIEF_DECIMALS = 12


# ---------------------------------------------------------------------------
# Beliefs
# ---------------------------------------------------------------------------

def make_belief(weights: Sequence[float]) -> np.ndarray:
    """Validate and return a belief vector (entries in [0,1], summing to 1)."""
    x = np.asarray(weights, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError("belief must be a non-empty 1-d vector")
    # a valid belief passes in about 1 us (numpy's reductions below take 10
    # on a short vector, and plays check x1 once per product chain); a NaN
    # or infinite entry fails the sum test, and the checks below name it
    v = x.tolist()
    if min(v) >= -ROW_SUM_TOL and max(v) <= 1 + ROW_SUM_TOL and abs(sum(v) - 1.0) <= ROW_SUM_TOL:
        return x
    if not np.all(np.isfinite(x)):
        j = int(np.flatnonzero(~np.isfinite(x))[0])
        raise InvalidInputError(f"belief entry {j} is {x[j]}, expected a finite number")
    if np.any(x < -ROW_SUM_TOL) or np.any(x > 1 + ROW_SUM_TOL):
        raise InvalidInputError("belief entries must lie in [0, 1]")
    if abs(float(x.sum()) - 1.0) > ROW_SUM_TOL:
        raise InvalidInputError(
            f"belief entries sum to {float(x.sum()):.12g}, expected 1"
        )
    return x


def dirac_belief(n_states: int, k: int) -> np.ndarray:
    x = np.zeros(n_states)
    x[k] = 1.0
    return x


def uniform_belief(n_states: int) -> np.ndarray:
    return np.full(n_states, 1.0 / n_states)


def canonical_belief(x: np.ndarray) -> np.ndarray:
    """Round to 1e-12 so identical histories hash identically."""
    return np.round(np.asarray(x, dtype=float), BELIEF_DECIMALS) + 0.0


def belief_key(x: np.ndarray) -> bytes:
    return canonical_belief(x).tobytes()


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pomdp:
    """Finite POMDP tuple.

    transition has shape (K, I, K, S): transition[k, i, l, s] is the joint
    probability of moving to state l while emitting signal s.  reward has
    shape (K, I) with entries in [0, 1].
    """

    states: tuple
    actions: tuple
    signals: tuple
    transition: np.ndarray
    reward: np.ndarray

    def __post_init__(self):
        if not self.states or not self.actions or not self.signals:
            raise InvalidInputError("state, action and signal sets must be non-empty")
        trans = np.ascontiguousarray(np.asarray(self.transition, dtype=float))
        rew = np.ascontiguousarray(np.asarray(self.reward, dtype=float))
        k, i, s = len(self.states), len(self.actions), len(self.signals)
        if trans.shape != (k, i, k, s):
            raise InvalidInputError(
                f"transition shape {trans.shape} does not match (K,I,K,S)={(k, i, k, s)}"
            )
        if rew.shape != (k, i):
            raise InvalidInputError(
                f"reward shape {rew.shape} does not match (K,I)={(k, i)}"
            )
        bad = np.argwhere(~np.isfinite(trans))
        if bad.size:
            bk, bi = bad[0][:2]
            raise ScenarioValidationError(
                f"transition row (state={self.states[bk]}, action={self.actions[bi]}) "
                f"has a non-finite entry"
            )
        if np.any(trans < 0):
            raise ScenarioValidationError("transition table has negative entries")
        sums = trans.reshape(k, i, -1).sum(axis=2)
        bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            bk, bi = bad[0]
            raise ScenarioValidationError(
                f"transition row (state={self.states[bk]}, action={self.actions[bi]}) "
                f"sums to {sums[bk, bi]:.12g} (deviation {abs(sums[bk, bi] - 1.0):.3e})"
            )
        if not np.all((rew >= -ROW_SUM_TOL) & (rew <= 1 + ROW_SUM_TOL)):
            bk, bi = np.argwhere(~((rew >= 0) & (rew <= 1)))[0]
            raise ScenarioValidationError(
                f"reward (state={self.states[bk]}, action={self.actions[bi]}) "
                f"= {rew[bk, bi]:.12g} lies outside [0, 1]"
            )
        trans.flags.writeable = False
        rew.flags.writeable = False
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "reward", rew)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    def state_index(self, name) -> int:
        if name not in self.states:
            raise InvalidInputError(f"unknown state {name!r}")
        return self.states.index(name)

    def action_index(self, name) -> int:
        if name not in self.actions:
            raise InvalidInputError(f"unknown action {name!r}")
        return self.actions.index(name)


@dataclass(frozen=True)
class ObservedHistory:
    """Sequence of (action, signal) index pairs known to the decision-maker.

    A history of length m-1 is the information available at stage m.
    """

    actions: tuple = ()
    signals: tuple = ()

    def __post_init__(self):
        if len(self.actions) != len(self.signals):
            raise InvalidInputError("observed history needs equal action/signal lengths")

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def pairs(self) -> tuple:
        return tuple(zip(self.actions, self.signals))


# ---------------------------------------------------------------------------
# Belief arithmetic
# ---------------------------------------------------------------------------

def _check_dims(p: Pomdp, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n_states,):
        raise InvalidInputError(
            f"belief has dimension {x.shape}, POMDP has {p.n_states} states"
        )
    return x


def bayes_update(p: Pomdp, x: np.ndarray, i: int, s: int) -> np.ndarray:
    """Posterior after playing i and observing s.

    Off-support signals fall back to the Dirac belief at the first state in
    the declared order; this path only occurs in simulations that can visit
    zero-probability histories.
    """
    x = _check_dims(p, x)
    joint = x @ p.transition[:, i, :, s]
    tot = float(joint.sum())
    if tot < SIGNAL_PROB_FLOOR:
        return dirac_belief(p.n_states, 0)
    return joint / tot


def bayes_matrices(p: Pomdp) -> np.ndarray:
    """Unnormalised Bayes updates by observed pair: entry i*S + s is the
    (K, K) matrix transition[:, i, :, s]."""
    return p.transition.transpose(1, 3, 0, 2).reshape(-1, p.n_states, p.n_states)


def bayes_update_rows(bayes: np.ndarray, x: np.ndarray, code: np.ndarray,
                      out: np.ndarray | None = None) -> tuple:
    """Batched `bayes_update`: row j of the (n, K) beliefs x updated by the
    observed pair code[j] = i*S + s, with `bayes` from `bayes_matrices`.

    Returns (posteriors, prob): prob[j] is the probability of the pair's
    signal, the sum that normalises row j.  Off-support rows, whose signal
    has probability below SIGNAL_PROB_FLOOR, fall back to the Dirac at the
    first state and get prob 0.  The posteriors go to `out` when given (it
    must not overlap x).
    """
    joint = np.einsum("nk,nkl->nl", x, bayes.take(code, axis=0), out=out)
    tot = joint.sum(axis=1, keepdims=True)
    if tot.min() < SIGNAL_PROB_FLOOR:
        off = tot < SIGNAL_PROB_FLOOR
        tot[off] = 0.0
        joint[off[:, 0]] = np.eye(1, joint.shape[1])[0]
        joint /= tot + off
    else:
        joint /= tot
    return joint, tot[:, 0]


def belief_graph(p: Pomdp, x1: np.ndarray, limit: int, depth: int | None = None,
                 rounded: bool = False):
    """The beliefs reachable from x1 within `depth` observed pairs, all of
    them when depth is None, or None once they would be more than `limit`.

    Returns (beliefs, child, prob, seen).  beliefs[0] is x1 and the beliefs
    come in order of first depth: the first seen[d] are those reached within
    depth d.  Row b of child and of prob, for each belief b expanded (all
    but those first reached at depth `depth`), holds for every observed pair
    code = i*S + s the id of the posterior and the probability P(s | b, i).
    Each level is expanded by `bayes_update_rows`, whose normalising sums
    are the edge probabilities, so every code keeps its edge: an off-support
    one leads to the Dirac fallback with probability 0.

    Posteriors are told apart by their exact float bytes, so the beliefs are
    bit for bit those the Bayes filter carries along any history.  With
    `rounded` they are told apart by `belief_key`, the first belief with a
    key standing for the others: an orbit that contracts onto a fractal has
    far fewer points at 1e-12 than at float resolution, so the belief DP
    stays within its budget where the exact graph outgrows it."""
    bayes = bayes_matrices(p)
    n_c, k = bayes.shape[:2]
    canon = canonical_belief if rounded else np.asarray
    step = max(1, (1 << 20) // (n_c * k * k))   # beliefs expanded at once: 8 MB of matrices
    level = _check_dims(p, x1)[None]
    ids = {canon(level[0]).tobytes(): 0}
    levels, child, prob, seen = [level], [np.zeros(0, dtype=np.intp)], [np.zeros(0)], [1]
    while len(ids) <= limit:
        if not len(level) or len(seen) - 1 == depth:
            return (np.concatenate(levels), np.concatenate(child).reshape(-1, n_c),
                    np.concatenate(prob).reshape(-1, n_c), seen)
        new = []
        for part in (level[j:j + step] for j in range(0, len(level), step)):
            post, tot = bayes_update_rows(bayes, part.repeat(n_c, axis=0),
                                          np.tile(np.arange(n_c), len(part)))
            start = len(ids)
            found = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in canon(post)],
                             dtype=np.intp)
            if len(ids) > limit:
                return None
            index, first = np.unique(found, return_index=True)
            new.append(post[first[index >= start]])
            child.append(found)
            prob.append(tot)
        level = np.concatenate(new)
        levels.append(level)
        seen.append(len(ids))
    return None


# ---------------------------------------------------------------------------
# Known payoffs
# ---------------------------------------------------------------------------

def known_payoff_lift(p: Pomdp) -> Pomdp:
    """Lift states to (state, previous stage's reward value).

    The lifted state set is K x {distinct reward values}; the lifted reward
    depends only on the second component, which records the reward generated
    one stage earlier.  The signal alphabet is unchanged, so the lift has
    known payoffs only when the signals already reveal the recorded value; on
    the blind switching chain they do not.
    """
    values = sorted({round(float(v), 12) for v in p.reward.ravel()})
    n_v = len(values)
    v_index = {v: j for j, v in enumerate(values)}
    k, n_i, n_s = p.n_states, p.n_actions, p.n_signals
    n = k * n_v
    states = tuple(f"{st}~{v:g}" for st in p.states for v in values)
    trans = np.zeros((n, n_i, n, n_s))
    rew = np.zeros((n, n_i))
    for ki in range(k):
        for vi in range(n_v):
            src = ki * n_v + vi
            rew[src, :] = values[vi]
            for i in range(n_i):
                nxt_v = v_index[round(float(p.reward[ki, i]), 12)]
                for li in range(k):
                    dst = li * n_v + nxt_v
                    trans[src, i, dst, :] += p.transition[ki, i, li, :]
    return Pomdp(states, p.actions, p.signals, trans, rew)


def lift_belief(p: Pomdp, lifted: Pomdp, x: np.ndarray) -> np.ndarray:
    """Embed a belief of the base POMDP into the lift (second component pinned
    to the smallest reward value, which carries no stage-1 information)."""
    x = _check_dims(p, x)
    n_v = lifted.n_states // p.n_states
    out = np.zeros(lifted.n_states)
    for ki in range(p.n_states):
        out[ki * n_v] = x[ki]
    return out


def known_payoff_partition(p: Pomdp):
    """Finest partition of the states compatible with the known-payoff signal
    condition, or None if no compatible partition makes rewards measurable.

    Condition: successors reachable under a common signal must share a
    partition element, and states sharing an element must share the reward
    function.
    """
    parent = list(range(p.n_states))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for s in range(p.n_signals):
        reachable = np.argwhere(p.transition[:, :, :, s].sum(axis=(0, 1)) > SIGNAL_PROB_FLOOR)
        flat = [int(l) for l in reachable.ravel()]
        for other in flat[1:]:
            union(flat[0], other)
    groups = {}
    for k in range(p.n_states):
        groups.setdefault(find(k), []).append(k)
    partition = [tuple(g) for g in groups.values()]
    for g in partition:
        for i in range(p.n_actions):
            vals = {round(float(p.reward[k, i]), 12) for k in g}
            if len(vals) > 1:
                return None
    return partition


def has_known_payoffs(p: Pomdp) -> bool:
    return known_payoff_partition(p) is not None


# ---------------------------------------------------------------------------
# Scenario JSON
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """A POMDP plus its initial belief."""

    pomdp: Pomdp
    initial_belief: np.ndarray


def json_float(v, what: str) -> float:
    """v as a float.  A bool, a string, any other non-number, a non-finite
    number or an integer too large for a float is rejected with
    InvalidInputError naming `what`."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{what} is {v!r}, expected a finite number")
    try:
        x = float(v)
    except OverflowError:
        raise InvalidInputError(f"{what} is an integer too large for a float") from None
    if not math.isfinite(x):
        raise InvalidInputError(f"{what} is {v!r}, expected a finite number")
    return x


def names_a_file(source) -> bool:
    """Whether an argument that holds a file path or an inline document
    names an existing path; one that cannot be a path name (an inline JSON
    document longer than a file name, say) does not."""
    try:
        return Path(source).exists()
    except (OSError, ValueError):
        return False


def _scenario_number(v, what: str) -> float:
    """`json_float` for a scenario entry, raising ScenarioValidationError."""
    try:
        return json_float(v, what)
    except InvalidInputError as exc:
        raise ScenarioValidationError(str(exc)) from None


def pomdp_from_tables(states, actions, signals, transition: dict, reward: dict) -> Pomdp:
    """Build a Pomdp from the sparse JSON tables.

    transition maps "state,action" -> {"state,signal": prob}; reward maps
    "state,action" -> value.  An empty name list, a row that is not a
    mapping or an entry that is not a number is rejected with
    ScenarioValidationError naming it.
    """
    states, actions, signals = list(states), list(actions), list(signals)
    for what, names in (("states", states), ("actions", actions), ("signals", signals)):
        if not names:
            raise ScenarioValidationError(f"scenario field {what!r} must be non-empty")
    k, n_i, n_s = len(states), len(actions), len(signals)
    s_idx = {str(v): j for j, v in enumerate(states)}
    a_idx = {str(v): j for j, v in enumerate(actions)}
    g_idx = {str(v): j for j, v in enumerate(signals)}
    trans = np.zeros((k, n_i, k, n_s))
    rew = np.zeros((k, n_i))

    def split(key, what):
        parts = str(key).split(",")
        if len(parts) != 2:
            raise ScenarioValidationError(f"malformed {what} key {key!r}")
        return parts[0].strip(), parts[1].strip()

    for key, row in transition.items():
        st, ac = split(key, "transition")
        if st not in s_idx or ac not in a_idx:
            raise ScenarioValidationError(f"transition row {key!r} names unknown state/action")
        if not isinstance(row, Mapping):
            raise ScenarioValidationError(f"transition row {key!r} must be an object")
        for dest_key, prob in row.items():
            dst, sig = split(dest_key, "transition entry")
            if dst not in s_idx or sig not in g_idx:
                raise ScenarioValidationError(
                    f"transition row {key!r} entry {dest_key!r} names unknown state/signal"
                )
            trans[s_idx[st], a_idx[ac], s_idx[dst], g_idx[sig]] = _scenario_number(
                prob, f"transition row {key!r} entry {dest_key!r}")
    for key, val in reward.items():
        st, ac = split(key, "reward")
        if st not in s_idx or ac not in a_idx:
            raise ScenarioValidationError(f"reward row {key!r} names unknown state/action")
        rew[s_idx[st], a_idx[ac]] = _scenario_number(val, f"reward row {key!r}")
    return Pomdp(tuple(states), tuple(actions), tuple(signals), trans, rew)


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a dict, a JSON string, or the path
    of a JSON file; a string is read as a path when it names one
    (`names_a_file`); a path that cannot be read raises
    ScenarioValidationError naming it."""
    doc = source
    if isinstance(source, (str, PurePath)):
        text = str(source)
        if names_a_file(source):
            try:
                text = Path(source).read_text()
            except OSError as exc:
                raise ScenarioValidationError(
                    f"scenario file {source} cannot be read: {exc.strerror}") from exc
            except UnicodeDecodeError as exc:
                raise ScenarioValidationError(
                    f"scenario file {source} is not UTF-8 text: {exc.reason} at byte "
                    f"{exc.start}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioValidationError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioValidationError("scenario must be a JSON object")
    for key, kind, name in (("states", list, "a list"), ("actions", list, "a list"),
                            ("signals", list, "a list"), ("transition", dict, "an object"),
                            ("reward", dict, "an object"), ("initial_belief", list, "a list")):
        if key not in doc:
            raise ScenarioValidationError(f"scenario is missing the {key!r} field")
        if not isinstance(doc[key], kind):
            raise ScenarioValidationError(f"scenario field {key!r} must be {name}")
    pomdp = pomdp_from_tables(
        doc["states"], doc["actions"], doc["signals"], doc["transition"], doc["reward"]
    )
    try:
        x1 = make_belief([_scenario_number(v, f"initial_belief entry {j}")
                          for j, v in enumerate(doc["initial_belief"])])
    except InvalidInputError as exc:
        raise ScenarioValidationError(f"initial_belief: {exc}") from exc
    if x1.shape != (pomdp.n_states,):
        raise ScenarioValidationError(
            f"initial_belief has {x1.size} entries, scenario has {pomdp.n_states} states"
        )
    return Scenario(pomdp=pomdp, initial_belief=x1)
