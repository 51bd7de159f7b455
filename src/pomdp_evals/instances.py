"""Built-in problem instances and registries for named strategies and
evaluations used by the CLI and the reproduction harness."""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .model import Pomdp, Scenario, known_payoff_lift, uniform_belief
from .strategies import (Strategy, block_switch_strategy, doubling_strategy,
                         always_strategy, uniform_strategy)


def matching_frozen() -> Scenario:
    """Frozen two-state guessing game: the state never changes, a single
    uninformative signal, payoff 1 when the action names the state."""
    trans = np.zeros((2, 2, 2, 1))
    for k in range(2):
        trans[k, :, k, 0] = 1.0
    rew = np.eye(2)
    p = Pomdp(states=("a", "b"), actions=("a", "b"), signals=("none",),
              transition=trans, reward=rew)
    return Scenario(pomdp=p, initial_belief=uniform_belief(2))


def matching_revealed() -> Scenario:
    """Frozen guessing game with revealing signals: the signal names the next
    state, so play is blind only at the first stage."""
    trans = np.zeros((2, 2, 2, 2))
    for k in range(2):
        trans[k, :, k, k] = 1.0
    p = Pomdp(states=("a", "b"), actions=("a", "b"), signals=("a", "b"),
              transition=trans, reward=np.eye(2))
    return Scenario(pomdp=p, initial_belief=uniform_belief(2))


def uniform_redraw() -> Scenario:
    """Two states redrawn uniformly and independently each stage, with one
    uninformative signal; payoff 1 in the first state regardless of the
    action.  State-run evaluations on this chain depend on the play, not on
    the observed history."""
    trans = np.zeros((2, 2, 2, 1))
    for k in range(2):
        for l in range(2):
            trans[k, :, l, 0] = 0.5
    rew = np.array([[1.0, 1.0], [0.0, 0.0]])
    p = Pomdp(states=("hot", "cold"), actions=("wait", "probe"),
              signals=("none",), transition=trans, reward=rew)
    return Scenario(pomdp=p, initial_belief=uniform_belief(2))


def blind_switching() -> Scenario:
    """Blind two-state control: action T keeps the state, action B swaps it;
    one uninformative signal; payoff 1 in the high state."""
    trans = np.zeros((2, 2, 2, 1))
    for k in range(2):
        trans[k, 0, k, 0] = 1.0        # T: stay
        trans[k, 1, 1 - k, 0] = 1.0    # B: swap
    rew = np.array([[0.0, 0.0], [1.0, 1.0]])
    p = Pomdp(states=("low", "high"), actions=("T", "B"), signals=("none",),
              transition=trans, reward=rew)
    return Scenario(pomdp=p, initial_belief=uniform_belief(2))


def blind_switching_lift() -> Scenario:
    """State lift of the blind switching instance that tracks the previous
    stage's reward in the state's second component."""
    base = blind_switching()
    lifted = known_payoff_lift(base.pomdp)
    from .model import lift_belief

    return Scenario(pomdp=lifted,
                    initial_belief=lift_belief(base.pomdp, lifted, base.initial_belief))


def observed_random_chain(seed: int, n_states: int = 3) -> Scenario:
    """Single-action random chain whose signal reveals the next state;
    transition rows are strictly positive so the chain is irreducible."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n_states) * 2.0, size=n_states) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    trans = np.zeros((n_states, 1, n_states, n_states))
    for k in range(n_states):
        for l in range(n_states):
            trans[k, 0, l, l] = rows[k, l]
    rew = rng.random((n_states, 1))
    p = Pomdp(states=tuple(f"s{j}" for j in range(n_states)),
              actions=("go",),
              signals=tuple(f"s{j}" for j in range(n_states)),
              transition=trans, reward=rew)
    return Scenario(pomdp=p, initial_belief=uniform_belief(n_states))


SCENARIOS = {
    "matching-frozen": matching_frozen,
    "matching-revealed": matching_revealed,
    "uniform-redraw": uniform_redraw,
    "blind-switching": blind_switching,
    "blind-switching-lift": blind_switching_lift,
}


def builtin_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise InvalidInputError(
            f"unknown scenario {name!r}; builtins: {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name]()


def _label_field(name: str, label: str, p: Pomdp = None) -> int:
    """A field of the strategy label `name`: an action, by name or index in
    [0, I), when the scenario `p` is given, else a stage count >= 0."""
    if p is not None and label in p.actions:
        return p.action_index(label)
    try:
        value = int(label)
    except ValueError:
        value = -1
    if value >= 0 and (p is None or value < p.n_actions):
        return value
    what = (f"an action name or index in [0, {p.n_actions})" if p is not None
            else "a stage count >= 0")
    raise InvalidInputError(f"strategy {name!r}: {label!r} is not {what}")


def builtin_strategy(name: str, p: Pomdp) -> Strategy:
    """Resolve a named strategy: uniform, doubling, always:<action>, or
    hold:<action>:<stages>:<action> (first action for N stages, then the
    second)."""
    if name == "uniform":
        return uniform_strategy(p.n_actions)
    if name == "doubling":
        if p.n_actions != 2:
            raise InvalidInputError("the doubling strategy needs exactly 2 actions")
        return doubling_strategy(2)
    if name.startswith("always:"):
        return always_strategy(p.n_actions, p.n_signals, _label_field(name, name[7:], p))
    if name.startswith("hold:"):
        parts = name.split(":")
        if len(parts) != 4:
            raise InvalidInputError("hold strategy syntax: hold:<first>:<stages>:<second>")
        return block_switch_strategy(p.n_actions, _label_field(name, parts[1], p),
                                     _label_field(name, parts[3], p), _label_field(name, parts[2]))
    raise InvalidInputError(f"unknown strategy {name!r}")
