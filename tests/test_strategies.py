"""Strategy layer: behavior rules, schedules, finite-memory transducers."""
import hashlib
import itertools
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import pomdp_evals as pe
from pomdp_evals import strategies
from pomdp_evals.errors import BudgetExceededError, InvalidInputError
from pomdp_evals.model import ObservedHistory, canonical_belief
from pomdp_evals.strategies import _canonical_key, _is_law

from conftest import random_pomdp, sparse_instances


def test_uniform_strategy_distribution():
    strat = pe.uniform_strategy(4)
    assert np.allclose(strat.action_distribution(ObservedHistory()), 0.25)


def test_behavior_strategy_rejects_invalid_rows():
    strat = pe.BehaviorStrategy(2, lambda h: np.array([0.7, 0.7]))
    with pytest.raises(InvalidInputError):
        strat.action_distribution(ObservedHistory())


@pytest.mark.parametrize("play", [
    lambda p, x1, s: pe.simulate_plays(p, x1, s, 3, 4, np.random.default_rng(0)),
    lambda p, x1, s: pe.enumerate_plays(p, x1, s, 3)], ids=["simulate", "enumerate"])
def test_a_behavior_rule_returning_nan_names_the_history(redraw, play):
    # every comparison with NaN is false, so only a finiteness check stops
    # such a law from playing action 0 or breaking the play tree
    strat = pe.BehaviorStrategy(2, lambda h: [np.nan, np.nan] if len(h) == 1 else [0.5, 0.5])
    with pytest.raises(InvalidInputError, match=r"after the history "
                                                r"ObservedHistory\(actions=\(\d,\), signals=\(\d,\)\)"):
        play(redraw.pomdp, redraw.initial_belief, strat)


@pytest.mark.parametrize("kind", ["random-behavior", "behavior-rule"])
def test_history_strategies_answer_zero_histories(redraw, kind):
    # a batch of no histories, of any length, has a (0, I) law matrix, as
    # uniform play and schedules give, and asks no rule; so has a zero-play
    # simulation
    asked = []
    strat = (pe.RandomBehaviorStrategy(2, 1) if kind == "random-behavior" else
             pe.BehaviorStrategy(2, lambda h: asked.append(h) or np.array([0.3, 0.7])))
    mem = strat.start(0)
    for _ in range(4):
        assert strat.dist(mem).shape == (0, 2)
        mem = strat.step(mem, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert asked == []
    plays = pe.simulate_plays(redraw.pomdp, redraw.initial_belief, strat, 5, 0,
                              np.random.default_rng(0))
    assert [m.shape for m in plays] == [(0, 5)] * 3


def test_history_laws_are_asked_once_per_node_at_the_first_dist():
    # `step` asks the rule nothing; the first `dist` asks about each distinct
    # history once, in id order, and rows selected from that memory keep
    # the laws read
    asked = []
    strat = pe.BehaviorStrategy(2, lambda h: asked.append(h) or [0.25 + 0.5 * h.actions[0],
                                                                 0.75 - 0.5 * h.actions[0]])
    mem = strat.step(strat.start(3), np.array([1, 0, 1]), np.array([0, 0, 0]))
    assert asked == []
    first = strat.dist(mem)
    assert asked == [ObservedHistory((0,), (0,)), ObservedHistory((1,), (0,))]
    assert np.array_equal(strat.dist(mem[[2, 1, 1]]), first[[2, 1, 1]])
    assert np.array_equal(strat.dist(mem), first) and len(asked) == 2


def test_strategy_sizes_out_of_range_are_rejected():
    for n_actions in (0, 9):
        with pytest.raises(InvalidInputError):
            pe.RandomBehaviorStrategy(n_actions, seed=1)
    with pytest.raises(InvalidInputError):
        pe.uniform_strategy(0)
    for initial in (-1, 3):
        with pytest.raises(InvalidInputError):
            pe.Transducer(n_actions=2, n_signals=1, act=np.array([0]),
                          update=np.zeros((1, 2, 1), dtype=int), initial=initial)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, None, 2**63, -2**63 - 1,
                                  np.float64(4.0)])
def test_random_behavior_seed_must_be_an_int64(seed):
    # no truncation (1.5 was seed 1), no parsing ('3' was seed 3) and no
    # overflowing cast (2**63 gave an arbitrary law with a numpy warning)
    with pytest.raises(InvalidInputError, match="seed"):
        pe.RandomBehaviorStrategy(2, seed)


@pytest.mark.parametrize("make", [pe.RandomBehaviorStrategy,
                                  lambda n, seed: pe.uniform_strategy(n)])
@pytest.mark.parametrize("n_actions", [2.5, 2.0, "2", True, None, np.float64(2.0)])
def test_action_count_must_be_an_integer(make, n_actions):
    # 2.5 constructed a random behaviour rule that failed at its first law,
    # '2' and uniform play's 2.5 raised raw TypeErrors on first use, and
    # uniform play took True as one action
    with pytest.raises(InvalidInputError, match="action count"):
        make(n_actions, seed=1)


def test_action_count_takes_numpy_integers():
    for strat in (pe.RandomBehaviorStrategy(np.int64(3), 1), pe.uniform_strategy(np.int32(3))):
        assert type(strat.n_actions) is int and strat.n_actions == 3
        assert strat.action_distribution(ObservedHistory()).shape == (3,)


def test_random_behavior_seed_takes_every_int64():
    h = ObservedHistory((0, 1), (1, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (-2**63, -1, 0, 2**63 - 1):
            strat = pe.RandomBehaviorStrategy(2, seed)
            assert strat.action_distribution(h).tobytes() == _reference_hash_law(strat, h).tobytes()
    same = pe.RandomBehaviorStrategy(2, np.int64(3))
    assert type(same.seed) is int
    assert same.action_distribution(h).tobytes() == \
        pe.RandomBehaviorStrategy(2, 3).action_distribution(h).tobytes()


def _range_strategies():
    """One strategy of each class, on 2 actions; the transducer and the
    belief tracker know their 2 signals."""
    redraw = pe.builtin_scenario("matching-revealed")
    stat = pe.StationaryStrategy(2, [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]],
                                 [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    return {"random-behavior": pe.RandomBehaviorStrategy(2, 1),
            "behavior-rule": pe.BehaviorStrategy(2, lambda h: np.array([0.3, 0.7])),
            "uniform": pe.uniform_strategy(2),
            "schedule": pe.block_switch_strategy(2, 0, 1, 3),
            "transducer": pe.always_strategy(2, 2, 0),
            "belief-tracking": pe.belief_tracking_strategy(redraw.pomdp, redraw.initial_belief,
                                                           stat)}


OUT_OF_RANGE = [(-1, 0), (2, 0), (5, 0), (0, -1), (0.0, 0), (0, 1.0), (True, 0)]
PAST_S = [(1, 2), (0, 7)]


@pytest.mark.parametrize("name", list(_range_strategies()))
@pytest.mark.parametrize("pair", OUT_OF_RANGE + PAST_S)
def test_action_distribution_rejects_out_of_range_pairs(name, pair):
    # random behaviour read action -1 through the batch maximum's wrap, a
    # transducer played the last action after action -1 and raised IndexError
    # after action 5 or signal 7; a signal past S is out of range only to a
    # strategy that knows S
    strat = _range_strategies()[name]
    a, s = pair
    h = ObservedHistory((0, a, 1), (1, s, 0))
    if pair in PAST_S and not hasattr(strat, "n_signals"):
        assert _is_law(strat.action_distribution(h), 2)
        return
    with pytest.raises(InvalidInputError, match=re.escape(f"(action {a!r}, signal {s!r})")):
        strat.action_distribution(h)


def test_action_distribution_takes_numpy_integer_pairs():
    for strat in _range_strategies().values():
        h = ObservedHistory((np.int64(1), 0), (np.int32(1), np.int64(0)))
        want = strat.action_distribution(ObservedHistory((1, 0), (1, 0)))
        assert np.array_equal(strat.action_distribution(h), want)


def test_random_behavior_strategy_is_seed_deterministic():
    a = pe.RandomBehaviorStrategy(2, seed=5)
    b = pe.RandomBehaviorStrategy(2, seed=5)
    c = pe.RandomBehaviorStrategy(2, seed=6)
    h1 = ObservedHistory((0, 1), (0, 0))
    h2 = ObservedHistory((1, 1), (0, 0))
    d1 = a.action_distribution(h1)
    assert np.allclose(d1, b.action_distribution(h1))
    assert np.isclose(d1.sum(), 1.0) and np.all(d1 >= 0)
    assert not np.allclose(d1, c.action_distribution(h1))
    assert not np.allclose(d1, a.action_distribution(h2))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_block_switch_schedule():
    strat = pe.block_switch_strategy(2, first_action=0, second_action=1, switch_after=3)
    acts = [strat.action_at_stage(m) for m in range(1, 7)]
    assert acts == [0, 0, 0, 1, 1, 1]


def test_doubling_schedule_switch_stages():
    strat = pe.doubling_strategy()
    switches = [m for m in range(1, 1000) if strat.action_at_stage(m) == 1]
    assert switches == [3, 20, 533]
    assert strat.action_at_stage(66070) == 1
    assert strat.action_at_stage(66071) == 0


@pytest.mark.parametrize("strat", [
    pe.doubling_strategy(), pe.doubling_strategy(3, 2, 1), pe.doubling_strategy(2, 1, 1),
    pe.block_switch_strategy(2, 0, 1, 3), pe.block_switch_strategy(3, 2, 0, 0),
    pe.block_switch_strategy(2, 1, 0, 66_070), pe.block_switch_strategy(2, 0, 1, -5),
    pe.block_switch_strategy(2, 0, 1, 10 ** 6)])
def test_closed_form_stage_tables_equal_the_per_stage_loop(strat):
    n = 10 ** 5
    loop = [strat.action_at_stage(t) for t in range(1, n + 1)]
    for m in (0, 1, 2, 3, 19, 20, 21, 533, n):
        table = strat.stage_actions(m)
        assert table.dtype == np.intp and table.tolist() == loop[:m]
    mem = np.array([0, 532, 2, 66_069])
    assert np.array_equal(strat.dist(mem), np.eye(strat.n_actions)[[loop[m] for m in mem]])


def test_closed_form_stage_tables_check_the_action_range():
    for strat in (pe.doubling_strategy(2, 0, 2), pe.block_switch_strategy(2, 0, 5, 3)):
        assert strat.stage_actions(2).tolist() == [0, 0]
        with pytest.raises(pe.InvalidInputError, match="out of range"):
            strat.stage_actions(4)


# ---------------------------------------------------------------------------
# Transducers
# ---------------------------------------------------------------------------

def test_always_strategy_is_constant(blind):
    p = blind.pomdp
    t = pe.always_strategy(p.n_actions, p.n_signals, 1)
    for h in (ObservedHistory(), ObservedHistory((0, 1), (0, 0))):
        assert np.array_equal(t.action_distribution(h), [0.0, 1.0])


def test_transducer_memory_follows_update_table():
    # two memory cells flipping on every signal-1 observation
    update = np.zeros((2, 1, 2), dtype=int)
    update[0, 0] = [0, 1]
    update[1, 0] = [1, 0]
    t = pe.Transducer(n_actions=1, n_signals=2, act=np.array([0, 0]),
                      update=update, initial=0)

    def memory_after(actions, signals):
        mem = t.start(1)
        for a, s in zip(actions, signals):
            mem = t.step(mem, np.array([a]), np.array([s]))
        return int(mem[0])

    assert memory_after((0, 0), (1, 1)) == 0
    assert memory_after((0, 0, 0), (1, 0, 0)) == 1


def test_canonical_form_identifies_relabeled_memories():
    update = np.zeros((2, 2, 1), dtype=int)
    update[0, 0, 0] = 1
    update[1, 1, 0] = 0
    update[0, 1, 0] = 0
    update[1, 0, 0] = 1
    a = pe.Transducer(n_actions=2, n_signals=1, act=np.array([0, 1]),
                      update=update, initial=0)
    # apply the memory relabeling sigma = (0 1)
    sigma = np.array([1, 0])
    act_b = np.empty(2, dtype=int)
    update_b = np.empty_like(update)
    for j in range(2):
        act_b[sigma[j]] = a.act[j]
        update_b[sigma[j]] = sigma[a.update[j]]
    b = pe.Transducer(n_actions=2, n_signals=1, act=act_b, update=update_b,
                      initial=int(sigma[a.initial]))
    assert a.canonical_form() == b.canonical_form()


def test_enumerate_transducers_deduplicates(blind):
    p = blind.pomdp
    one = pe.enumerate_transducers(p, max_memory=1)
    assert len(one) == p.n_actions   # memory-1 machines are the constant plays
    two = pe.enumerate_transducers(p, max_memory=2)
    seen = {t.canonical_form() for t in two}
    assert len(seen) == len(two)
    assert all(t.n_memory <= 2 for t in two)
    assert len(two) > len(one)


def test_enumerate_transducers_respects_cap(rng):
    p = random_pomdp(rng, k=2, n_i=3, n_s=3)
    with pytest.raises(BudgetExceededError):
        pe.enumerate_transducers(p, max_memory=4, cap=100)


def test_transducer_dict_round_trip(blind):
    p = blind.pomdp
    for t in pe.enumerate_transducers(p, max_memory=2)[:5]:
        back = pe.transducer_from_dict(pe.transducer_to_dict(t))
        assert back.canonical_form() == t.canonical_form()


def _bfs_canonical_form(t):
    """The canonical form read off a built transducer's arrays, one BFS step
    per memory state: the reference for `_canonical_key`."""
    order, seen, pos = [t.initial], {t.initial: 0}, 0
    while pos < len(order):
        m = order[pos]
        pos += 1
        for s in range(t.n_signals):
            nxt = int(t.update[m, int(t.act[m]), s])
            if nxt not in seen:
                seen[nxt] = len(order)
                order.append(nxt)
    return (len(order), tuple(int(t.act[m]) for m in order),
            tuple(seen[int(t.update[m, int(t.act[m]), s])]
                  for m in order for s in range(t.n_signals)))


def _construct_then_canonicalise(n_i, n_s, max_memory):
    """The enumeration that builds every candidate transducer, filling its
    update table entry by entry, and then keeps those equal to their own
    canonical form, and the set of every candidate's form: the reference
    for `enumerate_transducers`."""
    out, forms = [], set()
    for m in range(1, max_memory + 1):
        for acts in itertools.product(range(n_i), repeat=m):
            for moves in itertools.product(range(m), repeat=m * n_s):
                update = np.empty((m, n_i, n_s), dtype=np.int64)
                for mm in range(m):
                    for i in range(n_i):
                        update[mm, i, :] = moves[mm * n_s:(mm + 1) * n_s]
                t = pe.Transducer(n_actions=n_i, n_signals=n_s, act=np.array(acts),
                                  update=update)
                form = _bfs_canonical_form(t)
                forms.add(form)
                if form == (m, acts, moves):
                    out.append(t)
    return out, forms


# every action and signal count in {1, 2, 3} and memory bound <= 3 whose
# candidate count stays under 20 000 (all but (2, 3, 3) and (3, 3, 3)); the
# domain is finite, so it is covered exhaustively
_ENUMERATION_CASES = [(n_i, n_s, mm) for n_i in (1, 2, 3) for n_s in (1, 2, 3)
                      for mm in (1, 2, 3)
                      if sum(n_i ** m * m ** (m * n_s) for m in range(1, mm + 1)) <= 20_000]


@pytest.mark.parametrize("n_i, n_s, max_memory", _ENUMERATION_CASES)
def test_enumeration_equals_the_construct_then_canonicalise_loop(n_i, n_s, max_memory):
    p = random_pomdp(np.random.default_rng(n_i * 10 + n_s), k=2, n_i=n_i, n_s=n_s)
    got = pe.enumerate_transducers(p, max_memory=max_memory)
    want, forms = _construct_then_canonicalise(n_i, n_s, max_memory)
    assert len(got) == len(want) == len(forms)
    for g, w in zip(got, want):
        assert (g.n_actions, g.n_signals, g.initial) == (w.n_actions, w.n_signals, w.initial)
        assert g.act.dtype == w.act.dtype and g.update.dtype == w.update.dtype
        assert np.array_equal(g.act, w.act) and np.array_equal(g.update, w.update)
        key = _canonical_key(g.act.tolist(), g.update[np.arange(g.n_memory), g.act].ravel().tolist(),
                             n_s)
        assert g.canonical_form() == key == _bfs_canonical_form(w)


def test_canonical_form_equals_the_bfs_reference(rng):
    # any initial memory, and update rows that differ across actions
    for _ in range(50):
        n_i, n_s, m = (int(v) for v in rng.integers(1, 4, size=3))
        t = pe.Transducer(n_i, n_s, rng.integers(0, n_i, size=m),
                          rng.integers(0, m, size=(m, n_i, n_s)), initial=int(rng.integers(m)))
        assert t.canonical_form() == _bfs_canonical_form(t)


@pytest.mark.parametrize("field, value", [
    ("act", [0.7]),                   # was action 0
    ("act", np.array([1.0])),
    ("act", [True]),                  # was action 1
    ("act", ["1"]),                   # was action 1
    ("update", np.zeros((1, 2, 1))),  # a float table of integral values
    ("update", [[[False], [True]]]),
    ("initial", 0.5),                 # was memory 0
    ("initial", True),
    ("n_actions", 2.0),
    ("n_signals", np.float64(1.0)),
])
def test_transducer_rejects_non_integer_tables(field, value):
    # the JSON form rejects these already; a table built in Python is not
    # truncated either
    args = {"n_actions": 2, "n_signals": 1, "act": np.array([1]),
            "update": np.zeros((1, 2, 1), dtype=np.int64), "initial": 0, field: value}
    with pytest.raises(InvalidInputError, match="non-integer"):
        pe.Transducer(**args)


def test_transducer_accepts_every_integer_dtype():
    t = pe.Transducer(np.int32(2), 1, np.array([1], dtype=np.uint8),
                      np.zeros((1, 2, 1), dtype=np.int16), initial=np.int64(0))
    assert (t.n_actions, t.initial) == (2, 0) and type(t.n_actions) is int
    assert t.act.dtype == t.update.dtype == np.int64
    for act in (np.array([-1]), np.array([2]), np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(InvalidInputError, match="action map out of range"):
            pe.Transducer(2, 1, act, np.zeros((1, 2, 1), dtype=np.int64))


@pytest.mark.parametrize("kwargs", [{"max_memory": 2.5}, {"max_memory": "2"},
                                    {"max_memory": True}, {"max_memory": 2, "cap": None},
                                    {"max_memory": 2, "cap": 10.5}])
def test_enumeration_bounds_must_be_integers(kwargs):
    # these raised raw TypeErrors, or ran as max_memory 1 and cap 10
    p = random_pomdp(np.random.default_rng(0), k=2, n_i=2, n_s=2)
    with pytest.raises(InvalidInputError, match="non-integer"):
        pe.enumerate_transducers(p, **kwargs)


def test_enumeration_builds_only_the_transducers_it_returns(rng, monkeypatch):
    # a work count with no timing: a change that builds the discarded
    # candidates again (5 898 for these sizes) fails here
    built = []
    check = pe.Transducer.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    monkeypatch.setattr(pe.Transducer, "__post_init__", counted)
    out = pe.enumerate_transducers(p, max_memory=3)
    assert len(out) == 1778
    assert len(built) == len(out)


# ---------------------------------------------------------------------------
# Stationary strategies
# ---------------------------------------------------------------------------

def test_stationary_lookup_absorbs_float_drift():
    stat = pe.StationaryStrategy(2, [np.array([0.5, 0.5]), np.array([1.0, 0.0])],
                                 [np.array([0.2, 0.8]), np.array([1.0, 0.0])])
    row = stat.at_beliefs(np.array([[0.5 + 1e-12, 0.5 - 1e-12]]))
    assert np.allclose(row, [[0.2, 0.8]])
    with pytest.raises(InvalidInputError):
        stat.at_beliefs(np.array([[1.0, 0.0], [0.8, 0.2]]))
    with pytest.raises(InvalidInputError):
        stat.action_distribution(ObservedHistory())


def test_belief_tracking_replays_bayes_updates(revealed_matching):
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    stat = pe.StationaryStrategy(
        2,
        [np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        [np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.0, 1.0])],
    )
    strat = pe.belief_tracking_strategy(p, x1, stat)
    assert np.allclose(strat.action_distribution(ObservedHistory()), [0.5, 0.5])
    # after observing the revealing signal, play the matching action
    assert np.allclose(strat.action_distribution(ObservedHistory((0,), (0,))), [1.0, 0.0])
    assert np.allclose(strat.action_distribution(ObservedHistory((0,), (1,))), [0.0, 1.0])


# ---------------------------------------------------------------------------
# The batched interface against per-history rules
# ---------------------------------------------------------------------------

def _reference_hash_law(strat, h):
    """Per-history RandomBehaviorStrategy rule: blake2b of the interleaved
    int64 key (seed, a_1, s_1, a_2, s_2, ...), hashed from scratch."""
    key = (strat.seed,) + tuple(v for pair in h.pairs for v in pair)
    digest = hashlib.blake2b(
        np.asarray(key, dtype=np.int64).tobytes(), digest_size=8 * strat.n_actions
    ).digest()
    raw = np.frombuffer(digest, dtype=np.uint64).astype(float) + 1.0
    return raw / raw.sum()


def _reference_at_belief(stat, x):
    """Nearest-support lookup, one support point at a time."""
    x = canonical_belief(x)
    dists = np.array([np.abs(x - y).sum() for y in stat.support])
    j = int(dists.argmin())
    if dists[j] > 1e-9:
        raise InvalidInputError("belief away from the strategy support")
    return stat.action_dists[j]


def _reference_belief_law(p, x1, stat, h):
    """Belief tracking by replaying every Bayes update from stage 1."""
    x = np.asarray(x1, dtype=float)
    for a, s in zip(h.actions, h.signals):
        x = pe.bayes_update(p, x, a, s)
    return _reference_at_belief(stat, x)


def _reference_transducer_law(t, h):
    """Transducer memory walk along the history, then its action."""
    m = t.initial
    for a, s in zip(h.actions, h.signals):
        m = int(t.update[m, a, s])
    out = np.zeros(t.n_actions)
    out[int(t.act[m])] = 1.0
    return out


def _law_or_error(law, *args):
    try:
        return law(*args)
    except InvalidInputError:
        return None


@settings(max_examples=80, deadline=None)
@given(case=sparse_instances(), length=hst.integers(0, 3), width=hst.integers(1, 5))
def test_batched_interface_matches_per_history_rules(case, length, width):
    # random histories, often off the support of the instance; the tracker's
    # support holds every belief reached in at most two stages and the Dirac
    # at the first state, with action laws that depend on the belief
    p, x1, rng = case
    n_i, n_s, k = p.n_actions, p.n_signals, p.n_states
    actions = rng.integers(0, n_i, (width, length))
    signals = rng.integers(0, n_s, (width, length))
    histories = [ObservedHistory(tuple(a), tuple(s))
                 for a, s in zip(actions.tolist(), signals.tolist())]
    pairs = list(itertools.product(range(n_i), range(n_s)))
    short = [ObservedHistory(tuple(a for a, _ in q), tuple(s for _, s in q))
             for m in range(3) for q in itertools.product(pairs, repeat=m)]
    reached = {pe.belief_key(pe.dirac_belief(k, 0)): pe.dirac_belief(k, 0)}
    for h in short:
        y = np.asarray(x1, dtype=float)
        for a, s in h.pairs:
            y = pe.bayes_update(p, y, a, s)
        reached.setdefault(pe.belief_key(y), y)
    support = list(reached.values())
    weight = rng.random((n_i, k)) + 0.1
    stat = pe.StationaryStrategy(n_i, support, [weight @ y / (weight @ y).sum() for y in support])
    m = int(rng.integers(1, 4))
    table = rng.dirichlet(np.ones(n_i), 7)
    cases = [
        (pe.RandomBehaviorStrategy(n_i, int(rng.integers(0, 1000))), _reference_hash_law, True),
        (pe.BehaviorStrategy(n_i, lambda h: table[(sum(h.actions) + 3 * sum(h.signals)) % 7]),
         lambda s, h: s.rule(h), True),
        (pe.belief_tracking_strategy(p, x1, stat),
         lambda s, h: _reference_belief_law(p, x1, stat, h), False),
        (pe.Transducer(n_i, n_s, rng.integers(0, n_i, m), rng.integers(0, m, (m, n_i, n_s)),
                       initial=int(rng.integers(0, m))), _reference_transducer_law, True),
    ]
    for strat, reference, exact in cases:
        mem = strat.start(width)
        for t in range(length):
            mem = strat.step(mem, actions[:, t], signals[:, t])
        for j, h in enumerate(histories):
            want = _law_or_error(reference, strat, h)
            for got in (_law_or_error(strat.action_distribution, h),
                        _law_or_error(lambda: strat.dist(mem[[j]])[0])):
                assert (got is None) == (want is None)
                if want is None:
                    continue
                if exact:
                    assert got.dtype == np.float64 and got.tobytes() == np.asarray(want).tobytes()
                else:
                    assert np.allclose(got, want, rtol=0, atol=1e-9)


class _CountedHash:
    """A blake2b state that counts its copies, fed bytes and digests."""

    def __init__(self, state, log):
        self.state, self.log = state, log

    def copy(self):
        self.log["copies"] += 1
        return _CountedHash(self.state.copy(), self.log)

    def update(self, data):
        self.log["fed"].append(len(data))
        self.state.update(data)

    def digest(self):
        self.log["digests"] += 1
        return self.state.digest()


def _distinct_prefixes(actions, signals, m):
    """The number of distinct observed prefixes of length m among the plays."""
    return len({(a[:m], s[:m]) for a, s in zip(map(tuple, actions.tolist()),
                                                map(tuple, signals.tolist()))})


def test_random_behavior_hashes_16_bytes_per_new_history(revealed_matching, monkeypatch):
    # a work count with no timing: each stage makes one child state per
    # distinct new history, fed its (a, s) pair as 16 bytes, and digests each
    # history whose law is read once; rehashing whole histories fails here
    log = {"roots": 0, "copies": 0, "fed": [], "digests": 0}

    def blake2b(data, **kw):
        log["roots"] += 1
        return _CountedHash(hashlib.blake2b(data, **kw), log)

    monkeypatch.setattr(strategies, "hashlib", types.SimpleNamespace(blake2b=blake2b))
    p, x1 = revealed_matching.pomdp, revealed_matching.initial_belief
    horizon, samples = 40, 6
    strat = pe.RandomBehaviorStrategy(2, 9)
    _, actions, signals = pe.simulate_plays(p, x1, strat, horizon, samples,
                                            np.random.default_rng(4))
    new = [_distinct_prefixes(actions, signals, m) for m in range(horizon + 1)]
    assert new[-1] == samples           # the plays part, so the count is not trivial
    assert log["roots"] == 1
    assert log["copies"] == sum(new[1:])            # the kernel's last step makes length h
    assert log["fed"] == [16] * log["copies"]
    assert log["digests"] == sum(new[:-1])          # laws read at stages 1..h
