"""Span tracing of `pomdp_evals` from outside the package.

`install` wraps every public function of the traced layers, the CLI
subcommand handlers, and the public methods of the classes those layers
define.  Modules reach each other through `from .x import f`, so each
wrapper replaces every binding of its original in every package module, not
only the defining one; `unwrapped_bindings` then confirms that no module or
class attribute still points at an original.

A span records (name, start, end, parent, raised).  Spans are kept in flat
arrays while the pass runs and reduced afterwards: a span's self time is its
duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "values", "evaluations", "playspace", "chain", "measures",
          "strategies", "model")
CLI_COMMANDS = ("reproduce", "evaluate", "irregularity", "value", "limsup", "liminf")
MC_ESTIMATORS = ("values.weighted_payoff_mc", "values.weighted_payoff_and_irregularity_mc",
                 "values.limsup_belief_payoff_mc", "evaluations.irregularity_mc")
DP_ENTRY = ("values.value_n", "values.value_discounted", "values.value_n_sequence",
            "values.asymptotic_value_estimate")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.work = array("d")     # per-span work count (cells, plays, edges, ...)
        self.stack = [-1]
        self.notes: dict = {}     # name -> max of a per-call ratio
        self.originals: dict = {}  # original function -> wrapper

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn, variant=None, work=None):
        """Wrapper recording one span per call.  `variant(args, kwargs)` picks
        a name suffix per call; `work(args, kwargs, out)` gives the span's
        work count on success."""
        base = self._id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = tr._id(f"{name}.{variant(args, kwargs)}") if variant else base
            idx = len(tr.start)
            tr.name_of.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.raised.append(0)
            tr.work.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tr.raised[idx] = 1
                raise
            finally:
                tr.end[idx] = time.perf_counter()
                tr.stack.pop()
            if work is not None:
                tr.work[idx] = work(args, kwargs, out)
            return out

        return traced

    def job(self, name: str, fn):
        """Run one job inside a root span `job.<name>`."""
        return self.wrap(f"job.{name}", fn)()


# ---------------------------------------------------------------------------
# Work extractors: what each traced call processed
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _sim_variant(args, kwargs):
    from pomdp_evals.strategies import ScheduleStrategy, Transducer

    strat = _arg(args, kwargs, 2, "strat")
    if isinstance(strat, Transducer):
        return "transducer"
    return "schedule" if isinstance(strat, ScheduleStrategy) else "generic"


def _sim_cells(args, kwargs, out):
    return float(out[0].size)


def _enum_plays(tracer):
    def work(args, kwargs, out):
        from pomdp_evals.playspace import DEFAULT_NODE_BUDGET

        budget = _arg(args, kwargs, 4, "budget", DEFAULT_NODE_BUDGET)
        key = "playspace.enumerate_plays.budget_frac"
        tracer.notes[key] = max(tracer.notes.get(key, 0.0), len(out) / budget)
        return float(len(out))
    return work


def _work_specs(tracer) -> dict:
    return {
        "playspace.simulate_plays": (_sim_variant, _sim_cells),
        "playspace.batched_belief_payoffs": (None, lambda a, k, out: float(out.size)),
        "playspace.enumerate_plays": (None, _enum_plays(tracer)),
        "evaluations.Evaluation.batch_weights": (None, lambda a, k, out: float(out.size)),
        "measures.kr_distance": (None, lambda a, k, out: float(
            len(_arg(a, k, 0, "mu").atoms) * len(_arg(a, k, 1, "nu").atoms))),
        "chain.ergodic_decomposition": (None, lambda a, k, out: float(
            _arg(a, k, 0, "c").n_states)),
    }


# ---------------------------------------------------------------------------
# Installation and the binding self-check
# ---------------------------------------------------------------------------

def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pomdp_evals" or name.startswith("pomdp_evals."))]


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"pomdp_evals.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if layer == "cli" and attr.startswith("_cmd_"):
                    out.append((f"cli.{attr[5:]}", mod, attr, obj))
                elif not attr.startswith("_"):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                for meth, fn in vars(obj).items():
                    raw = fn.__func__ if isinstance(fn, staticmethod) else fn
                    if inspect.isfunction(raw) and not meth.startswith("_"):
                        out.append((f"{layer}.{attr}.{meth}", obj, meth, fn))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every traced callable and rebind it in every package module."""
    specs = _work_specs(tracer)
    for name, owner, attr, obj in _targets():
        raw = obj.__func__ if isinstance(obj, staticmethod) else obj
        variant, work = specs.get(name, (None, None))
        wrapped = tracer.wrap(name, raw, variant, work)
        tracer.originals[raw] = wrapped
        setattr(owner, attr, staticmethod(wrapped) if isinstance(obj, staticmethod) else wrapped)
    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in tracer.originals:
                setattr(mod, attr, tracer.originals[obj])


def unwrapped_bindings(tracer: Tracer) -> list:
    """Module and class attributes that still point at an original."""
    left = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in tracer.originals:
                left.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__.startswith("pomdp_evals"):
                for meth, fn in vars(obj).items():
                    raw = fn.__func__ if isinstance(fn, staticmethod) else fn
                    if inspect.isfunction(raw) and raw in tracer.originals:
                        left.append(f"{obj.__module__}.{attr}.{meth}")
    return sorted(set(left))


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_names() -> list:
    """(metric, unit) for every per-layer metric, in report order."""
    m = [
        ("playspace.simulate_plays.transducer.cells_per_s", "cells/s"),
        ("playspace.simulate_plays.schedule.cells_per_s", "cells/s"),
        ("playspace.simulate_plays.generic.cells_per_s", "cells/s"),
        ("playspace.batched_belief_payoffs.cells_per_s", "cells/s"),
        ("playspace.batched_belief_payoffs.self_s", "s"),
        ("playspace.enumerate_plays.plays_per_s", "plays/s"),
        ("playspace.enumerate_plays.self_s", "s"),
        ("playspace.enumerate_plays.budget_frac", "fraction"),
        ("playspace.belief_sequence.calls", "count"),
        ("evaluations.batch_weights.cells_per_s", "cells/s"),
        ("evaluations.batch_weights.self_s", "s"),
        ("evaluations.batch_pathwise_irregularity.self_s", "s"),
        ("evaluations.weights.calls", "count"),
        ("evaluations.weights.self_s", "s"),
        ("evaluations.irregularity_exact.self_s", "s"),
        ("evaluations.conditional_table.self_s", "s"),
        ("values.belief_dp.miss.expansions", "count"),
        ("values.belief_dp.miss.nodes_per_s", "nodes/s"),
        ("values.belief_dp.hit.expansions", "count"),
        ("values.belief_dp.hit.nodes_per_s", "nodes/s"),
        ("values.mc.self_s", "s"),
        ("values.running_average_extremum.self_s", "s"),
        ("chain.product_chain.self_s", "s"),
        ("chain.ergodic_decomposition.self_s", "s"),
        ("chain.ergodic_decomposition.states", "count"),
        ("chain.mixing_threshold.self_s", "s"),
        ("strategies.enumerate_transducers.self_s", "s"),
        ("strategies.action_distribution.calls", "count"),
        ("model.bayes_update.calls", "count"),
        ("model.belief_transition.calls", "count"),
        ("measures.occupation_measure.self_s", "s"),
        ("measures.disintegrate.self_s", "s"),
        ("measures.image_measure.self_s", "s"),
        ("measures.kr_distance.edges", "count"),
        ("measures.kr_distance.self_s", "s"),
    ]
    m += [(f"cli.{c}.wall_s", "s") for c in CLI_COMMANDS]
    m += [(f"{layer}.errors", "count") for layer in LAYERS]
    m += [(f"{layer}.self_s", "s") for layer in LAYERS]
    m += [("trace.unattributed_s", "s"), ("trace.wall_s", "s"),
          ("trace.overhead", "ratio")]
    return m


def work_counts(tracer: Tracer) -> dict:
    """Calls and summed work per span name (jobs excluded): the nominal work
    of a pass, which must not depend on the seed."""
    n = len(tracer.start)
    nid = np.frombuffer(tracer.name_of, dtype=np.int32)[:n]
    work = np.frombuffer(tracer.work, dtype=np.float64)[:n]
    calls = np.bincount(nid, minlength=len(tracer.names))
    total = np.bincount(nid, weights=work, minlength=len(tracer.names))
    return {name: [int(calls[j]), float(total[j])] for j, name in enumerate(tracer.names)
            if calls[j] and not name.startswith("job.")}


def reduce(tracer: Tracer, job_tags: dict, wall: float) -> dict:
    """Per-layer metrics from the recorded spans of one pass of `wall`
    seconds.  `job_tags` maps a job span name to its tags (e.g. {"dp":
    "miss", "actions": 2}).  Rates divide work by the inclusive time of the
    spans that did it; whatever no layer span covers is unattributed."""
    n = len(tracer.start)
    names = np.array(tracer.names, dtype=object)
    nid = np.frombuffer(tracer.name_of, dtype=np.int32)[:n]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[:n]
    dur = np.frombuffer(tracer.end, dtype=np.float64)[:n] - \
        np.frombuffer(tracer.start, dtype=np.float64)[:n]
    raised = np.frombuffer(tracer.raised, dtype=np.int8)[:n]
    work = np.frombuffer(tracer.work, dtype=np.float64)[:n]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    span_name = names[nid]
    layer = np.array([s.split(".", 1)[0] for s in tracer.names], dtype=object)[nid]
    parent_name = np.where(has_parent, span_name[np.maximum(parent, 0)], "")
    root = np.arange(n)
    while np.any(parent[root] >= 0):
        root = np.where(parent[root] >= 0, parent[root], root)
    root_name = span_name[root]

    def sel(*full):
        return np.isin(span_name, list(full))

    def ends(suffix):
        return np.array([s.endswith(suffix) for s in span_name], dtype=bool)

    def rate(mask):
        t = float(dur[mask].sum())
        return float(work[mask].sum()) / t if t > 0 else 0.0

    def s_(mask):
        return float(self_time[mask].sum())

    def count(mask):
        return float(np.count_nonzero(mask))

    out = {}
    for kind in ("transducer", "schedule", "generic"):
        out[f"playspace.simulate_plays.{kind}.cells_per_s"] = \
            rate(sel(f"playspace.simulate_plays.{kind}"))
    bbp = sel("playspace.batched_belief_payoffs")
    out["playspace.batched_belief_payoffs.cells_per_s"] = rate(bbp)
    out["playspace.batched_belief_payoffs.self_s"] = s_(bbp)
    ep = sel("playspace.enumerate_plays")
    out["playspace.enumerate_plays.plays_per_s"] = rate(ep)
    out["playspace.enumerate_plays.self_s"] = s_(ep)
    out["playspace.enumerate_plays.budget_frac"] = \
        tracer.notes.get("playspace.enumerate_plays.budget_frac", 0.0)
    out["playspace.belief_sequence.calls"] = count(sel("playspace.belief_sequence"))
    bw = sel("evaluations.Evaluation.batch_weights")
    out["evaluations.batch_weights.cells_per_s"] = rate(bw)
    out["evaluations.batch_weights.self_s"] = s_(bw)
    out["evaluations.batch_pathwise_irregularity.self_s"] = \
        s_(sel("evaluations.batch_pathwise_irregularity"))
    w = sel("evaluations.Evaluation.weights")
    out["evaluations.weights.calls"] = count(w)
    out["evaluations.weights.self_s"] = s_(w)
    out["evaluations.irregularity_exact.self_s"] = s_(sel("evaluations.irregularity_exact"))
    out["evaluations.conditional_table.self_s"] = s_(sel("evaluations.conditional_table"))
    # belief_transition spans opened directly under a DP entry point are the
    # DP's own expansions (one per action per belief node)
    dp_outer = sel(*DP_ENTRY) & ~np.isin(parent_name, list(DP_ENTRY))
    expansion = sel("model.belief_transition") & np.isin(parent_name, list(DP_ENTRY))
    for group in ("miss", "hit"):
        exp = t = 0.0
        for job, tags in job_tags.items():
            if tags.get("dp") == group:
                in_job = root_name == job
                exp += count(expansion & in_job) / tags["actions"]
                t += float(dur[dp_outer & in_job].sum())
        out[f"values.belief_dp.{group}.expansions"] = exp
        out[f"values.belief_dp.{group}.nodes_per_s"] = exp / t if t > 0 else 0.0
    out["values.mc.self_s"] = s_(sel(*MC_ESTIMATORS))
    out["values.running_average_extremum.self_s"] = s_(sel("values.running_average_extremum"))
    out["chain.product_chain.self_s"] = s_(sel("chain.product_chain"))
    ed = sel("chain.ergodic_decomposition")
    out["chain.ergodic_decomposition.self_s"] = s_(ed)
    out["chain.ergodic_decomposition.states"] = float(work[ed].sum())
    out["chain.mixing_threshold.self_s"] = s_(sel("chain.mixing_threshold"))
    out["strategies.enumerate_transducers.self_s"] = s_(sel("strategies.enumerate_transducers"))
    out["strategies.action_distribution.calls"] = \
        count(ends(".action_distribution") & (layer == "strategies"))
    out["model.bayes_update.calls"] = count(sel("model.bayes_update"))
    out["model.belief_transition.calls"] = count(sel("model.belief_transition"))
    for fn in ("occupation_measure", "disintegrate", "image_measure"):
        out[f"measures.{fn}.self_s"] = s_(sel(f"measures.{fn}"))
    kr = sel("measures.kr_distance")
    out["measures.kr_distance.edges"] = float(work[kr].sum())
    out["measures.kr_distance.self_s"] = s_(kr)
    for c in CLI_COMMANDS:
        out[f"cli.{c}.wall_s"] = float(dur[sel(f"cli.{c}")].sum())
    for lay in LAYERS:
        out[f"{lay}.errors"] = count((layer == lay) & (raised == 1))
        out[f"{lay}.self_s"] = s_(layer == lay)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(out[f"{lay}.self_s"] for lay in LAYERS)
    return out
