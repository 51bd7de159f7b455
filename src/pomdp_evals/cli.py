"""Command-line front end: scenario validation, value and payoff computation,
ergodic diagnostics, invariance residuals, and pinned reproduction runs."""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from .chain import (ergodic_decomposition, liminf_value_transducer,
                    mixing_threshold, product_chain)
from .errors import (BudgetExceededError, InvalidInputError, PomdpEvalError,
                     ScenarioValidationError, TruncationError)
from .evaluations import (evaluation_from_spec, irregularity_exact,
                          irregularity_mc, make_evaluation)
from .instances import builtin_scenario, builtin_strategy
from .measures import SupportedMeasure, invariance_residual
from .model import Scenario, belief_graph, load_scenario, make_belief, names_a_file
from .playspace import DEFAULT_NODE_BUDGET, GRAPH_BELIEFS, reduce_sampled_plays
from .strategies import (StationaryStrategy, Transducer, enumerate_transducers,
                         transducer_from_dict)
from .values import (asymptotic_value_estimate, average_extrema, check_long_run_inputs,
                     limsup_belief_payoff_mc, long_run_payoffs_mc, value_discounted, value_n,
                     weighted_payoff_and_irregularity_mc,
                     weighted_payoff_exact, weighted_payoff_mc)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64

CSV_COLUMNS = ("command", "instance", "parameter", "value", "error_bound",
               "method", "seed")


class _Parser(argparse.ArgumentParser):
    subcommands = None   # the action holding the subcommands of a parser that has them

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n{self.format_usage()}")

    def add_subparsers(self, **kwargs):
        self.subcommands = super().add_subparsers(**kwargs)
        return self.subcommands

    def parse_known_args(self, args=None, namespace=None):
        # options belong to the subcommand, so they follow its name; say so
        # rather than take an option's value for the name
        if self.subcommands is not None:
            args = sys.argv[1:] if args is None else list(args)
            at = next((n for n, a in enumerate(args) if a in self.subcommands.choices), len(args))
            if any(a.startswith("--") and a != "--help" for a in args[:at]):
                name = args[at] if at < len(args) else next(iter(self.subcommands.choices))
                self.error(f"options follow the {self.subcommands.dest} name, for example "
                           f"'{self.prog} {name} {' '.join(args[:at])}'")
        # argparse hands a subcommand's unknown options up to the top-level
        # parser; reject them here, so the error names the subcommand and
        # shows its own usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _record(command, instance, parameter, value, error_bound, method, seed=None,
            **extra) -> dict:
    rec = {
        "command": command,
        "instance": instance,
        "parameter": parameter,
        "value": None if value is None else float(value),
        "error_bound": None if error_bound is None else float(error_bound),
        "method": method,
        "seed": seed,
    }
    rec.update(extra)
    return rec


def _emit(records, fmt: str, timing: float = None) -> None:
    if fmt == "json":
        doc = {"records": records}
        if timing is not None:
            doc["wall_time_s"] = round(timing, 3)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([rec.get(c, "") for c in CSV_COLUMNS])
        sys.stdout.write(buf.getvalue())


def _load(args) -> Scenario:
    src = args.scenario
    if src is None:
        raise InvalidInputError("--scenario is required for this command")
    if names_a_file(src):
        return load_scenario(_json_file(src, "scenario"))
    return builtin_scenario(src)


def _json_file(path: str, what: str) -> dict:
    """The JSON object in the file `path`, holding the command's `what`."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"{what} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{what} file {path} is not UTF-8 text: {exc.reason} "
                                f"at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{what} file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} file {path} does not hold a JSON object")
    return doc


def _strategy(args, scenario: Scenario):
    name, p = args.strategy, scenario.pomdp
    if name is None:
        raise InvalidInputError("--strategy is required for this command")
    if not names_a_file(name):
        return builtin_strategy(name, p)
    doc = _json_file(name, "strategy")
    if doc.get("type") != "transducer":
        raise InvalidInputError(f"strategy file {name} has unsupported type")
    t = transducer_from_dict(doc)
    for field, have, need in (("n_actions", t.n_actions, p.n_actions),
                              ("n_signals", t.n_signals, p.n_signals)):
        if have != need:
            raise InvalidInputError(f"strategy file {name}: transducer field {field!r} is "
                                    f"{have}, the scenario has {need}")
    return t


def _evaluation(args) -> tuple:
    """(pomdp, x1, strategy, evaluation, horizon) for evaluate and
    irregularity; the estimators check the evaluation's state indices
    against the scenario."""
    scenario = _load(args)
    strat = _strategy(args, scenario)
    spec = args.evaluation
    if spec is None:
        raise InvalidInputError("--evaluation is required for this command")
    if names_a_file(spec):
        spec = _json_file(spec, "evaluation")
    return (scenario.pomdp, scenario.initial_belief, strat, evaluation_from_spec(spec),
            args.horizon)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> list:
    scenario = _load(args)
    return [_record("validate", str(args.scenario), "states", scenario.pomdp.n_states,
                    0.0, "exact_dp", args.seed, ok=True)]


def _cmd_value(args) -> list:
    scenario = _load(args)
    p, x1 = scenario.pomdp, scenario.initial_belief
    out = []
    if args.horizon is not None:
        rep = value_n(p, x1, args.horizon, budget=args.budget)
        out.append(_record("value", str(args.scenario), f"n={args.horizon}",
                           rep.value, rep.error_bound, rep.method, args.seed))
    if args.discount is not None:
        rep = value_discounted(p, x1, args.discount, budget=args.budget)
        out.append(_record("value", str(args.scenario), f"lam={args.discount}",
                           rep.value, rep.error_bound, rep.method, args.seed))
    if args.nmax is not None:
        rep = asymptotic_value_estimate(p, x1, args.nmax, budget=args.budget)
        out.append(_record("value", str(args.scenario), f"nmax={args.nmax}",
                           rep.value, rep.error_bound, rep.method, args.seed))
    if not out:
        raise InvalidInputError("value needs --horizon, --discount, or --nmax")
    return out


def _cmd_evaluate(args) -> list:
    p, x1, strat, e, horizon = _evaluation(args)
    if args.samples is not None:
        rep = weighted_payoff_mc(p, x1, strat, e, horizon, args.samples, args.seed)
    else:
        rep = weighted_payoff_exact(p, x1, strat, e, horizon, budget=args.budget)
    return [_record("evaluate", str(args.scenario), e.kind, rep.value,
                    rep.error_bound, rep.method, args.seed)]


def _cmd_irregularity(args) -> list:
    p, x1, strat, e, horizon = _evaluation(args)
    if args.samples is not None:
        est = irregularity_mc(p, x1, strat, e, horizon, args.samples, args.seed)
        return [_record("irregularity", str(args.scenario), e.kind, est.mean,
                        3.0 * est.std_error, "monte_carlo", args.seed)]
    rep = irregularity_exact(p, x1, strat, e, horizon, budget=args.budget)
    return [_record("irregularity", str(args.scenario), e.kind, rep.value,
                    rep.tail_bound, "exact_dp", args.seed)]


def _cmd_ergodic(args) -> list:
    scenario = _load(args)
    chain = product_chain(scenario.pomdp, _strategy(args, scenario),
                          scenario.initial_belief)
    dec = ergodic_decomposition(chain)
    out = []
    for d, (idx, pi, gamma, absorb) in enumerate(
            zip(dec.classes, dec.stationary, dec.class_values, dec.absorption)):
        out.append(_record("ergodic", str(args.scenario), f"class_{d}", gamma,
                           0.0, "ergodic_exact", args.seed,
                           states=[str(chain.labels[j]) for j in idx],
                           stationary=[float(v) for v in pi],
                           absorption=float(absorb)))
    out.append(_record("ergodic", str(args.scenario), "mixing_threshold",
                       mixing_threshold(chain, dec), 0.0, "ergodic_exact",
                       args.seed, transient=len(dec.transient)))
    return out


def _long_run(args, mode: str) -> list:
    """The expected `mode` ("limsup" or "liminf") average payoff, by one rule
    for both modes.  The sizes are checked first (`check_long_run_inputs`),
    whichever path answers.  A transducer's play is a finite Markov chain:
    on (state, memory) for state payoffs, and for belief payoffs on (state,
    memory, belief id) when the beliefs reachable from x1 close into the
    graph `belief_payoff_blocks` walks (`belief_graph` within GRAPH_BELIEFS).
    There the Cesaro averages converge almost surely, so the expected
    limsup and liminf both equal the absorption-weighted class payoff,
    which `liminf_value_transducer` computes exactly on the product chain.
    Belief payoffs give the same value on a closed orbit: for each n,
    E[avg_n g] = E[avg_n r], since g(x_m, i_m) = E[r(k_m, i_m) | observed
    history]; both averages converge almost surely on the finite chain, and
    bounded convergence passes the equality to the limit.  Every other case
    (a strategy without finite memory, or belief payoffs on an open orbit,
    where Fatou's lemma makes the state-chain value only a bound) runs the
    Monte Carlo proxy over `--horizon` stages."""
    scenario = _load(args)
    p, x1 = scenario.pomdp, scenario.initial_belief
    strat = _strategy(args, scenario)
    check_long_run_inputs(args.horizon, args.samples, args.seed, args.window_start)
    if isinstance(strat, Transducer) and (args.payoff_on == "state" or
                                          belief_graph(p, x1, GRAPH_BELIEFS) is not None):
        value, bound, method = liminf_value_transducer(p, x1, strat), 0.0, "ergodic_exact"
    else:
        rep = limsup_belief_payoff_mc(p, x1, strat, args.horizon, args.samples, args.seed,
                                      mode=mode, payoff_on=args.payoff_on,
                                      window_start=args.window_start)
        value, bound, method = rep.value, rep.error_bound, rep.method
    return [_record(mode, str(args.scenario), args.strategy, value, bound, method,
                    args.seed)]


def _cmd_liminf(args) -> list:
    return _long_run(args, "liminf")


def _cmd_limsup(args) -> list:
    return _long_run(args, "limsup")


def _cmd_invariance(args) -> list:
    scenario = _load(args)
    p = scenario.pomdp
    if args.measure is None:
        raise InvalidInputError("--measure is required for invariance")
    mu = SupportedMeasure.from_dict(_json_file(args.measure, "measure"))
    support = [x for x, _ in mu.atoms]
    rows = [np.full(p.n_actions, 1.0 / p.n_actions)] * len(support)
    if args.strategy is not None:     # a stationary strategy's file, never a builtin
        doc = _json_file(args.strategy, "strategy")
        try:
            support = [make_belief(x) for x in doc["support"]]
            rows = [np.asarray(r, dtype=float) for r in doc["rows"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"strategy file {args.strategy} needs 'support' beliefs "
                                    f"and 'rows' ({type(exc).__name__}: {exc})") from None
    strat = StationaryStrategy(n_actions=p.n_actions, support=support, action_dists=rows)
    res = invariance_residual(p, mu, strat)
    return [_record("invariance", str(args.scenario), "residual", res, 0.0,
                    "exact_dp", args.seed)]


# ---------------------------------------------------------------------------
# Reproduction harness
# ---------------------------------------------------------------------------

def _flagged(rec: dict, ok: bool) -> dict:
    rec["pass"] = bool(ok)
    return rec


def _reproduce_ex1(args) -> list:
    scenario = builtin_scenario("matching-frozen")
    p, x1 = scenario.pomdp, scenario.initial_belief
    l = args.l
    baseline = value_n(p, x1, 50)
    e = make_evaluation("state_block_ex1", l=l)
    strat = builtin_strategy(f"hold:0:{l}:1", p)
    payoff = weighted_payoff_exact(p, x1, strat, e, horizon=2 * l)
    irr = irregularity_exact(p, x1, strat, e, horizon=2 * l)
    return [
        _flagged(_record("reproduce", "ex1", "baseline_value", baseline.value,
                         0.0, baseline.method, args.seed),
                 abs(baseline.value - 0.5) <= 1e-9),
        _flagged(_record("reproduce", "ex1", f"weighted_payoff_l{l}", payoff.value,
                         payoff.error_bound, payoff.method, args.seed),
                 abs(payoff.value - 1.0) <= 1e-9),
        _flagged(_record("reproduce", "ex1", f"irregularity_l{l}", irr.value,
                         irr.tail_bound, "exact_dp", args.seed),
                 abs(irr.value - 2.0 / l) <= 1e-9),
    ]


def _reproduce_ex2(args) -> list:
    scenario = builtin_scenario("uniform-redraw")
    p, x1 = scenario.pomdp, scenario.initial_belief
    l, samples, horizon = args.l, args.samples, args.horizon
    e = make_evaluation("run_block_ex2", l=l)
    if horizon is None:   # a length-l target run then fits inside with prob ~1-e^-9
        horizon = max(50 * l, 9 * 2 ** (l + 1))
    strat = builtin_strategy("always:0", p)
    chain = product_chain(p, strat, x1)
    dec = ergodic_decomposition(chain)
    gamma = dec.class_values[0] if dec.n_classes == 1 else float("nan")
    payoff, irr = weighted_payoff_and_irregularity_mc(
        p, x1, strat, e, horizon, samples, args.seed)
    return [
        _flagged(_record("reproduce", "ex2", "ergodic_value", gamma, 0.0,
                         "ergodic_exact", args.seed, classes=dec.n_classes),
                 dec.n_classes == 1 and abs(gamma - 0.5) <= 1e-9),
        _flagged(_record("reproduce", "ex2", f"mc_payoff_l{l}", payoff.value,
                         payoff.error_bound, payoff.method, args.seed),
                 payoff.value >= 0.99),
        _flagged(_record("reproduce", "ex2", f"mc_irregularity_l{l}", irr.mean,
                         3.0 * irr.std_error, "monte_carlo", args.seed),
                 abs(irr.mean - 2.0 / l) <= 3.0 * irr.std_error + 1e-9),
    ]


def _reproduce_blind(args) -> list:
    from .model import dirac_belief

    scenario = builtin_scenario("blind-switching")
    p, x1 = scenario.pomdp, scenario.initial_belief
    horizon = args.horizon
    strat = builtin_strategy("doubling", p)
    out = []
    sweep = [liminf_value_transducer(p, x1, t)
             for t in enumerate_transducers(p, max_memory=2)]
    out.append(_flagged(
        _record("reproduce", "blind-limsup", "transducer_sweep", max(sweep), 0.0,
                "ergodic_exact", args.seed, n_transducers=len(sweep)),
        max(abs(v - 0.5) for v in sweep) <= 1e-9))
    sups, infs = [], []

    def both_ways(blocks):
        return average_extrema(((t0, p.reward[st, ac]) for t0, _, st, ac, _ in blocks),
                               horizon, 1)

    # one simulated play per start, reduced both ways; a single sample is one
    # shard, so its generator is the one a limsup/liminf estimate would use
    for k in range(2):
        sup, inf = reduce_sampled_plays(p, dirac_belief(2, k), strat, horizon, 1,
                                        args.seed, both_ways)
        sups.append(float(sup[0]))
        infs.append(float(inf[0]))
    out.append(_flagged(
        _record("reproduce", "blind-limsup", "limsup_proxy", min(sups), 0.0,
                "monte_carlo", args.seed, per_start=sups),
        min(sups) >= 0.9))
    out.append(_flagged(
        _record("reproduce", "blind-limsup", "liminf_proxy",
                sum(infs) / 2, 0.0, "monte_carlo", args.seed, per_start=infs),
        sum(infs) / 2 <= 0.2))
    return out


def _reproduce_known(args) -> list:
    scenario = builtin_scenario("blind-switching-lift")
    p, x1 = scenario.pomdp, scenario.initial_belief
    horizon, samples = args.horizon, args.samples
    strat = builtin_strategy("always:0", p)
    state, belief = long_run_payoffs_mc(p, x1, strat, horizon, samples, args.seed,
                                        mode="limsup", bases=("state", "belief"))
    # the base belief stays uniform, so each play's belief payoff is 0 at
    # stage 1 (the lift pins the recorded reward to 0) and 1/2 afterwards; the
    # prefix average (m-1)/(2m) grows with m, so the limsup proxy is (h-1)/(2h)
    expected = (horizon - 1) / (2 * horizon)
    checks = (f"belief limsup equals (h-1)/(2h) = {expected:.12g} within 1e-9 under "
              "always:0; gap to the state limsup is reported only, as the lift "
              "has no known payoffs")
    return [
        _record("reproduce", "known-payoffs", "state_limsup", state.value,
                state.error_bound, state.method, args.seed),
        _flagged(_record("reproduce", "known-payoffs", "belief_limsup",
                         belief.value, belief.error_bound, belief.method,
                         args.seed, gap=abs(state.value - belief.value), checks=checks),
                 abs(belief.value - expected) <= 1e-9),
    ]


_REPRODUCERS = {
    "ex1": _reproduce_ex1,
    "ex2": _reproduce_ex2,
    "blind-limsup": _reproduce_blind,
    "known-payoffs": _reproduce_known,
}


def _cmd_reproduce(args) -> list:
    return _REPRODUCERS[args.example](args)


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

# add_argument keywords of each option; a subcommand names the options it
# reads, each with its own default
_OPTIONS = {
    "scenario": {"help": "builtin name or JSON file"},
    "strategy": {"help": "builtin name or JSON file"},
    "evaluation": {"help": "inline JSON or file"},
    "measure": {"help": "JSON file with belief atoms"},
    "horizon": {"type": int},
    "samples": {"type": int},
    "budget": {"type": int},
    "discount": {"type": float},
    "nmax": {"type": int},
    "l": {"type": int},
    "payoff_on": {"choices": ("state", "belief")},
    "window_start": {"type": int},
}


def _leaf(group, name: str, func, help: str = None, **defaults) -> None:
    """Subcommand `name` of `group` running `func`.  It accepts the options
    named in `defaults`, with those defaults, and the output options --seed
    (every record carries it), --format and --timing."""
    sp = group.add_parser(name, help=help)
    for key, default in defaults.items():
        sp.add_argument("--" + key.replace("_", "-"), default=default, **_OPTIONS[key])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--timing", action="store_true", help="include wall time in JSON output")
    sp.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pomdp-evals",
                     description="values, payoffs and diagnostics for finite "
                                 "POMDPs with history-dependent stage weights")
    sub = parser.add_subparsers(dest="command", required=True)
    played = {"scenario": None, "strategy": None}
    weighted = dict(played, evaluation=None, horizon=50, samples=None,
                    budget=DEFAULT_NODE_BUDGET)
    long_run = dict(played, horizon=1000, samples=100, payoff_on="state", window_start=None)

    _leaf(sub, "validate", _cmd_validate, "validate a scenario file", scenario=None)
    _leaf(sub, "value", _cmd_value, "finite-horizon / discounted / long-run values",
          scenario=None, horizon=None, discount=None, nmax=None, budget=DEFAULT_NODE_BUDGET)
    _leaf(sub, "evaluate", _cmd_evaluate, "weighted payoff of a strategy", **weighted)
    _leaf(sub, "irregularity", _cmd_irregularity, "irregularity of an evaluation",
          **weighted)
    _leaf(sub, "ergodic", _cmd_ergodic, "ergodic decomposition of a strategy chain",
          **played)
    _leaf(sub, "liminf", _cmd_liminf, "liminf average payoff", **long_run)
    _leaf(sub, "limsup", _cmd_limsup, "limsup average payoff", **long_run)
    _leaf(sub, "invariance", _cmd_invariance, "transport residual of a belief measure",
          **played, measure=None)

    reproduce = sub.add_parser("reproduce", help="pinned example reproductions")
    examples = reproduce.add_subparsers(dest="example", required=True)
    _leaf(examples, "blind-limsup", _cmd_reproduce, horizon=100_000)
    _leaf(examples, "ex1", _cmd_reproduce, l=8)
    _leaf(examples, "ex2", _cmd_reproduce, l=10, samples=10_000, horizon=None)
    _leaf(examples, "known-payoffs", _cmd_reproduce, horizon=2000, samples=1000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        records = args.func(args)
    except (ScenarioValidationError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (BudgetExceededError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PomdpEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit(records, args.format,
          timing=time.monotonic() - start if args.timing else None)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
