"""Regenerate `cli.jsonl`, the golden outputs of the command line, and
`behavior.jsonl`, the golden plays of behaviour strategies.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case in `CASES` runs `pomdp_evals.cli.main` in-process from this
directory, so the fixture files beside this script are named relative to it.
The first line of `cli.jsonl` records the numpy version; every other line
holds one case: its argv, exit code and stdout (and stderr for the exit
codes the package chooses, 1 and 2), and whether the output comes from
Monte Carlo draws, which depend on numpy's generator streams.

`behavior.jsonl` has the same numpy header.  Each other line holds one
`BehaviorStrategy` rule (`BEHAVIOR_RULES`) on one builtin scenario and seed
under one kernel, `simulate_plays` or `enumerate_plays`: int64 digests of
the play arrays and the ordered list of the histories the rule was asked
about.

Regenerate only for a deliberate output change, and list the moved records
in `CHANGES.md`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli.jsonl"
BEHAVIOR = HERE / "behavior.jsonl"

SCENARIOS = ("matching-frozen", "matching-revealed", "uniform-redraw",
             "blind-switching", "blind-switching-lift")
BLOCK4 = '{"kind": "state_block_ex1", "l": 4}'
RUN3 = '{"kind": "run_block_ex2", "l": 3}'


def _cases() -> list:
    out = [["validate", "--scenario", "uniform-redraw"]]
    for name in SCENARIOS:
        out.append(["value", "--scenario", name, "--horizon", "6", "--discount", "0.3",
                    "--nmax", "12"])
    out += [
        ["value", "--scenario", "matching-revealed", "--horizon", "8", "--nmax", "16"],
        ["value", "--scenario", "blind-switching", "--horizon", "5", "--format", "csv"],
        # exact and Monte Carlo weighted payoffs and irregularity
        ["evaluate", "--scenario", "matching-frozen", "--strategy", "hold:0:4:1",
         "--evaluation", BLOCK4, "--horizon", "8"],
        ["irregularity", "--scenario", "matching-frozen", "--strategy", "hold:0:4:1",
         "--evaluation", BLOCK4, "--horizon", "8"],
        ["evaluate", "--scenario", "uniform-redraw", "--strategy", "uniform",
         "--evaluation", RUN3, "--horizon", "6"],
        ["irregularity", "--scenario", "uniform-redraw", "--strategy", "uniform",
         "--evaluation", '{"kind": "discounted", "lam": 0.3}', "--horizon", "6"],
        ["evaluate", "--scenario", "matching-revealed", "--strategy", "uniform",
         "--evaluation", '{"kind": "piecewise_constant", "breaks": [2, 4], "levels": [0.5, 0.25]}',
         "--horizon", "4"],
        ["evaluate", "--scenario", "blind-switching", "--strategy", "doubling",
         "--evaluation", '{"kind": "discounted", "lam": 0.2}', "--horizon", "20"],
        ["evaluate", "--scenario", "uniform-redraw", "--strategy", "uniform",
         "--evaluation", '{"kind": "limsup_theta", "l": 2, "horizon": 6}', "--horizon", "6"],
        ["evaluate", "--scenario", "uniform-redraw", "--strategy", "uniform",
         "--evaluation", RUN3, "--horizon", "60", "--samples", "200", "--seed", "3"],
        ["irregularity", "--scenario", "uniform-redraw", "--strategy", "always:0",
         "--evaluation", RUN3, "--horizon", "60", "--samples", "200", "--seed", "3"],
        ["evaluate", "--scenario", "blind-switching-lift", "--strategy", "uniform",
         "--evaluation", '{"kind": "limsup_theta", "l": 4, "horizon": 30}', "--horizon", "30",
         "--samples", "50", "--seed", "1"],
        # long-run proxies and the chain of a finite-memory strategy
        ["limsup", "--scenario", "blind-switching", "--strategy", "doubling",
         "--horizon", "2000", "--samples", "1", "--window-start", "1"],
        ["liminf", "--scenario", "blind-switching", "--strategy", "always:T"],
        ["limsup", "--scenario", "uniform-redraw", "--strategy", "uniform",
         "--horizon", "200", "--samples", "40", "--payoff-on", "belief", "--seed", "2"],
        ["liminf", "--scenario", "matching-revealed", "--strategy", "uniform",
         "--horizon", "200", "--samples", "40", "--payoff-on", "belief", "--seed", "2"],
        ["ergodic", "--scenario", "uniform-redraw", "--strategy", "always:wait"],
        ["ergodic", "--scenario", "blind-switching-lift", "--strategy", "always:B"],
        # transport residuals of belief measures
        ["invariance", "--scenario", "uniform-redraw", "--measure", "measure_redraw.json"],
        ["invariance", "--scenario", "matching-revealed", "--measure",
         "measure_revealed.json"],
        ["invariance", "--scenario", "matching-revealed", "--measure",
         "measure_revealed.json", "--strategy", "stationary_revealed.json"],
        ["invariance", "--scenario", "blind-switching", "--measure", "measure_blind.json",
         "--strategy", "stationary_blind.json"],
    ]
    for seed in ("0", "1"):
        out += [
            ["reproduce", "ex1", "--l", "4", "--seed", seed],
            ["reproduce", "ex2", "--l", "3", "--samples", "200", "--horizon", "120",
             "--seed", seed],
            ["reproduce", "blind-limsup", "--horizon", "3000", "--seed", seed],
            ["reproduce", "known-payoffs", "--horizon", "300", "--samples", "40",
             "--seed", seed],
        ]
    out += [
        ["value", "--scenario", "no-such-scenario", "--horizon", "2"],      # exit 1
        ["evaluate", "--scenario", "uniform-redraw", "--strategy", "uniform",
         "--evaluation", RUN3, "--horizon", "6", "--budget", "10"],         # exit 2
        ["liminf", "--scenario", "blind-switching", "--strategy", "always:T",
         "--budget", "5"],                                                   # exit 64
    ]
    return out


CASES = _cases()


def run_case(argv: list) -> dict:
    """Run `cli.main(argv)` in this directory: its exit code, stdout and
    stderr."""
    from pomdp_evals.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:       # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(argv: list) -> dict:
    """The golden line of one case."""
    run = run_case(argv)
    line = {"argv": list(argv), "exit": run["exit"], "stdout": run["stdout"],
            "monte_carlo": "monte_carlo" in run["stdout"]}
    if run["exit"] in (1, 2):
        line["stderr"] = run["stderr"]
    return line


BEHAVIOR_SCENARIOS = ("matching-revealed", "blind-switching-lift")
BEHAVIOR_SEEDS = (0, 1)
BEHAVIOR_RULES = ("constant", "last-signal", "history-sum")


def behavior_rule(name: str, n_actions: int, seed: int):
    """A rule ObservedHistory -> action law drawn from `seed`: one constant
    law, that law rolled by the last signal, or a row of a 7-row table
    picked by the action and signal sums of the whole history."""
    rng = np.random.default_rng(seed)
    law, table = rng.dirichlet(np.ones(n_actions)), rng.dirichlet(np.ones(n_actions), 7)
    return {"constant": lambda h: law,
            "last-signal": lambda h: np.roll(law, h.signals[-1] if h else 0),
            "history-sum": lambda h: table[(sum(h.actions) + 3 * sum(h.signals)) % 7]}[name]


def array_digest(a: np.ndarray) -> int:
    """An int64 digest of an array's shape and values (ints as int64,
    floats as float64)."""
    a = np.asarray(a)
    a = a.astype(np.int64 if a.dtype.kind in "iu" else np.float64)
    raw = np.array(a.shape, dtype=np.int64).tobytes() + a.tobytes()
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little", signed=True)


BEHAVIOR_CASES = [(scenario, seed, rule, kernel) for scenario in BEHAVIOR_SCENARIOS
                  for seed in BEHAVIOR_SEEDS for rule in BEHAVIOR_RULES
                  for kernel in ("simulate", "enumerate")]


def behavior_record(scenario: str, seed: int, rule: str, kernel: str) -> dict:
    """The golden line of one behaviour-strategy case: 8 sampled plays of
    12 stages, or every play of 4 stages."""
    import pomdp_evals as pe

    sc = pe.builtin_scenario(scenario)
    p, x1 = sc.pomdp, sc.initial_belief
    law, asked = behavior_rule(rule, p.n_actions, seed), []

    def logged(h):
        asked.append([list(h.actions), list(h.signals)])
        return law(h)

    strat = pe.BehaviorStrategy(p.n_actions, logged)
    if kernel == "simulate":
        arrays = pe.simulate_plays(p, x1, strat, 12, 8, np.random.default_rng(seed))
    else:
        batch = pe.enumerate_plays(p, x1, strat, 4)
        arrays = (batch.states, batch.actions, batch.signals, batch.prob)
    return {"case": [scenario, seed, rule, kernel],
            "digests": [array_digest(a) for a in arrays], "asked": asked}


def main() -> None:
    header = json.dumps({"numpy": np.__version__})
    lines = [header] + [json.dumps(record(argv)) for argv in CASES]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
    lines = [header] + [json.dumps(behavior_record(*case)) for case in BEHAVIOR_CASES]
    BEHAVIOR.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(BEHAVIOR_CASES)} cases to {BEHAVIOR}", file=sys.stderr)


if __name__ == "__main__":
    main()
