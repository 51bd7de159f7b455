"""Workload definitions: the inputs each workload generates from its seed and
the fixed list of jobs it runs against `pomdp_evals`.

Every job is either a CLI call (`cli.main(argv)` in-process, stdout
captured) or a direct API call.  A job's `check` compares its output with an
oracle from `oracles.py`, which shares no code path with the package; checks
run after the timed pass.  Sizes come in two sets: `full` for measurement and
`quick` for the benchmark's own self-check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("mc-wide", "mc-deep", "exact-tree")


@dataclass
class Job:
    """One unit of work in a pass.

    `run` performs the call and returns its raw output; `summary` turns that
    output into JSON data (compared across passes of one run); `check`
    returns None when the output is right, else the reason it is not.
    `known_failure` names the ROADMAP item a job is expected to fail on.
    `tags` group jobs for per-layer metrics (e.g. the DP memo-miss job).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    summary: Callable[[object], object]
    known_failure: Optional[str] = None
    tags: dict = field(default_factory=dict)


SIZES = {
    "full": {
        "ex2_l": 9, "ex2_n": 10_000, "known_h": 2000, "known_n": 1000,
        "generic_h": 100, "generic_n": 500,
        "theta_h": 400, "theta_n": 2000,
        "irr_h": 2000, "irr_n": 4000,
        "blind_h": 100_000, "deep_h": 50_000, "deep_n": 4,
        "tracking_h": 300, "tracking_n": 4,
        "hashing_h": 2000, "hashing_n": 2,
        "dp_h": 9, "nmax": 800, "tree_h": 4, "sweep_m": 3, "chain_m": 300,
    },
    "quick": {
        "ex2_l": 4, "ex2_n": 200, "known_h": 200, "known_n": 100,
        "generic_h": 30, "generic_n": 40,
        "theta_h": 60, "theta_n": 200,
        "irr_h": 200, "irr_n": 200,
        "blind_h": 20_000, "deep_h": 2000, "deep_n": 2,
        "tracking_h": 40, "tracking_n": 2,
        "hashing_h": 100, "hashing_n": 2,
        "dp_h": 4, "nmax": 40, "tree_h": 2, "sweep_m": 2, "chain_m": 20,
    },
}


# ---------------------------------------------------------------------------
# Job helpers
# ---------------------------------------------------------------------------

class CliFailure(Exception):
    """A CLI job exited with a non-zero code."""


def cli_job(name: str, argv: list, check, **kw) -> Job:
    """Job running `pomdp-evals <argv>` in-process; output is its records."""

    def run():
        from pomdp_evals import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise CliFailure(f"exit {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue())["records"]

    def summary(recs):  # the instance field names a per-process input path
        return [{k: v for k, v in r.items() if k != "instance"} for r in recs]

    return Job(name, run, check, summary, **kw)


def records_by_parameter(records: list) -> dict:
    return {r["parameter"]: r for r in records}


def all_pass(records: list) -> Optional[str]:
    failed = [r["parameter"] for r in records if r.get("pass") is False]
    return f"pass flag false on {failed}" if failed else None


def first(*reasons) -> Optional[str]:
    return next((r for r in reasons if r), None)


def digest_arrays(arrays) -> list:
    return [hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()
            for a in arrays]


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------

def random_instance(rng: np.random.Generator, k: int = 3, n_i: int = 2, n_s: int = 2):
    """Dense random POMDP tables: every transition cell and reward positive,
    so no two observed histories share a belief."""
    trans = rng.uniform(0.05, 1.0, size=(k, n_i, k * n_s))
    trans /= trans.sum(axis=2, keepdims=True)
    reward = rng.uniform(0.05, 1.0, size=(k, n_i))
    return trans.reshape(k, n_i, k, n_s), reward, np.full(k, 1.0 / k)


def scenario_document(trans: np.ndarray, reward: np.ndarray, x1: np.ndarray) -> dict:
    k, n_i, _, n_s = trans.shape
    st = [f"k{j}" for j in range(k)]
    ac = [f"a{j}" for j in range(n_i)]
    sg = [f"s{j}" for j in range(n_s)]
    return {
        "states": st, "actions": ac, "signals": sg,
        "transition": {f"{st[a]},{ac[i]}": {f"{st[b]},{sg[s]}": float(trans[a, i, b, s])
                                            for b in range(k) for s in range(n_s)}
                       for a in range(k) for i in range(n_i)},
        "reward": {f"{st[a]},{ac[i]}": float(reward[a, i])
                   for a in range(k) for i in range(n_i)},
        "initial_belief": [float(v) for v in x1],
    }


def mc_seeds(rng: np.random.Generator, n: int) -> list:
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=n)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def mc_wide(seed: int, z: dict) -> list:
    """Many sampled plays over long horizons: transducer and generic
    simulation, batch weights and the MC shard loop and reduction."""
    import oracles as o

    s = mc_seeds(np.random.default_rng(seed), 5)
    l, ex2_n, kh, kn = z["ex2_l"], z["ex2_n"], z["known_h"], z["known_n"]
    ex2_h = max(50 * l, 9 * 2 ** (l + 1))    # the horizon `reproduce ex2` picks

    def check_ex2(recs):
        r = records_by_parameter(recs)
        return first(all_pass(recs),
                     o.close(r["ergodic_value"]["value"], 0.5, 1e-12, "ergodic value"),
                     o.run_block_payoff(r[f"mc_payoff_l{l}"], l, ex2_h, ex2_n),
                     o.run_block_irregularity(r[f"mc_irregularity_l{l}"], l, ex2_h, ex2_n))

    def check_known(recs):
        r = records_by_parameter(recs)
        return first(all_pass(recs),
                     o.lift_state_limsup(r["state_limsup"], kh, kn),
                     o.close(r["belief_limsup"]["value"], 0.5 * (kh - 1) / kh, 1e-12,
                             "belief limsup"))

    gh, gn = z["generic_h"], z["generic_n"]
    th, tn = z["theta_h"], z["theta_n"]
    ih, i_n = z["irr_h"], z["irr_n"]
    redraw = ["--scenario", "uniform-redraw"]
    return [
        cli_job("reproduce-ex2",
                ["reproduce", "ex2", "--l", l, "--samples", ex2_n, "--seed", s[0]], check_ex2),
        cli_job("reproduce-known-payoffs",
                ["reproduce", "known-payoffs", "--horizon", kh, "--samples", kn,
                 "--seed", s[1]], check_known),
        cli_job("evaluate-generic-run-block",
                ["evaluate", *redraw, "--strategy", "uniform",
                 "--evaluation", '{"kind":"run_block_ex2","l":3}',
                 "--horizon", gh, "--samples", gn, "--seed", s[2]],
                lambda recs: o.run_block_payoff(recs[0], 3, gh, gn)),
        cli_job("evaluate-limsup-theta",
                ["evaluate", *redraw, "--strategy", "always:0",
                 "--evaluation", json.dumps({"kind": "limsup_theta", "l": 4, "horizon": th}),
                 "--horizon", th, "--samples", tn, "--seed", s[3]],
                lambda recs: o.mc_band(recs[0], 0.5, 0.25, tn, "limsup_theta payoff")),
        cli_job("irregularity-run-block",
                ["irregularity", *redraw, "--strategy", "always:0",
                 "--evaluation", '{"kind":"run_block_ex2","l":6}',
                 "--horizon", ih, "--samples", i_n, "--seed", s[4]],
                lambda recs: o.run_block_irregularity(recs[0], 6, ih, i_n)),
    ]


def mc_deep(seed: int, z: dict) -> list:
    """Few plays over very many stages: per-stage dispatch in the schedule,
    transducer and generic simulation paths and in belief payoffs."""
    import pomdp_evals as pe

    import oracles as o

    rng = np.random.default_rng(seed)
    s = mc_seeds(rng, 5)
    dist = rng.dirichlet(np.ones(2))
    bh, dh, dn = z["blind_h"], z["deep_h"], z["deep_n"]
    th, tn = z["tracking_h"], z["tracking_n"]
    hh, hn = z["hashing_h"], z["hashing_n"]

    def check_blind(recs):
        r = records_by_parameter(recs)
        return first(all_pass(recs),
                     o.close(r["transducer_sweep"]["value"], 0.5, 1e-9, "sweep maximum"))

    redraw = pe.builtin_scenario("uniform-redraw")
    stationary = pe.StationaryStrategy(2, [redraw.initial_belief], [dist])
    lift = pe.builtin_scenario("blind-switching-lift")
    hashing = pe.RandomBehaviorStrategy(2, s[4])
    lift_tables = o.Tables(np.array(lift.pomdp.transition), np.array(lift.pomdp.reward),
                           np.array(lift.initial_belief))

    def tracking_run():
        # built inside the pass: the strategy binds bayes_update when created
        tracking = pe.belief_tracking_strategy(redraw.pomdp, redraw.initial_belief,
                                               stationary)
        return pe.limsup_belief_payoff_mc(redraw.pomdp, redraw.initial_belief, tracking,
                                          th, tn, s[3], mode="limsup", payoff_on="belief")

    def hashing_run():
        return pe.simulate_plays(lift.pomdp, lift.initial_belief, hashing, hh, hn,
                                 np.random.default_rng(s[4]))

    blind = ["--scenario", "blind-switching"]
    return [
        cli_job("reproduce-blind-limsup",
                ["reproduce", "blind-limsup", "--horizon", bh, "--seed", s[0]], check_blind),
        cli_job("limsup-belief-always-B",
                ["limsup", *blind, "--strategy", "always:B", "--horizon", dh,
                 "--samples", dn, "--payoff-on", "belief", "--seed", s[1]],
                lambda recs: o.close(recs[0]["value"], 0.5, 1e-12, "belief limsup")),
        cli_job("liminf-always-T",
                ["liminf", *blind, "--strategy", "always:T", "--seed", s[2]],
                lambda recs: o.close(recs[0]["value"], 0.5, 1e-12, "liminf value")),
        Job("api-limsup-belief-tracking", tracking_run,
            lambda rep: o.close(rep.value, 0.5, 1e-12, "belief-tracking limsup"),
            summary=lambda rep: [rep.value, rep.error_bound]),
        Job("api-simulate-random-behavior", hashing_run,
            lambda out: o.feasible_plays(lift_tables, *out, hn, hh),
            summary=digest_arrays),
    ]


def exact_tree(seed: int, z: dict, workdir: Path, known_failures: bool) -> list:
    """No sampling: belief DP with and without shared beliefs, tree
    enumeration with per-play weights, measures and transport, and chain
    decomposition."""
    import pomdp_evals as pe

    import oracles as o

    rng = np.random.default_rng(seed)
    trans, reward, x1 = random_instance(rng)
    tables = o.Tables(trans, reward, x1)
    scen_path = workdir / "random-instance.json"
    scen_path.write_text(json.dumps(scenario_document(trans, reward, x1)))
    m = z["chain_m"]
    memory = {"type": "transducer", "n_actions": 2, "n_signals": 2, "initial": 0,
              "act": rng.integers(0, 2, size=m).tolist(),
              "update": rng.integers(0, m, size=(m, 2, 2)).tolist()}
    memory_path = workdir / "memory-transducer.json"
    memory_path.write_text(json.dumps(memory))
    sc = pe.load_scenario(str(scen_path))
    p, xs = sc.pomdp, sc.initial_belief
    big = pe.transducer_from_dict(json.loads(memory_path.read_text()))
    uniform = pe.uniform_strategy(2)
    dh, nmax, h, sweep_m = z["dp_h"], z["nmax"], z["tree_h"], z["sweep_m"]
    block = pe.make_evaluation("state_block_ex1", l=2)
    stages = pe.make_evaluation("n_stage", n=h)

    def transport_run():
        occ = pe.occupation_measure(p, xs, uniform, stages, h)
        _, induced = pe.disintegrate(p, xs, uniform, stages, h)
        return occ, induced, pe.invariance_residual(p, occ.measure, induced)

    def sweep_run():
        ts = pe.enumerate_transducers(p, max_memory=sweep_m)
        return ts, [pe.liminf_value_transducer(p, xs, t) for t in ts]

    def chain_run():
        c = pe.product_chain(p, big, xs)
        dec = pe.ergodic_decomposition(c)
        return c.n_states, dec, pe.mixing_threshold(c, dec)

    def check_revealed(recs):
        r = records_by_parameter(recs)
        disc, asym = r["lam=0.05"], r[f"nmax={nmax}"]
        return first(
            o.close(disc["value"], 1 - 0.05 / 2, disc["error_bound"] + 1e-12, "v_lambda"),
            o.close(asym["value"], 1 - 0.5 / nmax, 1e-12, f"v_{nmax}"))

    rand = ["--scenario", scen_path]
    jobs = [
        cli_job("value-random-h", ["value", *rand, "--horizon", dh],
                lambda recs: o.close(recs[0]["value"], o.belief_dp_value(tables, dh), 1e-9,
                                     "v_n"),
                tags={"dp": "miss", "actions": 2}),
        cli_job("value-revealed-shared",
                ["value", "--scenario", "matching-revealed", "--nmax", nmax,
                 "--discount", 0.05], check_revealed, tags={"dp": "hit", "actions": 2}),
        cli_job("evaluate-random-discounted",
                ["evaluate", *rand, "--strategy", "uniform",
                 "--evaluation", '{"kind":"discounted","lam":0.3}', "--horizon", h],
                lambda recs: o.close(recs[0]["value"],
                                     o.discounted_payoff_uniform(tables, 0.3, h), 1e-12,
                                     "discounted payoff")),
        cli_job("irregularity-random-state-block",   # l=2 needs horizon >= 4
                ["irregularity", *rand, "--strategy", "uniform",
                 "--evaluation", '{"kind":"state_block_ex1","l":2}', "--horizon", max(h, 4)],
                lambda recs: o.close(recs[0]["value"], 2 / 2, 1e-12, "irregularity")),
        Job("api-conditional-table",
            lambda: pe.conditional_table(p, xs, uniform, block, h),
            lambda t: o.conditional_table(tables, t, 2, h),
            summary=lambda t: sorted([str(k), v] for k, v in t.rho.items())),
        Job("api-occupation-transport", transport_run,
            lambda out: o.occupation_transport(tables, out, h),
            summary=lambda out: [out[0].measure.n_atoms, out[2]]),
        Job("api-transducer-sweep", sweep_run,
            lambda out: o.transducer_sweep(tables, *out, expected=1778 if sweep_m == 3 else None),
            summary=lambda out: [len(out[0]), out[1]]),
        Job("api-memory-chain", chain_run,
            lambda out: o.memory_chain(tables, memory, *out),
            summary=lambda out: [out[0], [list(c) for c in out[1].classes],
                                 list(out[1].class_values), out[2]]),
    ]
    if known_failures:
        jobs[2:2] = [cli_job("value-revealed-discount-0.01",
                             ["value", "--scenario", "matching-revealed", "--discount", 0.01],
                             check=lambda recs: None,
                             known_failure="ROADMAP item 4: recursive belief DP raises "
                                           "RecursionError at horizon 1375")]
        jobs.append(cli_job("evaluate-redraw-budget",
                            ["evaluate", "--scenario", "uniform-redraw", "--strategy",
                             "uniform", "--evaluation", '{"kind":"discounted","lam":0.5}',
                             "--horizon", 30, "--budget", 200_000],
                            check=lambda recs: None,
                            known_failure="ROADMAP item 3: tree enumeration of 4^30 plays "
                                          "exceeds the node budget"))
    return jobs


def build(workload: str, seed: int, workdir: Path, quick: bool = False,
          known_failures: bool = False) -> list:
    """Generate the workload's inputs from `seed`, writing input files to
    `workdir`, and return its job list."""
    z = SIZES["quick" if quick else "full"]
    if workload == "mc-wide":
        return mc_wide(seed, z)
    if workload == "mc-deep":
        return mc_deep(seed, z)
    if workload == "exact-tree":
        return exact_tree(seed, z, workdir, known_failures)
    raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")
