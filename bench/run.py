"""Benchmark of `pomdp_evals`: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from `src/`):

    python3 bench/run.py --workload mc-wide --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --report [--seed 1] [--seconds 35]
    python3 bench/run.py --selfcheck

A run starts fresh worker processes (`bench/worker.py`) one after another
until `--seconds` would be exceeded; each does its own set-up and one pass
over the workload's jobs.  The first worker also checks every job's output
against an independent oracle; later workers must reproduce its outputs
exactly.  With `--trace 0` the metrics are the medians of the untraced
workers' wall time and peak RSS, and of their set-up time together with that
of set-up probes run before each worker.  With `--trace 1` untraced and
traced workers alternate and the metrics are the traced workers' per-layer
medians plus the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

`--report` runs every workload untraced and traced (with the two jobs known
to fail, ROADMAP items 3 and 4, added to `exact-tree`), checks that a second seed gives
the same nominal work, prints every metric with its unit and writes
`.bench_out/report.json`.  `--selfcheck` does the same at tiny sizes.  Both
exit 1 on any unexpected result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_names  # noqa: E402  (bench-local module)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RUN_DEADLINE_S = 170.0      # a run must end within 180 s, child timeouts included
OUT_DIR = Path(".bench_out")
PROBES_PER_WORKER = 2       # set-up-only workers before each untraced worker


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def commit() -> str:
    """HEAD commit of the checkout, or 'unknown' outside a git work tree."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, *, check: bool = False, trace: bool = False,
               quick: bool = False, known_failures: bool = False, setup_only: bool = False,
               deadline: float) -> dict:
    """One worker process; returns its result with `setup_s` added."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"worker-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += [flag for flag, on in (("--check", check), ("--trace", trace), ("--quick", quick),
                                  ("--known-failures", known_failures),
                                  ("--setup-only", setup_only)) if on]
    out.unlink(missing_ok=True)
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker for {workload} passed the run deadline")
    if proc.returncode != 0 or not out.is_file():
        raise WorkerFailed(f"worker for {workload} exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    doc = json.loads(out.read_text())
    out.unlink()
    doc["setup_s"] = doc["first_job"] - launched
    doc["process_s"] = time.monotonic() - launched
    return doc


def run(workload: str, seed: int, seconds: float, trace: bool, *, quick: bool = False,
        known_failures: bool = False, started: float = None) -> dict:
    """Workers one after another until the next one would pass `seconds`.
    In an untraced run each worker is preceded by set-up probes, so that
    `setup_s`, the shortest and noisiest interval, gets more samples spread
    over the whole run."""
    started = time.monotonic() if started is None else started
    deadline = started + RUN_DEADLINE_S
    plain, traced, probes = [], [], []
    while True:
        use_trace = trace and len(plain) > len(traced)
        new_probes = [] if trace else [
            run_worker(workload, seed, quick=quick, setup_only=True, deadline=deadline)
            for _ in range(PROBES_PER_WORKER)]
        doc = run_worker(workload, seed, check=not plain and not traced, trace=use_trace,
                         quick=quick, known_failures=known_failures, deadline=deadline)
        (traced if use_trace else plain).append(doc)
        probes += new_probes
        step = doc["process_s"] + sum(p["process_s"] for p in new_probes)
        if time.monotonic() - started + step > seconds and (traced or not trace):
            break
    return {"plain": plain, "traced": traced, "probes": probes}


def score(res: dict) -> dict:
    """Correctness and failure counts over every worker of a run."""
    workers = res["plain"] + res["traced"]
    reference = {j["name"]: j for j in workers[0]["jobs"]}
    attempted = failed = 0
    problems, expected = [], []
    for w in workers:
        for j in w["jobs"]:
            attempted += 1
            ref = reference[j["name"]]
            bad = j["error"] or (j["check"] not in (None, "ok") and j["check"])
            if not bad and j.get("summary") != ref.get("summary"):
                bad = "output differs from the first worker's"
            if bad:
                failed += 1
                (expected if j["known_failure"] else problems).append(f"{j['name']}: {bad}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "expected": expected}


def end_to_end(res: dict) -> dict:
    """Medians over the untraced workers; set-up also over the probes."""
    plain = res["plain"]
    samples = {"setup_s": plain + res["probes"]}
    return {name: {"value": statistics.median([w[name] for w in samples.get(name, plain)]),
                   "unit": unit}
            for name, unit in END_TO_END}


def per_layer(res: dict) -> dict:
    traced, plain = res["traced"], res["plain"]
    out = {}
    for name, unit in per_layer_names():
        if name == "trace.overhead":
            value = statistics.median([w["wall_s"] for w in traced]) / \
                statistics.median([w["wall_s"] for w in plain])
        else:
            value = statistics.median([w["per_layer"][name] for w in traced])
        out[name] = {"value": value, "unit": unit}
    return out


def describe(workload: str, res: dict, sc: dict) -> list:
    workers = res["plain"] + res["traced"]
    env = dict(workers[0]["env"], commit=commit())
    lines = [f"workload {workload}: {len(res['plain'])} untraced and "
             f"{len(res['traced'])} traced workers; env {json.dumps(env, sort_keys=True)}"]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in end_to_end(res).items()]
    lines.append(f"  ops_failed = {sc['failed'] / sc['attempted']:.6g} fraction "
                 f"({sc['failed']} of {sc['attempted']} jobs)")
    lines += [f"  expected failure: {p}" for p in sc["expected"]]
    lines += [f"  FAILED: {p}" for p in sc["problems"]]
    if res["traced"]:
        lines += [f"  {name} = {m['value']:.6g} {m['unit']}"
                  for name, m in per_layer(res).items()]
    return lines


def measure(args, started: float) -> int:
    """One run of one workload; prints the result line."""
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), started=started)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sc = score(res)
    for line in describe(args.workload, res, sc):
        print(line)
    metrics = per_layer(res) if args.trace else end_to_end(res)
    print(json.dumps({"correct": not sc["problems"] and not sc["expected"],
                      "attempted": sc["attempted"], "failed": sc["failed"],
                      "metrics": metrics}))
    return 0


def seed_drift(res: dict, other: dict) -> list:
    """What differs in job list or nominal work between two seeds' runs."""
    jobs = [[j["name"] for j in r["plain"][0]["jobs"]] for r in (res, other)]
    work = [r["traced"][0]["work"] for r in (res, other)]
    drift = ["job list"] if jobs[0] != jobs[1] else []
    return drift + sorted(k for k in set(work[0]) | set(work[1])
                          if work[0].get(k) != work[1].get(k))


def report(args, quick: bool) -> int:
    """Every workload untraced and traced, plus the second-seed work check."""
    ok = True
    doc = {"commit": commit(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        with_failures = workload == "exact-tree"
        res = run(workload, args.seed, args.seconds, True, quick=quick,
                  known_failures=with_failures)
        other = run(workload, args.seed + 1, 0, True, quick=quick,
                    known_failures=with_failures)
        sc = score(res)
        layers = per_layer(res)
        drift = seed_drift(res, other)
        for line in describe(workload, res, sc):
            print(line)
        share = layers["trace.unattributed_s"]["value"] / layers["trace.wall_s"]["value"]
        print(f"  unattributed share of traced wall_s = {share:.3f}")
        print(f"  seed {args.seed + 1}: job list and nominal work differ on "
              f"{drift or 'nothing'}")
        workers = res["plain"] + res["traced"]
        known = sum(1 for j in workers[0]["jobs"] if j["known_failure"])
        ok &= not sc["problems"] and sc["failed"] == known * len(workers) and not drift
        doc["workloads"][workload] = {
            "end_to_end": end_to_end(res),
            "ops_failed": {"value": sc["failed"] / sc["attempted"], "unit": "fraction"},
            "attempted": sc["attempted"], "failed": sc["failed"],
            "expected_failures": sc["expected"], "problems": sc["problems"],
            "per_layer": layers, "work": res["traced"][0]["work"],
            "second_seed_drift": drift, "env": workers[0]["env"],
        }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("selfcheck.json" if quick else "report.json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    print(f"results written to {path}")
    print("every job passed or failed as expected" if ok else "UNEXPECTED results above")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (args.workload or args.report or args.selfcheck):
        ap.error("one of --workload, --report or --selfcheck is required")
    if not Path("src/pomdp_evals/__init__.py").is_file():
        print("error: run from the root of a pomdp-evals checkout (src/pomdp_evals missing)",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        args.seconds = 0    # one untraced and one traced worker per run
    if args.report or args.selfcheck:
        return report(args, quick=args.selfcheck)
    return measure(args, started)


if __name__ == "__main__":
    sys.exit(main())
