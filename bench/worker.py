"""One pass of one workload in a fresh process.

Run from the root of a source checkout:

    python3 bench/worker.py --workload mc-wide --seed 1 --out result.json [--check] [--trace]

Set-up (interpreter start, `import pomdp_evals` from `src/`, input
generation and writing the generated scenario files) ends when the first job
starts; the parent measures `setup_s` from its own clock reading taken just
before it started this process.  The pass runs every job once, catching
each job's failure so that the pass goes on.  Peak RSS is read right after
the pass, before any output check runs.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

SRC = Path.cwd() / "src"


def import_package():
    """Import `pomdp_evals` from this checkout's `src/` and nowhere else."""
    if not (SRC / "pomdp_evals" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}/pomdp_evals; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import pomdp_evals

    if Path(pomdp_evals.__file__).resolve().parent != (SRC / "pomdp_evals").resolve():
        raise SystemExit(f"pomdp_evals imported from {pomdp_evals.__file__}, not {SRC}")
    return pomdp_evals


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def run_job(job, tracer):
    """(output, error): error is None or 'Type: message' for a raised job."""
    try:
        out = tracer.job(job.name, job.run) if tracer else job.run()
        return out, None
    except SystemExit as exc:  # argparse usage errors inside cli.main
        return None, f"SystemExit: {exc.code}"
    except Exception as exc:  # a failing job is counted, and the pass goes on
        return None, f"{type(exc).__name__}: {str(exc)[:300]}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--check", action="store_true", help="check every output after the pass")
    ap.add_argument("--trace", action="store_true", help="record spans and per-layer metrics")
    ap.add_argument("--quick", action="store_true", help="tiny sizes for the self-check")
    ap.add_argument("--known-failures", action="store_true",
                    help="add the two jobs known to fail (ROADMAP items 3 and 4)")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first job would start (a set-up probe)")
    args = ap.parse_args(argv)

    import_package()
    import workloads

    with tempfile.TemporaryDirectory(prefix="bench-inputs-", dir=Path.cwd()) as tmp:
        jobs = workloads.build(args.workload, args.seed, Path(tmp), quick=args.quick,
                               known_failures=args.known_failures)
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            left = tracing.unwrapped_bindings(tracer)
            if left:
                raise SystemExit(f"tracer left original bindings: {', '.join(left)}")
        first_job = time.monotonic()
        results = []
        for job in [] if args.setup_only else jobs:
            t0 = time.monotonic()
            out, error = run_job(job, tracer)
            results.append((job, out, error, time.monotonic() - t0))
        wall = time.monotonic() - first_job
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        records = []
        for job, out, error, seconds in results:
            rec = {"name": job.name, "seconds": seconds, "error": error,
                   "known_failure": job.known_failure, "check": None}
            if error is None:
                rec["summary"] = job.summary(out)
                if args.check:
                    try:
                        rec["check"] = job.check(out) or "ok"
                    except Exception:
                        rec["check"] = "oracle raised: " + traceback.format_exc(limit=3)
            records.append(rec)
        doc = {"workload": args.workload, "seed": args.seed, "first_job": first_job,
               "wall_s": wall, "peak_rss_mb": peak_rss_mb, "jobs": records}
        if tracer:
            tags = {f"job.{j.name}": j.tags for j in jobs}
            doc["per_layer"] = tracing.reduce(tracer, tags, wall)
            doc["work"] = tracing.work_counts(tracer)
        doc["env"] = environment()
    Path(args.out).write_text(json.dumps(doc, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
