"""Benchmark of levymix: one workload, one run, one JSON line.

    env OPENBLAS_NUM_THREADS=1 python3 bench/run.py \\
        --workload battery|groups|simulate --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Each run starts SETUP_RUNS fresh interpreters (bench/worker.py). All of
them time their set-up; the last one then runs the workload for about S
seconds. With --trace 0 the result holds the end-to-end metrics:

    setup_s      median set-up time of the SETUP_RUNS interpreters
    wall_s       median time of one round of the workload
    peak_rss_mb  peak resident memory of the interpreter that ran them

With --trace 1 it holds the per-layer metrics of bench/tracer.py, from
traced rounds that alternate with untraced ones. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; a run
that cannot produce it exits with a code other than 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 5
DEADLINE_S = 170.0


def _worker(argv, env, deadline):
    """Last-line JSON of one worker; None after a failure, reported on stderr."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0),
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(argv)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed with code {proc.returncode}: {' '.join(argv)}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("battery", "groups", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "levymix", "__init__.py")):
        print(f"no levymix package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    results = [_worker(common + ["--setup-only"], env, deadline)
               for _ in range(SETUP_RUNS - 1)]
    results.append(_worker(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], env, deadline))
    if any(r is None for r in results):
        return 1
    main_run = results[-1]
    print(f"set-up times {[round(r['setup_s'], 4) for r in results]}, "
          f"round times {[round(w, 4) for w in main_run['walls']]}", file=sys.stderr)
    if args.trace:
        metrics = main_run["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in results),
                        "unit": "s"},
            "wall_s": {"value": main_run["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": main_run["correct"],
                      "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
