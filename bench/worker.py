"""One fresh interpreter of the benchmark: set-up, then rounds of one workload.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload W --seed N --setup-only

Set-up is the time from the first statement of this file through the
import of the workload module (numpy and the levymix modules it uses)
and the building of its inputs. Then whole rounds of the workload run,
each timed alone and checked after its timer stops, until the next
round would end after S seconds; at least one round runs. With
--trace 1, untraced and traced rounds alternate instead, and the traced
ones give the per-layer metrics. The last line of standard output is
one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Rounds:
    """Runs and checks rounds; keeps their times and their tallies."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = self.errors = 0

    def __call__(self, tracer=None):
        if tracer is not None:
            tracer.install(also=(self.workload.__name__,))
        try:
            start = time.perf_counter()
            attempted, failed, out = self.workload.run(self.inputs)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        errors = self.workload.check(self.inputs, out)
        for msg in failed + errors:
            print(msg, file=sys.stderr)
        self.attempted += attempted
        self.failed += len(failed)
        self.errors += len(errors)
        return wall


def timed(rounds, seconds):
    walls, start = [], time.perf_counter()
    while True:
        walls.append(rounds())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return {"wall_s": statistics.median(walls), "walls": walls}


def traced(rounds, seconds, import_s, name):
    tracer = Tracer()
    plain, traced_walls, start = [], [], time.perf_counter()
    while True:
        plain.append(rounds())
        traced_walls.append(rounds(tracer))
        pair = plain[-1] + traced_walls[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    n = len(traced_walls)
    metrics = tracer.per_layer(n)
    metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
    wall = sum(traced_walls) / n
    covered = tracer.top_level / n - tracer.harness_self() / n
    metrics["trace.coverage_pct"] = {"value": 100.0 * covered / wall, "unit": "%"}
    overhead = statistics.median(traced_walls) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"{name}.trace.json"), n)
    return {"per_layer": metrics, "walls": plain + traced_walls}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("battery", "groups", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = importlib.import_module(args.workload)
    import_s = time.perf_counter() - T0
    inputs = workload.build(args.seed)
    result = {"setup_s": time.perf_counter() - T0, "import_s": import_s}
    if not args.setup_only:
        rounds = Rounds(workload, inputs)
        if args.trace:
            result.update(traced(rounds, args.seconds, import_s, args.workload))
        else:
            result.update(timed(rounds, args.seconds))
        result.update(
            attempted=rounds.attempted, failed=rounds.failed,
            correct=rounds.errors == 0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
