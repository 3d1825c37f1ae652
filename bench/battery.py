"""`battery` workload: the canonical experiment battery on the CLI path.

One round is `levymix experiment run --seed 0 --out <dir>`: the
`experiment run` command with no config, that is the canonical
five-experiment battery at the CLI's default seed, with its reports
written to a directory inside the checkout.

The battery's inputs do not depend on the workload seed. Its verdicts
are statistical tests (3-sigma bands and a KS test at alpha 0.01), so a
few experiment seeds in a hundred fail one of them; a seed-driven
battery would fail a different share of its operations from run to
run. The checks below also pass at the battery's config seed, 42.

The checks read the written reports and compare them with quantities
computed here: the squeeze overlaps 2^-m, the rotation90 overlaps
lambda(C) = 4, and the exact area of C n D_t for the shear, obtained by
clipping C against the half-planes of the double wedge D_t.
"""

import atexit
import json
import math
import os
import shutil

from levymix import cli, experiments

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_SEED = 0
SIGMAS = 3.0
TAIL_BOUND = 0.01  # tail_triviality_decay's approximation bound, times lambda(C)


def build(seed):
    out = os.path.join(ROOT, ".bench_tmp", f"battery-{os.getpid()}")
    atexit.register(shutil.rmtree, out, True)
    names = [e["name"] for e in experiments.default_config()["experiments"]]
    return {"out": out, "names": names,
            "argv": ["experiment", "run", "--seed", str(PROGRAM_SEED),
                     "--out", out]}


def run(inp):
    shutil.rmtree(inp["out"], ignore_errors=True)
    try:
        cli.main.main(inp["argv"], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    written = set(os.listdir(inp["out"])) if os.path.isdir(inp["out"]) else set()
    failed = [f"{name}: no report (exit code {code})" for name in inp["names"]
              if f"{name}.report.json" not in written]
    return len(inp["names"]), failed, {"code": code}


def _clip(poly, a, b):
    """Part of the convex polygon poly where a . x <= b (Sutherland-Hodgman)."""
    out = []
    for k, p in enumerate(poly):
        q = poly[k - 1]
        fp = a[0] * p[0] + a[1] * p[1] - b
        fq = a[0] * q[0] + a[1] * q[1] - b
        if (fp <= 0) != (fq <= 0):
            s = fq / (fq - fp)
            out.append((q[0] + s * (p[0] - q[0]), q[1] + s * (p[1] - q[1])))
        if fp <= 0:
            out.append(p)
    return out


def _area(poly):
    return 0.5 * abs(sum(poly[k - 1][0] * p[1] - p[0] * poly[k - 1][1]
                         for k, p in enumerate(poly)))


def shear_overlap(t, square=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))):
    """Exact area of C n D_t for the shear [[1, 1], [0, 1]].

    The shear is its own real Jordan form, a size-2 block at eigenvalue 1,
    so D_t = {|x2| <= rho |x|} with rho = t / (1 + t): the double wedge
    |x2| <= k |x1|, k = rho / sqrt(1 - rho^2), around the x1 axis. Each
    of its two convex halves is an intersection of two half-planes.
    """
    rho = t / (1.0 + t)
    k = rho / math.sqrt(1.0 - rho * rho)
    total = 0.0
    for side in (1.0, -1.0):  # the wedge at x1 >= 0, then at x1 <= 0
        poly = list(square)
        for a in ((-side * k, 1.0), (-side * k, -1.0)):
            poly = _clip(poly, a, 0.0)
        if len(poly) >= 3:
            total += _area(poly)
    return total


def _series(report, name):
    return [(p, e, s) for n, p, e, s in report["series"] if n == name]


def check(inp, out):
    errors = []
    if out["code"] != 0:
        errors.append(f"experiment run exited with {out['code']}")
    reports = {}
    for name in inp["names"]:
        path = os.path.join(inp["out"], f"{name}.report.json")
        if os.path.exists(path):
            with open(path) as fh:
                reports[name] = json.load(fh)
    for name, rep in reports.items():
        if rep["verdict"] != experiments.PASS:
            errors.append(f"{name}: verdict {rep['verdict']}")
    for m, est, _ in _series(reports.get("mixing-squeeze", {"series": []}), "overlap"):
        if abs(est - 2.0 ** -m) > 1e-12:
            errors.append(f"mixing-squeeze: overlap {est!r} at m={m:g}, want 2^-m")
    for m, est, err in _series(reports.get("mixing-rotation90", {"series": []}),
                               "overlap"):
        if abs(est - 4.0) > SIGMAS * err + 1e-12:
            errors.append(f"mixing-rotation90: overlap {est!r} +- {err!r} at m={m:g}")
    tail = reports.get("tail-shear", {"series": []})
    overlaps = {t: s for t, s, _ in _series(tail, "overlap")}
    for t, s in overlaps.items():
        exact = shear_overlap(t)
        if abs(s - exact) > TAIL_BOUND * 1.0:
            errors.append(f"tail-shear: overlap {s!r} at t={t}, exact {exact!r}")
    for t, var, err in _series(tail, "cond_variance"):
        if abs(var - overlaps[t]) > SIGMAS * err:
            errors.append(f"tail-shear: variance {var!r} +- {err!r} at t={t}, "
                          f"overlap {overlaps[t]!r}")
    return errors
