"""Desk-scale experiments exhibiting the compact / non-compact dichotomy.

Each experiment returns an ExperimentReport whose verdict is
recomputable from the emitted series alone.  The four experiments are:
covariance mixing curves under iterated maps, conditional-variance decay
along a shrinking family, equivariance of conditional expectations under
measure-preserving maps, and the compact-group counterexample (an
invariant region with non-degenerate mass).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import (ApproximationTooCoarse, ConfigError, InvalidArgument,
                     InvalidGenerator, OverlapUnknown)
from .gallery import parse_matrix
from .matrices import (
    _generator_list,
    as_matrix,
    cyclic_closure_compact,
    in_measure_preserving_group,
    weyl_conjugator,
)
from .noise import (
    GAUSSIAN,
    NoiseSpec,
    gaussian_conditional_samples,
    realize_masses,
)
from .regions import (
    Piece,
    Region,
    atomize,
    box_region,
    clip_polygon,
    intersection_volume,
    polygon_area,
    transform,
    volume,
)
from .shrinking import ShrinkingFamily, build_family

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"
MC_SAMPLES = 200_000  # points per Monte Carlo overlap or atom table
KS_ALPHA = 0.01       # level of the equivariance KS test


@dataclass
class ExperimentReport:
    experiment: str
    inputs: dict
    series: list = field(default_factory=list)  # rows: (series, param, est, err)
    verdict: str = INCONCLUSIVE
    criterion: str = ""

    def add(self, series, parameter, estimate, stderr=0.0):
        self.series.append((str(series), float(parameter), float(estimate),
                            float(stderr)))

    def rows(self, series):
        return [(p, e, s) for name, p, e, s in self.series if name == series]

    def series_csv(self) -> str:
        lines = ["series,parameter,estimate,stderr"]
        for name, p, e, s in self.series:
            lines.append(f"{name},{p!r},{e!r},{s!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "inputs": self.inputs,
            "series": [list(row) for row in self.series],
            "verdict": self.verdict,
            "criterion": self.criterion,
        }


def _cov_stderr(v1, v2, c, n):
    return np.sqrt(max(v1 * v2 + c * c, 0.0) / max(n - 1, 1))


# ---------------------------------------------------------------------------
# mixing curve


def mixing_curve(g, C: Region, m_range=(0, 8), n_reps=10_000,
                 seed=0) -> ExperimentReport:
    """Overlap measure and empirical mass covariance along powers of g.

    For each m the overlap of C with g^m C is estimated, together with
    the covariance of the Gaussian masses of the two regions over n_reps
    independent realizations.  Non-compact maps mix (covariance decays);
    a compact map fixing C keeps the covariance at the measure of C.
    """
    g = as_matrix(g)
    if not in_measure_preserving_group(g, det_tol=1e-6):
        raise InvalidGenerator("mixing map must have |det| = 1")
    if m_range[0] > m_range[1]:
        raise InvalidArgument(f"m_range {tuple(m_range)} holds no power")
    compact = cyclic_closure_compact(g)
    lam_C = volume(C)
    spec = NoiseSpec(GAUSSIAN)
    report = ExperimentReport(
        "mixing_curve",
        {"g": g.tolist(), "C": C.to_json(), "m_range": list(m_range),
         "n_reps": n_reps, "seed": seed, "compact": compact},
    )
    ok_cov, identical_region = True, True
    last_cov = None
    for m in range(m_range[0], m_range[1] + 1):
        gm = np.linalg.matrix_power(g, m)
        Cm = transform(gm, C) if m else C
        sub = _rng.stream_key(seed, "mix", m) % 2**31
        overlap, ov_err = intersection_volume(C, Cm, method="auto",
                                              n=MC_SAMPLES, seed=sub)
        atoms = atomize([C, Cm], n=MC_SAMPLES, seed=sub)
        masses = realize_masses(spec, atoms, n_reps, seed=sub)
        in0 = np.array([sig[0] for sig in atoms.signatures])
        in1 = np.array([sig[1] for sig in atoms.signatures])
        pi_C = masses[:, in0].sum(axis=1)
        pi_Cm = masses[:, in1].sum(axis=1)
        cmat = np.cov(pi_C, pi_Cm)
        c = float(cmat[0, 1])
        c_err = _cov_stderr(cmat[0, 0], cmat[1, 1], c, n_reps)
        report.add("overlap", m, overlap, ov_err)
        report.add("covariance", m, c, c_err)
        tol = 3.0 * np.hypot(c_err, ov_err)
        if abs(c - overlap) > tol:
            ok_cov = False
        if abs(overlap - lam_C) > max(3.0 * ov_err, 1e-9):
            identical_region = False
        last_cov = c
    if not ok_cov:
        verdict = FAIL
        criterion = "covariance disagrees with overlap beyond 3 sigma"
    elif not compact:
        verdict = PASS if last_cov < 0.05 * lam_C else FAIL
        criterion = "non-compact map: covariance below 0.05 * measure(C) at final m"
    elif identical_region:
        verdict = PASS
        criterion = "compact map fixing C: covariance stays at measure(C)"
    else:
        verdict = INCONCLUSIVE
        criterion = "compact map does not fix C; no dichotomy claim"
    report.verdict, report.criterion = verdict, criterion
    return report


# ---------------------------------------------------------------------------
# exact measure of C n D_t in the plane


def family_overlap(fam: ShrinkingFamily, t, C: Region) -> float:
    """Exact measure of C n D_t for a shrinking family in the plane.

    In Jordan coordinates y = T^-1 x, D_t is the double wedge
    |y2| <= k |y1|, k = rho / sqrt(1 - rho^2), of a size-2 real block,
    or the strip |y_off| <= eps of a real scalar block.  Each convex
    cell of it is cut out by two half-planes, and a.y <= b is
    (a T^-1).x <= b.  Every parallelotope of C is clipped against every
    cell (Sutherland-Hodgman) and the shoelace areas are summed.
    """
    if fam.dim != 2 or fam.pair or C.dim != 2:
        raise ApproximationTooCoarse("exact C n D_t needs d=2 and a real block")
    if not C.disjoint:
        raise OverlapUnknown("exact overlap requires disjoint pieces")
    if fam.uses_cone:
        rho = fam.param(t)
        k = rho / np.sqrt(1.0 - rho * rho)
        cells = [[(np.array([-side * k, 1.0]), 0.0),
                  (np.array([-side * k, -1.0]), 0.0)] for side in (1.0, -1.0)]
    else:
        e = np.eye(2)[fam.offset]
        cells = [[(e, fam.param(t)), (-e, fam.param(t))]]
    total = 0.0
    for piece in C.pieces:
        for cell in cells:
            poly = piece.polygon()
            for a, b in cell:
                poly = clip_polygon(poly, a @ fam.basis_inv, b)
            total += polygon_area(poly)
    return float(total)


# ---------------------------------------------------------------------------
# tail triviality decay


def tail_triviality_decay(g, f=None, C: Region = None,
                          t_grid=(5.0, 2.0, 1.0, 0.5, 0.2, 0.1),
                          n_reps=10_000, seed=0) -> ExperimentReport:
    """Variance of conditional expectations along the shrinking family of g.

    For each t, the conditioning set is D_t, and the overlap measure of
    C with it is exact (family_overlap, planar g only); the variance of
    E[f(mass(C)) | D_t] is estimated from n_reps samples and compared
    with the conditional variance implied by that overlap.  The series
    must decay to below 10% of the unconditional variance.
    """
    if not len(t_grid):
        raise InvalidArgument("t_grid holds no t")
    if C is None:
        C = box_region([[0.0, 1.0], [0.0, 1.0]])
    if f is None:
        f = lambda v: v
    fam = build_family(as_matrix(g))
    lam_C = volume(C)
    report = ExperimentReport(
        "tail_triviality_decay",
        {"g": as_matrix(g).tolist(), "C": C.to_json(),
         "t_grid": [float(t) for t in t_grid], "n_reps": n_reps,
         "seed": seed},
    )
    # unconditional variance of f(mass(C))
    rng_total = _rng.stream(seed, "tail", "total")
    totals = np.asarray(f(rng_total.normal(0.0, np.sqrt(lam_C), size=100_000)))
    var_total = float(totals.var(ddof=1))
    report.add("total_variance", 0.0, var_total,
               var_total * np.sqrt(2.0 / (len(totals) - 1)))
    t_sorted = sorted(t_grid, reverse=True)
    variances, verrs = [], []
    for t in t_sorted:
        s = family_overlap(fam, t, C)
        rng = _rng.stream(seed, "tail", t)
        samples = gaussian_conditional_samples(f, s, lam_C, n_reps, rng)
        var = float(samples.var(ddof=1))
        verr = var * np.sqrt(2.0 / (n_reps - 1))
        report.add("overlap", t, s, 0.0)
        report.add("cond_variance", t, var, verr)
        variances.append(var)
        verrs.append(verr)
    decreasing = all(
        variances[i + 1] <= variances[i]
        + 2.0 * np.hypot(verrs[i], verrs[i + 1])
        for i in range(len(variances) - 1))
    small_tail = variances[-1] < 0.1 * var_total
    report.verdict = PASS if (decreasing and small_tail) else FAIL
    report.criterion = ("conditional variance nonincreasing within 2 sigma "
                        "and below 10% of the total variance at the smallest t")
    return report


# ---------------------------------------------------------------------------
# equivariance


def equivariance_check(g, C: Region, B: Region, f=None, n_reps=10_000,
                       seed=0) -> ExperimentReport:
    """Two-sample KS test of conditional-expectation laws for (C, B) vs (gC, gB)."""
    from scipy import stats  # only user of scipy.stats; keeps imports light

    g = as_matrix(g)
    if not in_measure_preserving_group(g, det_tol=1e-6):
        raise InvalidGenerator("map must have |det| = 1")
    if f is None:
        f = np.tanh
    lam_C = volume(C)
    s1, e1 = intersection_volume(C, B, method="auto", n=MC_SAMPLES,
                                 seed=_rng.stream_key(seed, "eq", 0) % 2**31)
    gC, gB = transform(g, C), transform(g, B)
    s2, e2 = intersection_volume(gC, gB, method="auto", n=MC_SAMPLES,
                                 seed=_rng.stream_key(seed, "eq", 1) % 2**31)
    rng1 = _rng.stream(seed, "eq-samples", 0)
    rng2 = _rng.stream(seed, "eq-samples", 1)
    x1 = gaussian_conditional_samples(f, s1, lam_C, n_reps, rng1)
    x2 = gaussian_conditional_samples(f, s2, lam_C, n_reps, rng2)
    ks = stats.ks_2samp(x1, x2)
    overlap_ok = abs(s2 - s1) <= 3.0 * np.hypot(e1, e2) + 1e-9
    report = ExperimentReport(
        "equivariance_check",
        {"g": g.tolist(), "C": C.to_json(), "B": B.to_json(),
         "n_reps": n_reps, "seed": seed, "alpha": KS_ALPHA},
    )
    report.add("overlap", 0, s1, e1)
    report.add("overlap", 1, s2, e2)
    report.add("ks_statistic", 0, float(ks.statistic))
    report.add("ks_pvalue", 0, float(ks.pvalue))
    report.verdict = PASS if (ks.pvalue >= KS_ALPHA and overlap_ok) else FAIL
    report.criterion = (f"KS p-value >= {KS_ALPHA} and transformed overlap within "
                        "3 sigma of the original")
    return report


# ---------------------------------------------------------------------------
# compact invariant demo


def _disc_strips(radius, n_strips):
    """Horizontal-strip approximation of the closed disc."""
    ys = np.linspace(-radius, radius, n_strips + 1)
    pieces = []
    for j in range(n_strips):
        yc = 0.5 * (ys[j] + ys[j + 1])
        half = np.sqrt(max(radius**2 - yc**2, 0.0))
        if half <= 0:
            continue
        pieces.append(Piece(np.eye(2), np.array([[-half, half],
                                                 [ys[j], ys[j + 1]]])))
    return Region(tuple(pieces), disjoint=True)


def compact_invariant_demo(generators, n_reps=10_000,
                           seed=0) -> ExperimentReport:
    """Invariant region with non-degenerate mass for a compact group.

    Conjugates the group into the orthogonal group by weyl_conjugator.
    Builds an invariant region: the cube [-1, 1]^d, exactly invariant
    when every conjugated generator maps it to an axis box (the rule of
    Piece.is_axis_aligned), otherwise the image of a disc approximated by
    400 strips.  Checks invariance at 10 000 points (within 1% for the
    disc) and positivity of the mass variance.
    """
    gens = _generator_list(generators)
    h = weyl_conjugator(gens)
    hinv = np.linalg.inv(h)
    d = gens[0].shape[0]
    cube = np.column_stack([-np.ones(d), np.ones(d)])
    exact_box = all(Piece(hinv @ g @ h, cube).is_axis_aligned() for g in gens)
    if exact_box:
        base = box_region(cube)
        tol_frac = 0.0
    else:
        if d != 2:
            raise ApproximationTooCoarse("disc approximation implemented for d=2")
        base = _disc_strips(1.0, 400)
        tol_frac = 0.01
    check_points = 10_000
    region = transform(h, base)
    lam = volume(region)
    report = ExperimentReport(
        "compact_invariant_demo",
        {"generators": [g.tolist() for g in gens],
         "n_reps": n_reps, "seed": seed, "exact_box": exact_box},
    )
    bb = region.bounding_box()
    rng = _rng.stream(seed, "invariant-pts")
    pts = bb[:, 0] + rng.random((check_points, d)) * (bb[:, 1] - bb[:, 0])
    base_member = region.contains(pts)
    invariant = True
    for i, g in enumerate(gens):
        Rg = transform(g, region)
        mismatch = float(np.mean(base_member != Rg.contains(pts)))
        report.add("membership_mismatch", i, mismatch,
                   np.sqrt(mismatch * (1 - mismatch) / check_points))
        vg = volume(Rg)
        report.add("volume_ratio", i, vg / lam)
        if mismatch > tol_frac + 3.0 * np.sqrt(max(tol_frac, 1e-4) / check_points):
            invariant = False
        if abs(vg - lam) > 1e-9 * lam:
            invariant = False
    masses = _rng.stream(seed, "invariant-mass").normal(
        0.0, np.sqrt(lam), size=n_reps)
    var = float(masses.var(ddof=1))
    verr = var * np.sqrt(2.0 / (n_reps - 1))
    report.add("mass_variance", 0, var, verr)
    positive = var - 3.0 * verr > 0.0
    report.verdict = PASS if (invariant and positive) else FAIL
    report.criterion = ("every generator fixes the region within tolerance and "
                        "the region's mass variance is positive at 3 sigma")
    return report


# ---------------------------------------------------------------------------
# config-driven runner


_FUNCTIONS = {"identity": lambda v: v, "tanh": np.tanh}


def _function(name):
    if name not in _FUNCTIONS:
        raise ConfigError(f"unknown function {name!r}")
    return _FUNCTIONS[name]


def _at_least(low):
    """Parser of an integer no smaller than `low`."""
    def parse(value):
        n = int(value)
        if n < low:
            raise InvalidArgument(f"need an integer of at least {low}, got {n}")
        return n
    return parse


def _positive(t):
    """t unchanged, if positive and finite.  Not converted to float: the
    tail experiment keys its random streams by the text of t."""
    if not 0.0 < float(t) < np.inf:
        raise InvalidArgument(f"need a positive number, got {t!r}")
    return t


def _nonempty_list(parse):
    """Parser of a non-empty list, applying `parse` to each item."""
    def parse_list(value):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"need a non-empty list, got {value!r}")
        return [parse(v) for v in value]
    return parse_list


def read_json(path):
    """Contents of a JSON file; ConfigError if unreadable or malformed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSON syntax, or bytes that are not text
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def default_config():
    """The canonical experiment battery: shear, squeeze and rotation."""
    unit = {"box": [[0.0, 1.0], [0.0, 1.0]]}
    return {
        "seed": 42,
        "out": "reports",
        "experiments": [
            {"kind": "mixing_curve", "name": "mixing-squeeze",
             "g": "squeeze", "C": unit, "m_max": 8, "n_reps": 4000},
            {"kind": "mixing_curve", "name": "mixing-rotation90",
             "g": "rotation90",
             "C": {"box": [[-1.0, 1.0], [-1.0, 1.0]]}, "m_max": 8,
             "n_reps": 4000},
            {"kind": "tail_triviality_decay", "name": "tail-shear",
             "g": "shear", "C": unit,
             "t_grid": [5.0, 2.0, 1.0, 0.5, 0.2, 0.1], "n_reps": 4000},
            {"kind": "equivariance_check", "name": "equivariance-shear",
             "g": "shear", "C": unit,
             "B": {"box": [[0.5, 1.5], [0.0, 1.0]]}, "n_reps": 4000},
            {"kind": "compact_invariant_demo", "name": "invariant-rotation90",
             "generators": ["rotation90"], "n_reps": 4000},
        ],
    }


def _run_one(entry, master_seed):
    kind = entry.get("kind")
    name = entry.get("name", kind)
    seed = _rng.stream_key(master_seed, "experiment", name) % 2**31

    def field(key, parse, default=None):
        """parse(entry[key]), with ConfigError naming the entry and key."""
        if key not in entry and default is None:
            raise ConfigError(f"{name}: missing {key!r}")
        try:
            return parse(entry.get(key, default))
        except (ConfigError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: {key}: {exc}") from exc

    replicates = _at_least(2)  # the fewest samples that have a variance

    if kind == "mixing_curve":
        return name, mixing_curve(
            field("g", parse_matrix), field("C", Region.from_json),
            m_range=(0, field("m_max", _at_least(0), 8)),
            n_reps=field("n_reps", replicates, 10_000), seed=seed)
    if kind == "tail_triviality_decay":
        return name, tail_triviality_decay(
            field("g", parse_matrix), f=field("f", _function, "identity"),
            C=field("C", Region.from_json),
            t_grid=field("t_grid", _nonempty_list(_positive),
                         (5.0, 2.0, 1.0, 0.5, 0.2, 0.1)),
            n_reps=field("n_reps", replicates, 10_000), seed=seed)
    if kind == "equivariance_check":
        return name, equivariance_check(
            field("g", parse_matrix), field("C", Region.from_json),
            field("B", Region.from_json), f=field("f", _function, "tanh"),
            n_reps=field("n_reps", replicates, 10_000), seed=seed)
    if kind == "compact_invariant_demo":
        return name, compact_invariant_demo(
            field("generators", _nonempty_list(parse_matrix)),
            n_reps=field("n_reps", replicates, 10_000), seed=seed)
    raise ConfigError(f"unknown experiment kind {kind!r}")


def run_all(config_path=None, seed_override=None, out_override=None):
    """Run the configured experiment list and write report + series files.

    Returns (exit_code, {name: ExperimentReport}); exit code 0 iff every
    verdict is pass.
    """
    config = default_config() if config_path is None else read_json(config_path)
    if not isinstance(config, dict) or "experiments" not in config:
        raise ConfigError("config must be an object with an 'experiments' list")
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    out_dir = out_override if out_override is not None else config.get("out", "reports")
    os.makedirs(out_dir, exist_ok=True)
    reports = {}
    for i, entry in enumerate(config["experiments"]):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"experiments[{i}]: each entry needs a 'kind'")
        name, report = _run_one(entry, seed)
        reports[name] = report
        with open(os.path.join(out_dir, f"{name}.report.json"), "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, f"{name}.series.csv"), "w") as fh:
            fh.write(report.series_csv())
    exit_code = 0 if all(r.verdict == PASS for r in reports.values()) else 1
    return exit_code, reports
