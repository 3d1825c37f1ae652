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
from .errors import (ApproximationTooCoarse, ConfigError, DimensionMismatch,
                     InvalidArgument, InvalidGenerator, NonFiniteInput,
                     UnboundedRegion)
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
    intersection_volume,
    transform,
    volume,
)
from .shrinking import build_family, family_region

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
        pi_C = masses[:, atoms.atoms_of_region(0)].sum(axis=1)
        pi_Cm = masses[:, atoms.atoms_of_region(1)].sum(axis=1)
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
# tail triviality decay


def tail_triviality_decay(g, f=None, C: Region = None,
                          t_grid=(5.0, 2.0, 1.0, 0.5, 0.2, 0.1),
                          n_reps=10_000, seed=0) -> ExperimentReport:
    """Variance of conditional expectations along the shrinking family of g.

    For each t, the conditioning set is D_t, and the overlap measure of
    C with it is exact: intersection_volume of C and family_region(fam, t),
    for planar g only, whose stderr of 0 goes into the series row.  A C of
    infinite measure raises UnboundedRegion.  The variance of
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
    if not np.isfinite(lam_C):
        raise UnboundedRegion("C n D_t needs a C of finite measure")
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
        s, s_err = intersection_volume(C, family_region(fam, t))
        rng = _rng.stream(seed, "tail", t)
        samples = gaussian_conditional_samples(f, s, lam_C, n_reps, rng)
        var = float(samples.var(ddof=1))
        verr = var * np.sqrt(2.0 / (n_reps - 1))
        report.add("overlap", t, s, s_err)
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


def ks_2samp_equal(x1, x2):
    """Two-sided two-sample KS test for samples of one size n: (statistic, pvalue).

    The statistic is k/n, k the largest gap between the two samples'
    counts at or below a pooled point.  The p-value is the exact
    P(D >= k/n) at every n: the alternating sum of Gnedenko and Korolyuk
    (1951), each term divided by C(2n, n) and nested in Horner form.  The
    float operations and their order are those of the common reference
    implementation's exact equal-size branch, so the bits are too.
    """
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    if x1.ndim != 1 or x2.ndim != 1:
        raise DimensionMismatch("KS samples must be one-dimensional")
    if x1.size != x2.size or x1.size == 0:
        raise InvalidArgument(f"KS samples must be non-empty and of one size, "
                              f"got {x1.size} and {x2.size}")
    x1, x2 = np.sort(x1), np.sort(x2)
    if np.isnan(x1[-1]) or np.isnan(x2[-1]):  # sorting puts NaN last
        raise NonFiniteInput("KS samples must not hold NaN")
    n = x1.size
    both = np.concatenate([x1, x2])
    k = int(np.abs(np.searchsorted(x1, both, "right")
                   - np.searchsorted(x2, both, "right")).max())
    if k == 0:
        return 0.0, 1.0
    p = 0.0
    for j in range(n // k, -1, -1):
        a = 1.0  # C(2n, n - (j + 1)k) / C(2n, n - jk), as k factors
        for i in range(k):
            a = (n - j * k - i) * a / (n + j * k + i + 1)
        p = a * (1.0 - p)
    # p >= 0; at k = 1, where P = 1, roundoff can put 2p an ulp or two above 1
    return k / n, min(2 * p, 1.0)


def equivariance_check(g, C: Region, B: Region, f=None, n_reps=10_000,
                       seed=0) -> ExperimentReport:
    """Two-sample KS test of conditional-expectation laws for (C, B) vs (gC, gB)."""
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
    ks_stat, ks_p = ks_2samp_equal(x1, x2)
    overlap_ok = abs(s2 - s1) <= 3.0 * np.hypot(e1, e2) + 1e-9
    report = ExperimentReport(
        "equivariance_check",
        {"g": g.tolist(), "C": C.to_json(), "B": B.to_json(),
         "n_reps": n_reps, "seed": seed, "alpha": KS_ALPHA},
    )
    report.add("overlap", 0, s1, e1)
    report.add("overlap", 1, s2, e2)
    report.add("ks_statistic", 0, ks_stat)
    report.add("ks_pvalue", 0, ks_p)
    report.verdict = PASS if (ks_p >= KS_ALPHA and overlap_ok) else FAIL
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
    if not isinstance(config, dict) or not isinstance(config.get("experiments"), list):
        raise ConfigError("config must be an object with an 'experiments' list")
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    out_dir = out_override if out_override is not None else config.get("out", "reports")
    if type(seed) is not int or not isinstance(out_dir, str):  # a bool is no seed
        raise ConfigError(f"config: need an integer seed and a string out, "
                          f"got {seed!r} and {out_dir!r}")
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
