"""Desk-scale experiments exhibiting the compact / non-compact dichotomy.

Each experiment returns an ExperimentReport whose verdict is
recomputable from the emitted series alone.  The four experiments are:
covariance mixing curves under iterated maps, conditional-variance decay
along a shrinking family, equivariance of conditional expectations under
measure-preserving maps, and the compact-group counterexample (an
invariant region with non-degenerate mass: the ellipsoid that the Weyl
conjugator makes of the unit ball, exact in every d).
Each checks its arguments on entry by the rules in matrices; the config
runner only converts JSON, reads each object's keys by matrices._keys
and checks the entry names, which name the output files; it adds no
default.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import (ConfigError, DimensionMismatch, InvalidArgument,
                     InvalidGenerator, LevymixError, NonFiniteInput,
                     UnboundedRegion)
from .gallery import parse_matrix
from .matrices import (
    ORTHOGONALITY_TOL,
    _conjugator_defects,
    _count,
    _floats,
    _generator_list,
    _keys,
    _real,
    as_matrix,
    cyclic_closure_compact,
    in_measure_preserving_group,
)
from .noise import GAUSSIAN, NoiseSpec, gaussian_conditional_samples
from .regions import (
    Region,
    box_region,
    intersection_volume,
    transform,
    volume,
)
from .shrinking import build_family, family_region

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"
MC_SAMPLES = 400_000  # n of an MC overlap: 447**2 strata of two
KS_ALPHA = 0.01       # level of the equivariance KS test
# fewest samples whose KS test can reject at KS_ALPHA: least p is 2 / C(2n, n)
KS_MIN_REPS = next(n for n in range(1, 100) if 2 / math.comb(2 * n, n) < KS_ALPHA)


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


def _map(g):
    """(g, |det g|), g read by as_matrix; InvalidGenerator unless |det g| = 1,
    the premise of every experiment on a map."""
    g = as_matrix(g, "g")
    if not in_measure_preserving_group(g):
        raise InvalidGenerator("map must have |det| = 1")
    return g, abs(float(np.linalg.det(g)))


def _finite_measure(C):
    """volume(C); UnboundedRegion if C, and so its Gaussian mass, is unbounded."""
    lam = volume(C)
    if not np.isfinite(lam):
        raise UnboundedRegion("C must have finite measure")
    return lam


# ---------------------------------------------------------------------------
# mixing curve


def mixing_curve(g, C: Region, m_max=8, n_reps=10_000,
                 seed=0) -> ExperimentReport:
    """Overlap measure and empirical mass covariance along powers of g.

    For each m = 0, ..., m_max, the overlap ov of C with g^m C is measured
    once, by intersection_volume on the stream key sub of (seed, "mix", m),
    and reported as measured.  The Gaussian masses of the overlap, the rest
    of C and the rest of g^m C, of measures ov, measure(C) - ov and
    measure(g^m C) - ov, are drawn as x, y and z over n_reps independent
    realizations, part i on the stream (sub, "atom", i); then the mass of
    C is x + y and that of g^m C is x + z.  measure(g^m C) is |det g|^m
    measure(C), read from g and not from its rounded power.  Before the
    parts are formed, ov is clipped into [0, min(measure(C), measure(g^m
    C))]: an exact overlap moves by roundoff only, and a Monte Carlo one
    (d >= 3, frames not axis-aligned) is projected onto the possible
    values.  Non-compact maps mix (covariance decays); a compact map
    fixing C keeps the covariance at the measure of C.  A C of infinite
    measure raises UnboundedRegion.
    """
    m_max, n_reps = _count(m_max, "m_max"), _count(n_reps, "n_reps", least=2)
    g, det = _map(g)
    compact = cyclic_closure_compact(g)
    lam_C = _finite_measure(C)
    spec = NoiseSpec(GAUSSIAN)
    report = ExperimentReport(
        "mixing_curve",
        {"g": g.tolist(), "C": C.to_json(), "m_range": [0, m_max],
         "n_reps": n_reps, "seed": seed, "compact": compact},
    )
    ok_cov, identical_region = True, True
    for m in range(m_max + 1):
        gm = np.linalg.matrix_power(g, m)
        Cm = transform(gm, C) if m else C
        sub = _rng.stream_key(seed, "mix", m) % 2**31
        overlap, ov_err = intersection_volume(C, Cm, n=MC_SAMPLES, seed=sub)
        lam_Cm = det ** m * lam_C
        ov = min(max(overlap, 0.0), lam_C, lam_Cm)
        x, y, z = (spec.sample_mass(v, _rng.stream(sub, "atom", i), n_reps)
                   for i, v in enumerate((ov, lam_C - ov, lam_Cm - ov)))
        cmat = np.cov(x + y, x + z)
        c = float(cmat[0, 1])
        c_err = np.sqrt(max(cmat[0, 0] * cmat[1, 1] + c * c, 0.0) / (n_reps - 1))
        report.add("overlap", m, overlap, ov_err)
        report.add("covariance", m, c, c_err)
        tol = 3.0 * np.hypot(c_err, ov_err)
        if abs(c - overlap) > tol:
            ok_cov = False
        if abs(overlap - lam_C) > max(3.0 * ov_err, 1e-9):
            identical_region = False
    if not ok_cov:
        verdict = FAIL
        criterion = "covariance disagrees with overlap beyond 3 sigma"
    elif not compact:
        verdict = PASS if c < 0.05 * lam_C else FAIL  # c: at m = m_max
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
    must decay to below 10% of the unconditional variance.  t_grid is a
    non-empty list or tuple of positive reals.
    """
    n_reps = _count(n_reps, "n_reps", least=2)
    if not isinstance(t_grid, (list, tuple)) or not t_grid:
        raise InvalidArgument(f"t_grid: need a non-empty list, got {t_grid!r}")
    t_grid = [_real(t, f"t_grid[{i}]", positive=True) for i, t in enumerate(t_grid)]
    if C is None:
        C = box_region([[0.0, 1.0], [0.0, 1.0]])
    if f is None:
        f = lambda v: v
    g, _ = _map(g)
    fam = build_family(g)
    lam_C = _finite_measure(C)
    report = ExperimentReport(
        "tail_triviality_decay",
        {"g": g.tolist(), "C": C.to_json(),
         "t_grid": [float(t) for t in t_grid], "n_reps": n_reps,
         "seed": seed},
    )
    # unconditional variance of f(mass(C))
    rng_total = _rng.stream(seed, "tail", "total")
    totals = gaussian_conditional_samples(f, lam_C, lam_C, 100_000, rng_total)
    var_total = float(totals.var(ddof=1))
    report.add("total_variance", 0.0, var_total,
               var_total * np.sqrt(2.0 / (len(totals) - 1)))
    for t in sorted(t_grid, reverse=True):
        s, s_err = intersection_volume(C, family_region(fam, t))
        rng = _rng.stream(seed, "tail", t)
        samples = gaussian_conditional_samples(f, s, lam_C, n_reps, rng)
        var = float(samples.var(ddof=1))
        verr = var * np.sqrt(2.0 / (n_reps - 1))
        report.add("overlap", t, s, s_err)
        report.add("cond_variance", t, var, verr)
    rows = report.rows("cond_variance")  # (t, variance, stderr), t descending
    decreasing = all(v2 <= v1 + 2.0 * np.hypot(e1, e2)
                     for (_, v1, e1), (_, v2, e2) in zip(rows, rows[1:]))
    small_tail = rows[-1][1] < 0.1 * var_total
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
    x1, x2 = _floats(x1, "x1"), _floats(x2, "x2")
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


def equivariance_check(g, C: Region, B: Region, f=np.tanh, n_reps=10_000,
                       seed=0) -> ExperimentReport:
    """Two-sample KS test of conditional-expectation laws for (C, B) vs (gC, gB),
    on n_reps >= KS_MIN_REPS samples, the fewest at which it can reject, and
    the overlap of gC and gB against |det g| times that of C and B.  A C of
    infinite measure raises UnboundedRegion."""
    n_reps = _count(n_reps, "n_reps", least=KS_MIN_REPS)
    g, det = _map(g)
    lam_C = _finite_measure(C)
    s1, e1 = intersection_volume(C, B, n=MC_SAMPLES,
                                 seed=_rng.stream_key(seed, "eq", 0) % 2**31)
    gC, gB = transform(g, C), transform(g, B)
    s2, e2 = intersection_volume(gC, gB, n=MC_SAMPLES,
                                 seed=_rng.stream_key(seed, "eq", 1) % 2**31)
    rng1 = _rng.stream(seed, "eq-samples", 0)
    rng2 = _rng.stream(seed, "eq-samples", 1)
    x1 = gaussian_conditional_samples(f, s1, lam_C, n_reps, rng1)
    x2 = gaussian_conditional_samples(f, s2, lam_C, n_reps, rng2)
    ks_stat, ks_p = ks_2samp_equal(x1, x2)
    overlap_ok = abs(s2 - det * s1) <= 3.0 * np.hypot(e1, e2) + 1e-9
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
                        "3 sigma of |det g| times the original")
    return report


# ---------------------------------------------------------------------------
# compact invariant demo


def compact_invariant_demo(generators, n_reps=10_000,
                           seed=0) -> ExperimentReport:
    """Invariant region with non-degenerate mass for a compact group.

    The region is the ellipsoid R = h B_d, for weyl_conjugator's h, formed
    here without its check, and B_d the closed unit ball, in every d.
    Its measure, the `measure` row, is exact: |det h| pi^(d/2) /
    Gamma(d/2 + 1).  Each O = h^-1 g h, delta = ||O^T O - I||_2, has its
    singular values in [sqrt(1 - delta), sqrt(1 + delta)], so the measure
    of gR symmetric-difference R is at most measure(R) ((1 + delta)^(d/2)
    - (1 - delta)^(d/2)), the `symmetric_difference_bound` row of g.  The
    only draw is of n_reps Gaussian masses of R.  Pass: every bound is
    within its value at delta = ORTHOGONALITY_TOL, and the mass variance
    is positive at 3 sigma.
    """
    n_reps = _count(n_reps, "n_reps", least=2)
    gens = _generator_list(generators)
    h, defects = _conjugator_defects(gens)
    d = len(h)
    lam = abs(float(np.linalg.det(h))) * math.pi ** (d / 2) / math.gamma(d / 2 + 1)

    def bound(delta):
        return lam * ((1.0 + delta) ** (d / 2) - (1.0 - delta) ** (d / 2))

    report = ExperimentReport(
        "compact_invariant_demo",
        {"generators": [g.tolist() for g in gens], "n_reps": n_reps,
         "seed": seed},
    )
    report.add("measure", 0, lam)
    for i, delta in enumerate(defects):
        report.add("symmetric_difference_bound", i, bound(delta))
    invariant = all(bound(delta) <= bound(ORTHOGONALITY_TOL) for delta in defects)
    masses = NoiseSpec(GAUSSIAN).sample_mass(
        lam, _rng.stream(seed, "invariant-mass"), n_reps)
    var = float(masses.var(ddof=1))
    verr = var * np.sqrt(2.0 / (n_reps - 1))
    report.add("mass_variance", 0, var, verr)
    positive = var - 3.0 * verr > 0.0
    report.verdict = PASS if (invariant and positive) else FAIL
    report.criterion = ("every generator's symmetric-difference bound is within "
                        "its value at the orthogonality tolerance and the "
                        "region's mass variance is positive at 3 sigma")
    return report


# ---------------------------------------------------------------------------
# config-driven runner


_FUNCTIONS = {"identity": lambda v: v, "tanh": np.tanh}


def _function(name):
    if name not in _FUNCTIONS:
        raise ConfigError(f"unknown function {name!r}")
    return _FUNCTIONS[name]


def _generators(value):
    """A non-empty JSON list of matrices, each read by parse_matrix."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"need a non-empty list, got {value!r}")
    return [parse_matrix(v) for v in value]


# JSON conversion of the keys that need one; other keys pass as given
_PARSERS = {"g": parse_matrix, "C": Region.from_json, "B": Region.from_json,
            "f": _function, "generators": _generators}
# kind, the experiment's name here, looked up at each run so that a wrapper
# set in its place is called: (keys an entry must give, keys it may give)
_KINDS = {
    "mixing_curve": ("g C", "m_max n_reps"),
    "tail_triviality_decay": ("g C", "f t_grid n_reps"),
    "equivariance_check": ("g C B", "f n_reps"),
    "compact_invariant_demo": ("generators", "n_reps"),
}


def read_json(path):
    """Contents of a JSON file; ConfigError if unreadable or malformed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSON syntax, or bytes that are not text
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def write_text(out_dir, name, text):
    """Write text to the file `name` in out_dir, made if missing, and
    return its path; ConfigError naming the path for any OSError."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    return path


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


def _names(entries):
    """Each entry's name, its kind if it has none, checked before any entry
    runs: the kind is known, and the name is a file name that no earlier
    entry has."""
    names = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"experiments[{i}]: each entry needs a 'kind'")
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        name = entry.get("name", kind)
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{name!r}: a name must be a non-empty string")
        if name in (".", "..") or "/" in name or os.sep in name:
            raise ConfigError(f"{name}: a name must be a file name")
        if name in names:
            raise ConfigError(f"{name}: an earlier entry has this name")
        names.append(name)
    return names


def _run_one(entry, name, master_seed):
    """One entry's experiment, on the keys it gives, converted from JSON; a
    key missing or unknown, or any LevymixError of the experiment, is a
    ConfigError that names the entry, caused by the original error."""
    kind = entry["kind"]
    required, optional = (keys.split() for keys in _KINDS[kind])
    _keys(entry, name, required, ("kind", "name", *optional))
    args = {}
    for key, value in entry.items():
        if key in ("kind", "name"):
            continue
        try:
            args[key] = _PARSERS[key](value) if key in _PARSERS else value
        except ConfigError as exc:
            raise ConfigError(f"{name}: {key}: {exc}") from exc
    seed = _rng.stream_key(master_seed, "experiment", name) % 2**31
    try:
        return globals()[kind](**args, seed=seed)
    except LevymixError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def run_all(config_path=None, seed_override=None, out_override=None):
    """Run the configured experiment list and write report + series files.

    Returns (exit_code, {name: ExperimentReport}); exit code 0 iff every
    verdict is pass.
    """
    config = default_config() if config_path is None else read_json(config_path)
    _keys(config, "config", ("experiments",), ("seed", "out"))
    entries = config["experiments"]
    if not isinstance(entries, list):
        raise ConfigError(f"config: need an 'experiments' list, got {entries!r}")
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    out_dir = out_override if out_override is not None else config.get("out", "reports")
    if type(seed) is not int or not isinstance(out_dir, str):  # a bool is no seed
        raise ConfigError(f"config: need an integer seed and a string out, "
                          f"got {seed!r} and {out_dir!r}")
    if not entries:
        raise ConfigError("config: the 'experiments' list is empty")
    reports = {}
    for entry, name in zip(entries, _names(entries)):
        report = reports[name] = _run_one(entry, name, seed)
        write_text(out_dir, f"{name}.report.json",
                   json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
        write_text(out_dir, f"{name}.series.csv", report.series_csv())
    exit_code = 0 if all(r.verdict == PASS for r in reports.values()) else 1
    return exit_code, reports
