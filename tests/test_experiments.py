import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from levymix import (build_family, cli, errors, experiments, gallery, matrices,
                     noise, rng, shrinking)
from levymix.cli import main
from levymix.experiments import (
    FAIL,
    KS_ALPHA,
    KS_MIN_REPS,
    PASS,
    ExperimentReport,
    compact_invariant_demo,
    default_config,
    equivariance_check,
    ks_2samp_equal,
    mixing_curve,
    run_all,
    tail_triviality_decay,
)
from levymix.gallery import rotation, shear, squeeze
from levymix.regions import (
    Piece,
    Region,
    atomize,
    box_region,
    intersection_volume,
    transform,
    volume,
)
from levymix.shrinking import contains_many, family_region


UNIT = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_report_series_and_json():
    r = ExperimentReport("demo", {"x": 1})
    r.add("curve", 0, 1.5, 0.1)
    r.add("curve", 1, 0.5)
    r.add("other", 0, 2.0)
    assert r.rows("curve") == [(0.0, 1.5, 0.1), (1.0, 0.5, 0.0)]
    csv = r.series_csv()
    assert csv.splitlines()[0] == "series,parameter,estimate,stderr"
    assert len(csv.splitlines()) == 4
    obj = r.to_json()
    assert obj["experiment"] == "demo" and obj["verdict"] == "inconclusive"


def test_mixing_curve_noncompact_decay():
    rep = mixing_curve(squeeze(), UNIT, m_max=6, n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    overlaps = rep.rows("overlap")
    for m, est, _ in overlaps:
        assert est == pytest.approx(2.0 ** (-m), abs=1e-9)
    covs = rep.rows("covariance")
    assert covs[-1][1] < 0.05


def test_mixing_curve_compact_fixed_region():
    # every power of rotation90 maps the box onto itself as an axis box,
    # so the overlaps are exact
    C = box_region(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    rep = mixing_curve(rotation(np.pi / 2), C, m_max=8, n_reps=3_000,
                       seed=0)
    assert rep.verdict == PASS
    assert [(est, err) for _, est, err in rep.rows("overlap")] == [(4.0, 0.0)] * 9


def test_mixing_curve_rejects_non_measure_preserving():
    with pytest.raises(errors.InvalidGenerator):
        mixing_curve(2.0 * np.eye(2), UNIT)


def test_mixing_curve_rejects_a_region_of_infinite_measure():
    # the half-strip and its image under rotation(pi) do not meet, so the
    # overlap is finite, but the rest of C has no Gaussian mass
    C = Region((UNIT.pieces[0], Piece(np.eye(2), [[2.0, np.inf], [0.0, 1.0]])))
    with pytest.raises(errors.UnboundedRegion):
        mixing_curve(rotation(np.pi), C, m_max=1)


def test_mixing_curve_reads_the_measure_of_each_power_from_det_g(monkeypatch):
    # the rounded cube of g maps the unit square onto a measure of 0.99973;
    # the masses of C and g^m C are drawn at |det g|^m measure(C)
    g = np.array([[369.0, 1.0], [368.0, 1.0]])
    drawn = []
    sample = noise.NoiseSpec.sample_mass
    monkeypatch.setattr(noise.NoiseSpec, "sample_mass",
                        lambda self, v, *rest: drawn.append(v) or sample(self, v, *rest))
    mixing_curve(g, UNIT, m_max=3, n_reps=100)
    det = abs(float(np.linalg.det(g)))
    for m in range(4):
        ov, _, rest = drawn[3 * m:3 * m + 3]
        assert math.isclose(ov + rest, det ** m, rel_tol=1e-12)


def test_tail_triviality_decay_rejects_non_measure_preserving():
    # |det| = 1/8: every experiment on a map needs |det g| = 1
    with pytest.raises(errors.InvalidGenerator):
        tail_triviality_decay(np.diag([0.5, 0.25]), t_grid=(1.0,), n_reps=100)


def test_equivariance_check_rejects_a_region_of_infinite_measure():
    # a C of infinite measure leaves the conditional samples an infinite
    # remainder variance
    half_strip = box_region([[0.0, np.inf], [0.0, 1.0]])
    with pytest.raises(errors.UnboundedRegion):
        equivariance_check(shear(), half_strip, box_region([[0.5, 1.5], [0.0, 1.0]]))


def test_mixing_curve_fails_where_the_covariance_disagrees_with_the_overlap(
        monkeypatch):
    # an overlap past measure(C), with stderr 0, is clipped to measure(C)
    # before the masses are drawn, so their covariance cannot match it
    monkeypatch.setattr(experiments, "intersection_volume",
                        lambda *args, **kwargs: (2.0, 0.0))
    rep = mixing_curve(squeeze(), UNIT, m_max=1, n_reps=1000)
    assert rep.verdict == FAIL
    assert rep.criterion == "covariance disagrees with overlap beyond 3 sigma"


def _rotation_pair_witness():
    """A non-compact word in two compact rotations of the plane."""
    P = np.diag([2.0, 0.5])
    return matrices.find_noncompact_witness(
        [rotation(2 * np.pi / 3), P @ rotation(np.pi / 2) @ np.linalg.inv(P)])


@pytest.mark.parametrize("seed", [0, 42])
def test_mixing_curve_witness_of_two_rotations_passes(seed):
    # the overlaps fall to 5.7e-5 at m = 8, and each part's mass is drawn
    # on its exact measure, so no covariance row reads 0 +- 0
    rep = mixing_curve(_rotation_pair_witness(), UNIT, n_reps=4_000, seed=seed)
    assert rep.verdict == PASS
    assert all(err > 0.0 for _, _, err in rep.rows("covariance"))
    assert all(err == 0.0 for _, _, err in rep.rows("overlap"))


def test_mixing_curve_builds_no_atom_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("mixing_curve must not atomize or sample a region")

    monkeypatch.setattr("levymix.regions.atomize", forbidden)
    monkeypatch.setattr("levymix.regions._stratified_blocks", forbidden)
    monkeypatch.setattr("levymix.noise.realize_masses", forbidden)
    for g in (_rotation_pair_witness(), shear()):
        rep = mixing_curve(g, UNIT, m_max=3, n_reps=500, seed=0)
        assert len(rep.rows("covariance")) == 4


def test_mixing_curve_clips_an_exact_overlap_above_the_measure():
    # rotation90 maps the tilted square onto itself through frames that
    # are not axis-aligned; the measured overlap at m = 1 exceeds measure(C)
    # by 8.9e-16, which unclipped gives the rest of C a negative variance
    C = transform(rotation(0.7), box_region(np.array([[-1.0, 1.0], [-1.0, 1.0]])))
    rep = mixing_curve(rotation(np.pi / 2), C, m_max=4, n_reps=1_000,
                       seed=0)
    assert rep.verdict == PASS
    assert rep.rows("overlap")[1][1] > volume(C)


def test_mixing_curve_clips_a_monte_carlo_overlap_in_3d():
    # Q [-1, 1]^3 is fixed by Q R90 Q^T; at m = 0 the Monte Carlo overlap
    # reads 8.0069 > 8 = measure(C), and the report keeps that value
    a = np.ones(3) / np.sqrt(3.0)
    K = np.cross(np.eye(3), a)  # K @ x = a x x
    Q = np.eye(3) + np.sin(0.7) * K + (1.0 - np.cos(0.7)) * K @ K
    R90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    C = transform(Q, box_region(np.array([[-1.0, 1.0]] * 3)))
    rep = mixing_curve(Q @ R90 @ Q.T, C, m_max=2, n_reps=500, seed=0)
    assert rep.verdict == PASS
    assert rep.rows("overlap")[0][1] > volume(C)
    assert np.all(np.isfinite([row[1:] for row in rep.series]))


TAIL_T = (5.0, 2.0, 1.0, 0.5, 0.2, 0.1)


def _shear_square_overlap(t):
    """Area of the unit square inside the wedge x2 <= k x1, at the
    family's own rho = 1/(1 + 1/t): near rho = 1 an ulp of rho moves
    k = rho / c, c = sqrt((1 - rho)(1 + rho)), by far more than 1e-15."""
    rho = 1.0 / (1.0 + 1.0 / t)
    if rho == 1.0:
        return 1.0
    k = rho / np.sqrt((1.0 - rho) * (1.0 + rho))
    return k / 2.0 if k <= 1.0 else 1.0 - 1.0 / (2.0 * k)


def _family_overlap(fam, t, C):
    """Measure of C n D_t by the exact overlap path, whose stderr is 0."""
    s, err = intersection_volume(C, family_region(fam, t))
    assert err == 0.0
    return s


def test_family_overlap_shear_closed_form():
    fam = build_family(shear())
    got = [_family_overlap(fam, t, UNIT) for t in TAIL_T]
    want = [_shear_square_overlap(t) for t in TAIL_T]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-15
    assert want[0] == pytest.approx(0.66834, abs=1e-5)
    assert want[-1] == pytest.approx(0.04564, abs=1e-5)


def test_family_overlap_squeeze_strip():
    # squeeze contracts x2, so D_t is the strip |x2| <= t
    fam = build_family(squeeze())
    C = box_region(np.array([[0.0, 2.0], [-1.0, 3.0]]))
    for t in (0.25, 0.5, 1.0, 2.0, 5.0):
        want = 2.0 * (min(t, 3.0) + min(t, 1.0))
        assert _family_overlap(fam, t, C) == pytest.approx(want, abs=1e-12)


def test_family_overlap_multi_piece_matches_mc():
    h = np.array([[1.0, 0.5], [0.3, 1.2]])
    fam = build_family(h @ shear() @ np.linalg.inv(h))
    C = Region((Piece(rotation(0.3), np.array([[0.0, 1.0], [0.0, 1.0]])),
                Piece(rotation(0.3), np.array([[1.0, 2.0], [0.0, 1.0]])),
                Piece(shear(), np.array([[-2.0, -1.0], [-1.0, 0.0]]))))
    sample = np.random.default_rng(11)
    n = 100_000
    for t in (5.0, 1.0, 0.2):
        est, var = 0.0, 0.0
        for piece in C.pieces:  # stratified by piece
            lo, hi = piece.box[:, 0], piece.box[:, 1]
            y = lo + sample.random((n, 2)) * (hi - lo)
            frac = contains_many(fam, t, y @ piece.frame.T).mean()
            est += piece.volume() * frac
            var += piece.volume() ** 2 * frac * (1 - frac) / n
        got = _family_overlap(fam, t, C)
        assert 0.0 < got < volume(C)
        assert abs(got - est) <= 4.0 * np.sqrt(var)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e16, 1e17])
def test_family_overlap_where_the_cone_is_the_plane(t):
    # rho = 1/(1 + 1/t) rounds to 1: D_t is the whole plane, and every
    # piece of C keeps its exact volume
    fam = build_family(shear())
    assert fam.param(t) == 1.0
    C = Region((Piece(rotation(0.3), np.array([[0.0, 1.0], [0.0, 2.0]])),
                Piece(shear(), np.array([[-2.0, -1.0], [-1.0, 0.0]]))))
    assert _family_overlap(fam, t, UNIT) == 1.0
    assert _family_overlap(fam, t, C) == volume(C)


@pytest.mark.parametrize("bounds", [[[0.0, np.inf], [0.0, 1.0]],
                                    [[0.0, 1.0], [0.0, np.inf]],
                                    [[-np.inf, 0.0], [0.0, 1.0]],
                                    [[0.0, 1.0], [-np.inf, 0.0]]])
def test_family_overlap_rejects_unbounded_regions(bounds):
    # the tail experiment needs a C of finite measure, and an unbounded C
    # meets the unbounded wedges of the shear's D_t
    for g in (shear(), squeeze()):
        with pytest.raises(errors.UnboundedRegion):
            tail_triviality_decay(g, C=box_region(bounds), t_grid=(1.0,))
    with pytest.raises(errors.UnboundedRegion):
        intersection_volume(box_region(bounds), family_region(
            build_family(shear()), 1.0))
    # the squeeze's D_1 is the strip |x2| <= 1: an axis box unbounded along
    # x1 meets it in an unbounded box, one unbounded along x2 in a unit square
    strip = family_region(build_family(squeeze()), 1.0)
    if np.isinf(bounds[0]).any():
        with pytest.raises(errors.UnboundedRegion):
            intersection_volume(box_region(bounds), strip)
    else:
        assert intersection_volume(box_region(bounds), strip) == (1.0, 0.0)


def test_family_overlap_too_coarse():
    shear3 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(errors.ApproximationTooCoarse):
        family_region(build_family(shear3), 1.0)
    with pytest.raises(errors.ApproximationTooCoarse):  # D_t is a disc
        family_region(build_family(0.5 * rotation(1.0)), 1.0)


EXTREME_T = (5e-324, 1e-310, 1e-200, 1e-20, 3e-16, 1e-15, 1e-13, 1e-8, 1e-3,
             0.2, 1.0, 1e3, 1e8, 1e12, 1e15, 1e16, 1e17)
U = 2.0**-53


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cond", [None, 1.0, 20.0, 1000.0])
@pytest.mark.parametrize("g", [shear(), squeeze()], ids=["shear", "squeeze"])
def test_family_overlap_at_extreme_t(g, cond):
    # D_t as a region raises nothing at any t.  The shear itself meets the
    # closed form within 1e-15.  Every family, conjugated at condition
    # number cond or not, meets the same construction in Jordan
    # coordinates, where T = I, within the bound family_region states,
    # 16.1 u kappa^2 R^2 with R^2 = 2 for the unit square, and that
    # construction within its own: 16.1 u 2^2 R'^2 |det T| for the
    # kappa of I, 2, and the radius R' <= R |T^-1| of T^-1 C, which comes
    # to at most 16.1 u 4 kappa R^2.
    h = np.eye(2) if cond is None else (
        rotation(0.7) @ np.diag([1.0, 1.0 / cond]) @ rotation(0.3))
    fam = build_family(h @ g @ np.linalg.inv(h))
    T = fam.decomposition.conjugator
    kappa = np.linalg.norm(T) * np.linalg.norm(fam.basis_inv)
    jordan = dataclasses.replace(fam, decomposition=dataclasses.replace(
        fam.decomposition, conjugator=np.eye(2)), basis_inv=np.eye(2))
    C_jordan = Region((Piece(fam.basis_inv, [[0.0, 1.0], [0.0, 1.0]]),))
    bound = 16.1 * U * (kappa**2 + 4.0 * kappa) * 2.0
    for t in EXTREME_T:
        s = _family_overlap(fam, t, UNIT)
        want = abs(np.linalg.det(T)) * _family_overlap(jordan, t, C_jordan)
        assert abs(s - want) <= bound, t
        if cond is None and g[0, 1] == 1.0:
            assert abs(s - _shear_square_overlap(t)) <= 1e-15, t
    if fam.uses_cone:  # the null line of a thin wedge is flat
        assert volume(family_region(fam, 1e-20)) == 0.0


def test_tail_triviality_decay_shear():
    rep = tail_triviality_decay(shear(), C=UNIT, n_reps=3_000, seed=0,
                                t_grid=TAIL_T)
    assert rep.verdict == PASS
    assert "box" not in rep.inputs
    for t, est, err in rep.rows("overlap"):
        assert abs(est - _shear_square_overlap(t)) <= 1e-15
        assert err == 0.0
    var_rows = rep.rows("cond_variance")
    assert var_rows[0][1] > var_rows[-1][1]


def test_equivariance_check_passes_for_shear():
    B = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
    rep = equivariance_check(shear(), UNIT, B, n_reps=4_000, seed=0)
    assert rep.verdict == PASS
    assert rep.rows("ks_pvalue")[0][1] >= 0.01


def test_equivariance_rejects_bad_determinant():
    with pytest.raises(errors.InvalidGenerator):
        equivariance_check(np.diag([2.0, 1.0]), UNIT, UNIT)


def test_equivariance_check_scales_the_overlap_by_the_determinant():
    # |det g| = 1 + 5e-9 is within DET_TOL, and the overlap of gC and gB is
    # exactly |det g| times that of C and B: 0.5 and 0.5000000025
    g = np.diag([2.0, 0.5 * (1 + 5e-9)])
    assert matrices.in_measure_preserving_group(g)
    B = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
    rep = equivariance_check(g, UNIT, B, n_reps=2_000, seed=0)
    assert [s for _, s, _ in rep.rows("overlap")] == [0.5, 0.5000000025]
    assert rep.rows("ks_pvalue")[0][1] >= KS_ALPHA
    assert rep.verdict == PASS
    assert "|det g|" in rep.criterion


def _axis_rotation(theta, axis):
    """Rotation by theta about `axis` in d = 3 (Rodrigues)."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * K @ K


def _demo_cap(rep, d):
    """The bound of every generator at delta = ORTHOGONALITY_TOL."""
    (_, lam, _), = rep.rows("measure")
    T = matrices.ORTHOGONALITY_TOL
    return lam * ((1.0 + T) ** (d / 2) - (1.0 - T) ** (d / 2))


def test_compact_invariant_demo_signed_permutation():
    rep = compact_invariant_demo([rotation(np.pi / 2)], n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    assert rep.rows("measure") == [(0.0, math.pi, 0.0)]  # h = I: the unit disc
    assert rep.rows("symmetric_difference_bound") == [(0.0, 0.0, 0.0)]


def test_compact_invariant_demo_signed_permutation_in_3d():
    cycle = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rep = compact_invariant_demo([cycle], n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    assert rep.rows("measure")[0][1] == pytest.approx(4.0 * math.pi / 3.0,
                                                      rel=1e-12)
    assert rep.rows("symmetric_difference_bound")[0][1] <= _demo_cap(rep, 3)


def test_compact_invariant_demo_rotation_about_an_axis_in_3d():
    # neither a signed permutation nor planar: the demo used to raise
    # ApproximationTooCoarse here, where the theorem still holds
    D = np.diag([2.0, 1.0, 0.5])
    g = D @ _axis_rotation(1.0, rng.stream(3, "axis").standard_normal(3)) \
        @ np.linalg.inv(D)
    for seed in (0, 42):
        rep = compact_invariant_demo([g], n_reps=3_000, seed=seed)
        assert rep.verdict == PASS, seed
        assert rep.rows("symmetric_difference_bound")[0][1] <= _demo_cap(rep, 3)
        assert [name for name, *_ in rep.series] == [
            "measure", "symmetric_difference_bound", "mass_variance"]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_compact_invariant_demo_ellipsoid_of_a_conjugated_rotation(d):
    stream = rng.stream(d, "demo ellipsoid")
    if d == 3:  # conjugated_rotation takes d = 2 or an even d
        P = gallery.random_det1(3, stream, cond=10.0)
        g = P @ _axis_rotation(1.0, stream.standard_normal(3)) @ np.linalg.inv(P)
    else:
        g = gallery.conjugated_rotation(1.0, stream, d=d)
    rep = compact_invariant_demo([g], n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    for _, bound, _ in rep.rows("symmetric_difference_bound"):
        assert 0.0 <= bound <= _demo_cap(rep, d)
    # {x : x^T S x <= 1} for S the Haar average form, whose inverse square
    # root is h; the unit ball's measure by V_d = 2 pi / d V_(d-2)
    ball = {0: 1.0, 1: 2.0}
    for k in range(2, d + 1):
        ball[k] = 2.0 * math.pi / k * ball[k - 2]
    S = matrices.haar_average_form([g])
    want = ball[d] / math.sqrt(np.linalg.det(S))
    assert rep.rows("measure")[0][1] == pytest.approx(want, rel=1e-12)


def test_compact_invariant_demo_fails_a_defect_above_the_tolerance(monkeypatch):
    # h and every defect are computed once, so a defect above the tolerance
    # writes its bound row and fails the verdict; weyl_conjugator raises
    g = gallery.conjugated_rotation(1.0, rng.stream(2, "demo ellipsoid"))
    h = matrices.weyl_conjugator([g])
    O = np.linalg.inv(h) @ g @ h
    delta = np.linalg.norm(O.T @ O - np.eye(2), 2)
    assert delta > 0.0
    for module in (matrices, experiments):
        monkeypatch.setattr(module, "ORTHOGONALITY_TOL", delta / 2)
    rep = compact_invariant_demo([g], n_reps=3_000, seed=0)
    assert rep.verdict == FAIL
    assert [name for name, *_ in rep.series] == [
        "measure", "symmetric_difference_bound", "mass_variance"]
    assert rep.rows("symmetric_difference_bound")[0][1] > _demo_cap(rep, 2)
    with pytest.raises(errors.ConvergenceFailure):
        matrices.weyl_conjugator([g])


def test_compact_invariant_demo_two_irrational_rotations():
    # one conjugator for both: a dense, hence infinite, compact group
    P = gallery.random_det1(2, rng.stream(5, "pair"), cond=10.0)
    gens = [P @ rotation(t) @ np.linalg.inv(P) for t in (1.0, np.sqrt(2.0))]
    rep = compact_invariant_demo(gens, n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    assert len(rep.rows("symmetric_difference_bound")) == 2


# ---------------------------------------------------------------------------
# config runner


def test_default_config_shape():
    cfg = default_config()
    assert {e["kind"] for e in cfg["experiments"]} == {
        "mixing_curve", "tail_triviality_decay", "equivariance_check",
        "compact_invariant_demo"}


def test_run_all_writes_reports(tmp_path):
    cfg = {"seed": 1, "experiments": [
        {"kind": "mixing_curve", "name": "mix", "g": "squeeze",
         "C": {"box": [[0.0, 1.0], [0.0, 1.0]]}, "m_max": 8,
         "n_reps": 1_000}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, reports = run_all(str(path), out_override=str(tmp_path / "out"))
    assert code == 0 and set(reports) == {"mix"}
    assert (tmp_path / "out" / "mix.report.json").exists()
    assert (tmp_path / "out" / "mix.series.csv").exists()
    obj = json.loads((tmp_path / "out" / "mix.report.json").read_text())
    assert obj["verdict"] == "pass"


def test_run_all_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(errors.ConfigError, match="line"):
        run_all(str(bad))
    with pytest.raises(errors.ConfigError):
        run_all(str(tmp_path / "missing.json"))
    nolist = tmp_path / "nolist.json"
    nolist.write_text(json.dumps({"seed": 1}))
    with pytest.raises(errors.ConfigError, match="experiments"):
        run_all(str(nolist))
    unknown = tmp_path / "unknown.json"
    for kind in ("nope", [], 5):
        unknown.write_text(json.dumps({"experiments": [{"kind": kind}]}))
        with pytest.raises(errors.ConfigError, match="unknown experiment"):
            run_all(str(unknown), out_override=str(tmp_path))
    alias = tmp_path / "alias.json"
    alias.write_text(json.dumps({"experiments": [
        {"kind": "mixing_curve", "g": "no-such-matrix",
         "C": {"box": [[0, 1], [0, 1]]}}]}))
    with pytest.raises(errors.ConfigError, match="no-such-matrix"):
        run_all(str(alias), out_override=str(tmp_path))
    for experiments in (5, {}):
        bad.write_text(json.dumps({"experiments": experiments}))
        with pytest.raises(errors.ConfigError, match="'experiments' list"):
            run_all(str(bad))
    for key, value in (("seed", "x"), ("seed", 1.5), ("seed", True), ("out", 5)):
        bad.write_text(json.dumps({key: value, "experiments": []}))
        with pytest.raises(errors.ConfigError, match="integer seed and a string out"):
            run_all(str(bad))
    for config, match in (({"sed": 5, "experiments": []}, "config: unknown key 'sed'"),
                          ({"experiments": []}, "'experiments' list is empty")):
        bad.write_text(json.dumps(config))
        with pytest.raises(errors.ConfigError, match=match):
            run_all(str(bad))
    unit = {"box": [[0, 1], [0, 1]]}
    piece = {"frame": [[1, 0], [0, 1]], "box": [[0, 1], [0, 1]]}
    for entry, match in (
            ({"kind": "mixing_curve", "C": unit}, "missing 'g'"),
            ({"kind": "mixing_curve", "g": {"rows": [[1, 0], [0, 1]], "dd": 3},
              "C": unit}, "g: matrix: unknown key 'dd'"),
            ({"kind": "mixing_curve", "g": "shear",
              "C": {"pieces": [piece, piece], "disjont": False}},
             "C: region: unknown key 'disjont'"),
            ({"kind": "mixing_curve", "g": "shear", "C": {**unit, "pieces": [piece]}},
             "C: region: need exactly one of 'box' and 'pieces'"),
            ({"kind": "mixing_curve", "g": "shear", "C": {"disjoint": True}},
             "C: region: need exactly one of 'box' and 'pieces'"),
            ({"kind": "mixing_curve", "g": "shear",
              "C": {"pieces": [piece, {"box": unit["box"]}]}}, "missing 'frame'"),
            ({"kind": "mixing_curve", "g": "shear",
              "C": {"pieces": [{**piece, "boxes": []}]}}, "unknown key 'boxes'"),
            ({"kind": "tail_triviality_decay", "g": "shear"}, "missing 'C'"),
            ({"kind": "equivariance_check", "g": "shear", "C": unit},
             "missing 'B'"),
            ({"kind": "tail_triviality_decay", "g": "shear", "C": unit,
              "f": "cube"}, "unknown function"),
            ({"kind": "mixing_curve", "g": {"rows": [[1, 0]]}, "C": unit},
             "square"),
            ({"kind": "mixing_curve", "g": "shear3", "C": unit},
             "unknown matrix alias 'shear3'"),
            ({"kind": "mixing_curve", "g": {"d": 3, "rows": [[1, 1], [0, 1]]},
              "C": unit}, "declared order does not match row count"),
            ({"kind": "mixing_curve", "g": "shear", "C": {"box": "x"}}, "C:"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "n_reps": "many"}, "n_reps"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "n_reps": -5}, "mixing_curve: need n_reps >= 2"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "n_reps": float("inf")}, "mixing_curve: n_reps"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "m_max": -1}, "mixing_curve: need m_max >= 0"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "m_max": 2.5}, "mixing_curve: m_max"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "m_max": True}, "mixing_curve: m_max"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "n_reps": "4000"}, "mixing_curve: n_reps"),
            ({"kind": "compact_invariant_demo", "generators": ["rotation90"],
              "n_reps": True}, "compact_invariant_demo: n_reps"),
            ({"kind": "tail_triviality_decay", "g": "shear", "C": unit,
              "t_grid": []}, "t_grid: need a non-empty list"),
            ({"kind": "tail_triviality_decay", "g": "shear", "C": unit,
              "t_grid": "ab"}, "t_grid: need a non-empty list"),
            ({"kind": "tail_triviality_decay", "g": "shear", "C": unit,
              "t_grid": "52"}, "t_grid: need a non-empty list"),
            ({"kind": "tail_triviality_decay", "g": "shear", "C": unit,
              "t_grid": [1.0, "x"]}, "tail_triviality_decay: t_grid"),
            ({"kind": "tail_triviality_decay", "g": "shear", "C": unit,
              "t_grid": [1.0, 0.0]}, "tail_triviality_decay: t_grid"),
            ({"kind": "tail_triviality_decay", "g": "shear", "C": unit,
              "t_grid": ["10", "2", "0.5"]}, "tail_triviality_decay: t_grid"),
            ({"kind": "tail_triviality_decay", "g": "shear", "C": unit,
              "t_grid": [1.0, True]}, "tail_triviality_decay: t_grid"),
            ({"kind": "compact_invariant_demo", "generators": "rotation90"},
             "compact_invariant_demo: generators: need a non-empty list"),
            ({"kind": "compact_invariant_demo", "generators": []},
             "compact_invariant_demo: generators: need a non-empty list"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit, "n_rep": 4},
             "mixing_curve: unknown key 'n_rep'"),
            ({"kind": "compact_invariant_demo", "generators": ["rotation90"],
              "t_grid": [1.0]}, "compact_invariant_demo: unknown key 't_grid'"),
            ({"kind": "equivariance_check", "g": "shear", "C": unit, "B": unit,
              "n_reps": 2}, "equivariance_check: need n_reps >= 5"),
            ({"kind": "mixing_curve", "name": "mix2",
              "g": {"rows": [[2, 0], [0, 1]]}, "C": unit},
             "mix2: map must have")):
        bad.write_text(json.dumps({"experiments": [entry]}))
        with pytest.raises(errors.ConfigError, match=match):
            run_all(str(bad), out_override=str(tmp_path))
        res = CliRunner().invoke(main, ["experiment", "run", "--config",
                                        str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 2 and res.stderr.startswith("error: ")
        assert match in res.stderr


def test_run_all_keeps_the_experiments_error_as_the_cause(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiments": [
        {"kind": "mixing_curve", "name": "mix2",
         "g": {"rows": [[2, 0], [0, 1]]}, "C": {"box": [[0, 1], [0, 1]]}}]}))
    with pytest.raises(errors.ConfigError, match="^mix2: ") as info:
        run_all(str(bad), out_override=str(tmp_path))
    assert type(info.value.__cause__) is errors.InvalidGenerator


def test_run_all_needs_a_kind_in_every_entry(tmp_path):
    bad = tmp_path / "bad.json"
    for entry in ({"name": "mix", "g": "shear"}, 3):
        bad.write_text(json.dumps({"experiments": [entry]}))
        with pytest.raises(errors.ConfigError, match=re.escape(
                "experiments[0]: each entry needs a 'kind'")):
            run_all(str(bad), out_override=str(tmp_path))


def test_run_all_reads_a_named_function(tmp_path):
    unit = {"box": [[0.0, 1.0], [0.0, 1.0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "experiments": [
        {"kind": "tail_triviality_decay", "name": "tail", "g": "shear",
         "C": unit, "f": "tanh", "t_grid": [1.0, 0.1], "n_reps": 200}]}))
    _, reports = run_all(str(path), out_override=str(tmp_path))
    seed = rng.stream_key(3, "experiment", "tail") % 2**31
    direct = tail_triviality_decay(shear(), f=np.tanh, C=box_region(unit["box"]),
                                   t_grid=[1.0, 0.1], n_reps=200, seed=seed)
    assert reports["tail"].to_json() == direct.to_json()


def test_run_all_adds_no_defaults(tmp_path):
    # an entry without its optional keys runs its experiment with the
    # experiment's own defaults, and so writes the same report
    unit = {"box": [[0.0, 1.0], [0.0, 1.0]]}
    entries = [
        {"kind": "mixing_curve", "name": "mix", "g": "squeeze", "C": unit},
        {"kind": "tail_triviality_decay", "name": "tail", "g": "shear", "C": unit},
        {"kind": "equivariance_check", "name": "eq", "g": "shear", "C": unit,
         "B": unit},
        {"kind": "compact_invariant_demo", "name": "demo",
         "generators": ["rotation90"]}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "experiments": entries}))
    _, reports = run_all(str(path), out_override=str(tmp_path))
    U = box_region(unit["box"])
    direct = {"mix": lambda seed: mixing_curve(squeeze(), U, seed=seed),
              "tail": lambda seed: tail_triviality_decay(shear(), C=U, seed=seed),
              "eq": lambda seed: equivariance_check(shear(), U, U, seed=seed),
              "demo": lambda seed: compact_invariant_demo([rotation(np.pi / 2)],
                                                          seed=seed)}
    for name, call in direct.items():
        seed = rng.stream_key(3, "experiment", name) % 2**31
        assert reports[name].to_json() == call(seed).to_json()


def test_equivariance_check_needs_a_sample_that_can_reject():
    # two samples that do not overlap give the least p-value, 2 / C(2n, n)
    def least_p(n):
        return ks_2samp_equal(np.arange(n), np.arange(n) + n)[1]

    assert least_p(KS_MIN_REPS) < KS_ALPHA <= least_p(KS_MIN_REPS - 1)
    with pytest.raises(errors.InvalidArgument, match="n_reps >= 5"):
        equivariance_check(shear(), UNIT, UNIT, n_reps=KS_MIN_REPS - 1)
    rep = equivariance_check(shear(), UNIT, UNIT, n_reps=KS_MIN_REPS)
    assert rep.inputs["n_reps"] == KS_MIN_REPS


# every row raised or returned something other than a LevymixError before
# each argument got one rule, checked on entry
ROTATION_SIX_DIGITS = [[0.5, -0.866025], [0.866025, 0.5]]  # |det| - 1 = -7e-7
SQUARE = box_region(np.array([[-1.0, 1.0], [-1.0, 1.0]]))


@pytest.mark.parametrize("call, error", [
    (lambda: mixing_curve(ROTATION_SIX_DIGITS, SQUARE, n_reps=2000),
     errors.InvalidGenerator),
    (lambda: equivariance_check(ROTATION_SIX_DIGITS, SQUARE, SQUARE),
     errors.InvalidGenerator),
    (lambda: tail_triviality_decay(shear(), t_grid=("10", "2", "0.5"), n_reps=100),
     errors.InvalidArgument),
    (lambda: tail_triviality_decay(shear(), n_reps=2.5), errors.InvalidArgument),
    (lambda: equivariance_check(shear(), SQUARE, SQUARE, n_reps="5"),
     errors.InvalidArgument),
    (lambda: tail_triviality_decay(shear(), n_reps=1), errors.InvalidArgument),
    (lambda: compact_invariant_demo([rotation(np.pi / 2)], n_reps=1),
     errors.InvalidArgument),
    (lambda: mixing_curve(squeeze(), SQUARE, m_max=2.5), errors.InvalidArgument),
    (lambda: shrinking.absorption_lag(build_family(shear()), "0.5", 1.0),
     errors.InvalidArgument),
    (lambda: shrinking.absorption_lag(build_family(shear()), True, 1.0),
     errors.InvalidArgument),
    (lambda: contains_many(build_family(shear()), "2", np.zeros((3, 2))),
     errors.InvalidArgument),
    (lambda: family_region(build_family(shear()), "2"), errors.InvalidArgument),
    (lambda: noise.NoiseSpec(noise.DETERMINISTIC, True), errors.InvalidArgument),
    (lambda: noise.NoiseSpec(noise.GAUSSIAN, "2"), errors.InvalidArgument),
], ids=["mixing-det", "equivariance-det", "t-text", "n_reps-float",
        "n_reps-text", "tail-n_reps-1", "demo-n_reps-1", "m_max-float",
        "t_small-text", "t_small-bool", "contains-t-text", "region-t-text",
        "rate-bool", "intensity-text"])
def test_each_argument_has_one_rule(call, error):
    with pytest.raises(error):
        call()


def _bad_counts(least):
    """Values no count of at least `least` takes: text, bools, None, every
    float (NaN, +-inf and non-integral ones among them) and smaller integers."""
    return st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.floats(),
                     st.integers(max_value=least - 1))


def _bad_reals(positive):
    """Values no finite real parameter takes; non-positive ones too if `positive`."""
    bad = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
    if positive:
        bad = st.one_of(bad, st.floats(max_value=0.0), st.integers(max_value=0))
    return bad


def _bad_arrays(shape):
    """Values no array argument of that shape takes: ragged rows, text,
    bools and complex numbers in that shape, and None."""
    def shaped(entries):
        for n in reversed(shape):
            entries = st.lists(entries, min_size=n, max_size=n)
        return entries
    ragged = st.lists(st.lists(st.floats(), min_size=1, max_size=3),
                      min_size=2, max_size=3).filter(
                          lambda rows: len({len(r) for r in rows}) > 1)
    return st.one_of(ragged, shaped(st.text(max_size=3)), shaped(st.booleans()),
                     shaped(st.complex_numbers()), st.none())


BLOCK_AT_1 = matrices.RealJordanBlock(matrices.BlockKind.REAL, 2, 1.0 + 0j)
SHEAR_FAMILY = build_family(shear())
ARGUMENTS = {
    "mixing_curve.m_max": (lambda v: mixing_curve(squeeze(), UNIT, m_max=v),
                           _bad_counts(0)),
    "mixing_curve.n_reps": (lambda v: mixing_curve(squeeze(), UNIT, n_reps=v),
                            _bad_counts(2)),
    "tail_triviality_decay.n_reps": (
        lambda v: tail_triviality_decay(shear(), n_reps=v), _bad_counts(2)),
    "tail_triviality_decay.t_grid": (
        lambda v: tail_triviality_decay(shear(), t_grid=[1.0, v]), _bad_reals(True)),
    "equivariance_check.n_reps": (
        lambda v: equivariance_check(shear(), UNIT, UNIT, n_reps=v),
        _bad_counts(KS_MIN_REPS)),
    "compact_invariant_demo.n_reps": (
        lambda v: compact_invariant_demo([rotation(np.pi / 2)], n_reps=v),
        _bad_counts(2)),
    "absorption_lag.t_small": (
        lambda v: shrinking.absorption_lag(SHEAR_FAMILY, v, 1.0), _bad_reals(True)),
    "absorption_lag.t_large": (
        lambda v: shrinking.absorption_lag(SHEAR_FAMILY, 0.5, v), _bad_reals(True)),
    "absorption_lag.n_samples": (
        lambda v: shrinking.absorption_lag(SHEAR_FAMILY, 0.5, 1.0, n_samples=v),
        _bad_counts(1)),
    "absorption_lag.h_max": (
        lambda v: shrinking.absorption_lag(SHEAR_FAMILY, 0.5, 1.0, h_max=v),
        _bad_counts(0)),
    "contains_many.t": (
        lambda v: contains_many(SHEAR_FAMILY, v, np.zeros((3, 2))), _bad_reals(True)),
    "family_region.t": (lambda v: family_region(SHEAR_FAMILY, v), _bad_reals(True)),
    "NoiseSpec.poisson": (lambda v: noise.NoiseSpec(noise.POISSON, v),
                          _bad_reals(True)),
    "NoiseSpec.deterministic": (lambda v: noise.NoiseSpec(noise.DETERMINISTIC, v),
                                _bad_reals(False)),
    "find_noncompact_witness.max_word_len": (
        lambda v: matrices.find_noncompact_witness([shear()], max_word_len=v),
        _bad_counts(0)),
    "as_matrix.A": (matrices.real_jordan_form, _bad_arrays((2, 2))),
    "Piece.box": (lambda v: Piece(np.eye(2), v), _bad_arrays((2, 2))),
    "box_region.bounds": (box_region, _bad_arrays((2, 2))),
    "Region.contains.points": (UNIT.contains, _bad_arrays((3, 2))),
    "contains_many.points": (lambda v: contains_many(SHEAR_FAMILY, 1.0, v),
                             _bad_arrays((3, 2))),
    "jordan_block_power_apply.x": (
        lambda v: matrices.jordan_block_power_apply(BLOCK_AT_1, 2, v),
        _bad_arrays((2,))),
    "ks_2samp_equal.x1": (lambda v: ks_2samp_equal(v, [1.0, 2.0]), _bad_arrays((2,))),
}


@pytest.mark.parametrize("argument", sorted(ARGUMENTS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_invalid_arguments_raise_before_any_work(argument, data):
    # a LevymixError and nothing else; no draw reaches the work of its call,
    # so the 20 draws of each argument take milliseconds
    call, values = ARGUMENTS[argument]
    with pytest.raises(errors.LevymixError):
        call(data.draw(values))


def _bad_seeds():
    """Values no seed takes: text, bools, None and every float."""
    return st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.floats())


SEED_READERS = {
    "mixing_curve": lambda s: mixing_curve(squeeze(), UNIT, m_max=0, n_reps=2, seed=s),
    "realize": lambda s: noise.realize(noise.NoiseSpec(noise.GAUSSIAN), [UNIT], seed=s),
    "absorption_lag": lambda s: shrinking.absorption_lag(SHEAR_FAMILY, 0.5, 1.0,
                                                         n_samples=1, seed=s),
}


@pytest.mark.parametrize("reader", sorted(SEED_READERS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_invalid_seeds_raise_where_they_are_read(reader, data):
    # rng.stream_key reads every seed, at the first draw: after the other
    # arguments are checked and, it may be, after some work
    with pytest.raises(errors.InvalidArgument, match="seed must be an integer"):
        SEED_READERS[reader](data.draw(_bad_seeds()))


def test_every_integer_seed_keys_its_stream_as_its_text():
    for seed, text in ((0, "0"), (-3, "-3"), (2**70, str(2**70)), (np.int64(7), "7"),
                       (np.uint8(255), "255")):
        digest = hashlib.sha256(f"{text}/mix/1".encode()).digest()
        assert rng.stream_key(seed, "mix", 1) == int.from_bytes(digest[:16], "little")


# every row raised an error outside LevymixError, a warning, or nothing
# before arrays and seeds each got one rule


@pytest.mark.parametrize("call, error", [
    (lambda: matrices.real_jordan_form([[1, 2], [3]]), errors.InvalidArgument),
    (lambda: transform([[1, 0], [0]], UNIT), errors.InvalidArgument),
    (lambda: box_region([[0, 1], [0]]), errors.InvalidArgument),
    (lambda: UNIT.contains([[0.5, 0.5], [1]]), errors.InvalidArgument),
    (lambda: ks_2samp_equal([1, [2]], [1, 2]), errors.InvalidArgument),
    (lambda: matrices.jordan_block_power_apply(BLOCK_AT_1, 2, ["a", "b"]),
     errors.InvalidArgument),
    (lambda: matrices.real_jordan_form([["1", "0"], ["0", "1"]]),
     errors.InvalidArgument),
    (lambda: box_region([["0", "1"], ["0", "1"]]), errors.InvalidArgument),
    (lambda: UNIT.contains([["0.5", "0.5"]]), errors.InvalidArgument),
    (lambda: gallery.parse_matrix({"rows": [["1", "0"], ["0", "1"]]}),
     errors.ConfigError),
    (lambda: Region.from_json({"box": [["0", "1"], ["0", "1"]]}), errors.ConfigError),
    (lambda: matrices.cyclic_closure_compact(np.diag([1 + 1j, 1 - 1j])),
     errors.InvalidArgument),
    (lambda: mixing_curve(squeeze(), UNIT, m_max=2, n_reps=50, seed=2.5),
     errors.InvalidArgument),
    (lambda: mixing_curve(squeeze(), UNIT, m_max=2, n_reps=50, seed="2"),
     errors.InvalidArgument),
    (lambda: mixing_curve(squeeze(), UNIT, m_max=2, n_reps=50, seed=True),
     errors.InvalidArgument),
    (lambda: mixing_curve(squeeze(), UNIT, m_max=2, n_reps=50, seed=None),
     errors.InvalidArgument),
    (lambda: noise.realize(noise.NoiseSpec(noise.GAUSSIAN), [UNIT], seed=None),
     errors.InvalidArgument),
], ids=["jordan-ragged", "transform-ragged", "box-ragged", "contains-ragged",
        "ks-ragged", "power-text", "jordan-text", "box-text", "contains-text",
        "parse-text", "from_json-text", "compact-complex", "seed-float",
        "seed-text", "seed-bool", "mixing-seed-none", "realize-seed-none"])
def test_arrays_and_seeds_have_one_rule(call, error):
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# command line


def test_cli_jordan_and_classify():
    runner = CliRunner()
    res = runner.invoke(main, ["jordan", "--matrix", "shear"])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["blocks"][0]["size"] == 2
    res = runner.invoke(main, ["classify", "--matrix", "squeeze"])
    assert json.loads(res.output) == {"compact": False, "case_tags": [["C", 1]]}
    res = runner.invoke(main, ["classify", "--matrix", "rotation"])
    assert json.loads(res.output) == {"compact": True, "case_tags": []}


def test_cli_witness_and_weyl(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["witness", "--generators", "rotation90"])
    assert json.loads(res.output) == {"found": False, "compact": True}
    pair = tmp_path / "pair.json"
    elliptic = np.diag([2.0, 1.0]) @ rotation(np.pi / 3) @ np.diag([0.5, 1.0])
    pair.write_text(json.dumps([{"rows": rotation(np.pi / 2).tolist()},
                                {"rows": elliptic.tolist()}]))
    res = runner.invoke(main, ["witness", "--generators", str(pair),
                               "--max-word-len", "1"])
    assert json.loads(res.output) == {
        "found": False, "compact": False,
        "note": "no witness up to word length 1"}
    res = runner.invoke(main, ["witness", "--generators", str(pair)])
    assert json.loads(res.output)["found"] is True
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([{"d": 2, "rows": squeeze().tolist()}]))
    res = runner.invoke(main, ["witness", "--generators", str(gens)])
    assert json.loads(res.output)["found"] is True
    gens.write_text(json.dumps([{"rows": [[1.0, 1e300], [0.0, 1.0]]}]))
    res = runner.invoke(main, ["witness", "--generators", str(gens)])
    assert res.exit_code == 0 and json.loads(res.output)["found"] is True
    res = runner.invoke(main, ["weyl", "--generators", "rotation90"])
    h = np.array(json.loads(res.output)["rows"])
    assert np.allclose(h, np.eye(2), atol=1e-10)
    res = runner.invoke(main, ["weyl", "--generators", "rotation"])
    assert res.exit_code == 0, res.output


def test_cli_matrix_file_input(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"d": 2, "rows": shear().tolist()}))
    runner = CliRunner()
    res = runner.invoke(main, ["jordan", "--matrix", str(path)])
    assert res.exit_code == 0


def test_cli_sets_verify(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, [
        "sets", "verify", "--matrix", "squeeze", "--t-grid", "0.5,1,2",
        "--n-samples", "300", "--h-max", "50", "--seed", "0",
        "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "sets_verify.csv").read_text().splitlines()
    assert lines[0] == "t_small,t_large,h0,violations"
    assert len(lines) == 5  # 3 pairs + header + null-check comment
    assert lines[-1].startswith("#")
    # a repeated grid value makes no pair of equal values
    res = runner.invoke(main, [
        "sets", "verify", "--matrix", "squeeze", "--t-grid", "2,1,1,2.0,0.5",
        "--n-samples", "300", "--seed", "0", "--out", str(tmp_path / "again")])
    assert res.exit_code == 0, res.output
    again = (tmp_path / "again" / "sets_verify.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in again[1:-1]] == [
        ["0.5", "1.0"], ["0.5", "2.0"], ["1.0", "2.0"]]


@pytest.mark.parametrize("cond", [1.0, 20.0, 1000.0])
def test_cli_sets_verify_conjugated_squeeze(tmp_path, cond):
    # P has condition number exactly cond; the expanding coordinate grows
    # like 2^h, and the lag must not depend on it at the default --h-max
    P = rotation(0.4) @ np.diag([cond ** 0.5, cond ** -0.5]) @ rotation(1.1)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrices.matrix_to_json(
        P @ squeeze() @ np.linalg.inv(P))))
    res = CliRunner().invoke(main, ["sets", "verify", "--matrix", str(path),
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "sets_verify.csv").read_text().splitlines()
    assert len(lines) == 12  # 10 pairs of the default grid, header, comment
    for line in lines[1:-1]:
        t1, t2, h0, bad = line.split(",")
        assert int(h0) == math.ceil(math.log2(float(t2) / float(t1)))
        assert int(bad) == 0


def test_cli_simulate_and_env_overrides(tmp_path, monkeypatch):
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps([{"box": [[0.0, 1.0], [0.0, 1.0]]}]))
    monkeypatch.setenv("LEVYMIX_SEED", "9")
    monkeypatch.setenv("LEVYMIX_OUT", str(tmp_path / "env-out"))
    runner = CliRunner()
    res = runner.invoke(main, ["simulate", "--spec", "poisson:3",
                               "--regions", str(regions), "--n", "2000"])
    assert res.exit_code == 0
    dump = json.loads((tmp_path / "env-out" / "realization.json").read_text())
    assert dump["seed"] == 9
    assert dump["spec"]["kind"] == "poisson"
    assert dump["region_masses"][0] == sum(
        v for v, s in zip(dump["atom_values"], dump["atom_signatures"])
        if s == "1")


def test_cli_simulate_poisson_is_reproducible(tmp_path):
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps([{"box": [[0.0, 1.0], [0.0, 1.0]]},
                                   {"box": [[0.5, 1.5], [0.0, 1.0]]}]))
    dumps = []
    for out in ("a", "b"):
        res = CliRunner().invoke(main, [
            "simulate", "--spec", "poisson:3", "--regions", str(regions),
            "--seed", "4", "--out", str(tmp_path / out)])
        assert res.exit_code == 0, res.output
        dumps.append((tmp_path / out / "realization.json").read_bytes())
    assert dumps[0] == dumps[1]
    dump = json.loads(dumps[0])
    assert [len(p) for p in dump["atom_points"]] == dump["atom_values"]


def test_cli_experiment_run(tmp_path):
    cfg = {"experiments": [
        {"kind": "mixing_curve", "name": "mix", "g": "squeeze",
         "C": {"box": [[0.0, 1.0], [0.0, 1.0]]}, "m_max": 8,
         "n_reps": 1_000}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runner = CliRunner()
    res = runner.invoke(main, ["experiment", "run", "--config", str(path),
                               "--seed", "3", "--out", str(tmp_path / "out")])
    assert res.exit_code == 0
    assert "mix: pass" in res.output
    res = runner.invoke(main, ["experiment", "run", "--config",
                               str(tmp_path / "missing.json")])
    assert res.exit_code == 2


def test_cli_has_no_format_option():
    def commands(group):
        for cmd in group.commands.values():
            yield cmd
            if isinstance(cmd, click.Group):
                yield from commands(cmd)

    names = [cmd.name for cmd in commands(main)]
    assert {"jordan", "classify", "witness", "weyl", "verify", "run"} <= set(names)
    for cmd in commands(main):
        flags = [o.lstrip("-") for p in cmd.params for o in p.opts]
        assert "format" not in flags, cmd.name


@pytest.mark.parametrize("argv", [
    ["jordan", "--matrix", "nope.json"],
    ["classify", "--matrix", "nope.json"],
    ["sets", "verify", "--matrix", "rotation"],
    ["simulate", "--spec", "cauchy", "--regions", "regions.json"],
    ["simulate", "--spec", "poisson:x", "--regions", "regions.json"],
    ["simulate", "--regions", "nope.json"],
    ["witness", "--generators", "bad.json"],
    ["weyl", "--generators", "squeeze"],
    ["witness", "--generators", "empty.json"],
    ["weyl", "--generators", "empty.json"],
    ["witness", "--generators", "mixed.json"],
    ["weyl", "--generators", "mixed.json"],
    ["sets", "verify", "--matrix", "squeeze", "--t-grid", "0,1"],
    ["sets", "verify", "--matrix", "squeeze", "--t-grid", "0.5,x"],
    ["simulate", "--regions", "rotated.json", "--n", "-5"],
    ["simulate", "--regions", "rotated.json", "--n", "0"],
    *(["simulate", "--spec", spec, "--regions", "regions.json"]
      for spec in ("poisson:nan", "poisson:inf", "poisson:1e300",
                   "deterministic:nan", "deterministic:inf", "gaussian:nan",
                   "poisson:1e7")),
    ["jordan", "--matrix", "infinite_order.json"],
    ["jordan", "--matrix", "huge_shear.json"],
    ["classify", "--matrix", "huge_shear.json"],
    *(["experiment", "run", "--config", f"config_{name}.json"]
      for name in ("experiments", "seed_text", "seed_float", "out")),
    *(["simulate", "--regions", f"{name}.json"]
      for name in ("five", "null", "one_region", "disjoint_text")),
    ["simulate", "--spec", "gaussian:2", "--regions", "regions.json"],
    *(["experiment", "run", "--config", f"config_{name}.json"]
      for name in ("empty", "sed")),
    *(["simulate", "--regions", f"{name}.json"]
      for name in ("disjont", "box_and_pieces")),
    ["jordan", "--matrix", "matrix_dd.json"],
    # an existing file given as the output directory
    ["experiment", "run", "--config", "config_demo.json", "--out", "taken"],
    ["sets", "verify", "--matrix", "squeeze", "--t-grid", "0.5,1", "--out", "taken"],
    ["simulate", "--regions", "regions.json", "--out", "taken"],
])
def test_cli_errors_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    demo = {"kind": "compact_invariant_demo", "generators": ["rotation90"],
            "n_reps": 100}
    for name, config in (("experiments", {"experiments": 5}),
                         ("seed_text", {"seed": "x", "experiments": []}),
                         ("seed_float", {"seed": 1.5, "experiments": []}),
                         ("out", {"out": 5, "experiments": []}),
                         ("empty", {"experiments": []}),
                         ("sed", {"sed": 5, "experiments": [demo]}),
                         ("demo", {"experiments": [demo]})):
        (tmp_path / f"config_{name}.json").write_text(json.dumps(config))
    (tmp_path / "five.json").write_text("5")
    (tmp_path / "null.json").write_text("null")
    (tmp_path / "one_region.json").write_text(json.dumps({"box": [[0, 1], [0, 1]]}))
    (tmp_path / "disjoint_text.json").write_text(json.dumps([{"pieces": [
        {"frame": [[1, 0], [0, 1]], "box": [[0, 1], [0, 1]]}], "disjoint": "false"}]))
    piece = {"frame": [[1, 0], [0, 1]], "box": [[0, 1], [0, 1]]}
    (tmp_path / "disjont.json").write_text(json.dumps([
        {"pieces": [piece, piece], "disjont": False}]))
    (tmp_path / "box_and_pieces.json").write_text(json.dumps([
        {"box": [[0, 1], [0, 1]], "pieces": [piece]}]))
    (tmp_path / "matrix_dd.json").write_text(json.dumps(
        {"rows": [[1, 0], [0, 1]], "dd": 3}))
    (tmp_path / "taken").write_text("")
    (tmp_path / "regions.json").write_text(json.dumps([{"box": [[0, 1], [0, 1]]}]))
    (tmp_path / "rotated.json").write_text(json.dumps([{"pieces": [
        {"frame": [[0.6, -0.8], [0.8, 0.6]], "box": [[0, 1], [0, 1]]}]}]))
    (tmp_path / "bad.json").write_text(json.dumps([{"rows": [[1.0, 0.0]]}]))
    (tmp_path / "empty.json").write_text("[]")
    (tmp_path / "infinite_order.json").write_text(json.dumps(
        {"d": float("inf"), "rows": np.eye(2).tolist()}))
    (tmp_path / "huge_shear.json").write_text(json.dumps(
        {"rows": [[1.0, 1e200], [0.0, 1.0]]}))
    (tmp_path / "mixed.json").write_text(json.dumps(
        [{"rows": np.eye(2).tolist()}, {"rows": np.eye(3).tolist()}]))
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.output
    assert not (tmp_path / "reports").exists()


def test_cli_leaves_library_defaults_to_the_library(tmp_path, monkeypatch):
    # a flag not given passes no keyword, so the library's default applies
    kwargs = {}

    def spy(name, real):
        def call(*args, **kw):
            kwargs[name] = kw
            return real(*args, **kw)
        return call

    monkeypatch.setattr(cli, "find_noncompact_witness",
                        spy("witness", matrices.find_noncompact_witness))
    monkeypatch.setattr(shrinking, "absorption_lag",
                        spy("lag", shrinking.absorption_lag))
    monkeypatch.setattr(noise, "realize", spy("realize", noise.realize))
    monkeypatch.setattr(noise, "NoiseSpec", spy("spec", noise.NoiseSpec))
    (tmp_path / "regions.json").write_text(json.dumps([{"box": [[0, 1], [0, 1]]}]))
    monkeypatch.chdir(tmp_path)
    verify = ["sets", "verify", "--matrix", "squeeze", "--t-grid", "1,2",
              "--n-samples", "50"]
    simulate = ["simulate", "--regions", "regions.json"]
    for name, key, argv, flag, value in (
            ("witness", "max_word_len", ["witness", "--generators", "squeeze"],
             ["--max-word-len", "2"], 2),
            ("lag", "h_max", verify, ["--h-max", "30"], 30),
            ("realize", "n_atom_samples", simulate, ["--n", "500"], 500),
            ("spec", "intensity", [*simulate, "--spec", "poisson"],
             ["--spec", "poisson:3"], 3.0)):
        for extra in ([], flag):
            res = CliRunner().invoke(main, argv + extra)
            assert res.exit_code == 0, res.output
            got = kwargs.pop(name)
            assert got.get(key, "absent") == (value if extra else "absent")


@pytest.mark.parametrize("flag, value, message", [
    ("--n-samples", "0", "n_samples >= 1"),
    ("--h-max", "-1", "h_max >= 0"),
    ("--t-grid", "nan,1", "t_small"),
    ("--t-grid", "1,inf", "t_small"),
])
def test_cli_sets_verify_rejects_out_of_range(tmp_path, flag, value, message):
    res = CliRunner().invoke(main, ["sets", "verify", "--matrix", "squeeze",
                                    flag, value, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ") and message in res.stderr
    assert "Traceback" not in res.output
    assert not (tmp_path / "sets_verify.csv").exists()


def test_argument_checks_raise_invalid_argument():
    fam = build_family(squeeze())
    block = matrices.real_jordan_form(shear()).blocks[0]
    gauss = noise.NoiseSpec(noise.GAUSSIAN)
    atoms = atomize([UNIT], n=0)
    wide = atomize([box_region(np.array([[0.0, 4.0], [0.0, 1.0]]))], n=0)
    calls = [
        *(lambda m=m: intersection_volume(UNIT, UNIT, method=m)
          for m in ("grid", "axis")),
        lambda: intersection_volume(UNIT, UNIT, method="mc", n=0),
        *(lambda n=n: atomize([UNIT], n=n, method="mc")
          for n in (float("inf"), "100", 2.5)),
        *(lambda n=n: intersection_volume(UNIT, UNIT, method="mc", n=n)
          for n in (float("inf"), "100", 2.5)),
        lambda: gallery.conjugated_rotation(0.5, np.random.default_rng(0), d=3),
        lambda: fam.param(0.0),
        lambda: fam.param(float("nan")),
        *(lambda A=A: build_family(A).param(10**400)  # finite, beyond a float
          for A in (shear(), squeeze())),
        lambda: shrinking.contains_many(fam, float("inf"), np.zeros((1, 2))),
        lambda: shrinking.absorption_lag(fam, 0.0, 1.0),
        lambda: shrinking.absorption_lag(fam, float("nan"), 1.0),
        lambda: shrinking.absorption_lag(fam, 1.0, float("inf")),
        lambda: shrinking.absorption_lag(fam, 0.5, 1.0, n_samples=0),
        lambda: shrinking.absorption_lag(fam, 0.5, 1.0, h_max=-1),
        lambda: shrinking.null_boundary_check(fam, n_samples=0),
        *(lambda v=v: shrinking.absorption_lag(fam, 0.5, 1.0, n_samples=v)
          for v in ("5", 2.5, float("inf"))),
        *(lambda v=v: shrinking.null_boundary_check(fam, n_samples=v)
          for v in ("5", 2.5, float("inf"))),
        *(lambda f=f: shrinking.absorption_lag(f, 0.5, 1.0, h_max=2.5)
          for f in (fam, build_family(shear()))),  # a ball and a cone
        *(lambda v=v: matrices.find_noncompact_witness([squeeze()], max_word_len=v)
          for v in ("3", 2.5, float("inf"), None, -1, True)),
        lambda: matrices.jordan_block_power_apply(block, -1, np.ones(2)),
        lambda: matrices.haar_average_form([]),
        lambda: noise.NoiseSpec(noise.POISSON, -1.0),
        lambda: noise.NoiseSpec(noise.POISSON, float("inf")),
        lambda: noise.NoiseSpec(noise.DETERMINISTIC, float("nan")),
        *(lambda v=v: noise.NoiseSpec(noise.GAUSSIAN, v)  # takes no intensity
          for v in (2.0, 0.5, 0.0, -1.0)),
        lambda: noise.realize_masses(gauss, atoms, -1),
        lambda: noise.realize_masses(gauss, atoms, 2.0),
        lambda: noise.realize_masses(gauss, atoms, "3"),
        lambda: noise.realize_masses(noise.NoiseSpec(noise.POISSON, 1e300),
                                     atoms, 1),
        lambda: noise.realize_masses(noise.NoiseSpec(noise.DETERMINISTIC, 1e308),
                                     wide, 1),
    ]
    for call in calls:
        with pytest.raises(errors.InvalidArgument) as info:
            call()
        assert isinstance(info.value, errors.LevymixError)
        assert isinstance(info.value, ValueError)


def test_experiments_reject_empty_inputs():
    calls = [
        lambda: mixing_curve(squeeze(), UNIT, m_max=-1),
        lambda: tail_triviality_decay(shear(), t_grid=()),
        lambda: compact_invariant_demo([]),
    ]
    for call in calls:
        with pytest.raises(errors.InvalidArgument):
            call()


def test_cli_experiment_run_uses_config_seed_and_out(tmp_path, monkeypatch):
    monkeypatch.delenv("LEVYMIX_SEED", raising=False)
    monkeypatch.delenv("LEVYMIX_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "from-config"
    cfg = {"seed": 42, "out": str(out), "experiments": [
        {"kind": "mixing_curve", "name": "mix", "g": "squeeze",
         "C": {"box": [[0.0, 1.0], [0.0, 1.0]]}, "m_max": 4,
         "n_reps": 1_000}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = CliRunner().invoke(main, ["experiment", "run", "--config", str(path)])
    assert res.exit_code == 0
    assert not (tmp_path / "reports").exists()
    obj = json.loads((out / "mix.report.json").read_text())
    assert obj["inputs"]["seed"] == rng.stream_key(42, "experiment", "mix") % 2**31


# sha256 over the name and bytes of each *.series.csv and *.report.json
# file, in name order, that `levymix experiment run --seed N` writes; a
# change that moves the battery's output updates it here
BATTERY_SHA256 = {
    0: "3619774d669f596a50c2501c4f767073f6fea81f00ac8675dd241017ae687539",
    42: "28150e6848bf7e52892f9ce8d343deb7c6759c8999b8e10722d7d5c3cd827449",
}


@pytest.mark.parametrize("seed", sorted(BATTERY_SHA256))
def test_battery_output_is_pinned(tmp_path, seed):
    res = CliRunner().invoke(main, ["experiment", "run", "--seed", str(seed),
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    files = sorted([*tmp_path.glob("*.series.csv"), *tmp_path.glob("*.report.json")])
    assert len(files) == 2 * len(default_config()["experiments"])
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == BATTERY_SHA256[seed]


# region files of the pinned `simulate` runs.  regions.json: an axis box,
# a rotated piece that overlaps it, and a box that meets both.
# staircases.json: axis-box staircases A and B, A u B, and a box that
# overlaps them, so the exact sweep, with pieces that A u B shares with A
# and B.  rotated.json: rotated pieces A and B and A u B, three separate
# regions, so Monte Carlo atoms with shared pieces.
_ROT = [[0.8, -0.6], [0.6, 0.8]]
_STAIRS = ([[[0, 1], [0, 1]], [[1, 2], [0, 1]], [[0, 1], [1, 2]]],
           [[[2, 3], [0, 1]], [[1, 2], [1, 2]], [[2, 3], [2, 3]]])
PIN_REGIONS = {
    "regions.json": [
        {"box": [[0, 2], [0, 1]]},
        {"pieces": [{"frame": _ROT, "box": [[0.5, 1.5], [0, 1]]}]},
        {"box": [[1, 3], [0, 2]]},
    ],
    "staircases.json": [
        *({"pieces": [{"frame": [[1, 0], [0, 1]], "box": b} for b in boxes]}
          for boxes in (*_STAIRS, _STAIRS[0] + _STAIRS[1])),
        {"box": [[0.5, 2.5], [0.5, 1.5]]},
    ],
    "rotated.json": [
        *({"pieces": [{"frame": _ROT, "box": b} for b in boxes]}
          for boxes in ([[[0, 1], [0, 1]]], [[[1.5, 2.5], [0, 1]]],
                        [[[0, 1], [0, 1]], [[1.5, 2.5], [0, 1]]])),
    ],
}
# sha256 of the file that each command writes; a change that moves its
# bytes updates it here
OUTPUT_SHA256 = {
    "verify-shear": (["sets", "verify", "--matrix", "shear", "--seed", "0"],
                     "sets_verify.csv",
                     "930d33e018a50058a7f10d024fd790bb9bfc7cba2b1e9d154e01e5970644fe53"),
    "verify-squeeze": (["sets", "verify", "--matrix", "squeeze", "--seed", "0"],
                       "sets_verify.csv",
                       "4b9d383b4154b48fc4f362ce35e1d5466c3b1e2caccec02bbb736c21d19bc86f"),
    "simulate-poisson": (["simulate", "--spec", "poisson:3", "--regions",
                          "regions.json", "--seed", "0"], "realization.json",
                         "ee5c76584bf50831520d2a71481500f40a3fc040b3aa35099a8161f70341119e"),
    "simulate-gaussian": (["simulate", "--spec", "gaussian", "--regions",
                           "regions.json", "--seed", "1"], "realization.json",
                          "bb460824ba92b068ecc613eaf9c1fceaa3e71425eb707c22999535271214e7cd"),
    "simulate-staircases-poisson": (
        ["simulate", "--spec", "poisson:3", "--regions", "staircases.json",
         "--seed", "0"], "realization.json",
        "e876dda8cccdd39bbdcda590c183d52f20fe25aac89748aedeb839888b1538e1"),
    "simulate-staircases-gaussian": (
        ["simulate", "--spec", "gaussian", "--regions", "staircases.json",
         "--seed", "0"], "realization.json",
        "5f94a4140d7fdd26ac41ec925d24b6441af8a0747b4c156e6ef9b7123bd9a768"),
    "simulate-rotated-poisson": (
        ["simulate", "--spec", "poisson:3", "--regions", "rotated.json",
         "--seed", "0"], "realization.json",
        "e6f5e9fc893064a2b7cdd7caf6a40c07a8517240ec6fb391d2a392c7ab717126"),
    "simulate-rotated-gaussian": (
        ["simulate", "--spec", "gaussian", "--regions", "rotated.json",
         "--seed", "0"], "realization.json",
        "3e1a87b89756ff518791726b1094ca478ac5df4f2a718297b7651f108ed15366"),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_SHA256))
def test_sets_verify_and_simulate_output_is_pinned(tmp_path, monkeypatch, case):
    argv, name, sha256 = OUTPUT_SHA256[case]
    monkeypatch.chdir(tmp_path)
    for file_name, objs in PIN_REGIONS.items():
        (tmp_path / file_name).write_text(json.dumps(objs))
    res = CliRunner().invoke(main, argv + ["--out", "out"])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == sha256


def test_run_all_names_are_distinct_file_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mix = {"kind": "mixing_curve", "g": "rotation",
           "C": {"box": [[0.0, 1.0], [0.0, 1.0]]}, "m_max": 2, "n_reps": 200}
    demo = {"kind": "compact_invariant_demo", "generators": ["rotation90"],
            "n_reps": 200}
    cfg = tmp_path / "cfg.json"
    # run alone, the first entry named `same` does not pass
    cfg.write_text(json.dumps({"experiments": [{**mix, "name": "same"}]}))
    code, reports = run_all(str(cfg), out_override="alone")
    assert code == 1 and reports["same"].verdict == experiments.INCONCLUSIVE
    for entries, match in (
            ([{**mix, "name": "a/b"}], "a/b: "),
            ([{**mix, "name": f"a{os.sep}b"}], f"a{os.sep}b: "),
            ([{**mix, "name": "."}], ".: "),
            ([{**mix, "name": ".."}], "..: "),
            ([{**mix, "name": ""}], "'': "),
            ([{**mix, "name": 5}], "5: "),
            ([{**mix, "name": None}], "None: "),
            ([{**mix, "name": "same"}, {**demo, "name": "same"}], "same: "),
            ([demo, demo], "compact_invariant_demo: ")):
        cfg.write_text(json.dumps({"experiments": entries}))
        with pytest.raises(errors.ConfigError, match=f"^{re.escape(match)}"):
            run_all(str(cfg), out_override="out")
        res = CliRunner().invoke(main, ["experiment", "run", "--config", str(cfg),
                                        "--out", "out"])
        assert res.exit_code == 2 and res.stderr.startswith(f"error: {match}")
    # names are checked before any entry runs
    assert not (tmp_path / "out").exists()


_WATCH_SCIPY = """
import sys

class Watch:  # sees every import, also of a module later dropped from sys.modules
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            self.seen.append(name)

sys.meta_path.insert(0, Watch())
from levymix.cli import main
try:
    main(["experiment", "run", "--seed", "0", "--out", sys.argv[1]])
except SystemExit as exc:
    assert not exc.code, exc.code
print(sorted(set(Watch.seen)
             | {m for m in sys.modules if m.partition(".")[0] == "scipy"}))
"""


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # a whole battery run, KS test included, never imports scipy
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _WATCH_SCIPY, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip().splitlines()[-1] == "[]"
    assert len(list(tmp_path.glob("*.report.json"))) == len(
        default_config()["experiments"])
