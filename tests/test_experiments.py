import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner

from levymix import (build_family, errors, gallery, matrices, noise, rng,
                     shrinking)
from levymix.cli import main
from levymix.experiments import (
    FAIL,
    PASS,
    ExperimentReport,
    compact_invariant_demo,
    default_config,
    equivariance_check,
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
    rep = mixing_curve(squeeze(), UNIT, m_range=(0, 6), n_reps=3_000, seed=0)
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
    rep = mixing_curve(rotation(np.pi / 2), C, m_range=(0, 8), n_reps=3_000,
                       seed=0)
    assert rep.verdict == PASS
    assert [(est, err) for _, est, err in rep.rows("overlap")] == [(4.0, 0.0)] * 9


def test_mixing_curve_rejects_non_measure_preserving():
    with pytest.raises(errors.InvalidGenerator):
        mixing_curve(2.0 * np.eye(2), UNIT)


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


def test_compact_invariant_demo_signed_permutation():
    rep = compact_invariant_demo([rotation(np.pi / 2)], n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    assert rep.inputs["exact_box"]
    for _, est, _ in rep.rows("volume_ratio"):
        assert est == pytest.approx(1.0)


def test_compact_invariant_demo_signed_permutation_in_3d():
    cycle = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rep = compact_invariant_demo([cycle], n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    assert rep.inputs["exact_box"]
    assert [est for _, est, _ in rep.rows("membership_mismatch")] == [0.0]


def test_compact_invariant_demo_disc_path():
    rep = compact_invariant_demo([rotation(1.0)], n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    assert not rep.inputs["exact_box"]


def test_compact_invariant_demo_two_irrational_rotations():
    # one conjugator for both: a dense, hence infinite, compact group
    P = gallery.random_det1(2, rng.stream(5, "pair"), cond=10.0)
    gens = [P @ rotation(t) @ np.linalg.inv(P) for t in (1.0, np.sqrt(2.0))]
    rep = compact_invariant_demo(gens, n_reps=3_000, seed=0)
    assert rep.verdict == PASS
    assert not rep.inputs["exact_box"]


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
    unknown.write_text(json.dumps({"experiments": [{"kind": "nope"}]}))
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
    unit = {"box": [[0, 1], [0, 1]]}
    for entry, match in (
            ({"kind": "mixing_curve", "C": unit}, "missing 'g'"),
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
              "n_reps": -5}, "mixing_curve: n_reps"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "n_reps": float("inf")}, "mixing_curve: n_reps"),
            ({"kind": "mixing_curve", "g": "shear", "C": unit,
              "m_max": -1}, "mixing_curve: m_max"),
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
            ({"kind": "compact_invariant_demo", "generators": "rotation90"},
             "compact_invariant_demo: generators: need a non-empty list"),
            ({"kind": "compact_invariant_demo", "generators": []},
             "compact_invariant_demo: generators: need a non-empty list")):
        bad.write_text(json.dumps({"experiments": [entry]}))
        with pytest.raises(errors.ConfigError, match=match):
            run_all(str(bad), out_override=str(tmp_path))
        res = CliRunner().invoke(main, ["experiment", "run", "--config",
                                        str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 2 and res.stderr.startswith("error: ")
        assert match in res.stderr


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
])
def test_cli_errors_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, config in (("experiments", {"experiments": 5}),
                         ("seed_text", {"seed": "x", "experiments": []}),
                         ("seed_float", {"seed": 1.5, "experiments": []}),
                         ("out", {"out": 5, "experiments": []})):
        (tmp_path / f"config_{name}.json").write_text(json.dumps(config))
    (tmp_path / "five.json").write_text("5")
    (tmp_path / "null.json").write_text("null")
    (tmp_path / "one_region.json").write_text(json.dumps({"box": [[0, 1], [0, 1]]}))
    (tmp_path / "disjoint_text.json").write_text(json.dumps([{"pieces": [
        {"frame": [[1, 0], [0, 1]], "box": [[0, 1], [0, 1]]}], "disjoint": "false"}]))
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
        lambda: intersection_volume(UNIT, UNIT, method="grid"),
        lambda: intersection_volume(UNIT, UNIT, method="mc", n=0),
        *(lambda n=n: atomize([UNIT], n=n, method="mc")
          for n in (float("inf"), "100", 2.5)),
        *(lambda n=n: intersection_volume(UNIT, UNIT, method="mc", n=n)
          for n in (float("inf"), "100", 2.5)),
        lambda: gallery.conjugated_rotation(0.5, np.random.default_rng(0), d=3),
        lambda: fam.param(0.0),
        lambda: fam.param(float("nan")),
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
          for v in ("3", 2.5, float("inf"), None, -1)),
        lambda: matrices.jordan_block_power_apply(block, -1, np.ones(2)),
        lambda: matrices.haar_average_form([]),
        lambda: noise.NoiseSpec(noise.POISSON, -1.0),
        lambda: noise.NoiseSpec(noise.POISSON, float("inf")),
        lambda: noise.NoiseSpec(noise.DETERMINISTIC, float("nan")),
        lambda: noise.realize_masses(gauss, atoms, -1),
        lambda: noise.realize_masses(gauss, atoms, 2.0),
        lambda: noise.realize_masses(gauss, atoms, "3"),
        lambda: noise.realize(gauss, [UNIT], atoms=atoms, replicate=-1),
        lambda: noise.realize(gauss, [UNIT], atoms=atoms, replicate=0.5),
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
        lambda: mixing_curve(squeeze(), UNIT, m_range=(3, 1)),
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
# file, in name order, that `levymix experiment run --seed 0` writes; a
# change that moves the battery's output updates it here
BATTERY_SEED_0_SHA256 = "22fefe22aaa7be670c6dbcacd93abc590ab8117a4c5cb7d2ab5b3a3422937401"


def test_battery_output_is_pinned(tmp_path):
    res = CliRunner().invoke(main, ["experiment", "run", "--seed", "0",
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    files = sorted([*tmp_path.glob("*.series.csv"), *tmp_path.glob("*.report.json")])
    assert len(files) == 2 * len(default_config()["experiments"])
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == BATTERY_SEED_0_SHA256


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
