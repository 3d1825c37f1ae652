"""Acceptance battery: ten desk-scale criteria, one pass/fail line each.

Run with -s (enabled in pyproject.toml) to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

import levymix as lm
from levymix.cli import main
from levymix.experiments import PASS, equivariance_check, mixing_curve, tail_triviality_decay
from levymix.gallery import (
    assemble_jordan,
    conjugated_rotation,
    dihedral_generators,
    jordan_corpus,
    random_det1,
    rotation,
    shear,
    squeeze,
)
from levymix.matrices import BlockKind, RealJordanBlock
from levymix.noise import DETERMINISTIC, GAUSSIAN, POISSON, NoiseSpec, realize, realize_masses
from levymix.regions import atomize, box_region
from levymix.rng import stream


def _verdict(num, name, ok):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    # 200 similarity-transformed known forms, conjugator condition <= 1e6
    return jordan_corpus(120, seed=0) + jordan_corpus(80, seed=1, cond=1000.0)


def test_criterion_1_jordan_reconstruction(corpus):
    t0 = time.perf_counter()
    ok = True
    for A, built in corpus:
        dec = lm.real_jordan_form(A)
        K = dec.jordan_matrix()
        T = dec.conjugator
        resid = np.linalg.norm(A - T @ K @ np.linalg.inv(T))
        if resid > 1e-6 * np.linalg.norm(A):
            ok = False
        want = sorted((b.kind.value, b.size, round(b.eigen.real, 6),
                       round(abs(b.eigen.imag), 6)) for b in built)
        got = sorted((b.kind.value, b.size, round(b.eigen.real, 6),
                      round(abs(b.eigen.imag), 6)) for b in dec.blocks)
        if got != want:
            ok = False
    elapsed = time.perf_counter() - t0
    _verdict(1, f"jordan reconstruction (200 matrices, {elapsed:.2f} s)",
             ok and elapsed < 10.0)


def test_criterion_2_block_power_formula():
    ok = True
    for eta in (1.0, -1.0, 0.5, -0.5, 2.0):
        for size in range(1, 7):
            block = RealJordanBlock(BlockKind.REAL, size, complex(eta))
            J = assemble_jordan([block])
            rng = stream(2, "power", size, repr(eta))
            x = rng.standard_normal(size)
            for h in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
                want = np.linalg.matrix_power(J, h) @ x
                got = lm.jordan_block_power_apply(block, h, x)
                scale = max(np.linalg.norm(want), 1.0)
                if np.linalg.norm(got - want) > 1e-9 * scale:
                    ok = False
    _verdict(2, "closed-form block powers vs iterated multiplication", ok)


def test_criterion_3_classifier_dichotomy(corpus):
    ok = (not lm.cyclic_closure_compact(shear())
          and not lm.cyclic_closure_compact(squeeze())
          and lm.cyclic_closure_compact(rotation(1.0)))
    orthogonals = [rotation(0.3), rotation(np.pi / 2),
                   np.array([[1.0, 0.0], [0.0, -1.0]]),
                   np.array([[0.0, 1.0], [1.0, 0.0]]),
                   np.diag([-1.0, -1.0, 1.0])]
    for Q in orthogonals:
        if not lm.cyclic_closure_compact(Q):
            ok = False
    for A, _ in corpus:
        # bounded orbits saturate their norm envelope; any growth (even
        # polynomial, from defective unit-modulus blocks) keeps climbing
        Ainv = np.linalg.inv(A)
        norms = np.empty(201)
        norms[0] = np.linalg.norm(np.eye(A.shape[0]))
        P, Pinv = np.eye(A.shape[0]), np.eye(A.shape[0])
        for h in range(1, 201):
            P = P @ A
            Pinv = Pinv @ Ainv
            norms[h] = max(np.linalg.norm(P), np.linalg.norm(Pinv))
            if norms[h] > 1e6:
                norms = norms[:h + 1]
                break
        bounded = norms[-1] <= 1e6 and norms.max() <= 1.2 * norms[:101].max()
        if lm.cyclic_closure_compact(A) != bounded:
            ok = False
    _verdict(3, "compactness classifier vs empirical power boundedness", ok)


def test_criterion_4_weyl_conjugators():
    worst = 0.0
    count = 0
    for i in range(25):
        n = 3 + i % 10
        P = random_det1(2, stream(4, "finite", i), cond=20.0)
        Pinv = np.linalg.inv(P)
        gens = [P @ g @ Pinv for g in dihedral_generators(n)]
        h = lm.weyl_conjugator(gens)
        hinv = np.linalg.inv(h)
        for g in gens:
            Q = hinv @ g @ h
            worst = max(worst, np.linalg.norm(Q.T @ Q - np.eye(2)))
        count += 1
    for i in range(25):
        theta = 0.5 + 0.1 * i  # irrational multiples of pi: infinite closure
        g = conjugated_rotation(theta, stream(4, "rot", i), cond=20.0)
        h = lm.weyl_conjugator([g])
        Q = np.linalg.inv(h) @ g @ h
        worst = max(worst, np.linalg.norm(Q.T @ Q - np.eye(2)))
        count += 1
    _verdict(4, f"weyl conjugation of {count} compact groups "
                f"(worst defect {worst:.1e})", worst <= 1e-8)


def test_criterion_5_absorption_grid():
    grid = [0.2, 0.5, 1.0, 2.0, 5.0]
    ok = True
    for A in (shear(), squeeze()):
        fam = lm.build_family(A)
        for i, t1 in enumerate(grid):
            for t2 in grid[i + 1:]:
                h0, bad = lm.absorption_lag(fam, t1, t2, n_samples=10_000,
                                            h_max=200, seed=0)
                if bad != 0 or not 0 <= h0 <= 200:
                    ok = False
                if not fam.uses_cone and h0 != math.ceil(math.log2(t2 / t1)):
                    ok = False
    _verdict(5, "absorption lags finite with zero violations", ok)


def test_criterion_6_noise_laws():
    ok = True
    r1 = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    r2 = box_region(np.array([[1.0, 2.0], [0.0, 1.0]]))
    r12 = box_region(np.array([[0.0, 2.0], [0.0, 1.0]]))
    for kind in (GAUSSIAN, POISSON, DETERMINISTIC):
        real = realize(NoiseSpec(kind), [r1, r2, r12], seed=6)
        if real.value(0) + real.value(1) != real.value(2):
            ok = False
    for area, side in ((0.25, 0.5), (1.0, 1.0), (4.0, 2.0)):
        reg = box_region(np.array([[0.0, side], [0.0, side]]))
        atoms = atomize([reg], n=0)
        gvals = realize_masses(NoiseSpec(GAUSSIAN), atoms, 10_000, seed=6)
        mass = gvals[:, atoms.atoms_of_region(0)].sum(axis=1)
        if stats.kstest(mass / np.sqrt(area), "norm").pvalue < 0.01:
            ok = False
        pvals = realize_masses(NoiseSpec(POISSON), atoms, 10_000, seed=6)
        counts = pvals[:, atoms.atoms_of_region(0)].sum(axis=1).astype(int)
        kmax = int(stats.poisson.ppf(0.9999, area)) + 1
        obs = np.bincount(counts, minlength=kmax + 1)[:kmax + 1].astype(float)
        obs[kmax] += max(len(counts) - obs.sum(), 0)
        exp = stats.poisson.pmf(np.arange(kmax + 1), area) * len(counts)
        exp[kmax] = len(counts) - exp[:kmax].sum()
        keep = exp > 5
        chi = float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum())
        if 1 - stats.chi2.cdf(chi, int(keep.sum()) - 1) < 0.01:
            ok = False
    shifted = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
    atoms = atomize([r1, shifted], n=0)
    M = realize_masses(NoiseSpec(GAUSSIAN), atoms, 10_000, seed=2)
    in0 = np.array([s[0] for s in atoms.signatures])
    in1 = np.array([s[1] for s in atoms.signatures])
    cmat = np.cov(M[:, in0].sum(axis=1), M[:, in1].sum(axis=1))
    sigma = np.sqrt((cmat[0, 0] * cmat[1, 1] + cmat[0, 1] ** 2) / 9_999)
    if abs(cmat[0, 1] - 0.5) > 3 * sigma:
        ok = False
    _verdict(6, "noise additivity, marginal laws and covariance", ok)


def test_criterion_7_mixing_dichotomy():
    t0 = time.perf_counter()
    C = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    rep = mixing_curve(squeeze(), C, m_range=(0, 8), n_reps=10_000, seed=0)
    ok = rep.verdict == PASS
    for m, est, err in rep.rows("covariance"):
        if abs(est - 2.0 ** (-m)) > 3 * err:
            ok = False
        if m >= 5 and est >= 0.05:
            ok = False
    C2 = box_region(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    rep2 = mixing_curve(rotation(np.pi / 2), C2, m_range=(0, 8),
                        n_reps=10_000, seed=0)
    if rep2.verdict != PASS:
        ok = False
    for _, est, err in rep2.rows("covariance"):
        if abs(est - 4.0) > 3 * err:
            ok = False
    elapsed = time.perf_counter() - t0
    _verdict(7, f"mixing dichotomy ({elapsed:.1f} s)", ok and elapsed < 60.0)


def test_criterion_8_tail_triviality_decay():
    rep = tail_triviality_decay(shear(), n_reps=10_000, seed=0)
    ok = rep.verdict == PASS
    overlaps = {p: e for p, e, _ in rep.rows("overlap")}
    lam_C = 1.0
    for t, var, verr in rep.rows("cond_variance"):
        if abs(var - overlaps[t]) > 3 * verr:
            ok = False
    final = rep.rows("cond_variance")[-1][1]
    if final >= 0.1 * lam_C:
        ok = False
    _verdict(8, "conditional variance tracks overlap and decays", ok)


def test_criterion_9_equivariance():
    C = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    B = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
    ok = True
    for g in (shear(), squeeze(), rotation(1.0)):
        rep = equivariance_check(g, C, B, n_reps=10_000, seed=0)
        if rep.verdict != PASS or rep.rows("ks_pvalue")[0][1] < 0.01:
            ok = False
    _verdict(9, "conditional-expectation equivariance (KS, alpha 0.01)", ok)


def test_criterion_10_determinism(tmp_path):
    cfg = {"experiments": [
        {"kind": "mixing_curve", "name": "mix", "g": "squeeze",
         "C": {"box": [[0.0, 1.0], [0.0, 1.0]]}, "m_max": 8,
         "n_reps": 2_000},
        {"kind": "equivariance_check", "name": "eq", "g": "shear",
         "C": {"box": [[0.0, 1.0], [0.0, 1.0]]},
         "B": {"box": [[0.5, 1.5], [0.0, 1.0]]}, "n_reps": 2_000}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runner = CliRunner()
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        res = runner.invoke(main, ["experiment", "run", "--config", str(path),
                                   "--seed", "42", "--out", str(out)])
        assert res.exit_code == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(out.glob("*.series.csv"))})
    ok = (outputs[0].keys() == outputs[1].keys() and len(outputs[0]) == 2
          and all(outputs[0][k] == outputs[1][k] for k in outputs[0]))
    _verdict(10, "seeded experiment runs byte-identical", ok)
