import numpy as np
import pytest
from scipy import stats

from levymix import errors
from levymix.gallery import _separated_values, rotation, shear
from levymix.noise import (
    DETERMINISTIC,
    GAUSSIAN,
    POISSON,
    NoiseSpec,
    _sample_points_in_atom,
    apply_transform,
    gaussian_conditional_samples,
    realize,
    realize_masses,
)
from levymix.regions import atomize, box_region, transform
from levymix.rng import stream
from levymix.shrinking import _sample_in_family, build_family


def _boxes():
    r1 = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    r2 = box_region(np.array([[1.0, 2.0], [0.0, 1.0]]))
    r12 = box_region(np.array([[0.0, 2.0], [0.0, 1.0]]))
    return r1, r2, r12


def test_spec_validation():
    with pytest.raises(errors.UnsupportedKind):
        NoiseSpec("cauchy")
    with pytest.raises(ValueError):
        NoiseSpec(POISSON, intensity=0.0)
    assert NoiseSpec(DETERMINISTIC, 2.0).sample_mass(3.0, None) == 6.0


def test_additivity_exact_all_kinds():
    regions = _boxes()
    for kind in (GAUSSIAN, POISSON, DETERMINISTIC):
        real = realize(NoiseSpec(kind), regions, n_atom_samples=5_000, seed=3)
        assert real.value(0) + real.value(1) == real.value(2)


def test_realize_reproducible_and_replicates_differ():
    regions = _boxes()
    spec = NoiseSpec(GAUSSIAN)
    a = realize(spec, regions, seed=5)
    b = realize(spec, regions, seed=5)
    c = realize(spec, regions, seed=5, replicate=1)
    assert np.array_equal(a.atom_values, b.atom_values)
    assert not np.array_equal(a.atom_values, c.atom_values)


def test_poisson_points_consistent_with_masses():
    regions = _boxes()
    real = realize(NoiseSpec(POISSON, intensity=30.0), regions, seed=7)
    pts = real.points()
    assert pts.shape[1] == 2
    for i, region in enumerate(regions):
        assert real.count_in(region) == int(real.value(i))
    assert real.value(2) == len(pts)


def test_poisson_pushforward_moves_points():
    regions = _boxes()
    real = realize(NoiseSpec(POISSON, intensity=40.0), regions, seed=11)
    g = rotation(0.7)
    moved = apply_transform(g, real)
    # count in g(B) afterwards equals count in B before
    for region in regions:
        assert moved.count_in(transform(g, region)) == real.count_in(region)


def test_pushforward_and_points_require_poisson():
    regions = _boxes()
    real = realize(NoiseSpec(GAUSSIAN), regions, seed=1)
    with pytest.raises(errors.UnsupportedKind):
        apply_transform(np.eye(2), real)
    with pytest.raises(errors.UnsupportedKind):
        real.points()


def test_rejection_samplers_raise_sampling_failure():
    regions = list(_boxes())
    atoms = atomize(regions, n=0)
    with pytest.raises(errors.SamplingFailure):
        _sample_points_in_atom(atoms, 0, regions, 5, stream(0, "s"), max_tries=0)
    with pytest.raises(errors.SamplingFailure):
        _sample_in_family(build_family(shear()), 1.0, 5, stream(0, "s"),
                          max_tries=0)
    with pytest.raises(errors.SamplingFailure) as info:
        _separated_values([1.0], lambda r: 1.0, stream(0, "s"))
    # a RuntimeError too, which callers that redraw gallery forms catch
    assert isinstance(info.value, RuntimeError)


def test_realize_masses_shape_and_determinism():
    atoms = atomize(list(_boxes()), n=0)
    spec = NoiseSpec(GAUSSIAN)
    M1 = realize_masses(spec, atoms, n_reps=100, seed=2)
    M2 = realize_masses(spec, atoms, n_reps=100, seed=2)
    assert M1.shape == (100, len(atoms.signatures))
    assert np.array_equal(M1, M2)


def test_gaussian_marginal_ks():
    for area, side in ((0.25, 0.5), (1.0, 1.0), (4.0, 2.0)):
        reg = box_region(np.array([[0.0, side], [0.0, side]]))
        atoms = atomize([reg], n=0)
        vals = realize_masses(NoiseSpec(GAUSSIAN), atoms, 10_000, seed=9)
        mass = vals[:, atoms.atoms_of_region(0)].sum(axis=1)
        p = stats.kstest(mass / np.sqrt(area), "norm").pvalue
        assert p >= 0.01


def test_poisson_marginal_chi_square():
    for area, side in ((0.25, 0.5), (1.0, 1.0), (4.0, 2.0)):
        reg = box_region(np.array([[0.0, side], [0.0, side]]))
        atoms = atomize([reg], n=0)
        vals = realize_masses(NoiseSpec(POISSON), atoms, 10_000, seed=9)
        mass = vals[:, atoms.atoms_of_region(0)].sum(axis=1).astype(int)
        kmax = int(stats.poisson.ppf(0.9999, area)) + 1
        obs = np.bincount(mass, minlength=kmax + 1)[:kmax + 1].astype(float)
        obs[kmax] += max(len(mass) - obs.sum(), 0)
        exp = stats.poisson.pmf(np.arange(kmax + 1), area) * len(mass)
        exp[kmax] = len(mass) - exp[:kmax].sum()
        keep = exp > 5
        chi = float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum())
        p = float(1 - stats.chi2.cdf(chi, int(keep.sum()) - 1))
        assert p >= 0.01


def test_gaussian_covariance_matches_overlap():
    r1 = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    r2 = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
    atoms = atomize([r1, r2], n=0)
    M = realize_masses(NoiseSpec(GAUSSIAN), atoms, 10_000, seed=2)
    in0 = np.array([s[0] for s in atoms.signatures])
    in1 = np.array([s[1] for s in atoms.signatures])
    cmat = np.cov(M[:, in0].sum(axis=1), M[:, in1].sum(axis=1))
    sigma = np.sqrt((cmat[0, 0] * cmat[1, 1] + cmat[0, 1] ** 2) / 9_999)
    assert abs(cmat[0, 1] - 0.5) <= 3 * sigma


def test_conditional_samples_identity_and_degenerate():
    rng = stream(3, "cond")
    v = gaussian_conditional_samples(lambda x: x, 0.7, 1.0, 5_000, rng)
    # identity smooths to itself: samples are N(0, s)
    assert abs(v.var(ddof=1) - 0.7) <= 5 * 0.7 * np.sqrt(2 / 4_999)
    # s = lam_C leaves no remainder, and s > lam_C (an overlap estimate
    # above the measure of C) is clamped to none: samples are f(v) exactly
    base = stream(3, "cond2").normal(0, np.sqrt(0.5), size=1_000)
    for lam_C in (0.5, 0.4):
        w = gaussian_conditional_samples(np.tanh, 0.5, lam_C, 1_000,
                                         stream(3, "cond2"))
        assert np.array_equal(w, np.tanh(base))


def test_conditional_smoothing_shrinks_variance():
    rng1 = stream(4, "a")
    full = gaussian_conditional_samples(np.tanh, 1.0, 1.0, 20_000, rng1)
    rng2 = stream(4, "b")
    part = gaussian_conditional_samples(np.tanh, 0.2, 1.0, 20_000, rng2)
    assert part.var(ddof=1) < full.var(ddof=1)

