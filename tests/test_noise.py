import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from levymix.regions import Piece, Region, atomize, box_region, transform
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
    mass = NoiseSpec(DETERMINISTIC, 2.0).sample_mass(3.0, None, 2)
    assert mass.tolist() == [6.0, 6.0]


def test_additivity_exact_all_kinds():
    regions = _boxes()
    for kind in (GAUSSIAN, POISSON, DETERMINISTIC):
        real = realize(NoiseSpec(kind), regions, n_atom_samples=5_000, seed=3)
        assert real.value(0) + real.value(1) == real.value(2)


@pytest.mark.parametrize("kind", [GAUSSIAN, POISSON, DETERMINISTIC])
def test_realize_is_a_row_of_realize_masses(kind):
    regions = [box_region(np.array([[0.0, 1.0], [0.0, 1.0]])),
               box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))]
    spec = NoiseSpec(kind, 3.0)
    atoms = atomize(regions, n=0)
    rows = realize_masses(spec, atoms, 8, seed=3)
    for r in (0, 1, 5):
        got = realize(spec, regions, seed=3, atoms=atoms, replicate=r)
        assert got.atom_values.tobytes() == rows[r].tobytes()
        for n in (r + 1, 50):
            row = realize_masses(spec, atoms, n, seed=3)[r]
            assert row.tobytes() == rows[r].tobytes()
        again = realize(spec, regions, seed=3, atoms=atoms, replicate=r)
        assert again.atom_values.tobytes() == got.atom_values.tobytes()
    # without a table, realize atomizes at its own seed; rows still match
    real = realize(spec, regions, n_atom_samples=5_000, seed=3, replicate=1)
    want = realize_masses(spec, real.atoms, 2, seed=3)[1]
    assert real.atom_values.tobytes() == want.tobytes()
    if kind != DETERMINISTIC:
        assert not np.array_equal(rows[0], rows[1])


@st.composite
def _split_families(draw):
    """[A, B, A u B, C]: a box in a frame cut across its first axis into A
    and B with a gap between them, and a box C that may meet both.  Signed
    permutation frames take the exact sweep, rotated and sheared frames
    Monte Carlo."""
    kind = draw(st.sampled_from(["axis", "rotated", "sheared"]))
    if kind == "axis":
        frame = np.diag(draw(st.sampled_from([[1.0, 1.0], [-2.0, 0.5], [0.5, -1.0]])))
        frame = frame[:, ::-1] if draw(st.booleans()) else frame
    elif kind == "rotated":
        frame = rotation(draw(st.floats(0.1, 1.4)))
    else:
        frame = np.array([[1.0, draw(st.floats(-1.5, 1.5))], [0.0, 1.0]])
    lo = np.array(draw(st.lists(st.integers(-4, 4), min_size=2, max_size=2))) / 4
    hi = lo + np.array(draw(st.lists(st.integers(2, 8), min_size=2, max_size=2))) / 4
    cut = lo[0] + draw(st.floats(0.1, 0.9)) * (hi[0] - lo[0])
    gap = draw(st.sampled_from([0.0, 0.01, 0.25])) * (hi[0] - cut)
    a = Piece(frame, [[lo[0], cut], [lo[1], hi[1]]])
    b = Piece(frame, [[cut + gap, hi[0]], [lo[1], hi[1]]])
    corner = np.array(draw(st.lists(st.integers(-8, 8), min_size=2, max_size=2))) / 4
    c = box_region(np.column_stack([corner, corner + 1.5]))
    return [Region((a,)), Region((b,)), Region((a, b)), c]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(family=_split_families(), kind=st.sampled_from([POISSON, GAUSSIAN]),
       seed=st.integers(0, 2**31 - 1))
def test_realize_is_exactly_additive_over_disjoint_regions(family, kind, seed):
    real = realize(NoiseSpec(kind, 5.0), family, n_atom_samples=2_000, seed=seed)
    atoms = [real.atoms.atoms_of_region(i) for i in range(3)]
    # A u B holds exactly the atoms of A and those of B, and none twice
    assert not set(atoms[0]) & set(atoms[1])
    assert atoms[2] == sorted(atoms[0] + atoms[1])
    values = [real.atom_values[idx] for idx in atoms]
    assert math.fsum(values[2]) == math.fsum(np.concatenate(values[:2]))
    a, b, u = (real.value(i) for i in range(3))
    if kind == POISSON:
        assert u == a + b
        assert [real.count_in(r) for r in family[:3]] == [a, b, u]
    else:
        assert abs(u - (a + b)) <= 4 * np.finfo(float).eps * np.abs(values[2]).sum()


def test_poisson_points_consistent_with_masses():
    regions = _boxes()
    atoms = atomize(regions, n=0)
    for r in (0, 1, 5):
        real = realize(NoiseSpec(POISSON, intensity=30.0), regions, seed=7,
                       atoms=atoms, replicate=r)
        pts = real.points()
        assert pts.shape[1] == 2
        for i, region in enumerate(regions):
            assert real.count_in(region) == int(real.value(i))
        assert real.value(2) == len(pts) > 0
        # every atom holds as many points as it counts, all inside it
        for sig, count, p in zip(atoms.signatures, real.atom_values,
                                 real.atom_points):
            assert len(p) == count
            for region, inside in zip(regions, sig):
                assert np.all(region.contains(p) == inside)


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
    cmat = np.cov(M[:, atoms.atoms_of_region(0)].sum(axis=1),
                  M[:, atoms.atoms_of_region(1)].sum(axis=1))
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



def _stack_rejection(atoms, atom_index, regions, count, rng):
    """Rejection by comparing each point's stack of region memberships with
    the atom's signature, one region at a time."""
    bounds = atoms.bounding_box
    d = bounds.shape[0]
    sig = np.array(atoms.signatures[atom_index])
    out = np.empty((0, d))
    while len(out) < count:
        batch = max(64, 4 * (count - len(out)))
        pts = bounds[:, 0] + rng.random((batch, d)) * (bounds[:, 1] - bounds[:, 0])
        memb = np.stack([r.contains(pts) for r in regions], axis=1)
        out = np.vstack([out, pts[np.all(memb == sig, axis=1)]])
    return out[:count]


@pytest.mark.parametrize("n_regions", [3, 70])
def test_atom_sampler_matches_signature_stack(n_regions):
    rng = np.random.default_rng(n_regions)
    regions = [transform(rotation(0.4), box_region([[0.0, 1.5], [0.0, 1.0]]))]
    for _ in range(n_regions - 1):
        lo = rng.uniform(0.0, 2.0, size=(2, 2))
        regions.append(Region(tuple(
            box_region(np.column_stack([a, a + rng.uniform(0.3, 1.0, 2)])).pieces[0]
            for a in lo), disjoint=False))
    atoms = atomize(regions, n=2_000, seed=1)
    for i in np.argsort(atoms.measures)[::-1][:8]:  # the largest atoms
        got = _sample_points_in_atom(atoms, i, regions, 7, stream(5, "a", i))
        want = _stack_rejection(atoms, i, regions, 7, stream(5, "a", i))
        assert got.tobytes() == want.tobytes()
