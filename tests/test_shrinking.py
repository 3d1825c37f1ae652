import math

import numpy as np
import pytest

import levymix as lm
from levymix import errors
from levymix.gallery import assemble_jordan, random_det1, rotation, shear, squeeze
from levymix.matrices import BlockKind, RealJordanBlock
from levymix.rng import stream
from levymix.shrinking import contains, contains_many


@pytest.fixture(scope="module")
def shear_family():
    return lm.build_family(shear())


@pytest.fixture(scope="module")
def squeeze_family():
    return lm.build_family(squeeze())


def test_build_family_cases(shear_family, squeeze_family):
    assert shear_family.case == "A" and shear_family.uses_cone
    assert squeeze_family.case == "C" and not squeeze_family.uses_cone
    assert shear_family.param(1.0) == 0.5          # rho = t / (1 + t)
    assert squeeze_family.param(3.0) == 3.0        # eps = t
    with pytest.raises(ValueError):
        shear_family.param(0.0)


def test_build_family_rejects_compact():
    with pytest.raises(errors.CompactClosure):
        lm.build_family(rotation(1.0))


def test_build_family_rejects_expanding_map():
    # non-compact, but no block contracts or is defective on the circle
    with pytest.raises(errors.InvalidGenerator, match="det"):
        lm.build_family(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_pair_block_family_uses_coordinate_pair():
    A = assemble_jordan([RealJordanBlock(BlockKind.COMPLEX_PAIR, 2,
                                         np.exp(1j * 0.7))])
    fam = lm.build_family(A)
    assert fam.case == "B" and fam.pair and fam.uses_cone
    # membership depends on the final coordinate pair
    assert contains(fam, 1.0, np.array([1.0, 1.0, 0.0, 0.0]))
    assert not contains(fam, 1.0, np.array([0.0, 0.0, 1.0, 1.0]))


def test_contains_hand_examples(shear_family):
    # t = 1 gives rho = 1/2
    assert contains(shear_family, 1.0, np.array([1.0, 0.0]))
    assert contains(shear_family, 1.0, np.array([math.sqrt(3), 1.0]))
    for t in (0.1, 1.0, 100.0):
        assert not contains(shear_family, t, np.array([0.0, 1.0]))


def test_contains_dimension_check(shear_family):
    with pytest.raises(errors.DimensionMismatch):
        contains(shear_family, 1.0, np.zeros(3))


def test_membership_monotone_in_t(shear_family, squeeze_family):
    rng = stream(1, "monotone")
    pts = rng.standard_normal((20_000, 2)) * 3.0
    for fam in (shear_family, squeeze_family):
        inner = contains_many(fam, 0.4, pts)
        outer = contains_many(fam, 2.7, pts)
        assert not np.any(inner & ~outer)


def test_cone_membership_scale_invariant(shear_family):
    rng = stream(2, "scale")
    pts = rng.standard_normal((5_000, 2))
    m1 = contains_many(shear_family, 0.7, pts)
    for c in (-3.0, 0.01, 40.0):
        assert np.array_equal(m1, contains_many(shear_family, 0.7, c * pts))


def test_basis_consistency():
    # conjugated shear: membership through T^-1 equals the inequality
    # written in Jordan coordinates directly
    P = random_det1(2, stream(5, "basis"), cond=10)
    A = P @ shear() @ np.linalg.inv(P)
    fam = lm.build_family(A)
    rng = stream(5, "basis-pts")
    pts = rng.standard_normal((10_000, 2))
    got = contains_many(fam, 1.3, pts)
    y = pts @ fam.basis_inv.T
    yb = y[:, fam.offset:fam.offset + fam.rows]
    rho = fam.param(1.3)
    want = np.abs(yb[:, -1]) <= rho * np.linalg.norm(yb, axis=1)
    assert np.array_equal(got, want)


def test_absorption_grid(shear_family, squeeze_family):
    grid = [0.2, 0.5, 1.0, 2.0, 5.0]
    for fam in (shear_family, squeeze_family):
        for i, t1 in enumerate(grid):
            for t2 in grid[i + 1:]:
                h0, bad = lm.absorption_lag(fam, t1, t2, n_samples=2_000,
                                            h_max=200, seed=0)
                assert bad == 0
                assert 0 <= h0 <= 200
                if not fam.uses_cone:
                    assert h0 == math.ceil(math.log2(t2 / t1))


def test_absorption_equal_t_and_bad_args(shear_family):
    assert lm.absorption_lag(shear_family, 1.0, 1.0) == (0, 0)
    with pytest.raises(ValueError):
        lm.absorption_lag(shear_family, 2.0, 1.0)
    with pytest.raises(ValueError):
        lm.absorption_lag(shear_family, -1.0, 1.0)


def test_absorption_not_reached(shear_family):
    with pytest.raises(errors.NotReached):
        lm.absorption_lag(shear_family, 0.2, 5.0, n_samples=2_000, h_max=3)


def test_null_boundary_fractions(shear_family, squeeze_family):
    for fam in (shear_family, squeeze_family):
        outside, inside = lm.null_boundary_check(fam, n_samples=50_000, seed=3)
        assert outside <= 3 / math.sqrt(50_000) + 2e-3
        assert inside <= 3 / math.sqrt(50_000) + 2e-3


def test_null_boundary_mid_t_strictly_between(shear_family):
    rng = stream(7, "mid")
    pts = rng.uniform(-1, 1, size=(20_000, 2))
    frac = float(contains_many(shear_family, 1.0, pts).mean())
    assert 0.0 < frac < 1.0


def test_family_json(shear_family):
    obj = shear_family.to_json()
    assert obj["case"] == "A"
    assert obj["param_map"] == "rho = t/(1+t)"
    assert obj["witness"]["d"] == 2
