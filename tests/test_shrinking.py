import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levymix as lm
from levymix import errors
from levymix.gallery import assemble_jordan, random_det1, rotation, shear, squeeze
from levymix.matrices import BlockKind, RealJordanBlock
from levymix.rng import stream
from levymix.shrinking import _sample_in_family, contains, contains_many

SLACK = 1.0 + 1e-12  # the closed-set slack of the membership rule
GRID = (0.2, 0.5, 1.0, 2.0, 5.0)  # the default t grid of `sets verify`


def _reference_terms(fam, pts):
    """(lhs, scale) of the row-major rule: x in D_t iff lhs <= param(t) * scale * SLACK.

    Jordan coordinates of every point first, then the block's columns,
    with np.linalg.norm along the rows.
    """
    yb = (pts @ fam.basis_inv.T)[:, fam.offset:fam.offset + fam.rows]
    norm = np.linalg.norm(yb, axis=1)
    if not fam.uses_cone:
        return norm, np.ones_like(norm)
    tail = np.linalg.norm(yb[:, -2:], axis=1) if fam.pair else np.abs(yb[:, -1])
    return tail, norm


def _reference_contains(fam, t, pts):
    lhs, scale = _reference_terms(fam, pts)
    return lhs <= fam.param(t) * scale * SLACK


def _reference_absorption_lag(fam, t_small, t_large, n_samples, h_max, seed):
    """absorption_lag as a loop of contains_many on (n, d) points."""
    X = _sample_in_family(fam, t_large, n_samples, stream(seed, "absorption"))
    A = fam.witness
    member = np.empty((n_samples, h_max + 1), dtype=bool)
    cur = X
    for h in range(h_max + 1):
        member[:, h] = contains_many(fam, t_small, cur)
        if h < h_max:
            cur = cur @ A.T
    fails = ~member
    last_fail = np.where(fails.any(axis=1),
                         h_max - np.argmax(fails[:, ::-1], axis=1), -1)
    h0 = int(last_fail.max()) + 1
    if h0 > h_max:
        raise errors.NotReached(f"absorption not reached within h_max={h_max}")
    return h0, int(fails[:, h0:].sum())


TAGGED = {  # one Jordan block per kind of shrinking family
    "squeeze": RealJordanBlock(BlockKind.REAL, 1, 0.5 + 0j),  # padded to d >= 2
    "shear": RealJordanBlock(BlockKind.REAL, 2, 1.0 + 0j),
    "unipotent 3x3": RealJordanBlock(BlockKind.REAL, 3, 1.0 + 0j),
    "contracting pair": RealJordanBlock(BlockKind.COMPLEX_PAIR, 1,
                                        0.8 * np.exp(1j)),
    "unit-modulus pair": RealJordanBlock(BlockKind.COMPLEX_PAIR, 2,
                                         np.exp(0.7j)),
}


def _padded_form(block, d):
    """The block after d - block.rows expanding 1x1 blocks, which tag nothing."""
    pads = [RealJordanBlock(BlockKind.REAL, 1, complex(2.0 + 0.5 * k))
            for k in range(d - block.rows)]
    return assemble_jordan(pads + [block])


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


def _boundary_points(fam, t, n, rng):
    """Points whose Jordan block lies on the boundary of D_t, mapped through T."""
    y = rng.standard_normal((n, fam.dim))
    yb = y[:, fam.offset:fam.offset + fam.rows]
    rho = fam.param(t)
    if fam.uses_cone:
        k = 2 if fam.pair else 1
        head = np.linalg.norm(yb[:, :-k], axis=1, keepdims=True)
        tail = np.linalg.norm(yb[:, -k:], axis=1, keepdims=True)
        yb[:, -k:] *= rho * head / (np.sqrt(1.0 - rho**2) * tail)
    else:
        yb *= rho / np.linalg.norm(yb, axis=1, keepdims=True)
    return y @ fam.decomposition.conjugator.T


def _edge_ts(fam, lhs, scale):
    """(t_on, t_under): param(t) * scale * SLACK equal to lhs, or to the float below it."""
    rho = lhs / (scale * SLACK)
    t0 = rho / (1.0 - rho) if fam.uses_cone else rho
    found = {}
    for t in t0 + np.arange(-32, 33) * np.spacing(t0):
        thr = fam.param(t) * scale * SLACK
        if thr == lhs:
            found.setdefault("on", t)
        elif thr == np.nextafter(lhs, -np.inf):
            found["under"] = t
    return found.get("on"), found.get("under")


def _edge_point(fam, pts, i):
    """Check that point i's answer flips at the reference threshold; 1 if tested."""
    lhs, scale = _reference_terms(fam, pts)
    t_on, t_under = _edge_ts(fam, lhs[i], scale[i])
    if t_on is None or t_under is None:
        return 0
    assert contains_many(fam, t_on, pts)[i]
    assert not contains_many(fam, t_under, pts)[i]
    return 1


def test_contains_many_matches_row_major_reference():
    # The points' Jordan coordinates must come from the full product
    # basis_inv @ points, sliced to the block afterwards: the product of
    # the block's rows alone can differ in the last bit.  Each edge point
    # gets the t that puts the reference's threshold on the point (and
    # just under it), so any last-bit change in its coordinates or norms
    # flips the answer.  Blocks of 8 rows and more are in because numpy
    # sums their squares pairwise.
    long_blocks = [RealJordanBlock(BlockKind.REAL, 8, 1.0 + 0j),
                   RealJordanBlock(BlockKind.COMPLEX_PAIR, 4, np.exp(0.7j))]
    cases = [(d, block) for d in range(2, 7) for block in TAGGED.values()
             if block.rows <= d] + [(9, block) for block in long_blocks]
    rng = stream(13, "row-major")
    edges = 0
    for d, block in cases:
        for _ in range(3):
            P = random_det1(d, rng, cond=20.0 if d < 9 else 2.0)
            fam = lm.build_family(P @ _padded_form(block, d) @ np.linalg.inv(P))
            assert fam.offset == d - block.rows
            pts = np.vstack([rng.standard_normal((200, d)) * 3.0]
                            + [_boundary_points(fam, t, 50, rng) for t in GRID])
            for t in GRID:
                assert np.array_equal(contains_many(fam, t, pts),
                                      _reference_contains(fam, t, pts))
            for i in range(4):
                # in the batch, and alone, where BLAS may sum otherwise
                edges += _edge_point(fam, pts, i) + _edge_point(fam, pts[i:i + 1], 0)
    assert edges >= 200


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(TAGGED)), cond=st.floats(1.0, 20.0),
       pair=st.sampled_from([(a, b) for i, a in enumerate(GRID) for b in GRID[i + 1:]]),
       h_max=st.sampled_from([40, 200]), seed=st.integers(0, 2**16))
def test_absorption_lag_matches_reference_loop(kind, cond, pair, h_max, seed):
    block = TAGGED[kind]
    d = max(block.rows, 2)
    P = random_det1(d, stream(seed, "conjugator"), cond=cond)
    fam = lm.build_family(P @ _padded_form(block, d) @ np.linalg.inv(P))
    # a conjugated squeeze raises NotReached past about 50 powers, when
    # its contracting coordinate drowns in the rounding of the expanding one
    args = (fam, *pair, 200, h_max, seed)
    try:
        want = _reference_absorption_lag(*args)
    except errors.LevymixError as exc:
        with pytest.raises(type(exc)):
            lm.absorption_lag(*args)
        return
    assert lm.absorption_lag(*args) == want


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
