import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levymix as lm
from levymix import errors
from levymix.gallery import assemble_jordan, random_det1, rotation, shear, squeeze
from levymix.matrices import BlockKind, RealJordanBlock
from levymix.rng import stream
from levymix.shrinking import _sample_in_family, contains, contains_many

SLACK = 1.0 + 1e-12  # the closed-set slack of the membership rule
GRID = (0.2, 0.5, 1.0, 2.0, 5.0)  # the default t grid of `sets verify`


def _reference_block_rows(fam, pts):
    """(n, rows) block coordinates of T^-1 x, summed over the d columns in order."""
    inv = fam.basis_inv[fam.offset:fam.offset + fam.rows]
    yb = np.zeros((len(pts), fam.rows))
    for j in range(fam.dim):
        yb = yb + pts[:, j:j + 1] * inv[:, j]
    return yb


def _in_order_norm(a):
    """Norm of each row of a, its squares summed in order along the row."""
    s = np.zeros(len(a))
    for k in range(a.shape[1]):
        s = s + a[:, k] * a[:, k]
    return np.sqrt(s)


def _reference_terms(fam, yb):
    """(lhs, scale) of the rule on block rows yb: in D_t iff lhs <= param(t) * scale * SLACK."""
    norm = _in_order_norm(yb)
    if not fam.uses_cone:
        return norm, np.ones_like(norm)
    tail = _in_order_norm(yb[:, -2:]) if fam.pair else np.abs(yb[:, -1])
    return tail, norm


def _reference_contains(fam, t, yb):
    lhs, scale = _reference_terms(fam, yb)
    return lhs <= fam.param(t) * scale * SLACK


def _reference_lag(start, step, member, h_max):
    """(h0, violations) of a loop that tests and steps the (n, k) points start."""
    table = np.empty((len(start), h_max + 1), dtype=bool)
    cur = start
    for h in range(h_max + 1):
        table[:, h] = member(cur)
        cur = step(cur)
    fails = ~table
    last_fail = np.where(fails.any(axis=1),
                         h_max - np.argmax(fails[:, ::-1], axis=1), -1)
    h0 = int(last_fail.max()) + 1
    if h0 > h_max:
        raise errors.NotReached(f"absorption not reached within h_max={h_max}")
    return h0, int(fails[:, h0:].sum())


def _outcome(fn, *args):
    """fn(*args), or the type of the package error it raises."""
    try:
        return fn(*args)
    except errors.LevymixError as exc:
        return type(exc)


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


def _conjugator(d, cond, rng):
    """A det-1 matrix of condition number exactly cond; random_det1 stays below it."""
    s = cond ** np.linspace(0.5, -0.5, d)
    return random_det1(d, rng, cond=1.0) @ np.diag(s) @ random_det1(d, rng, cond=1.0)


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
    with pytest.raises(errors.DimensionMismatch):
        contains_many(shear_family, 1.0, np.zeros((4, 2, 2)))
    for box in ([[0.0, 1.0]], [[0.0, 1.0]] * 3, [0.0, 1.0]):
        with pytest.raises(errors.DimensionMismatch):
            lm.null_boundary_check(shear_family, n_samples=10, bounding_box=box)


def test_family_inputs_must_be_finite(shear_family, squeeze_family):
    # D_t is unbounded, so a point at infinity has no answer
    for fam in (shear_family, squeeze_family):
        for x in ([np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0]):
            with pytest.raises(errors.NonFiniteInput):
                contains(fam, 1.0, np.array(x))
            with pytest.raises(errors.NonFiniteInput):
                contains_many(fam, 1.0, np.array([[1.0, 2.0], x]))
        for box in ([[np.nan, 1.0], [-1.0, 1.0]], [[-1.0, 1.0], [-1.0, np.inf]],
                    [[-np.inf, 1.0], [-1.0, 1.0]]):
            with pytest.raises(errors.NonFiniteInput):
                lm.null_boundary_check(fam, n_samples=10, bounding_box=box)


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
    """Check that point i's answer flips at the reference threshold; 1 if tested.

    At both edge t, every point of the batch, tested alone, must give
    the batch's answer.
    """
    lhs, scale = _reference_terms(fam, _reference_block_rows(fam, pts[i:i + 1]))
    t_on, t_under = _edge_ts(fam, lhs[0], scale[0])
    if t_on is None or t_under is None:
        return 0
    for t, inside in ((t_on, True), (t_under, False)):
        batch = contains_many(fam, t, pts)
        assert batch[i] == inside
        assert [contains(fam, t, x) for x in pts] == batch.tolist()
    return 1


def test_contains_many_matches_row_major_reference():
    # The reference sums each point's block rows of T^-1 x over the d
    # columns in order, and its squares in order, one point at a time,
    # so its bits cannot depend on the batch.  Each edge point gets the
    # t that puts the reference's threshold on the point (and just under
    # it), so any last-bit change in its coordinates or norms flips the
    # answer.  Blocks of 9 rows are in because numpy sums that many
    # squares pairwise along a contiguous axis.
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
            yb = _reference_block_rows(fam, pts)
            for t in GRID:
                assert np.array_equal(contains_many(fam, t, pts),
                                      _reference_contains(fam, t, yb))
            for i in range(4):
                edges += _edge_point(fam, pts[:64], i)
    assert edges >= 200


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(TAGGED)), log_cond=st.floats(0.0, 1.0),
       pair=st.sampled_from([(a, b) for i, a in enumerate(GRID) for b in GRID[i + 1:]]),
       h_max=st.sampled_from([40, 200]), seed=st.integers(0, 2**16))
@example(kind="squeeze", log_cond=1.0, pair=(0.2, 5.0), h_max=200, seed=0)
@example(kind="squeeze", log_cond=1.0, pair=(0.5, 2.0), h_max=40, seed=1)
def test_absorption_lag_matches_reference_loop(kind, log_cond, pair, h_max, seed):
    # The reference loop steps the block's rows by the block matrix.  The
    # squeeze, conjugated at conditioning up to 1000, must reach its exact
    # lag.  The loop that steps (n, d) points by A and tests them through
    # T^-1 is a second reference at h_max 40, fed the same sample mapped
    # through T's block columns; past that the expanding coordinate's
    # rounding drowns the contracting one.
    block = TAGGED[kind]
    d = max(block.rows, 2)
    cond = (1000.0 if kind == "squeeze" else 20.0) ** log_cond
    P = _conjugator(d, cond, stream(seed, "conjugator"))
    A = P @ _padded_form(block, d) @ np.linalg.inv(P)
    fam = lm.build_family(A)
    t_small, t_large = pair
    got = _outcome(lm.absorption_lag, fam, t_small, t_large, 200, h_max, seed)
    if kind == "squeeze":
        assert got == (math.ceil(math.log2(t_large / t_small)), 0)
    Y = _sample_in_family(fam, t_large, 200, stream(seed, "absorption")).T
    K = fam.decomposition.blocks[fam.block_index].materialize()
    assert got == _outcome(_reference_lag, Y, lambda y: y @ K.T,
                           lambda y: _reference_contains(fam, t_small, y), h_max)
    if h_max == 40:
        X = Y @ fam.decomposition.conjugator[:, fam.offset:fam.offset + fam.rows].T
        assert got == _outcome(_reference_lag, X, lambda x: x @ A.T,
                               lambda x: contains_many(fam, t_small, x), h_max)


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
