import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levymix as lm
from levymix import errors, shrinking
from levymix.gallery import assemble_jordan, random_det1, rotation, shear, squeeze
from levymix.matrices import BlockKind, RealJordanBlock
from levymix.rng import stream
from levymix.shrinking import _sample_in_family, contains, contains_many

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


def _edge(fam, p):
    """The membership rule's closed-set slack on p = param(t): a cone's edge
    rho moves out by 4 ulps of angle, to rho + 4 u c, c = sqrt((1 - rho)(1 + rho));
    a ball's radius grows by 1e-12."""
    if fam.uses_cone:
        return p + 2.0**-51 * math.sqrt((1.0 - p) * (1.0 + p))
    return p * (1.0 + 1e-12)


def _reference_terms(fam, yb):
    """(lhs, scale) of the rule on block rows yb: in D_t iff
    lhs <= _edge(fam, param(t)) * scale."""
    norm = _in_order_norm(yb)
    if not fam.uses_cone:
        return norm, np.ones_like(norm)
    tail = _in_order_norm(yb[:, -2:]) if fam.pair else np.abs(yb[:, -1])
    return tail, norm


def _reference_contains(fam, t, yb):
    lhs, scale = _reference_terms(fam, yb)
    return lhs <= _edge(fam, fam.param(t)) * scale


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


def _reference_certificate(fam, t, Y):
    """max over the (n, rows) block rows Y of H(y) = ceil(|lam| (|y_(k-1)| +
    |y_k| / rho) / |y_k|), y_k the last coordinate (pair) of a cone block."""
    lam, rho = abs(fam.decomposition.blocks[fam.block_index].eigen), fam.param(t)
    w = 2 if fam.pair else 1
    return max(math.ceil(lam * (math.hypot(*y[-2 * w:-w]) + math.hypot(*y[-w:]) / rho)
                         / math.hypot(*y[-w:])) for y in Y)


def _outcome(fn, *args):
    """fn(*args), or the type of the package error it raises."""
    try:
        return fn(*args)
    except errors.LevymixError as exc:
        return type(exc)


def _last_true(pred, lo, hi):
    """Largest float f in [lo, hi) with pred(f), given pred(lo) and not pred(hi).

    Bisects the bit patterns of the floats, which order 0 <= lo < hi.
    """
    a, b = (int(np.float64(v).view(np.int64)) for v in (lo, hi))
    while b - a > 1:
        m = (a + b) // 2
        if pred(float(np.int64(m).view(np.float64))):
            a = m
        else:
            b = m
    return float(np.int64(a).view(np.float64))


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


def test_family_inputs_must_be_finite(shear_family, squeeze_family):
    # D_t is unbounded, so a point at infinity has no answer
    for fam in (shear_family, squeeze_family):
        for x in ([np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0]):
            with pytest.raises(errors.NonFiniteInput):
                contains(fam, 1.0, np.array(x))
            with pytest.raises(errors.NonFiniteInput):
                contains_many(fam, 1.0, np.array([[1.0, 2.0], x]))


def test_membership_points_must_be_numbers(shear_family):
    for pts in ([[0.0, 1.0], [2.0]], "[0, 1]", [[0.0, "a"]]):
        with pytest.raises(errors.InvalidArgument):
            contains_many(shear_family, 1.0, pts)
    for x in ("[0, 1]", [0.0, "a"]):
        with pytest.raises(errors.InvalidArgument):
            contains(shear_family, 1.0, x)
    for x in (1.0, [[0.0, 1.0]]):
        with pytest.raises(errors.DimensionMismatch):
            contains(shear_family, 1.0, x)


def test_membership_monotone_in_t(shear_family, squeeze_family):
    rng = stream(1, "monotone")
    pts = rng.standard_normal((20_000, 2)) * 3.0
    for fam in (shear_family, squeeze_family):
        inner = contains_many(fam, 0.4, pts)
        outer = contains_many(fam, 2.7, pts)
        assert not np.any(inner & ~outer)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(TAGGED)), t1=st.floats(1e-8, 1e8),
       seed=st.integers(0, 2**16))
@example(kind="shear", t1=0.05794227448800149, seed=1)
@example(kind="unipotent 3x3", t1=0.3394857295526917, seed=0)
@example(kind="unit-modulus pair", t1=0.34026832890086356, seed=1)
def test_membership_increases_in_t_at_edge_points(kind, t1, seed):
    # D_t increases in t as computed, to the last float step of t.  The
    # point is on the edge of D_t1: it is in, and its tail rows (all the
    # block rows, for a ball) grown by one float step are out.  It must
    # stay in D_t2 for every t2 >= t1; a rho = param(t) that fell by one
    # float from some t to the next would drop such a point.
    block = TAGGED[kind]
    fam = lm.build_family(_padded_form(block, max(block.rows, 2)))
    end = fam.offset + fam.rows
    grown = end - (2 if fam.pair else 1) if fam.uses_cone else fam.offset
    y = stream(seed, "edge").standard_normal(fam.dim)

    def point(c):
        z = y.copy()
        z[grown:end] *= c
        return fam.decomposition.conjugator @ z

    assert contains(fam, t1, point(0.0)) and not contains(fam, t1, point(2.0**500))
    x = point(_last_true(lambda c: contains(fam, t1, point(c)), 0.0, 2.0**500))
    for t2 in (t1, np.nextafter(t1, np.inf), t1 * (1.0 + 2.0**-40), 2.0 * t1, 1e9):
        assert contains(fam, t2, x)


U = 2.0**-53


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["shear", "squeeze"]), log_cond=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**16), log_t=st.floats(-20.0, 15.0),
       points=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([-1.0, 1.0]),
                                 st.floats(0.0, 40.0), st.floats(-5.0, 5.0)),
                       min_size=1, max_size=16))
@example(kind="shear", log_cond=0.0, seed=0, log_t=0.0, points=[(0, 1.0, 5.0, 0.0)])
@example(kind="shear", log_cond=0.0, seed=0, log_t=13.0, points=[(0, 1.0, 5.0, 0.0)])
def test_family_region_membership_agrees_beyond_the_margin(kind, log_cond, seed,
                                                          log_t, points):
    # family_region(fam, t).contains and contains_many agree at every point
    # whose Jordan coordinates y lie beyond a margin from D_t's boundary:
    #   cone:  angle to the nearest boundary ray > 8 u (1 + rho/c) + 32 u kappa
    #   strip: ||y_off| - eps| > 1.5e-12 eps + 32 u kappa |y|
    # with c = sqrt((1 - rho)(1 + rho)), u = 2^-53, kappa = |T|_F |T^-1|_F.
    # The slack of contains_many admits |y2| <= (rho + 4 u c) |y|, an angle
    # of about 4 u past each ray, or |y_off| up to eps (1 + 1e-12); its
    # norms and products round by a few u, a few u rho/c in angle, within
    # the other 4 u (1 + rho/c) of the cone's margin.  Roundoff
    # in kappa: the test point x = fl(T y), contains_many's T^-1 x, the
    # wedge frame fl(T W) = T (W + E) and the inverse frame's product each
    # move y by at most about 2 sqrt(2) u kappa |y|, under 16 u kappa in all.
    # A strip reads y_off by the same inverse and product on both paths.
    g = {"shear": shear(), "squeeze": squeeze()}[kind]
    h = _conjugator(2, 10.0**log_cond, stream(seed, "conj"))
    fam = lm.build_family(h @ g @ np.linalg.inv(h))
    T = fam.decomposition.conjugator
    kappa, t = np.linalg.norm(T) * np.linalg.norm(fam.basis_inv), 10.0**log_t
    region = shrinking.family_region(fam, t)
    ys, margins, gaps = [], [], []
    for ray, side, e, log_r in points:
        r = math.exp(log_r)
        if fam.uses_cone:
            rho = fam.param(t)
            c = math.sqrt((1 - rho) * (1 + rho))
            margin = 8 * U * (1 + rho / c) + 32 * U * kappa
            theta = math.asin(rho)
            rays = np.array([theta, -theta, math.pi - theta, math.pi + theta])
            phi = rays[ray] + side * margin * 2.0**e
            gap = np.abs((phi - rays + math.pi) % (2 * math.pi) - math.pi).min()
            y = r * np.array([math.cos(phi), math.sin(phi)])
        else:
            eps = fam.param(t)
            y = np.zeros(2)
            y[1 - fam.offset] = r if ray < 2 else -r
            margin0 = 1.5e-12 * eps + 32 * U * kappa * (r + 2 * eps)
            y[fam.offset] = (1 if ray % 2 else -1) * (eps + side * margin0 * 2.0**e)
            gap = abs(abs(y[fam.offset]) - eps)
            margin = 1.5e-12 * eps + 32 * U * kappa * np.linalg.norm(y)
        ys.append(y)
        margins.append(margin)
        gaps.append(gap)
    x = np.array(ys) @ T.T
    beyond = np.array(gaps) > np.array(margins)
    assert np.array_equal(region.contains(x)[beyond],
                          contains_many(fam, t, x)[beyond])


def test_cone_stays_short_of_the_plane(shear_family):
    # the cone's slack is an angle, which vanishes as rho -> 1: the tail
    # axis stays outside D_t for every t with rho < 1, t below about 2^53
    axis = shear_family.decomposition.conjugator @ np.array([0.0, 1.0])
    for t in (1e12, 1e14, 1e15, 2.0**52):
        assert shear_family.param(t) < 1.0 and not contains(shear_family, t, axis)
    assert contains(shear_family, 2.0**54, axis)  # rho rounds to 1


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
    """(t_on, t_under): _edge(fam, param(t)) * scale equal to lhs, or to the float
    below it.

    The threshold never decreases in t, so the last t whose threshold
    lies under lhs is found by bisection, and t_on is the float after it.
    Either is None where the threshold steps past its value.
    """
    def thr(t):
        return _edge(fam, fam.param(t)) * scale
    lo, hi = 5e-324, 1e300
    if not thr(lo) < lhs <= thr(hi):
        return None, None
    t_under = _last_true(lambda t: thr(t) < lhs, lo, hi)
    t_on = float(np.nextafter(t_under, np.inf))
    return (t_on if thr(t_on) == lhs else None,
            t_under if thr(t_under) == np.nextafter(lhs, -np.inf) else None)


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


def test_contains_many_matches_row_major_reference(monkeypatch):
    # The reference sums each point's block rows of T^-1 x over the d
    # columns in order, and its squares in order, one point at a time,
    # so its bits cannot depend on the batch.  Each edge point gets the
    # t that puts the reference's threshold on the point (and just under
    # it), so any last-bit change in its coordinates or norms flips the
    # answer.  Blocks of 9 rows are in because numpy sums that many
    # squares pairwise along a contiguous axis.  Batches are also cut into
    # blocks of 64 points, which must not change an answer either.
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
                want = _reference_contains(fam, t, yb)
                assert np.array_equal(contains_many(fam, t, pts), want)
                with monkeypatch.context() as mp:
                    mp.setattr(shrinking, "BLOCK_POINTS", 64)
                    assert np.array_equal(contains_many(fam, t, pts), want)
            for i in range(5):
                edges += _edge_point(fam, pts[:64], i)
    assert edges >= 200


def test_contains_far_from_unit_scale():
    # Points whose block rows or their squares over- or underflow are
    # taken at a power-of-two scale.  A cone answers for x * s as for x,
    # and a ball of radius eps * s as the ball of radius eps for x, to the
    # last bit: at the edge t of a point (see _edge_point) the scaled
    # point is in, and just under it out.  A ball lets tiny points in and
    # keeps huge ones out.
    rng = stream(17, "far-scale")
    edges = 0
    for name, d in (("shear", 2), ("unipotent 3x3", 3), ("unit-modulus pair", 4),
                    ("squeeze", 2), ("contracting pair", 3)):
        P = _conjugator(d, 10.0, rng)
        fam = lm.build_family(P @ _padded_form(TAGGED[name], d) @ np.linalg.inv(P))
        pts = np.vstack([rng.standard_normal((200, d)) * 3.0]
                        + [_boundary_points(fam, t, 20, rng) for t in GRID])
        lhs, scale = _reference_terms(fam, _reference_block_rows(fam, pts))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (2.0**1000, 2.0**-1000):
                def scaled(t):
                    return t if fam.uses_cone else t * s  # a ball's radius is t
                for t in GRID:
                    assert np.array_equal(contains_many(fam, scaled(t), pts * s),
                                          contains_many(fam, t, pts))
                for i in range(0, len(pts), 25):
                    t_on, t_under = _edge_ts(fam, lhs[i], scale[i])
                    if t_on is None or t_under is None:
                        continue
                    assert contains(fam, scaled(t_on), pts[i] * s)
                    assert not contains(fam, scaled(t_under), pts[i] * s)
                    edges += 1
            if not fam.uses_cone:
                for t in GRID:
                    assert not contains_many(fam, t, pts * 2.0**1000).any()
                    assert contains_many(fam, t, pts * 2.0**-1000).all()
            for x in ([1e308] * d, [1e308, -1e308] + [0.0] * (d - 2)):
                unit = contains(fam, 1.0, np.array(x) / 1e308)
                assert contains(fam, 1.0, x) == (unit if fam.uses_cone else False)
    assert edges >= 40


def test_narrow_pair_cone_tail_below_normal_range():
    # A pair cone weighs the norm of the final pair against the norm of
    # all rows.  Near a narrow cone at size 2^-505 the squares of all rows
    # sum to a normal float and those of the pair do not; the answers must
    # still be those at unit size, to the last bit at each edge t.
    rng = stream(29, "pair-tail")
    block = TAGGED["unit-modulus pair"]
    P = _conjugator(block.rows, 10.0, rng)
    fam = lm.build_family(P @ _padded_form(block, block.rows) @ np.linalg.inv(P))
    pts = _boundary_points(fam, 1e-4, 200, rng)
    lhs, scale = _reference_terms(fam, _reference_block_rows(fam, pts))
    s = 2.0**-505
    assert (scale * s).min() ** 2 >= np.finfo(float).tiny > (lhs * s).max() ** 2
    edges = 0
    for i in range(len(pts)):
        t_on, t_under = _edge_ts(fam, lhs[i], scale[i])
        if t_on is None or t_under is None:
            continue
        assert contains(fam, t_on, pts[i] * s)
        assert not contains(fam, t_under, pts[i] * s)
        edges += 1
    assert edges >= 100


def test_contains_far_point_whose_block_rows_cancel():
    # Where a point's largest terms cancel, its block rows are far smaller
    # than those terms; they are brought to unit size on their own before
    # their squares are summed.  The padded shear is given the block rows
    # 2 x0 - 2 x1 + x2 and x2, exact in floats: at x0 = x1 = 1.5e308 the
    # terms overflow and both rows are x2.
    fam = lm.build_family(_padded_form(TAGGED["shear"], 3))
    inv = np.zeros((3, 3))
    inv[fam.offset:] = [[2.0, -2.0, 1.0], [0.0, 0.0, 1.0]]
    fam = dataclasses.replace(fam, basis_inv=inv)
    t_on, t_under = _edge_ts(fam, 1.2345, math.hypot(1.2345, 1.2345))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x2 in (1.2345, 1.2345 * 2.0**500, 1.2345 * 2.0**600):
            for x in ([0.0, 0.0, x2], [1.5e308, 1.5e308, x2]):
                assert contains(fam, t_on, x)
                assert not contains(fam, t_under, x)


def test_contains_ignores_coordinates_the_block_does_not_read():
    # A coordinate that the tagged block's rows do not read changes no
    # answer, however far its size is from that of the rows: a scale taken
    # from the largest coordinate would push the rows' squares below the
    # float range.  For the squeeze in the plane, [1e300, 1] lies outside
    # the ball of radius 0.5.
    fam = lm.build_family(squeeze())
    assert not contains(fam, 0.5, [1e300, 1.0])
    assert contains(fam, 0.5, [1e300, 0.5])
    rng = stream(19, "unread")
    edges = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, block in TAGGED.items():
            d = block.rows + 2
            fam = lm.build_family(_padded_form(block, d))
            read = np.abs(fam.basis_inv[fam.offset:fam.offset + fam.rows]).any(axis=0)
            assert read.sum() == block.rows, name
            pts = np.vstack([rng.standard_normal((100, d))]
                            + [_boundary_points(fam, t, 20, rng) for t in GRID])
            pts[:, ~read] = 0.0
            lhs, scale = _reference_terms(fam, _reference_block_rows(fam, pts))
            for s in (1.0, 2.0**600, 2.0**-600):
                def scaled(t):
                    return t if fam.uses_cone else t * s  # a ball's radius is t
                for pad in (1e300, -1e-300, 5e-324):
                    mixed = pts * s
                    mixed[:, ~read] = pad
                    for t in GRID:
                        assert np.array_equal(contains_many(fam, scaled(t), mixed),
                                              contains_many(fam, t, pts))
                    for i in range(0, len(pts), 10):
                        t_on, t_under = _edge_ts(fam, lhs[i], scale[i])
                        if t_on is None or t_under is None:
                            continue
                        assert contains(fam, scaled(t_on), mixed[i])
                        assert not contains(fam, scaled(t_under), mixed[i])
                        edges += 1
    assert edges >= 100


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
    # rounding drowns the contracting one.  A cone family's lag is
    # certified only up to h_max: where the sample's certificate exceeds
    # it, NotReached is due whatever the walk finds below h_max.
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
    uncertified = fam.uses_cone and _reference_certificate(fam, t_small, Y) > h_max

    def expect(outcome):
        return errors.NotReached if uncertified else outcome

    assert got == expect(_outcome(_reference_lag, Y, lambda y: y @ K.T,
                                  lambda y: _reference_contains(fam, t_small, y),
                                  h_max))
    if h_max == 40:
        X = Y @ fam.decomposition.conjugator[:, fam.offset:fam.offset + fam.rows].T
        assert got == expect(_outcome(_reference_lag, X, lambda x: x @ A.T,
                                      lambda x: contains_many(fam, t_small, x),
                                      h_max))


@pytest.mark.parametrize("cond", [1.0, 20.0])
@pytest.mark.parametrize("kind", sorted(TAGGED))
def test_absorbed_samples_stay_inside_past_the_certified_power(kind, cond):
    # the lag's stop must survive roundoff: from H on (the certificate of a
    # cone, the lag of a forward-invariant ball) no sample leaves D_t_small,
    # and a cone's column i none from its own certificate ceil(H_i) on
    block = TAGGED[kind]
    d = max(block.rows, 2)
    P = _conjugator(d, cond, stream(3, "conjugator"))
    fam = lm.build_family(P @ _padded_form(block, d) @ np.linalg.inv(P))
    K = fam.decomposition.blocks[fam.block_index].materialize()
    for i, t_small in enumerate(GRID):
        for t_large in GRID[i + 1:]:
            cur = _sample_in_family(fam, t_large, 200, stream(0, "absorption"))
            if fam.uses_cone:
                own = np.ceil(shrinking._certified_power(fam, t_small, cur))
                assert own.tolist() == [_reference_certificate(fam, t_small, [y])
                                        for y in cur.T]
                H = math.ceil(own.max())
                assert H == _reference_certificate(fam, t_small, cur.T)
            else:
                H, _ = lm.absorption_lag(fam, t_small, t_large, 200, 200, 0)
                own = np.full(cur.shape[1], H)
            assert H <= 200
            for h in range(H + 501):
                inside = _reference_contains(fam, t_small, cur.T)
                assert inside[own <= h].all()
                if h >= H:
                    assert inside.all()
                cur = K @ cur


PAIRS = [(a, b) for i, a in enumerate(GRID) for b in GRID[i + 1:]]
LAGS = {  # absorption_lag(fam, *pair, n_samples=2000, seed=seed) over PAIRS
    ("shear", 0): [98, 98, 94, 94, 95, 91, 91, 90, 90, 90],
    ("shear", 1): [100, 100, 99, 99, 97, 96, 96, 95, 95, 94],
    ("squeeze", 0): [2, 3, 4, 5, 1, 2, 4, 1, 3, 2],
    ("squeeze", 1): [2, 3, 4, 5, 1, 2, 4, 1, 3, 2],
}


@pytest.mark.parametrize("name, seed", sorted(LAGS))
def test_absorption_lags_are_pinned(name, seed, shear_family, squeeze_family):
    fam = shear_family if name == "shear" else squeeze_family
    assert [lm.absorption_lag(fam, *pair, n_samples=2000, seed=seed)
            for pair in PAIRS] == [(h0, 0) for h0 in LAGS[name, seed]]


@pytest.mark.parametrize("seed", [0, 1])
def test_cone_walk_tests_each_sample_up_to_its_own_certificate(seed, shear_family,
                                                                monkeypatch):
    # the walk over every sample up to the largest certificate would test
    # n * max ceil(H_i) columns; each sample needs its own ceil(H_i)
    tested = []
    member = shrinking._in_family
    monkeypatch.setattr(shrinking, "_in_family",
                        lambda fam, p, yb: tested.append(math.prod(yb.shape[1:]))
                        or member(fam, p, yb))
    assert lm.absorption_lag(shear_family, 0.2, 5.0, n_samples=2000, seed=seed) == (
        LAGS["shear", seed][3], 0)
    Y = _sample_in_family(shear_family, 5.0, 2000, stream(seed, "absorption")).T
    own = [_reference_certificate(shear_family, 0.2, [y]) for y in Y]
    assert sum(own) <= sum(tested) <= len(Y) * max(own) / 4


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


def test_ball_absorption_not_reached(squeeze_family):
    # the ball of radius 5 needs ceil(log2(5 / 0.2)) = 5 halvings to fit in 0.2
    assert not squeeze_family.uses_cone
    with pytest.raises(errors.NotReached, match="h_max=2"):
        lm.absorption_lag(squeeze_family, 0.2, 5.0, n_samples=2_000, h_max=2)


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
