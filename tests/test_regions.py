import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levymix import errors, experiments, noise, regions
from levymix import rng as _rng
from levymix.gallery import rotation, shear, squeeze
from levymix.regions import (
    TABLE_SIZE_CAP,
    AtomTable,
    Piece,
    Region,
    _overlap,
    _stratified_blocks,
    atomize,
    box_region,
    clipped_area,
    intersection_volume,
    transform,
    unit_box,
    volume,
)


def _hull(pieces):
    """Per-axis [lo, hi] of the smallest axis box holding every piece."""
    b = np.stack([p.bounds() for p in pieces])
    return np.column_stack([b[:, :, 0].min(axis=0), b[:, :, 1].max(axis=0)])


def test_piece_validation():
    with pytest.raises(errors.DimensionMismatch):
        Piece(np.eye(2), np.array([[0.0, 1.0]]))
    with pytest.raises(errors.InvalidArgument):
        Piece(np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_piece_volume_and_membership():
    p = Piece(np.diag([2.0, 1.0]), np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert p.volume() == 2.0
    assert p.contains(np.array([[1.5, 0.5]]))[0]
    assert not p.contains(np.array([[2.5, 0.5]]))[0]
    assert np.array_equal(p._intervals, np.array([[0.0, 2.0], [0.0, 1.0]]))


def test_rotation90_powers_are_axis_boxes():
    C = box_region(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    for m in range(9):
        Cm = transform(np.linalg.matrix_power(rotation(math.pi / 2), m), C)
        assert Cm.is_axis_aligned()
        assert np.array_equal(Cm.pieces[0]._intervals, [[-1.0, 1.0], [-1.0, 1.0]])


def test_signed_permutation_frame_intervals():
    p = Piece(np.array([[0.0, 2.0], [-3.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert p.is_axis_aligned()
    assert np.array_equal(p._intervals, [[2.0, 4.0], [-3.0, 0.0]])
    assert p.contains(np.array([[3.0, -1.5], [3.0, 0.5]])).tolist() == [True, False]
    b = box_region(np.array([[3.0, 5.0], [-1.0, 1.0]]))
    assert intersection_volume(Region((p,)), b) == (1.0, 0.0)


def test_rotated_and_sheared_frames_not_axis_aligned():
    for g in (rotation(1.0), shear()):
        p = transform(g, unit_box(2)).pieces[0]
        assert not p.is_axis_aligned()


def test_region_requires_pieces_and_consistent_dims():
    with pytest.raises(errors.InvalidArgument):
        Region(())
    with pytest.raises(errors.DimensionMismatch):
        Region((Piece(np.eye(2), np.zeros((2, 2)) + [0, 1]),
                Piece(np.eye(3), np.zeros((3, 2)) + [0, 1])))


def test_box_region_volume():
    assert volume(unit_box(3)) == 1.0
    r = box_region(np.array([[0.0, 2.0], [-1.0, 1.0]]))
    assert volume(r) == 4.0


def test_volume_requires_disjoint_for_exact():
    r = Region((Piece(np.eye(1), np.array([[0.0, 1.0]])),) * 2,
               disjoint=False)
    with pytest.raises(errors.OverlapUnknown):
        volume(r)


def test_transform_preserves_volume_for_det_one():
    C = unit_box(2)
    for g in (squeeze(), rotation(1.0)):
        assert volume(transform(g, C)) == pytest.approx(1.0)
    with pytest.raises(errors.SingularMatrix):
        transform(np.zeros((2, 2)), C)


def test_region_json_round_trip():
    r = transform(rotation(0.5), unit_box(2))
    r2 = Region.from_json(r.to_json())
    pts = np.random.default_rng(0).uniform(-1, 2, size=(500, 2))
    assert np.array_equal(r.contains(pts), r2.contains(pts))


def test_region_from_json_box_form_and_errors():
    r = Region.from_json({"box": [[0.0, 2.0], [1.0, 2.0]]})
    assert r.is_axis_aligned() and volume(r) == 2.0
    pieces = [{"frame": [[1, 0], [0, 1]], "box": [[0, 1], [0, 1]]}]
    assert not Region.from_json({"pieces": pieces, "disjoint": False}).disjoint
    # the flag holds beside a box too
    both = Region.from_json({"box": [[0, 1], [0, 1]], "disjoint": False})
    assert not both.disjoint and not both.to_json()["disjoint"]
    with pytest.raises(errors.OverlapUnknown):
        volume(both)
    for bad in ({"box": [[1.0, 0.0], [0.0, 1.0]]}, {"box": 3}, {"pieces": [{}]},
                {"pieces": [{"frame": [[1, 0], [0, 1]], "box": [[0, 1]]}]},
                {"circle": 1.0}, [[0.0, 1.0]],
                {"pieces": [{"frame": [[1, 0], [0, 1]], "box": [[0, 1], [0, 1]]}],
                 "disjoint": "false"}):
        with pytest.raises(errors.ConfigError):
            Region.from_json(bad)


def test_axis_intersection_exact():
    a = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    b = box_region(np.array([[0.5, 1.5], [0.0, 2.0]]))
    assert intersection_volume(a, b) == (0.5, 0.0)
    # the pair loop takes the product of intervals on axis boxes, also on
    # boxes turned by a rotation90 power whose frame is off by 1e-16, and
    # the planar clip agrees with it there
    assert _overlap(a, b) == _overlap(b, a) == 0.5
    r90 = np.linalg.matrix_power(rotation(math.pi / 2), 3)
    ra, rb = transform(r90, a), transform(r90, b)
    assert _overlap(ra, rb) == 0.5
    assert clipped_area(a.pieces[0].polygon(), b.pieces[0]._halfplanes) == 0.5
    assert clipped_area(ra.pieces[0].polygon(),
                        rb.pieces[0]._halfplanes) == pytest.approx(0.5, abs=1e-12)


def test_polygon_is_the_corners_in_cyclic_order():
    # the clip path forms the polygon directly; it must keep corners()' bits
    sample = np.random.default_rng(4)
    for scale in (1e-8, 1.0, 1e8):
        for _ in range(100):
            p = Piece(sample.normal(size=(2, 2)) * scale,
                      np.sort(sample.normal(size=(2, 2)), axis=1))
            assert np.array_equal(p.polygon(), p.corners()[[0, 1, 3, 2]])


def test_mc_intersection_octagon_oracle():
    # centered unit square against its 45-degree rotation: the overlap
    # is a regular octagon of area 2*(sqrt(2)-1)
    B = box_region(np.array([[-0.5, 0.5], [-0.5, 0.5]]))
    R = transform(rotation(math.pi / 4), B)
    est, err = intersection_volume(B, R, method="mc", n=200_000, seed=3)
    assert est == pytest.approx(2 * (math.sqrt(2) - 1), abs=5 * err + 1e-4)


def test_planar_overlap_closed_forms():
    B = box_region(np.array([[-0.5, 0.5], [-0.5, 0.5]]))
    est, err = intersection_volume(B, transform(rotation(math.pi / 4), B))
    assert est == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-12) and err == 0.0
    C = transform(shear(), unit_box(2))
    D = transform(shear(), box_region(np.array([[0.5, 1.5], [0.0, 1.0]])))
    est, err = intersection_volume(C, D)
    assert est == pytest.approx(0.5, abs=1e-12) and err == 0.0


def test_pair_loop_mixes_products_and_clips():
    # one planar region of a turned piece and an axis box: the axis pair
    # adds the product of its intervals, the other pair its clipped area,
    # and pairs whose bounds do not meet add nothing
    B = box_region(np.array([[-0.5, 0.5], [-0.5, 0.5]]))
    turned = transform(rotation(math.pi / 4), B).pieces[0]
    r1 = Region((turned, Piece(np.eye(2), [[2.0, 3.0], [0.0, 1.0]])))
    r2 = Region((B.pieces[0], Piece(np.eye(2), [[2.5, 4.0], [0.5, 2.0]])))
    est, err = intersection_volume(r1, r2)
    assert err == 0.0
    assert est == pytest.approx(2 * (math.sqrt(2) - 1) + 0.25, abs=1e-12)
    assert _overlap(r1, r2) == est


def test_exact_overlap_needs_disjoint_pieces():
    # without the disjoint flag a pair is sampled, even of axis boxes
    twice = Region(unit_box(2).pieces * 2, disjoint=False)
    assert intersection_volume(twice, unit_box(2)) == (1.0, 0.0)
    half = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
    est, err = intersection_volume(twice, half)
    assert err > 0.0 and (est, err) == intersection_volume(twice, half, method="mc")
    tilted = transform(rotation(0.3), twice)
    assert intersection_volume(tilted, unit_box(2)) == intersection_volume(
        tilted, unit_box(2), method="mc")


@pytest.mark.parametrize("method", ["auto", "mc"])
def test_intersection_volume_dimension_mismatch(method):
    with pytest.raises(errors.DimensionMismatch):
        intersection_volume(unit_box(2), unit_box(3), method=method)


@st.composite
def _planar_region(draw):
    """Disjoint rotated, sheared or axis pieces, one per cell of a 2 x 2
    grid of side-2 cells: with box = F^-1 v + [-w/2, w/2] x [-h/2, h/2],
    w, h <= 1 and shears up to 1/2, the piece F @ box lies within 3/4 of
    v in each coordinate, and v within 1/4 of the cell centre."""
    cells = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                          min_size=1, max_size=4, unique=True))
    pieces = []
    for i, j in cells:
        kind = draw(st.sampled_from(["axis", "rotation", "shear"]))
        if kind == "axis":
            frame = np.diag(draw(st.sampled_from([[1.0, 1.0], [-1.0, 1.0]])))
        elif kind == "rotation":
            frame = rotation(draw(st.floats(0.0, 2 * math.pi)))
        else:
            frame = np.array([[1.0, draw(st.floats(-0.5, 0.5))], [0.0, 1.0]])
        half = 0.5 * np.array(draw(st.lists(st.floats(0.2, 1.0),
                                             min_size=2, max_size=2)))
        v = np.array([2.0 * i, 2.0 * j]) + np.array(
            draw(st.lists(st.floats(-0.25, 0.25), min_size=2, max_size=2)))
        c = np.linalg.solve(frame, v)
        pieces.append(Piece(frame, np.column_stack([c - half, c + half])))
    return Region(tuple(pieces))


@st.composite
def _unimodular(draw):
    a, c = draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(-1.0, 1.0))
    s = math.exp(draw(st.floats(-1.0, 1.0)))
    return rotation(a) @ np.diag([s, 1.0 / s]) @ np.array([[1.0, c], [0.0, 1.0]])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(r1=_planar_region(), r2=_planar_region(), g=_unimodular(),
       seed=st.integers(0, 2**31 - 1))
def test_planar_overlap_properties(r1, r2, g, seed):
    est, err = intersection_volume(r1, r2)
    assert err == 0.0
    # Monte Carlo over the bounding box of r1; a sliver thinner than one
    # sample cell can be missed by every stratum, so allow one sample's area
    n = 20_000
    mc, mc_err = intersection_volume(r1, r2, method="mc", n=n, seed=seed)
    bounds = _hull(r1.pieces)
    cell = float(np.prod(bounds[:, 1] - bounds[:, 0])) / n
    assert abs(est - mc) <= 4.0 * mc_err + cell
    assert abs(est - intersection_volume(r2, r1)[0]) <= 1e-12
    lam = volume(r1)
    moved, _ = intersection_volume(transform(g, r1), transform(g, r2))
    assert abs(moved - est) <= 1e-12 * lam


def test_unbounded_framed_pieces_give_exact_bounds_and_overlaps():
    # A sheared half-strip has exact bounds, with no NaN from 0 * inf; of
    # each pair the bounded piece is clipped, in either argument order;
    # two unbounded pieces that meet, or an unbounded Monte Carlo sample
    # box, raise UnboundedRegion.
    half = box_region([[0.0, np.inf], [0.0, 1.0]])
    sheared = transform([[1.0, 1.0], [0.0, 1.0]], half)
    assert sheared.pieces[0].bounds().tolist() == [[0.0, np.inf], [0.0, 1.0]]
    line = Piece([[1.0, 1.0], [0.0, 1.0]], [[-np.inf, np.inf], [0.0, 1.0]])
    assert line.bounds().tolist() == [[-np.inf, np.inf], [0.0, 1.0]]
    assert intersection_volume(sheared, unit_box(2)) == (0.5, 0.0)
    assert intersection_volume(unit_box(2), sheared) == (0.5, 0.0)
    for r1, r2, method in ((sheared, half, "auto"), (half, unit_box(2), "mc"),
                           (sheared, unit_box(2), "mc")):
        with pytest.raises(errors.UnboundedRegion):
            intersection_volume(r1, r2, method=method)
    est, err = intersection_volume(unit_box(2), sheared, method="mc", n=10_000)
    assert abs(est - 0.5) <= 5.0 * err + 1e-4
    # a bounded piece keeps the bits of its corners
    tilted = transform(rotation(0.3) @ shear(), unit_box(2)).pieces[0]
    corners = tilted.corners()
    assert np.array_equal(tilted.bounds(), np.column_stack(
        [corners.min(axis=0), corners.max(axis=0)]))


@st.composite
def _half_strip(draw):
    """(unbounded, truncated): a half-strip g @ ([c0 - w, inf] x [c1 - h, c1 + h])
    near the grid of _planar_region, or its mirror image [-inf, c0 + w], and
    the same piece cut off at box coordinate c0 +- 1000, which lies at least
    100 from the grid since g and g^-1 stretch by under 6."""
    g = draw(_unimodular())
    c = np.linalg.solve(g, draw(st.lists(st.floats(-1.0, 3.0), min_size=2, max_size=2)))
    w, h = draw(st.floats(0.0, 1.0)), draw(st.floats(0.1, 1.0))
    side = draw(st.sampled_from([1.0, -1.0]))
    box = np.array([[c[0] - side * w, side * np.inf], [c[1] - h, c[1] + h]])
    box[0].sort()
    cut = box.copy()
    cut[0][np.isinf(cut[0])] = c[0] + side * 1000.0
    return Region((Piece(g, box),)), Region((Piece(g, cut),))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(r1=_planar_region(), strip=_half_strip())
def test_planar_overlap_agrees_in_either_order_with_unbounded_pieces(r1, strip):
    # Each pair clips its bounded piece, so the order of the arguments
    # changes no bit; the far face of a half-strip cut off beyond r1 cuts
    # nothing, so the cut-off strip gives the same bits as well.
    unbounded, truncated = strip
    est = intersection_volume(r1, unbounded)
    assert est == intersection_volume(unbounded, r1)
    assert est == intersection_volume(r1, truncated)
    assert est[1] == 0.0 and 0.0 <= est[0] <= volume(r1) * (1.0 + 1e-12)  # shoelace


def test_atomize_exact_two_overlapping_boxes():
    a = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    b = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
    atoms = atomize([a, b], n=0, seed=0)
    assert atoms.exact
    table = dict(zip(atoms.signatures, atoms.measures))
    assert table[(True, True)] == pytest.approx(0.5)
    assert table[(True, False)] == pytest.approx(0.5)
    assert table[(False, True)] == pytest.approx(0.5)
    assert sum(atoms.measures) == pytest.approx(1.5)  # bounding box volume
    assert atoms.region_measure(0) == (pytest.approx(1.0), 0.0)
    assert atoms.atoms_of_region(1) == [
        i for i, s in enumerate(atoms.signatures) if s[1]]


def test_atomize_mc_close_to_exact():
    a = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    b = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
    exact = atomize([a, b])
    assert exact.exact
    mc = atomize([a, b], method="mc", n=100_000, seed=4)
    for sig, m, e in zip(mc.signatures, mc.measures, mc.stderrs):
        if sig in exact.signatures:
            want = exact.measures[exact.signatures.index(sig)]
            assert m == pytest.approx(want, abs=5 * e + 1e-3)


def test_atomize_rotation90_powers_exact():
    C = box_region(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    for m in range(1, 9):
        Cm = transform(np.linalg.matrix_power(rotation(math.pi / 2), m), C)
        atoms = atomize([C, Cm], n=1_000, seed=0)
        assert atoms.exact
        assert atoms.signatures == ((True, True),)
        assert atoms.measures.tolist() == [4.0]


def test_atomize_unbounded_rejected():
    half_strip = box_region(np.array([[0.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(errors.UnboundedRegion):
        atomize([unit_box(2), half_strip], n=10)
    with pytest.raises(errors.LevymixError):
        atomize([], n=10)


# ---------------------------------------------------------------------------
# membership of axis pieces and signature counting


def _solve_contains(piece, pts):
    """Membership through the inverse frame, for any invertible frame."""
    y = np.linalg.solve(piece.frame, pts.T).T
    return np.all((y >= piece.box[:, 0]) & (y <= piece.box[:, 1]), axis=1)


@pytest.mark.parametrize("frame", [
    np.eye(1), np.eye(2), np.eye(3), [[0.0, 2.0], [-0.5, 0.0]],
    [[-1.0, 0.0], [0.0, 4.0]], [[0.0, 0.0, -0.25], [2.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
])
def test_axis_membership_matches_solve(frame):
    frame = np.asarray(frame, dtype=float)
    d = frame.shape[0]
    box = np.column_stack([np.linspace(-1.0, 0.5, d), np.linspace(0.25, 2.0, d)])
    p = Piece(frame, box)
    # each closed bound, its float neighbours on both sides, and the middle
    axes = [[lo, hi, (lo + hi) / 2] + [np.nextafter(v, s * np.inf)
                                       for v in (lo, hi) for s in (-1, 1)]
            for lo, hi in p._intervals]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    want = _solve_contains(p, pts)
    assert want.any() and not want.all()
    assert np.array_equal(p.contains(pts), want)


def test_singular_diagonal_frame_still_raises():
    p = Piece(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert not p.is_axis_aligned()
    with pytest.raises(errors.SingularMatrix):
        p.contains(np.array([[0.5, 0.0]]))
    with pytest.raises(errors.SingularMatrix):
        p._halfplanes


def test_axis_family_never_solves(monkeypatch):
    square = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    family = [box_region(square),
              transform(np.linalg.matrix_power(rotation(math.pi / 2), 3),
                        box_region(square + [[0.5], [0.0]])),
              Region((Piece(np.array([[0.0, 2.0], [-0.5, 0.0]]), square),
                      Piece(np.eye(2), square + 3.0)))]
    pts = np.random.default_rng(0).uniform(-3.0, 5.0, size=(2_000, 2))

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called for axis pieces")

    monkeypatch.setattr("levymix.regions.np.linalg.solve", no_solve)
    assert all(r.contains(pts).any() for r in family)
    assert atomize(family).exact
    assert not atomize(family, method="mc", n=2_000, seed=1).exact


@pytest.mark.parametrize("frame", [
    rotation(0.7), shear(), [[1.0, 0.0], [-1.3, 1.0]],
    [[0.8, -0.3, 0.2], [0.1, 1.1, -0.4], [0.5, 0.2, 0.9]],
])
def test_non_axis_membership_matches_solve(frame):
    frame = np.asarray(frame, dtype=float)
    d = frame.shape[0]
    p = Piece(frame, np.column_stack([np.linspace(-1.0, 0.5, d),
                                      np.linspace(0.25, 2.0, d)]))
    assert not p.is_axis_aligned()
    bounds = p.bounds()
    pts = np.random.default_rng(d).uniform(bounds[:, 0] - 0.5, bounds[:, 1] + 0.5,
                                           size=(20_000, d))
    y = np.linalg.solve(p.frame, pts.T).T
    gap = np.minimum(np.abs(y - p.box[:, 0]), np.abs(y - p.box[:, 1])).min(axis=1)
    pts = pts[gap >= 1e-9]  # off every face, where rounding cannot decide
    want = _solve_contains(p, pts)
    assert want.any() and not want.all()
    assert np.array_equal(p.contains(pts), want)
    assert np.array_equal(Region((p,)).contains(pts), want)


def test_contains_rejects_points_of_another_dimension():
    sheared = Region((Piece(shear(), np.array([[0.0, 1.0], [0.0, 1.0]])),))
    for region in (unit_box(2), sheared):
        for pts in ([[0.5, 0.5, 99.0]], [0.5], np.zeros((4, 1)), np.zeros((2, 2, 2))):
            with pytest.raises(errors.DimensionMismatch):
                region.contains(pts)
            with pytest.raises(errors.DimensionMismatch):
                region.pieces[0].contains(pts)
        assert region.contains([0.5, 0.5]).tolist() == [True]
        assert region.contains(np.empty((0, 2))).shape == (0,)


def _rotated_sheared_family():
    return [transform(rotation(0.5), unit_box(2)),
            Region((Piece(np.array([[1.0, 0.7], [0.0, 1.0]]),
                          np.array([[0.25, 1.25], [0.0, 1.0]])),)),
            box_region(np.array([[0.5, 1.5], [0.25, 1.0]]))]


def test_mc_family_never_solves_and_inverts_each_frame_once(monkeypatch):
    family = _rotated_sheared_family()
    inv_calls = []
    inv = np.linalg.inv

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called for membership")

    def counted_inv(a):
        inv_calls.append(a)
        return inv(a)

    monkeypatch.setattr("levymix.regions.np.linalg.solve", no_solve)
    monkeypatch.setattr("levymix.regions.np.linalg.inv", counted_inv)
    atoms = atomize(family, n=2_000, seed=1)
    assert not atoms.exact
    real = noise.realize(noise.NoiseSpec(noise.POISSON, 50.0), family,
                         seed=1, atoms=atoms)
    assert all(real.count_in(r) == real.value(i) for i, r in enumerate(family))
    for r in family[:2]:
        r.pieces[0]._halfplanes
    assert len(inv_calls) == 2  # one per rotated or sheared piece


def test_mc_hit_counts_pinned():
    # integer hit counts per atom of one seeded MC atomization, as the
    # meshgrid sampler and solve-based membership gave them; a change to
    # either that moves a single point shows here
    n_total = 141 * 141 * 2  # 141**2 strata of two points each
    atoms = atomize(_rotated_sheared_family(), n=n_total, seed=7, method="mc")
    vbox = float(np.prod(atoms.bounding_box[:, 1] - atoms.bounding_box[:, 0]))
    counts = atoms.measures / vbox * n_total
    assert np.allclose(counts, np.rint(counts), rtol=0.0, atol=1e-6)
    assert list(atoms.signatures) == [
        (True, True, True), (True, True, False), (True, False, True),
        (True, False, False), (False, True, True), (False, True, False),
        (False, False, True), (False, False, False)]
    assert np.rint(counts).astype(int).tolist() == [
        824, 50, 1137, 10060, 6423, 4765, 658, 15845]


# ---------------------------------------------------------------------------
# the stratified sampler


def _meshgrid_stratified(bounds, s, m, u):
    """The strata laid out by a meshgrid of cell indices: lower corner of
    each stratum plus the scaled draw u of shape (s**d, m, d)."""
    d = bounds.shape[0]
    edges = [np.linspace(bounds[k, 0], bounds[k, 1], s + 1) for k in range(d)]
    cells = np.stack(np.meshgrid(*[np.arange(s)] * d, indexing="ij"),
                     axis=-1).reshape(-1, d)
    lo = np.stack([edges[k][cells[:, k]] for k in range(d)], axis=1)
    return (lo[:, None, :] + u * ((bounds[:, 1] - bounds[:, 0]) / s)).reshape(-1, d)


def _concatenated_blocks(bounds, n, seed, label):
    """The points of _stratified_blocks on the stream (seed, label) as d
    rows, checked against the meshgrid layout of one draw."""
    k, m, blocks = _stratified_blocks(bounds, n, _rng.stream(seed, label))
    pts = np.concatenate([cols for cols, _ in blocks], axis=1)
    d = bounds.shape[0]
    s = round(k ** (1.0 / d))
    u = _rng.stream(seed, label).random((k, m, d))
    assert np.array_equal(pts.T, _meshgrid_stratified(bounds, s, m, u))
    return pts


@pytest.mark.parametrize("d, n", [(1, 7), (1, 100), (2, 9_999), (2, 10_000),
                                  (2, 100_000), (2, 200_000), (3, 1_000), (3, 5_000)])
def test_stratified_uniform_layout(d, n, monkeypatch):
    bounds = np.column_stack([np.linspace(-1.0, 0.5, d), np.linspace(0.3, 4.0, d)])
    k, m, _ = _stratified_blocks(bounds, n, _rng.stream(3, "strata"))
    # s is the largest with 2 s**d <= n; so the 100_000 default of
    # `levymix simulate` lays out 223**2 strata of two points
    s = round(k ** (1.0 / d))
    assert k == s**d and 2 * s**d <= n < 2 * (s + 1) ** d
    assert m == max(n // k, 2)
    row = s ** (d - 1) * m  # points in one row of strata along axis 0
    # the default block; 40 points, which is one row where a row holds
    # more; and two rows, so the last block is short when s is odd
    for block in (regions.BLOCK_POINTS, 40, 2 * row):
        monkeypatch.setattr(regions, "BLOCK_POINTS", block)
        blocks = [cols for cols, _ in
                  _stratified_blocks(bounds, n, _rng.stream(3, "strata"))[2]]
        # whole rows of strata, each block as d contiguous coordinate rows
        step = max(block // row, 1)
        assert [b.shape for b in blocks] == [(d, min(step, s - i) * row)
                                             for i in range(0, s, step)]
        assert all(b.flags.c_contiguous for b in blocks)
        assert _concatenated_blocks(bounds, n, 3, "strata").shape == (d, k * m)


def test_strata_take_at_most_n_points_and_more_than_half():
    # the sizing rule alone, no draws: k = s**d strata of m points, 2 k <= n
    # < 2 (s + 1)**d, so n / 2 < k m <= n; checked at every n below 3000,
    # at 300 sizes from there to 10**7, and next to each 2 s**d on the way
    spread = np.geomspace(3_000, 10**7, 300).astype(int).tolist()
    for d in (1, 2, 3, 4):
        roots = np.geomspace(1, 5e6 ** (1.0 / d), 200).astype(int).tolist()
        edges = {2 * s**d + e for s in roots for e in (-1, 0, 1)}
        for n in set(range(2, 3_000)) | set(spread) | edges - {1}:
            s, m = regions._strata(n, d)
            k = s**d
            assert 2 * k <= n < 2 * (s + 1) ** d
            assert m == n // k and n < 2 * k * m <= 2 * n
        assert regions._strata(1, d) == (1, 2)
    # `levymix simulate --n` by default, and the experiments' sample size
    assert regions._strata(100_000, 2) == (223, 2)
    assert regions._strata(experiments.MC_SAMPLES, 2) == (447, 2)


@pytest.mark.parametrize("n", [9_999, 10_000, 40_000])
def test_mc_stderr_positive_at_every_sample_size(n, monkeypatch):
    tilted = transform(rotation(0.3), unit_box(2))
    est, err = intersection_volume(tilted, unit_box(2), method="mc", n=n, seed=0)
    assert type(err) is float and err > 0.0
    exact, _ = intersection_volume(tilted, unit_box(2))
    assert abs(est - exact) <= 5.0 * err
    # the strata are counted one block at a time, to the same bits
    monkeypatch.setattr(regions, "BLOCK_POINTS", 40)
    assert intersection_volume(tilted, unit_box(2), method="mc", n=n,
                               seed=0) == (est, err)


def _traced_peak(fn):
    """Peak of the memory traced by tracemalloc, numpy arrays included,
    while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_passes_never_hold_the_whole_sample():
    # 1264^2 strata of two: 3.2M points as one (d, n) array are 51 MB, and
    # a pass counted in one block (BLOCK_POINTS above n) peaks at 160 MB
    # (atomize) and 155 MB (overlap); the overlap keeps one mean per
    # stratum, 12.8 MB
    family = [unit_box(2), transform(rotation(0.3), unit_box(2))]
    n = 2 * 1264 ** 2
    assert _traced_peak(lambda: atomize(family, n=n, seed=0, method="mc")) < 16e6
    assert _traced_peak(lambda: intersection_volume(
        *family, method="mc", n=n, seed=0)) < 32e6


@pytest.mark.parametrize("d", [2, 3])
def test_framed_piece_holds_one_coordinate_row_at_a_time(d):
    # a box coordinate row and the two arrays that form the next one are
    # 3 rows of floats; the next is formed only once the last is released
    n = 50_000
    piece = Piece(np.eye(d) + np.triu(np.full((d, d), 0.7), 1),
                  np.column_stack([np.zeros(d), np.ones(d)]))
    cols = np.random.default_rng(d).uniform(-1.0, 2.0, (d, n))
    want = piece._contains_columns(cols)
    assert want.any() and not want.all()
    assert _traced_peak(lambda: piece._contains_columns(cols)) < 2.5 * 8 * n


# A null-atom rule at 1e-9 of the box volume.  An atom seen in the sample
# has measure >= vbox / n, so the rule drops nothing below 1e9 samples; the
# reference applies it to show that atomize needs no such rule.
ATOM_DROP_FRACTION = 1e-9


def _piecewise_contains(region, pts):
    """Membership one piece at a time: a closed compare with the intervals
    of each axis piece, the piece's own inverse-frame test otherwise."""
    out = np.zeros(len(pts), dtype=bool)
    for p in region.pieces:
        if p.is_axis_aligned():
            iv = p._intervals
            out |= np.all((pts >= iv[:, 0]) & (pts <= iv[:, 1]), axis=1)
        else:
            out |= p.contains(pts)
    return out


def _dict_atoms(regions, bounds, exact, n, seed):
    """(signatures, measures, stderrs) from a dict of signature tuples over
    the points classified one piece at a time: the centres of the sweep
    cells weighted by cell volume (the mesh-centre classification the
    painted sweep replaced), or the stratified samples of the "atomize"
    stream."""
    d = bounds.shape[0]
    if exact:
        cuts = []
        for k in range(d):
            ends = {bounds[k, 0], bounds[k, 1]}
            for r in regions:
                for p in r.pieces:
                    ends.update(float(v) for v in p._intervals[k])
            cuts.append(np.array(sorted(ends)))
        grid = [0.5 * (c[1:] + c[:-1]) for c in cuts]
        pts = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, d)
        wgrid = np.meshgrid(*[np.diff(c) for c in cuts], indexing="ij")
        weights = np.prod(np.stack(wgrid, axis=-1).reshape(-1, d), axis=1)
    else:
        pts = _concatenated_blocks(bounds, n, seed, "atomize").T
        weights = np.ones(len(pts), dtype=int)
    table = {}
    member = np.stack([_piecewise_contains(r, pts) for r in regions], axis=1)
    for sig, w in zip(map(tuple, member), weights.tolist()):
        table[sig] = table.get(sig, 0) + w
    sigs = sorted(table, reverse=True)
    if exact:
        return sigs, [table[s] for s in sigs], [0.0] * len(sigs)
    vbox = float(np.prod(bounds[:, 1] - bounds[:, 0]))
    out = ([], [], [])
    for sig in sigs:
        p = table[sig] / len(pts)
        if vbox * p >= ATOM_DROP_FRACTION * vbox:
            for col, v in zip(out, (sig, vbox * p,
                                    vbox * np.sqrt(p * (1 - p) / len(pts)))):
                col.append(v)
    return out


def _assert_matches_dict_atoms(family, method, n, seed):
    """atomize against _dict_atoms, with the default block of points and
    with blocks of 40, whose signature table holds at most 5 regions."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "BLOCK_POINTS", 40)
        small = atomize(family, n=n, seed=seed, method=method)
        sigs, measures, stderrs = _dict_atoms(family, small.bounding_box,
                                              small.exact, n, seed)
    for atoms in (atomize(family, n=n, seed=seed, method=method), small):
        assert atoms.signatures == tuple(sigs)
        assert all(len(s) == len(family) for s in atoms.signatures)
        assert atoms.measures.tobytes() == np.array(measures, dtype=float).tobytes()
        assert atoms.stderrs.tobytes() == np.array(stderrs, dtype=float).tobytes()
    return atoms


_SCALES = [-2.0, -1.0, -0.5, 0.5, 1.0, 3.0]


@st.composite
def _axis_pieces(draw, d, count, skew=False):
    """Signed-permutation images of boxes on a quarter lattice, some of
    zero width on an axis; with `skew`, some frames are sheared too.  The
    lattice leaves no sweep cell one ulp wide, where a computed cell
    centre could round onto a face."""
    pieces = []
    for _ in range(count):
        lo = np.array(draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)))
        ext = np.array(draw(st.lists(st.integers(0, 4), min_size=d, max_size=d)))
        frame = np.zeros((d, d))
        frame[np.arange(d), draw(st.permutations(range(d)))] = draw(
            st.lists(st.sampled_from(_SCALES), min_size=d, max_size=d))
        if skew and draw(st.booleans()):
            frame[0] += draw(st.floats(0.2, 1.0)) * frame[1]
        pieces.append(Piece(frame, 0.25 * np.column_stack([lo, lo + ext])))
    return pieces


@st.composite
def _families(draw):
    d = draw(st.integers(1, 3))
    skew = d > 1 and draw(st.booleans())
    return [Region(tuple(draw(_axis_pieces(d, draw(st.integers(1, 3)), skew))),
                   disjoint=False)
            for _ in range(draw(st.integers(1, 9)))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=_families(), method=st.sampled_from(["auto", "mc"]),
       seed=st.integers(0, 2**31 - 1))
def test_atomize_matches_dict_counting(family, method, seed):
    _assert_matches_dict_atoms(family, method, 3_000, seed)


@pytest.mark.parametrize("n_regions", [1, 8, 9, 16, 17, 64, 70])
@pytest.mark.parametrize("method", ["auto", "mc"], ids=["exact", "mc"])
def test_atomize_code_widths_match_dict_counting(n_regions, method):
    # a family of axis boxes takes the exact sweep under "auto"
    rng = np.random.default_rng(n_regions)
    lo = rng.uniform(0.0, 3.0, size=(n_regions, 2))
    family = [box_region(np.column_stack([a, a + rng.uniform(0.5, 2.0, 2)]))
              for a in lo]
    atoms = _assert_matches_dict_atoms(family, method, 5_000, n_regions)
    assert atoms.exact == (method == "auto")
    assert len(atoms.signatures) >= n_regions


# ---------------------------------------------------------------------------
# membership tables of axis-box unions and the painted sweep


def test_piece_rejects_nan_box_and_keeps_infinite_boxes():
    for box in ([[0.0, np.nan], [0.0, 1.0]], [[np.nan, np.nan], [0.0, 1.0]]):
        with pytest.raises(errors.NonFiniteInput):
            Piece(np.eye(2), box)
    with pytest.raises(errors.ConfigError):
        Region.from_json({"box": [[0.0, float("nan")], [0.0, 1.0]]})
    strip = Region((Piece(np.eye(2), [[0.0, np.inf], [0.0, 1.0]]),
                    Piece(np.eye(2), [[-np.inf, -1.0], [0.0, 1.0]])))
    assert strip._axis_table is not None
    pts = [[np.inf, 1.0], [-np.inf, 0.0], [5.0, 0.5], [-0.5, 0.5], [np.nan, 0.5]]
    assert strip.contains(pts).tolist() == [True, True, True, False, False]
    with pytest.raises(errors.UnboundedRegion):
        atomize([strip])


def test_atomize_rejects_unknown_method_and_empty_family():
    for method in ("bogus", "exact"):
        with pytest.raises(errors.InvalidArgument, match=f"unknown method '{method}'"):
            atomize([unit_box(2)], method=method)
    with pytest.raises(errors.InvalidArgument, match="empty family"):
        atomize([])
    with pytest.raises(errors.InvalidArgument, match="empty family"):
        atomize(iter(()), method="mc")
    with pytest.raises(errors.DimensionMismatch):
        atomize([unit_box(2), unit_box(3)])


@st.composite
def _staircases(draw, d=None):
    d = draw(st.integers(1, 3)) if d is None else d
    pieces = draw(_axis_pieces(d, draw(st.integers(2, 8 if d < 3 else 4))))
    if d > 1 and draw(st.booleans()):  # mixed: a rotated or sheared piece too
        frame = np.eye(d)
        frame[:2, :2] = (rotation(draw(st.floats(0.1, 1.4))) if draw(st.booleans())
                         else [[1.0, draw(st.floats(0.2, 1.0))], [0.0, 1.0]])
        pieces.insert(draw(st.integers(0, len(pieces))),
                      Piece(frame, np.column_stack([-np.ones(d), np.ones(d)])))
    return Region(tuple(pieces), disjoint=False)


def _face_points(region, rng, cap=30_000):
    """Every combination of per-axis coordinates, or `cap` random ones when
    there are more: each cut, its float neighbours, the midpoints, points
    beyond the ends, NaN and both infinities."""
    d = region.dim
    axes = []
    for k in range(d):
        ends = np.unique(_hull(region.pieces)[k].tolist() + [
            v for p in region.pieces if p.is_axis_aligned() for v in p._intervals[k]])
        axes.append(np.concatenate([
            ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf),
            0.5 * (ends[1:] + ends[:-1]), [ends[0] - 1.0, ends[-1] + 1.0],
            [np.nan, np.inf, -np.inf]]))
    if np.prod([len(a) for a in axes]) <= cap:
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return np.stack([a[rng.integers(0, len(a), cap)] for a in axes], axis=1)


def _contains_both_ways(region, pts):
    """Region.contains with the table read for every point count, and with
    per-piece compares for every point count, which must agree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "TABLE_POINTS", math.inf)
        by_table = region.contains(pts)
        mp.setattr(regions, "TABLE_POINTS", 0)
        by_piece = region.contains(pts)
    assert np.array_equal(by_table, by_piece)
    return by_table


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(region=_staircases())
def test_table_membership_matches_closed_intervals(region):
    pts = _face_points(region, np.random.default_rng(0))
    n_axis = sum(p.is_axis_aligned() for p in region.pieces)
    assert (region._axis_table is not None) == (n_axis >= 2)
    want = _piecewise_contains(region, pts)
    assert np.array_equal(_contains_both_ways(region, pts), want)
    assert np.array_equal(region.contains(pts), want)
    # and one point at a time, which reads the table
    for i in np.random.default_rng(1).choice(len(pts), min(20, len(pts)),
                                             replace=False):
        assert region.contains(pts[i]).tolist() == [want[i]]


def test_table_membership_above_the_size_cap():
    # 40 boxes with distinct endpoints cut each of three axes 80 times, so
    # the table would hold at least 161**3 elements
    rng = np.random.default_rng(5)
    lo = rng.uniform(0.0, 4.0, size=(40, 3))
    frames = [np.diag(rng.choice([-1.0, 2.0], 3)) for _ in range(40)]
    pieces = [Piece(f, np.column_stack([a, a + 1.0])) for f, a in zip(frames, lo)]
    big = Region(tuple(pieces) + (Piece(np.eye(3), [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),))
    assert 161**3 > TABLE_SIZE_CAP and big._axis_table is None
    pts = np.concatenate([_face_points(big, rng, cap=20_000),
                          rng.uniform(-5.0, 10.0, size=(20_000, 3))])
    assert np.array_equal(_contains_both_ways(big, pts), _piecewise_contains(big, pts))
    small = Region(tuple(pieces[:8]))
    assert small._axis_table is not None
    assert np.array_equal(_contains_both_ways(small, pts), _piecewise_contains(small, pts))


def test_painted_sweep_over_64_staircases():
    # 70 regions of two signed-permutation boxes in d = 3, some of zero
    # width, whose endpoints come from 12 random floats per axis, so that
    # cell volumes round as the products of the mesh-centre sweep did
    rng = np.random.default_rng(70)
    ends = np.sort(rng.uniform(-2.0, 2.0, size=(3, 12)), axis=1)
    family = []
    for _ in range(70):
        pieces = []
        for _ in range(2):
            iv = np.take_along_axis(ends, np.sort(rng.integers(0, 12, (3, 2))), axis=1)
            perm, sign = rng.permutation(3), rng.choice([-1.0, 1.0], 3)
            frame, box = np.zeros((3, 3)), np.zeros((3, 2))
            frame[np.arange(3), perm] = sign
            box[perm] = np.sort(sign[:, None] * iv, axis=1)
            pieces.append(Piece(frame, box))
            assert np.array_equal(pieces[-1]._intervals, iv)
        family.append(Region(tuple(pieces), disjoint=False))
    assert all(r._axis_table is not None for r in family)
    atoms = _assert_matches_dict_atoms(family, "auto", 0, 0)
    assert atoms.exact and len(atoms.signatures[0]) == 70
    _assert_matches_dict_atoms(family, "mc", 4_000, 3)


def _count_piece_compares(monkeypatch):
    calls = []
    compare = Piece._contains_columns

    def counted(piece, cols):
        calls.append(cols.shape[1])
        return compare(piece, cols)

    monkeypatch.setattr(Piece, "_contains_columns", counted)
    return calls


def test_table_read_up_to_its_point_limit(monkeypatch):
    # 3 axis boxes and a rotated one: the table takes the boxes up to
    # TABLE_POINTS points per box, and the rotated piece is compared always
    square = np.array([[0.0, 1.0], [0.0, 1.0]])
    region = Region(tuple(Piece(np.eye(2), square + 0.5 * k) for k in range(3))
                    + (Piece(rotation(0.3), square),), disjoint=False)
    pts = np.random.default_rng(3).uniform(-1.0, 3.0, size=(3 * regions.TABLE_POINTS + 1, 2))
    calls = _count_piece_compares(monkeypatch)
    for n, compares in [(1, 1), (3 * regions.TABLE_POINTS, 1),
                        (3 * regions.TABLE_POINTS + 1, 4)]:
        want = _piecewise_contains(region, pts[:n])
        calls.clear()
        assert np.array_equal(region.contains(pts[:n]), want)
        assert calls == [n] * compares


def test_axis_unions_make_no_piece_compares(monkeypatch):
    square = np.array([[0.0, 1.0], [0.0, 1.0]])
    family = [Region((Piece(np.eye(2), square), Piece(np.eye(2), square + 1.5))),
              Region((Piece(np.array([[0.0, 2.0], [-1.0, 0.0]]), square),
                      Piece(np.diag([-1.0, 0.5]), square + 0.25),
                      Piece(np.eye(2), square + [[2.0], [0.0]]))),
              Region(tuple(Piece(np.eye(2), square * 0.5 + 0.5 * k) for k in range(5)))]
    pts = np.random.default_rng(2).uniform(-2.0, 3.0, size=(2 * regions.TABLE_POINTS, 2))
    want = [_piecewise_contains(r, pts) for r in family]
    calls = _count_piece_compares(monkeypatch)
    assert all(np.array_equal(r.contains(pts), w) for r, w in zip(family, want))
    # 49 strata of 2 points: at most TABLE_POINTS per axis box of every region
    atoms = atomize(family, method="mc", n=100, seed=4)
    assert not atoms.exact
    # Poisson batches grow with 1 / the atom's share; capped at the table
    # limit of the two-box region, every region reads its table
    monkeypatch.setattr(noise, "BLOCK_POINTS", 2 * regions.TABLE_POINTS)
    reals = [noise.realize(noise.NoiseSpec(noise.POISSON, 8.0), family, seed=4,
                           atoms=a) for a in (None, atoms)]
    assert calls == []
    assert reals[0].atoms.exact and len(reals[0].points()) > 0
    assert all(real.count_in(r) == real.value(i)
               for real in reals for i, r in enumerate(family))
    # at the default cap the larger batches compare box by box, and keep
    # the same first hits of the same stream
    monkeypatch.setattr(noise, "BLOCK_POINTS", regions.BLOCK_POINTS)
    for a, real in zip((None, atoms), reals):
        again = noise.realize(noise.NoiseSpec(noise.POISSON, 8.0), family,
                              seed=4, atoms=a)
        assert again.points().tobytes() == real.points().tobytes()
    assert calls
    calls.clear()
    # beyond the limit, Monte Carlo atomization compares piece by piece
    assert atomize(family, method="mc", n=3_000, seed=4).signatures
    assert len(calls) == sum(len(r.pieces) for r in family)


def test_shared_pieces_are_compared_once_per_block(monkeypatch):
    # rotated A, B and A u B parsed as three regions, and a sheared box:
    # A u B holds its own copies of A and B, equal by frame and box bytes
    rot = rotation(0.6).tolist()
    a = {"frame": rot, "box": [[0.0, 1.0], [0.0, 1.0]]}
    b = {"frame": rot, "box": [[1.5, 2.5], [0.0, 1.0]]}
    sheared = Region((Piece([[1.0, 0.7], [0.0, 1.0]], [[0.0, 1.5], [0.5, 2.0]]),))
    family = [Region.from_json({"pieces": p}) for p in ([a], [b], [a, b])] + [sheared]
    assert family[2].pieces[0] is not family[0].pieces[0]
    # the same distinct pieces, one region each, over the same box
    distinct = [family[0], family[1], sheared]
    assert np.array_equal(regions._common_bounding_box(family),
                          regions._common_bounding_box(distinct))
    atoms = _assert_matches_dict_atoms(family, "mc", 6_000, 2)
    calls = _count_piece_compares(monkeypatch)
    for size in (regions.BLOCK_POINTS, 500):  # one block, or twelve
        monkeypatch.setattr(regions, "BLOCK_POINTS", size)
        calls.clear()
        atomize(distinct, method="mc", n=6_000, seed=2)
        want = list(calls)
        calls.clear()
        again = atomize(family, method="mc", n=6_000, seed=2)
        assert calls == want and len(want) >= 3
        assert again.signatures == atoms.signatures
        assert again.measures.tobytes() == atoms.measures.tobytes()
    # Poisson placement: each batch compares A, B and the sheared box once
    batches = []
    memberships = noise._memberships

    def counted(family):
        members = memberships(family)

        def batch(cols, spans=None):
            batches.append(cols.shape[1])
            return members(cols, spans)
        return batch

    monkeypatch.setattr(noise, "_memberships", counted)
    calls.clear()
    real = noise.realize(noise.NoiseSpec(noise.POISSON, 5.0), family, seed=1,
                         atoms=atoms)
    assert len(real.points()) > 0 and sorted(calls) == sorted(batches * 3)
    assert all(real.count_in(r) == real.value(i) for i, r in enumerate(family))


# ---------------------------------------------------------------------------
# culling by rows of strata, and the painter


def _loop_paint(intervals, cuts):
    """The painter the cumulative sums replaced: one slice per box."""
    table = np.zeros(tuple(2 * len(c) + 1 for c in cuts), dtype=bool)
    ends = np.stack([2 * np.searchsorted(c, intervals[:, k]) + 1
                     for k, c in enumerate(cuts)], axis=1)
    for box in ends:
        table[tuple(slice(lo, hi + 1) for lo, hi in box)] = True
    return table


def _whole_block_contains(region, cols):
    """Every piece compared on every point, with no table and no culling."""
    return np.logical_or.reduce([p._contains_columns(cols) for p in region.pieces])


@st.composite
def _staircase_families(draw):
    d = draw(st.integers(1, 3))
    return [draw(_staircases(d)) for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=_staircase_families(), unbounded=st.booleans(),
       per_chunk=st.integers(1, 3), under=st.booleans())
def test_painted_table_matches_loop_painter(family, unbounded, per_chunk, under):
    d = family[0].dim
    # a -0.0 endpoint on axis 0 (-1 times a 0 bound) beside a 0.0 one
    signed = Region((Piece(np.diag([-1.0] + [1.0] * (d - 1)),
                           np.column_stack([np.zeros(d), np.ones(d)])),
                     Piece(np.eye(d), np.column_stack([np.zeros(d), np.ones(d)]))))
    assert np.signbit(signed._axis_intervals[0, 0, 1])
    ivs = [r._axis_intervals for r in family + [signed]]
    if unbounded:  # a half-infinite box on axis 0
        ivs[0] = np.concatenate([ivs[0], ivs[0][:1]])
        ivs[0][-1, 0, 1] = np.inf
    cuts = regions._cuts(np.concatenate(ivs))
    for c, ends in zip(cuts, np.concatenate(ivs).swapaxes(0, 1)):
        assert c.tolist() == sorted(set(ends.ravel().tolist()))
    # chunks of per_chunk regions, or one fewer (at least one) when under
    size = math.prod(2 * len(c) + 2 for c in cuts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "TABLE_SIZE_CAP", per_chunk * size - under)
        tables = list(regions._paint(ivs, cuts))
    assert len(tables) == len(ivs)
    for table, iv in zip(tables, ivs):
        want = _loop_paint(iv, cuts)
        assert table.shape == want.shape and table.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("offset", [0.0, -7.3, 1e6, -3e9])
def test_strata_rows_hold_their_points(d, offset, monkeypatch):
    # the premise of culling: every point of row r of strata has its first
    # coordinate in [low_r, fl(low_r + scale)]; so _spans passes on every
    # point of an axis interval
    monkeypatch.setattr(regions, "BLOCK_POINTS", 700)
    rng = np.random.default_rng(d)
    lo = offset + rng.uniform(-2.0, 0.0, d)
    bounds = np.column_stack([lo, lo + rng.uniform(0.1, 3.0, d) / 3.0])
    k, m, blocks = _stratified_blocks(bounds, {1: 999, 2: 4_000}.get(d, 3_000),
                                      _rng.stream(d, "premise"))
    s = round(k ** (1.0 / d))
    width = k // s * m
    lows = np.linspace(bounds[0, 0], bounds[0, 1], s + 1)[:-1]
    tops = lows + (bounds[0, 1] - bounds[0, 0]) / s
    first = 0
    for cols, spans in blocks:
        rows = slice(first, first + cols.shape[1] // width)
        x0 = cols[0].reshape(-1, width)
        assert np.all(x0.min(axis=1) >= lows[rows]) and np.all(x0.max(axis=1) <= tops[rows])
        # each row's extreme points alone, and intervals between row ends
        ends = np.concatenate([x0.min(axis=1), x0.max(axis=1)])
        terms = np.zeros((len(ends) + 40, d + 3))
        terms[:, :2] = np.concatenate([np.c_[ends, ends], np.sort(rng.choice(
            np.r_[ends, lows[rows], tops[rows]], (40, 2)), axis=1)])
        for (a, b), (start, stop) in zip(terms[:, :2], spans(terms)):
            outside = np.r_[cols[0, :max(start, 0)], cols[0, stop:]]
            assert not np.any((outside >= a) & (outside <= b))
        first = rows.stop
    assert first == s


def _conditioned_frame(d, cond, rng):
    q1 = np.linalg.qr(rng.normal(size=(d, d)))[0]
    q2 = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, d)) @ q2


def _near_face_points(piece, rng, count):
    """Points of the piece's faces and corners, and of the ends of its
    first axis, each coordinate moved up to 3 ulps either way."""
    d = piece.dim
    y = rng.uniform(piece.box[:, 0], piece.box[:, 1], (count, d))
    face = rng.integers(0, d, count)
    y[np.arange(count), face] = piece.box[face, rng.integers(0, 2, count)]
    corner = rng.random(count) < 0.25
    y[corner] = piece.box[np.arange(d), rng.integers(0, 2, (corner.sum(), d))]
    x = y @ piece.frame.T
    x[: count // 4, 0] = piece.bounds()[0, rng.integers(0, 2, count // 4)]
    return x + rng.integers(-3, 4, x.shape) * np.spacing(x)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("offset", [0.0, -50.0, 1e5])
def test_culling_never_changes_an_answer(d, offset, monkeypatch):
    rng = np.random.default_rng(int(d + abs(offset)))
    frames = [_conditioned_frame(d, cond, rng) for cond in (1.0, 1e2, 1e4, 1e6, 1e8)]
    frames += [np.diag(rng.choice([-2.0, 0.5, 1.0], d)) for _ in range(3)]
    lo = rng.uniform(-1.0, 1.0, (len(frames), d))
    boxes = np.stack([lo, lo + rng.uniform(0.5, 2.0, lo.shape)], axis=2)
    # each piece moved by `offset` along every axis
    region = Region(tuple(Piece(f, box + np.linalg.solve(f, np.full(d, offset))[:, None])
                          for f, box in zip(frames, boxes)), disjoint=False)
    pts = np.concatenate([_near_face_points(p, rng, 600) for p in region.pieces]
                         + [rng.uniform(*_hull(region.pieces).T, (600, d))])
    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    width = 7  # rows of 7 points as tight as their first coordinates
    pts = np.concatenate([pts, np.repeat(pts[-1:], -len(pts) % width, axis=0)])
    cols = np.ascontiguousarray(pts.T)
    spans = partial(regions._spans, cols[0, ::width], cols[0, width - 1::width],
                    width, np.abs(pts).max(axis=0))
    whole = _whole_block_contains(region, cols)
    assert whole.any() and not whole.all()
    monkeypatch.setattr(regions, "TABLE_POINTS", 0)
    calls = _count_piece_compares(monkeypatch)
    assert np.array_equal(next(regions._memberships((region,))(cols, spans)), whole)
    assert sum(calls) < 0.75 * len(region.pieces) * len(pts)  # it culls
    terms = np.stack([p._reach_terms for p in region.pieces])
    for p, (start, stop) in zip(region.pieces, spans(terms)):
        assert not p._contains_columns(np.c_[cols[:, :start], cols[:, stop:]]).any()
    # a point's answer is the same alone, in any slice and in any order
    for i in rng.choice(len(pts), 40, replace=False):
        assert region.contains(pts[i]).tolist() == [whole[i]]
    for _ in range(20):
        a, b = np.sort(rng.integers(0, len(pts), 2))
        assert np.array_equal(region.contains(pts[a:b + 1]), whole[a:b + 1])
    order = rng.permutation(len(pts))
    assert np.array_equal(region.contains(pts[order]), whole[order])


@st.composite
def _families_sharing_a_piece(draw):
    """_staircase_families, with a copy of one of their pieces, parsed from
    lists, added to some regions and held alone by one more."""
    family = draw(_staircase_families())
    piece = draw(st.sampled_from([p for r in family for p in r.pieces]))
    copies = [Piece(piece.frame.tolist(), piece.box.tolist()) for _ in range(len(family) + 1)]
    family = [Region(r.pieces + (c,) if draw(st.booleans()) else r.pieces,
                     disjoint=False) for r, c in zip(family, copies)]
    return family + [Region((copies[-1],))]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family=_families_sharing_a_piece(), width=st.integers(1, 9))
def test_memberships_match_whole_block_classifier(family, width):
    # rows of `width` points sorted by their first coordinate, culled by
    # _spans, at point counts that read every table and that read none
    d = family[0].dim
    rng = np.random.default_rng(width)
    pts = np.concatenate([_face_points(r, rng, cap=2_000) for r in family]
                         + [rng.uniform(-3.0, 3.0, (500, d))])
    pts = pts[np.isfinite(pts).all(axis=1)]
    most = max(len(r._axis_intervals) for r in family)
    for n in (2 * regions.TABLE_POINTS - width, regions.TABLE_POINTS * most + 1):
        some = pts[np.argsort(pts[:, 0], kind="stable")][np.sort(rng.integers(0, len(pts), n))]
        some = np.concatenate([some, np.repeat(some[-1:], -n % width, axis=0)])
        cols = np.ascontiguousarray(some.T)
        spans = partial(regions._spans, cols[0, ::width], cols[0, width - 1::width],
                        width, np.abs(some).max(axis=0))
        members = regions._memberships(family)
        for cull in (None, spans):
            for r, got in zip(family, members(cols, cull)):
                assert np.array_equal(got, _whole_block_contains(r, cols))


@pytest.mark.parametrize("cond", [1e4, 1e8])
def test_culled_sampling_matches_whole_block_classifier(cond):
    rng = np.random.default_rng(int(np.log10(cond)))
    family = [Region((Piece(_conditioned_frame(2, cond, rng), [[0.0, 1.0], [-1.0, 2.0]]),
                      Piece(np.eye(2), [[0.2, 0.9], [-0.5, 0.4]])), disjoint=False),
              transform(rotation(0.4), unit_box(2)),
              box_region([[0.3, 1.3], [-0.2, 0.6]])]
    _assert_matches_dict_atoms(family, "mc", 6_000, 5)
    # the overlap estimate from whole blocks of the same points
    r1, r2 = family[0], family[1]
    for n in (3_000, 20_000):
        k, m, blocks = _stratified_blocks(_hull(r1.pieces), n, _rng.stream(2, "overlap"))
        hits = np.concatenate([(_whole_block_contains(r1, c) & _whole_block_contains(r2, c))
                               for c, _ in blocks])
        p_hat = hits.reshape(-1, m).mean(axis=1)
        bounds = _hull(r1.pieces)
        vbox = float(np.prod(bounds[:, 1] - bounds[:, 0]))
        est = vbox * float(p_hat.mean())
        err = vbox * float(np.sqrt(float(np.sum(p_hat * (1 - p_hat) / (m - 1))) / k**2))
        assert intersection_volume(r1, r2, method="mc", n=n, seed=2) == (est, err)
