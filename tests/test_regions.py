import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levymix import errors
from levymix import rng as _rng
from levymix.gallery import rotation, shear, squeeze
from levymix.regions import (
    AtomTable,
    Piece,
    Region,
    _axis_overlap,
    _planar_overlap,
    _stratified_uniform,
    atomize,
    box_region,
    intersection_volume,
    transform,
    unit_box,
    volume,
)


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
    assert np.array_equal(p.intervals(), np.array([[0.0, 2.0], [0.0, 1.0]]))


def test_piece_intervals_rejects_rotated_frame():
    p = Piece(rotation(0.3), np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(errors.NotAxisAligned):
        p.intervals()


def test_rotation90_powers_are_axis_boxes():
    C = box_region(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    for m in range(9):
        Cm = transform(np.linalg.matrix_power(rotation(math.pi / 2), m), C)
        assert Cm.is_axis_aligned()
        assert np.array_equal(Cm.pieces[0].intervals(), [[-1.0, 1.0], [-1.0, 1.0]])


def test_signed_permutation_frame_intervals():
    p = Piece(np.array([[0.0, 2.0], [-3.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert p.is_axis_aligned()
    assert np.array_equal(p.intervals(), [[2.0, 4.0], [-3.0, 0.0]])
    assert p.contains(np.array([[3.0, -1.5], [3.0, 0.5]])).tolist() == [True, False]
    b = box_region(np.array([[3.0, 5.0], [-1.0, 1.0]]))
    assert intersection_volume(Region((p,)), b) == (1.0, 0.0)


def test_rotated_and_sheared_frames_not_axis_aligned():
    for g in (rotation(1.0), shear()):
        p = transform(g, unit_box(2)).pieces[0]
        assert not p.is_axis_aligned()
        with pytest.raises(errors.NotAxisAligned):
            p.intervals()


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
    for bad in ({"box": [[1.0, 0.0], [0.0, 1.0]]}, {"box": 3}, {"pieces": [{}]},
                {"pieces": [{"frame": [[1, 0], [0, 1]], "box": [[0, 1]]}]},
                {"circle": 1.0}, [[0.0, 1.0]]):
        with pytest.raises(errors.ConfigError):
            Region.from_json(bad)


def test_axis_intersection_exact():
    a = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
    b = box_region(np.array([[0.5, 1.5], [0.0, 2.0]]))
    assert intersection_volume(a, b, method="axis") == (0.5, 0.0)
    assert intersection_volume(a, b, method="auto") == (0.5, 0.0)
    # the planar clip agrees with the axis sweep on axis boxes, also on
    # boxes turned by a rotation90 power whose frame is off by 1e-16
    assert _planar_overlap(a, b) == _planar_overlap(b, a) == 0.5
    r90 = np.linalg.matrix_power(rotation(math.pi / 2), 3)
    ra, rb = transform(r90, a), transform(r90, b)
    assert _axis_overlap(ra, rb) == 0.5
    assert _planar_overlap(ra, rb) == pytest.approx(0.5, abs=1e-12)


def test_axis_intersection_rejects_rotated():
    a = unit_box(2)
    b = transform(rotation(0.4), a)
    with pytest.raises(errors.NotAxisAligned):
        intersection_volume(a, b, method="axis")


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


def test_exact_overlap_needs_disjoint_pieces():
    twice = Region(unit_box(2).pieces * 2, disjoint=False)
    with pytest.raises(errors.OverlapUnknown):
        intersection_volume(twice, unit_box(2), method="axis")
    assert intersection_volume(twice, unit_box(2)) == (1.0, 0.0)
    tilted = transform(rotation(0.3), twice)
    assert intersection_volume(tilted, unit_box(2)) == intersection_volume(
        tilted, unit_box(2), method="mc")


@pytest.mark.parametrize("method", ["auto", "axis", "mc"])
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
    bounds = r1.bounding_box()
    cell = float(np.prod(bounds[:, 1] - bounds[:, 0])) / n
    assert abs(est - mc) <= 4.0 * mc_err + cell
    assert abs(est - intersection_volume(r2, r1)[0]) <= 1e-12
    lam = volume(r1)
    moved, _ = intersection_volume(transform(g, r1), transform(g, r2))
    assert abs(moved - est) <= 1e-12 * lam


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
    exact = atomize([a, b], method="exact")
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
            for lo, hi in p.intervals()]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    want = _solve_contains(p, pts)
    assert want.any() and not want.all()
    assert np.array_equal(p.contains(pts), want)


def test_singular_diagonal_frame_still_raises():
    p = Piece(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert not p.is_axis_aligned()
    with pytest.raises(errors.SingularMatrix):
        p.contains(np.array([[0.5, 0.0]]))


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


# A null-atom rule at 1e-9 of the box volume.  An atom seen in the sample
# has measure >= vbox / n, so the rule drops nothing below 1e9 samples; the
# reference applies it to show that atomize needs no such rule.
ATOM_DROP_FRACTION = 1e-9


def _dict_atoms(regions, bounds, exact, n, seed):
    """(signatures, measures, stderrs) from a dict of signature tuples over
    the points atomize classifies: sweep-cell centres weighted by cell
    volume, or the stratified samples of the "atomize" stream."""
    d = bounds.shape[0]
    if exact:
        cuts = []
        for k in range(d):
            ends = {bounds[k, 0], bounds[k, 1]}
            for r in regions:
                for p in r.pieces:
                    ends.update(float(v) for v in p.intervals()[k])
            cuts.append(np.array(sorted(ends)))
        grid = [0.5 * (c[1:] + c[:-1]) for c in cuts]
        pts = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, d)
        wgrid = np.meshgrid(*[np.diff(c) for c in cuts], indexing="ij")
        weights = np.prod(np.stack(wgrid, axis=-1).reshape(-1, d), axis=1)
    else:
        pts, _, _ = _stratified_uniform(bounds, n, _rng.stream(seed, "atomize"))
        weights = np.ones(len(pts), dtype=int)
    table = {}
    member = np.stack([r.contains(pts) for r in regions], axis=1)
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


def _assert_matches_dict_atoms(regions, method, n, seed):
    atoms = atomize(regions, n=n, seed=seed, method=method)
    sigs, measures, stderrs = _dict_atoms(regions, atoms.bounding_box,
                                          atoms.exact, n, seed)
    assert atoms.signatures == tuple(sigs)
    assert all(len(s) == len(regions) for s in atoms.signatures)
    assert atoms.measures.tobytes() == np.array(measures, dtype=float).tobytes()
    assert atoms.stderrs.tobytes() == np.array(stderrs, dtype=float).tobytes()
    return atoms


@st.composite
def _families(draw):
    d = draw(st.integers(1, 3))
    skew = d > 1 and draw(st.booleans())

    def piece():
        lo = np.array(draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)))
        ext = np.array(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
        frame = np.zeros((d, d))
        frame[np.arange(d), draw(st.permutations(range(d)))] = draw(st.lists(
            st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
            min_size=d, max_size=d))
        if skew and draw(st.booleans()):
            frame[0] += draw(st.floats(0.2, 1.0)) * frame[1]
        return Piece(frame, 0.25 * np.column_stack([lo, lo + ext]))

    return [Region(tuple(piece() for _ in range(draw(st.integers(1, 3)))),
                   disjoint=False)
            for _ in range(draw(st.integers(1, 9)))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=_families(), method=st.sampled_from(["auto", "mc"]),
       seed=st.integers(0, 2**31 - 1))
def test_atomize_matches_dict_counting(family, method, seed):
    _assert_matches_dict_atoms(family, method, 3_000, seed)


@pytest.mark.parametrize("n_regions", [1, 8, 9, 16, 17, 64, 70])
@pytest.mark.parametrize("method", ["exact", "mc"])
def test_atomize_code_widths_match_dict_counting(n_regions, method):
    rng = np.random.default_rng(n_regions)
    lo = rng.uniform(0.0, 3.0, size=(n_regions, 2))
    family = [box_region(np.column_stack([a, a + rng.uniform(0.5, 2.0, 2)]))
              for a in lo]
    atoms = _assert_matches_dict_atoms(family, method, 5_000, n_regions)
    assert len(atoms.signatures) >= n_regions
