import math

import numpy as np
import pytest

from levymix import errors
from levymix.gallery import rotation, shear, squeeze
from levymix.regions import (
    AtomTable,
    Piece,
    Region,
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        Region(())
    with pytest.raises(errors.DimensionMismatch):
        Region((Piece(np.eye(2), np.zeros((2, 2)) + [0, 1]),
                Piece(np.eye(3), np.zeros((3, 2)) + [0, 1])))


def test_box_region_volume():
    assert volume(unit_box(3)) == (1.0, 0.0)
    r = box_region(np.array([[0.0, 2.0], [-1.0, 1.0]]))
    assert volume(r) == (4.0, 0.0)


def test_volume_requires_disjoint_for_exact():
    r = Region((Piece(np.eye(1), np.array([[0.0, 1.0]])),) * 2,
               disjoint=False)
    with pytest.raises(errors.OverlapUnknown):
        volume(r, method="exact")


def test_mc_volume_close_to_exact():
    r = box_region(np.array([[0.0, 1.0], [0.0, 0.5]]))
    est, err = volume(r, method="mc", n=50_000, seed=1)
    assert est == pytest.approx(0.5, abs=max(5 * err, 1e-3))


def test_transform_preserves_volume_for_det_one():
    C = unit_box(2)
    for g in (squeeze(), rotation(1.0)):
        v, _ = volume(transform(g, C))
        assert v == pytest.approx(1.0)
    with pytest.raises(errors.SingularMatrix):
        transform(np.zeros((2, 2)), C)


def test_region_json_round_trip():
    r = transform(rotation(0.5), unit_box(2))
    r2 = Region.from_json(r.to_json())
    pts = np.random.default_rng(0).uniform(-1, 2, size=(500, 2))
    assert np.array_equal(r.contains(pts), r2.contains(pts))


def test_region_from_json_box_form_and_errors():
    r = Region.from_json({"box": [[0.0, 2.0], [1.0, 2.0]]})
    assert r.is_axis_aligned() and volume(r) == (2.0, 0.0)
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
    class Fake:
        pass

    with pytest.raises(Exception):
        atomize([], n=10)
