import numpy as np
import pytest

import levymix as lm
from levymix import errors
from levymix.gallery import (
    assemble_jordan,
    conjugated_rotation,
    dihedral_generators,
    jordan_corpus,
    named_matrix,
    random_det1,
    rotation,
    shear,
    squeeze,
)
from levymix.matrices import (
    BlockKind,
    RealJordanBlock,
    _jordan_chains,
    _words,
    as_matrix,
    in_measure_preserving_group,
    matrix_from_json,
    matrix_to_json,
)
from levymix.rng import stream


# ---------------------------------------------------------------------------
# plumbing


def test_as_matrix_validates_shape_and_finiteness():
    with pytest.raises(errors.DimensionMismatch):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(errors.DimensionMismatch):
        as_matrix(np.zeros(4))
    with pytest.raises(errors.NonFiniteInput):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])


def test_matrix_json_round_trip():
    A = shear()
    obj = matrix_to_json(A)
    assert obj["d"] == 2
    assert np.array_equal(matrix_from_json(obj), A)
    with pytest.raises(errors.DimensionMismatch):
        matrix_from_json({"d": 3, "rows": A.tolist()})


def test_measure_preserving_check():
    assert in_measure_preserving_group(shear())
    assert in_measure_preserving_group(squeeze())
    assert in_measure_preserving_group(-np.eye(3))
    assert not in_measure_preserving_group(2.0 * np.eye(2))


def test_rng_streams_are_deterministic_and_distinct():
    a = stream(7, "x").standard_normal(4)
    b = stream(7, "x").standard_normal(4)
    c = stream(7, "y").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# eigen clustering


def test_eigen_spectrum_distinct_real():
    clusters = lm.eigen_spectrum(np.diag([3.0, 2.0, 1.0]))
    assert [c.value for c in clusters] == [3.0, 2.0, 1.0]
    assert all(c.algebraic_mult == 1 and c.geometric_mult == 1
               for c in clusters)


def test_eigen_spectrum_conjugate_pair():
    clusters = lm.eigen_spectrum(rotation(1.0))
    assert len(clusters) == 2
    assert np.isclose(abs(clusters[0].value), 1.0)
    assert {np.round(c.value.imag, 6) for c in clusters} == {
        np.round(np.sin(1.0), 6), -np.round(np.sin(1.0), 6)}


def test_eigen_spectrum_defective_multiplicity():
    clusters = lm.eigen_spectrum(shear())
    assert len(clusters) == 1
    assert clusters[0].algebraic_mult == 2
    assert clusters[0].geometric_mult == 1


def test_eigen_spectrum_rejects_bad_tol():
    with pytest.raises(ValueError):
        lm.eigen_spectrum(np.eye(2), cluster_tol=0.0)


# ---------------------------------------------------------------------------
# Jordan chains over the complex numbers


def test_complex_jordan_shear():
    # the complex path of the chain builder: one chain of length 2 at 1
    A = shear().astype(complex)
    (chain,) = _jordan_chains(A, 1.0 + 0.0j, 2)
    assert len(chain) == 2
    M = A - np.eye(2)
    u1, u2 = chain
    assert np.linalg.norm(M @ u1) <= 1e-10
    assert np.linalg.norm(M @ u2 - u1) <= 1e-10
    assert np.linalg.norm(u1) > 1e-3


# ---------------------------------------------------------------------------
# real Jordan form


def test_real_jordan_shear():
    dec = lm.real_jordan_form(shear())
    (b,) = dec.blocks
    assert b.kind is BlockKind.REAL and b.size == 2 and b.eigen == 1.0
    assert dec.residual <= 1e-10


def test_real_jordan_squeeze_canonical_order():
    dec = lm.real_jordan_form(squeeze())
    assert [b.eigen.real for b in dec.blocks] == [2.0, 0.5]
    assert dec.block_offsets() == [0, 1]


def test_real_jordan_scrambled_pair_block():
    # real form of J_2(i) + J_2(-i), scrambled by a det-1 integer basis
    C = assemble_jordan([RealJordanBlock(BlockKind.COMPLEX_PAIR, 2, 1j)])
    P = np.array([[1.0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
    assert round(np.linalg.det(P)) == 1
    dec = lm.real_jordan_form(P @ C @ np.linalg.inv(P))
    (b,) = dec.blocks
    assert b.kind is BlockKind.COMPLEX_PAIR and b.size == 2
    assert abs(b.eigen - 1j) <= 1e-6
    assert dec.residual <= 1e-6


def test_real_jordan_generic_matrix_residual():
    # a product, not a similarity transform: no block structure built in
    A = random_det1(4, stream(3, "cjf")) @ np.diag([2.0, 1.0, -1.0, 0.25])
    dec = lm.real_jordan_form(A)
    assert sum(b.rows for b in dec.blocks) == 4
    assert dec.residual <= 1e-6


def test_real_jordan_rotation_pair_block():
    dec = lm.real_jordan_form(rotation(1.0))
    (b,) = dec.blocks
    assert b.kind is BlockKind.COMPLEX_PAIR
    assert b.size == 1 and b.rows == 2
    assert b.eigen.imag > 0
    assert np.isclose(abs(b.eigen), 1.0)


def test_real_jordan_reconstruction_small_corpus():
    for A, built in jordan_corpus(30, seed=11):
        dec = lm.real_jordan_form(A)
        want = sorted((b.kind.value, b.size, round(b.eigen.real, 6),
                       round(abs(b.eigen.imag), 6)) for b in built)
        got = sorted((b.kind.value, b.size, round(b.eigen.real, 6),
                      round(abs(b.eigen.imag), 6)) for b in dec.blocks)
        assert got == want
        assert dec.residual <= 1e-6


def test_real_jordan_block_rows_sum_and_json():
    A, _ = jordan_corpus(1, seed=5)[0]
    dec = lm.real_jordan_form(A)
    assert sum(b.rows for b in dec.blocks) == A.shape[0]
    obj = dec.to_json()
    assert set(obj) == {"conjugator", "blocks", "residual"}
    K = dec.jordan_matrix()
    T = dec.conjugator
    recon = T @ K @ np.linalg.inv(T)
    assert np.linalg.norm(A - recon) <= 1e-6 * np.linalg.norm(A)


def test_real_jordan_determinant_consistency():
    for A, _ in jordan_corpus(20, seed=2):
        dec = lm.real_jordan_form(A)
        prod = 1.0
        for b in dec.blocks:
            prod *= abs(b.eigen) ** b.rows
        assert np.isclose(abs(np.linalg.det(A)), prod, rtol=1e-8)


def test_block_count_matches_geometric_multiplicity():
    # two size-2 blocks at the same eigenvalue: geometric multiplicity 2
    blocks = [RealJordanBlock(BlockKind.REAL, 2, 2.0 + 0j),
              RealJordanBlock(BlockKind.REAL, 2, 2.0 + 0j)]
    K = assemble_jordan(blocks)
    T = random_det1(4, stream(9, "geo"))
    A = T @ K @ np.linalg.inv(T)
    dec = lm.real_jordan_form(A)
    assert sorted(b.size for b in dec.blocks) == [2, 2]
    (cluster,) = lm.eigen_spectrum(A, cluster_tol=1e-4)
    assert cluster.geometric_mult == 2


# ---------------------------------------------------------------------------
# block powers


def test_block_power_matches_iteration():
    rng = stream(1, "pow")
    for eta in (1.0, -1.0, 0.5, -0.5, 2.0):
        for size in range(1, 7):
            b = RealJordanBlock(BlockKind.REAL, size, complex(eta))
            J = b.materialize()
            x = rng.standard_normal(size)
            for h in (0, 1, 5, 33, 64):
                want = np.linalg.matrix_power(J, h) @ x
                got = lm.jordan_block_power_apply(b, h, x)
                assert np.linalg.norm(got - want) <= 1e-9 * max(
                    np.linalg.norm(want), 1e-300)


def test_block_power_rejects_pairs_and_negative_h():
    pair = RealJordanBlock(BlockKind.COMPLEX_PAIR, 1, 1j)
    with pytest.raises(errors.DimensionMismatch):
        lm.jordan_block_power_apply(pair, 2, np.zeros(2))
    b = RealJordanBlock(BlockKind.REAL, 2, 1.0 + 0j)
    with pytest.raises(ValueError):
        lm.jordan_block_power_apply(b, -1, np.zeros(2))


# ---------------------------------------------------------------------------
# compactness classification


def test_classify_cases():
    assert lm.classify_noncompact_blocks(
        lm.real_jordan_form(shear())).case_tags == (("A", 0),)
    assert lm.classify_noncompact_blocks(
        lm.real_jordan_form(squeeze())).case_tags == (("C", 1),)
    # case B: unit-modulus pair block of size 2
    kappa = np.exp(1j * 0.7)
    A = assemble_jordan([RealJordanBlock(BlockKind.COMPLEX_PAIR, 2, kappa)])
    tags = lm.classify_noncompact_blocks(lm.real_jordan_form(A)).case_tags
    assert tags == (("B", 0),)
    # case D: contracting pair block
    A = assemble_jordan([
        RealJordanBlock(BlockKind.COMPLEX_PAIR, 1, 0.5 * np.exp(1j * 0.7)),
        RealJordanBlock(BlockKind.COMPLEX_PAIR, 1, 2.0 * np.exp(1j * 0.7))])
    tags = lm.classify_noncompact_blocks(lm.real_jordan_form(A)).case_tags
    assert ("D", 1) in tags


def test_cyclic_closure_dichotomy():
    assert not lm.cyclic_closure_compact(shear())
    assert not lm.cyclic_closure_compact(squeeze())
    assert lm.cyclic_closure_compact(rotation(1.0))
    assert lm.cyclic_closure_compact(rotation(np.pi / 2))
    assert lm.cyclic_closure_compact(np.eye(3))
    with pytest.raises(errors.SingularMatrix):
        lm.cyclic_closure_compact(np.zeros((2, 2)))


def test_witness_search_examples():
    w = lm.find_noncompact_witness([squeeze()])
    assert np.allclose(w, squeeze())
    assert lm.find_noncompact_witness([rotation(1.0)], max_word_len=4) is None
    w = lm.find_noncompact_witness([rotation(np.pi / 2), shear()])
    assert w is not None and not lm.cyclic_closure_compact(w)
    with pytest.raises(errors.InvalidGenerator):
        lm.find_noncompact_witness([2.0 * np.eye(2)])


# ---------------------------------------------------------------------------
# Weyl's trick


def _defect(h, g):
    Q = np.linalg.inv(h) @ g @ h
    return np.linalg.norm(Q.T @ Q - np.eye(Q.shape[0]), 2)


def test_haar_average_trivial_groups():
    S = lm.haar_average_form([np.eye(2), -np.eye(2)], mode="finite")
    assert np.allclose(S, np.eye(2))
    S = lm.haar_average_form([rotation(np.pi / 2)], mode="finite")
    assert np.allclose(S, np.eye(2), atol=1e-12)


def test_haar_average_group_too_large():
    with pytest.raises(errors.GroupTooLarge):
        lm.haar_average_form([shear()], mode="finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_haar_average_finite_rejects_unbounded_group():
    # the squeeze's powers grow without bound: the walk must stop there,
    # not merge distinct huge words into a small "finite group"
    with pytest.raises((errors.NotCompact, errors.GroupTooLarge)):
        lm.haar_average_form([squeeze()], mode="finite")


def test_word_walk_enumerates_dihedral_groups():
    for n in range(3, 13):
        words = list(_words(dihedral_generators(n)))
        assert len(words) + 1 == 2 * n  # plus the identity
    assert len(list(_words([shear()], max_len=3))) == 6


def test_haar_average_cesaro_not_compact():
    with pytest.raises(errors.NotCompact):
        lm.haar_average_form([squeeze()], mode="cesaro")
    with pytest.raises(errors.NotCompact):
        lm.haar_average_form([0.5 * np.eye(2)], mode="cesaro")


def test_spd_sqrt_inverse():
    assert np.allclose(lm.spd_sqrt_inverse(np.eye(3)), np.eye(3))
    assert np.allclose(lm.spd_sqrt_inverse(np.diag([4.0, 1.0])),
                       np.diag([0.5, 1.0]))
    M = stream(4, "spd").standard_normal((4, 4))
    S = M.T @ M + 0.1 * np.eye(4)
    h = lm.spd_sqrt_inverse(S)
    assert np.linalg.norm(h @ S @ h - np.eye(4)) <= 1e-10
    with pytest.raises(errors.NotSPD):
        lm.spd_sqrt_inverse(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(errors.NotSPD):
        lm.spd_sqrt_inverse(np.diag([1.0, -1.0]))


def test_weyl_conjugator_finite_and_cesaro():
    # orthogonal generators: h = I
    h = lm.weyl_conjugator([rotation(np.pi / 2)], mode="finite")
    assert np.allclose(h, np.eye(2), atol=1e-10)
    # conjugated dihedral group
    rng = stream(6, "weyl")
    P = random_det1(2, rng, cond=10)
    gens = [P @ g @ np.linalg.inv(P) for g in dihedral_generators(5)]
    h = lm.weyl_conjugator(gens, mode="finite")
    assert max(_defect(h, g) for g in gens) <= 1e-8
    # single conjugated rotation via the running-average mode
    g = conjugated_rotation(1.0, stream(6, "weyl2"), cond=8)
    h = lm.weyl_conjugator([g], mode="cesaro")
    assert _defect(h, g) <= 1e-8
    # diag(2,1) conjugation example: h proportional to diag(2,1) up to
    # an orthogonal factor, checked through the post-condition
    h0 = np.diag([2.0, 1.0])
    A = h0 @ rotation(1.0) @ np.linalg.inv(h0)
    h = lm.weyl_conjugator([A], mode="cesaro")
    assert _defect(h, A) <= 1e-8


def test_cesaro_average_matches_finite_group_average():
    # for a finite cyclic group the Cesaro limit is the group average
    for n in range(3, 13):
        g = conjugated_rotation(2 * np.pi / n, stream(n, "cesaro"), cond=8)
        finite = lm.haar_average_form([g], mode="finite")
        cesaro = lm.haar_average_form([g], mode="cesaro")
        assert np.linalg.norm(cesaro - finite, 2) <= 1e-9 * np.linalg.norm(finite, 2)


def test_weyl_conjugation_preserves_determinant():
    rng = stream(8, "det")
    P = random_det1(2, rng, cond=5)
    gens = [P @ g @ np.linalg.inv(P) for g in dihedral_generators(4)]
    h = lm.weyl_conjugator(gens, mode="finite")
    hinv = np.linalg.inv(h)
    for g in gens:
        assert np.isclose(np.linalg.det(hinv @ g @ h), np.linalg.det(g))
