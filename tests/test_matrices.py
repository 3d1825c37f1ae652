import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levymix as lm
from levymix import errors, matrices
from levymix.gallery import (
    assemble_jordan,
    conjugated_rotation,
    dihedral_generators,
    jordan_corpus,
    parse_matrix,
    random_det1,
    random_jordan_matrix,
    rotation,
    shear,
    squeeze,
)
from levymix.matrices import (
    ORTHOGONALITY_TOL,
    BlockKind,
    RealJordanBlock,
    _cluster_values,
    _delta_ladder,
    _jordan_chains,
    _kron_t,
    _sym_basis,
    _walk,
    _word_class,
    as_matrix,
    in_measure_preserving_group,
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
    assert np.array_equal(parse_matrix(obj), A)
    for d in (3, 2.5, "2", float("nan")):
        with pytest.raises(errors.ConfigError, match="declared order"):
            parse_matrix({"d": d, "rows": A.tolist()})


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


def test_real_jordan_distinct_real():
    dec = lm.real_jordan_form(np.diag([3.0, 2.0, 1.0]))
    assert [b.eigen for b in dec.blocks] == [3.0, 2.0, 1.0]
    assert all(b.kind is BlockKind.REAL and b.size == 1 for b in dec.blocks)


def test_eigen_spectrum_conjugate_pair():
    # the spectrum of rotation(1.0) read off its real Jordan form: the
    # conjugate pair e^{+i}, e^{-i}, each of multiplicity one
    dec = lm.real_jordan_form(rotation(1.0))
    spectrum = [v for b in dec.blocks for v in (b.eigen, np.conj(b.eigen))]
    assert len(spectrum) == 2
    assert np.allclose(np.abs(spectrum), 1.0)
    assert {np.round(v.imag, 6) for v in spectrum} == {
        np.round(np.sin(1.0), 6), -np.round(np.sin(1.0), 6)}
    assert np.allclose(sorted(spectrum, key=np.imag),
                       sorted(np.linalg.eigvals(rotation(1.0)), key=np.imag))


def test_eigen_spectrum_defective_multiplicity():
    # the shear's one eigenvalue has algebraic multiplicity 2 (the rows of
    # its blocks) and geometric multiplicity 1 (the number of its blocks,
    # and the nullity of shear - I)
    A = shear()
    dec = lm.real_jordan_form(A)
    assert {b.eigen for b in dec.blocks} == {1.0}
    assert sum(b.size for b in dec.blocks) == 2
    assert len(dec.blocks) == 1
    assert 2 - np.linalg.matrix_rank(A - np.eye(2)) == 1


def test_real_jordan_keeps_a_defective_block_whose_eigenvalues_scatter():
    # the computed eigenvalues of a conjugated size-3 block at 1 scatter by
    # about 1e-5 (eps**(1/3)): one real value and a complex pair, three
    # clusters at the first radius of the ladder, and yet one block
    K = RealJordanBlock(BlockKind.REAL, 3, 1.0 + 0j).materialize()
    T = random_det1(3, stream(1, "x", 3), cond=50)
    A = T @ K @ np.linalg.inv(T)
    w = np.linalg.eigvals(A)
    assert np.min(np.abs(w[:, None] - w[None, :]) + np.eye(3)) > 1e-6
    dec = lm.real_jordan_form(A)
    (b,) = dec.blocks
    assert b.kind is BlockKind.REAL and b.size == 3
    assert abs(b.eigen - 1.0) <= 1e-10
    assert dec.residual <= 1e-10


def test_real_jordan_squeeze_canonical_order():
    dec = lm.real_jordan_form(squeeze())
    assert [b.eigen.real for b in dec.blocks] == [2.0, 0.5]
    assert lm.build_family(squeeze()).offset == 1


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
    assert np.isclose(b.eigen, np.exp(1j))


def test_real_jordan_reconstruction_small_corpus():
    for A, built in jordan_corpus(30, seed=11):
        dec = lm.real_jordan_form(A)
        want = sorted((b.kind.value, b.size, round(b.eigen.real, 6),
                       round(abs(b.eigen.imag), 6)) for b in built)
        got = sorted((b.kind.value, b.size, round(b.eigen.real, 6),
                      round(abs(b.eigen.imag), 6)) for b in dec.blocks)
        assert got == want
        assert dec.residual <= 1e-6


def _same_blocks(got, built):
    """Equal kinds and sizes, eigenvalues within 1e-5, up to order."""
    left = list(built)
    for b in got:
        match = next((c for c in left if (c.kind, c.size) == (b.kind, b.size)
                      and abs(c.eigen - b.eigen) <= 1e-5), None)
        if match is None:
            return False
        left.remove(match)
    return not left


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cond=st.floats(10.0, 200.0), seed=st.integers(0, 2**32 - 1))
def test_real_jordan_recovers_built_blocks_or_refuses(cond, seed):
    # a conjugated form comes back with its own blocks or is refused; a
    # different structure that passes the residual check is never returned
    for d in range(2, 7):
        for unit_moduli in (False, True):
            rng = np.random.default_rng([seed, d, unit_moduli])
            try:
                A, built = random_jordan_matrix(d, rng, cond=cond,
                                                unit_moduli=unit_moduli)
            except errors.SamplingFailure:
                continue
            try:
                dec = lm.real_jordan_form(A)
            except errors.IllConditioned:
                continue
            assert _same_blocks(dec.blocks, built), (dec.blocks, built)


def test_ill_conditioned_names_every_rung():
    # 1 and 1 + 5e-6 are too close for the finest radius and too far
    # apart to merge into one eigenvalue at any coarser one
    with pytest.raises(errors.IllConditioned) as info:
        lm.real_jordan_form(np.diag([1.0, 1.0 + 5e-6, 2.0]))
    rungs = info.value.rungs
    deltas = [delta for delta, _ in rungs]
    assert np.allclose(deltas, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6], rtol=1e-9)
    assert deltas == sorted(deltas, reverse=True)
    assert all(isinstance(reason, str) and reason for _, reason in rungs)
    assert "clusters" in rungs[0][1]  # 0.1 is within 10 radii of 1 to 2
    assert rungs[-1][1].startswith("eigenvalue clusters closer")
    assert "residual 1.250e-06" in rungs[-2][1]
    assert str(info.value) == rungs[-1][1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [1e155, 1e200])
def test_ill_conditioned_when_a_power_overflows(entry):
    # ||A - I||^2 leaves the float range: every rung fails on the power,
    # with no OverflowError and no overflow warning
    with pytest.raises(errors.IllConditioned) as info:
        lm.real_jordan_form([[1.0, entry], [0.0, 1.0]])
    assert [reason for _, reason in info.value.rungs] == [
        "power 2 of A - lambda I overflows"] * 6


def test_clusters_come_in_exact_conjugate_pairs():
    # the premise of building a pair block from the cluster above the axis
    # alone: at every radius, each non-real cluster has its exact mirror
    rng = stream(18, "mirror")
    mats = [A for A, _ in jordan_corpus(40, seed=18)]
    mats += [rng.standard_normal((d, d)) for d in range(2, 7) for _ in range(8)]
    for A in mats:
        w = np.linalg.eigvals(A)
        for delta in _delta_ladder():
            clusters = _cluster_values(w, delta)
            for val, alg in clusters:
                if val.imag != 0.0:
                    assert (val.conjugate(), alg) in clusters
        try:
            dec = lm.real_jordan_form(A)
        except errors.IllConditioned:
            continue
        assert all(b.eigen.imag > 0 for b in dec.blocks
                   if b.kind is BlockKind.COMPLEX_PAIR)


def test_ill_conditioned_records_singular_conjugator(monkeypatch):
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(errors.IllConditioned) as info:
        lm.real_jordan_form(squeeze())
    assert len(info.value.rungs) == 6
    assert all(reason == "conjugator is singular"
               for _, reason in info.value.rungs)


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
    # two blocks at the same eigenvalue, real or a conjugate pair:
    # geometric multiplicity 2
    for blocks in ([RealJordanBlock(BlockKind.REAL, 2, 2.0 + 0j),
                    RealJordanBlock(BlockKind.REAL, 2, 2.0 + 0j)],
                   [RealJordanBlock(BlockKind.COMPLEX_PAIR, 2, 0.6 + 0.8j),
                    RealJordanBlock(BlockKind.COMPLEX_PAIR, 1, 0.6 + 0.8j)]):
        K = assemble_jordan(blocks)
        T = random_det1(len(K), stream(9, "geo"))
        A = T @ K @ np.linalg.inv(T)
        dec = lm.real_jordan_form(A)
        assert [(b.kind, b.size) for b in dec.blocks] == [
            (b.kind, b.size) for b in blocks]
        assert all(abs(b.eigen - blocks[0].eigen) <= 1e-6 for b in dec.blocks)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_block_power_past_the_float_range_raises_a_package_error():
    # eta^(h - j), x C(h, j) eta^(h - j) and C(h, j) itself each pass it
    for eta, h, x in ((2.0, 1100, [1, 1]), (2.0, 1023, [1, 1]),
                      (0.5, 10**320, [1, 1]), (2.0, 5, [1e308, 1e308])):
        with pytest.raises(errors.FloatOverflow):
            lm.jordan_block_power_apply(RealJordanBlock(BlockKind.REAL, 2, eta), h, x)
    assert issubclass(errors.FloatOverflow, OverflowError)
    top = lm.jordan_block_power_apply(RealJordanBlock(BlockKind.REAL, 2, 2.0), 1022, [1, 0])
    assert top.tolist() == [2.0**1022, 0.0]


# ---------------------------------------------------------------------------
# compactness classification


def test_classify_cases():
    assert lm.classify_noncompact_blocks(
        lm.real_jordan_form(shear())) == (("A", 0),)
    assert lm.classify_noncompact_blocks(
        lm.real_jordan_form(squeeze())) == (("C", 1),)
    # case B: unit-modulus pair block of size 2
    kappa = np.exp(1j * 0.7)
    A = assemble_jordan([RealJordanBlock(BlockKind.COMPLEX_PAIR, 2, kappa)])
    tags = lm.classify_noncompact_blocks(lm.real_jordan_form(A))
    assert tags == (("B", 0),)
    # case D: contracting pair block
    A = assemble_jordan([
        RealJordanBlock(BlockKind.COMPLEX_PAIR, 1, 0.5 * np.exp(1j * 0.7)),
        RealJordanBlock(BlockKind.COMPLEX_PAIR, 1, 2.0 * np.exp(1j * 0.7))])
    tags = lm.classify_noncompact_blocks(lm.real_jordan_form(A))
    assert ("D", 1) in tags


def test_cyclic_closure_dichotomy():
    assert not lm.cyclic_closure_compact(shear())
    assert not lm.cyclic_closure_compact(squeeze())
    assert lm.cyclic_closure_compact(rotation(1.0))
    assert lm.cyclic_closure_compact(rotation(np.pi / 2))
    assert lm.cyclic_closure_compact(np.eye(3))
    with pytest.raises(errors.SingularMatrix):
        lm.cyclic_closure_compact(np.zeros((2, 2)))
    # conjugated squeezes stay non-compact down to a - 1 = 1e-6
    for n, excess in enumerate([1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4]):
        P = _conditioned(2, 50.0, stream(n, "near unit"))
        a = 1.0 + excess
        assert not lm.cyclic_closure_compact(P @ np.diag([a, 1.0 / a])
                                             @ np.linalg.inv(P))


def test_witness_search_examples():
    w = lm.find_noncompact_witness([squeeze()])
    assert np.allclose(w, squeeze())
    assert lm.find_noncompact_witness([rotation(1.0)], max_word_len=4) is None
    for gens in ([rotation(np.pi / 2), shear()], _elliptic_pair()):
        w = lm.find_noncompact_witness(gens)
        assert w is not None and not lm.cyclic_closure_compact(w)
    with pytest.raises(errors.InvalidGenerator):
        lm.find_noncompact_witness([2.0 * np.eye(2)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [1e200, 1e300])
def test_witness_search_returns_a_shear_with_a_huge_entry(entry):
    # at 1e300 the word's _dedup_key overflows; the shear is still a witness
    g = np.array([[1.0, entry], [0.0, 1.0]])
    assert np.array_equal(lm.find_noncompact_witness([g]), g)
    assert np.array_equal(lm.find_noncompact_witness([np.eye(2), g]), g)
    with pytest.raises(errors.NotCompact):
        lm.haar_average_form([g])


@pytest.mark.parametrize("cond", [10.0, 100.0])
@pytest.mark.parametrize("order", [3, 4, 6, 8])
def test_witness_none_certifies_compactness(order, cond):
    # None comes from the group decision; no word it skips is non-compact
    P = _conditioned(2, cond, stream(order, "dihedral"))
    gens = _conjugated(P, dihedral_generators(order))
    assert lm.find_noncompact_witness(gens) is None
    words = [w for _, w in _walk(gens, 6)]
    assert len(words) == 2 * order - 1  # the group, less the identity
    assert all(lm.cyclic_closure_compact(w) for w in words)


def test_witness_search_without_a_witness_raises():
    # the pair generates a non-compact group, but no single letter is a witness
    with pytest.raises(errors.NotReached, match="no witness up to word length 1"):
        lm.find_noncompact_witness(_elliptic_pair(), max_word_len=1)
    # a rotation by 1e-7 is undecided, and so is each short word of it
    with pytest.raises(errors.IllConditioned):
        lm.find_noncompact_witness([conjugated_rotation(1e-7, stream(7, "tiny"))])


def _rotation_pairs(n, seed):
    """Pairs of rotations of orders 3, 4 and 6, each conjugated apart by a
    matrix of conditioning between 5 and 100."""
    rng = stream(seed, "rotation pairs")
    return [[conjugated_rotation(2 * np.pi / rng.choice([3, 4, 6]), rng,
                                 cond=rng.uniform(5.0, 100.0)) for _ in range(2)]
            for _ in range(n)]


def _decide_every_word(gens, max_len=6):
    """The first word of _walk with non-compact cyclic closure, or None:
    the search without classes, every word decided."""
    for _, w in _walk(gens, max_len):
        try:
            if not lm.cyclic_closure_compact(w):
                return w
        except errors.IllConditioned:
            pass
    return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_witness_search_returns_the_word_that_deciding_every_word_finds():
    huge = np.array([[1.0, 1e300], [0.0, 1.0]])
    groups = [*_rotation_pairs(12, seed=0), _elliptic_pair(), [huge],
              [np.eye(2), huge]]
    for gens in groups:
        w = lm.find_noncompact_witness(gens)
        assert w is not None and np.array_equal(w, _decide_every_word(gens))


def test_witness_search_decides_fewer_words_than_it_walks(monkeypatch):
    counts = {"walked": 0, "decided": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(matrices, "_word_class",
                        counted("walked", matrices._word_class))
    monkeypatch.setattr(matrices, "cyclic_closure_compact",
                        counted("decided", matrices.cyclic_closure_compact))
    for gens in _rotation_pairs(3, seed=1):
        counts.update(walked=0, decided=0)
        lm.find_noncompact_witness(gens)
        assert 0 < counts["decided"] < counts["walked"]


def test_witness_search_walks_the_words_once(monkeypatch):
    # the averaging step's words of length <= 2 are the search's first words;
    # each word's own cyclic_closure_compact walks a single generator
    pairs = _rotation_pairs(3, seed=1)
    want = [_decide_every_word(gens) for gens in pairs]
    walks = []
    walk = matrices._walk
    monkeypatch.setattr(matrices, "_walk",
                        lambda gens, *rest: walks.append(len(gens)) or walk(gens, *rest))
    for gens, w in zip(pairs, want):
        walks.clear()
        assert np.array_equal(lm.find_noncompact_witness(gens), w)
        assert walks.count(2) == 1
    walks.clear()
    with pytest.raises(errors.NotReached):
        lm.find_noncompact_witness(_elliptic_pair(), max_word_len=1)
    assert walks.count(2) == 1


def test_word_class_joins_rotations_inverses_and_powers():
    # letters: 0 = g, 1 = g^-1, 2 = h, 3 = h^-1
    key = _word_class((0, 2, 2))
    assert _word_class((2, 0, 2)) == _word_class((2, 2, 0)) == key  # rotations
    assert _word_class((3, 3, 1)) == key  # the inverse
    assert _word_class((0, 2, 2, 0, 2, 2)) == key  # a power
    assert _word_class((1, 0, 0, 2, 2)) == key  # not freely reduced
    assert _word_class((3, 0, 2, 2, 2)) == key  # not cyclically reduced
    assert _word_class((0, 0)) == _word_class((1,)) == _word_class((0,))
    for cancels in ((0, 1), (2, 0, 1, 3), (1, 3, 2, 0)):
        assert _word_class(cancels) == ()
    assert _word_class(()) == ()
    apart = [(0,), (2,), (0, 2), (0, 3), (0, 0, 2), (0, 2, 2), (0, 2, 1, 3)]
    assert len({_word_class(w) for w in apart}) == len(apart)


def test_sym_basis_is_shared_read_only_and_orthonormal():
    for d in range(1, 5):
        U = _sym_basis(d)
        assert _sym_basis(d) is U and not U.flags.writeable
        with pytest.raises(ValueError):
            U[0, 0] = 2.0
        assert U.shape == (d * d, d * (d + 1) // 2)
        assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-15)
        g = stream(d, "kron").standard_normal((d, d))
        assert np.array_equal(_kron_t(g), np.kron(g.T, g.T))


# ---------------------------------------------------------------------------
# Weyl's trick


def _defect(h, g):
    Q = np.linalg.inv(h) @ g @ h
    return np.linalg.norm(Q.T @ Q - np.eye(Q.shape[0]), 2)


def _conjugated(P, gens):
    Pinv = np.linalg.inv(P)
    return [P @ g @ Pinv for g in gens]


def _conditioned(d, cond, rng):
    """Random matrix with condition number exactly cond and |det| = 1."""
    Q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    Q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q1 @ np.diag(cond ** np.linspace(0.5, -0.5, d)) @ Q2


def _rotation3(axis, theta):
    """Rotation of R^3 by theta about a unit axis (Rodrigues)."""
    K = np.cross(np.eye(3), axis)
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * K @ K


def _dense_so3_pair():
    """Irrational rotations about two axes, conjugated: an infinite compact group."""
    P = _conditioned(3, 20.0, stream(3, "so3"))
    return _conjugated(P, [_rotation3(np.array([0.0, 0.0, 1.0]), 1.0),
                           _rotation3(np.array([1.0, 0.0, 0.0]), np.sqrt(2.0))])


def _elliptic_pair():
    """rotation90 and a conjugated rotation by pi/3: a hyperbolic product."""
    return [rotation(np.pi / 2),
            conjugated_rotation(np.pi / 3, stream(2, "elliptic"), cond=5.0)]


def test_haar_average_trivial_groups():
    S = lm.haar_average_form([np.eye(2), -np.eye(2)])
    assert np.allclose(S, np.eye(2))
    S = lm.haar_average_form([rotation(np.pi / 2)])
    assert np.allclose(S, np.eye(2), atol=1e-12)


def test_haar_average_matches_enumeration():
    # the mean of g^T g over every element of a finite group, enumerated
    cycle = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    groups = [[cycle]]
    for n in range(3, 13):
        groups.append(_conjugated(_conditioned(2, 20.0, stream(n, "dihedral")),
                                  dihedral_generators(n)))
        groups.append([conjugated_rotation(2 * np.pi / n, stream(n, "cesaro"),
                                           cond=8)])
    for gens in groups:
        elements = [np.eye(len(gens[0])), *(w for _, w in _walk(gens))]
        want = sum(g.T @ g for g in elements) / len(elements)
        got = lm.haar_average_form(gens)
        assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("cond", [20.0, 100.0])
def test_haar_average_of_an_irrational_rotation_in_closed_form(cond):
    # g^T g = P^-T R^T (P^T P) R P^-1 for g = P R P^-1, and the mean of
    # R^T (P^T P) R over the circle is ||P||_F^2 / 2 times I; the roundoff
    # grows like cond^2, the conditioning of X -> P^T X P
    P = _conditioned(2, cond, stream(int(cond), "closed"))
    want = 0.5 * np.linalg.norm(P) ** 2 * np.linalg.inv(P @ P.T)
    got = lm.haar_average_form(_conjugated(P, [rotation(1.0)]))
    assert np.linalg.norm(got - want, 2) <= 1e-14 * cond**2 * np.linalg.norm(want, 2)


def _orthogonal(d, rng):
    """Random orthogonal matrix whose eigen-angles, and their pairwise sums
    and differences, are at least 0.05 from 0 mod 2 pi; the exact zeros of
    a conjugate pair are the fixed forms every rotation has."""
    while True:
        phis = rng.uniform(0.0, np.pi, d // 2)
        lam = np.exp(1j * np.concatenate([phis, -phis, [np.pi] * (d % 2)]))
        pairs = np.abs(np.angle(np.outer(lam, lam)))
        if (np.abs(np.angle(lam)).min() >= 0.05
                and np.all((pairs < 1e-12) | (pairs >= 0.05))):
            break
    B = -np.eye(d)  # the last entry stays -1 in odd d
    for m, phi in enumerate(phis):
        B[2 * m:2 * m + 2, 2 * m:2 * m + 2] = rotation(phi)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q @ B @ Q.T


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 4), k=st.integers(1, 3), cond=st.floats(1.0, 1000.0),
       factor=st.floats(0.5, 2.0).filter(lambda c: abs(c - 1.0) >= 0.1),
       seed=st.integers(0, 2**32 - 1))
def test_haar_average_of_conjugated_orthogonal_groups(d, k, cond, factor, seed):
    rng = np.random.default_rng(seed)
    gens = _conjugated(_conditioned(d, cond, rng),
                       [_orthogonal(d, rng) for _ in range(k)])
    assert np.linalg.eigvalsh(lm.haar_average_form(gens))[0] > 0
    h = lm.weyl_conjugator(gens)
    assert max(_defect(h, g) for g in gens) <= ORTHOGONALITY_TOL
    i = seed % k
    with pytest.raises(errors.NotCompact):
        lm.haar_average_form(gens[:i] + [factor * gens[i]] + gens[i + 1:])


def test_weyl_conjugator_on_a_dense_subgroup_of_so3():
    gens = _dense_so3_pair()
    h = lm.weyl_conjugator(gens)
    assert max(_defect(h, g) for g in gens) <= 1e-8


@pytest.mark.parametrize("gens", [[shear()], _elliptic_pair()],
                         ids=["shear", "elliptic pair"])
def test_haar_average_not_compact(gens):
    with pytest.raises(errors.NotCompact):
        lm.haar_average_form(gens)


def test_haar_average_group_too_large():
    # a cyclic group of order 10007, a prime, is decided like any other
    # compact group, with the closed form of the irrational rotation test:
    # the mean of R^T (P^T P) R over n >= 3 equally spaced angles is
    # ||P||_F^2 / 2 times I
    P = _conditioned(2, 8.0, stream(10007, "large"))
    want = 0.5 * np.linalg.norm(P) ** 2 * np.linalg.inv(P @ P.T)
    g = rotation(2 * np.pi * 2502 / 10007)  # an angle near pi / 2
    got = lm.haar_average_form(_conjugated(P, [g]))
    assert np.linalg.norm(got - want, 2) <= 1e-14 * 8.0**2 * np.linalg.norm(want, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_haar_average_finite_rejects_unbounded_group():
    # the squeeze's and the shear's powers grow without bound: the decision
    # must reject them without overflow or invalid-value warnings, however
    # far the eigenvalues lie off the unit circle
    for g in (squeeze(), shear(), np.diag([1e4, 1e-4]), np.diag([1e160, 1e-160]),
              np.array([[1.0, 1e155], [0.0, 1.0]]),
              np.array([[1.0, 1e200], [0.0, 1.0]])):
        with pytest.raises(errors.NotCompact):
            lm.haar_average_form([g])
        assert lm.cyclic_closure_compact(g) is False


def test_haar_average_cesaro_not_compact():
    # powers that grow or shrink geometrically have no bounded average
    with pytest.raises(errors.NotCompact):
        lm.haar_average_form([squeeze()])
    with pytest.raises(errors.NotCompact):
        lm.haar_average_form([0.5 * np.eye(2)])


def test_haar_average_not_compact_when_forms_meet_or_degenerate():
    # the fixed and moved forms of a shear have complementary dimensions
    # but meet, so only the angle between them rejects it
    for sign in (1.0, -1.0):
        for cond in (1.0, 5.0, 20.0):
            P = random_det1(2, stream(int(cond), "shear"), cond=cond)
            with pytest.raises(errors.NotCompact, match="not complements"):
                lm.haar_average_form(_conjugated(P, [sign * shear()]))
    # a rotation beside diag(2, 2, 1/4) fixes only singular forms, which
    # roundoff can leave with a tiny positive least eigenvalue
    A = np.zeros((5, 5))
    A[:2, :2], A[2:, 2:] = rotation(1.0), np.diag([2.0, 2.0, 0.25])
    for seed in range(100):
        P = random_det1(5, stream(seed, "singular"), cond=10.0)
        with pytest.raises(errors.NotCompact):
            lm.haar_average_form(_conjugated(P, [A]))


@pytest.mark.parametrize("g", [
    np.diag([1.0 + 1e-7, 1.0 / (1.0 + 1e-7)]),
    conjugated_rotation(1e-7, stream(7, "tiny"))], ids=["squeeze", "rotation"])
def test_haar_average_borderline_is_ill_conditioned(g):
    # _rank's undecided band, reached through both entry points
    with pytest.raises(errors.IllConditioned):
        lm.haar_average_form([g])
    with pytest.raises(errors.IllConditioned):
        lm.cyclic_closure_compact(g)


@pytest.mark.parametrize("call", [
    lm.find_noncompact_witness, lm.haar_average_form, lm.weyl_conjugator])
def test_generator_lists_are_checked(call):
    with pytest.raises(errors.InvalidArgument):
        call([])
    with pytest.raises(errors.DimensionMismatch):
        call([rotation(np.pi / 2), np.eye(3)])


def test_weyl_conjugator_ignores_the_mode_that_the_groups_bench_passes():
    """bench/groups.py calls weyl_conjugator(gens, mode="finite") and
    mode="cesaro": the keyword stays, ignored, until that bench changes."""
    for gens in (_conjugated(_conditioned(2, 10.0, stream(9, "bench")),
                             dihedral_generators(6)),
                 [conjugated_rotation(1.0, stream(9, "bench"))]):
        h = lm.weyl_conjugator(gens)
        for mode in ("finite", "cesaro"):
            assert np.array_equal(lm.weyl_conjugator(gens, mode=mode), h)


def test_word_walk_enumerates_dihedral_groups():
    for n in range(3, 13):
        words = list(_walk(dihedral_generators(n)))
        assert len(words) + 1 == 2 * n  # plus the identity
    assert len(list(_walk([shear()], max_len=3))) == 6


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
    # finite groups and irrational rotations take the same computation
    # orthogonal generators: h = I
    h = lm.weyl_conjugator([rotation(np.pi / 2)])
    assert np.allclose(h, np.eye(2), atol=1e-10)
    # conjugated dihedral group
    rng = stream(6, "weyl")
    P = random_det1(2, rng, cond=10)
    gens = [P @ g @ np.linalg.inv(P) for g in dihedral_generators(5)]
    h = lm.weyl_conjugator(gens)
    assert max(_defect(h, g) for g in gens) <= 1e-8
    # single conjugated irrational rotation
    g = conjugated_rotation(1.0, stream(6, "weyl2"), cond=8)
    h = lm.weyl_conjugator([g])
    assert _defect(h, g) <= 1e-8
    # diag(2,1) conjugation example: h proportional to diag(2,1) up to
    # an orthogonal factor, checked through the post-condition
    h0 = np.diag([2.0, 1.0])
    A = h0 @ rotation(1.0) @ np.linalg.inv(h0)
    h = lm.weyl_conjugator([A])
    assert _defect(h, A) <= 1e-8


def test_cesaro_average_matches_finite_group_average():
    # for a finite cyclic group of order n the running mean of (g^k)^T g^k
    # over whole periods, the Cesaro limit, is the group average
    for n in range(3, 13):
        g = conjugated_rotation(2 * np.pi / n, stream(n, "cesaro"), cond=8)
        power, total = np.eye(2), np.zeros((2, 2))
        for _ in range(20 * n):
            total += power.T @ power
            power = g @ power
        cesaro = total / (20 * n)
        finite = lm.haar_average_form([g])
        assert np.linalg.norm(cesaro - finite, 2) <= 1e-9 * np.linalg.norm(finite, 2)


def test_weyl_conjugation_preserves_determinant():
    rng = stream(8, "det")
    P = random_det1(2, rng, cond=5)
    gens = [P @ g @ np.linalg.inv(P) for g in dihedral_generators(4)]
    h = lm.weyl_conjugator(gens)
    hinv = np.linalg.inv(h)
    for g in gens:
        assert np.isclose(np.linalg.det(hinv @ g @ h), np.linalg.det(g))


# ---------------------------------------------------------------------------
# the groups layer's outputs, pinned


def _groups_layer_digest():
    """sha256 over what real_jordan_form, cyclic_closure_compact,
    weyl_conjugator and find_noncompact_witness return on a small seeded
    gallery corpus; an error counts by its class name."""
    digest = hashlib.sha256()

    def feed(fn, *args):
        try:
            out = fn(*args)
        except errors.LevymixError as exc:
            out = type(exc).__name__
        if isinstance(out, lm.RealJordanDecomposition):
            digest.update(out.conjugator.tobytes())
            out = ([(b.kind.value, b.size, b.eigen) for b in out.blocks],
                   out.residual.hex())
        digest.update(out.tobytes() if isinstance(out, np.ndarray)
                      else repr(out).encode())

    corpus = [A for A, _ in jordan_corpus(8, seed=11)]
    corpus += [random_jordan_matrix(d, stream(1, "pin unit", d), unit_moduli=True)[0]
               for d in range(2, 6)]
    for A in corpus:
        feed(lm.real_jordan_form, A)
        feed(lm.cyclic_closure_compact, A)
    dihedral = [_conjugated(_conditioned(2, 10.0, stream(n, "pin dihedral")),
                            dihedral_generators(n)) for n in (3, 4, 6)]
    rotations = [[conjugated_rotation(theta, stream(i, "pin rotation"), d=d)]
                 for i, (theta, d) in enumerate([(1.0, 2), (2.5, 4)])]
    for gens in dihedral + rotations:
        feed(lm.weyl_conjugator, gens)
    for gens in dihedral + _rotation_pairs(4, seed=2) + [_elliptic_pair()]:
        feed(lm.find_noncompact_witness, gens)
    return digest.hexdigest()


# a change that moves one of these outputs updates the pin here
GROUPS_LAYER_SHA256 = "8bbc84b03a8de2f5e8a62274b0c0ca7d91e6b5ae73a085395510c5fcfe520fba"


def test_groups_layer_output_is_pinned():
    assert _groups_layer_digest() == GROUPS_LAYER_SHA256
