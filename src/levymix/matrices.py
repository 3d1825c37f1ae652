"""Eigenstructure, real Jordan canonical forms, and compactness of matrix groups.

The central question answered here is whether a matrix group has compact
closure, i.e. is conjugate into the orthogonal group.  One matrix or any
finite generator set is decided by one invariant-form computation: the
Haar average of g^T g (Weyl's trick) is positive definite exactly when
the closure is compact, and its inverse square root conjugates every
generator into the orthogonal group.  The real Jordan form of a
non-compact matrix tags the blocks that witness it.
The argument rules of the package live here, each applied on entry by
the function that reads the argument: _count for counts, _real for real
parameters, _floats for arrays (as_matrix reads every matrix by it) and
in_measure_preserving_group for |det| = 1.  A seed is read at the first
draw, by rng.stream_key, which holds its rule.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    FloatOverflow,
    IllConditioned,
    InvalidArgument,
    InvalidGenerator,
    NonFiniteInput,
    NotCompact,
    NotReached,
    NotSPD,
    SingularMatrix,
)


# Numerical thresholds.  CLUSTER_TOL drives both eigenvalue clustering and
# the singular-value threshold in rank decisions; UNIT_TOL decides when a
# modulus counts as 1; RECONSTRUCTION_TOL bounds the relative residual of
# a Jordan decomposition; DET_TOL is the |det| = 1 membership slack.
CLUSTER_TOL = 1e-6
UNIT_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-6
DET_TOL = 1e-8
# Weyl's trick: FORM_RESIDUAL_TOL is the zero threshold of its rank
# decisions and the invariance slack of the form; every conjugated
# generator must be orthogonal to ORTHOGONALITY_TOL.
FORM_RESIDUAL_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# matrix plumbing


def as_matrix(A, name="matrix") -> np.ndarray:
    """A, read by _floats, as a dense float square matrix."""
    A = _floats(A, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFiniteInput("matrix entries must be finite")
    return A


def _count(value, name, least=0):
    """value as an int, if it is an integer, not a bool, of at least `least`."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise InvalidArgument(
            f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise InvalidArgument(f"need {name} >= {least}, got {n}")
    return n


def _real(value, name, positive=False):
    """value unchanged, if a real number, not a bool, that is finite as a
    float (an int beyond the float range is not) and, where `positive`,
    above 0.  Not converted to float: the tail experiment keys its random
    streams by the text of t."""
    try:  # math.isfinite raises OverflowError for an int beyond the float range
        real = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        real = False
    if not real or positive and not value > 0:
        raise InvalidArgument(f"{name} must be a {'positive, ' if positive else ''}"
                              f"finite real number, got {value!r}")
    return value


def _floats(value, name):
    """value as a float array, if it converts to an array of integer or
    float dtype; ragged rows, text, bools, complex numbers and other
    objects raise InvalidArgument."""
    try:
        a = np.asarray(value)
        if a.dtype.kind not in "iuf":
            raise ValueError(f"dtype {a.dtype}")
    except ValueError as exc:  # also ragged rows
        raise InvalidArgument(
            f"{name} must be an array of real numbers: {exc}") from None
    return a.astype(float, copy=False)


def _keys(obj, where, required, optional=()):
    """obj, if a JSON object that gives every key of `required` and no key
    outside `required` and `optional`; else ConfigError after `where`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{where}: unknown key {key!r}")
    return obj


def matrix_to_json(A) -> dict:
    A = as_matrix(A)
    return {"d": int(A.shape[0]), "rows": [[float(v) for v in row] for row in A]}


def _generator_list(generators):
    """Generators as validated matrices: at least one, all of one order."""
    gens = [as_matrix(g, "generator") for g in generators]
    if not gens:
        raise InvalidArgument("need at least one generator")
    if len({g.shape for g in gens}) > 1:
        raise DimensionMismatch("generators are not all of one order")
    return gens


def _opnorm(A):
    # the largest singular value: np.linalg.norm(A, 2) without its wrapper
    return float(np.linalg.svd(A, compute_uv=False)[0])


def in_measure_preserving_group(A) -> bool:
    """|det A| = 1 within DET_TOL: the rule for a measure-preserving map."""
    return abs(abs(float(np.linalg.det(as_matrix(A)))) - 1.0) <= DET_TOL


# ---------------------------------------------------------------------------
# eigen clustering


def _connected_clusters(w, delta):
    """Single-linkage grouping of eigenvalues at radius delta."""
    w = w.tolist()  # Python scalars: the same differences and moduli, faster
    n = len(w)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) <= delta:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _eigvals(A):
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration failed: {exc}") from exc


def _cluster_values(w, delta):
    """(value, algebraic multiplicity) of each cluster of w at radius delta.

    Clusters are single-linkage groups, unsorted, valued by their mean; a
    value whose imaginary part is within delta of 0 counts as real.
    """
    out = []
    for idx in _connected_clusters(w, delta):
        val = complex(w[idx].sum() / len(idx))
        if abs(val.imag) <= delta:
            val = complex(val.real, 0.0)
        out.append((val, len(idx)))
    return out


# ---------------------------------------------------------------------------
# Jordan chains

class _StructureError(Exception):
    """Internal: no chain structure at this rung's clustering."""


def _jordan_chains(A, lam, alg):
    """Jordan chains of A at eigenvalue lam with algebraic multiplicity alg.

    Returns a list of chains, each chain a list [u_1, ..., u_k] with
    M u_j = u_{j-1}, M u_1 = 0 for M = A - lam*I.  Real lam on a real A
    produces real chains.
    """
    d = A.shape[0]
    if np.isrealobj(A) and lam.imag == 0.0:
        M = A - lam.real * np.eye(d)
    else:
        M = A.astype(complex) - lam * np.eye(d)
    normM = 1.0  # max(||M||, 1) once the first power's SVD gives ||M||
    eps = np.finfo(float).eps

    # Nullspace filtration of M^k until the nullity reaches alg.  No fixed
    # singular-value threshold separates signal from noise across all
    # powers, so the nullity is picked by the largest singular-value gap
    # inside the window allowed by the Weyr characteristic (increments are
    # non-increasing), which is often a single forced value.
    bases = [np.zeros((d, 0), dtype=M.dtype)]
    Mk = np.eye(d, dtype=M.dtype)
    nullities = [0]
    while nullities[-1] < alg:
        k = len(nullities)
        try:  # ||M||^k bounds, up to rounding, the partial sums of Mk @ M
            normMk = normM**k
        except OverflowError:
            raise _StructureError(f"power {k} of A - lambda I overflows") from None
        Mk = Mk @ M
        _, s, Vh = np.linalg.svd(Mk)
        if k == 1:  # ||M|| only scales the gap floor
            normM = normMk = max(float(s[0]), 1.0)
        s = np.maximum(s, d * eps * normMk).tolist()
        # lo <= hi as the nullity is below alg and the last increment >= 1:
        # increments stay >= 1 and non-increasing, reaching alg by power alg <= d
        lo = nullities[-1] + 1
        hi = alg if k == 1 else min(alg, 2 * nullities[-1] - nullities[-2])
        best_ratio, n = -1.0, lo
        for cand in range(lo, hi + 1):
            above = normMk if cand == d else s[d - cand - 1]
            ratio = above / s[d - cand]
            if ratio > best_ratio:
                best_ratio, n = ratio, cand
        if best_ratio < 10.0:
            raise _StructureError(
                f"no singular value gap at power {k}")
        bases.append(Vh[d - n:].conj().T)
        nullities.append(n)

    # c[k] = number of blocks of size >= k, non-increasing by the window
    c = [0, *(b - a for a, b in zip(nullities, nullities[1:])), 0]
    chains = []  # longest first
    for k in range(len(nullities) - 1, 0, -1):
        need = c[k] - c[k + 1]  # blocks of size exactly k
        if need == 0:
            continue
        # avoid null(M^{k-1}) plus the level-k vectors of taller chains
        avoid_cols = [bases[k - 1]]
        for chain in chains:
            if len(chain) > k:
                avoid_cols.append(chain[k - 1][:, None])
        avoid = np.hstack(avoid_cols)
        if avoid.shape[1] > 0:
            Q, _ = np.linalg.qr(avoid)
            proj = bases[k] - Q @ (Q.conj().T @ bases[k])
        else:
            proj = bases[k]
        U, s, _ = np.linalg.svd(proj, full_matrices=False)
        if len(s) < need or s[need - 1] < 0.05:
            raise _StructureError("cannot separate new chain tops")
        for t in range(need):
            v = U[:, t]
            chain = [v]
            for _ in range(k - 1):
                chain.insert(0, M @ chain[0])
            scale = max(np.linalg.norm(u) for u in chain)
            chains.append([u / scale for u in chain])
    return chains


def _delta_ladder():
    # coarse to fine: over-merged clusters fail the chain structure checks,
    # while a split defective cluster can pass the residual check with an
    # ill-conditioned conjugator, so the coarsest consistent radius wins
    deltas = []
    delta = CLUSTER_TOL
    while delta <= 0.2:
        deltas.append(delta)
        delta *= 10.0
    yield from reversed(deltas)


def _cluster_guard_ok(clusters, delta):
    vals = [val for val, _ in clusters]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) < 10.0 * delta:
                return False
    return True


# ---------------------------------------------------------------------------
# real Jordan form


class BlockKind(Enum):
    REAL = "real"
    COMPLEX_PAIR = "complex_pair"


@dataclass(frozen=True)
class RealJordanBlock:
    """One block of a real Jordan form.

    REAL blocks of size a occupy a rows (eta on the diagonal, 1 on the
    super-diagonal); COMPLEX_PAIR blocks of size b occupy 2b rows (2x2
    rotation-scale cells [[c, d], [-d, c]] with identity super-diagonal
    cells), with the representative eigenvalue chosen with positive
    imaginary part.
    """

    kind: BlockKind
    size: int
    eigen: complex

    @property
    def rows(self) -> int:
        return self.size if self.kind is BlockKind.REAL else 2 * self.size

    def materialize(self) -> np.ndarray:
        if self.kind is BlockKind.REAL:
            eta = self.eigen.real
            return eta * np.eye(self.size) + np.eye(self.size, k=1)
        c, s = self.eigen.real, self.eigen.imag
        K = np.eye(2 * self.size, k=2)  # the identity super-diagonal cells
        for j in range(0, 2 * self.size, 2):
            K[j:j + 2, j:j + 2] = [[c, s], [-s, c]]
        return K


def assemble_jordan(blocks) -> np.ndarray:
    """Block-diagonal real Jordan matrix of a RealJordanBlock sequence."""
    d = sum(b.rows for b in blocks)
    K = np.zeros((d, d))
    off = 0
    for b in blocks:
        K[off:off + b.rows, off:off + b.rows] = b.materialize()
        off += b.rows
    return K


@dataclass(frozen=True)
class RealJordanDecomposition:
    """Conjugator T, canonical block list, and relative residual."""

    conjugator: np.ndarray
    blocks: tuple
    residual: float

    def jordan_matrix(self) -> np.ndarray:
        return assemble_jordan(self.blocks)

    def to_json(self) -> dict:
        return {
            "conjugator": matrix_to_json(self.conjugator),
            "blocks": [
                {"kind": b.kind.value, "size": b.size,
                 "eigen": [b.eigen.real, b.eigen.imag]}
                for b in self.blocks
            ],
            "residual": self.residual,
        }


def _canonical_block_sort(items):
    """Sort (block, columns) pairs: real first by (|eta| desc, size desc)."""
    def key(item):
        b = item[0]
        is_pair = 1 if b.kind is BlockKind.COMPLEX_PAIR else 0
        return (is_pair, -abs(b.eigen), -b.size, -b.eigen.real, b.eigen.imag)
    return sorted(items, key=key)


def real_jordan_form(A):
    """Real Jordan decomposition A = T K T^-1.

    Blocks are ordered canonically: real blocks first, sorted by
    (|eta| descending, size descending), then complex-pair blocks by
    (|kappa| descending, size descending).  A pair block's kappa is the
    mean of a cluster above the real axis: its imaginary part is positive
    by construction.

    Defective eigenvalues scatter numerically like eps**(1/r), so the
    clustering radius is escalated through a geometric ladder until the
    reconstruction validates; if no radius works the input is rejected
    as IllConditioned, whose `rungs` name the failure of every radius.
    The eigenvalues are computed once and re-clustered at each radius.
    """
    A = as_matrix(A)
    normA = max(_opnorm(A), np.finfo(float).tiny)
    w = _eigvals(A)
    rungs = []  # (delta, why the rung failed), in ladder order
    for delta in _delta_ladder():
        clusters = _cluster_values(w, delta)
        if not _cluster_guard_ok(clusters, delta):
            rungs.append((delta, f"eigenvalue clusters closer than 10 radii "
                                 f"at radius {delta:.1e}"))
            continue
        try:
            items = _real_blocks_at_radius(A, clusters)
        except _StructureError as exc:
            rungs.append((delta, str(exc)))
            continue
        items = _canonical_block_sort(items)  # keys tie only within a cluster
        blocks = tuple(b for b, _ in items)
        T = np.hstack([cols for _, cols in items])
        K = assemble_jordan(blocks)
        try:
            Tinv = np.linalg.inv(T)
        except np.linalg.LinAlgError:
            rungs.append((delta, "conjugator is singular"))
            continue
        resid = _opnorm(A - T @ K @ Tinv) / normA
        if resid <= RECONSTRUCTION_TOL:
            return RealJordanDecomposition(T, blocks, float(resid))
        rungs.append((delta, f"residual {resid:.3e} above tolerance "
                             f"at radius {delta:.1e}"))
    exc = IllConditioned(rungs[-1][1])
    exc.rungs = tuple(rungs)
    raise exc


def _real_blocks_at_radius(A, clusters):
    """Candidate (RealJordanBlock, real column block) pairs.

    clusters holds (value, algebraic multiplicity) pairs; a cluster above
    the real axis gives the COMPLEX_PAIR blocks, its mirror none.
    """
    # eigvals returns exact conjugate pairs and single linkage commutes with
    # conjugation: a cluster is its own mirror (real mean) or has an exact one
    items = []
    for val, alg in clusters:
        if val.imag < 0:
            continue
        kind = BlockKind.REAL if val.imag == 0.0 else BlockKind.COMPLEX_PAIR
        for chain in _jordan_chains(A, val, alg):
            if kind is BlockKind.REAL:
                cols = np.column_stack(chain)
            else:
                cols = np.column_stack([p for u in chain for p in (u.real, u.imag)])
            items.append((RealJordanBlock(kind, len(chain), val), cols))
    return items


# ---------------------------------------------------------------------------
# block powers


def jordan_block_power_apply(block: RealJordanBlock, h: int, x) -> np.ndarray:
    """Apply the h-th power of a REAL Jordan block to x in closed form.

    Uses J_a(eta)^h = sum_j C(h, j) eta^(h-j) N^j, i.e.
    y_l = sum_{i>=l} x_i * C(h, i-l) * eta^(h-(i-l)).  Raises FloatOverflow
    where a term or a sum passes the float range.
    """
    if block.kind is not BlockKind.REAL:
        raise DimensionMismatch("closed-form power applies to REAL blocks only")
    h = _count(h, "h")
    x = _floats(x, "x")
    a = block.size
    if x.shape != (a,):
        raise DimensionMismatch(f"expected a vector of length {a}")
    eta = block.eigen.real
    y = np.zeros(a)
    try:  # Python's float power or C(h, j) raises OverflowError, numpy FloatingPointError
        with np.errstate(over="raise"):
            for ell in range(a):
                for j in range(min(a - ell, h + 1)):
                    y[ell] += x[ell + j] * math.comb(h, j) * eta ** (h - j)
    except (OverflowError, FloatingPointError):
        raise FloatOverflow("a term of the block power overflows the float range") from None
    return y


# ---------------------------------------------------------------------------
# compactness classification


def classify_noncompact_blocks(dec: RealJordanDecomposition) -> tuple:
    """(case letter, block index) tags of non-compact blocks, in block order.

    Case letters: A = real block, size >= 2, eigenvalue +-1;
    B = complex-pair block, size >= 2, |kappa| = 1;
    C = real block with |eta| < 1; D = complex-pair block with |kappa| < 1.
    """
    tags = []
    for i, b in enumerate(dec.blocks):
        real, mod = b.kind is BlockKind.REAL, abs(b.eigen)
        if b.size >= 2 and abs(mod - 1.0) <= UNIT_TOL:
            tags.append(("A" if real else "B", i))
        elif mod < 1.0 - UNIT_TOL:
            tags.append(("C" if real else "D", i))
    return tuple(tags)


def cyclic_closure_compact(A) -> bool:
    """True iff {A^h : h in Z} is bounded, decided by haar_average_form([A]):
    False if |det A| != 1; SingularMatrix for a singular A, IllConditioned
    where the invariant-form decision is undecided."""
    A = as_matrix(A)
    if not in_measure_preserving_group(A):
        if abs(float(np.linalg.det(A))) < 1e-12:
            raise SingularMatrix("cyclic closure is defined for invertible matrices")
        return False
    try:
        _invariant_form([A])
    except NotCompact:
        return False
    return True


def _bounded(X):
    """X, or NotCompact if an entry overflowed: the group is unbounded."""
    if not np.isfinite(X).all():
        raise NotCompact("word entries overflow; the group is unbounded")
    return X


def _dedup_key(M):
    # M in multiples of 1e-9; + 0.0 maps -0.0 to 0.0.  Only entries past
    # 1e290 can overflow M / 1e-9, so only they pay for silencing it.
    if abs(M).max() < 1e290:
        return (np.rint(M / 1e-9) + 0.0).tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        return _bounded(np.rint(M / 1e-9) + 0.0).tobytes()


def _walk(gens, max_len=None):
    """(letters, word) for the distinct words in gens and their inverses.

    Breadth-first up to length max_len (None: until no new word
    appears): each word of one length is extended on the left by the
    letters g1, g1^-1, g2, g2^-1, ... in turn, whose indices 2i and
    2i + 1 make up `letters`, so the word is the product of its letters
    from left to right.  Words equal up to _dedup_key appear once; the
    identity (the empty word) is not yielded.  A word whose key overflows
    is yielded too, and not extended.  gens are checked matrices.
    """
    d = gens[0].shape[0]
    alphabet = [m for g in gens for m in (g, np.linalg.inv(g))]
    seen = {_dedup_key(np.eye(d))}
    frontier = [((), np.eye(d))]
    length = 0
    while frontier and (max_len is None or length < max_len):
        nxt = []
        for letters, w in frontier:
            for a, g in enumerate(alphabet):
                cand = (a, *letters), g @ w
                try:
                    key = _dedup_key(cand[1])
                except NotCompact:  # entries past 1e-9 * the float range
                    yield cand
                    continue
                if key not in seen:
                    seen.add(key)
                    nxt.append(cand)
                    yield cand
        frontier = nxt
        length += 1


def _word_class(letters):
    """Key shared by a word, its cyclic rotations, its inverse and its powers.

    letters index the alphabet of _walk, where a ^ 1 is the inverse of
    letter a.  The word is reduced freely and cyclically, cut to its
    primitive root, and keyed by the least rotation of that root or of
    its inverse; a word that cancels to the identity has the key ().
    """
    w = []
    for a in letters:
        if w and w[-1] == a ^ 1:
            w.pop()
        else:
            w.append(a)
    lo, hi = 0, len(w)
    while hi - lo > 1 and w[lo] == w[hi - 1] ^ 1:
        lo, hi = lo + 1, hi - 1
    w = tuple(w[lo:hi])
    n = len(w)
    root = next((w[:k] for k in range(1, n) if n % k == 0 and w[:k] * (n // k) == w),
                w)
    inverse = tuple(a ^ 1 for a in reversed(root))
    return min((u[k:] + u[:k] for u in (root, inverse) for k in range(len(u))),
               default=())


def find_noncompact_witness(generators, max_word_len=6):
    """A word in the generators whose cyclic closure is not compact.

    Returns None when haar_average_form certifies that the generated
    group is compact.  Otherwise searches the words breadth-first up to
    max_word_len letters, a non-negative integer, and returns the first
    one that qualifies.  A word is not decided when a word of its
    _word_class was decided compact already: its cyclic rotations are
    its conjugates, its inverse generates the same group and its powers
    a subgroup of finite index, so each has compact cyclic closure
    exactly when it has.  Only compact words are skipped, so the witness
    is the word that deciding every word would return.  Without one it
    raises NotReached if the group was decided non-compact, or else the
    IllConditioned or ConvergenceFailure that left it undecided.
    """
    gens = _generator_list(generators)
    max_word_len = _count(max_word_len, "max_word_len")
    if not all(in_measure_preserving_group(g) for g in gens):
        raise InvalidGenerator("generator must have |det| = 1")
    try:
        _invariant_form(gens)
        return None
    except NotCompact:
        undecided = NotReached(f"no witness up to word length {max_word_len}")
    except (IllConditioned, ConvergenceFailure) as exc:
        undecided = exc
    compact = set()  # classes of the words decided compact
    for letters, w in _walk(gens, max_word_len):
        key = _word_class(letters)
        if key in compact:
            continue
        try:
            if not cyclic_closure_compact(w):
                return w
        except IllConditioned:
            continue  # borderline word; keep searching
        compact.add(key)
    raise undecided


# ---------------------------------------------------------------------------
# Weyl's trick


def _rank(s, scale, what):
    """Count of singular values s >= CLUSTER_TOL * scale; IllConditioned if
    one lies between that and the zero threshold FORM_RESIDUAL_TOL * scale."""
    nonzero = s >= CLUSTER_TOL * scale
    if (~nonzero & (s > FORM_RESIDUAL_TOL * scale)).any():
        raise IllConditioned(f"{what}: a singular value is neither zero nor "
                             f"non-zero at scale {scale:.3e}")
    return int(nonzero.sum())


@functools.lru_cache(maxsize=None)
def _sym_basis(d):
    """U: an orthonormal basis of Sym, a vec per column; read-only, as it
    is shared by every call of one order."""
    i, j = np.triu_indices(d)
    U, k = np.zeros((d * d, len(i))), np.arange(len(i))
    U[i * d + j, k] = U[j * d + i, k] = np.where(i == j, 1.0, math.sqrt(0.5))
    U.flags.writeable = False
    return U


def _kron_t(g):
    """np.kron(g.T, g.T), the matrix of X -> g^T X g on vec(X), built from
    the same products without kron's overhead."""
    a, n = g.T, g.size
    return (a[:, None, :, None] * a[None, :, None, :]).reshape(n, n)


def haar_average_form(generators):
    """Haar average S of g^T g over the group the generators generate.

    S is the projection of I onto the forms Fix that every rho(g): X ->
    g^T X g fixes, along the sum W of the ranges of rho(g_i) - I.  The
    closure is compact iff every g_i has |det| = 1 and its eigenvalues on
    the unit circle, Fix and W are complements and S is positive definite;
    otherwise NotCompact.  One averaging step comes first: all is decided
    for h0^-1 g h0, h0 = S0^-1/2 with S0 the mean of w^T w over I and the
    words of length <= 2, where h0^2 projects to S' = h0 S h0.  _rank
    judges singular values at scale max(1, max ||rho(h0^-1 g_i h0) - I||),
    and the angle of Fix and W at scale 1.
    """
    gens = _generator_list(generators)
    if not all(in_measure_preserving_group(g) for g in gens):
        raise NotCompact("a generator has |det| != 1")
    return _invariant_form(gens)


def _invariant_form(gens):
    """haar_average_form for checked generators, each with |det| = 1.

    The averaging step takes the words of length <= 2 from its own
    _walk.  With one generator, as in every cyclic_closure_compact, one
    SVD of its map gives the rank scale and the bases of the fixed and
    the moved forms; more generators take three.
    """
    if any(np.max(np.abs(np.abs(_eigvals(g)) - 1.0)) > CLUSTER_TOL
           for g in gens):
        raise NotCompact("a generator has an eigenvalue off the unit circle")
    d = gens[0].shape[0]
    words = [np.eye(d), *(w for _, w in _walk(gens, 2))]
    with np.errstate(over="ignore", invalid="ignore"):
        S0 = sum(w.T @ w for w in words) / len(words)
    h0 = spd_sqrt_inverse(_bounded(S0))
    h0inv = np.linalg.inv(h0)
    U = _sym_basis(d)
    maps = [U.T @ _kron_t(h0inv @ g @ h0) @ U - np.eye(U.shape[1]) for g in gens]
    if len(maps) == 1:
        Q, s, Vh = np.linalg.svd(maps[0], full_matrices=False)
        scale, s_moved = max(1.0, float(s[0])), s
    else:
        scale = max(1.0, max(_opnorm(M) for M in maps))
        _, s, Vh = np.linalg.svd(np.vstack(maps), full_matrices=False)
        Q, s_moved, _ = np.linalg.svd(np.hstack(maps), full_matrices=False)
    F = Vh[_rank(s, scale, "fixed forms"):].T
    FW = np.hstack([F, Q[:, :_rank(s_moved, scale, "moved forms")]])
    # for orthonormal F and W the least singular value is sqrt(1 - cos angle)
    if FW.shape[1] != len(FW) or _rank(np.linalg.svd(FW, compute_uv=False),
                                      1.0, "angle") < len(FW):
        raise NotCompact("fixed and moved forms are not complements")
    coef = np.linalg.solve(FW, U.T @ (h0 @ h0).ravel())[:F.shape[1]]
    S = h0inv @ (U @ (F @ coef)).reshape(d, d) @ h0inv
    S = 0.5 * (S + S.T)
    w = np.linalg.eigvalsh(S)
    if w[0] <= FORM_RESIDUAL_TOL * w[-1]:
        raise NotCompact("the Haar average is not positive definite")
    resid = max(_opnorm(g.T @ S @ g - S) for g in gens) / w[-1]
    if resid > FORM_RESIDUAL_TOL:
        raise ConvergenceFailure(f"invariant form residual {resid:.3e}")
    return S


def spd_sqrt_inverse(S) -> np.ndarray:
    """Inverse of the symmetric positive definite square root of S."""
    S = as_matrix(S)
    scale = max(_opnorm(S), 1.0)
    if np.max(np.abs(S - S.T)) > 1e-12 * scale:
        raise NotSPD("matrix is not symmetric")
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    if np.min(w) <= 0:
        raise NotSPD("matrix has non-positive eigenvalues")
    return (V * (1.0 / np.sqrt(w))) @ V.T


def _conjugator_defects(gens):
    """(h, defects): h = S^-1/2 for the Haar average S of checked generators,
    and the orthogonality defect ||O^T O - I||_2 of each O = h^-1 g h."""
    h = spd_sqrt_inverse(haar_average_form(gens))
    hinv = np.linalg.inv(h)
    return h, [_opnorm(O.T @ O - np.eye(len(h))) for O in (hinv @ g @ h for g in gens)]


def weyl_conjugator(generators, *, mode=None) -> np.ndarray:
    """Matrix h with h^-1 g h orthogonal for every generator g.

    h is the inverse SPD square root of the Haar average of g^T g; the
    orthogonality defect of every conjugated generator is checked
    against ORTHOGONALITY_TOL.  `mode` is ignored: bench/groups.py still
    passes mode="finite" and mode="cesaro", and bench/tracer.py reads it.
    """
    h, defects = _conjugator_defects(_generator_list(generators))
    defect = max(defects)
    if defect > ORTHOGONALITY_TOL:
        raise ConvergenceFailure(
            f"conjugated generator has orthogonality defect {defect:.3e}")
    return h
