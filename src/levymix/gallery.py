"""Canonical matrices and random test-corpus builders.

These are the matrices the demos and the verification suite revolve
around: the shear, the squeeze, planar rotations, and random det-1
similarity transforms of hand-assembled Jordan forms.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .errors import (ConfigError, InvalidArgument, LevymixError,
                     SamplingFailure)
from .matrices import (BlockKind, RealJordanBlock, _keys, as_matrix,
                       assemble_jordan)

EIGENVALUE_GAP = 0.4  # between the eigenvalue clusters of random_jordan_matrix
SEPARATION_TRIES = 200  # draws of one separated eigenvalue before SamplingFailure
PAIR_MODULI = (0.5, 1.0, 2.0)  # moduli of random_jordan_matrix's pairs
REALS = (-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)  # and its real eigenvalues
UNIT_REALS = (-1.0, 1.0)  # its real eigenvalues with unit_moduli
CORPUS_D_MAX = 6  # largest order of a jordan_corpus matrix


def shear():
    return np.array([[1.0, 1.0], [0.0, 1.0]])


def squeeze(a=2.0):
    return np.diag([a, 1.0 / a])


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


ALIASES = {
    "shear": shear,
    "squeeze": squeeze,
    "rotation": lambda: rotation(1.0),
    "rotation90": lambda: rotation(np.pi / 2),
    "identity": lambda: np.eye(2),
}


def parse_matrix(obj):
    """Matrix from an alias name or a {"rows": ..., "d": ...} object.

    An unknown alias, an object without "rows" or with any key but "rows"
    and "d", rows that are not a finite square matrix, and a declared "d"
    other than the row count raise ConfigError.
    """
    if isinstance(obj, str):
        if obj not in ALIASES:
            raise ConfigError(f"unknown matrix alias {obj!r}")
        return ALIASES[obj]()
    _keys(obj, "matrix", ("rows",), ("d",))
    try:
        A = as_matrix(obj["rows"], "rows")
    except LevymixError as exc:
        raise ConfigError(f"matrix: {exc}") from exc
    if obj.get("d", len(A)) != len(A):
        raise ConfigError("matrix: declared order does not match row count")
    return A


def random_det1(d, rng, cond=50.0):
    """Random matrix with det +1 and condition number at most `cond`.

    The d singular values are drawn log-uniformly in [1, cond] before
    the determinant is scaled to 1, so the condition number is the ratio
    of the largest to the smallest draw: at most `cond`, and usually far
    below it (at cond = 1000 the median is about 7 in d = 2 and 75 in
    d = 4).
    """
    Q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    Q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.exp(rng.uniform(0.0, np.log(cond), size=d))
    T = Q1 @ np.diag(s) @ Q2
    det = np.linalg.det(T)
    T /= abs(det) ** (1.0 / d)
    if np.linalg.det(T) < 0:
        T[:, 0] *= -1.0
    return T


def _random_block_partition(d, rng):
    """Random list of (rows, is_pair) covering d rows."""
    parts = []
    left = d
    while left > 0:
        if left >= 2 and rng.random() < 0.4:
            b = int(rng.integers(1, left // 2 + 1))
            parts.append((b, True))
            left -= 2 * b
        else:
            a = int(rng.integers(1, left + 1))
            parts.append((a, False))
            left -= a
    return parts


def _separated_values(existing, draw, rng):
    """A draw at least EIGENVALUE_GAP from each existing value and its
    conjugate, in at most SEPARATION_TRIES draws."""
    for _ in range(SEPARATION_TRIES):
        v = draw(rng)
        ok = all(abs(v - u) >= EIGENVALUE_GAP and abs(v - np.conj(u)) >= EIGENVALUE_GAP
                 for u in existing)
        if ok:
            return v
    raise SamplingFailure("could not separate eigenvalues")


def _draw(is_pair, unit_moduli):
    """One block's eigenvalue draw: a pair's angle in [0.4, pi - 0.4], then
    its modulus (1 with unit_moduli), or a real."""
    def draw(r):
        if not is_pair:
            return float(r.choice(UNIT_REALS if unit_moduli else REALS))
        v = np.exp(1j * r.uniform(0.4, np.pi - 0.4))
        return v if unit_moduli else r.choice(PAIR_MODULI) * v
    return draw


def random_jordan_matrix(d, rng, cond=50.0, unit_moduli=False):
    """Random det-free Jordan form conjugated by a random det-1 matrix.

    Returns (A, blocks) with blocks the constructed RealJordanBlock
    list.  Eigenvalue clusters are kept at least EIGENVALUE_GAP apart so
    the structure is recoverable.  With unit_moduli=True all eigenvalues sit
    on the unit circle (sizes may still exceed 1).
    """
    parts = _random_block_partition(d, rng)
    values = []
    blocks = []
    for rows, is_pair in parts:
        real_vals = [u for u in values if np.isreal(u)]
        if not is_pair and real_vals and rng.random() < 0.25:
            # repeated eigenvalue across blocks: geometric mult > 1
            v = float(np.real(rng.choice(real_vals)))
        else:
            v = _separated_values(values, _draw(is_pair, unit_moduli), rng)
            values.append(v)
        kind = BlockKind.COMPLEX_PAIR if is_pair else BlockKind.REAL
        blocks.append(RealJordanBlock(kind, rows, complex(v)))
    K = assemble_jordan(blocks)
    T = random_det1(d, rng, cond=cond)
    return T @ K @ np.linalg.inv(T), blocks


def jordan_corpus(n, seed, cond=50.0):
    """Corpus of (A, constructed blocks) pairs for reconstruction checks."""
    out = []
    for i in range(n):
        rng = _rng.stream(seed, "corpus", i)
        d = int(rng.integers(2, CORPUS_D_MAX + 1))
        out.append(random_jordan_matrix(d, rng, cond=cond))
    return out


def conjugated_rotation(theta, rng, d=2, cond=10.0):
    """h R(theta) h^-1 for a random det-1 conjugator h."""
    h = random_det1(d, rng, cond=cond)
    if d == 2:
        R = rotation(theta)
    else:
        if d % 2 != 0:
            raise InvalidArgument("d must be even")
        R = np.zeros((d, d))
        for j in range(d // 2):
            R[2 * j:2 * j + 2, 2 * j:2 * j + 2] = rotation(theta * (j + 1) / 2.0
                                                           + 0.4 * j)
    return h @ R @ np.linalg.inv(h)


def dihedral_generators(n):
    """Generators of the dihedral group of the regular n-gon."""
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    return [rotation(2 * np.pi / n), refl]
