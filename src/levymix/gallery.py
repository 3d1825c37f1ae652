"""Canonical matrices and random test-corpus builders.

These are the matrices the demos and the verification suite revolve
around: the shear, the squeeze, planar rotations, and random det-1
similarity transforms of hand-assembled Jordan forms.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .errors import ConfigError, LevymixError, SamplingFailure
from .matrices import (BlockKind, RealJordanBlock, assemble_jordan,
                       matrix_from_json)


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


def named_matrix(name):
    try:
        return ALIASES[name]()
    except KeyError:
        raise ConfigError(f"unknown matrix alias {name!r}") from None


def parse_matrix(obj):
    """Matrix from an alias name or a {"rows": ..., "d": ...} object."""
    if isinstance(obj, str):
        return named_matrix(obj)
    if not (isinstance(obj, dict) and "rows" in obj):
        raise ConfigError("matrix: expected an alias string or a rows object")
    try:
        return matrix_from_json(obj)
    except (LevymixError, TypeError, ValueError) as exc:
        raise ConfigError(f"matrix: {exc}") from exc


def random_det1(d, rng, cond=50.0):
    """Random matrix with det +1 and condition number about `cond`."""
    Q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    Q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.exp(rng.uniform(0.0, np.log(cond), size=d))
    T = Q1 @ np.diag(s) @ Q2
    det = np.linalg.det(T)
    T /= abs(det) ** (1.0 / d)
    if np.linalg.det(T) < 0:
        T[:, 0] *= -1.0
    return T


def _random_block_partition(d, rng, max_block=None):
    """Random list of (rows, is_pair) covering d rows."""
    max_block = max_block or d
    parts = []
    left = d
    while left > 0:
        if left >= 2 and rng.random() < 0.4:
            b = int(rng.integers(1, min(left // 2, max_block) + 1))
            parts.append((b, True))
            left -= 2 * b
        else:
            a = int(rng.integers(1, min(left, max_block) + 1))
            parts.append((a, False))
            left -= a
    return parts


def _separated_values(existing, draw, rng, min_gap=0.4, tries=200):
    for _ in range(tries):
        v = draw(rng)
        ok = all(abs(v - u) >= min_gap and abs(v - np.conj(u)) >= min_gap
                 for u in existing)
        if ok:
            return v
    raise SamplingFailure("could not separate eigenvalues")


def random_jordan_matrix(d, rng, cond=50.0, unit_moduli=False):
    """Random det-free Jordan form conjugated by a random det-1 matrix.

    Returns (A, blocks) with blocks the constructed RealJordanBlock
    list.  Eigenvalue clusters are kept at least 0.4 apart so the
    structure is recoverable.  With unit_moduli=True all eigenvalues sit
    on the unit circle (sizes may still exceed 1).
    """
    parts = _random_block_partition(d, rng)
    values = []
    blocks = []
    for rows, is_pair in parts:
        if is_pair:
            if unit_moduli:
                def draw(r):
                    th = r.uniform(0.4, np.pi - 0.4)
                    return np.exp(1j * th)
            else:
                def draw(r):
                    th = r.uniform(0.4, np.pi - 0.4)
                    mod = r.choice([0.5, 1.0, 2.0])
                    return mod * np.exp(1j * th)
            v = _separated_values(values, draw, rng)
            values.append(v)
            blocks.append(RealJordanBlock(BlockKind.COMPLEX_PAIR, rows,
                                          complex(v)))
        else:
            if unit_moduli:
                def draw(r):
                    return float(r.choice([-1.0, 1.0]))
            else:
                def draw(r):
                    return float(r.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]))
            real_vals = [u for u in values if np.isreal(u)]
            if real_vals and rng.random() < 0.25:
                # repeated eigenvalue across blocks: geometric mult > 1
                v = float(np.real(rng.choice(real_vals)))
                blocks.append(RealJordanBlock(BlockKind.REAL, rows, complex(v)))
                continue
            v = _separated_values(values, draw, rng)
            values.append(v)
            blocks.append(RealJordanBlock(BlockKind.REAL, rows, complex(v)))
    K = assemble_jordan(blocks)
    T = random_det1(d, rng, cond=cond)
    return T @ K @ np.linalg.inv(T), blocks


def jordan_corpus(n, seed, d_max=6, cond=50.0):
    """Corpus of (A, constructed blocks) pairs for reconstruction checks."""
    out = []
    for i in range(n):
        rng = _rng.stream(seed, "corpus", i)
        d = int(rng.integers(2, d_max + 1))
        out.append(random_jordan_matrix(d, rng, cond=cond))
    return out


def conjugated_rotation(theta, rng, d=2, cond=10.0):
    """h R(theta) h^-1 for a random det-1 conjugator h."""
    h = random_det1(d, rng, cond=cond)
    if d == 2:
        R = rotation(theta)
    else:
        if d % 2 != 0:
            raise ValueError("d must be even")
        R = np.zeros((d, d))
        for j in range(d // 2):
            R[2 * j:2 * j + 2, 2 * j:2 * j + 2] = rotation(theta * (j + 1) / 2.0
                                                           + 0.4 * j)
    return h @ R @ np.linalg.inv(h)


def dihedral_generators(n):
    """Generators of the dihedral group of the regular n-gon."""
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    return [rotation(2 * np.pi / n), refl]
