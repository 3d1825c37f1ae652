"""Increasing families of closed sets absorbed by powers of a matrix.

For a matrix whose cyclic closure is non-compact, one tagged Jordan
block supplies a one-parameter family of closed sets D_t (cones around
the final block coordinate, or balls for scalar contracting blocks)
expressed in the Jordan basis and extended by the full space in all
other Jordan coordinates.  The family increases in t, its intersection
and the complement of its union are Lebesgue null, and high powers of
the matrix map D_t'' into D_t' for any t' < t''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import (CompactClosure, DimensionMismatch, InvalidArgument,
                     InvalidGenerator, NonFiniteInput, NotReached,
                     SamplingFailure)
from .matrices import (
    BlockKind,
    RealJordanDecomposition,
    as_matrix,
    classify_noncompact_blocks,
    matrix_to_json,
    real_jordan_form,
)


@dataclass(frozen=True)
class ShrinkingFamily:
    witness: np.ndarray
    decomposition: RealJordanDecomposition
    block_index: int
    case: str              # A, B, C or D
    offset: int            # first row of the block in Jordan coordinates
    rows: int              # rows occupied by the block
    uses_cone: bool        # cone on the last coordinate (pair) vs ball
    pair: bool             # complex-pair block
    basis_inv: np.ndarray  # T^-1, cached

    @property
    def dim(self):
        return self.witness.shape[0]

    def param(self, t):
        """Monotone map from t in (0, inf) to the block-level parameter."""
        t = float(t)
        if not 0 < t < math.inf:
            raise InvalidArgument("t must be positive and finite")
        return t / (1.0 + t) if self.uses_cone else t

    def to_json(self):
        return {
            "witness": matrix_to_json(self.witness),
            "basis": matrix_to_json(self.decomposition.conjugator),
            "block_index": self.block_index,
            "case": self.case,
            "param_map": "rho = t/(1+t)" if self.uses_cone else "eps = t",
        }


def build_family(A) -> ShrinkingFamily:
    """Shrinking family attached to the first tagged Jordan block of A."""
    A = as_matrix(A)
    dec = real_jordan_form(A)
    cert = classify_noncompact_blocks(dec)
    if cert.compact:
        raise CompactClosure("matrix has compact cyclic closure")
    if not cert.case_tags:
        raise InvalidGenerator("|det| > 1: no Jordan block contracts or is "
                               "defective on the unit circle")
    case, idx = min(cert.case_tags, key=lambda tag: tag[1])
    block = dec.blocks[idx]
    offset = dec.block_offsets()[idx]
    pair = block.kind is BlockKind.COMPLEX_PAIR
    uses_cone = not (case in ("C", "D") and block.size == 1)
    return ShrinkingFamily(
        witness=A,
        decomposition=dec,
        block_index=idx,
        case=case,
        offset=offset,
        rows=block.rows,
        uses_cone=uses_cone,
        pair=pair,
        basis_inv=np.linalg.inv(dec.conjugator),
    )


def _norms(rows):
    """Norm of each column of a (k, n) array, squares summed in order down the rows."""
    total = rows[0] * rows[0]
    for row in rows[1:]:  # np.add.reduce sums one column of 8+ rows pairwise
        total = total + row * row
    return np.sqrt(total)


def _tail(fam, yb):
    """Size of the block rows' final coordinate, or final pair for a pair block."""
    return _norms(yb[-2:]) if fam.pair else np.abs(yb[-1])


def _in_family(fam: ShrinkingFamily, t, yb) -> np.ndarray:
    """Membership in D_t of points given as the tagged block's rows (rows, n)."""
    # closed sets: let boundary points in despite roundoff
    slack = 1.0 + 1e-12
    if fam.uses_cone:
        return _tail(fam, yb) <= fam.param(t) * _norms(yb) * slack
    return _norms(yb) <= fam.param(t) * slack


def contains_many(fam: ShrinkingFamily, t, points) -> np.ndarray:
    """Vectorized membership of an (n, d) array in D_t (closed: boundary in)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != fam.dim:
        raise DimensionMismatch(f"points must have dimension {fam.dim}")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteInput("points must be finite")  # D_t is unbounded
    inv = fam.basis_inv[fam.offset:fam.offset + fam.rows]
    # block rows of T^-1 x in column order: the same bits alone as in a batch
    yb = inv[:, :1] * pts[:, 0]
    for j in range(1, fam.dim):
        yb += inv[:, j:j + 1] * pts[:, j]
    return _in_family(fam, t, yb)


def contains(fam: ShrinkingFamily, t, x) -> bool:
    return bool(contains_many(fam, t, np.asarray(x, dtype=float)[None, :])[0])


def _sample_in_family(fam, t, n, rng, tail_floor=0.01, max_tries=1000):
    """Points of D_t as a contiguous (rows, n) array of the tagged block's rows.

    D_t is sampled in the tagged block's coordinates, the only ones its
    membership reads.  Ball families draw uniformly in the ball of
    radius eps(t) so the sample reaches the boundary, which the exact
    lag check for contracting diagonal blocks needs.

    Cone families reject Gaussian draws (membership is scale-invariant)
    onto a compact section of the cone: samples with tail fraction below
    tail_floor are excluded.  Points on the invariant hyperplane tail = 0
    stay in every cone member forever, but trajectories started
    arbitrarily close to it exit transiently around h ~ 1/(tail
    fraction), so absorption is uniform only on sections bounded away
    from the hyperplane.
    """
    if not fam.uses_cone:
        y = rng.standard_normal((fam.rows, n))
        radii = fam.param(t) * rng.random(n) ** (1.0 / fam.rows)
        return y * (radii / _norms(y))
    rho = fam.param(t)
    tail_floor = min(tail_floor, 0.5 * rho)
    out = []
    got = 0
    for _ in range(max_tries):
        y = rng.standard_normal((fam.rows, max(4 * n, 256)))
        frac = _tail(fam, y) / _norms(y)
        out.append(y[:, (frac <= rho) & (frac >= tail_floor)])
        got += out[-1].shape[1]
        if got >= n:
            break
    if got < n:
        raise SamplingFailure("rejection sampling failed to fill the sample")
    return np.ascontiguousarray(np.hstack(out)[:, :n])


def absorption_lag(fam: ShrinkingFamily, t_small, t_large, n_samples=10_000,
                   h_max=200, seed=0):
    """Smallest h0 with A^h D_{t_large} samples inside D_{t_small} for h >= h0.

    Returns (h0, violations); violations counts (sample, h) failures at
    or beyond the reported h0 and is zero by construction.  Raises
    NotReached when h_max is insufficient.

    D_t is sampled and stepped in the tagged block's own coordinates:
    it is defined through the decomposition's T, so the block K of
    T^-1 A T is the map it is about.
    """
    if not 0 < t_small <= t_large < math.inf:
        raise InvalidArgument("need 0 < t_small <= t_large < inf")
    if n_samples < 1 or h_max < 0:
        raise InvalidArgument("need n_samples >= 1 and h_max >= 0")
    if t_small == t_large:
        return 0, 0  # D_t'' is a subset of D_t' already; monotone convention
    rng = _rng.stream(seed, "absorption")
    cur = _sample_in_family(fam, t_large, n_samples, rng)
    K = fam.decomposition.blocks[fam.block_index].materialize()
    member = np.empty((h_max + 1, n_samples), dtype=bool)
    for h in range(h_max + 1):
        member[h] = _in_family(fam, t_small, cur)
        if h < h_max:
            cur = K @ cur
    fails = ~member
    last_fail = np.where(fails.any(axis=0),
                         h_max - np.argmax(fails[::-1], axis=0), -1)
    h0 = int(last_fail.max()) + 1
    if h0 > h_max:
        raise NotReached(f"absorption not reached within h_max={h_max}")
    violations = int(fails[h0:].sum())
    return h0, violations


def null_boundary_check(fam: ShrinkingFamily, n_samples=100_000,
                        bounding_box=None, seed=0,
                        t_union=1e6, t_intersection=1e-6):
    """(frac_outside_union, frac_in_intersection) via extreme-t proxies.

    Uniform samples in the box; the fraction outside D_{t_union}
    approximates the measure missing from the union, the fraction inside
    D_{t_intersection} approximates the measure of the intersection.
    Both target Lebesgue-null limit sets, so both fractions should be
    small (up to the proxy gap).
    """
    if n_samples < 1:
        raise InvalidArgument("need n_samples >= 1")
    if bounding_box is None:
        bounding_box = np.column_stack([-np.ones(fam.dim), np.ones(fam.dim)])
    bounding_box = np.asarray(bounding_box, dtype=float)
    if bounding_box.shape != (fam.dim, 2):
        raise DimensionMismatch(f"bounding box must have shape ({fam.dim}, 2)")
    if not np.all(np.isfinite(bounding_box)):
        raise NonFiniteInput("bounding box entries must be finite")
    if np.any(bounding_box[:, 1] <= bounding_box[:, 0]):
        raise InvalidArgument("bounding box must have positive volume")
    rng = _rng.stream(seed, "nullcheck")
    pts = bounding_box[:, 0] + rng.random((n_samples, fam.dim)) * (
        bounding_box[:, 1] - bounding_box[:, 0])
    frac_outside = 1.0 - float(contains_many(fam, t_union, pts).mean())
    frac_inside = float(contains_many(fam, t_intersection, pts).mean())
    return frac_outside, frac_inside
