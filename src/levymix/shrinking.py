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
                     InvalidGenerator, NotReached, SamplingFailure)
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
    """Euclidean norm of each column of a (k, n) array of coordinate rows.

    Bit-equal to np.linalg.norm(rows.T, axis=1) on a row-major copy:
    numpy adds fewer than 8 squares in order along either axis, and from
    8 on sums a row-major axis pairwise, so only then is the copy made.
    """
    if rows.shape[0] >= 8:
        return np.linalg.norm(rows.T.copy(), axis=1)
    return np.sqrt(np.add.reduce(rows * rows, axis=0))


def _in_family(fam: ShrinkingFamily, t, y) -> np.ndarray:
    """Membership in D_t of points given as d Jordan-coordinate rows (d, n)."""
    yb = y[fam.offset:fam.offset + fam.rows]
    # closed sets: let boundary points in despite roundoff
    slack = 1.0 + 1e-12
    if fam.uses_cone:
        tail = _norms(yb[-2:]) if fam.pair else np.abs(yb[-1])
        return tail <= fam.param(t) * _norms(yb) * slack
    return _norms(yb) <= fam.param(t) * slack


def contains_many(fam: ShrinkingFamily, t, points) -> np.ndarray:
    """Vectorized membership of an (n, d) array in D_t (closed: boundary in)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != fam.dim:
        raise DimensionMismatch(f"points must have dimension {fam.dim}")
    return _in_family(fam, t, fam.basis_inv @ np.ascontiguousarray(pts.T))


def contains(fam: ShrinkingFamily, t, x) -> bool:
    return bool(contains_many(fam, t, np.asarray(x, dtype=float)[None, :])[0])


def _sample_in_family(fam, t, n, rng, tail_floor=0.01, max_tries=1000):
    """Points of D_t sampled in Jordan coordinates, mapped through T.

    Ball families draw the block coordinate uniformly in the ball of
    radius eps(t) so the sample reaches the boundary, which the exact
    lag check for contracting diagonal blocks needs.

    Cone families reject unit sphere samples (membership is
    scale-invariant) onto a compact section of the cone: samples with
    tail fraction below tail_floor are excluded.  Points on the
    invariant hyperplane tail = 0 stay in every cone member forever,
    but trajectories started arbitrarily close to it exit transiently
    around h ~ 1/(tail fraction), so absorption is uniform only on
    sections bounded away from the hyperplane.
    """
    if not fam.uses_cone:
        y = rng.standard_normal((n, fam.dim))
        yb = y[:, fam.offset:fam.offset + fam.rows]
        dirs = yb / np.linalg.norm(yb, axis=1, keepdims=True)
        radii = fam.param(t) * rng.random(n) ** (1.0 / fam.rows)
        y[:, fam.offset:fam.offset + fam.rows] = dirs * radii[:, None]
        return y @ fam.decomposition.conjugator.T
    rho = fam.param(t)
    tail_floor = min(tail_floor, 0.5 * rho)
    out = []
    got = 0
    for _ in range(max_tries):
        y = rng.standard_normal((max(4 * n, 256), fam.dim))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        yb = y[:, fam.offset:fam.offset + fam.rows]
        tail = np.linalg.norm(yb[:, -2:], axis=1) if fam.pair \
            else np.abs(yb[:, -1])
        frac = tail / np.linalg.norm(yb, axis=1)
        y = y[(frac <= rho) & (frac >= tail_floor)]
        out.append(y @ fam.decomposition.conjugator.T)
        got += y.shape[0]
        if got >= n:
            break
    if got < n:
        raise SamplingFailure("rejection sampling failed to fill the sample")
    return np.vstack(out)[:n]


def absorption_lag(fam: ShrinkingFamily, t_small, t_large, n_samples=10_000,
                   h_max=200, seed=0):
    """Smallest h0 with A^h D_{t_large} samples inside D_{t_small} for h >= h0.

    Returns (h0, violations); violations counts (sample, h) failures at
    or beyond the reported h0 and is zero by construction.  Raises
    NotReached when h_max is insufficient.

    The sample is stepped by A in the original coordinates and mapped
    to Jordan coordinates at each power, rather than stepped by the
    Jordan matrix: T K T^-1 reproduces A only up to RECONSTRUCTION_TOL,
    and that residual would compound over h_max powers.
    """
    if not 0 < t_small <= t_large < math.inf:
        raise InvalidArgument("need 0 < t_small <= t_large < inf")
    if n_samples < 1 or h_max < 0:
        raise InvalidArgument("need n_samples >= 1 and h_max >= 0")
    if t_small == t_large:
        return 0, 0  # D_t'' is a subset of D_t' already; monotone convention
    rng = _rng.stream(seed, "absorption")
    cur = np.ascontiguousarray(_sample_in_family(fam, t_large, n_samples, rng).T)
    A = fam.witness
    member = np.empty((h_max + 1, n_samples), dtype=bool)
    for h in range(h_max + 1):
        member[h] = _in_family(fam, t_small, fam.basis_inv @ cur)
        if h < h_max:
            cur = A @ cur
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
    if np.any(bounding_box[:, 1] <= bounding_box[:, 0]):
        raise InvalidArgument("bounding box must have positive volume")
    rng = _rng.stream(seed, "nullcheck")
    pts = bounding_box[:, 0] + rng.random((n_samples, fam.dim)) * (
        bounding_box[:, 1] - bounding_box[:, 0])
    frac_outside = 1.0 - float(contains_many(fam, t_union, pts).mean())
    frac_inside = float(contains_many(fam, t_intersection, pts).mean())
    return frac_outside, frac_inside
