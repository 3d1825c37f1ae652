"""Increasing families of closed sets absorbed by powers of a matrix.

For a matrix whose cyclic closure is non-compact, one tagged Jordan
block supplies a one-parameter family of closed sets D_t (cones around
the final block coordinate, or balls for scalar contracting blocks)
expressed in the Jordan basis and extended by the full space in all
other Jordan coordinates.  The family increases in t, its intersection
and the complement of its union are Lebesgue null, and high powers of
the matrix map D_t'' into D_t' for any t' < t''.
Membership takes one path: each point is scaled by powers of two until
its tagged block rows lie near unit size, so no row or square over- or
underflows, however far the point lies from unit size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import (ApproximationTooCoarse, CompactClosure,
                     DimensionMismatch, InvalidArgument, InvalidGenerator,
                     NonFiniteInput, NotReached, OverlapUnknown,
                     SamplingFailure)
from .matrices import (
    BlockKind,
    RealJordanDecomposition,
    as_matrix,
    classify_noncompact_blocks,
    cyclic_closure_compact,
    real_jordan_form,
)
from .regions import BLOCK_POINTS, Region, _ordered_product, clipped_area


@dataclass(frozen=True)
class ShrinkingFamily:
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
        return self.basis_inv.shape[0]

    def param(self, t):
        """Monotone map from t in (0, inf) to the block-level parameter.

        A cone's rho = 1/(1 + 1/t) takes monotone, correctly rounded steps,
        so D_t increases in t as computed; where 1/t overflows (subnormal t
        up to about 2^-1024), rho is 0.
        """
        t = float(t)
        if not 0 < t < math.inf:
            raise InvalidArgument("t must be positive and finite")
        return 1.0 / (1.0 + 1.0 / t) if self.uses_cone else t


def build_family(A) -> ShrinkingFamily:
    """Shrinking family attached to the first tagged Jordan block of A."""
    A = as_matrix(A)
    if cyclic_closure_compact(A):
        raise CompactClosure("matrix has compact cyclic closure")
    dec = real_jordan_form(A)
    tags = classify_noncompact_blocks(dec)
    if not tags:
        raise InvalidGenerator("|det| > 1: no Jordan block contracts or is "
                               "defective on the unit circle")
    case, idx = tags[0]
    block = dec.blocks[idx]
    pair = block.kind is BlockKind.COMPLEX_PAIR
    uses_cone = not (case in ("C", "D") and block.size == 1)
    return ShrinkingFamily(
        decomposition=dec,
        block_index=idx,
        case=case,
        offset=sum(b.rows for b in dec.blocks[:idx]),
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


def _in_family(fam: ShrinkingFamily, t, yb, exp=0) -> np.ndarray:
    """Membership in D_t of points given as the tagged block's rows (rows, n).

    Column i stands for its point scaled by 2^exp[i]: cones are
    scale-invariant, and a ball's radius is scaled to match.
    """
    norm = _norms(yb)
    # closed sets: let boundary points in despite roundoff
    slack = 1.0 + 1e-12
    if fam.uses_cone:
        return _tail(fam, yb) <= fam.param(t) * norm * slack
    with np.errstate(over="ignore"):  # a radius past the float range lets all in
        radius = np.ldexp(fam.param(t) * slack, exp)
    return norm <= radius


def _scaled_block_rows(inv, pts):
    """(yb, exp): block rows of the (m, d) points scaled by 2^exp to unit size.

    Membership forms every point's rows this way.  Each point is first
    scaled so that its largest term inv[i, j] * x_j lies below 1, which
    keeps the row sums finite; columns the rows do not read are left out,
    so their size does not matter.  The rows are then scaled so that the
    largest lies in [0.5, 1), which keeps their squares from underflowing.
    Scaling by a power of two is exact.
    """
    used = np.abs(inv).max(axis=0) > 0
    inv, pts = inv[:, used], pts[:, used]
    size = np.frexp(pts)[1] + np.frexp(np.abs(inv).max(axis=0))[1]
    # a zero point scales to zero; 2000 keeps the scale finite
    first = np.where(pts != 0, size, -2000).max(axis=1)
    yb = _ordered_product(inv, np.ldexp(pts, -first[:, None]).T)
    second = np.frexp(np.abs(yb).max(axis=0))[1]
    return np.ldexp(yb, -second), -first - second


def _floats(obj, what):
    """obj as a float array; ragged rows or entries that are not numbers raise."""
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"{what} must be an array of numbers: {exc}") from exc


def contains_many(fam: ShrinkingFamily, t, points) -> np.ndarray:
    """Vectorized membership of an (n, d) array in D_t (closed: boundary in).

    Each point is tested at the scale _scaled_block_rows gives its rows.
    A point's answer is the same alone as in any batch, so the points are
    taken BLOCK_POINTS at a time, which keeps the temporaries small.
    """
    pts = np.atleast_2d(_floats(points, "points"))
    if pts.ndim != 2 or pts.shape[1] != fam.dim:
        raise DimensionMismatch(f"points must have dimension {fam.dim}")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteInput("points must be finite")  # D_t is unbounded
    inv = fam.basis_inv[fam.offset:fam.offset + fam.rows]
    out = np.empty(len(pts), dtype=bool)
    for i in range(0, len(pts), BLOCK_POINTS):
        block = pts[i:i + BLOCK_POINTS]
        out[i:i + len(block)] = _in_family(fam, t, *_scaled_block_rows(inv, block))
    return out


def contains(fam: ShrinkingFamily, t, x) -> bool:
    return bool(contains_many(fam, t, np.atleast_1d(_floats(x, "point"))[None, :])[0])


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

    Returns (h0, 0): h0 is one past the last power at which some sample
    lies outside D_{t_small}, so no (sample, h) fails from h0 on.
    Raises NotReached when h_max is insufficient.

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
    h0 = 0
    for h in range(h_max + 1):
        if not _in_family(fam, t_small, cur).all():
            h0 = h + 1
        if h < h_max:
            cur = K @ cur
    if h0 > h_max:
        raise NotReached(f"absorption not reached within h_max={h_max}")
    return h0, 0


def null_boundary_check(fam: ShrinkingFamily, n_samples=100_000, seed=0):
    """(frac_outside_union, frac_in_intersection) via extreme-t proxies.

    Uniform samples in [-1, 1]^d; the fraction outside D_{10^6}
    approximates the measure missing from the union, the fraction inside
    D_{10^-6} approximates the measure of the intersection.  Both target
    Lebesgue-null limit sets, so both fractions should be small (up to
    the proxy gap).
    """
    if n_samples < 1:
        raise InvalidArgument("need n_samples >= 1")
    rng = _rng.stream(seed, "nullcheck")
    pts = 2.0 * rng.random((n_samples, fam.dim)) - 1.0
    frac_outside = 1.0 - float(contains_many(fam, 1e6, pts).mean())
    frac_inside = float(contains_many(fam, 1e-6, pts).mean())
    return frac_outside, frac_inside


def family_overlap(fam: ShrinkingFamily, t, C: Region) -> float:
    """Exact measure of C n D_t for a shrinking family in the plane.

    In Jordan coordinates y = T^-1 x, D_t is the double wedge
    |y2| <= k |y1|, k = rho / sqrt(1 - rho^2), of a size-2 real block,
    or the strip |y_off| <= eps of a real scalar block.  Each convex
    cell of it is cut out by two half-planes, and a.y <= b is
    (a T^-1).x <= b.  Every parallelotope of C is clipped against every
    cell and the areas are summed.
    """
    if fam.dim != 2 or fam.pair or C.dim != 2:
        raise ApproximationTooCoarse("exact C n D_t needs d=2 and a real block")
    if not C.disjoint:
        raise OverlapUnknown("exact overlap requires disjoint pieces")
    if fam.uses_cone:
        rho = fam.param(t)
        k = rho / np.sqrt(1.0 - rho * rho)
        cells = [[(np.array([-side * k, 1.0]), 0.0),
                  (np.array([-side * k, -1.0]), 0.0)] for side in (1.0, -1.0)]
    else:
        e = np.eye(2)[fam.offset]
        cells = [[(e, fam.param(t)), (-e, fam.param(t))]]
    cells = [[(a @ fam.basis_inv, b) for a, b in cell] for cell in cells]
    return float(sum(clipped_area(piece.polygon(), cell)
                     for piece in C.pieces for cell in cells))
