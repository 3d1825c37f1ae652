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
                     NonFiniteInput, NotReached, SamplingFailure)
from .matrices import (
    BlockKind,
    _count,
    RealJordanDecomposition,
    as_matrix,
    classify_noncompact_blocks,
    cyclic_closure_compact,
    real_jordan_form,
)
from .regions import BLOCK_POINTS, Piece, Region, _ordered_product


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


def _certified_power(fam, t, yb):
    """H with every column of yb in the cone D_t at every power h >= H.

    On a block lam I + N the tail y_k becomes lam^h y_k and the coordinate
    before it lam^h y_(k-1) + h lam^(h-1) y_k, at least
    |lam|^h (h |y_k| / |lam| - |y_(k-1)|) in size; a pair block reads the
    norms of its last two pairs.  The tail is then at most rho times that
    coordinate once h >= |lam| (|y_(k-1)| + |y_k| / rho) / |y_k|.  Returns
    the largest such bound as a float, inf or NaN where there is none.
    """
    w = 2 if fam.pair else 1
    tail, prev = _norms(yb[-w:]), _norms(yb[-2 * w:-w])
    lam = abs(fam.decomposition.blocks[fam.block_index].eigen)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(lam * (prev + tail / fam.param(t)) / tail))


def absorption_lag(fam: ShrinkingFamily, t_small, t_large, n_samples=10_000,
                   h_max=200, seed=0):
    """Smallest h0 with A^h D_{t_large} samples in D_{t_small} for all h >= h0.

    Returns (h0, 0): h0 is one past the last power at which some sample
    lies outside D_{t_small}, so no (sample, h) fails from h0 on, at any
    power.  A cone family steps the sample only up to the power that
    _certified_power gives, past which every sample stays inside; a ball
    of a contracting size-1 block is forward invariant, so its walk stops
    at the first power with every sample inside.  Raises NotReached when
    h_max bounds neither that power nor that walk.  n_samples >= 1 and
    h_max >= 0 must be integers, else InvalidArgument.

    D_t is sampled and stepped in the tagged block's own coordinates:
    it is defined through the decomposition's T, so the block K of
    T^-1 A T is the map it is about.
    """
    if not 0 < t_small <= t_large < math.inf:
        raise InvalidArgument("need 0 < t_small <= t_large < inf")
    n_samples = _count(n_samples, "n_samples", least=1)
    h_max = _count(h_max, "h_max")
    if t_small == t_large:
        return 0, 0  # D_t'' is a subset of D_t' already; monotone convention
    rng = _rng.stream(seed, "absorption")
    cur = _sample_in_family(fam, t_large, n_samples, rng)
    K = fam.decomposition.blocks[fam.block_index].materialize()
    stop = h_max + 1
    if fam.uses_cone:
        bound = _certified_power(fam, t_small, cur)
        if not bound <= h_max:
            raise NotReached(f"absorption not certified within h_max={h_max}")
        stop = math.ceil(bound)
    h0 = 0
    for h in range(stop):
        if not _in_family(fam, t_small, cur).all():
            h0 = h + 1
        elif not fam.uses_cone:
            return h, 0  # all inside a forward-invariant ball from h on
        cur = K @ cur
    if not fam.uses_cone:
        raise NotReached(f"absorption not reached within h_max={h_max}")
    return h0, 0


def null_boundary_check(fam: ShrinkingFamily, n_samples=100_000, seed=0):
    """(frac_outside_union, frac_in_intersection) via extreme-t proxies.

    Uniform samples in [-1, 1]^d; the fraction outside D_{10^6}
    approximates the measure missing from the union, the fraction inside
    D_{10^-6} approximates the measure of the intersection.  Both target
    Lebesgue-null limit sets, so both fractions should be small (up to
    the proxy gap).  n_samples must be an integer of at least 1.
    """
    n_samples = _count(n_samples, "n_samples", least=1)
    rng = _rng.stream(seed, "nullcheck")
    pts = 2.0 * rng.random((n_samples, fam.dim)) - 1.0
    frac_outside = 1.0 - float(contains_many(fam, 1e6, pts).mean())
    frac_inside = float(contains_many(fam, 1e-6, pts).mean())
    return frac_outside, frac_inside


def family_region(fam: ShrinkingFamily, t) -> Region:
    """D_t as a Region, for a family of the plane with a real block.

    With T the conjugator, a strip |y_off| <= eps is the piece T B, B the
    box [-eps, eps] on row off and R on the other; the cone |y2| <= rho |y|
    is T W [0, inf)^2 u T W (-inf, 0]^2, W = [[c, c], [rho, -rho]] holding
    the unit rays, c = sqrt((1 - rho)(1 + rho)).  The computed T W is
    T (W + E), each column of E under 2 sqrt(2) u kappa (u = 2**-53,
    kappa = |T|_F |T^-1|_F >= cond(T)), so two rays that close may round to
    one.  Where rho <= 8 u kappa, D_t is taken as its null limit, the line
    T (R x {0}), and where c <= 8 u kappa (rho = 1 too) as the plane.  That
    moves the measure of C n D_t by at most 2 arcsin(min(rho, c)) kappa R**2
    for C within radius R of 0, below 16.1 u kappa**2 R**2.  Other families
    raise ApproximationTooCoarse.
    """
    if fam.dim != 2 or fam.pair:
        raise ApproximationTooCoarse("D_t as a region needs d=2 and a real block")
    T, plane = fam.decomposition.conjugator, np.array([[-np.inf, np.inf]] * 2)
    if not fam.uses_cone:
        plane[fam.offset] = [-fam.param(t), fam.param(t)]
        return Region((Piece(T, plane),))
    rho = fam.param(t)
    c = math.sqrt((1.0 - rho) * (1.0 + rho))
    floor = 8 * 2.0**-53 * np.linalg.norm(T) * np.linalg.norm(fam.basis_inv)
    if c <= floor:
        return Region((Piece(np.eye(2), plane),))
    if rho <= floor:
        return Region((Piece(T, [plane[0], [0.0, 0.0]]),))
    frame = T @ np.array([[c, c], [rho, -rho]])
    return Region((Piece(frame, [[0.0, np.inf]] * 2),
                   Piece(frame, [[-np.inf, 0.0]] * 2)))
