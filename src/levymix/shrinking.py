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
from .errors import (ApproximationTooCoarse, CompactClosure, InvalidArgument,
                     InvalidGenerator, NonFiniteInput, NotReached,
                     SamplingFailure)
from .matrices import (
    BlockKind,
    _count,
    _real,
    RealJordanDecomposition,
    as_matrix,
    classify_noncompact_blocks,
    cyclic_closure_compact,
    real_jordan_form,
)
from .regions import BLOCK_POINTS, Piece, Region, _columns, _ordered_product

WALK_BLOCK = 4096  # column-steps that one _in_family call of a cone walk tests


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
        up to about 2^-1024), rho is 0.  t is read by matrices._real.
        """
        t = _real(t, "t", positive=True)
        return 1.0 / (1.0 + 1.0 / t) if self.uses_cone else float(t)


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


def _in_family(fam: ShrinkingFamily, p, yb, exp=0) -> np.ndarray:
    """Membership in D_t, p = fam.param(t), of the tagged block's rows (rows, n).

    Column i stands for its point scaled by 2^exp[i]: cones are
    scale-invariant, and a ball's radius is scaled to match.
    """
    norm = _norms(yb)
    # closed sets: let boundary points in despite roundoff.  A cone's edge
    # moves out by 4 ulps of angle, 2^-51 times its cosine c: never to rho = 1
    if fam.uses_cone:
        edge = p + 2.0**-51 * math.sqrt((1.0 - p) * (1.0 + p))
        return _tail(fam, yb) <= edge * norm
    with np.errstate(over="ignore"):  # a radius past the float range lets all in
        radius = np.ldexp(p * (1.0 + 1e-12), exp)
    return norm <= radius


def _scaled_block_rows(inv, cols):
    """(yb, exp): block rows of the points (d rows) scaled by 2^exp to unit size.

    Membership forms every point's rows this way.  With inv's columns scaled
    to a largest entry in [0.5, 1), each point is scaled so that its largest
    term inv[i, j] * x_j lies below 2^1000: the row sums stay finite, and
    terms 2^2000 times smaller stay normal, so they keep every bit where
    larger ones cancel.  Coordinates the rows do not read are left out.
    The rows are then scaled so that the largest lies in [0.5, 1), which
    keeps their squares from underflowing.  Scaling by 2^k is exact.
    """
    used = np.abs(inv).max(axis=0) > 0
    inv, cols = inv[:, used], cols[used]
    e = np.frexp(np.abs(inv).max(axis=0))[1]
    # a zero point scales to zero; 2000 keeps the scale finite
    first = np.where(cols != 0, np.frexp(cols)[1] + e[:, None], -2000).max(axis=0)
    yb = _ordered_product(np.ldexp(inv, -e),
                          np.ldexp(cols, e[:, None] + (1000 - first)))
    second = np.frexp(np.abs(yb).max(axis=0))[1]
    return np.ldexp(yb, -second), 1000 - first - second


def contains_many(fam: ShrinkingFamily, t, points) -> np.ndarray:
    """Vectorized membership of an (n, d) array in D_t (closed: boundary in).

    Each point is tested at the scale _scaled_block_rows gives its rows.
    A point's answer is the same alone as in any batch, so the points are
    taken BLOCK_POINTS at a time, which keeps the temporaries small.
    """
    p = fam.param(t)
    cols = _columns(points, fam.dim)
    if not np.isfinite(cols).all():
        raise NonFiniteInput("points must be finite")  # D_t is unbounded
    inv = fam.basis_inv[fam.offset:fam.offset + fam.rows]
    out = np.empty(cols.shape[1], dtype=bool)
    for i in range(0, len(out), BLOCK_POINTS):
        scaled = _scaled_block_rows(inv, cols[:, i:i + BLOCK_POINTS])
        out[i:i + BLOCK_POINTS] = _in_family(fam, p, *scaled)
    return out


def contains(fam: ShrinkingFamily, t, x) -> bool:
    return bool(contains_many(fam, t, [x])[0])


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
    """H_i with column i of yb in the cone D_t at every power h >= H_i.

    On a block lam I + N the tail y_k becomes lam^h y_k and the coordinate
    before it lam^h y_(k-1) + h lam^(h-1) y_k, at least
    |lam|^h (h |y_k| / |lam| - |y_(k-1)|) in size; a pair block reads the
    norms of its last two pairs.  The tail is then at most rho times that
    coordinate once h >= |lam| (|y_(k-1)| + |y_k| / rho) / |y_k|.  Returns
    that bound for each column, inf or NaN where there is none.
    """
    w = 2 if fam.pair else 1
    tail, prev = _norms(yb[-w:]), _norms(yb[-2 * w:-w])
    lam = abs(fam.decomposition.blocks[fam.block_index].eigen)
    with np.errstate(divide="ignore", invalid="ignore"):
        return lam * (prev + tail / fam.param(t)) / tail


def absorption_lag(fam: ShrinkingFamily, t_small, t_large, n_samples=10_000,
                   h_max=200, seed=0):
    """Smallest h0 with A^h D_{t_large} samples in D_{t_small} for all h >= h0.

    Returns (h0, 0): h0 is one past the last power at which some sample
    lies outside D_{t_small}, so no (sample, h) fails from h0 on, at any
    power.  A cone family steps each sample only up to its own power
    H_i from _certified_power, past which it stays inside; a ball of a
    contracting size-1 block is forward invariant, so its walk stops at
    the first power with every sample inside.  Raises NotReached when
    h_max bounds neither the largest H_i nor that walk.  t_small is a
    positive real and t_large a real of at least t_small, n_samples >= 1
    and h_max >= 0 are integers, else InvalidArgument.

    D_t is sampled and stepped in the tagged block's own coordinates:
    it is defined through the decomposition's T, so the block K of
    T^-1 A T is the map it is about.
    """
    t_small = _real(t_small, "t_small", positive=True)
    if _real(t_large, "t_large (>= t_small)") < t_small:
        raise InvalidArgument(f"need t_small <= t_large, got {t_small!r}, {t_large!r}")
    n_samples = _count(n_samples, "n_samples", least=1)
    h_max = _count(h_max, "h_max")
    if t_small == t_large:
        return 0, 0  # D_t'' is a subset of D_t' already; monotone convention
    rng = _rng.stream(seed, "absorption")
    cur = _sample_in_family(fam, t_large, n_samples, rng)
    K = fam.decomposition.blocks[fam.block_index].materialize()
    if fam.uses_cone:
        return _cone_lag(fam, t_small, K, cur, h_max), 0
    p_small = fam.param(t_small)
    for h in range(h_max + 1):
        if _in_family(fam, p_small, cur).all():
            return h, 0  # all inside a forward-invariant ball from h on
        cur = K @ cur
    raise NotReached(f"absorption not reached within h_max={h_max}")


def _cone_lag(fam, t, K, cur, h_max):
    """h0 of the walk of cur in D_t: column i is tested below power
    ceil(H_i), H_i its bound from _certified_power.

    Sorted by bound, the columns still to test at power h are a prefix.  A
    block of the next powers of that prefix, at most WALK_BLOCK
    column-steps, is stepped as cur = K @ cur and tested in one _in_family
    call; a column whose bound falls inside the block is tested to its
    end, as the walk over every column would.  At least two columns stay:
    numpy steps one column by a matrix-vector product, whose bits can
    differ from the matrix product's.
    """
    bound, p = _certified_power(fam, t, cur), fam.param(t)
    if not bound.max() <= h_max:  # NaN fails too
        raise NotReached(f"absorption not certified within h_max={h_max}")
    order = np.argsort(-bound, kind="stable")
    stops, cur = np.ceil(bound[order]), cur[:, order]
    h0 = h = 0
    while h < stops[0]:
        live = max(int(np.count_nonzero(stops > h)), min(2, len(stops)))
        steps = int(min(max(1, WALK_BLOCK // live), stops[0] - h))
        block = np.empty((fam.rows, steps, live))
        cur = cur[:, :live]
        for k in range(steps):
            block[:, k] = cur
            cur = K @ cur
        out = np.flatnonzero(~_in_family(fam, p, block).all(axis=1))
        if len(out):
            h0 = h + int(out[-1]) + 1
        h += steps
    return h0


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
    rho = fam.param(t)  # the cone's rho, or a strip's half-width
    T, plane = fam.decomposition.conjugator, np.array([[-np.inf, np.inf]] * 2)
    if not fam.uses_cone:
        plane[fam.offset] = [-rho, rho]
        return Region((Piece(T, plane),))
    c = math.sqrt((1.0 - rho) * (1.0 + rho))
    floor = 8 * 2.0**-53 * np.linalg.norm(T) * np.linalg.norm(fam.basis_inv)
    if c <= floor:
        return Region((Piece(np.eye(2), plane),))
    if rho <= floor:
        return Region((Piece(T, [plane[0], [0.0, 0.0]]),))
    frame = T @ np.array([[c, c], [rho, -rho]])
    return Region((Piece(frame, [[0.0, np.inf]] * 2),
                   Piece(frame, [[-np.inf, 0.0]] * 2)))
