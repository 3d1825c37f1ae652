"""Parallelotope regions, Lebesgue measure, and linear transformation.

A Region is a finite union of linear images of axis-aligned boxes.
Volumes are exact: |det M| times the box volume, summed over the pieces
of a region flagged disjoint.  A piece whose frame is a signed
permutation times a diagonal is itself an axis box; families of such
pieces get an exact sweep-grid atomization.  Exact overlaps take one loop
over the piece pairs whose bounds meet: two axis boxes add the product of
their common intervals, any other planar pair clips its bounded piece
against the finite half-planes of the other (Sutherland-Hodgman).  Overlaps
in d >= 3 with other frames, and the atoms of any family that is not all
axis boxes, are Monte Carlo, in a sample box that must be finite.

Monte Carlo points are stratified, and they are drawn, classified and
counted one block of strata at a time, about BLOCK_POINTS points a block,
so no array of the whole sample is built.  Each block is drawn as d
contiguous rows of coordinates.  A row of strata along axis 0 holds its
points between known bounds, so each piece is compared only on the rows
its reach meets: its first-axis interval if it is an axis box, else its
bounds widened by a proven rounding pad (Piece._reach_terms).  An atom's
signature is coded as one integer per point; up to 16 regions (2**count
codes no more than a block) each block's codes are counted by
np.bincount, and wider families gather all the codes for np.unique.

Membership is closed at every face.  Two or more axis boxes of a region
are painted once on a table of the faces and cells their endpoints cut:
each box marks its corners in a difference array, and cumulative sums
along every axis count the boxes over each element.  Up to TABLE_POINTS
points per box are looked up in it by one searchsorted pass per axis,
more points are compared box by box.  Any other piece maps points to box
coordinates through its inverse frame, computed once, summing each
coordinate over the columns in a fixed order, so that a point's answer
does not depend on the other points it is tested with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce

import numpy as np

from . import rng as _rng
from .errors import (
    ConfigError,
    DimensionMismatch,
    InvalidArgument,
    LevymixError,
    NonFiniteInput,
    NotAxisAligned,
    OverlapUnknown,
    SingularMatrix,
    UnboundedRegion,
)
from .matrices import _count, as_matrix, matrix_to_json

TABLE_SIZE_CAP = 1 << 20  # elements of a region's membership table
TABLE_POINTS = 128  # a table is read for up to this many points per axis box
BLOCK_POINTS = 1 << 16  # Monte Carlo points drawn, classified and counted at a time


def _columns(points, d):
    """An (n, d) array of points, or one point, as d contiguous rows."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DimensionMismatch(
            f"points must form an (n, {d}) array, got shape {pts.shape}")
    return np.ascontiguousarray(pts.T)


def _cuts(ivs):
    """Sorted distinct endpoints per axis of a (k, d, 2) interval array."""
    return [np.array(sorted(set(a.ravel().tolist()))) for a in ivs.swapaxes(0, 1)]


def _paint(intervals, cuts):
    """Table of the elements that closed boxes with endpoints among the cuts
    cover: 2j + 1 is the face at cut j, 2j + 2 the open cell after it, the
    count searchsorted(edges, x, "right") gives for edges (cut, float up).
    Each box adds +-1 at its 2**d corners of an int32 difference array, one
    past the box on each upper side; a cumsum along every axis then counts
    the boxes over each element."""
    shape = tuple(2 * len(c) + 1 for c in cuts)
    ends = np.stack([2 * np.searchsorted(c, intervals[:, k]) + 1
                     for k, c in enumerate(cuts)], axis=1)
    upper = np.indices((2,) * len(cuts)).reshape(len(cuts), -1)
    corners = tuple((ends[:, k, up] + up).ravel() for k, up in enumerate(upper))
    signs = np.where(upper.sum(axis=0) % 2, -1, 1).astype(np.int32)
    count = np.zeros(tuple(n + 1 for n in shape), dtype=np.int32)
    np.add.at(count, corners, np.tile(signs, len(ends)))
    for k in range(len(cuts)):
        np.cumsum(count, axis=k, out=count)
    return count[tuple(slice(n) for n in shape)] > 0


def _ordered_product(a, cols):
    """a @ cols, each entry summed over the columns of a in order, so that
    a point's entries do not depend on the other points of cols."""
    out = a[:, :1] * cols[0]
    term = np.empty_like(out)
    for j in range(1, a.shape[1]):
        out += np.multiply(a[:, j:j + 1], cols[j], out=term)
    return out


@dataclass(frozen=True)
class Piece:
    frame: np.ndarray  # d x d, piece is frame @ box
    box: np.ndarray    # d x 2 array of [lo, hi]

    def __post_init__(self):
        object.__setattr__(self, "frame", as_matrix(self.frame))
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] != self.frame.shape[0]:
            raise DimensionMismatch("box must be a d x 2 interval array")
        if np.isnan(box).any():
            raise NonFiniteInput("box entries must not be NaN")
        if (box[:, 0] > box[:, 1]).any():
            raise InvalidArgument("interval lo must not exceed hi")
        object.__setattr__(self, "box", box)

    @cached_property
    def _intervals(self):
        # frame @ box is an axis box iff the frame is a signed permutation
        # times a diagonal: one entry above 1e-12 max|frame| per row and column
        a = np.abs(self.frame)
        big = a > 1e-12 * a.max()
        if not ((big.sum(axis=0) == 1).all() and (big.sum(axis=1) == 1).all()):
            return None
        cols = big.argmax(axis=1)
        scale = self.frame[np.arange(len(cols)), cols]
        return np.sort(scale[:, None] * self.box[cols], axis=1)

    @property
    def dim(self):
        return self.frame.shape[0]

    def volume(self):
        widths = self.box[:, 1] - self.box[:, 0]
        if not widths.all():
            return 0.0  # a flat box, even one with an infinite side
        return abs(float(np.linalg.det(self.frame))) * float(np.prod(widths))

    def is_axis_aligned(self):
        return self._intervals is not None

    def intervals(self):
        """Per-axis [lo, hi] of the mapped box; axis-aligned pieces only."""
        if self._intervals is None:
            raise NotAxisAligned("piece frame is not a signed permutation")
        return self._intervals

    def bounds(self):
        """Per-axis [lo, hi] of the smallest axis box holding the piece: from
        its corners if bounded, else the sums of the terms frame[i, j] * box[j]."""
        if self._intervals is not None:
            return self._intervals
        if np.isfinite(self.box).all():
            corners = self.corners()
            return np.column_stack([corners.min(axis=0), corners.max(axis=0)])
        F = self.frame[:, :, None]  # a zero entry adds no term, and no 0 * inf
        terms = np.multiply(F, self.box, where=F != 0, out=np.zeros(F.shape[:2] + (2,)))
        return np.sort(terms, axis=2).sum(axis=1)

    @cached_property
    def _inverse(self):
        """The inverse frame, computed once; SingularMatrix if there is none."""
        try:
            return np.linalg.inv(self.frame)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("piece frame is singular") from exc

    def contains(self, points):
        """Boolean membership for an (n, d) array of points.

        The bounds are closed.  An axis box compares the coordinates with
        its intervals; any other piece maps the points to box coordinates
        through its cached inverse frame, and a singular frame raises
        SingularMatrix.  Points of another dimension raise
        DimensionMismatch.
        """
        return self._contains_columns(_columns(points, self.dim))

    def _contains_columns(self, cols):
        """Membership of the points given as d rows of coordinates."""
        bounds = self._intervals
        if bounds is None:
            with np.errstate(over="ignore", invalid="ignore"):  # NaN compares False
                cols, bounds = _ordered_product(self._inverse, cols), self.box
        out = np.ones(cols.shape[1], dtype=bool)
        for row, (lo, hi) in zip(cols, bounds):
            out &= (row >= lo) & (row <= hi)
        return out

    @cached_property
    def _reach_terms(self):
        """[lo, hi, c, w...]: the points x with |x| <= M (per axis) that
        _contains_columns accepts have x[0] in [lo - pad, hi + pad], where
        pad = c + w.M.

        An axis box compares x[0] with its interval, so c = w = 0.  For a
        frame F with computed inverse G, u = 2**-53 and g = d u / (1 - d u),
        the column sum y' of Gx is within e = g |G|M of y = Gx, so y lies in
        the box widened by e (Bv its largest |entry| per axis).  Then
        x = Fy - (FG - I)x, whose first coordinate is within
        (|F|e)[0] + (|FG - I|M)[0] of F's image of the box, and the computed
        corners bounds() are within g (|F|Bv)[0] of the exact ones.  With
        |FG - I| <= |fl(FG) - I| + g |F||G| the pad is at most
        g (|F|Bv)[0] + (2 g |F||G| + |fl(FG) - I|)[0].M, barring underflow;
        four times it covers the rounding of the pad and of lo - pad.
        """
        d = self.dim
        if self._intervals is not None:
            return np.concatenate([self._intervals[0], np.zeros(d + 1)])
        if not np.all(np.isfinite(self.box)):
            return np.concatenate([[-np.inf, np.inf], np.zeros(d + 1)])
        F, G = np.abs(self.frame), self._inverse
        g = d * 2.0**-53 / (1 - d * 2.0**-53)
        c = 4 * g * (F[0] @ np.abs(self.box).max(axis=1))
        w = 4 * (2 * g * (F[0] @ np.abs(G)) + np.abs(self.frame @ G - np.eye(d))[0])
        return np.concatenate([self.bounds()[0], [c], w])

    def corners(self):
        d = self.dim
        grid = np.stack(np.meshgrid(*[self.box[k] for k in range(d)],
                                    indexing="ij"), axis=-1).reshape(-1, d)
        return grid @ self.frame.T

    def polygon(self):
        """The four corners of a planar piece in cyclic order."""
        (lo0, hi0), (lo1, hi1) = self.box
        return np.array([[lo0, lo1], [lo0, hi1], [hi0, hi1], [hi0, lo1]]) @ self.frame.T

    @cached_property
    def _halfplanes(self):
        """Pairs (a, b) whose half-spaces a.x <= b cut out the piece:
        (F^-1)_k.x <= hi_k and -(F^-1)_k.x <= -lo_k for each finite bound."""
        inv, box = self._inverse, self.box
        pairs = zip(np.vstack([inv, -inv]), np.concatenate([box[:, 1], -box[:, 0]]))
        return [(a, b) for a, b in pairs if b < np.inf]


@dataclass(frozen=True)
class Region:
    pieces: tuple
    disjoint: bool = True

    def __post_init__(self):
        pieces = tuple(p if isinstance(p, Piece) else Piece(*p)
                       for p in self.pieces)
        if not pieces:
            raise InvalidArgument("region needs at least one piece")
        d = pieces[0].dim
        if any(p.dim != d for p in pieces):
            raise DimensionMismatch("pieces have mixed dimensions")
        object.__setattr__(self, "pieces", pieces)

    @property
    def dim(self):
        return self.pieces[0].dim

    @cached_property
    def _axis_table(self):
        """(edges, _paint table, other pieces) if 2+ axis pieces fit the cap."""
        axis = [p._intervals for p in self.pieces if p._intervals is not None]
        cuts = _cuts(np.stack(axis)) if len(axis) > 1 else ()
        if not cuts or np.prod([2.0 * len(c) + 1 for c in cuts]) > TABLE_SIZE_CAP:
            return None
        ups = [np.where(np.isposinf(c), np.nan, np.nextafter(c, np.inf)) for c in cuts]
        return ([np.column_stack(e).ravel() for e in zip(cuts, ups)],
                _paint(np.stack(axis), cuts),
                tuple(p for p in self.pieces if p._intervals is None))

    def contains(self, points):
        """Boolean membership for an (n, d) array of points; see Piece.contains."""
        return self._contains_columns(_columns(points, self.dim))

    def _contains_columns(self, cols, spans=None):
        """Membership of the points given as d rows of coordinates.  A table
        read costs tens of box compares per point, so few points use it.
        Given the `spans` of a block of strata, each piece is compared only
        on the rows of strata that its reach meets."""
        n = cols.shape[1]
        out, pieces = np.zeros(n, dtype=bool), self.pieces
        axis = self._axis_table
        if axis and n <= TABLE_POINTS * (len(pieces) - len(axis[2])):
            edges, table, pieces = axis
            out = table[tuple(np.searchsorted(e, x, "right")
                              for e, x in zip(edges, cols))]
            spans = None  # few points: compare the other pieces on all
        spans = [(0, n)] * len(pieces) if spans is None else spans(self._reach_terms)
        for p, (start, stop) in zip(pieces, spans):
            if start < stop:
                out[start:stop] |= p._contains_columns(cols[:, start:stop])
        return out

    @cached_property
    def _reach_terms(self):
        """The pieces' Piece._reach_terms, one row each."""
        return np.stack([p._reach_terms for p in self.pieces])

    def bounding_box(self):
        return _hull(self.pieces)

    def is_axis_aligned(self):
        return all(p.is_axis_aligned() for p in self.pieces)

    def to_json(self):
        return {
            "pieces": [{"frame": matrix_to_json(p.frame)["rows"],
                        "box": p.box.tolist()} for p in self.pieces],
            "disjoint": self.disjoint,
        }

    @staticmethod
    def from_json(obj):
        """Region from {"box": [[lo, hi], ...]} or a to_json() object."""
        if not isinstance(obj, dict) or not {"box", "pieces"} & obj.keys():
            raise ConfigError("region: expected a box or pieces object")
        disjoint = obj.get("disjoint", True)
        if not isinstance(disjoint, bool):
            raise ConfigError(f"region: disjoint must be true or false, got {disjoint!r}")
        try:
            if "box" in obj:
                return box_region(obj["box"])
            pieces = [Piece(np.asarray(e["frame"], dtype=float),
                            np.asarray(e["box"], dtype=float))
                      for e in obj["pieces"]]
            return Region(tuple(pieces), disjoint=disjoint)
        except (LevymixError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"region: {exc}") from exc


def box_region(bounds):
    """Axis-aligned box region from a d x 2 interval array."""
    bounds = np.asarray(bounds, dtype=float)
    return Region((Piece(np.eye(bounds.shape[0]), bounds),))


def unit_box(d):
    return box_region(np.column_stack([np.zeros(d), np.ones(d)]))


def _hull(pieces):
    """Per-axis [lo, hi] of the smallest axis box holding every piece."""
    b = np.stack([p.bounds() for p in pieces])
    return np.column_stack([b[:, :, 0].min(axis=0), b[:, :, 1].max(axis=0)])


def _spans(lows, tops, width, mag, terms):
    """(start, stop) of the points in the rows of strata that each piece's
    reach meets, empty when it meets none.  Row r holds `width` consecutive
    points whose first coordinates lie in [lows[r], tops[r]], no coordinate
    exceeds `mag` (per axis) in size, and `terms` holds the pieces'
    Piece._reach_terms as rows."""
    pad = terms[:, 2] + terms[:, 3:] @ mag
    start = np.searchsorted(tops, terms[:, 0] - pad, "left") * width
    stop = np.searchsorted(lows, terms[:, 1] + pad, "right") * width
    return zip(start.tolist(), stop.tolist())


def _strata(n, d):
    """(s, m): s the largest integer with 2 s**d <= n (at least 1), found
    by bisection in integers, and m = max(n // s**d, 2) points in each of
    the s**d strata.  So n / 2 < s**d m <= n for n >= 2, and at least two
    points in each stratum give a variance; n = 100 000 in the plane gives
    223**2 strata of two, 99 458 points.  n must be an integer of at least
    1, else InvalidArgument."""
    n = _count(n, "n", least=1)
    s, top = 1, 1 << ((n // 2).bit_length() // d + 1)  # 2 top**d > n
    while top - s > 1:  # 2 s**d <= n (or s = 1) < 2 top**d
        mid = (s + top) // 2
        s, top = (mid, top) if 2 * mid**d <= n else (s, mid)
    return s, max(n // s**d, 2)


def _stratified_blocks(bounds, n, rng):
    """More than n / 2 and at most n stratified-uniform points in the box
    `bounds` (two for n = 1): m in each of s**d strata, (s, m) =
    _strata(n, d).  Returns (s**d, m, blocks): blocks yields (points,
    spans) for whole rows of strata along axis 0 at a time, at most
    BLOCK_POINTS points or else one row.  The strata come in ij order, m
    points each, drawn in that order, so the blocks concatenate to the
    same points whatever their size.  Each draw is scaled as it is
    transposed to d contiguous rows of coordinates, then shifted one axis
    at a time: u * scale + low, rounded as before the transpose.  So row r
    of strata has first coordinates in [low_r, fl(low_r + scale)], and
    spans(terms) is _spans over those extents: the points
    Region._contains_columns must compare for each piece (None for an
    unbounded box, which culls none)."""
    d = bounds.shape[0]
    s, m = _strata(n, d)
    width = s ** (d - 1) * m  # points in one row of strata
    step = max(BLOCK_POINTS // width, 1)  # rows of strata per block
    scale = (bounds[:, 1] - bounds[:, 0]) / s
    lows = [np.linspace(bounds[k, 0], bounds[k, 1], s + 1)[:-1] for k in range(d)]
    tops = lows[0] + scale[0]
    mag = 2.0 * np.abs(bounds).max(axis=1)  # above every coordinate drawn
    cull = bool(np.all(np.isfinite(mag)))  # a pad needs a finite box
    # along axis k >= 1 the low corners repeat with period s**(d - k) * m
    # points, the stratum's own corner held for its s**(d - 1 - k) * m
    shifts = [np.repeat(lows[k], s ** (d - 1 - k) * m) for k in range(1, d)]

    def blocks():
        for first in range(0, s, step):
            rows = slice(first, min(first + step, s))
            size = (rows.stop - first) * width
            cols = np.multiply(rng.random((size, d)).T, scale[:, None],
                               out=np.empty((d, size)))
            cells = cols[0].reshape(-1, width)
            cells += lows[0][rows, None]
            for col, shift in zip(cols[1:], shifts):
                cells = col.reshape(-1, len(shift))
                cells += shift
            yield cols, (partial(_spans, lows[0][rows], tops[rows], width, mag)
                         if cull else None)

    return s**d, m, blocks()


def _stratified_hits(bounds, inside, n, seed, label):
    """(value, stderr) of the measure of {inside} within the box `bounds`,
    by stratified hit counting on the stream (seed, label), one block of
    strata at a time."""
    vbox = float(np.prod(bounds[:, 1] - bounds[:, 0]))
    rng = _rng.stream(seed, label)
    k, m, blocks = _stratified_blocks(bounds, n, rng)
    p_hat = np.concatenate([inside(cols, spans).reshape(-1, m).mean(axis=1)
                            for cols, spans in blocks])
    est = vbox * float(p_hat.mean())
    var = float(np.sum(p_hat * (1 - p_hat) / (m - 1))) / k**2
    return est, vbox * float(np.sqrt(var))


def volume(region: Region) -> float:
    """Exact Lebesgue measure of the region: the sum of its per-piece
    volumes, which requires the disjoint flag."""
    if not region.disjoint:
        raise OverlapUnknown("exact volume requires disjoint pieces")
    return sum(p.volume() for p in region.pieces)


def transform(g, region: Region) -> Region:
    """Image of the region under the linear map g."""
    g = as_matrix(g)
    if abs(np.linalg.det(g)) < 1e-12:
        raise SingularMatrix("transform requires an invertible matrix")
    return Region(tuple(Piece(g @ p.frame, p.box) for p in region.pieces),
                  disjoint=region.disjoint)


def clip_polygon(poly, a, b):
    """Part of the convex polygon `poly` (one vertex per row) where a.x <= b."""
    f = poly @ a - b
    inside = (f <= 0).tolist()
    out = []
    for k in range(len(poly)):
        if inside[k] != inside[k - 1]:
            out.append(poly[k - 1] + f[k - 1] / (f[k - 1] - f[k])
                       * (poly[k] - poly[k - 1]))
        if inside[k]:
            out.append(poly[k])
    return np.array(out).reshape(-1, 2)


def clipped_area(poly, halfplanes):
    """Area of the part of the convex polygon `poly` where a.x <= b for
    every (a, b) of `halfplanes`: clipped in turn, then the shoelace sum."""
    for a, b in halfplanes:
        poly = clip_polygon(poly, a, b)
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def _overlap(r1: Region, r2: Region):
    """Exact measure of r1 n r2 (both flagged disjoint) over piece pairs whose
    bounds meet: axis boxes add the product of their common intervals, a
    bounded planar piece its volume if the other is the plane, else its area
    clipped to the other's half-planes.  UnboundedRegion if it may be infinite."""
    total = 0.0
    bounds2 = [p2.bounds() for p2 in r2.pieces]
    for p1 in r1.pieces:
        b1 = p1.bounds()
        for p2, b2 in zip(r2.pieces, bounds2):
            lo = np.maximum(b1[:, 0], b2[:, 0])
            hi = np.minimum(b1[:, 1], b2[:, 1])
            if (hi <= lo).any():
                continue  # bounds do not meet
            axis = p1.is_axis_aligned() and p2.is_axis_aligned()
            clip, cut = (p1, p2) if np.isfinite(p1.box).all() else (p2, p1)
            if not np.isfinite(hi - lo if axis else clip.box).all():
                raise UnboundedRegion("two pieces may meet in an unbounded set")
            if axis:
                total += float(np.prod(hi - lo))
            elif np.isinf(cut.box).all():
                total += clip.volume()  # the plane cuts nothing
            else:
                total += clipped_area(clip.polygon(), cut._halfplanes)
    return float(total)


def intersection_volume(r1: Region, r2: Region, method="auto",
                        n=100_000, seed=0):
    """(value, stderr) of the measure of the intersection of two regions.

    "axis" is exact for axis-aligned regions; "mc" samples at most n points,
    more than n / 2 (_stratified_blocks), in the bounding box of r1, and
    raises UnboundedRegion if it is not finite.  "auto" is exact when both
    regions are flagged disjoint and either both are axis-aligned or
    d = 2, else Monte Carlo.  Exact overlaps sum over piece
    pairs (_overlap), so "axis" raises OverlapUnknown without both flags.
    """
    if r1.dim != r2.dim:
        raise DimensionMismatch("regions have different dimensions")
    if method not in ("auto", "axis", "mc"):
        raise InvalidArgument(f"unknown method {method!r}")
    disjoint = r1.disjoint and r2.disjoint
    axis = r1.is_axis_aligned() and r2.is_axis_aligned()
    if method == "axis":
        if not axis:
            raise NotAxisAligned("axis-exact overlap needs axis-aligned frames")
        if not disjoint:
            raise OverlapUnknown("exact overlap requires disjoint pieces")
    if method == "mc" or not (disjoint and (axis or r1.dim == 2)):
        return _stratified_hits(
            _common_bounding_box([r1]),
            lambda c, spans: (r1._contains_columns(c, spans)
                              & r2._contains_columns(c, spans)),
            n, seed, "overlap")
    return _overlap(r1, r2), 0.0


# ---------------------------------------------------------------------------
# atomization


@dataclass(frozen=True)
class AtomTable:
    """Disjoint cells generated by a finite region family.

    Each atom is identified by its membership signature, a tuple of
    booleans (one per input region).  Measures are exact for the sweep
    path and Monte Carlo estimates otherwise; the all-False complement
    atom is included so measures sum to the bounding-box volume.
    """

    signatures: tuple          # of tuples of bool
    measures: np.ndarray
    stderrs: np.ndarray
    bounding_box: np.ndarray
    exact: bool

    def region_measure(self, region_index):
        mask = [sig[region_index] for sig in self.signatures]
        return float(self.measures[mask].sum()), float(
            np.sqrt((self.stderrs[mask] ** 2).sum()))

    def atoms_of_region(self, region_index):
        return [i for i, sig in enumerate(self.signatures) if sig[region_index]]


def _common_bounding_box(regions):
    if any(r.dim != regions[0].dim for r in regions):
        raise DimensionMismatch("regions have mixed dimensions")
    bounds = _hull([p for r in regions for p in r.pieces])
    if not np.all(np.isfinite(bounds)):
        raise UnboundedRegion("regions do not admit a finite bounding box")
    return bounds


def _codes(members, count):
    """Codes of a block of points.  `members` yields one boolean array per
    region, `count` in all, and each is folded in as it comes: every run of
    up to 64 regions makes one word per point, region 0 most significant,
    in the narrowest unsigned dtype, so codes sort as signatures do."""
    words = []
    for i, member in enumerate(members):
        if i % 64 == 0:
            width = (1 << min(64, count - i)) - 1
            words.append(np.zeros(len(member), np.min_scalar_type(width)))
        words[-1] <<= 1
        words[-1] |= member
    return words


def _signature_sums(code_blocks, count, weights=None):
    """Signatures in descending order, with the number of points (or the
    sum of their weights, in point order) carrying each, as floats.
    `code_blocks` yields the _codes of one block of points after another.
    While the 2**count codes fit in one block, np.bincount counts each
    block into a table of them, and no array of all the codes is built; a
    wider family concatenates its codes and finds them by np.unique."""
    size = 1 << count
    if size <= BLOCK_POINTS:
        hits, sums, start = np.zeros(size, np.intp), np.zeros(size), 0
        for (code,) in code_blocks:
            hits += np.bincount(code, minlength=size)
            if weights is not None:
                sums += np.bincount(code, weights[start:start + len(code)], size)
            start += len(code)
        uniq = np.flatnonzero(hits)
        sums = (hits if weights is None else sums)[uniq]
        uniq = uniq[:, None]
    else:
        words = [np.concatenate(word) for word in zip(*code_blocks)]
        if len(words) == 1:
            uniq, inverse = np.unique(words[0], return_inverse=True)
            uniq = uniq[:, None]
        else:  # rows of words, compared lexicographically
            uniq, inverse = np.unique(np.stack(words, axis=1), axis=0,
                                      return_inverse=True)
        sums = np.bincount(inverse, weights=weights)
    i = np.arange(count)
    shift = np.minimum(64, count - i // 64 * 64) - 1 - i % 64
    bits = (uniq[::-1][:, i // 64] >> shift.astype(uniq.dtype)) & 1
    return tuple(map(tuple, (bits == 1).tolist())), sums.astype(float)[::-1]


def _atomize_axis_exact(regions, bounds):
    # each region painted on the grid of every endpoint, open cells only
    intervals = [np.stack([p.intervals() for p in r.pieces]) for r in regions]
    cuts = _cuts(np.concatenate(intervals))
    cells = (slice(2, -1, 2),) * len(cuts)
    members = (_paint(iv, cuts)[cells].ravel() for iv in intervals)
    cellvol = reduce(np.multiply.outer, [np.diff(c) for c in cuts]).ravel()
    signatures, measures = _signature_sums(
        [_codes(members, len(regions))], len(regions), cellvol)
    return AtomTable(signatures, measures, np.zeros_like(measures),
                     bounds, exact=True)


def atomize(regions, n=100_000, seed=0, method="auto"):
    """AtomTable for the family of regions over their common bounding box.

    method="exact" (axis-aligned families only) paints the regions on the
    endpoint sweep grid by cumulative sums; method="mc" classifies at most
    n stratified-uniform samples, more than n / 2 (_stratified_blocks:
    99 458 at n = 100 000 in the plane), drawn and classified one block of
    strata at a time, each piece only on the rows of strata its reach
    meets; "auto" prefers exact when available.  Signatures are counted by
    np.bincount over their codes up to 16 regions, by np.unique above.
    Every signature that occurs among the samples is an atom, so each MC
    atom has a measure of at least the box volume over the number of
    samples.
    """
    regions = list(regions)
    if method not in ("auto", "exact", "mc"):
        raise InvalidArgument(f"unknown method {method!r}")
    if not regions:
        raise InvalidArgument("atomize needs at least one region, got an empty family")
    bounds = _common_bounding_box(regions)
    if method == "auto":
        method = "exact" if all(r.is_axis_aligned() for r in regions) else "mc"
    if method == "exact":
        return _atomize_axis_exact(regions, bounds)
    vbox = float(np.prod(bounds[:, 1] - bounds[:, 0]))
    rng = _rng.stream(seed, "atomize")
    k, m, blocks = _stratified_blocks(bounds, n, rng)
    n_total = k * m
    signatures, counts = _signature_sums(
        (_codes((r._contains_columns(cols, spans) for r in regions), len(regions))
         for cols, spans in blocks), len(regions))
    p = counts / n_total
    stderrs = vbox * np.sqrt(p * (1 - p) / n_total)
    return AtomTable(signatures, vbox * p, stderrs, bounds, exact=False)
