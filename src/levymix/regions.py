"""Parallelotope regions, Lebesgue measure, and linear transformation.

A Region is a finite union of linear images of axis-aligned boxes.
Volumes are exact: |det M| times the box volume, summed over the pieces
of a region flagged disjoint.  A piece whose frame is a signed
permutation times a diagonal is itself an axis box; unions of such
pieces get exact overlaps and an exact sweep-grid atomization.  Overlaps
of other planar pieces are exact too: each piece is clipped against the
four half-planes of the other (Sutherland-Hodgman) and the shoelace areas
are summed.  Overlaps in d >= 3 with other frames, and the atoms of any
family that is not all axis boxes, are Monte Carlo.

Monte Carlo points are stratified, and they are drawn, classified and
counted one block of strata at a time, about BLOCK_POINTS points a block,
so no array of the whole sample is built.  An atom's signature is coded as
one integer per point; up to 16 regions (2**count codes no more than a
block) each block's codes are counted by np.bincount, and wider families
gather all the codes for np.unique.

Membership is closed at every face.  Two or more axis boxes of a region
are painted once on a table of the faces and cells their endpoints cut;
up to TABLE_POINTS points per box are looked up in it by one searchsorted
pass per axis, more points are compared box by box.  Any other piece maps
points to box coordinates through its inverse frame, computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

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
from .matrices import as_matrix, matrix_to_json

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
    count searchsorted(edges, x, "right") gives for edges (cut, float up)."""
    table = np.zeros(tuple(2 * len(c) + 1 for c in cuts), dtype=bool)
    ends = np.stack([2 * np.searchsorted(c, intervals[:, k]) + 1
                     for k, c in enumerate(cuts)], axis=1)
    for box in ends:
        table[tuple(slice(lo, hi + 1) for lo, hi in box)] = True
    return table


@dataclass(frozen=True)
class Piece:
    frame: np.ndarray  # d x d, piece is frame @ box
    box: np.ndarray    # d x 2 array of [lo, hi]

    def __post_init__(self):
        object.__setattr__(self, "frame", as_matrix(self.frame))
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] != self.frame.shape[0]:
            raise DimensionMismatch("box must be a d x 2 interval array")
        if np.any(np.isnan(box)):
            raise NonFiniteInput("box entries must not be NaN")
        if np.any(box[:, 0] > box[:, 1]):
            raise InvalidArgument("interval lo must not exceed hi")
        object.__setattr__(self, "box", box)

    @cached_property
    def _intervals(self):
        # frame @ box is an axis box iff the frame is a signed permutation
        # times a diagonal: one entry above 1e-12 max|frame| per row and column
        a = np.abs(self.frame)
        big = a > 1e-12 * a.max()
        if not (np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1)):
            return None
        cols = big.argmax(axis=1)
        scale = self.frame[np.arange(len(cols)), cols]
        return np.sort(scale[:, None] * self.box[cols], axis=1)

    @property
    def dim(self):
        return self.frame.shape[0]

    def volume(self):
        return abs(float(np.linalg.det(self.frame))) * float(
            np.prod(self.box[:, 1] - self.box[:, 0]))

    def is_axis_aligned(self):
        return self._intervals is not None

    def intervals(self):
        """Per-axis [lo, hi] of the mapped box; axis-aligned pieces only."""
        if self._intervals is None:
            raise NotAxisAligned("piece frame is not a signed permutation")
        return self._intervals

    def bounds(self):
        """Per-axis [lo, hi] of the smallest axis box holding the piece."""
        if self._intervals is not None:
            return self._intervals
        corners = self.corners()
        return np.column_stack([corners.min(axis=0), corners.max(axis=0)])

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
        """Membership of the points given as d contiguous coordinate rows."""
        bounds = self._intervals
        if bounds is None:
            with np.errstate(invalid="ignore"):  # 0 * inf: NaN compares False
                cols, bounds = self._inverse @ cols, self.box
        out = np.ones(cols.shape[1], dtype=bool)
        for row, (lo, hi) in zip(cols, bounds):
            out &= (row >= lo) & (row <= hi)
        return out

    def corners(self):
        d = self.dim
        grid = np.stack(np.meshgrid(*[self.box[k] for k in range(d)],
                                    indexing="ij"), axis=-1).reshape(-1, d)
        return grid @ self.frame.T

    def polygon(self):
        """The four corners of a planar piece in cyclic order."""
        return self.corners()[[0, 1, 3, 2]]

    @cached_property
    def _halfplanes(self):
        """Pairs (a, b) whose half-spaces a.x <= b cut out the piece:
        (F^-1)_k.x <= hi_k and -(F^-1)_k.x <= -lo_k for each axis k."""
        inv = self._inverse
        return list(zip(np.vstack([inv, -inv]),
                        np.concatenate([self.box[:, 1], -self.box[:, 0]])))


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

    def _contains_columns(self, cols):
        """Membership of the points given as d contiguous coordinate rows.  A
        table read costs tens of box compares per point, so few points use it."""
        out, pieces = np.zeros(cols.shape[1], dtype=bool), self.pieces
        axis = self._axis_table
        if axis and cols.shape[1] <= TABLE_POINTS * (len(pieces) - len(axis[2])):
            edges, table, pieces = axis
            out = table[tuple(np.searchsorted(e, x, "right")
                              for e, x in zip(edges, cols))]
        for p in pieces:
            out |= p._contains_columns(cols)
        return out

    def bounding_box(self):
        b = np.stack([p.bounds() for p in self.pieces])
        return np.column_stack([b[:, :, 0].min(axis=0), b[:, :, 1].max(axis=0)])

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
        try:
            if "box" in obj:
                return box_region(obj["box"])
            pieces = [Piece(np.asarray(e["frame"], dtype=float),
                            np.asarray(e["box"], dtype=float))
                      for e in obj["pieces"]]
            return Region(tuple(pieces), disjoint=bool(obj.get("disjoint", True)))
        except (LevymixError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"region: {exc}") from exc


def box_region(bounds):
    """Axis-aligned box region from a d x 2 interval array."""
    bounds = np.asarray(bounds, dtype=float)
    return Region((Piece(np.eye(bounds.shape[0]), bounds),))


def unit_box(d):
    return box_region(np.column_stack([np.zeros(d), np.ones(d)]))


def _stratified_blocks(bounds, n, rng):
    """n to 2n stratified-uniform points in the box `bounds`, so that the
    strata give a variance: m = max(ceil(n / s**d), 2) in each of s**d
    strata, s the largest integer with s**d < n (at least 1); n = 100 000
    in the plane gives 199 712.  Returns (s**d, m, blocks): blocks yields
    the points as d contiguous rows, whole rows of strata along axis 0 at
    a time, at most BLOCK_POINTS points or else one row.  The strata come
    in ij order, m points each, drawn in that order, so the blocks
    concatenate to the same points whatever their size."""
    if not n >= 1:
        raise InvalidArgument(f"need at least one sample point, got n={n}")
    d = bounds.shape[0]
    s = max(int(np.ceil(n ** (1.0 / d))) - 1, 1)
    m = max(int(np.ceil(n / s**d)), 2)
    step = max(BLOCK_POINTS // (s ** (d - 1) * m), 1)  # rows of strata per block
    scale = (bounds[:, 1] - bounds[:, 0]) / s
    lows = [np.linspace(bounds[k, 0], bounds[k, 1], s + 1)[:-1] for k in range(d)]

    def blocks():
        for first in range(0, s, step):
            rows = min(step, s - first)
            pts = rng.random((rows * s ** (d - 1), m, d))
            pts *= scale
            cells = pts.reshape((rows,) + (s,) * (d - 1) + (m, d))
            for k, lo in enumerate(lows):
                lo = lo[first:first + rows] if k == 0 else lo
                cells[..., k] += lo.reshape((1,) * k + (-1,) + (1,) * (d - k))
            yield np.ascontiguousarray(pts.reshape(-1, d).T)

    return s**d, m, blocks()


def _stratified_hits(bounds, inside, n, seed, label):
    """(value, stderr) of the measure of {inside} within the box `bounds`,
    by stratified hit counting on the stream (seed, label), one block of
    strata at a time."""
    vbox = float(np.prod(bounds[:, 1] - bounds[:, 0]))
    rng = _rng.stream(seed, label)
    k, m, blocks = _stratified_blocks(bounds, n, rng)
    p_hat = np.concatenate([inside(cols).reshape(-1, m).mean(axis=1)
                            for cols in blocks])
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
    out = []
    for k in range(len(poly)):
        if (f[k] <= 0) != (f[k - 1] <= 0):
            out.append(poly[k - 1] + f[k - 1] / (f[k - 1] - f[k])
                       * (poly[k] - poly[k - 1]))
        if f[k] <= 0:
            out.append(poly[k])
    return np.array(out).reshape(-1, 2)


def clipped_area(poly, halfplanes):
    """Area of the part of the convex polygon `poly` where a.x <= b for
    every (a, b) of `halfplanes`: clipped in turn, then the shoelace sum."""
    for a, b in halfplanes:
        poly = clip_polygon(poly, a, b)
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def _axis_overlap(r1: Region, r2: Region):
    total = 0.0
    for p1 in r1.pieces:
        iv1 = p1.intervals()
        for p2 in r2.pieces:
            iv2 = p2.intervals()
            lo = np.maximum(iv1[:, 0], iv2[:, 0])
            hi = np.minimum(iv1[:, 1], iv2[:, 1])
            if np.all(hi > lo):
                total += float(np.prod(hi - lo))
    return total


def _planar_overlap(r1: Region, r2: Region):
    total = 0.0
    bounds2 = [p2.bounds() for p2 in r2.pieces]
    for p1 in r1.pieces:
        b1, poly1 = p1.bounds(), p1.polygon()
        for p2, b2 in zip(r2.pieces, bounds2):
            if np.any(np.maximum(b1[:, 0], b2[:, 0])
                      >= np.minimum(b1[:, 1], b2[:, 1])):
                continue  # bounding boxes do not meet
            total += clipped_area(poly1, p2._halfplanes)
    return float(total)


def intersection_volume(r1: Region, r2: Region, method="auto",
                        n=100_000, seed=0):
    """(value, stderr) of the measure of the intersection of two regions.

    "axis" is exact for axis-aligned regions; "mc" samples in the bounding
    box of r1.  "auto" takes the axis sweep when both regions are
    axis-aligned, else clips every planar piece pair exactly when d = 2,
    else Monte Carlo.  The exact paths need both regions' disjoint flag,
    since they sum over piece pairs; without it "axis" raises
    OverlapUnknown and "auto" falls back to Monte Carlo.
    """
    if r1.dim != r2.dim:
        raise DimensionMismatch("regions have different dimensions")
    disjoint = r1.disjoint and r2.disjoint
    axis = r1.is_axis_aligned() and r2.is_axis_aligned()
    if method == "auto":
        if disjoint and not axis and r1.dim == 2:
            return _planar_overlap(r1, r2), 0.0
        method = "axis" if disjoint and axis else "mc"
    if method == "axis":
        if not axis:
            raise NotAxisAligned("axis-exact overlap needs axis-aligned frames")
        if not disjoint:
            raise OverlapUnknown("exact overlap requires disjoint pieces")
        return _axis_overlap(r1, r2), 0.0
    if method == "mc":
        return _stratified_hits(
            r1.bounding_box(),
            lambda c: r1._contains_columns(c) & r2._contains_columns(c),
            n, seed, "overlap")
    raise InvalidArgument(f"unknown method {method!r}")


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
    bounds = Region(tuple(p for r in regions for p in r.pieces)).bounding_box()
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
    endpoint sweep grid; method="mc" classifies n to 2n stratified-uniform
    samples (199 712 at n = 100 000 in the plane), drawn and classified one
    block of strata at a time; "auto" prefers exact when available.
    Signatures are counted by np.bincount over their codes up to 16
    regions, by np.unique above.  Every signature that occurs among the
    samples is an atom, so each MC atom has a measure of at least the box
    volume over the number of samples.
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
        (_codes((r._contains_columns(cols) for r in regions), len(regions))
         for cols in blocks), len(regions))
    p = counts / n_total
    stderrs = vbox * np.sqrt(p * (1 - p) / n_total)
    return AtomTable(signatures, vbox * p, stderrs, bounds, exact=False)
