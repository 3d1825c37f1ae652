"""Parallelotope regions, Lebesgue measure, and linear transformation.

A Region is a finite union of linear images of axis-aligned boxes.
Volumes are exact: |det M| times the box volume, summed over the pieces
of a region flagged disjoint.  A piece whose frame is a signed
permutation times a diagonal is itself an axis box; unions of such
pieces get exact overlaps and an exact sweep-grid atomization.  Overlaps of other planar pieces are exact too: each piece
is clipped against the four half-planes of the other (Sutherland-Hodgman)
and the shoelace areas are summed.  Overlaps in d >= 3 with other frames,
and the atoms of any family that is not all axis boxes, are Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as _rng
from .errors import (
    ConfigError,
    DimensionMismatch,
    InvalidArgument,
    LevymixError,
    NotAxisAligned,
    OverlapUnknown,
    SingularMatrix,
    UnboundedRegion,
)
from .matrices import as_matrix, matrix_to_json


@dataclass(frozen=True)
class Piece:
    frame: np.ndarray  # d x d, piece is frame @ box
    box: np.ndarray    # d x 2 array of [lo, hi]

    def __post_init__(self):
        object.__setattr__(self, "frame", as_matrix(self.frame))
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] != self.frame.shape[0]:
            raise DimensionMismatch("box must be a d x 2 interval array")
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

    def contains(self, points):
        """Boolean membership for an (n, d) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        iv = self._intervals
        if iv is not None:  # closed bounds, one contiguous coordinate at a time
            out = np.ones(pts.shape[0], dtype=bool)
            for col, (lo, hi) in zip(np.ascontiguousarray(pts.T), iv):
                out &= (col >= lo) & (col <= hi)
            return out
        try:
            y = np.linalg.solve(self.frame, pts.T).T
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("piece frame is singular") from exc
        return np.all((y >= self.box[:, 0]) & (y <= self.box[:, 1]), axis=1)

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
        try:
            inv = np.linalg.inv(self.frame)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("piece frame is singular") from exc
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

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0], dtype=bool)
        for p in self.pieces:
            out |= p.contains(pts)
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


def _stratified_uniform(bounds, n, rng):
    """About n stratified-uniform points in the box `bounds`."""
    if not n >= 1:
        raise InvalidArgument(f"need at least one sample point, got n={n}")
    d = bounds.shape[0]
    s = max(int(np.floor(n ** (1.0 / d))), 1)
    m = max(int(np.ceil(n / s**d)), 1)
    edges = [np.linspace(bounds[k, 0], bounds[k, 1], s + 1) for k in range(d)]
    cells = np.stack(np.meshgrid(*[np.arange(s)] * d, indexing="ij"),
                     axis=-1).reshape(-1, d)
    lo = np.stack([edges[k][cells[:, k]] for k in range(d)], axis=1)
    width = (bounds[:, 1] - bounds[:, 0]) / s
    pts = lo[:, None, :] + rng.random((cells.shape[0], m, d)) * width
    return pts.reshape(-1, d), cells.shape[0], m


def _stratified_hits(bounds, inside, n, seed, label):
    """(value, stderr) of the measure of {inside} within the box `bounds`,
    by stratified hit counting on the stream (seed, label)."""
    vbox = float(np.prod(bounds[:, 1] - bounds[:, 0]))
    rng = _rng.stream(seed, label)
    pts, k, m = _stratified_uniform(bounds, n, rng)
    hits = inside(pts).reshape(k, m)
    p_hat = hits.mean(axis=1)
    est = vbox * float(p_hat.mean())
    var = float(np.sum(p_hat * (1 - p_hat) / max(m - 1, 1))) / k**2
    return est, vbox * np.sqrt(var)


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


def polygon_area(poly):
    """Shoelace area of a polygon with vertices in cyclic order; 0 below 3."""
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
            poly = poly1
            for a, b in p2._halfplanes:
                poly = clip_polygon(poly, a, b)
            total += polygon_area(poly)
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
            r1.bounding_box(), lambda pts: r1.contains(pts) & r2.contains(pts),
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


def _signature_sums(regions, pts, weights=None):
    """Membership signatures of the points in descending order, with the
    number of points (or the sum of their weights) carrying each, as floats.

    Each run of up to 64 regions folds into one unsigned code per point,
    region 0 most significant, in the narrowest dtype that holds it; so
    codes sort as signature tuples do, and bincount sums in input order.
    """
    words = []
    for start in range(0, len(regions), 64):
        group = regions[start:start + 64]
        code = np.zeros(len(pts), np.min_scalar_type((1 << len(group)) - 1))
        for r in group:
            code <<= 1
            code |= r.contains(pts)
        words.append(code)
    if len(words) == 1:
        uniq, inverse = np.unique(words[0], return_inverse=True)
        uniq = uniq[:, None]
    else:  # rows of words, compared lexicographically
        uniq, inverse = np.unique(np.stack(words, axis=1), axis=0,
                                  return_inverse=True)
    i = np.arange(len(regions))
    shift = np.minimum(64, len(regions) - i // 64 * 64) - 1 - i % 64
    bits = (uniq[::-1][:, i // 64] >> shift.astype(uniq.dtype)) & 1
    return (tuple(map(tuple, (bits == 1).tolist())),
            np.bincount(inverse, weights=weights).astype(float)[::-1])


def _atomize_axis_exact(regions, bounds):
    d = regions[0].dim
    # sweep grid from every interval endpoint of every piece
    cuts = []
    for k in range(d):
        pts = {bounds[k, 0], bounds[k, 1]}
        for r in regions:
            for p in r.pieces:
                iv = p.intervals()
                pts.add(float(iv[k, 0]))
                pts.add(float(iv[k, 1]))
        cuts.append(np.array(sorted(pts)))
    centers = [0.5 * (c[1:] + c[:-1]) for c in cuts]
    widths = [np.diff(c) for c in cuts]
    mesh = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1).reshape(-1, d)
    wmesh = np.stack(np.meshgrid(*widths, indexing="ij"), axis=-1).reshape(-1, d)
    cellvol = np.prod(wmesh, axis=1)
    signatures, measures = _signature_sums(regions, mesh, weights=cellvol)
    return AtomTable(signatures, measures, np.zeros_like(measures),
                     bounds, exact=True)


def atomize(regions, n=100_000, seed=0, method="auto"):
    """AtomTable for the family of regions over their common bounding box.

    method="exact" (axis-aligned families only) classifies the cells of
    the endpoint sweep grid; method="mc" classifies n stratified-uniform
    samples; "auto" prefers exact when available.  Every signature that
    occurs among the samples is an atom, so each MC atom has a measure of
    at least the box volume over the number of samples.
    """
    regions = list(regions)
    bounds = _common_bounding_box(regions)
    if method == "auto":
        method = "exact" if all(r.is_axis_aligned() for r in regions) else "mc"
    if method == "exact":
        return _atomize_axis_exact(regions, bounds)
    vbox = float(np.prod(bounds[:, 1] - bounds[:, 0]))
    rng = _rng.stream(seed, "atomize")
    pts, k, m = _stratified_uniform(bounds, n, rng)
    n_total = pts.shape[0]
    signatures, counts = _signature_sums(regions, pts)
    p = counts / n_total
    stderrs = vbox * np.sqrt(p * (1 - p) / n_total)
    return AtomTable(signatures, vbox * p, stderrs, bounds, exact=False)
