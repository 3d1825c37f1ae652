"""Parallelotope regions, Lebesgue measure, and linear transformation.

A Region is a finite union of linear images of axis-aligned boxes.
Volumes are exact per piece (|det M| times the box volume).  A piece
whose frame is a signed permutation times a diagonal is itself an axis
box; unions of such pieces get exact overlaps and an exact sweep-grid
atomization, and anything involving other frames is Monte Carlo.
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

ATOM_DROP_FRACTION = 1e-9  # atoms below this fraction of the box volume are null


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


def volume(region: Region, method="exact", n=100_000, seed=0):
    """(value, stderr) of the Lebesgue measure of the region.

    method="exact" sums per-piece volumes (requires the disjoint flag);
    method="mc" does stratified hit counting over the bounding box.
    """
    if method == "exact":
        if not region.disjoint:
            raise OverlapUnknown("exact volume requires disjoint pieces")
        return sum(p.volume() for p in region.pieces), 0.0
    if method == "mc":
        return _stratified_hits(region.bounding_box(), region.contains, n,
                                seed, "volume")
    raise InvalidArgument(f"unknown method {method!r}")


def transform(g, region: Region) -> Region:
    """Image of the region under the linear map g."""
    g = as_matrix(g)
    if abs(np.linalg.det(g)) < 1e-12:
        raise SingularMatrix("transform requires an invertible matrix")
    return Region(tuple(Piece(g @ p.frame, p.box) for p in region.pieces),
                  disjoint=region.disjoint)


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


def intersection_volume(r1: Region, r2: Region, method="auto",
                        n=100_000, seed=0):
    """(value, stderr) of the measure of the intersection of two regions.

    "axis" is exact for axis-aligned regions with disjoint pieces; "mc"
    samples in the bounding box of r1; "auto" picks axis when possible.
    """
    if method == "auto":
        method = "axis" if (r1.is_axis_aligned() and r2.is_axis_aligned()) \
            else "mc"
    if method == "axis":
        if not (r1.is_axis_aligned() and r2.is_axis_aligned()):
            raise NotAxisAligned("axis-exact overlap needs axis-aligned frames")
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
    samples; "auto" prefers exact when available.  MC atoms below
    ATOM_DROP_FRACTION of the box volume are dropped as null.
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
    measures = vbox * p
    keep = measures >= ATOM_DROP_FRACTION * vbox
    stderrs = vbox * np.sqrt(p * (1 - p) / n_total)
    return AtomTable(tuple(s for s, kept in zip(signatures, keep) if kept),
                     measures[keep], stderrs[keep], bounds, exact=False)
