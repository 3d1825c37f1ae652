"""Consistent noise realizations over a registered finite region family.

A realization assigns independent values to the atoms of the family, so
additivity over disjoint registered regions holds exactly rather than in
distribution.  Three semigroup kinds are supported: Gaussian (variance
t), Poisson (mean rate * t, with point placements), and deterministic
mass (rate * t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as _rng
from .errors import InvalidArgument, SamplingFailure, UnsupportedKind
from .matrices import _count, as_matrix
from .regions import BLOCK_POINTS, AtomTable, Region, atomize

GAUSSIAN = "gaussian"
POISSON = "poisson"
DETERMINISTIC = "deterministic"
MAX_POISSON_POINTS = 10**6  # points one realization may place, over all atoms


@dataclass(frozen=True)
class NoiseSpec:
    """Infinitely divisible marginal family, indexed by measure t.

    gaussian: Normal(0, t); poisson: Poisson(intensity * t);
    deterministic: point mass at rate * t.
    """

    kind: str
    intensity: float = 1.0  # poisson intensity or deterministic rate

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, POISSON, DETERMINISTIC):
            raise UnsupportedKind(f"unknown noise kind {self.kind!r}")
        if not np.isfinite(self.intensity):
            raise InvalidArgument(f"noise intensity must be finite, "
                                  f"got {self.intensity!r}")
        if self.kind == POISSON and self.intensity <= 0:
            raise InvalidArgument("poisson intensity must be positive")

    def sample_mass(self, measure, rng, size):
        """`size` draws from the marginal law at parameter `measure`."""
        if self.kind == GAUSSIAN:
            return rng.normal(0.0, np.sqrt(measure), size=size)
        if self.kind == POISSON:
            return rng.poisson(self.intensity * measure, size=size).astype(float)
        # a Python float product overflows to inf without a warning
        return np.full(size, self.intensity * float(measure))

    def to_json(self):
        return {"kind": self.kind, "intensity": self.intensity}


@dataclass(frozen=True)
class NoiseRealization:
    """One sample of the noise over a registered region family."""

    spec: NoiseSpec
    atoms: AtomTable
    atom_values: np.ndarray            # mass per atom
    atom_points: tuple = field(default=(), repr=False)  # poisson only
    seed: int = 0

    def value(self, region_index) -> float:
        """Mass assigned to the registered region; additive by construction."""
        idx = self.atoms.atoms_of_region(region_index)
        return float(self.atom_values[idx].sum())

    def points(self) -> np.ndarray:
        if self.spec.kind != POISSON:
            raise UnsupportedKind("only poisson realizations carry points")
        nonempty = [p for p in self.atom_points if len(p)]
        return np.vstack(nonempty) if nonempty else np.empty((0, self.atoms.bounding_box.shape[0]))

    def count_in(self, region: Region) -> int:
        """Geometric point count; agrees with value() on registered regions."""
        pts = self.points()
        if not len(pts):
            return 0
        return int(region.contains(pts).sum())

    def to_json(self):
        out = {
            "spec": self.spec.to_json(),
            "seed": self.seed,
            "atom_signatures": ["".join("1" if b else "0" for b in s)
                                for s in self.atoms.signatures],
            "atom_values": [float(v) for v in self.atom_values],
        }
        if self.spec.kind == POISSON:
            out["atom_points"] = [np.asarray(p).tolist() for p in self.atom_points]
        return out


def _sample_points_in_atom(atoms, atom_index, regions, count, rng,
                           max_tries=10_000):
    """Uniform points in one atom via rejection against its signature: the
    first `count` hits among the points of rng's stream, however batches
    cut it.  Each batch is sized to hold about four times the missing
    points at the atom's share of the box, max(64, ceil(4 missing /
    share)), capped at BLOCK_POINTS."""
    bounds = atoms.bounding_box
    d = bounds.shape[0]
    sig = atoms.signatures[atom_index]
    share = atoms.measures[atom_index] / float(np.prod(bounds[:, 1] - bounds[:, 0]))
    out = np.empty((0, d))
    tries = 0
    while len(out) < count and tries < max_tries:
        batch = min(max(64, math.ceil(4 * (count - len(out)) / share)), BLOCK_POINTS)
        pts = bounds[:, 0] + rng.random((batch, d)) * (bounds[:, 1] - bounds[:, 0])
        cols = np.ascontiguousarray(pts.T)
        hit = np.logical_and.reduce([r._contains_columns(cols) == s
                                     for r, s in zip(regions, sig)])
        out = np.vstack([out, pts[hit]])
        tries += 1
    if len(out) < count:
        raise SamplingFailure("rejection sampling inside atom failed")
    return out[:count]


def realize(spec: NoiseSpec, regions, n_atom_samples=100_000, seed=0,
            atoms: AtomTable = None, replicate=0) -> NoiseRealization:
    """One noise realization over the atom partition of `regions`.

    The atom values are row `replicate` of
    realize_masses(spec, atoms, replicate + 1, seed), and so of every
    realize_masses call with more rows.  Poisson points are placed in
    atom i by rejection from the stream (seed, "points", i, replicate),
    as many as the atom's count; counts summing above MAX_POISSON_POINTS
    raise InvalidArgument before any point is placed.  The complement
    atom (outside every region) gets no mass.
    """
    replicate = _count(replicate, "replicate")
    regions = tuple(regions)
    if atoms is None:
        atoms = atomize(regions, n=n_atom_samples, seed=seed)
    values = realize_masses(spec, atoms, replicate + 1, seed)[replicate]
    if spec.kind == POISSON and values.sum() > MAX_POISSON_POINTS:
        raise InvalidArgument(f"{values.sum():.0f} Poisson points exceed "
                              f"the bound of {MAX_POISSON_POINTS}")
    empty = np.empty((0, atoms.bounding_box.shape[0]))
    points = tuple(
        _sample_points_in_atom(atoms, i, regions, int(v),
                               _rng.stream(seed, "points", i, replicate))
        if spec.kind == POISSON and v else empty
        for i, v in enumerate(values))
    return NoiseRealization(spec, atoms, values, points, seed)


def realize_masses(spec: NoiseSpec, atoms: AtomTable, n_reps, seed=0):
    """(n_reps, n_atoms) array of independent atom masses, one row per
    replicate.  The stream is keyed per atom, (seed, "atom", i), with the
    replicate as the draw index, so row r does not depend on n_reps."""
    n_reps = _count(n_reps, "n_reps")
    out = np.zeros((n_reps, len(atoms.signatures)))
    for i, sig in enumerate(atoms.signatures):
        if not any(sig):
            continue
        rng = _rng.stream(seed, "atom", i)
        try:
            out[:, i] = spec.sample_mass(atoms.measures[i], rng, size=n_reps)
        except ValueError as exc:  # numpy's Poisson sampler beyond its range
            raise InvalidArgument(f"cannot draw {spec.kind} mass at measure "
                                  f"{atoms.measures[i]!r}: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise InvalidArgument(f"{spec.kind} masses overflow at intensity "
                              f"{spec.intensity!r}")
    return out


def apply_transform(g, realization: NoiseRealization) -> NoiseRealization:
    """Pointwise pushforward of a Poisson realization by the map g.

    Every point p moves to g p, so the count in any region B afterwards
    equals the count in g^-1 B before.  Gaussian noise has no pointwise
    representation; its invariance is exercised through region
    pre-images, so requesting it here is an error.
    """
    g = as_matrix(g)
    if realization.spec.kind != POISSON:
        raise UnsupportedKind("pointwise pushforward requires poisson noise")
    moved = tuple(p @ g.T if len(p) else p for p in realization.atom_points)
    return replace(realization, atom_points=moved)


@functools.cache
def _hermite_rule():
    """Nodes and weights of the 32-node Gauss-Hermite rule, computed on
    first use rather than at import, which would cost every caller."""
    return np.polynomial.hermite.hermgauss(32)


def gaussian_conditional_samples(f, s, lam_C, n, rng):
    """Samples of E[f(mass(C)) | the noise inside B], where s is the
    overlap measure of C with B and lam_C the measure of C.

    mass(C) splits into the part measurable in B, v ~ Normal(0, s), and
    an independent remainder of variance r = lam_C - s; the conditional
    expectation at v is the Gaussian smooth of f at scale sqrt(r),
    evaluated by 32-node Gauss-Hermite quadrature.
    """
    r = max(lam_C - s, 0.0)
    v = rng.normal(0.0, np.sqrt(max(s, 0.0)), size=n)
    if r <= 1e-14:
        return np.asarray(f(v), dtype=float)
    nodes, weights = _hermite_rule()
    shifted = v[:, None] + np.sqrt(2.0 * r) * nodes[None, :]
    vals = np.asarray(f(shifted), dtype=float)
    return (vals @ weights) / np.sqrt(np.pi)
