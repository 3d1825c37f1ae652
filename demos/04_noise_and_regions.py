"""Independently scattered noise realized over families of regions.

Regions are finite unions of parallelotopes.  A realization first
atomizes the registered family (so overlaps are split into disjoint
cells), then draws one independent value per atom; region masses are
sums of atom values, which makes additivity exact by construction.

Run:  python3 demos/04_noise_and_regions.py
"""

import numpy as np

from levymix import NoiseSpec, apply_transform, atomize, box_region, realize, transform, volume
from levymix.gallery import rotation
from levymix.noise import GAUSSIAN, POISSON

r1 = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
r2 = box_region(np.array([[0.5, 1.5], [0.0, 1.0]]))
atoms = atomize([r1, r2], n=0)
print(f"{len(atoms.signatures)} atoms; measures "
      f"{[round(m, 3) for m in atoms.measures]}")

real = realize(NoiseSpec(GAUSSIAN), [r1, r2], seed=0)
print(f"gaussian masses: {real.value(0):.4f}, {real.value(1):.4f}")

# additivity is exact, not approximate
r12 = box_region(np.array([[0.0, 2.0], [0.0, 1.0]]))
d1 = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))
d2 = box_region(np.array([[1.0, 2.0], [0.0, 1.0]]))
real = realize(NoiseSpec(GAUSSIAN), [d1, d2, r12], seed=0)
print("additivity gap:", real.value(0) + real.value(1) - real.value(2))

# poisson realizations carry actual points, so a measure-preserving map
# acts on them directly; counts transport along the map
real = realize(NoiseSpec(POISSON, intensity=25.0), [r1], seed=2)
g = rotation(0.7)
moved = apply_transform(g, real)
gr1 = transform(g, r1)
print(f"poisson count in C: {real.count_in(r1)}, "
      f"in gC after pushforward: {moved.count_in(gr1)}")
print("volume preserved under the map:",
      np.isclose(volume(gr1), volume(r1)))
