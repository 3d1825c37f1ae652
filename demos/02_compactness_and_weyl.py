"""Compactness of matrix groups and conjugation into the orthogonal group.

A matrix generates a bounded (precompact) cyclic group exactly when it
is similar to an orthogonal matrix.  For a compact group the average of
g^T g over the group is a positive form S, and h = S^(-1/2) conjugates
every element into the orthogonal group.  S is found by linear algebra,
finite or infinite group alike: it is the projection of I onto the
forms that every generator fixes.

Run:  python3 demos/02_compactness_and_weyl.py
"""

import numpy as np

from levymix import cyclic_closure_compact, find_noncompact_witness, weyl_conjugator
from levymix.gallery import conjugated_rotation, dihedral_generators, rotation, shear, squeeze
from levymix.rng import stream

np.set_printoptions(precision=4, suppress=True)

for name, A in [("shear", shear()), ("squeeze", squeeze()),
                ("rotation(1)", rotation(1.0))]:
    print(f"{name}: compact cyclic closure = {cyclic_closure_compact(A)}")

# the dihedral group of the square, hidden by a random change of basis
P = np.array([[2.0, 1.0], [1.0, 1.0]])
Pinv = np.linalg.inv(P)
gens = [P @ g @ Pinv for g in dihedral_generators(4)]
h = weyl_conjugator(gens)
print("\nconjugated dihedral group:")
for g in gens:
    Q = np.linalg.inv(h) @ g @ h
    defect = np.linalg.norm(Q.T @ Q - np.eye(2))
    print(f"  orthogonality defect of h^-1 g h: {defect:.2e}")

# an irrational rotation has infinite but still compact closure
g = conjugated_rotation(1.0, stream(0, "demo"))
h = weyl_conjugator([g])
Q = np.linalg.inv(h) @ g @ h
print(f"\nconjugated irrational rotation defect: "
      f"{np.linalg.norm(Q.T @ Q - np.eye(2)):.2e}")

# two irrational rotations of R^3 about different axes generate a dense
# subgroup of SO(3): no enumeration ends, but the invariant form exists
def rotation3(axis, theta):
    K = np.cross(np.eye(3), axis)
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * K @ K


P3 = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
gens = [P3 @ rotation3(axis, theta) @ np.linalg.inv(P3)
        for axis, theta in [((0.0, 0.0, 1.0), 1.0), ((1.0, 0.0, 0.0), np.sqrt(2.0))]]
h = weyl_conjugator(gens)
print("\nconjugated dense subgroup of SO(3):")
for g in gens:
    Q = np.linalg.inv(h) @ g @ h
    print(f"  orthogonality defect of h^-1 g h: {np.linalg.norm(Q.T @ Q - np.eye(3)):.2e}")

# witness search: a pair of rotations is compact in every word, while
# adding a squeeze produces an unbounded word quickly
print("\nwitness in {rotation(1), rotation(2)}:",
      find_noncompact_witness([rotation(1.0), rotation(2.0)]) is not None)
w = find_noncompact_witness([rotation(1.0), squeeze()])
print("witness in {rotation(1), squeeze}:", w is not None)
