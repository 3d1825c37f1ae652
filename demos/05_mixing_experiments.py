"""The mixing dichotomy: covariance decay vs an invariant region.

A non-compact measure-preserving map mixes: the covariance between the
mass of C and the mass of g^m C equals the overlap measure and decays
geometrically.  A compact map admits an invariant region whose mass is
a non-degenerate random variable, so no mixing takes place.  Two compact
rotations can generate a non-compact group; a word of the two that is
not compact is found, and it mixes.

Run:  python3 demos/05_mixing_experiments.py
"""

import numpy as np

from levymix.experiments import compact_invariant_demo, mixing_curve, tail_triviality_decay
from levymix.gallery import rotation, shear, squeeze
from levymix.matrices import find_noncompact_witness
from levymix.regions import box_region

C = box_region(np.array([[0.0, 1.0], [0.0, 1.0]]))

print("squeeze map, C = unit square:")
rep = mixing_curve(squeeze(), C, m_max=6, n_reps=4_000, seed=0)
for (m, ov, _), (_, cov, err) in zip(rep.rows("overlap"),
                                     rep.rows("covariance")):
    print(f"  m={int(m)}: overlap {ov:.4f}, covariance {cov:.4f} "
          f"(+- {err:.4f}), expected 2^-m = {2.0 ** (-m):.4f}")
print(f"  verdict: {rep.verdict}")

print("\norder-4 rotation, C = [-1,1]^2 (invariant):")
C2 = box_region(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
rep = mixing_curve(rotation(np.pi / 2), C2, m_max=4, n_reps=4_000,
                   seed=0)
for m, cov, err in rep.rows("covariance"):
    print(f"  m={int(m)}: covariance {cov:.3f} (measure of C is 4)")
print(f"  verdict: {rep.verdict}")

print("\nrotation(2 pi/3) and P rotation(pi/2) P^-1, P = diag(2, 1/2):")
P = np.diag([2.0, 0.5])
w = find_noncompact_witness([rotation(2 * np.pi / 3),
                             P @ rotation(np.pi / 2) @ np.linalg.inv(P)])
print(f"  each is compact; their group is not, witness {np.round(w, 3).tolist()}")
rep = mixing_curve(w, C, m_max=8, n_reps=4_000, seed=0)
for (m, ov, _), (_, cov, err) in zip(rep.rows("overlap"),
                                     rep.rows("covariance")):
    print(f"  m={int(m)}: overlap {ov:.2e}, covariance {cov:+.4f} (+- {err:.4f})")
print(f"  verdict: {rep.verdict}")

print("\nconditional variance decay along the shear family:")
rep = tail_triviality_decay(shear(), n_reps=4_000, seed=0)
for t, var, _ in rep.rows("cond_variance"):
    print(f"  t={t}: Var(E[mass(C) | D_t]) = {var:.4f}")
print(f"  verdict: {rep.verdict}")

print("\ninvariant region for the order-4 rotation group:")
rep = compact_invariant_demo([rotation(np.pi / 2)], n_reps=4_000, seed=0)
lam = rep.rows("measure")[0][1]
bound = rep.rows("symmetric_difference_bound")[0][1]
var = rep.rows("mass_variance")[0][1]
print(f"  the ellipsoid h B_2 (here the unit disc), measure {lam:.4f}; "
      f"measure of gR symdiff R <= {bound:.1e}")
print(f"  mass variance {var:.3f} > 0, verdict: {rep.verdict}")
