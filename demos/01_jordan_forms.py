"""Real Jordan decomposition on a few matrices, printed step by step.

Run:  python3 demos/01_jordan_forms.py
"""

import numpy as np

from levymix import real_jordan_form, jordan_block_power_apply
from levymix.gallery import jordan_corpus, shear
from levymix.matrices import BlockKind

np.set_printoptions(precision=4, suppress=True)


def describe(name, A):
    dec = real_jordan_form(A)
    print(f"{name}: d={len(dec.conjugator)}, residual={dec.residual:.2e}")
    for b in dec.blocks:
        tag = "pair" if b.kind is BlockKind.COMPLEX_PAIR else "real"
        print(f"  {tag} block, size {b.size}, eigenvalue {b.eigen:.4f}")
    K = dec.jordan_matrix()
    T = dec.conjugator
    err = np.linalg.norm(A - T @ K @ np.linalg.inv(T)) / np.linalg.norm(A)
    print(f"  reconstruction |A - TKT^-1| / |A| = {err:.2e}")


describe("shear", shear())
describe("rotation-scale", 1.5 * np.array([[np.cos(0.8), -np.sin(0.8)],
                                           [np.sin(0.8), np.cos(0.8)]]))

# a defective example hidden behind a random similarity transform
A, built = jordan_corpus(1, seed=3)[0]
print()
print("constructed blocks:",
      [(b.kind.value, b.size, round(b.eigen.real, 3)) for b in built])
describe("random similarity transform of the above", A)

# closed-form powers of a single block agree with brute force
dec = real_jordan_form(shear())
block = dec.blocks[0]
x = np.array([1.0, 2.0])
for h in (1, 5, 50):
    want = np.linalg.matrix_power(shear(), h) @ x
    got = jordan_block_power_apply(block, h, x)
    print(f"shear^{h} x: closed form {got}, brute force {want}")
