"""`groups` workload: the matrices and shrinking layers on their own.

One round is, in this order:

- `real_jordan_form` and `cyclic_closure_compact` on every matrix of a
  corpus of similarity-transformed real Jordan forms (d 2-6, conjugator
  conditioning 50 and 1000);
- `weyl_conjugator` in finite mode on conjugated dihedral groups and in
  Cesaro mode on conjugated irrational rotations;
- `find_noncompact_witness` on the same dihedral groups (compact) and on
  pairs of differently conjugated finite-order rotations (non-compact);
- `build_family` and `absorption_lag` over a t grid for the shear and
  the squeeze.

Inputs come from numpy generators keyed by the workload seed, not from
the package's own streams, so they differ from the test corpora.
"""

import math

import numpy as np

from levymix import gallery, matrices, shrinking
from levymix.errors import LevymixError
from levymix.matrices import BlockKind

CORPUS = (  # (count, conditioning, unit moduli)
    (80, 50.0, False),
    (80, 1000.0, False),
    (40, 50.0, True),
    (40, 1000.0, True),
)
# At conditioning 1000 a defective block of size 5 or more is not always
# recoverable in double precision: real_jordan_form answered IllConditioned
# for one of about 800 such matrices sampled. Forms with such blocks are
# left out so that every matrix of the corpus has a recoverable structure.
MAX_BLOCK_AT_COND_1000 = 4
DIHEDRAL_ORDERS = (3, 4, 5, 6, 8, 12)
N_ROTATIONS = 8
N_PAIRS = 6
T_GRID = (0.2, 0.5, 1.0, 2.0, 5.0)
ABSORPTION_SAMPLES = 2000
H_MAX = 200

BLOCK_TOL = 1e-5      # eigenvalue agreement of recovered and built blocks
RESIDUAL_TOL = 1e-6   # relative reconstruction residual
DEFECT_TOL = 1e-8     # orthogonality defect of the conjugated generators
GROWTH = 8.0          # power-norm growth that certifies non-compactness


def _rng(seed, *labels):
    return np.random.default_rng([seed % 2**63, *labels])


def _corpus_matrix(seed, index, cond, unit):
    """Gallery form `index` under a similarity transform keyed by the seed.

    The forms (orders, block structure, eigenvalues) are the same for
    every seed, so every seed asks for the same kind of work; the seed
    draws the conjugators. Forms outside the corpus are redrawn.
    """
    d = 2 + index % 5
    for attempt in range(100):
        try:
            _, blocks = gallery.random_jordan_matrix(
                d, np.random.default_rng([index, attempt]), cond=cond,
                unit_moduli=unit)
        except RuntimeError:
            continue  # the gallery found no separated eigenvalue set
        if cond >= 1000.0 and max(b.size for b in blocks) > MAX_BLOCK_AT_COND_1000:
            continue
        T = gallery.random_det1(d, _rng(seed, 1, index), cond=cond)
        return T @ gallery.assemble_jordan(blocks) @ np.linalg.inv(T), tuple(blocks)
    raise RuntimeError("no corpus form after 100 draws")


def _conjugate(h, gens):
    hinv = np.linalg.inv(h)
    return [h @ g @ hinv for g in gens]


def build(seed):
    corpus = []
    for count, cond, unit in CORPUS:
        for _ in range(count):
            corpus.append(_corpus_matrix(seed, len(corpus), cond, unit))
    rng = _rng(seed, 2)
    dihedral = [_conjugate(gallery.random_det1(2, rng, cond=10.0),
                           gallery.dihedral_generators(n))
                for n in DIHEDRAL_ORDERS]
    rotations = [[gallery.conjugated_rotation(rng.uniform(0.3, 3.0), rng,
                                              d=2 + 2 * (i % 2), cond=10.0)]
                 for i in range(N_ROTATIONS)]
    pairs = [_conjugate(gallery.random_det1(2, rng, cond=5.0),
                        [gallery.rotation(np.pi / 2)])
             + _conjugate(gallery.random_det1(2, rng, cond=5.0),
                          [gallery.rotation(np.pi / 3)])
             for _ in range(N_PAIRS)]
    return {
        "corpus": corpus,
        "dihedral": dihedral,
        "rotations": rotations,
        "pairs": pairs,
        "families": {"shear": gallery.shear(), "squeeze": gallery.squeeze()},
        "lag_seed": int(rng.integers(2**31)),
    }


class _Ops:
    """Counts the operations of one round; a LevymixError is a failed one."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def __call__(self, what, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except LevymixError as exc:
            self.failed.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


def run(inp):
    ops = _Ops()
    out = {"jordan": [], "compact": [], "finite": [], "cesaro": [],
           "witness_compact": [], "witness_pairs": [], "lags": {}}
    for i, (A, _) in enumerate(inp["corpus"]):
        out["jordan"].append(ops(f"real_jordan_form[{i}]",
                                 matrices.real_jordan_form, A))
        out["compact"].append(ops(f"cyclic_closure_compact[{i}]",
                                  matrices.cyclic_closure_compact, A))
    for i, gens in enumerate(inp["dihedral"]):
        out["finite"].append(ops(f"weyl_finite[{i}]", matrices.weyl_conjugator,
                                 gens, mode="finite"))
    for i, gens in enumerate(inp["rotations"]):
        out["cesaro"].append(ops(f"weyl_cesaro[{i}]", matrices.weyl_conjugator,
                                 gens, mode="cesaro"))
    for i, gens in enumerate(inp["dihedral"]):
        out["witness_compact"].append(ops(
            f"witness_dihedral[{i}]", matrices.find_noncompact_witness, gens))
    for i, gens in enumerate(inp["pairs"]):
        out["witness_pairs"].append(ops(
            f"witness_pair[{i}]", matrices.find_noncompact_witness, gens))
    for name, g in inp["families"].items():
        fam = ops(f"build_family[{name}]", shrinking.build_family, g)
        lags = []
        for a, t1 in enumerate(T_GRID):
            for t2 in T_GRID[a + 1:]:
                lags.append((t1, t2, None if fam is None else ops(
                    f"absorption_lag[{name},{t1},{t2}]", shrinking.absorption_lag,
                    fam, t1, t2, n_samples=ABSORPTION_SAMPLES, h_max=H_MAX,
                    seed=inp["lag_seed"])))
        out["lags"][name] = lags
    return ops.attempted, ops.failed, out


def _block_key(b):
    return (b.kind.value, b.size)


def _same_blocks(got, built):
    """Recovered blocks equal the built ones up to order and BLOCK_TOL."""
    left = list(built)
    for b in got:
        match = next((c for c in left if _block_key(c) == _block_key(b)
                      and abs(c.eigen - b.eigen) <= BLOCK_TOL * max(1.0, abs(c.eigen))),
                     None)
        if match is None:
            return False
        left.remove(match)
    return not left


def _built_compact(blocks):
    return all(b.size == 1 and abs(abs(b.eigen) - 1.0) < 1e-12 for b in blocks)


def _defect(h, gens):
    hinv = np.linalg.inv(h)
    return max(np.linalg.norm((hinv @ g @ h).T @ (hinv @ g @ h) - np.eye(len(g)), 2)
               for g in gens)


def _powers_grow(w):
    """max ||w^j|| over j <= 4096 exceeds GROWTH times that over j <= 64."""
    norms, p = [], np.eye(len(w))
    for j in range(1, 65):
        p = p @ w
        norms.append(np.linalg.norm(p, 2))
    early = max(norms)
    p = np.linalg.matrix_power(w, 64)
    for _ in range(6):  # j = 128, 256, ..., 4096
        p = p @ p
        if not np.all(np.isfinite(p)) or np.linalg.norm(p, 2) > GROWTH * early:
            return True
    return False


def check(inp, out):
    errors = []
    for i, ((A, built), dec, compact) in enumerate(
            zip(inp["corpus"], out["jordan"], out["compact"])):
        if dec is None or compact is None:
            continue
        T = dec.conjugator
        resid = (np.linalg.norm(A - T @ dec.jordan_matrix() @ np.linalg.inv(T), 2)
                 / np.linalg.norm(A, 2))
        if resid > RESIDUAL_TOL:
            errors.append(f"corpus[{i}]: residual {resid:.2e}")
        if not _same_blocks(dec.blocks, built):
            errors.append(f"corpus[{i}]: blocks {dec.blocks} != built {built}")
        if compact != _built_compact(built):
            errors.append(f"corpus[{i}]: compact={compact} for built {built}")
    for kind in ("finite", "cesaro"):
        groups = inp["dihedral"] if kind == "finite" else inp["rotations"]
        for i, (gens, h) in enumerate(zip(groups, out[kind])):
            if h is not None and _defect(h, gens) > DEFECT_TOL:
                errors.append(f"weyl {kind}[{i}]: defect {_defect(h, gens):.2e}")
    for i, w in enumerate(out["witness_compact"]):
        if w is not None:
            errors.append(f"witness_dihedral[{i}]: witness in a finite group")
    for i, w in enumerate(out["witness_pairs"]):
        if w is not None and not _powers_grow(w):
            errors.append(f"witness_pair[{i}]: powers of the witness stay bounded")
    for name, lags in out["lags"].items():
        for t1, t2, res in lags:
            if res is None:
                continue
            h0, violations = res
            if violations:
                errors.append(f"{name} lag {t1}->{t2}: {violations} violations")
            if name == "squeeze" and h0 != math.ceil(math.log2(t2 / t1)):
                errors.append(f"squeeze lag {t1}->{t2}: {h0} != ceil(log2 ratio)")
    return errors
