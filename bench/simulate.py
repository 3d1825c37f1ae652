"""`simulate` workload: the regions and noise layers as `levymix simulate` uses them.

Each family registers five kinds of region: two disjoint regions A and
B, their union U, and regions that overlap them. `exact` families are
axis-aligned unions of many boxes, so `atomize` takes the exact sweep
path. `mc` families add a rotated pair A, B and a sheared box, so
`atomize` samples. One round realizes Poisson noise (atom masses plus
point placement by rejection) and Gaussian noise over every family,
reads every region's mass as `levymix simulate` does, and draws
replicated Gaussian masses with `realize_masses`.
"""

import numpy as np

from levymix import noise
from levymix.errors import LevymixError
from levymix.regions import Piece, Region

N_EXACT = 3          # axis-aligned families
N_MC = 2             # families with rotated and sheared regions
GRID = 12            # cells per axis of a staircase region, exact families
GRID_MC = 6          # the same in mc families, whose sampled membership
                     # test costs one solve per piece and point
SIDE = 4.0           # staircases live in [0, SIDE]^2
ATOM_SAMPLES = 100_000  # the `levymix simulate --n` default
POISSON_INTENSITY = 3.0
REPLICATES = 2000

EXACT_RTOL = 1e-12   # exact-path measures and additivity of float sums
MC_SIGMAS = 4.0


def _rng(seed, *labels):
    return np.random.default_rng([seed % 2**63, *labels])


def _cells(rng, n):
    """Corner arrays of a random n x n partition of [0, SIDE]^2."""
    xs = np.sort(np.concatenate([[0.0, SIDE], rng.uniform(0.0, SIDE, n - 1)]))
    ys = np.sort(np.concatenate([[0.0, SIDE], rng.uniform(0.0, SIDE, n - 1)]))
    return xs, ys


def _staircase(xs, ys, cells):
    """Disjoint union of the grid cells with the given flat indices."""
    n = len(xs) - 1
    return [Piece(np.eye(2), np.array([[xs[c // n], xs[c // n + 1]],
                                       [ys[c % n], ys[c % n + 1]]]))
            for c in sorted(cells)]


def _exact_family(rng):
    xs, ys = _cells(rng, GRID)
    order = rng.permutation(GRID * GRID)  # a: 35% of the cells, b: 30% more
    a = _staircase(xs, ys, order[:GRID * GRID * 35 // 100])
    b = _staircase(xs, ys, order[GRID * GRID * 35 // 100:GRID * GRID * 65 // 100])
    xs2, ys2 = _cells(rng, GRID)
    other = _staircase(xs2, ys2, rng.permutation(GRID * GRID)[:GRID * GRID // 2])
    return [Region(tuple(a)), Region(tuple(b)), Region(tuple(a + b)),
            Region(tuple(other))]


def _mc_family(rng):
    theta = rng.uniform(0.2, 1.3)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    lo = rng.uniform(0.5, 1.0, 2)
    a = Piece(rot, np.column_stack([lo, lo + 1.0]))
    b = Piece(rot, np.column_stack([lo + [1.5, 0.0], lo + [2.5, 1.0]]))
    sheared = Piece(np.array([[1.0, rng.uniform(0.5, 1.5)], [0.0, 1.0]]),
                    np.array([[0.0, 1.5], [0.5, 2.0]]))
    xs, ys = _cells(rng, GRID_MC)
    other = _staircase(xs, ys, rng.permutation(GRID_MC * GRID_MC)[:GRID_MC * GRID_MC // 2])
    return [Region((a,)), Region((b,)), Region((a, b)), Region((sheared,)),
            Region(tuple(other))]


def build(seed):
    rng = _rng(seed, 1)
    families = ([("exact", _exact_family(rng)) for _ in range(N_EXACT)]
                + [("mc", _mc_family(rng)) for _ in range(N_MC)])
    return {"families": families,
            "seeds": [int(s) for s in rng.integers(2**31, size=len(families))]}


def run(inp):
    attempted, failed, out = 0, [], []
    poisson = noise.NoiseSpec(noise.POISSON, POISSON_INTENSITY)
    gauss = noise.NoiseSpec(noise.GAUSSIAN)
    for (kind, regions), seed in zip(inp["families"], inp["seeds"]):
        attempted += 3
        try:
            rp = noise.realize(poisson, regions, n_atom_samples=ATOM_SAMPLES,
                               seed=seed)
            rg = noise.realize(gauss, regions, n_atom_samples=ATOM_SAMPLES,
                               seed=seed)
            reps = noise.realize_masses(gauss, rg.atoms, REPLICATES, seed=seed)
        except (LevymixError, RuntimeError) as exc:
            failed.append(f"{kind} family: {type(exc).__name__}: {exc}")
            out.append(None)
            continue
        out.append({
            "poisson": rp, "gauss": rg, "replicates": reps,
            "masses": [[r.value(i) for i in range(len(regions))] for r in (rp, rg)],
        })
    return attempted, failed, out


def _exact_volume(region):
    return sum(abs(np.linalg.det(p.frame)) * np.prod(p.box[:, 1] - p.box[:, 0])
               for p in region.pieces)


def _bounding_volume(regions):
    corners = []
    for r in regions:
        for p in r.pieces:
            grid = np.array(np.meshgrid(*p.box, indexing="ij")).reshape(2, -1)
            corners.append(p.frame @ grid)
    corners = np.hstack(corners)
    return float(np.prod(corners.max(axis=1) - corners.min(axis=1)))


def check(inp, out):
    errors = []
    for f, ((kind, regions), res) in enumerate(zip(inp["families"], out)):
        if res is None:
            continue
        rp, rg, reps = res["poisson"], res["gauss"], res["replicates"]
        where = f"{kind} family {f}"
        # A = regions[0], B = regions[1] are disjoint and U = regions[2]
        for name, masses in zip(("poisson", "gauss"), res["masses"]):
            a, b, u = masses[:3]
            scale = np.abs(rg.atom_values).sum() if name == "gauss" else 0.0
            if abs(u - (a + b)) > EXACT_RTOL * scale:
                errors.append(f"{where}: {name} mass of A u B {u!r} != {a!r} + {b!r}")
        cols = [np.array([sig[i] for sig in rg.atoms.signatures]) for i in range(3)]
        rows = [reps[:, c].sum(axis=1) for c in cols]
        if np.max(np.abs(rows[2] - rows[0] - rows[1])) > EXACT_RTOL * np.abs(reps).sum():
            errors.append(f"{where}: replicate masses are not additive over A, B")
        for i, r in enumerate(regions):
            if rp.count_in(r) != rp.value(i):
                errors.append(f"{where}: count_in {rp.count_in(r)} != value "
                              f"{rp.value(i)} on region {i}")
        atoms = rg.atoms
        vbox = _bounding_volume(regions)
        if abs(atoms.measures.sum() - vbox) > EXACT_RTOL * vbox:
            errors.append(f"{where}: atom measures sum to {atoms.measures.sum()!r}, "
                          f"box volume {vbox!r}")
        if atoms.exact != (kind == "exact"):
            errors.append(f"{where}: atomize took the exact={atoms.exact} path")
        for i, r in enumerate(regions):
            want = _exact_volume(r)
            got, err = atoms.region_measure(i)
            tol = EXACT_RTOL * want if atoms.exact else MC_SIGMAS * err
            if abs(got - want) > tol:
                errors.append(f"{where}: region {i} measure {got!r} vs exact "
                              f"{want!r} (stderr {err!r})")
    return errors
