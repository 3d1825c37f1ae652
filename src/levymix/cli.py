"""Command-line harness around the library.

Matrices and regions are exchanged as JSON files; see the README for the
schemas.  LEVYMIX_SEED and LEVYMIX_OUT override the seed and output
directory when the flags are absent; `experiment run` then falls back to
the config's `seed` and `out` keys before the defaults.
"""

import json
import sys

import click

from . import noise as _noise
from . import shrinking as _shrinking
from .errors import ConfigError, LevymixError, NotReached
from .experiments import read_json, run_all, write_text
from .gallery import ALIASES, parse_matrix
from .matrices import (
    classify_noncompact_blocks,
    cyclic_closure_compact,
    find_noncompact_witness,
    matrix_to_json,
    real_jordan_form,
    weyl_conjugator,
)
from .regions import Region


def _load_matrix(spec):
    """Matrix from an alias name or a JSON file path."""
    return parse_matrix(spec if spec in ALIASES else read_json(spec))


def _load_matrices(spec):
    """Matrices from an alias name or a file with one matrix or a list."""
    obj = spec if spec in ALIASES else read_json(spec)
    return [parse_matrix(o) for o in (obj if isinstance(obj, list) else [obj])]


def _given(**options):
    """The options given on the command line; an absent one (None) is left
    out, so the library's default applies."""
    return {k: v for k, v in options.items() if v is not None}


def _emit(obj):
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


class _Main(click.Group):
    """Every subcommand ends a LevymixError with a message and exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except LevymixError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Matrix-group compactness analysis and noise mixing experiments."""


@main.command()
@click.option("--matrix", "matrix_spec", required=True,
              help="Matrix alias or JSON file.")
def jordan(matrix_spec):
    """Real Jordan decomposition of a matrix."""
    dec = real_jordan_form(_load_matrix(matrix_spec))
    _emit(dec.to_json())


@main.command()
@click.option("--matrix", "matrix_spec", required=True)
def classify(matrix_spec):
    """Compactness classification of the cyclic group of a matrix."""
    A = _load_matrix(matrix_spec)
    compact = cyclic_closure_compact(A)
    tags = () if compact else classify_noncompact_blocks(real_jordan_form(A))
    _emit({"compact": compact, "case_tags": [[c, i] for c, i in tags]})


@main.command()
@click.option("--generators", "gen_spec", required=True,
              help="Alias or JSON file with a matrix or list of matrices.")
@click.option("--max-word-len", type=int, default=None,
              help="Longest word searched (default: the library's).")
def witness(gen_spec, max_word_len):
    """Decide compactness by the group's invariant form; for a non-compact
    group, search for a word with non-compact cyclic closure."""
    try:
        w = find_noncompact_witness(_load_matrices(gen_spec),
                                    **_given(max_word_len=max_word_len))
    except NotReached as exc:
        return _emit({"found": False, "compact": False, "note": str(exc)})
    if w is None:
        return _emit({"found": False, "compact": True})
    _emit({"found": True, "witness": matrix_to_json(w)})


@main.command()
@click.option("--generators", "gen_spec", required=True)
def weyl(gen_spec):
    """Conjugator taking the generated compact group into the orthogonal group."""
    h = weyl_conjugator(_load_matrices(gen_spec))
    _emit(matrix_to_json(h))


@main.group()
def sets():
    """Shrinking-set family operations."""


@sets.command()
@click.option("--matrix", "matrix_spec", required=True)
@click.option("--t-grid", default="0.2,0.5,1,2,5", show_default=True)
@click.option("--n-samples", default=2000, show_default=True,
              help="Points of D_t per absorption lag; the null-boundary "
                   "line always draws 100000 in [-1, 1]^d, at t = 1e6 and 1e-6.")
@click.option("--h-max", type=int, default=None,
              help="Largest power walked (default: the library's).")
@click.option("--seed", type=int, default=0, envvar="LEVYMIX_SEED")
@click.option("--out", "out_dir", type=str, default="reports",
              envvar="LEVYMIX_OUT")
def verify(matrix_spec, t_grid, n_samples, h_max, seed, out_dir):
    """Verify absorption and null-boundary properties; emit a CSV report."""
    fam = _shrinking.build_family(_load_matrix(matrix_spec))
    try:
        grid = sorted({float(t) for t in t_grid.split(",")})  # pairs t1 < t2
    except ValueError as exc:
        raise ConfigError(f"--t-grid {t_grid}: {exc}") from exc
    rows = ["t_small,t_large,h0,violations"]
    for i, t1 in enumerate(grid):
        for t2 in grid[i + 1:]:
            h0, bad = _shrinking.absorption_lag(
                fam, t1, t2, n_samples=n_samples, seed=seed,
                **_given(h_max=h_max))
            rows.append(f"{t1!r},{t2!r},{h0},{bad}")
    outside, inside = _shrinking.null_boundary_check(fam, seed=seed)
    rows.append(f"# frac_outside_union={outside!r} frac_in_intersection={inside!r}")
    click.echo(write_text(out_dir, "sets_verify.csv", "\n".join(rows) + "\n"))


@main.command()
@click.option("--spec", "spec_str", default="gaussian", show_default=True,
              help="gaussian (no parameter), poisson:<intensity> or "
                   "deterministic:<rate>; a bare poisson or deterministic "
                   "takes the library's intensity.")
@click.option("--regions", "regions_path", required=True,
              help="JSON file with a list of region objects.")
@click.option("--n", type=int, default=None,
              help="Monte Carlo points for the atom table of a family that "
                   "is not axis-aligned, at most n (default: the library's).")
@click.option("--seed", type=int, default=0, envvar="LEVYMIX_SEED")
@click.option("--out", "out_dir", type=str, default="reports",
              envvar="LEVYMIX_OUT")
def simulate(spec_str, regions_path, n, seed, out_dir):
    """Realize noise over a registered region family; dump JSON."""
    kind, _, param = spec_str.partition(":")
    try:
        spec = _noise.NoiseSpec(kind, **_given(
            intensity=float(param) if param else None))
    except ValueError as exc:
        raise ConfigError(f"--spec {spec_str}: {exc}") from exc
    objs = read_json(regions_path)
    if not isinstance(objs, list):
        raise ConfigError(f"{regions_path}: expected a list of region objects")
    regions = [Region.from_json(o) for o in objs]
    real = _noise.realize(spec, regions, seed=seed, **_given(n_atom_samples=n))
    dump = real.to_json()
    dump["region_masses"] = [real.value(i) for i in range(len(regions))]
    click.echo(write_text(out_dir, "realization.json",
                          json.dumps(dump, indent=2, sort_keys=True) + "\n"))


@main.group()
def experiment():
    """Experiment battery."""


@experiment.command()
@click.option("--config", "config_path", type=str, default=None,
              help="Experiment config JSON (defaults to the canonical battery).")
@click.option("--seed", type=int, default=None, envvar="LEVYMIX_SEED")
@click.option("--out", type=str, default=None, envvar="LEVYMIX_OUT")
def run(config_path, seed, out):
    """Run configured experiments; exit 0 iff every verdict is pass."""
    code, reports = run_all(config_path, seed_override=seed, out_override=out)
    for name, report in reports.items():
        click.echo(f"{name}: {report.verdict}")
    sys.exit(code)


if __name__ == "__main__":
    main()
