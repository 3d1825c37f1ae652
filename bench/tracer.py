"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install` replaces each target function with a wrapper that
opens a span: name, start, end and the time of the spans opened inside
it, so self time is counted apart from child time. A module-level
function is replaced in every `levymix` module that imported it (and in
the workload module), so calls through `levymix.experiments.atomize`
are traced as well as those through `levymix.regions.atomize`. Methods
are replaced on their class. Hooks turn a call's arguments and result
into counters. Targets a later version of the package no longer has are
skipped, and their metrics read 0.

Spans are kept in memory as totals per name; `write` dumps them.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def _arg(sig, args, kwargs, name):
    """Value of parameter `name` in a call, defaults included."""
    params = list(sig.parameters)
    i = params.index(name)
    if i < len(args):
        return args[i]
    return kwargs.get(name, sig.parameters[name].default)


def _under(tracer, name):
    return any(span[0] == name for span in tracer.stack)


# hooks: (tracer, signature, args, kwargs, result, error) -> None

def _witness_words(t, sig, args, kwargs, result, error):
    if _under(t, "find_noncompact_witness"):
        t.counts["find_noncompact_witness.words"] += 1
        if type(error).__name__ == "IllConditioned":
            t.counts["find_noncompact_witness.ill_conditioned"] += 1


def _weyl_mode(t, sig, args, kwargs, result, error):
    mode = _arg(sig, args, kwargs, "mode")
    t.counts[f"weyl_conjugator.{mode}_s"] += t.last_duration


def _points(counter, param):
    def hook(t, sig, args, kwargs, result, error):
        pts = _arg(sig, args, kwargs, param)
        t.counts[counter] += len(pts) if getattr(pts, "ndim", 2) > 1 else 1
    return hook


def _box_pieces(t, sig, args, kwargs, result, error):
    if result is not None:
        t.counts["family_box_region.pieces"] += len(result.pieces)


def _atomize(t, sig, args, kwargs, result, error):
    if result is None:
        return
    if result.exact:
        t.counts["atomize.exact_calls"] += 1
    else:
        t.counts["atomize.mc_calls"] += 1
        t.counts["atomize.mc_points"] += _arg(sig, args, kwargs, "n")


def _overlap(t, sig, args, kwargs, result, error):
    if result is None:
        return
    r1, r2 = _arg(sig, args, kwargs, "r1"), _arg(sig, args, kwargs, "r2")
    method = _arg(sig, args, kwargs, "method")
    if method == "auto":  # the rule intersection_volume applies
        method = "axis" if r1.is_axis_aligned() and r2.is_axis_aligned() else "mc"
    if method == "axis":
        t.counts["intersection_volume.piece_pairs"] += len(r1.pieces) * len(r2.pieces)
    else:
        t.counts["intersection_volume.mc_calls"] += 1
    t.maxima["intersection_volume.max_stderr"] = max(
        t.maxima["intersection_volume.max_stderr"], float(result[1]))


def _realize_points(t, sig, args, kwargs, result, error):
    if result is not None:
        t.counts["realize.points"] += sum(len(p) for p in result.atom_points)


def _mass_draws(t, sig, args, kwargs, result, error):
    if result is not None:
        atoms = _arg(sig, args, kwargs, "atoms")
        t.counts["realize_masses.draws"] += result.shape[0] * sum(
            1 for s in atoms.signatures if any(s))


# (module, attribute path, span name, hook)
TARGETS = (
    ("levymix.matrices", "real_jordan_form", "real_jordan_form", None),
    ("levymix.matrices", "cyclic_closure_compact", "cyclic_closure_compact",
     _witness_words),
    ("levymix.matrices", "find_noncompact_witness", "find_noncompact_witness", None),
    ("levymix.matrices", "weyl_conjugator", "weyl_conjugator", _weyl_mode),
    ("levymix.shrinking", "build_family", "build_family", None),
    ("levymix.shrinking", "contains_many", "contains_many",
     _points("contains_many.points", "points")),
    ("levymix.shrinking", "absorption_lag", "absorption_lag", None),
    ("levymix.regions", "atomize", "atomize", _atomize),
    ("levymix.regions", "intersection_volume", "intersection_volume", _overlap),
    ("levymix.regions", "Region.contains", "contains",
     _points("contains.points", "points")),
    ("levymix.noise", "realize", "realize", _realize_points),
    ("levymix.noise", "realize_masses", "realize_masses", _mass_draws),
    ("levymix.noise", "gaussian_conditional_samples",
     "gaussian_conditional_samples", None),
    ("levymix.experiments", "mixing_curve", "mixing_curve", None),
    ("levymix.experiments", "tail_triviality_decay", "tail_triviality_decay", None),
    ("levymix.experiments", "equivariance_check", "equivariance_check", None),
    ("levymix.experiments", "compact_invariant_demo", "compact_invariant_demo", None),
    ("levymix.experiments", "family_box_region", "family_box_region", _box_pieces),
    ("levymix.experiments", "run_all", "run_all", None),
    ("levymix.cli", "run.callback", "experiment_run", None),
)
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}
HARNESS = ("experiment_run", "run_all")  # spans whose self time is not layer work

# per-layer metrics and their units; "<span>.calls", "<span>.s" (inclusive
# time) and "<span>.self_s" come from the spans, the rest from the hooks
PER_LAYER = {
    "real_jordan_form.calls": "count",
    "real_jordan_form.s": "s",
    "cyclic_closure_compact.s": "s",
    "find_noncompact_witness.s": "s",
    "find_noncompact_witness.words": "count",
    "find_noncompact_witness.ill_conditioned": "count",
    "weyl_conjugator.finite_s": "s",
    "weyl_conjugator.cesaro_s": "s",
    "contains_many.points": "count",
    "contains_many.s": "s",
    "absorption_lag.s": "s",
    "mixing_curve.s": "s",
    "tail_triviality_decay.s": "s",
    "equivariance_check.s": "s",
    "compact_invariant_demo.s": "s",
    "family_box_region.s": "s",
    "family_box_region.pieces": "count",
    "run_all.self_s": "s",
    "atomize.s": "s",
    "atomize.mc_calls": "count",
    "atomize.exact_calls": "count",
    "atomize.mc_points": "count",
    "intersection_volume.s": "s",
    "intersection_volume.mc_calls": "count",
    "intersection_volume.piece_pairs": "count",
    "intersection_volume.max_stderr": "volume",
    "contains.points": "count",
    "contains.s": "s",
    "realize.s": "s",
    "realize.points": "count",
    "realize_masses.s": "s",
    "realize_masses.draws": "count",
    "gaussian_conditional_samples.s": "s",
    "experiment_run.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, time of child spans]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.top_level = 0.0  # time inside outermost spans
        self.last_duration = 0.0
        self._undo = []

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0]
            self.stack.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                duration = time.perf_counter() - span[1]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += duration
                else:
                    self.top_level += duration
                totals = self.spans[name]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - span[2]
                self.last_duration = duration
                if hook is not None:
                    hook(self, sig, args, kwargs, result, error)
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, also=()):
        """Wrap every target present; `also` names more modules to patch."""
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("levymix") or n in also]
        for module_name, path, name, hook in TARGETS:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, hook)
            if parents:
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def harness_self(self):
        return sum(self.spans[name][2] for name in HARNESS)

    def per_layer(self, rounds):
        """Every PER_LAYER metric, per round over `rounds` traced rounds."""
        out = {}
        for metric, unit in PER_LAYER.items():
            span, _, field = metric.rpartition(".")
            if metric in self.maxima:
                value = self.maxima[metric]
            elif field in SPAN_FIELDS and metric not in self.counts:
                value = self.spans[span][SPAN_FIELDS[field]] / rounds
            else:
                value = self.counts[metric] / rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, rounds):
        table = {name: {"calls": c / rounds, "total_s": tot / rounds,
                        "self_s": own / rounds}
                 for name, (c, tot, own) in sorted(self.spans.items())}
        with open(path, "w") as fh:
            json.dump({"rounds": rounds, "spans": table,
                       "counts": {k: v / rounds for k, v in sorted(self.counts.items())},
                       "maxima": dict(self.maxima)}, fh, indent=2)
            fh.write("\n")
