"""Span tracing of bsweyl's layers from outside the program.

`Tracer` replaces the layers' public entry points with wrappers that
record a span (name, start, end, parent span) or bump a counter, at every
place the callable is looked up: the defining module, the package
namespace and any bsweyl module that bound it with ``from ... import``.
The program itself is not instrumented.  Spans stay in memory until the
traced pass ends; `layer_metrics` turns them into per-layer numbers.

Self time is a span's duration minus the time its direct children cover
(children of one span never overlap: the program is single-threaded).  A
group's total is the summed duration of its spans that have no ancestor
in the same group, so recursion inside a group is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# Span groups: metric stem -> span names ("<module>.<qualname>").
EVALUATE = ("symbols.SymbolExpr.evaluate",)
SAMPLING = ("density.weyl_density", "density.weyl_density_torus",
            "density.preimage_volume")
OMEGA = ("density.omega_density", "density.ActionMap.eta_of_z")
FLOW = ("flow.flow_points", "flow.integrate_flow", "flow.deformed_quadratic",
        "flow.DeformedSymbol.evaluate")
ASSEMBLE = ("quantize.quantize_quadratic", "quantize.quantize_torus")
EIG = ("quantize.spectrum",)
PERTURB = ("quantize.perturb",)
BS_PREDICT = ("quantize.bs_predict",)
QUADRATURE = ("variation.tensor_quadrature", "variation.moment",
              "variation.first_variation_rhs", "variation.second_variation_rhs",
              "variation.nonequality_certificate")
CERTIFICATE = ("variation.nonequality_certificate",)
EXPERIMENTS = {
    "integrable_equality": "experiments.run_integrable_equality",
    "deformation_splits": "experiments.run_deformation_splits",
    "bs_exactness": "experiments.run_bs_exactness",
}
SPANNED = (EVALUATE + SAMPLING + OMEGA + FLOW + ASSEMBLE + EIG + PERTURB
           + BS_PREDICT + QUADRATURE + tuple(EXPERIMENTS.values()))

# Counter-only targets: called too often, or too deep, to be worth a span.
COUNTED = ("symbols.SymbolExpr.simplified", "flow.Deformation.velocity",
           "flow.Deformation.velocity_jacobian", "flow._rk45",
           "variation._SecondVariationGrid.__init__")


# Targets whose counters need their arguments by name.
BOUND = SAMPLING + ("variation.tensor_quadrature",
                    "variation._SecondVariationGrid.__init__")


def _count(counters, name, a, result):
    """Counter updates for one call, from its arguments `a` and its result."""
    if name == "symbols.SymbolExpr.evaluate":
        counters["symbols.evaluate_points"] += result.size
    elif name == "symbols.SymbolExpr.simplified":
        counters["symbols.simplify_calls"] += 1
    elif name in ("flow.Deformation.velocity", "flow.Deformation.velocity_jacobian"):
        counters["flow.rhs_calls"] += 1
    elif name == "flow._rk45":
        counters["flow.steps_accepted"] += result[1]
    elif name in SAMPLING:
        counters["density.samples"] += a["samples"]
        counters["density.landed"] += _landed(name, a, result)
    elif name in ASSEMBLE:
        counters["quantize.dim"] = max(counters["quantize.dim"], result.dim)
    elif name == "variation.tensor_quadrature":
        counters["variation.nodes"] += int(a["order"]) ** (2 * a["n"])
    elif name == "variation._SecondVariationGrid.__init__":
        counters["variation.nodes"] += int(a["order"]) ** (2 * a["p"].n)


def _landed(name, a, result):
    """Samples that landed in the window, recovered from the estimate."""
    samples = a["samples"]
    if name == "density.preimage_volume":
        vol, _ = result
        return round(vol / (2 * a["box_radius"]) ** (2 * a["p"].n) * samples)
    mass = float(result.values.sum()) * result.window.cell_area
    if name == "density.weyl_density":
        per_sample = (2 * a["box_radius"]) ** (2 * a["p"].n) / samples
    else:
        (lo1, hi1), (lo2, hi2) = a["eta_box"]
        per_sample = (2 * math.pi) ** 2 * (hi1 - lo1) * (hi2 - lo2) / samples
    return round(mass / per_sample)


COUNTERS = ("symbols.evaluate_points", "symbols.simplify_calls", "flow.rhs_calls",
            "flow.steps_accepted", "density.samples", "density.landed",
            "quantize.dim", "variation.nodes")


class Tracer:
    """Wraps bsweyl's layer entry points while active (a context manager)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, spanned):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        sig = inspect.signature(fn) if name in BOUND else None

        def arguments(args, kwargs):
            if sig is None:
                return None
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def traced(*args, **kwargs):
            if not spanned:
                result = fn(*args, **kwargs)
                _count(counters, name, arguments(args, kwargs), result)
                return result
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(counters, name, arguments(args, kwargs), result)
            return result

        return functools.update_wrapper(traced, fn)

    def __enter__(self):
        import bsweyl  # noqa: F401  (loads every layer module)

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "bsweyl" or k.startswith("bsweyl."))]
        for name in SPANNED + COUNTED:
            mod_name, _, qual = name.partition(".")
            owner = sys.modules["bsweyl." + mod_name]
            *outer, attr = qual.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig, name in SPANNED)
            self._patch(owner, attr, orig, wrapped)
            if not outer:  # module-level function: rebind every from-import
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(attr) is orig:
                        self._patch(mod, attr, orig, wrapped)
        return self

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False


# ----------------------------------------------------------- span arithmetic


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return [max(t, 0.0) for t in own]


def group_total(spans, names):
    """Summed duration of spans in `names` with no ancestor in `names`."""
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def group_self(spans, names, own=None):
    """Summed self time of the spans in `names`."""
    own = self_times(spans) if own is None else own
    names = set(names)
    return sum((t for (name, *_), t in zip(spans, own) if name in names), 0.0)


def group_calls(spans, names):
    names = set(names)
    return sum(1 for name, *_ in spans if name in names)


def _per(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, counters):
    """Per-layer metrics (the names in BENCHMARK.json's per_layer list)."""
    own = self_times(spans)
    c = counters
    evaluate_s = group_total(spans, EVALUATE)
    density_self = group_self(spans, SAMPLING, own)
    quadrature_s = group_self(spans, QUADRATURE, own)
    out = {
        "symbols.evaluate_s": evaluate_s,
        "symbols.evaluate_calls": group_calls(spans, EVALUATE),
        "symbols.evaluate_mpts_per_s": _per(c["symbols.evaluate_points"] / 1e6, evaluate_s),
        "symbols.simplify_calls": c["symbols.simplify_calls"],
        "density.self_s": density_self,
        "density.samples": c["density.samples"],
        "density.mpts_per_s": _per(c["density.samples"] / 1e6, density_self),
        "density.landed_frac": _per(c["density.landed"], c["density.samples"]),
        "density.omega_s": group_total(spans, OMEGA),
        "flow.self_s": group_self(spans, FLOW, own),
        "flow.rhs_calls": c["flow.rhs_calls"],
        "flow.steps_accepted": c["flow.steps_accepted"],
        "quantize.assemble_s": group_total(spans, ASSEMBLE),
        "quantize.dim": c["quantize.dim"],
        "quantize.matrix_bytes": 16 * c["quantize.dim"] ** 2,
        "quantize.eig_s": group_total(spans, EIG),
        "quantize.eig_calls": group_calls(spans, EIG),
        "quantize.perturb_s": group_total(spans, PERTURB),
        "quantize.bs_predict_s": group_total(spans, BS_PREDICT),
        "variation.quadrature_s": quadrature_s,
        "variation.nodes": c["variation.nodes"],
        "variation.nodes_per_s": _per(c["variation.nodes"], group_total(spans, QUADRATURE)),
        "variation.certificate_s": group_total(spans, CERTIFICATE),
        "experiments.self_s": group_self(spans, EXPERIMENTS.values(), own),
    }
    for stem, name in EXPERIMENTS.items():
        out[f"experiments.{stem}_s"] = group_total(spans, (name,))
    return out
