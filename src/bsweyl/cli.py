"""Command-line entry point.

Every run resolves a strict ExperimentConfig, writes a manifest echoing
the full configuration plus library versions, and emits plot-ready CSV
and JSON artifacts.  Exit status: 0 when all checks in the run pass,
1 when a check fails, 2 on configuration errors (every violation is
listed at once).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy

from . import __version__
from .audit import audit
from .density import (ComplexWindow, EmptyGridError, SingularActionMapError,
                      action_map_integrable, ellipticity_margin_check, omega_density,
                      preimage_volume, weyl_density)
from .experiments import (BSExactnessConfig, DeformationSplitsConfig,
                          IntegrableEqualityConfig, RandomWeylMigrationConfig,
                          run_bs_exactness, run_deformation_splits,
                          run_integrable_equality, run_random_weyl_migration)
from .flow import (Deformation, DeformedSymbol, StepSizeUnderflowError, deformed_quadratic,
                   load_deformation)
from .quantize import (DIM_CAP, BasisSpec, BSLattice, EigensolveError, bs_predict,
                       count_and_compare, perturb, quantize_quadratic, quantize_torus,
                       spectrum)
from .symbols import action_symbol, load_symbol
from .variation import (SupportLeakWarning, TestFunction, VariationReport,
                        first_variation_rhs, moment_derivative_fd,
                        second_variation_rhs)

ENV_OUTDIR = "BSWEYL_OUTDIR"
AUDIT_MAX_SAMPLES = 4096
BOX_RADIUS = 4.0  # phase-space box of audit, density, deform-density and count


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _finite(x) -> bool:
    """x is an int or a finite float (a JSON int of any size is finite)."""
    return isinstance(x, int) or math.isfinite(x)


def _number_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and _finite(x) for x in v)


@dataclass
class ExperimentConfig:
    """Strict run configuration; unknown fields are rejected."""

    experiment: str
    symbol: object = None            # builtin name or symbol JSON object
    deformation: object = None       # deformation JSON object
    # None means "use this experiment's documented default"
    t: float = None
    window: object = None            # {"center": [re, im], "half_widths": [..], "resolution": [..]}
    h: float = None
    delta: float = None
    seeds: list = None
    samples: int = None
    quadrature_order: int = None
    box_radius: float = None
    basis_size: int = None
    basis_kind: str = "hermite-tensor"
    sampler: str = "sobol"
    order: int = 1                   # variation order (1 or 2)
    f_center: list = field(default_factory=lambda: [0.05, 0.55])
    f_radius: float = 0.35
    theta0: list = field(default_factory=lambda: [0.5, 0.5])
    I0: list = field(default_factory=lambda: [0.0, 0.0])
    eta_box: list = field(default_factory=lambda: [[-0.6, 0.6], [-0.6, 0.6]])
    coupling: float = 0.3
    outdir: str = None

    @classmethod
    def from_dict(cls, d):
        errors = []
        if not isinstance(d, dict):
            raise ConfigError(["config must be a JSON object"])
        known = set(cls.__dataclass_fields__)
        for k in d:
            if k not in known:
                errors.append(f"unknown field {k!r}")
        exp = d.get("experiment")
        if exp not in EXPERIMENTS:
            errors.append(f"'experiment' must be one of {EXPERIMENTS}, got {exp!r}")
        checks = [
            ("t", (int, float), None), ("h", (int, float), lambda v: 0 < v <= 1),
            ("delta", (int, float), lambda v: v >= 0),
            ("samples", int, lambda v: v > 0),
            ("quadrature_order", int, lambda v: v >= 8),
            ("box_radius", (int, float), lambda v: v > 0),
            ("basis_size", int, lambda v: v >= 1),
            ("f_radius", (int, float), lambda v: v > 0),
            ("coupling", (int, float), None),
            ("order", int, lambda v: v in (1, 2)),
        ]
        for name, types, pred in checks:
            if name in d and d[name] is not None:
                v = d[name]
                if not isinstance(v, types) or isinstance(v, bool):
                    errors.append(f"{name!r} must be of type {types}")
                elif not _finite(v):
                    errors.append(f"{name!r} value {v!r} is not finite")
                elif pred is not None and not pred(v):
                    errors.append(f"{name!r} value {v!r} out of range")
        if "seeds" in d and d["seeds"] is not None and (
                not isinstance(d["seeds"], list) or not d["seeds"]
                or not all(isinstance(s, int) and not isinstance(s, bool)
                           for s in d["seeds"])):
            errors.append("'seeds' must be a non-empty list of integers")
        if "sampler" in d and d["sampler"] not in ("sobol", "random"):
            errors.append("'sampler' must be 'sobol' or 'random'")
        if "basis_kind" in d and d["basis_kind"] not in ("hermite-tensor", "torus-fourier"):
            errors.append("'basis_kind' must be 'hermite-tensor' or 'torus-fourier'")
        for name in ("f_center", "theta0", "I0"):
            if name in d and not _number_pair(d[name]):
                errors.append(f"{name!r} must be a list of two finite numbers")
        if "eta_box" in d and not (isinstance(d["eta_box"], list) and len(d["eta_box"]) == 2
                                   and all(_number_pair(b) for b in d["eta_box"])):
            errors.append("'eta_box' must be a list of two [lo, hi] finite number pairs")
        if d.get("outdir") is not None and not isinstance(d["outdir"], str):
            errors.append("'outdir' must be a string")
        if errors:
            raise ConfigError(errors)
        cfg = cls(**d)
        # every runner that takes a basis solves its operator: cap it before assembly
        if cfg.basis_size is not None:
            dim = BasisSpec(cfg.basis_kind, cfg.basis_size, 1.0).total_dim
            if dim > DIM_CAP:
                raise ConfigError([f"'basis_size' {cfg.basis_size} gives dimension {dim}, "
                                   f"above the cap {DIM_CAP}"])
        return cfg

    def resolve_window(self):
        w = self.window
        if w is None:
            raise ConfigError(["this experiment needs a 'window'"])
        errors = []
        if not isinstance(w, dict):
            raise ConfigError(["'window' must be an object"])
        for k in w:
            if k not in {"center", "half_widths", "resolution"}:
                errors.append(f"window: unknown field {k!r}")
        try:
            center = complex(w["center"][0], w["center"][1])
            hw = (float(w["half_widths"][0]), float(w["half_widths"][1]))
            res = tuple(w.get("resolution", (64, 64)))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            errors.append(f"window: {exc}")
            raise ConfigError(errors) from exc
        if errors:
            raise ConfigError(errors)
        return ComplexWindow(center, hw, res)


def _manifest(outdir, config_dict, report):
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "config": config_dict,
        "versions": {"bsweyl": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "pass": report.get("pass", True),
        "report": report,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def _deformation(cfg: ExperimentConfig) -> Deformation:
    if cfg.deformation is None:
        raise ConfigError([f"{cfg.experiment} needs a 'deformation'"])
    return load_deformation(cfg.deformation)


def _given(cfg: ExperimentConfig, *names):
    """The named fields that the config sets, for an experiment's own dataclass."""
    return {name: getattr(cfg, name) for name in names if getattr(cfg, name) is not None}


def _seed(cfg: ExperimentConfig, default=0):
    """The seed of a single-seed experiment; more than one is a config error."""
    if len(cfg.seeds or ()) > 1:
        raise ConfigError([f"{cfg.experiment} runs one seed, got {len(cfg.seeds)}"])
    return default if cfg.seeds is None else cfg.seeds[0]


def _run_audit(cfg, outdir):
    if (cfg.samples or 0) > AUDIT_MAX_SAMPLES:
        raise ConfigError([f"audit takes at most {AUDIT_MAX_SAMPLES} samples, "
                           f"got {cfg.samples}"])
    p = load_symbol(cfg.symbol or "cho(1,(1+i)/2)")
    rep_obj = audit(p, sample_budget=cfg.samples or AUDIT_MAX_SAMPLES,
                    ball_radius=cfg.box_radius or BOX_RADIUS, seed=_seed(cfg))
    report = json.loads(rep_obj.to_json())
    report["experiment"] = "audit"
    report["pass"] = rep_obj.ellipticity_flag != "fail"
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "audit.json"), "w") as fh:
        fh.write(rep_obj.to_json())
    return report


def _run_density(cfg, outdir):
    return _density(cfg, outdir, load_symbol(cfg.symbol or "cho(1,(1+i)/2)"))


def _run_deform_density(cfg, outdir):
    p = load_symbol(cfg.symbol or "cho(1,(1+i)/2)")
    return _density(cfg, outdir, DeformedSymbol(p, _deformation(cfg), cfg.t or 0.0))


def _density(cfg, outdir, p):
    win = cfg.resolve_window()
    seed = _seed(cfg)
    box = cfg.box_radius or BOX_RADIUS
    margin_ok, margin = ellipticity_margin_check(p, win, box, seed=seed)
    grid = weyl_density(p, win, box_radius=box,
                        samples=cfg.samples or 10_000_000,
                        seed=seed, sampler=cfg.sampler)
    os.makedirs(outdir, exist_ok=True)
    grid.write_csv(os.path.join(outdir, "density.csv"))
    grid.write_meta(os.path.join(outdir, "density_meta.json"))
    # a box that cuts the preimage of the window biases every cell low
    return {"experiment": cfg.experiment, "pass": bool(margin_ok),
            "total_mass": grid.total_mass, "method": grid.method,
            "boundary_margin_ok": bool(margin_ok),
            "boundary_margin": margin}


def _run_variation(cfg, outdir):
    p = load_symbol(cfg.symbol or "cho(1,0)")
    d = _deformation(cfg)
    G = d.generators[0]
    f = TestFunction(complex(cfg.f_center[0], cfg.f_center[1]), cfg.f_radius)

    def make_pt(t):  # its closed form is taken by variation, or refused naming the ray family
        return DeformedSymbol(p, d, t)

    t = cfg.t or 0.0
    if cfg.order == 2 and t != 0:
        raise ConfigError([f"variation at order 2 runs at t = 0, got t = {t!r}"])
    order = cfg.quadrature_order or DeformationSplitsConfig.quadrature_order
    # deformation-splits' boxes and sphere rule
    box = cfg.box_radius or (DeformationSplitsConfig.box_radius_first,
                             DeformationSplitsConfig.box_radius_second)[cfg.order - 1]
    # a SupportLeakWarning from any entry point is shown and fails the run
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if cfg.order == 1:
            rhs, rhs_error = first_variation_rhs(f, make_pt(t), G, box, order), None
        else:  # in action space, with no box: exact for its family, others exit 2
            rhs, rhs_error = second_variation_rhs(f, p, G)
        lhs = moment_derivative_fd(make_pt, t, cfg.order, f=f,
                                   box_radius=box, quad_order=order)
    rep = VariationReport.build(lhs, rhs, ("first", "second")[cfg.order - 1], t, rhs_error)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    support_ok = not any(issubclass(w.category, SupportLeakWarning) for w in caught)
    # the identity holds when the discrepancy is within deformation-splits' bound
    tol = (DeformationSplitsConfig.first_tol, DeformationSplitsConfig.second_tol)[cfg.order - 1]
    discrepancy_ok = bool(rep.discrepancy <= tol)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "variation.json"), "w") as fh:
        fh.write(rep.to_json())
    return {"experiment": "variation", "pass": support_ok and discrepancy_ok,
            "support_ok": support_ok, "discrepancy_ok": discrepancy_ok,
            "discrepancy_tol": tol, "box_radius": box, **asdict(rep)}


def _spectrum(cfg, p):
    """Deform p if asked, quantize it, perturb it with --delta; (p, spectrum)."""
    seed = _seed(cfg)
    if cfg.deformation is not None:
        p = deformed_quadratic(DeformedSymbol(p, load_deformation(cfg.deformation),
                                              cfg.t or 0.0))
    basis = BasisSpec(cfg.basis_kind, cfg.basis_size or 40, cfg.h or 0.1)
    if cfg.basis_kind == "hermite-tensor":
        P = quantize_quadratic(p, basis)
    else:
        P = quantize_torus(p, basis)
    if cfg.delta:
        P = perturb(P, cfg.delta, seed)
    return p, spectrum(P, delta=cfg.delta or 0.0, seed=seed if cfg.delta else None)


def _run_spectrum(cfg, outdir):
    _, s = _spectrum(cfg, load_symbol(cfg.symbol or "cho(1,0)"))
    os.makedirs(outdir, exist_ok=True)
    s.write_csv(os.path.join(outdir, "spectrum.csv"))
    s.write_meta(os.path.join(outdir, "spectrum_meta.json"))
    return {"experiment": "spectrum", "pass": True,
            "count": int(s.eigenvalues.size),
            "residual_bound": s.residual_bound}


def _run_bs(cfg, outdir):
    """The lattice needs no operator; a deformation is checked, then leaves it unchanged."""
    p = load_symbol(cfg.symbol or "cho(1,0)")
    if cfg.deformation is not None:
        DeformedSymbol(p, load_deformation(cfg.deformation), cfg.t or 0.0)
    am = action_map_integrable(action_symbol(p), I0=tuple(cfg.I0))
    lat = BSLattice(am, cfg.h or 0.1, cfg.resolve_window(), theta0=tuple(cfg.theta0))
    pts, unresolved = bs_predict(lat)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "bs_lattice.csv"), "w", newline="") as fh:
        fh.write("re,im\r\n")  # CRLF, as every CSV the package writes
        fh.writelines(f"{z.real:.17g},{z.imag:.17g}\r\n" for z in pts)
    return {"experiment": "bs", "pass": not unresolved,
            "n_points": int(pts.size), "unresolved": len(unresolved)}


def _run_count(cfg, outdir):
    p = load_symbol(cfg.symbol or "cho(1,0)")
    am = action_map_integrable(action_symbol(p))  # omega = |det DI| does not see I0
    win = cfg.resolve_window()
    seed = _seed(cfg)
    p, s = _spectrum(cfg, p)
    # the Weyl prediction is a preimage volume, so it needs the box that _density checks
    box = cfg.box_radius or BOX_RADIUS
    margin_ok, margin = ellipticity_margin_check(p, win, box, seed=seed)
    vol, _ = preimage_volume(p, win, box_radius=box,
                             samples=cfg.samples or 10_000_000, seed=seed)
    rep = count_and_compare(s, win, omega_grid=omega_density(am, win), weyl_volume=vol)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "count.json"), "w") as fh:
        fh.write(rep.to_json())
    return {"experiment": "count", "pass": bool(margin_ok), **json.loads(rep.to_json()),
            "boundary_margin_ok": bool(margin_ok), "boundary_margin": margin}


def _run_integrable_equality(cfg, outdir):
    ie = IntegrableEqualityConfig(coupling=cfg.coupling,
                                  seed=_seed(cfg, IntegrableEqualityConfig.seed),
                                  eta_box=tuple(tuple(b) for b in cfg.eta_box),
                                  sampler=cfg.sampler, **_given(cfg, "samples"))
    if cfg.window is not None:
        win = cfg.resolve_window()
        ie.window = win.bounds
        ie.resolution = win.resolution
    return run_integrable_equality(ie, outdir)[0]


def _run_deformation_splits(cfg, outdir):
    return run_deformation_splits(DeformationSplitsConfig(
        f_center=complex(cfg.f_center[0], cfg.f_center[1]), f_radius=cfg.f_radius,
        **_given(cfg, "t", "quadrature_order")), outdir)


def _run_random_weyl_migration(cfg, outdir):
    mg = RandomWeylMigrationConfig(**_given(cfg, "t", "h", "delta", "basis_size"))
    if cfg.seeds is not None:
        mg.seeds = tuple(cfg.seeds)
    if cfg.window is not None:
        mg.window = cfg.resolve_window().bounds
    return run_random_weyl_migration(mg, outdir)


def _run_bs_exactness(cfg, outdir):
    return run_bs_exactness(BSExactnessConfig(**_given(cfg, "h", "basis_size")), outdir)


_SPECTRUM = ("symbol", "deformation", "t", "h", "delta", "basis_size", "basis_kind", "seeds")

# Every experiment: name -> (runner(cfg, outdir) -> report dict with "pass",
# the ExperimentConfig fields the runner takes).
RUNNERS = {
    "audit": (_run_audit, ("symbol", "samples", "box_radius", "seeds")),
    "density": (_run_density,
                ("symbol", "window", "samples", "box_radius", "sampler", "seeds")),
    "deform-density": (_run_deform_density,
                       ("symbol", "deformation", "t", "window", "samples",
                        "box_radius", "sampler", "seeds")),
    "variation": (_run_variation,
                  ("symbol", "deformation", "t", "order", "quadrature_order",
                   "box_radius", "f_center", "f_radius")),
    "spectrum": (_run_spectrum, _SPECTRUM),
    "bs": (_run_bs, ("symbol", "deformation", "t", "window", "h", "theta0", "I0")),
    "count": (_run_count, _SPECTRUM + ("window", "samples", "box_radius")),
    "integrable-equality": (_run_integrable_equality,
                            ("coupling", "window", "samples", "sampler", "seeds",
                             "eta_box")),
    "deformation-splits": (_run_deformation_splits,
                           ("t", "quadrature_order", "f_center", "f_radius")),
    "random-weyl-migration": (_run_random_weyl_migration,
                              ("t", "window", "h", "delta", "basis_size", "seeds")),
    "bs-exactness": (_run_bs_exactness, ("h", "basis_size")),
}
EXPERIMENTS = tuple(RUNNERS)


def _run_config(cfg: ExperimentConfig):
    """Run a validated config, write its manifest and return the report.

    A field the experiment does not take must keep its default; each
    one that does not is listed, before anything is written.
    """
    runner, takes = RUNNERS[cfg.experiment]
    default = ExperimentConfig(cfg.experiment)
    errors = [f"{cfg.experiment} does not take a {name!r}"
              for name in ExperimentConfig.__dataclass_fields__
              if name not in takes + ("experiment", "outdir")
              and getattr(cfg, name) != getattr(default, name)]
    if errors:
        raise ConfigError(errors)
    outdir = cfg.outdir or os.environ.get(ENV_OUTDIR) or f"out-{cfg.experiment}"
    report = runner(cfg, outdir)
    _manifest(outdir, asdict(cfg), report)
    return report


def _add_common(sp):
    """Flags for the run config; an omitted flag takes its ExperimentConfig default."""
    sp.add_argument("--symbol", help="builtin name (e.g. 'cho(1,(1+i)/2)') or symbol JSON file")
    sp.add_argument("--G", help="generator: builtin name or symbol JSON file")
    sp.add_argument("--t", type=float, help="deformation parameter")
    sp.add_argument("--window", help="window JSON file or inline JSON")
    sp.add_argument("--h", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--seeds", type=int, help="number of seeds, run as 0..N-1")
    sp.add_argument("--seed", type=int, help="single seed (overrides --seeds)")
    sp.add_argument("--seed-list", type=int, nargs="+",
                    help="explicit seed list (overrides both)")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--order", type=int, choices=(1, 2), help="variation order")
    sp.add_argument("--quadrature-order", type=int,
                    help="variation, deformation-splits: nodes per Hopf angle "
                         "of the sphere rule (default 32)")
    sp.add_argument("--box-radius", type=float,
                    help="phase-space box (default 4.0; variation 2.6, or 2.0 at order 2)")
    sp.add_argument("--basis-size", type=int)
    sp.add_argument("--basis-kind", choices=("hermite-tensor", "torus-fourier"))
    sp.add_argument("--sampler", choices=("sobol", "random"))
    sp.add_argument("--f-center", type=float, nargs=2)
    sp.add_argument("--f-radius", type=float)
    sp.add_argument("--coupling", type=float)
    sp.add_argument("--outdir")


def _load_maybe_file(text):
    if text is None:
        return None
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    s = text.strip()
    if s.startswith("{"):
        return json.loads(s)
    return text  # builtin name


def _args_to_config(exp, args):
    d = {"experiment": exp}
    sym = _load_maybe_file(args.symbol)
    if sym is not None:
        d["symbol"] = sym
    G = _load_maybe_file(args.G)
    if G is not None:
        d["deformation"] = {"G": G}
    win = _load_maybe_file(args.window)
    if win is not None:
        d["window"] = win
    if args.seed_list is not None:
        d["seeds"] = list(args.seed_list)
    elif args.seed is not None:
        d["seeds"] = [args.seed]
    elif args.seeds is not None:
        d["seeds"] = list(range(args.seeds))
    for name in ("t", "h", "delta", "samples", "order", "quadrature_order",
                 "box_radius", "basis_size", "basis_kind", "sampler",
                 "f_radius", "coupling", "outdir"):
        v = getattr(args, name)
        if v is not None:
            d[name] = v
    if args.f_center is not None:
        d["f_center"] = list(args.f_center)
    return ExperimentConfig.from_dict(d)


def _parser():
    parser = argparse.ArgumentParser(
        prog="bsweyl",
        description="Action density vs Weyl density experiments for "
                    "non-self-adjoint semiclassical models")
    sub = parser.add_subparsers(dest="command", required=True)

    for exp in EXPERIMENTS:
        sp = sub.add_parser(exp, help=f"run the {exp} experiment")
        _add_common(sp)

    spe = sub.add_parser("experiment", help="run a named experiment")
    spe.add_argument("name", choices=EXPERIMENTS)
    _add_common(spe)

    spr = sub.add_parser("run", help="run from a config (or manifest) JSON file")
    spr.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    # ConfigError, SymbolJSONError, QuantizationError and JSONDecodeError
    # are all ValueErrors: bad input, whether found parsing or running.  The
    # domain errors are inputs the numerics cannot serve (an empty window, a
    # failed eigensolve, a singular action map, a stiff flow): also exit 2,
    # as 1 means a check failed
    try:
        if args.command == "run":
            with open(args.config) as fh:
                raw = json.load(fh)
            if isinstance(raw, dict) and isinstance(raw.get("config"), dict) \
                    and "experiment" not in raw:  # re-run from a manifest
                raw = {k: v for k, v in raw["config"].items() if v is not None}
            cfg = ExperimentConfig.from_dict(raw)
        else:
            cfg = _args_to_config(
                args.name if args.command == "experiment" else args.command, args)
        report = _run_config(cfg)
    except (OSError, ValueError, EmptyGridError, EigensolveError, SingularActionMapError,
            StepSizeUnderflowError) as exc:
        for line in getattr(exc, "errors", None) or [str(exc)]:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return 0 if report.get("pass", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
