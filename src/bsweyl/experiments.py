"""Named experiments: integrable equality, deformation splits, random Weyl migration.

Each experiment returns a plain-dict report with a boolean "pass" and
writes plot-ready CSV/JSON artifacts when given an output directory.
Default configurations reproduce the package's acceptance checks; the
gates and estimator settings are ``ClassVar`` constants, not arguments.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict
from typing import ClassVar

import numpy as np

from .density import (ComplexWindow, action_map_integrable, omega_density,
                      preimage_volume, weyl_density_torus)
from .flow import Deformation, DeformedSymbol, deformed_quadratic
from .quantize import (BasisSpec, BSLattice, bs_predict, count_and_compare,
                       perturb, quantize_quadratic, spectrum)
from .symbols import cho, coupling_xx, torus_coupled, torus_linear
from .variation import (QUAD_ORDER, TestFunction, VariationReport, first_variation_rhs,
                        moment_derivative_fd, nonequality_certificate,
                        second_variation_rhs)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


# ------------------------------------------------------- integrable equality


@dataclass
class IntegrableEqualityConfig:
    coupling: float = 0.3
    window: tuple = (-0.4, 0.4, -0.4, 0.4)
    resolution: tuple = (64, 64)
    samples: int = 10_000_000
    seed: int = 5
    eta_box: tuple = ((-0.6, 0.6), (-0.6, 0.6))
    sampler: str = "sobol"
    rel_floor: ClassVar[float] = 0.03
    sigma_factor: ClassVar[float] = 3.0


def run_integrable_equality(cfg: IntegrableEqualityConfig = None, outdir=None):
    """w = omega for the coupled integrable torus model, cell by cell.

    Passes when every cell satisfies |w - omega| <= max(sigma_factor *
    stderr, rel_floor * omega).
    """
    cfg = cfg or IntegrableEqualityConfig()
    ptilde = torus_coupled(cfg.coupling)
    win = ComplexWindow.from_bounds(*cfg.window, resolution=cfg.resolution)
    w_grid = weyl_density_torus(ptilde, win, cfg.eta_box, samples=cfg.samples,
                                seed=cfg.seed, sampler=cfg.sampler)
    am = action_map_integrable(ptilde)
    o_grid = omega_density(am, win)
    dev = np.abs(w_grid.values - o_grid.values)
    allow = np.maximum(cfg.sigma_factor * w_grid.stderr,
                       cfg.rel_floor * o_grid.values)
    ok = bool(np.all(dev <= allow))
    sup_rel = float(np.max(dev / o_grid.values))
    report = {
        "experiment": "integrable-equality",
        "pass": ok,
        "sup_cell_relative_deviation": sup_rel,
        "rel_floor": cfg.rel_floor,
        "sigma_factor": cfg.sigma_factor,
        "worst_cell_sigma": float(np.max(dev / np.maximum(w_grid.stderr, 1e-300))),
        "samples": cfg.samples,
        "seed": cfg.seed,
    }
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        w_grid.write_csv(os.path.join(outdir, "weyl_density.csv"))
        o_grid.write_csv(os.path.join(outdir, "omega_density.csv"))
        _write_json(os.path.join(outdir, "report.json"), report)
    return report, w_grid, o_grid


# ------------------------------------------------------- deformation splits


@dataclass
class DeformationSplitsConfig:
    t: float = 0.2
    f_center: complex = 0.05 + 0.55j
    f_radius: float = 0.35
    quadrature_order: int = QUAD_ORDER
    box_radius_first: ClassVar[float] = 2.6
    box_radius_second: ClassVar[float] = 2.0
    first_tol: ClassVar[float] = 0.02
    second_tol: ClassVar[float] = 0.03
    certificate_window: ClassVar[tuple] = (-0.3, 0.9, -0.3, 0.9)


def run_deformation_splits(cfg: DeformationSplitsConfig = None, outdir=None):
    """Variational identities and the non-equality certificate for cho + x1 x2.

    First identity at t: finite-difference dM/dt vs the bracket integral
    (<= first_tol).  Second identity at t = 0 for the integrable base vs
    |H_p G|^2 (<= second_tol), plus a bump witness whose pairing exceeds
    ``variation.CERT_THRESHOLD`` times its quadrature error estimate.
    """
    cfg = cfg or DeformationSplitsConfig()
    base = cho(1.0, 0.0)
    G = coupling_xx()
    d = Deformation((G,))
    f = TestFunction(cfg.f_center, cfg.f_radius)

    def make_pt(t):
        return DeformedSymbol(base, d, t)

    p_t = deformed_quadratic(make_pt(cfg.t))
    rhs1 = first_variation_rhs(f, p_t, G, cfg.box_radius_first,
                               cfg.quadrature_order)
    lhs1 = moment_derivative_fd(lambda t: deformed_quadratic(make_pt(t)),
                                cfg.t, 1, f=f,
                                box_radius=cfg.box_radius_first,
                                quad_order=cfg.quadrature_order)
    rep1 = VariationReport.build(lhs1, rhs1, "first", cfg.t)

    rhs2, rhs2_err = second_variation_rhs(f, base, G)
    lhs2 = moment_derivative_fd(lambda t: deformed_quadratic(make_pt(t)),
                                0.0, 2, f=f,
                                box_radius=cfg.box_radius_second,
                                quad_order=cfg.quadrature_order)
    rep2 = VariationReport.build(lhs2, rhs2, "second", 0.0, rhs_error=rhs2_err)

    cert_win = ComplexWindow.from_bounds(*cfg.certificate_window, resolution=(8, 8))
    cert = nonequality_certificate(base, G, cert_win)

    ok = (rep1.discrepancy <= cfg.first_tol
          and rep2.discrepancy <= cfg.second_tol
          and cert is not None)
    report = {
        "experiment": "deformation-splits",
        "pass": bool(ok),
        "first_order": asdict(rep1),
        "second_order": asdict(rep2),
        "certificate": None if cert is None else {
            "f_center": [cert[0].center.real, cert[0].center.imag],
            "f_radius": cert[0].radius,
            "value": cert[1],
            "error_estimate": cert[2],
            "ratio": abs(cert[1]) / cert[2],
        },
    }
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        _write_json(os.path.join(outdir, "report.json"), report)
    return report


# --------------------------------------------------- random Weyl migration


@dataclass
class RandomWeylMigrationConfig:
    t: float = 0.2
    h: float = 0.05
    delta: float = 1e-4
    seeds: tuple = (0, 1, 2, 3, 4)
    basis_size: int = 60
    window: tuple = (0.935, 0.965, 0.8, 1.2)
    box_radius: ClassVar[float] = 4.0
    volume_samples: ClassVar[int] = 20_000_000
    volume_seed: ClassVar[int] = 123
    required_closer: ClassVar[int] = 4


def run_random_weyl_migration(cfg: RandomWeylMigrationConfig = None, outdir=None):
    """Perturbed counts drift toward the Weyl prediction vol(p_t^{-1}(W)).

    The default window is a strip between two Bohr-Sommerfeld lattice
    columns inside the spectrally unstable (balanced-action) zone: the
    unperturbed spectrum sits on the lattice and leaves the strip empty,
    while the phase-space volume prediction is a few eigenvalues' worth.
    Seeded random perturbations smear eigenvalues off the lattice into
    the gap, toward the Weyl law.  Passes when at least required_closer
    of the seeds give a perturbed count strictly closer to the Weyl
    prediction than the unperturbed one.
    """
    cfg = cfg or RandomWeylMigrationConfig()
    base = cho(1.0, 0.0)
    d = Deformation((coupling_xx(),))
    p_t = deformed_quadratic(DeformedSymbol(base, d, cfg.t))
    basis = BasisSpec("hermite-tensor", cfg.basis_size, cfg.h)
    P = quantize_quadratic(p_t, basis)
    win = ComplexWindow.from_bounds(*cfg.window, resolution=(8, 8))

    vol, vol_err = preimage_volume(p_t, win, box_radius=cfg.box_radius,
                                   samples=cfg.volume_samples,
                                   seed=cfg.volume_seed)
    weyl_pred = vol / (2 * np.pi * cfg.h) ** 2

    # a spectrum that is written is solved in full first; its count filters it
    s0 = spectrum(P)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        s0.write_csv(os.path.join(outdir, "spectrum_unperturbed.csv"))
    n0 = int(s0.in_window(win).size)
    rows = []
    closer = 0
    for seed in cfg.seeds:
        sd = spectrum(perturb(P, cfg.delta, seed), delta=cfg.delta, seed=seed)
        if outdir:
            sd.write_csv(os.path.join(outdir, f"spectrum_delta_seed{seed}.csv"))
        nd = int(sd.in_window(win).size)
        is_closer = abs(nd - weyl_pred) < abs(n0 - weyl_pred)
        closer += is_closer
        rows.append({"seed": seed, "count": nd, "closer": bool(is_closer),
                     "solves": sd.solves})
    ok = closer >= cfg.required_closer
    # action-side prediction for context: omega = (2 pi)^2 on the quadrant
    lo_r, hi_r, lo_i, hi_i = cfg.window
    omega_pred = max(0.0, hi_r - max(lo_r, 0.0)) * max(0.0, hi_i - max(lo_i, 0.0)) / cfg.h ** 2
    report = {
        "experiment": "random-weyl-migration",
        "pass": bool(ok),
        "unperturbed_count": n0,
        "weyl_prediction": weyl_pred,
        "weyl_volume_stderr": vol_err / (2 * np.pi * cfg.h) ** 2,
        "omega_prediction": omega_pred,
        "seeds_closer": int(closer),
        "seeds_total": len(cfg.seeds),
        "per_seed": rows,
        "unperturbed_solves": s0.solves,
        "h": cfg.h, "delta": cfg.delta, "t": cfg.t,
        "basis_size": cfg.basis_size, "window": list(cfg.window),
    }
    if outdir:
        _write_json(os.path.join(outdir, "report.json"), report)
    return report


# ------------------------------------------------------------ BS experiment


@dataclass
class BSExactnessConfig:
    h: float = 0.05
    basis_size: int = 60
    region: ClassVar[tuple] = (0.0, 1.5, 0.0, 1.5)
    match_tol: ClassVar[float] = 1e-6
    bs_tol: ClassVar[float] = 1e-10
    count_window: ClassVar[tuple] = (0.2, 0.5, 0.25, 0.45)


def run_bs_exactness(cfg: BSExactnessConfig = None, outdir=None):
    """Lattice exactness for the unshifted complex harmonic oscillator.

    Checks (a) computed eigenvalues in the region sit on the half-integer
    lattice, (b) the Bohr-Sommerfeld predictor with theta0 = (1/2, 1/2)
    reproduces them, and (c) the count in a lattice-avoiding rectangle
    equals the rounded action-density integral exactly.
    """
    cfg = cfg or BSExactnessConfig()
    h = cfg.h
    q = cho(1.0, 0.0)
    basis = BasisSpec("hermite-tensor", cfg.basis_size, h)
    s = spectrum(quantize_quadratic(q, basis))
    region = ComplexWindow.from_bounds(*cfg.region, resolution=(8, 8))
    ev = s.in_window(region)
    N = cfg.basis_size
    k = np.arange(N)
    lat_full = (h * (k[:, None] + 0.5) + 1j * h * (k[None, :] + 0.5)).ravel()
    lat = lat_full[region.contains(lat_full)]
    d_ev = np.abs(ev[:, None] - lat[None, :]).min(axis=1) if ev.size else np.array([np.inf])
    max_dist = float(np.max(d_ev))

    am = action_map_integrable(torus_linear())
    lattice = BSLattice(am, h, region, theta0=(0.5, 0.5))
    preds, unresolved = bs_predict(lattice)
    # two-sided match between predictions and the exact lattice in the region
    if preds.size and lat.size:
        d1 = np.abs(preds[:, None] - lat[None, :]).min(axis=1).max()
        d2 = np.abs(lat[:, None] - preds[None, :]).min(axis=1).max()
        bs_dist = float(max(d1, d2))
    else:
        bs_dist = float("inf")

    cw = ComplexWindow.from_bounds(*cfg.count_window, resolution=(4, 4))
    omega_grid = omega_density(am, cw)
    rep = count_and_compare(s, cw, omega_grid=omega_grid)
    rounded = int(round(rep.omega_prediction))
    ok = (max_dist <= cfg.match_tol and bs_dist <= cfg.bs_tol
          and not unresolved and rep.count == rounded)
    report = {
        "experiment": "bs-exactness",
        "pass": bool(ok),
        "max_lattice_distance": max_dist,
        # eigenvalues found in the region against lattice points there; no
        # gate reads them (see ROADMAP item 1's tail-mass work)
        "region_count": int(ev.size),
        "region_lattice_points": int(lat.size),
        "bs_match_distance": bs_dist,
        "unresolved_k": len(unresolved),
        "count": rep.count,
        "omega_prediction": rep.omega_prediction,
        "rounded_omega_prediction": rounded,
        "h": h, "basis_size": cfg.basis_size,
    }
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        s.write_csv(os.path.join(outdir, "spectrum.csv"))
        _write_json(os.path.join(outdir, "report.json"), report)
    return report
