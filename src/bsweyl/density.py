"""Spectral density estimators on windows in the complex plane.

Two densities are computed relative to Lebesgue measure L(dz) =
dRe z dIm z:

* the Weyl density w(z), the direct image of phase-space volume dx dxi
  under the symbol map, estimated by histogram binning of sampled real
  phase-space points (iid or low-discrepancy);
* the action density omega(z) = |det DI(z)| with I(z) = 2 pi eta(z) + I0
  the action map of an integrable torus normal form, computed pointwise
  by Newton inversion of eta -> ptilde(eta) (jacobian formula, no
  statistical error).

For a deformed symbol built over an integrable base the action density
is unchanged by the deformation, so omega of the base is used as is.

``weyl_density`` (the phase-space box) and ``weyl_density_torus`` (a
box of actions) share one histogram estimator, ``_histogram``.

Sampling has two units.  A shard (``DEFAULT_SHARD`` = 2^20 rows) is
the unit of drawing: it fixes the Sobol' blocks and the per-shard seeds
of the iid sampler.  A block (``BLOCK`` = 2^14 rows) is the unit of
work: each shard is scaled to the box, evaluated and binned one block
at a time, so every temporary stays cache-sized.  When a deformed
symbol has no closed form, only the samples that can land in the window
go through the flow, a block of them at a time (see ``_sampled_values``).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.stats import qmc

from .flow import DeformedSymbol, closed_form
from .symbols import DimensionMismatchError, SymbolExpr

TWO_PI_SQ = (2 * np.pi) ** 2
DEFAULT_SHARD = 1 << 20  # samples drawn at once
BLOCK = 1 << 14  # samples scaled, evaluated and binned (or flowed) at once
NEWTON_MAX_ITER = 50  # steps of newton_2xm
ACTION_NEWTON_TOL = 1e-12  # residual |ptilde(eta) - z| accepted by ActionMap.eta_of_z
OMEGA_NAN_LIMIT = 0.01  # fraction of cells where omega_density may fail to invert
MARGIN_SAMPLES = 20000  # box-face samples of ellipticity_margin_check
MARGIN_FACTOR = 0.2  # margin, in window diameters, that the box faces must keep


class EmptyGridError(RuntimeError):
    """No sample landed in the window."""


class SingularActionMapError(RuntimeError):
    """Newton inversion of the torus symbol failed to converge."""


@dataclass(frozen=True)
class ComplexWindow:
    """Rectangular window in the spectral plane with a cell grid."""

    center: complex
    half_widths: tuple
    resolution: tuple = (64, 64)

    def __post_init__(self):
        hw = (float(self.half_widths[0]), float(self.half_widths[1]))
        res = (int(self.resolution[0]), int(self.resolution[1]))
        if not (hw[0] > 0 and hw[1] > 0):
            raise ValueError("half widths must be positive")
        if res[0] < 2 or res[1] < 2:
            raise ValueError("resolution must be >= 2 per axis")
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "half_widths", hw)
        object.__setattr__(self, "resolution", res)

    @classmethod
    def from_bounds(cls, re_lo, re_hi, im_lo, im_hi, resolution=(64, 64)):
        c = complex((re_lo + re_hi) / 2, (im_lo + im_hi) / 2)
        return cls(c, ((re_hi - re_lo) / 2, (im_hi - im_lo) / 2), resolution)

    @property
    def bounds(self):
        c, hw = self.center, self.half_widths
        return (c.real - hw[0], c.real + hw[0], c.imag - hw[1], c.imag + hw[1])

    @cached_property
    def re_edges(self):
        """Cell edges along Re z (read-only, built on first use)."""
        lo, hi, _, _ = self.bounds
        edges = np.linspace(lo, hi, self.resolution[0] + 1)
        edges.setflags(write=False)
        return edges

    @cached_property
    def im_edges(self):
        """Cell edges along Im z (read-only, built on first use)."""
        _, _, lo, hi = self.bounds
        edges = np.linspace(lo, hi, self.resolution[1] + 1)
        edges.setflags(write=False)
        return edges

    @property
    def cell_area(self) -> float:
        return (2 * self.half_widths[0] / self.resolution[0]) * \
               (2 * self.half_widths[1] / self.resolution[1])

    @property
    def area(self) -> float:
        return 4 * self.half_widths[0] * self.half_widths[1]

    @property
    def diameter(self) -> float:
        return 2 * float(np.hypot(self.half_widths[0], self.half_widths[1]))

    def centers_complex(self) -> np.ndarray:
        re = 0.5 * (self.re_edges[:-1] + self.re_edges[1:])
        im = 0.5 * (self.im_edges[:-1] + self.im_edges[1:])
        RE, IM = np.meshgrid(re, im, indexing="ij")
        return RE + 1j * IM

    def distance(self, z) -> np.ndarray:
        """Euclidean distance from each z to the closed window (0 inside)."""
        z = np.asarray(z)
        lo_r, hi_r, lo_i, hi_i = self.bounds
        dr = np.maximum(np.maximum(lo_r - z.real, z.real - hi_r), 0.0)
        di = np.maximum(np.maximum(lo_i - z.imag, z.imag - hi_i), 0.0)
        return np.hypot(dr, di)

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z)
        lo_r, hi_r, lo_i, hi_i = self.bounds
        return ((z.real > lo_r) & (z.real < hi_r)
                & (z.imag > lo_i) & (z.imag < hi_i))

    def to_json_dict(self) -> dict:
        return {"center": [self.center.real, self.center.imag],
                "half_widths": list(self.half_widths),
                "resolution": list(self.resolution)}


@dataclass(frozen=True)
class DensityGrid:
    """Density values per unit L(dz) on a window grid, with stderr."""

    window: ComplexWindow
    values: np.ndarray
    stderr: np.ndarray
    method: str  # monte-carlo | quasi-monte-carlo (sampled) | jacobian-formula (omega)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        errs = np.asarray(self.stderr, dtype=float)
        if vals.shape != tuple(self.window.resolution) or errs.shape != vals.shape:
            raise ValueError("grid shapes do not match window resolution")
        finite = vals[np.isfinite(vals)]
        if finite.size and np.min(finite) < 0:
            raise ValueError("density values must be nonnegative")
        vals.setflags(write=False)
        errs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "stderr", errs)

    @property
    def total_mass(self) -> float:
        return float(np.nansum(self.values) * self.window.cell_area)

    def integral(self, f=None) -> float:
        """Sum of f(z_cell) * value * cell_area (f defaults to 1)."""
        z = self.window.centers_complex()
        w = self.values if f is None else self.values * f(z)
        return float(np.nansum(w) * self.window.cell_area)

    def write_csv(self, path):
        z = self.window.centers_complex()
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["z_re", "z_im", "value", "stderr"])
            for i in range(z.shape[0]):
                for j in range(z.shape[1]):
                    wr.writerow([f"{z[i, j].real:.17g}", f"{z[i, j].imag:.17g}",
                                 f"{self.values[i, j]:.17g}",
                                 f"{self.stderr[i, j]:.17g}"])

    def write_meta(self, path):
        with open(path, "w") as fh:
            json.dump({"method": self.method, "window": self.window.to_json_dict(),
                       **self.meta}, fh, indent=2)


# ------------------------------------------------------------------ sampling


def _unit_samples(dim, total, seed, sampler):
    """Yield shards of points in [0,1)^dim; deterministic per (seed, sampler).

    A shard (DEFAULT_SHARD rows, read at call time) is the unit of
    drawing only; callers evaluate it in BLOCKs.  Sobol' shards continue
    one sequence; each full power-of-two shard is balanced.  scipy warns
    when the first shard is no power of two.  iid shards are seeded by
    (seed, shard index).
    """
    if sampler not in ("sobol", "random"):
        raise ValueError(f"unknown sampler {sampler!r} (use 'sobol' or 'random')")
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed) if sampler == "sobol" else None
    for shard, start in enumerate(range(0, total, DEFAULT_SHARD)):
        m = min(DEFAULT_SHARD, total - start)
        if eng is not None:
            yield eng.random(m)
        else:
            yield np.random.default_rng(np.random.SeedSequence((seed, shard))).random((m, dim))


def _axis_index(x, edges):
    """Cell index of each x in [edges[0], edges[-1]] for uniform edges.

    The arithmetic index is corrected against the edges themselves, as
    np.histogram does on uniform bins, so the cells are those of
    searchsorted; x == edges[-1] goes to the last cell.
    """
    nb = len(edges) - 1
    lo, hi = edges[0], edges[-1]
    i = np.minimum(((x - lo) * (nb / (hi - lo))).astype(np.intp), nb - 1)  # x >= lo: floor
    i -= x < edges[i]
    i += (x >= edges[i + 1]) & (i != nb - 1)
    return i


def _bin(vals, win: ComplexWindow):
    """Counts of complex values per window cell.

    Equal to np.histogram2d over (win.re_edges, win.im_edges): points
    outside the closed window are dropped and the last cell of each axis
    is closed.
    """
    re_edges, im_edges = win.re_edges, win.im_edges
    x, y = vals.real, vals.imag
    keep = ((x >= re_edges[0]) & (x <= re_edges[-1])
            & (y >= im_edges[0]) & (y <= im_edges[-1]))
    x, y = x[keep], y[keep]
    nr, ni = win.resolution
    idx = _axis_index(x, re_edges) * ni + _axis_index(y, im_edges)
    return np.bincount(idx, minlength=nr * ni).reshape(nr, ni)


def _sampled_values(p, win, dim, points, samples, seed, sampler):
    """Yield (p at a block of sample points, samples flowed), block by block.

    ``points`` maps a block of unit-cube rows in [0,1)^dim to the (x, xi)
    where p is evaluated.  Each shard is mapped and evaluated BLOCK rows
    at a time; a DeformedSymbol with a closed form is resolved to it once.
    A DeformedSymbol that flows is flowed only where it can land in the
    closed window: p_t(rho) lies within displacement_bound(rho) of p(rho),
    so a sample farther than that from the window lands outside it and is
    dropped.  The pre-filter runs per block; the kept samples of the whole
    shard are then flowed BLOCK at a time, so each RK45 batch is full.
    """
    shards = _unit_samples(dim, samples, seed, sampler)
    if not (isinstance(p, DeformedSymbol) and p.flows):
        if isinstance(p, DeformedSymbol):
            p = closed_form(p)
        for shard in shards:
            for start in range(0, len(shard), BLOCK):
                yield p.evaluate(*points(shard[start:start + BLOCK])), 0
        return
    for shard in shards:
        keep = []
        for start in range(0, len(shard), BLOCK):
            x, xi = points(shard[start:start + BLOCK])
            near = win.distance(p.base.evaluate(x, xi)) <= p.displacement_bound(x, xi)
            keep.append(start + np.flatnonzero(near))
        keep = np.concatenate(keep)
        for start in range(0, keep.size, BLOCK):
            x, xi = points(shard[keep[start:start + BLOCK]])
            yield p.evaluate(x, xi), len(x)


def _histogram(p, win, dim, points, measure, samples, seed, sampler, meta):
    """The pushforward of ``measure`` times the uniform law on the sampled box.

    Bins p at ``samples`` points of [0,1)^dim mapped by ``points`` and
    scales the counts by measure / (samples * cell area).  The standard
    error is the per-cell binomial estimate (conservative for the
    low-discrepancy sampler).  ``meta(flowed)`` is the grid's meta,
    given the number of samples that went through a flow.
    """
    counts = np.zeros(tuple(win.resolution), dtype=np.int64)
    flowed = 0
    for vals, k in _sampled_values(p, win, dim, points, samples, seed, sampler):
        counts += _bin(vals, win)
        flowed += k
    if counts.sum() == 0:
        raise EmptyGridError("no sample landed in the window")
    scale = measure / (samples * win.cell_area)
    values = counts * scale
    phat = counts / samples
    stderr = scale * np.sqrt(np.maximum(counts, 1) * (1 - phat))
    method = "monte-carlo" if sampler == "random" else "quasi-monte-carlo"
    return DensityGrid(win, values, stderr, method, meta=meta(flowed))


def _box_points(n, box_radius):
    """Map unit rows to (x, xi) in the real box {|(x, xi)|_inf <= box_radius}."""
    def points(u):
        q = -box_radius + 2 * box_radius * u
        return q[:, :n], q[:, n:]
    return points


def weyl_density(p, win: ComplexWindow, box_radius=4.0, samples=10_000_000,
                 seed=0, sampler="sobol") -> DensityGrid:
    """Histogram estimate of the pushforward of dx dxi under p.

    Samples the real box {|(x, xi)|_inf <= box_radius} in R^{2n}, bins
    p(rho) over the window cells and normalizes per cell area (see
    ``_histogram``).  Works in any dimension n; only the window is
    two-dimensional.
    """
    n = p.n
    return _histogram(p, win, 2 * n, _box_points(n, box_radius),
                      (2 * box_radius) ** (2 * n), samples, seed, sampler,
                      lambda flowed: {"samples": samples, "flowed": flowed, "seed": seed,
                                      "box_radius": box_radius, "sampler": sampler, "n": n})


def weyl_density_torus(ptilde: SymbolExpr, win: ComplexWindow, eta_box,
                       samples=10_000_000, seed=0, sampler="sobol") -> DensityGrid:
    """Pushforward of (2 pi)^2 d eta under eta -> ptilde(eta).

    ``ptilde`` must depend on the action variables only (stored in the
    xi slots of a 2-d symbol).  ``eta_box`` is ((lo1, hi1), (lo2, hi2)).
    """
    _require_eta_only(ptilde)
    (lo1, hi1), (lo2, hi2) = eta_box
    area = (hi1 - lo1) * (hi2 - lo2)

    def points(u):  # x = 0, the actions eta in eta_box
        eta = np.stack([lo1 + (hi1 - lo1) * u[:, 0], lo2 + (hi2 - lo2) * u[:, 1]], axis=-1)
        return np.zeros_like(eta), eta

    return _histogram(ptilde, win, 2, points, TWO_PI_SQ * area, samples, seed, sampler,
                      lambda _: {"samples": samples, "seed": seed, "sampler": sampler,
                                 "eta_box": [[lo1, hi1], [lo2, hi2]]})


def _require_eta_only(ptilde: SymbolExpr):
    if ptilde.n != 2:
        raise DimensionMismatchError("torus symbols require n = 2")
    for t in ptilde.terms:
        if any(t.xpow) or any(f != 0 for f in t.xfreq):
            raise ValueError("torus symbol must depend on the action variables only")


# ------------------------------------------------------------------ actions


def newton_2xm(residual, u, tol):
    """Batched Newton iteration for two real equations in m real unknowns.

    ``residual(u)`` maps points u of shape (..., m) to the residual
    (..., 2) and its Jacobian J (..., 2, m).  Each step is the
    minimum-norm solution s = J^T (J J^T)^{-1} res, with the 2x2 J J^T
    inverted by Cramer's rule; for m = 2 this is Newton's step.
    Iterates until the largest residual over the still-regular points
    is <= tol, or NEWTON_MAX_ITER steps.  Returns (u, ok) with ok False
    where J J^T became singular; callers apply their own acceptance test
    to the returned u.
    """
    ok = np.ones(u.shape[:-1], dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        res, J = residual(u)
        if not ok.any() or np.max(np.abs(res[ok])) <= tol:
            break
        J0, J1 = J[..., 0, :], J[..., 1, :]
        a, b, c = np.sum(J0 * J0, -1), np.sum(J0 * J1, -1), np.sum(J1 * J1, -1)  # J J^T
        det = a * c - b * b
        bad = np.abs(det) < 1e-300
        ok &= ~bad
        det = np.where(bad, 1.0, det)
        lam0 = (c * res[..., 0] - b * res[..., 1]) / det
        lam1 = (a * res[..., 1] - b * res[..., 0]) / det
        step = lam0[..., None] * J0 + lam1[..., None] * J1
        u = u - np.where(ok[..., None], step, 0.0)
    return u, ok


@dataclass(frozen=True)
class ActionMap:
    """z -> I(z) = 2 pi eta(z) + I0 for an integrable torus symbol."""

    ptilde: SymbolExpr
    I0: tuple = (0.0, 0.0)

    def __post_init__(self):
        _require_eta_only(self.ptilde)
        object.__setattr__(self, "I0", (float(self.I0[0]), float(self.I0[1])))

    def _jac(self, eta):
        """Real 2x2 Jacobian of (Re ptilde, Im ptilde) wrt eta, shape (...,2,2)."""
        d1, d2 = (d.evaluate(np.zeros_like(eta), eta) for d in self.ptilde.grad_symbols[2:])
        return np.stack([np.stack([d1.real, d2.real], axis=-1),
                         np.stack([d1.imag, d2.imag], axis=-1)], axis=-2)

    def eta_of_z(self, z):
        """Newton inversion of ptilde(eta) = z over an array of z."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)

        def residual(eta):
            vals = self.ptilde.evaluate(np.zeros_like(eta), eta)
            return np.stack([(vals - z).real, (vals - z).imag], axis=-1), self._jac(eta)

        eta, ok = newton_2xm(residual, np.stack([z.real, z.imag], axis=-1).astype(float),
                             ACTION_NEWTON_TOL)
        vals = self.ptilde.evaluate(np.zeros_like(eta), eta)
        ok &= np.abs(vals - z) <= 10 * ACTION_NEWTON_TOL
        if scalar:
            return eta[0], ok[0]
        return eta, ok

    def actions_and_jacobian(self, z):
        """(I(z), DI(z)) with DI the real 2x2 Jacobian wrt (Re z, Im z)."""
        eta, ok = self.eta_of_z(z)
        if not np.all(ok):
            raise SingularActionMapError(
                f"Newton inversion failed at {int((~ok).sum())} point(s)")
        J = self._jac(eta)
        I = 2 * np.pi * eta + np.asarray(self.I0)
        dI = 2 * np.pi * np.linalg.inv(J)
        return I, dI

    def jacobian_det(self, z):
        """|det DI| per point; NaN where the inversion fails."""
        eta, ok = self.eta_of_z(z)
        J = self._jac(eta)
        det_eta = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        out = np.where(ok & (np.abs(det_eta) > 0),
                       TWO_PI_SQ / np.abs(det_eta), np.nan)
        return out

    def constant_sign_at(self, eta, ok) -> bool:
        """Whether det DI keeps one sign at eta, inverted by eta_of_z with flags ok.

        False if any point failed to invert.  A sign change would
        contradict the action map being a diffeomorphism there; the
        density and lattice machinery assume it holds.
        """
        if not np.all(ok):
            return False
        J = self._jac(eta)
        det_eta = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        return bool(np.all(det_eta > 0) or np.all(det_eta < 0))


def action_map_integrable(ptilde: SymbolExpr, I0=(0.0, 0.0)) -> ActionMap:
    """Action map I(z) = 2 pi eta(z) + I0 from an eta-only torus symbol."""
    return ActionMap(ptilde, tuple(I0))


def omega_density(am: ActionMap, win: ComplexWindow) -> DensityGrid:
    """Action density omega(z) = |det DI(z)| at cell centers (exact formula)."""
    z = win.centers_complex()
    vals = am.jacobian_det(z)
    bad = ~np.isfinite(vals)
    if bad.mean() > OMEGA_NAN_LIMIT:
        raise SingularActionMapError(
            f"singular action map on {bad.mean():.1%} of cells")
    return DensityGrid(win, vals, np.zeros_like(vals), "jacobian-formula",
                       meta={"I0": list(am.I0)})


# ------------------------------------------------------------------ volumes


def preimage_volume(p, window_or_bounds, box_radius=4.0, samples=10_000_000,
                    seed=0, sampler="sobol"):
    """vol(p^{-1}(W)) of the open window on the real box, with a binomial standard error."""
    win = window_or_bounds
    if not isinstance(win, ComplexWindow):
        win = ComplexWindow.from_bounds(*win)
    boxvol = (2 * box_radius) ** (2 * p.n)
    hits = 0
    for vals, _ in _sampled_values(p, win, 2 * p.n, _box_points(p.n, box_radius),
                                   samples, seed, sampler):
        hits += int(np.count_nonzero(win.contains(vals)))
    phat = hits / samples
    vol = boxvol * phat
    stderr = boxvol * np.sqrt(max(phat * (1 - phat), 1.0 / samples) / samples)
    return vol, stderr


def box_face_points(n, box_radius, n_samples, entropy):
    """(x, xi): n_samples random points on the faces of [-box_radius, box_radius]^(2n).

    Each point is uniform in the box with one random coordinate pushed to
    a random face; `entropy` seeds the generator.
    """
    dim = 2 * n
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    pts = -box_radius + 2 * box_radius * rng.random((n_samples, dim))
    face = rng.integers(0, dim, n_samples)
    sign = rng.integers(0, 2, n_samples) * 2 - 1
    pts[np.arange(n_samples), face] = sign * box_radius
    return pts[:, :n], pts[:, n:]


def ellipticity_margin_check(p, win: ComplexWindow, box_radius, seed=0):
    """Check that p(boundary of box) stays away from the window.

    Samples the faces of the integration box (MARGIN_SAMPLES points) and
    requires the image to avoid the window by at least MARGIN_FACTOR
    window diameters, so no preimage mass is cut off at the box
    boundary.  Heuristic evidence, reported not proved.
    """
    vals = p.evaluate(*box_face_points(p.n, box_radius, MARGIN_SAMPLES, (seed, 991)))
    min_dist = float(np.min(win.distance(vals)))
    need = MARGIN_FACTOR * win.diameter
    return min_dist >= need, min_dist
