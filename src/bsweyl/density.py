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

Sampling has two units.  A shard (``shard_size``, 2^20 by default) is
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

import numpy as np
from scipy.stats import qmc

from .flow import DeformedSymbol, closed_form
from .symbols import DimensionMismatchError, SymbolExpr

TWO_PI_SQ = (2 * np.pi) ** 2
DEFAULT_SHARD = 1 << 20  # samples drawn at once
BLOCK = 1 << 14  # samples scaled, evaluated and binned (or flowed) at once


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

    @property
    def re_edges(self):
        lo, hi, _, _ = self.bounds
        return np.linspace(lo, hi, self.resolution[0] + 1)

    @property
    def im_edges(self):
        _, _, lo, hi = self.bounds
        return np.linspace(lo, hi, self.resolution[1] + 1)

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
    method: str  # monte-carlo | quasi-monte-carlo | tensor-quadrature | jacobian-formula
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


def _unit_samples(dim, total, seed, sampler, shard_size=DEFAULT_SHARD):
    """Yield shards of points in [0,1)^dim; deterministic per (seed, sampler).

    A shard is the unit of drawing only; callers evaluate it in BLOCKs.
    Sobol' shards continue one sequence; each full power-of-two shard is
    balanced.  scipy warns when the first shard is no power of two.  iid
    shards are seeded by (seed, shard index).
    """
    if sampler == "sobol":
        eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
        done = 0
        while done < total:
            m = min(shard_size, total - done)
            yield eng.random(m)
            done += m
    elif sampler == "random":
        done = 0
        shard = 0
        while done < total:
            m = min(shard_size, total - done)
            rng = np.random.default_rng(np.random.SeedSequence((seed, shard)))
            yield rng.random((m, dim))
            done += m
            shard += 1
    else:
        raise ValueError(f"unknown sampler {sampler!r} (use 'sobol' or 'random')")


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


def _bin(vals, win: ComplexWindow, weights=None):
    """Counts (or weight sums) of complex values per window cell.

    Equal to np.histogram2d over (win.re_edges, win.im_edges): points
    outside the closed window are dropped and the last cell of each axis
    is closed.  Weights are summed by bincount in sample order, as
    histogramdd does.
    """
    re_edges, im_edges = win.re_edges, win.im_edges
    x, y = vals.real, vals.imag
    keep = ((x >= re_edges[0]) & (x <= re_edges[-1])
            & (y >= im_edges[0]) & (y <= im_edges[-1]))
    x, y = x[keep], y[keep]
    nr, ni = win.resolution
    idx = _axis_index(x, re_edges) * ni + _axis_index(y, im_edges)
    w = None if weights is None else weights[keep]
    return np.bincount(idx, w, minlength=nr * ni).reshape(nr, ni)


def _sampled_values(p, win, dim, points, samples, seed, sampler, shard_size):
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
    shards = _unit_samples(dim, samples, seed, sampler, shard_size)
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


def _box_points(n, box_radius):
    """Map unit rows to (x, xi) in the real box {|(x, xi)|_inf <= box_radius}."""
    def points(u):
        q = -box_radius + 2 * box_radius * u
        return q[:, :n], q[:, n:]
    return points


def _sample_method(sampler):
    return "monte-carlo" if sampler == "random" else "quasi-monte-carlo"


def weyl_density(p, win: ComplexWindow, box_radius=4.0, samples=10_000_000,
                 seed=0, sampler="sobol", shard_size=DEFAULT_SHARD) -> DensityGrid:
    """Histogram estimate of the pushforward of dx dxi under p.

    Samples the real box {|(x, xi)|_inf <= box_radius} in R^{2n}, bins
    p(rho) over the window cells and normalizes per cell area.  The
    reported standard error is the per-cell binomial estimate (for the
    low-discrepancy sampler it is conservative).  Works in any
    dimension n; only the window is two-dimensional.
    """
    n = p.n
    boxvol = (2 * box_radius) ** (2 * n)
    counts = np.zeros(tuple(win.resolution), dtype=np.int64)
    flowed = 0
    for vals, k in _sampled_values(p, win, 2 * n, _box_points(n, box_radius),
                                   samples, seed, sampler, shard_size):
        counts += _bin(vals, win)
        flowed += k
    if counts.sum() == 0:
        raise EmptyGridError("no sample landed in the window")
    scale = boxvol / (samples * win.cell_area)
    values = counts * scale
    phat = counts / samples
    stderr = scale * np.sqrt(np.maximum(counts, 1) * (1 - phat))
    return DensityGrid(win, values, stderr, _sample_method(sampler),
                       meta={"samples": samples, "flowed": flowed, "seed": seed,
                             "box_radius": box_radius, "sampler": sampler,
                             "n": n})


def weyl_density_torus(ptilde: SymbolExpr, win: ComplexWindow, eta_box,
                       samples=10_000_000, seed=0, sampler="sobol",
                       quadrature_order=None,
                       shard_size=DEFAULT_SHARD) -> DensityGrid:
    """Pushforward of (2 pi)^2 d eta under eta -> ptilde(eta).

    ``ptilde`` must depend on the action variables only (stored in the
    xi slots of a 2-d symbol).  ``eta_box`` is ((lo1, hi1), (lo2, hi2)).
    With ``quadrature_order`` set, a tensor Gauss-Legendre rule replaces
    sampling (zero reported stderr; cell-boundary binning error is the
    caveat, so prefer coarse windows there).
    """
    _require_eta_only(ptilde)
    (lo1, hi1), (lo2, hi2) = eta_box
    area = (hi1 - lo1) * (hi2 - lo2)

    if quadrature_order is not None:
        xg, wg = np.polynomial.legendre.leggauss(int(quadrature_order))
        e1 = lo1 + (hi1 - lo1) * (xg + 1) / 2
        w1 = wg * (hi1 - lo1) / 2
        e2 = lo2 + (hi2 - lo2) * (xg + 1) / 2
        w2 = wg * (hi2 - lo2) / 2
        E1, E2 = np.meshgrid(e1, e2, indexing="ij")
        W = np.outer(w1, w2).ravel()
        eta = np.stack([E1.ravel(), E2.ravel()], axis=-1)
        h = _bin(ptilde.evaluate(np.zeros_like(eta), eta), win, W)
        values = TWO_PI_SQ * h / win.cell_area
        values = np.maximum(values, 0.0)
        return DensityGrid(win, values, np.zeros_like(values), "tensor-quadrature",
                           meta={"quadrature_order": int(quadrature_order),
                                 "eta_box": [[lo1, hi1], [lo2, hi2]]})

    def points(u):  # x = 0, the actions eta in eta_box
        eta = np.stack([lo1 + (hi1 - lo1) * u[:, 0], lo2 + (hi2 - lo2) * u[:, 1]], axis=-1)
        return np.zeros_like(eta), eta

    counts = np.zeros(tuple(win.resolution), dtype=np.int64)
    for vals, _ in _sampled_values(ptilde, win, 2, points, samples, seed, sampler,
                                   shard_size):
        counts += _bin(vals, win)
    if counts.sum() == 0:
        raise EmptyGridError("no sample landed in the window")
    scale = TWO_PI_SQ * area / (samples * win.cell_area)
    values = counts * scale
    phat = counts / samples
    stderr = scale * np.sqrt(np.maximum(counts, 1) * (1 - phat))
    return DensityGrid(win, values, stderr, _sample_method(sampler),
                       meta={"samples": samples, "seed": seed, "sampler": sampler,
                             "eta_box": [[lo1, hi1], [lo2, hi2]]})


def _require_eta_only(ptilde: SymbolExpr):
    if ptilde.n != 2:
        raise DimensionMismatchError("torus symbols require n = 2")
    for t in ptilde.terms:
        if any(t.xpow) or any(f != 0 for f in t.xfreq):
            raise ValueError("torus symbol must depend on the action variables only")


# ------------------------------------------------------------------ actions


def newton_2x2(residual, u, tol, max_iter):
    """Batched Newton iteration for real 2x2 systems, steps by Cramer's rule.

    ``residual(u)`` maps points u of shape (..., 2) to the residual
    (..., 2) and its Jacobian (..., 2, 2).  Iterates until the largest
    residual over the still-regular points is <= tol, or max_iter steps.
    Returns (u, ok) with ok False where the Jacobian became singular;
    callers apply their own acceptance test to the returned u.
    """
    ok = np.ones(u.shape[:-1], dtype=bool)
    for _ in range(max_iter):
        res, J = residual(u)
        if not ok.any() or np.max(np.abs(res[ok])) <= tol:
            break
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        bad = np.abs(det) < 1e-300
        ok &= ~bad
        det = np.where(bad, 1.0, det)
        step = np.stack([(J[..., 1, 1] * res[..., 0] - J[..., 0, 1] * res[..., 1]) / det,
                         (-J[..., 1, 0] * res[..., 0] + J[..., 0, 0] * res[..., 1]) / det],
                        axis=-1)
        u = u - np.where(ok[..., None], step, 0.0)
    return u, ok


@dataclass(frozen=True)
class ActionMap:
    """z -> I(z) = 2 pi eta(z) + I0 for an integrable torus symbol."""

    ptilde: SymbolExpr
    I0: tuple = (0.0, 0.0)
    newton_tol: float = 1e-12
    max_iter: int = 50

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

        eta, ok = newton_2x2(residual, np.stack([z.real, z.imag], axis=-1).astype(float),
                             self.newton_tol, self.max_iter)
        vals = self.ptilde.evaluate(np.zeros_like(eta), eta)
        ok &= np.abs(vals - z) <= 10 * self.newton_tol
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

    def constant_sign_on(self, win) -> bool:
        """Whether det DI keeps one sign over the window grid.

        A sign change would contradict the action map being a
        diffeomorphism there; the density and lattice machinery assume
        it holds.
        """
        z = win.centers_complex().ravel()
        eta, ok = self.eta_of_z(z)
        if not np.all(ok):
            return False
        J = self._jac(eta)
        det_eta = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        return bool(np.all(det_eta > 0) or np.all(det_eta < 0))


def action_map_integrable(ptilde: SymbolExpr, I0=(0.0, 0.0),
                          newton_tol=1e-12, max_iter=50) -> ActionMap:
    """Action map I(z) = 2 pi eta(z) + I0 from an eta-only torus symbol."""
    return ActionMap(ptilde, tuple(I0), newton_tol, max_iter)


def omega_density(am: ActionMap, win: ComplexWindow,
                  nan_fraction_limit=0.01) -> DensityGrid:
    """Action density omega(z) = |det DI(z)| at cell centers (exact formula)."""
    z = win.centers_complex()
    vals = am.jacobian_det(z)
    bad = ~np.isfinite(vals)
    if bad.mean() > nan_fraction_limit:
        raise SingularActionMapError(
            f"singular action map on {bad.mean():.1%} of cells")
    return DensityGrid(win, vals, np.zeros_like(vals), "jacobian-formula",
                       meta={"I0": list(am.I0)})


# ------------------------------------------------------------------ volumes


def preimage_volume(p, window_or_bounds, box_radius=4.0, samples=10_000_000,
                    seed=0, sampler="sobol", shard_size=DEFAULT_SHARD):
    """vol(p^{-1}(W)) of the open window on the real box, with a binomial standard error."""
    win = window_or_bounds
    if not isinstance(win, ComplexWindow):
        win = ComplexWindow.from_bounds(*win)
    boxvol = (2 * box_radius) ** (2 * p.n)
    hits = 0
    for vals, _ in _sampled_values(p, win, 2 * p.n, _box_points(p.n, box_radius),
                                   samples, seed, sampler, shard_size):
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


def ellipticity_margin_check(p, win: ComplexWindow, box_radius,
                             n_samples=20000, seed=0, margin_factor=0.2):
    """Check that p(boundary of box) stays away from the window.

    Samples the faces of the integration box and requires the image to
    avoid the window by at least margin_factor * window diameter, so no
    preimage mass is cut off at the box boundary.  Heuristic evidence,
    reported not proved.
    """
    vals = p.evaluate(*box_face_points(p.n, box_radius, n_samples, (seed, 991)))
    min_dist = float(np.min(win.distance(vals)))
    need = margin_factor * win.diameter
    return min_dist >= need, min_dist
