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

Every sample, Sobol' or iid, is drawn, scaled to the box, evaluated
and binned one block (``BLOCK`` = 2^15 rows) at a time, by the draw
stream of its shard (``_shards``), so no whole shard is held.  A block
is long enough that each numpy call outlasts a hand-over of the GIL, so
the shard threads overlap; each shard draws its rows into one row
buffer and evaluates into one value buffer, both allocated once and
refilled for every block, so the largest arrays of a block are not
returned to the kernel and faulted in again between blocks.  A shard
(``DEFAULT_SHARD`` = 2^20 rows) fixes the per-shard seeds of the iid
sampler, the balanced Sobol' blocks and the flow's batches: no block
crosses a shard's end.  The shards of one estimate run concurrently,
one thread per CPU (``map_on_cpus``), and their integer counts are
summed, so the grids and volumes do not depend on the number of
workers.  When a deformed symbol has no closed form, only the samples
that can land in the window go through the flow, ``FLOW_BATCH`` = 2^14
of them at a time (see ``_map_shards``).  The Sobol' points are
scipy's, drawn by an in-module generator (``_Sobol``).
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import threading
import warnings
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import numpy.random

from .flow import DeformedSymbol, closed_form
from .symbols import DimensionMismatchError, SymbolExpr

TWO_PI_SQ = (2 * np.pi) ** 2
DEFAULT_SHARD = 1 << 20  # samples per iid seed, balanced Sobol' block and flow grouping
BLOCK = 1 << 15  # samples drawn, scaled, evaluated and binned at once, into per-shard buffers
FLOW_BATCH = 1 << 14  # samples of a flowing symbol per RK45 batch; the flowed bits depend on it
SOBOL_BITS = 30  # binary digits of each Sobol' coordinate, as scipy's engine draws them
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

    @cached_property
    def cell_bounds(self):
        """Per axis, (lo, hi, nb / (hi - lo), lower, upper) for binning:
        lower[i] and upper[i] are cell i's edges, with lower[nb] and
        upper[nb - 1] infinite (see ``_axis_index``)."""
        inf = [np.inf]
        return tuple((e[0], e[-1], (len(e) - 1) / (e[-1] - e[0]), np.concatenate([e[:-1], inf]),
                      np.concatenate([e[1:-1], inf])) for e in (self.re_edges, self.im_edges))

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

    def integral(self, f) -> float:
        """Sum of f(z_cell) * value * cell_area."""
        w = self.values * f(self.window.centers_complex())
        return float(np.nansum(w) * self.window.cell_area)

    def write_csv(self, path):
        """One row per cell, row-major, each ending in CRLF as csv's excel
        dialect writes them; written line by line, so the file is never
        held as one string."""
        z = self.window.centers_complex().ravel()
        with open(path, "w", newline="") as fh:
            fh.write("z_re,z_im,value,stderr\r\n")
            fh.writelines(f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}\r\n" for a, b, c, d in zip(
                z.real.tolist(), z.imag.tolist(), self.values.ravel().tolist(),
                self.stderr.ravel().tolist()))

    def write_meta(self, path):
        with open(path, "w") as fh:
            json.dump({"method": self.method, "window": self.window.to_json_dict(),
                       **self.meta}, fh, indent=2)


# ------------------------------------------------------------------ sampling


@functools.cache
def _sobol_table(dim):
    """(poly, vinit) of the first dim dimensions: the primitive polynomials
    and initial direction numbers of Joe & Kuo (SIAM J. Sci. Comput.
    2008), from the file scipy ships for its Sobol' engine.  Each .npy
    member is streamed out of the archive, header first, and only its
    first dim rows are kept: the whole table is 21,201 rows.  Read by
    path, found by ``find_spec``, so scipy itself is never imported."""
    path = Path(importlib.util.find_spec("scipy").origin).parent / "stats" / \
        "_sobol_direction_numbers.npz"
    with zipfile.ZipFile(path) as zf:
        return tuple(_npy_head(zf, name, dim) for name in ("poly.npy", "vinit.npy"))


def _npy_head(zf, name, rows):
    """The first rows rows of a 1-d or Fortran-ordered 2-d .npy member of zf."""
    fmt = np.lib.format
    with zf.open(name) as fh:
        version = fmt.read_magic(fh)
        read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, fortran, dtype = read_header(fh)
        if len(shape) == 2 and not fortran:
            raise ValueError(f"{name}: a Fortran-ordered table is expected")
        out = np.empty((rows,) + shape[1:], dtype=dtype, order="F")
        for col in out.reshape(rows, -1, order="F").T:  # each column is contiguous in the file
            col[:] = np.frombuffer(fh.read(rows * dtype.itemsize), dtype=dtype)
            fh.seek((shape[0] - rows) * dtype.itemsize, 1)
        return out


class _Sobol:
    """Scrambled Sobol' points in [0,1)^dim, bit for bit the rows that
    ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed)`` draws.

    Direction numbers v[d, j] are SOBOL_BITS-bit integers, first digit on
    top, continued from the table by Bratley & Fox's recurrence.  Each
    dimension is scrambled by a random lower-triangular matrix over GF(2)
    acting on the digits of every v[d, j], plus a digital shift
    (Matousek 1998), drawn from default_rng(seed): the shift first, then
    the matrices.  Point k is shift ^ V(gray(k)), V(g) the XOR of the v[:, j]
    over the set bits j of g.  V and gray are linear over XOR, so point
    b * BLOCK + i is head(b) ^ low[i], one head per BLOCK and the same
    table low[i] = V(gray(i)) for every block, built by gray-code
    reflection.
    """

    def __init__(self, dim, seed):
        poly, vinit = _sobol_table(dim)
        v = np.ones((dim, SOBOL_BITS), dtype=np.uint32)
        for d in range(1, dim):
            p = int(poly[d])
            m = p.bit_length() - 1
            v[d, :m] = vinit[d, :m]
            for j in range(m, SOBOL_BITS):
                new = int(v[d, j - m])
                for k in range(m):
                    if (p >> (m - 1 - k)) & 1:
                        new ^= int(v[d, j - k - 1]) << (k + 1)
                v[d, j] = new
        top = np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # weight of digit k
        v <<= top  # m_j / 2^(j+1) as a binary fraction
        rng = np.random.default_rng(seed)
        self.shift = rng.integers(2, size=(dim, SOBOL_BITS), dtype=np.uint32) @ (
            np.uint32(1) << np.arange(SOBOL_BITS, dtype=np.uint32))
        scramble = np.tril(rng.integers(2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        scramble[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
        digits = (v[:, :, None] >> top) & 1  # [d, j, k]: digit k of v[d, j]
        digits = (digits @ scramble.transpose(0, 2, 1)) & 1
        self.v = (digits << top).sum(axis=-1, dtype=np.uint32)
        low = np.zeros((dim, 1), dtype=np.uint32)
        for j in range(BLOCK.bit_length() - 1):
            low = np.concatenate([low, low[:, ::-1] ^ self.v[:, j:j + 1]], axis=1)
        self.low = low

    def rows(self, start, stop, out):
        """Points start, ..., stop - 1, written into ``out``, a (stop - start,
        dim) float array, and returned; a Fortran-ordered ``out`` keeps each
        coordinate's column contiguous."""
        for b in range(start // BLOCK, -(-stop // BLOCK)):
            g = b * BLOCK ^ (b * BLOCK >> 1)  # gray code of the block's first point
            head = self.shift ^ np.bitwise_xor.reduce(
                self.v[:, [j for j in range(SOBOL_BITS) if g >> j & 1]], axis=1, initial=0)
            lo, hi = max(start, b * BLOCK), min(stop, (b + 1) * BLOCK)
            np.multiply(self.low[:, lo - b * BLOCK:hi - b * BLOCK] ^ head[:, None],
                        2.0 ** -SOBOL_BITS, out=out.T[:, lo - start:hi - start])
        return out


def _shards(dim, total, seed, sampler):
    """The shards of a run: one generator per shard, yielding its points in
    [0,1)^dim at most BLOCK rows at a time.

    A shard is DEFAULT_SHARD rows (read at call time), the last one
    ragged.  Sobol' rows continue one sequence of ``_Sobol``; like
    scipy's engine it holds at most 2^SOBOL_BITS points and warns when
    its first draw, here the first shard, is no power of two.  iid rows
    come from the generator seeded by (seed, shard index).  The checks
    and the warning happen here, in the calling thread; each generator
    may then be drained on any thread.  A generator allocates one row
    buffer at its first draw and yields views of it, refilled for every
    block, so each block is valid only until the next one is drawn.
    """
    if sampler == "sobol":
        if total > 1 << SOBOL_BITS:
            raise ValueError(f"at most 2**{SOBOL_BITS} Sobol' points, got {total}")
        first = min(DEFAULT_SHARD, total)
        if first & (first - 1):
            warnings.warn("The balance properties of Sobol' points require n to be a power of 2.",
                          stacklevel=3)
        eng = _Sobol(dim, seed)
    elif sampler != "random":
        raise ValueError(f"unknown sampler {sampler!r} (use 'sobol' or 'random')")

    def blocks(shard, lo, hi):
        if sampler == "random":
            rng = np.random.default_rng(np.random.SeedSequence((seed, shard)))
        # Sobol' columns are contiguous; random(out=) takes a C-ordered array
        rows = min(BLOCK, hi - lo)
        buf = np.empty((dim, rows)).T if sampler == "sobol" else np.empty((rows, dim))
        for start in range(lo, hi, BLOCK):
            stop = min(start + BLOCK, hi)
            out = buf[:stop - start]
            if sampler == "sobol":
                yield eng.rows(start, stop, out)
            else:
                yield rng.random((stop - start, dim), out=out)

    return [blocks(shard, lo, min(lo + DEFAULT_SHARD, total))
            for shard, lo in enumerate(range(0, total, DEFAULT_SHARD))]


def map_on_cpus(fn, items) -> list:
    """[fn(item) for item in items], run on one thread per CPU at most.

    The calling thread runs the first item and worker threads start on
    the next ones; each thread then takes the next item not yet taken.
    There are min(len(items), CPUs of the process) threads, so one item
    or one CPU runs in series on the calling thread; where the platform
    cannot tell the process's CPUs, the machine's count stands in.  An
    exception in any call stops the threads from taking more items and
    is raised in the caller as it was raised.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(items), cpus or 1)
    if workers < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)
    order = iter(range(1, len(items)))
    lock, failed = threading.Lock(), threading.Event()

    def run(i):
        try:
            results[i] = fn(items[i])
        except BaseException:
            failed.set()
            raise

    def drain():
        while not failed.is_set():
            with lock:
                i = next(order, None)
            if i is None:
                return
            run(i)

    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(drain) for _ in range(workers - 1)]
        run(0)
        drain()
        for f in rest:
            f.result()
    return results


def _axis_index(x, lo, scale, lower, upper):
    """Cell index of each x in [lo, hi] on one axis of ``ComplexWindow.cell_bounds``.

    The arithmetic index, in [0, nb], is corrected against the edges
    themselves, as np.histogram does on uniform bins, so the cells are
    those of searchsorted; lower[nb] and upper[nb - 1] are infinite, so
    x == hi goes to the last cell.
    """
    i = ((x - lo) * scale).astype(np.intp)
    i -= x < lower[i]
    i += x >= upper[i]
    return i


def _bin(vals, win: ComplexWindow):
    """Counts of complex values per window cell.

    Equal to np.histogram2d over (win.re_edges, win.im_edges): points
    outside the closed window are dropped and the last cell of each axis
    is closed.
    """
    (rlo, rhi, *re_cells), (ilo, ihi, *im_cells) = win.cell_bounds
    x, y = vals.real, vals.imag
    z = vals[(x >= rlo) & (x <= rhi) & (y >= ilo) & (y <= ihi)]
    nr, ni = win.resolution
    idx = _axis_index(z.real, rlo, *re_cells)
    idx *= ni
    idx += _axis_index(z.imag, ilo, *im_cells)
    return np.bincount(idx, minlength=nr * ni).reshape(nr, ni)


def _map_shards(p, win, dim, points, samples, seed, sampler, tally):
    """[(sum of tally(p at each block of points), samples flowed)], one per shard.

    The shards run on ``map_on_cpus``; every check runs here, in the
    calling thread, before any shard starts.  ``points`` maps a fresh
    block of unit-cube rows in [0,1)^dim, in place, to the (x, xi) where
    p is evaluated; a DeformedSymbol with a closed form is resolved to it
    once.  A DeformedSymbol that flows is flowed only where it can land
    in the closed window: p_t(rho) lies within displacement_bound(rho) of
    p(rho), so a sample farther than that from the window lands outside
    it and is dropped.  The pre-filter keeps the mapped rows of each
    block; at the shard's end the kept rows are flowed FLOW_BATCH at a
    time, so each RK45 batch is full.  Each shard draws into one reused
    row buffer (``_shards``), and a closed form evaluates into one
    reused value buffer; every block is tallied, or its kept rows
    copied out, before the next one is drawn.
    """
    flows = isinstance(p, DeformedSymbol) and p.flows
    if isinstance(p, DeformedSymbol) and not flows:
        p = closed_form(p)
    n = p.n

    def kept(u):
        x, xi = points(u)
        return u[win.distance(p.base.evaluate(x, xi)) <= p.displacement_bound(x, xi)]

    def shard(blocks):
        if not flows:
            vals = np.empty(BLOCK, dtype=complex)
            return sum(tally(p.evaluate(*points(u), out=vals[:len(u)])) for u in blocks), 0
        q = np.concatenate(list(map(kept, blocks)))
        return sum(tally(p.evaluate(q[i:i + FLOW_BATCH, :n], q[i:i + FLOW_BATCH, n:]))
                   for i in range(0, len(q), FLOW_BATCH)), len(q)

    return map_on_cpus(shard, _shards(dim, samples, seed, sampler))


def _histogram(p, win, dim, points, measure, samples, seed, sampler, meta):
    """The pushforward of ``measure`` times the uniform law on the sampled box.

    Bins p at ``samples`` points of [0,1)^dim mapped by ``points`` and
    scales the counts by measure / (samples * cell area).  Each shard's
    counts are integers, so their sum does not depend on which thread
    binned which shard.  The standard error is the per-cell binomial
    estimate (conservative for the low-discrepancy sampler).
    ``meta(flowed)`` is the grid's meta, given the number of samples that
    went through a flow.
    """
    shards = _map_shards(p, win, dim, points, samples, seed, sampler,
                         lambda vals: _bin(vals, win))
    counts = sum((c for c, _ in shards), np.zeros(tuple(win.resolution), dtype=np.int64))
    flowed = sum(k for _, k in shards)
    if counts.sum() == 0:
        raise EmptyGridError("no sample landed in the window")
    scale = measure / (samples * win.cell_area)
    values = counts * scale
    phat = counts / samples
    stderr = scale * np.sqrt(np.maximum(counts, 1) * (1 - phat))
    method = "monte-carlo" if sampler == "random" else "quasi-monte-carlo"
    return DensityGrid(win, values, stderr, method, meta=meta(flowed))


def _box_points(n, box_radius):
    """Map unit rows, in place, to (x, xi) in the real box {|(x, xi)|_inf <= box_radius}."""
    def points(u):
        u *= 2 * box_radius  # -r + 2r u, bit for bit
        u -= box_radius
        return u[:, :n], u[:, n:]
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

    def points(u):  # x = 0 (ptilde has no x terms), the actions eta in eta_box
        for j, (lo, hi) in enumerate(eta_box):
            u[:, j] *= hi - lo  # lo + (hi - lo) u, bit for bit
            u[:, j] += lo
        return np.zeros((1, 2)), u

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


def preimage_volume(p, win: ComplexWindow, box_radius=4.0, samples=10_000_000,
                    seed=0, sampler="sobol"):
    """vol(p^{-1}(W)) of the open window on the real box, with a binomial standard error."""
    boxvol = (2 * box_radius) ** (2 * p.n)
    hits = sum(h for h, _ in _map_shards(p, win, 2 * p.n, _box_points(p.n, box_radius), samples,
                                         seed, sampler,
                                         lambda vals: int(np.count_nonzero(win.contains(vals)))))
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
