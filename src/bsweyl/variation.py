"""Variational identities for the deformed Weyl density.

For M(t) = iint f(p_t) dx dxi and a real compactly supported test
function f these hold:

    dM/dt     = iint (Delta f)(p_t) {Re p_t, Im p_t} Re G  dx dxi
    d^2M/dt^2 |_{t=0, integrable base, real G}
              = iint (Delta f)(p) |H_p G|^2  dx dxi

The right-hand sides are evaluated by deterministic tensor Gauss-Legendre
quadrature over a real box that must contain the support of f o p_t (each
entry point warns when it does not).  Each term of a symbol is a product
of per-axis factors, so on the x-block by xi-block grid a symbol is one
small GEMM of two factor tables (sum factorization); grid points are
built only for a p_t with no closed form.  The left-hand sides are
Richardson-extrapolated central differences of M in t.  A nonzero
second-variation pairing certifies that the deformed Weyl density splits
away from the (deformation invariant) action density for small t != 0.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .density import box_face_points
from .flow import closed_form
from .symbols import DimensionMismatchError, SymbolExpr, poisson_bracket, real_bracket

QUAD_MIN_ORDER = 8
FD_STEP_FIRST = 1e-2
FD_STEP_SECOND = 2e-2
ERROR_FLOOR = 1e-12
# relative widening of a certificate grid's reach, so it keeps every node
# that a bump's rounded |u| < 1 test can accept
REACH_PAD = 1e-9


@dataclass(frozen=True)
class TestFunction:
    """Real bump f(z) = g(u) g(v), g(u) = (1-u^2)^3 on |u| <= 1.

    u = (Re z - Re c)/r, v = (Im z - Im c)/r, so the support is the
    closed square of half-width r around the center.  The Laplacian is
    closed form, which keeps the identity checks quadrature limited.
    """

    center: complex
    radius: float

    __test__ = False  # not a pytest class

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", complex(self.center))

    def _support(self, z):
        """u and v at the points of z inside the open support, and their mask."""
        z = np.asarray(z)
        u = (z.real - self.center.real) / self.radius
        v = (z.imag - self.center.imag) / self.radius
        m = (np.abs(u) < 1) & (np.abs(v) < 1)
        return u[m], v[m], m

    def value(self, z):
        u, v, m = self._support(z)
        out = np.zeros(m.shape)
        out[m] = (1 - u ** 2) ** 3 * (1 - v ** 2) ** 3
        return out

    def laplacian(self, z):
        u, v, m = self._support(z)
        wu, wv = 1 - u ** 2, 1 - v ** 2
        out = np.zeros(m.shape)
        out[m] = (wu * (30 * u ** 2 - 6) * wv ** 3
                  + wu ** 3 * (wv * (30 * v ** 2 - 6))) / self.radius ** 2
        return out

    def support_bounds(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)


# ----------------------------------------------------------------- quadrature


class SupportLeakWarning(RuntimeWarning):
    """f o p does not vanish on the faces of the integration box."""


def _tensor_grid(n, box_radius, order):
    """Nodes and weights of one axis of the Gauss-Legendre grid on [-R, R]^{2n}."""
    order = int(order)
    if order < QUAD_MIN_ORDER:
        raise ValueError(f"quadrature order {order} < {QUAD_MIN_ORDER}")
    if order ** (2 * n) > 5 * 10 ** 8:
        raise ValueError("tensor grid too large; reduce order or dimension")
    x, w = np.polynomial.legendre.leggauss(order)
    return x * box_radius, w * box_radius


def _sum_factorized(sym: SymbolExpr, nodes, n):
    """sym on the grid, as a function of a block of rows: A[rows] @ B.

    From ``sym._plan``: column t of A (order^n x T) is term t's x factors
    on the x-block, row t of B (T x order^n) its coefficient times its xi
    factors, in ij order.  A table is complex only where a term has a
    phase on its block (B also where a coefficient is complex); a real A
    times a complex B is one real GEMM on B's float view.
    """
    if sym.n != n:
        raise DimensionMismatchError(f"symbol has n={sym.n}, grid has n={n}")
    cols, rows = [], []
    for c, pows, freqs in sym._plan[0]:
        axis = [np.ones_like(nodes)] * (2 * n)
        for k, e in pows:
            axis[k] = axis[k] * nodes ** e
        for k, f in freqs:
            axis[k] = axis[k] * np.exp(1j * f * nodes)
        cols.append(functools.reduce(np.multiply.outer, axis[:n]).ravel())
        rows.append((c.real if c.imag == 0 else c)
                    * functools.reduce(np.multiply.outer, axis[n:]).ravel())
    size = nodes.size ** n  # no terms: zero tables, the zero symbol
    A = np.stack(cols, axis=1) if cols else np.zeros((size, 0))
    B = np.stack(rows) if rows else np.zeros((0, size))
    if np.iscomplexobj(A):
        B = B.astype(complex)
    elif np.iscomplexobj(B):
        B_float = B.view(float)
        return lambda block: (A[block] @ B_float).view(complex)
    return lambda block: A[block] @ B


def _slabs(fns, n, box_radius, order):
    """The grid slab by slab: (row weights, [values of each fn], column weights).

    A slab is the order^(2n-1) nodes that share one first-axis node, as
    order^(n-1) rows (the other x-axes) by order^n columns (the xi-axes),
    in ij order when raveled.  A SymbolExpr costs one GEMM of its factor
    tables; any other fn maps flat points (x, xi), built for it, to values.
    """
    nodes, w = _tensor_grid(n, box_radius, order)
    w_block = functools.reduce(np.multiply.outer, [w] * n).ravel()
    tables = [_sum_factorized(s, nodes, n) if isinstance(s, SymbolExpr) else None
              for s in fns]
    rows = nodes.size ** (n - 1)
    for i in range(nodes.size):
        block = slice(i * rows, (i + 1) * rows)
        if None in tables:
            axes = np.meshgrid(nodes[i:i + 1], *[nodes] * (2 * n - 1), indexing="ij")
            pts = np.stack([a.ravel() for a in axes], axis=-1)
        yield w_block[block], [
            t(block) if t is not None
            else np.asarray(fn(pts[:, :n], pts[:, n:])).reshape(rows, -1)
            for fn, t in zip(fns, tables)], w_block


def tensor_quadrature(symbols, integrand, n, box_radius, order):
    """Integrate integrand(*values) over [-R, R]^{2n}, one value per symbol.

    ``symbols`` holds SymbolExprs, or functions of points (x, xi) where
    there is no closed form (see ``_slabs``).  Each slab adds
    w_rows . (integrand @ w_cols) in a fixed order: bitwise reproducible.
    """
    total = 0.0
    for w_rows, vals, w_cols in _slabs(symbols, n, box_radius, order):
        total += float(w_rows @ (np.asarray(integrand(*vals), dtype=float) @ w_cols))
    return total


def moment(f: TestFunction, p, box_radius, order=48, check_support=True) -> float:
    """M = iint f(p(x, xi)) dx dxi by tensor Gauss-Legendre quadrature."""
    if check_support:
        _warn_if_support_leaks(f, p, box_radius)
    return tensor_quadrature((closed_form(p) or p.evaluate,), f.value, p.n, box_radius, order)


def _warn_if_support_leaks(f, p, box_radius, n_samples=4096, seed=17):
    """f o p must vanish near the box boundary or mass is being cut off."""
    vals = f.value(p.evaluate(*box_face_points(p.n, box_radius, n_samples, (seed, 313))))
    if np.max(np.abs(vals)) > 0:
        warnings.warn("test function support reaches the integration box "
                      "boundary; enlarge box_radius", SupportLeakWarning, stacklevel=3)


def first_variation_rhs(f: TestFunction, p_t, G: SymbolExpr, box_radius,
                        order=48, fd_step=1e-5) -> float:
    """iint (Delta f)(p_t) {Re p_t, Im p_t} Re G dx dxi.

    For closed-form p_t the bracket is the exact symbol (i/2){p, conj p};
    when that symbol merges to zero the integral is exactly 0.0 and no
    quadrature runs (the integrable branch).  An ODE-defined p_t falls
    back to a Richardson central-difference bracket of step ``fd_step``,
    on the grid's points.
    """
    reG = G.real_part_symbol()
    closed = closed_form(p_t)
    if closed is None:
        fns = (p_t.evaluate, lambda x, xi: _numeric_real_bracket(p_t, x, xi, fd_step))
    else:
        br = real_bracket(closed)
        if br.is_zero:
            return 0.0
        fns = (closed, br)
    _warn_if_support_leaks(f, p_t, box_radius)
    return tensor_quadrature(
        fns + (reG,), lambda v, b, g: f.laplacian(v) * b.real * g.real,
        p_t.n, box_radius, order)


def _numeric_real_bracket(p, x, xi, h):
    """{Re p, Im p} by Richardson central differences of p's evaluation."""

    def bracket(step):
        out = 0.0
        for e in np.eye(p.n) * step:
            dx = (p.evaluate(x + e, xi) - p.evaluate(x - e, xi)) / (2 * step)
            dxi = (p.evaluate(x, xi + e) - p.evaluate(x, xi - e)) / (2 * step)
            out = out + (dxi.real * dx.imag - dx.real * dxi.imag)
        return out

    return (4 * bracket(h / 2) - bracket(h)) / 3


def second_variation_rhs(f: TestFunction, p: SymbolExpr, G: SymbolExpr,
                         box_radius, order=48) -> float:
    """iint (Delta f)(p) |H_p G|^2 dx dxi for an integrable base.

    Rejects bases whose bracket {Re p, Im p} is not the zero symbol and
    generators that are not real-valued on real points.
    """
    if not real_bracket(p).is_zero:
        raise ValueError("second variation formula needs an integrable base "
                         "({Re p, Im p} must vanish identically)")
    if not G.is_real_on_reals():
        raise ValueError("generator must be real-valued on real points")
    hpg = poisson_bracket(p, G)
    if hpg.is_zero:
        return 0.0
    _warn_if_support_leaks(f, p, box_radius)
    return tensor_quadrature((p, hpg), lambda v, h: f.laplacian(v) * np.abs(h) ** 2,
                             p.n, box_radius, order)


# -------------------------------------------------------- finite differences


def moment_derivative_fd(make_pt, t0, order_in_t=1, step=None, *,
                         f, box_radius, quad_order=48):
    """Richardson central difference of M(t) around t0.

    ``make_pt(t)`` returns the symbol (or deformed symbol) at time t.
    One Richardson level: error O(step^4) on analytic M.
    """
    if step is None:
        step = FD_STEP_FIRST if order_in_t == 1 else FD_STEP_SECOND
    for t in (t0 - step, t0 + step):  # the widest deformations the differences reach
        _warn_if_support_leaks(f, make_pt(t), box_radius)

    def M(t):
        return moment(f, make_pt(t), box_radius, quad_order, check_support=False)

    if order_in_t == 1:
        def diff(h):
            return (M(t0 + h) - M(t0 - h)) / (2 * h)
    elif order_in_t == 2:
        m0 = M(t0)

        def diff(h):
            return (M(t0 + h) - 2 * m0 + M(t0 - h)) / h ** 2
    else:
        raise ValueError("order_in_t must be 1 or 2")
    d1 = diff(step)
    d2 = diff(step / 2)
    return (4 * d2 - d1) / 3


@dataclass
class VariationReport:
    lhs: float
    rhs: float
    order: str  # "first" | "second"
    t: float
    lhs_error: float
    rhs_error: float
    discrepancy: float

    @classmethod
    def build(cls, lhs, rhs, order, t, lhs_error=0.0, rhs_error=0.0):
        disc = abs(lhs - rhs) / max(abs(rhs), ERROR_FLOOR)
        return cls(lhs, rhs, order, t, lhs_error, rhs_error, disc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def quadrature_error_estimate(value_fn, order) -> tuple:
    """(value, error) with error = |I_order - I_{order/2}| + floor."""
    hi = value_fn(order)
    lo = value_fn(max(QUAD_MIN_ORDER, order // 2))
    return hi, abs(hi - lo) + ERROR_FLOOR


class _SecondVariationGrid:
    """Cached quadrature data so many test functions can be paired cheaply.

    Stores weight * |H_p G(nodes)|^2 per slab for one quadrature order,
    and p(nodes) only where it lies in ``reach`` = (lo_re, hi_re, lo_im,
    hi_im), padded by REACH_PAD relative.  A bump supported in ``reach``
    has a zero Laplacian at every other node, so its pairing scatters the
    Laplacian at the kept nodes into zeros and equals the full-grid sum.
    """

    def __init__(self, p, hpg, box_radius, order, reach):
        self.reach = reach
        pad = REACH_PAD * max(map(abs, reach))
        lo_r, hi_r, lo_i, hi_i = np.add(reach, (-pad, pad, -pad, pad))
        self.slabs = []
        for w_rows, (vals, h), w_cols in _slabs((p, hpg), p.n, box_radius, order):
            vals = vals.ravel()
            keep = np.flatnonzero((lo_r < vals.real) & (vals.real < hi_r)
                                  & (lo_i < vals.imag) & (vals.imag < hi_i))
            self.slabs.append(((np.multiply.outer(w_rows, w_cols) * np.abs(h) ** 2).ravel(),
                               keep, vals[keep]))

    def pair(self, f: TestFunction) -> float:
        lo_r, hi_r, lo_i, hi_i = f.support_bounds()
        r0, r1, i0, i1 = self.reach
        if not (r0 <= lo_r and hi_r <= r1 and i0 <= lo_i and hi_i <= i1):
            raise ValueError("test function support leaves the grid's reach")
        lap = np.zeros(self.slabs[0][0].size)
        total = 0
        for wh, keep, vals in self.slabs:
            lap[keep] = f.laplacian(vals)
            total += np.dot(lap, wh)
            lap[keep] = 0.0
        return float(total)


def nonequality_certificate(p: SymbolExpr, G: SymbolExpr, window, box_radius,
                            order=48, centers_per_axis=4, radii=(0.25, 0.4),
                            threshold=5.0):
    """Search bump test functions for |second variation| > threshold x error.

    Scans a coarse grid of bump centers over the window and a couple of
    radii (as fractions of the window half-widths).  Returns
    (TestFunction, value, error) for the best witness, or None when the
    budget is exhausted without one -- which is not a disproof.  The
    pairing only senses the deformation where the test function reaches
    the boundary of the image of the symbol, so the window should
    overlap it.
    """
    if not real_bracket(p).is_zero:
        raise ValueError("certificate search needs an integrable base")
    if not G.is_real_on_reals():
        raise ValueError("generator must be real-valued on real points")
    hpg = poisson_bracket(p, G)
    if hpg.is_zero:
        return None
    lo_r, hi_r, lo_i, hi_i = window.bounds
    cs = np.linspace(lo_r, hi_r, centers_per_axis + 2)[1:-1]
    ci = np.linspace(lo_i, hi_i, centers_per_axis + 2)[1:-1]
    r_max = max(radii) * min(window.half_widths)  # reach: the box holding every bump's support
    reach = (cs[0] - r_max, cs[-1] + r_max, ci[0] - r_max, ci[-1] + r_max)
    grid_hi = _SecondVariationGrid(p, hpg, box_radius, order, reach)
    grid_lo = _SecondVariationGrid(p, hpg, box_radius, max(QUAD_MIN_ORDER, order // 2),
                                   reach)
    best = None
    for rfrac in radii:
        rad = rfrac * min(window.half_widths)
        for cre in cs:
            for cim in ci:
                f = TestFunction(complex(cre, cim), rad)
                v = grid_hi.pair(f)
                err = abs(v - grid_lo.pair(f)) + ERROR_FLOOR
                if abs(v) > threshold * err and (best is None or abs(v) > abs(best[1])):
                    best = (f, v, err)
    return best
