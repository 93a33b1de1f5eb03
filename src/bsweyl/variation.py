"""Variational identities for the deformed Weyl density.

For M(t) = iint f(p_t) dx dxi and a real compactly supported test
function f these hold:

    dM/dt     = iint (Delta f)(p_t) {Re p_t, Im p_t} Re G  dx dxi
    d^2M/dt^2 |_{t=0, integrable base, real G}
              = iint (Delta f)(p) |H_p G|^2  dx dxi

The first right-hand side is evaluated by deterministic tensor
Gauss-Legendre quadrature over a real box that must contain the support
of f o p_t (each entry point warns when it does not); it needs p_t in
closed form, and one that flows is a ValueError.  Each term of a symbol
is a product of per-axis factors, so on the x-block by xi-block grid a
symbol is one small GEMM of two factor tables (sum factorization); grid
points are built only for the moment of a flowing p_t.  A bump is
evaluated only at the nodes inside its support: ``TestFunction._support``
finds their flat indices with one pass over Re p, and the values are
scattered into zeros, so the moment and the first variation are, to the
bit, the sums a full-grid evaluation gives.
The second right-hand side and the certificate need no box: they pair
in action space (``_ActionPairing``), exactly for every cho(alpha, shift).
``_SecondVariationGrid`` pairs on the tensor grid instead, keeping only
the nodes where p lies in the bump's (padded) support; the tests compare
with it.
The left-hand sides are Richardson-extrapolated central differences of M
in t.  A nonzero second-variation pairing certifies that the deformed
Weyl density splits away from the (deformation invariant) action density
for small t != 0.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, asdict

import numpy as np
import numpy.polynomial.legendre

from .density import TWO_PI_SQ, box_face_points
from .flow import closed_form
from .symbols import (DimensionMismatchError, SymbolExpr, action_symbol, poisson_bracket,
                      real_bracket, torus_average)

QUAD_MIN_ORDER = 8
FD_STEP_FIRST = 1e-2
FD_STEP_SECOND = 2e-2
ERROR_FLOOR = 1e-12
# relative widening of a _SecondVariationGrid's reach, so it keeps every node
# that a bump's rounded |u| < 1 test can accept
REACH_PAD = 1e-9
# Gauss-Legendre points per axis of the action-space pairing, and of the
# coarser rule its error estimate compares with
ACTION_ORDERS = (12, 8)
ACTION_FAMILY = ("the second variation needs p = a_1 I_1 + a_2 I_2 + c with a_1 real and "
                 "a_2 imaginary, I_j = (x_j^2 + xi_j^2)/2: every cho(alpha, shift), alpha != 0")
CERT_CENTERS = 4  # bump centers per window axis tried by the certificate
CERT_RADII = (0.25, 0.4)  # bump radii tried, as fractions of the window half-widths
CERT_THRESHOLD = 5.0  # a witness's |pairing| must exceed this times its error estimate


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
        """Flat indices of the points of z inside the open support, and u, v there.

        One pass over Re z keeps the candidates |Re z - Re c| < r; Im z is
        tested, and u, v are formed, on those only (u from Re z again, so no
        signed full-size difference is kept).  This keeps exactly the
        points, and gives exactly the u and v, that |u| < 1 and |v| < 1 at
        every point would: division is correctly rounded and monotone, and
        for doubles a < r gives a/r <= 1 - 2^-53 before rounding, so
        fl(a/r) < 1 exactly when a < r.
        """
        z = np.asarray(z)
        re, im = z.real.reshape(-1), z.imag.reshape(-1)  # views when z is contiguous
        c, r = self.center, self.radius
        dist = re - c.real
        idx = np.flatnonzero(np.abs(dist, out=dist) < r)  # in place: one full-size temporary
        dv = im[idx] - c.imag
        inside = np.abs(dv) < r
        idx = idx[inside]
        return idx, (re[idx] - c.real) / r, dv[inside] / r

    @staticmethod
    def _scatter(z, idx, vals):
        out = np.zeros(np.shape(z))
        out.reshape(-1)[idx] = vals
        return out

    def value(self, z):
        idx, u, v = self._support(z)
        return self._scatter(z, idx, (1 - u ** 2) ** 3 * (1 - v ** 2) ** 3)

    def laplacian(self, z):
        idx, u, v = self._support(z)
        wu, wv = 1 - u ** 2, 1 - v ** 2
        return self._scatter(z, idx, (wu * (30 * u ** 2 - 6) * wv ** 3
                                      + wu ** 3 * (wv * (30 * v ** 2 - 6))) / self.radius ** 2)

    def support_bounds(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)


# ----------------------------------------------------------------- quadrature


class SupportLeakWarning(RuntimeWarning):
    """f o p does not vanish on the faces of the integration box."""


@functools.cache
def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order (read-only)."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.setflags(write=False)
    return rule


def _tensor_grid(n, box_radius, order):
    """Nodes and weights of one axis of the Gauss-Legendre grid on [-R, R]^{2n}."""
    order = int(order)
    if order < QUAD_MIN_ORDER:
        raise ValueError(f"quadrature order {order} < {QUAD_MIN_ORDER}")
    if order ** (2 * n) > 5 * 10 ** 8:
        raise ValueError("tensor grid too large; reduce order or dimension")
    x, w = _leggauss(order)
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
    there is no closed form, as for the moment of a flowing p_t (see
    ``_slabs``).  Each slab adds
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


def _warn_if_support_leaks(f, p, box_radius):
    """f o p must vanish near the box boundary or mass is being cut off (4096 face points)."""
    vals = f.value(p.evaluate(*box_face_points(p.n, box_radius, 4096, (17, 313))))
    if np.max(np.abs(vals)) > 0:
        warnings.warn("test function support reaches the integration box "
                      "boundary; enlarge box_radius", SupportLeakWarning, stacklevel=3)


def _closed(p_t):
    """p_t's closed-form symbol (``flow.closed_form``); ValueError where it flows."""
    closed = closed_form(p_t)
    if closed is None:
        raise ValueError("the variational identities need p_t in closed form: "
                         "a polynomial base deformed by G of degree <= 2")
    return closed


def first_variation_rhs(f: TestFunction, p_t, G: SymbolExpr, box_radius,
                        order=48) -> float:
    """iint (Delta f)(p_t) {Re p_t, Im p_t} Re G dx dxi, for p_t in closed form.

    The bracket is the exact symbol (i/2){p_t, conj p_t}; when it merges
    to zero the integral is exactly 0.0 and no quadrature runs (the
    integrable branch).
    """
    closed = _closed(p_t)
    reG = G.real_part_symbol()
    br = real_bracket(closed)
    if br.is_zero:
        return 0.0
    _warn_if_support_leaks(f, p_t, box_radius)
    return tensor_quadrature(
        (closed, br, reG), lambda v, b, g: f.laplacian(v) * b.real * g.real,
        p_t.n, box_radius, order)


def _integrable_hpg(p: SymbolExpr, G: SymbolExpr) -> SymbolExpr:
    """H_p G, after checking that p is integrable and G real on real points."""
    if not real_bracket(p).is_zero:
        raise ValueError("the second variation needs an integrable base "
                         "({Re p, Im p} must vanish identically)")
    if not G.is_real_on_reals():
        raise ValueError("generator must be real-valued on real points")
    return poisson_bracket(p, G)


def second_variation_rhs(f: TestFunction, p: SymbolExpr, G: SymbolExpr) -> tuple:
    """(value, error) of iint (Delta f)(p) |H_p G|^2 dx dxi for an integrable base.

    Paired in action space (``_ActionPairing``).  Rejects bases whose
    bracket {Re p, Im p} is not the zero symbol, generators that are not
    real-valued on real points, and bases outside ``_ActionPairing``'s
    family.
    """
    hpg = _integrable_hpg(p, G)
    if hpg.is_zero:
        return 0.0, ERROR_FLOOR
    return _ActionPairing(p, hpg).pair(f)


# -------------------------------------------------------- finite differences


def moment_derivative_fd(make_pt, t0, order_in_t=1, *, f, box_radius, quad_order=48):
    """Richardson central difference of M(t) around t0.

    ``make_pt(t)`` returns the symbol (or deformed symbol) at time t, which
    must have a closed form.  The step is FD_STEP_FIRST or FD_STEP_SECOND
    by ``order_in_t``; one Richardson level: error O(step^4) on analytic M.
    """
    step = FD_STEP_FIRST if order_in_t == 1 else FD_STEP_SECOND
    for t in (t0 - step, t0 + step):  # the widest deformations the differences reach
        _warn_if_support_leaks(f, _closed(make_pt(t)), box_radius)

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
    rhs_error: float | None  # from second_variation_rhs; None where none was made
    discrepancy: float

    @classmethod
    def build(cls, lhs, rhs, order, t, rhs_error=None):
        disc = abs(lhs - rhs) / max(abs(rhs), ERROR_FLOOR)
        return cls(lhs, rhs, order, t, rhs_error, disc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


class _SecondVariationGrid:
    """The second-variation pairing iint (Delta f)(p) |H_p G|^2 on one grid.

    Holds, in slab order, ``vals`` = p(node) and ``weights`` = w_row *
    w_col * |H_p G(node)|^2 only at the nodes where p lies in ``reach`` =
    (lo_re, hi_re, lo_im, hi_im), padded by REACH_PAD relative.  A bump
    supported in ``reach`` has a zero Laplacian at every other node, so a
    pairing is one Laplacian call and one dot product over the kept nodes.
    """

    def __init__(self, p, hpg, box_radius, order, reach):
        self.reach = reach
        pad = REACH_PAD * max(map(abs, reach))
        lo_r, hi_r, lo_i, hi_i = np.add(reach, (-pad, pad, -pad, pad))
        vals, weights = [], []
        for w_rows, (v, h), w_cols in _slabs((p, hpg), p.n, box_radius, order):
            v = v.ravel()
            keep = np.flatnonzero((lo_r < v.real) & (v.real < hi_r)
                                  & (lo_i < v.imag) & (v.imag < hi_i))
            rows, cols = np.divmod(keep, w_cols.size)
            vals.append(v[keep])
            weights.append(w_rows[rows] * w_cols[cols] * np.abs(h.ravel()[keep]) ** 2)
        self.vals, self.weights = np.concatenate(vals), np.concatenate(weights)

    def pair(self, f: TestFunction) -> float:
        lo_r, hi_r, lo_i, hi_i = f.support_bounds()
        r0, r1, i0, i1 = self.reach
        if not (r0 <= lo_r and hi_r <= r1 and i0 <= lo_i and hi_i <= i1):
            raise ValueError("test function support leaves the grid's reach")
        return float(f.laplacian(self.vals) @ self.weights)


def _clip(lo, hi, corner, slope):
    """[lo, hi] clipped to the half-line corner + slope * [0, inf)."""
    return (max(lo, corner), hi) if slope > 0 else (lo, min(hi, corner))


class _ActionPairing:
    """The second-variation pairing iint (Delta f)(p) |H_p G|^2 as a 2-D integral.

    For p = F(I) = a_1 I_1 + a_2 I_2 + c (``symbols.action_symbol``), with
    actions I_j = (x_j^2 + xi_j^2)/2 and their angles, dx dxi = dI dtheta,
    so the pairing is int (Delta f)(z) mu(z) dA(z) over the image of p, with
    mu = (2 pi)^2 <|H_p G|^2>(I(z)) / |det DF| and <.> the angle average
    (``symbols.torus_average``).  With a_1 real and a_2 imaginary, I(z) is
    affine, Re z and Im z each move with one action, and the image is an
    axis-aligned quadrant with corner c: a bump's square meets it in a
    rectangle, where the bump is a polynomial.  mu is a polynomial too, so
    Gauss-Legendre on that rectangle is exact once its order covers their
    degree.  Any other base is a ValueError naming this family.
    """

    def __init__(self, p, hpg):
        try:
            eta = {t.xipow: t.coeff for t in action_symbol(p).terms}
        except ValueError:
            eta = {}
        c, a1, a2 = (eta.get(k, 0j) for k in ((0, 0), (1, 0), (0, 1)))
        if not (a1 and a2 and a1.imag == 0 and a2.real == 0):
            raise ValueError(ACTION_FAMILY)
        self.corner, self.slopes = c, (a1.real, a2.imag)  # Re z = a1 I1 + Re c, ...
        self.weight = TWO_PI_SQ / abs(a1.real * a2.imag)
        self.average = torus_average(hpg * hpg.conjugate_symbol())

    def _rule(self, f: TestFunction, order):
        """The order-point rule's sum over the clipped square, and its sum of |terms|."""
        lo_r, hi_r, lo_i, hi_i = f.support_bounds()
        c, (s1, s2) = self.corner, self.slopes
        (x0, x1), (y0, y1) = (_clip(lo_r, hi_r, c.real, s1), _clip(lo_i, hi_i, c.imag, s2))
        if x0 >= x1 or y0 >= y1:
            return 0.0, 0.0
        t, w = _leggauss(order)
        X, Y = np.meshgrid((x0 + x1 + (x1 - x0) * t) / 2, (y0 + y1 + (y1 - y0) * t) / 2,
                           indexing="ij")
        actions = np.stack([(X - c.real) / s1, (Y - c.imag) / s2], axis=-1)
        mu = self.average.evaluate(np.zeros_like(actions), actions).real
        terms = f.laplacian(X + 1j * Y) * mu
        scale = self.weight * (x1 - x0) * (y1 - y0) / 4
        return scale * float(w @ terms @ w), scale * float(w @ np.abs(terms) @ w)

    def pair(self, f: TestFunction) -> tuple:
        """(value, error): the ACTION_ORDERS[0]-point rule, and its distance to
        the coarser rule plus ERROR_FLOOR plus n^2 eps times the sum of |terms|,
        which bounds the rounding of the n^2-term sum: a bump inside the image,
        whose exact pairing may be 0, rounds to up to about 13 eps times it."""
        (value, gross), (coarse, _) = (self._rule(f, n) for n in ACTION_ORDERS)
        n = ACTION_ORDERS[0]
        return value, abs(value - coarse) + ERROR_FLOOR + n * n * np.finfo(float).eps * gross


def nonequality_certificate(p: SymbolExpr, G: SymbolExpr, window):
    """Search bump test functions for |second variation| > CERT_THRESHOLD x error.

    Scans a CERT_CENTERS x CERT_CENTERS grid of bump centers inside the
    window and the CERT_RADII (fractions of the window half-widths), each
    paired in action space with its error (``_ActionPairing.pair``).
    Returns (TestFunction, value, error) for the best witness, or None when
    the budget is exhausted without one -- which is not a disproof.  For
    cho and G = x1 x2, mu = 8 pi^2 xy is harmonic, so by Green's identity
    the pairing is 8 pi^2 [int_0^inf y f(iy) dy + int_0^inf x f(x) dx]: it
    senses the deformation only where the bump reaches the boundary of the
    image of the symbol, so the window should overlap it.
    """
    hpg = _integrable_hpg(p, G)
    if hpg.is_zero:
        return None
    pairing = _ActionPairing(p, hpg)
    lo_r, hi_r, lo_i, hi_i = window.bounds
    cs = np.linspace(lo_r, hi_r, CERT_CENTERS + 2)[1:-1]
    ci = np.linspace(lo_i, hi_i, CERT_CENTERS + 2)[1:-1]
    best = None
    for rfrac in CERT_RADII:
        rad = rfrac * min(window.half_widths)
        for cre in cs:
            for cim in ci:
                f = TestFunction(complex(cre, cim), rad)
                v, err = pairing.pair(f)
                if abs(v) > CERT_THRESHOLD * err and (best is None or abs(v) > abs(best[1])):
                    best = (f, v, err)
    return best
