"""Closed-form analytic symbols on complexified phase space.

A symbol is a finite sum of terms

    c * x^alpha * xi^beta * exp(i (a.x + b.xi))

with complex coefficient c, integer exponents alpha, beta and real
frequency vectors a, b.  Such expressions are entire in (x, xi) and
bounded in any tube |Im x|, |Im xi| <= tau when purely trigonometric,
which is what the flow and density machinery relies on.  Derivatives
are exact (AST differentiation), so Poisson brackets and Hamilton
fields are closed-form as well.

Convention used throughout the package:

    {f, g} = sum_j  df/dxi_j * dg/dx_j - df/dx_j * dg/dxi_j

i.e. {f, g} = H_f g with the Hamilton field H_f = f_xi . d_x - f_x . d_xi.
"""

from __future__ import annotations

import ast
import itertools
import json
import operator
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

REAL_TOL = 1e-12  # relative size of p - conj(p) that is_real_on_reals accepts


class DimensionMismatchError(ValueError):
    """Symbol and point (or two symbols) live in different dimensions."""


class SymbolJSONError(ValueError):
    """Symbol JSON failed validation; .errors lists every violation."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, xi) in complexified phase space C^n x C^n."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=complex))
        xi = np.atleast_1d(np.asarray(self.xi, dtype=complex))
        if x.ndim != 1 or xi.ndim != 1 or x.shape != xi.shape:
            raise DimensionMismatchError(
                f"x and xi must be 1-d of equal length, got {x.shape} and {xi.shape}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            raise ValueError("phase point has non-finite coordinates")
        x.setflags(write=False)
        xi.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def max_imag(self) -> float:
        return float(max(np.max(np.abs(self.x.imag)), np.max(np.abs(self.xi.imag))))

    @classmethod
    def real(cls, x, xi) -> "PhasePoint":
        return cls(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))

    @classmethod
    def zero(cls, n: int = 2) -> "PhasePoint":
        return cls(np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class Term:
    coeff: complex
    xpow: tuple
    xipow: tuple
    xfreq: tuple
    xifreq: tuple

    def key(self):
        return (self.xpow, self.xipow, self.xfreq, self.xifreq)


def _as_tuple(v, n, kind):
    t = tuple(v)
    if len(t) != n:
        raise DimensionMismatchError(f"{kind} has length {len(t)}, expected {n}")
    return t


@dataclass(frozen=True)
class SymbolExpr:
    """Finite sum of polynomial-trigonometric terms on C^n_x x C^n_xi."""

    terms: tuple
    n: int = 2
    tube_radius: float = 8.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not self.tube_radius > 0:
            raise ValueError("tube_radius must be positive")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            for v, kind in ((t.xpow, "xpow"), (t.xipow, "xipow"),
                            (t.xfreq, "xfreq"), (t.xifreq, "xifreq")):
                if len(v) != self.n:
                    raise DimensionMismatchError(
                        f"term {kind} has length {len(v)}, expected n={self.n}")

    # ---------------------------------------------------------------- algebra

    @classmethod
    def zero(cls, n=2, tube_radius=8.0):
        return cls((), n, tube_radius)

    @classmethod
    def constant(cls, c, n=2, tube_radius=8.0):
        zn = (0,) * n
        zf = (0.0,) * n
        if c == 0:
            return cls.zero(n, tube_radius)
        return cls((Term(complex(c), zn, zn, zf, zf),), n, tube_radius)

    @classmethod
    def monomial(cls, coeff, xpow, xipow, n=2, tube_radius=8.0,
                 xfreq=None, xifreq=None):
        zf = (0.0,) * n
        return cls(
            (Term(complex(coeff), _as_tuple(xpow, n, "xpow"),
                  _as_tuple(xipow, n, "xipow"),
                  _as_tuple(xfreq, n, "xfreq") if xfreq is not None else zf,
                  _as_tuple(xifreq, n, "xifreq") if xifreq is not None else zf),),
            n, tube_radius)

    def _check_dim(self, other):
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if np.isscalar(other):
            other = SymbolExpr.constant(other, self.n, self.tube_radius)
        self._check_dim(other)
        tau = min(self.tube_radius, other.tube_radius)
        return SymbolExpr(self.terms + other.terms, self.n, tau).simplified()

    __radd__ = __add__

    def __neg__(self):
        return SymbolExpr(
            tuple(Term(-t.coeff, t.xpow, t.xipow, t.xfreq, t.xifreq) for t in self.terms),
            self.n, self.tube_radius)

    def __sub__(self, other):
        if np.isscalar(other):
            other = SymbolExpr.constant(other, self.n, self.tube_radius)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            if other == 0:
                return SymbolExpr.zero(self.n, self.tube_radius)
            return SymbolExpr(
                tuple(Term(t.coeff * other, t.xpow, t.xipow, t.xfreq, t.xifreq)
                      for t in self.terms),
                self.n, self.tube_radius)
        self._check_dim(other)
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(Term(
                    a.coeff * b.coeff,
                    tuple(i + j for i, j in zip(a.xpow, b.xpow)),
                    tuple(i + j for i, j in zip(a.xipow, b.xipow)),
                    tuple(i + j for i, j in zip(a.xfreq, b.xfreq)),
                    tuple(i + j for i, j in zip(a.xifreq, b.xifreq)),
                ))
        tau = min(self.tube_radius, other.tube_radius)
        return SymbolExpr(tuple(out), self.n, tau).simplified()

    __rmul__ = __mul__

    def simplified(self) -> "SymbolExpr":
        """Merge terms with identical monomial/frequency keys, drop zeros."""
        acc = {}
        for t in self.terms:
            k = t.key()
            acc[k] = acc.get(k, 0j) + t.coeff
        terms = tuple(Term(c, *k) for k, c in sorted(acc.items(), key=lambda kv: kv[0])
                      if c != 0)
        return SymbolExpr(terms, self.n, self.tube_radius)

    def compose_affine(self, L, b) -> "SymbolExpr":
        """The symbol rho -> self(L rho + b), for a polynomial self.

        L is a 2n x 2n matrix and b a 2n-vector on the axes (x, xi).  Axis
        k becomes the linear symbol sum_j L[k, j] rho_j + b_k, and each
        term c prod_k rho_k^e_k expands by ``*`` into c prod_k (axis k)^e_k.
        """
        if self.has_trig:
            raise ValueError("compose_affine needs a polynomial symbol")
        n, tau, zf = self.n, self.tube_radius, (0.0,) * self.n
        units = [tuple(int(j == k) for j in range(2 * n)) for k in range(2 * n)]
        axes = [SymbolExpr(
            (Term(complex(b[k]), (0,) * n, (0,) * n, zf, zf),)
            + tuple(Term(complex(L[k][j]), u[:n], u[n:], zf, zf)
                    for j, u in enumerate(units)), n, tau).simplified()
            for k in range(2 * n)]
        out = SymbolExpr.zero(n, tau)
        for t in self.terms:
            term = SymbolExpr.constant(t.coeff, n, tau)
            for k, e in enumerate(t.xpow + t.xipow):
                for _ in range(e):
                    term = term * axes[k]
            out = out + term
        return out

    @property
    def is_zero(self) -> bool:
        return len(self.simplified().terms) == 0

    def max_coeff(self) -> float:
        s = self.simplified()
        return max((abs(t.coeff) for t in s.terms), default=0.0)

    @property
    def has_trig(self) -> bool:
        return any(any(f != 0 for f in t.xfreq) or any(f != 0 for f in t.xifreq)
                   for t in self.terms)

    @property
    def total_degree(self) -> int:
        return max((sum(t.xpow) + sum(t.xipow) for t in self.terms), default=0)

    # ------------------------------------------------------------- evaluation

    @cached_property
    def _plan(self) -> tuple:
        """The evaluation plan, built once per symbol.

        Axes 0..n-1 are x and n..2n-1 are xi.  Each term becomes its
        coefficient, its (axis, exponent) factors and its (axis,
        frequency) phases; alongside go the highest power each axis needs
        and every (axis, frequency) pair, so that ``evaluate`` builds each
        power and each phase once and shares it across terms.
        """
        terms, top, phases = [], [0] * (2 * self.n), set()
        for t in self.terms:
            pows = tuple((k, e) for k, e in enumerate(t.xpow + t.xipow) if e)
            freqs = tuple((k, f) for k, f in enumerate(t.xfreq + t.xifreq) if f)
            for k, e in pows:
                top[k] = max(top[k], e)
            phases.update(freqs)
            terms.append((t.coeff, pows, freqs))
        return tuple(terms), tuple(top), tuple(sorted(phases))

    @cached_property
    def _spent_powers(self) -> tuple:
        """Per term of the plan, the powers (axis, e) that no later term
        reads, directly or to build a higher power: ``evaluate`` drops
        them once the term is done, so at most a few are held at once."""
        last = {}
        for i, (_, pows, _) in enumerate(self._plan[0]):
            for k, e in pows:
                last.update(((k, m), i) for m in range(1, e + 1))
        spent = [[] for _ in self._plan[0]]
        for key, i in last.items():
            spent[i].append(key)
        return tuple(map(tuple, spent))

    def evaluate(self, x, xi, out=None):
        """Evaluate at arrays of points; x, xi have shape (..., n).

        Arithmetic runs in the points' own dtype: at real points the
        monomials are real and the complex coefficients enter last, as
        separate real and imaginary sums.  The result is complex, with
        the broadcast shape of the points.  ``out``, a complex array of
        that shape, is zeroed and takes the result, bit for bit the one
        returned without it, and is returned.
        """
        x = np.asarray(x)
        xi = np.asarray(xi)
        if x.shape[-1] != self.n or xi.shape[-1] != self.n:
            raise DimensionMismatchError(
                f"points have dimension {x.shape[-1]}, symbol has n={self.n}")
        shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
        if out is not None:
            if out.shape != shape or out.dtype != complex:
                raise ValueError(f"out must be a complex array of shape {shape}")
            out.fill(0)
        terms, _, phase_keys = self._plan
        z = [np.asarray(a[..., j], dtype=complex if np.iscomplexobj(a) else float)
             for a in (x, xi) for j in range(self.n)]
        # plain loops fill the tables: a self-recursive closure would form a
        # reference cycle that keeps them alive until the cyclic GC runs
        powers = {}  # (axis, e) -> z_axis**e, by repeated multiplication at first use
        phases = {}  # (axis, f) -> exp(i f z_axis); sorted keys put -f before f
        for k, f in phase_keys:
            mirror = phases.get((k, -f))
            phases[k, f] = 1 / mirror if mirror is not None else np.exp(1j * f * z[k])
        # with no phase at real points every term is real, and the real sums go
        # straight into the result's parts: 0 + re is re, bit for bit
        direct = not phase_keys and not any(map(np.iscomplexobj, z))
        if out is None and direct:
            out = np.zeros(shape, dtype=complex)
        re, im = (out.real, out.imag) if direct else (None, None)
        for (c, pows, freqs), spent in zip(terms, self._spent_powers):
            for k, e in pows:
                for m in range(1, e + 1):
                    if (k, m) not in powers:
                        powers[k, m] = z[k] if m == 1 else powers[k, m - 1] * z[k]
            factors = [powers[key] for key in pows] + [phases[key] for key in freqs]
            for key in spent:  # no later term reads it
                del powers[key]
            val = factors[0] if factors else 1.0
            for f in factors[1:]:
                val = val * f
            if np.iscomplexobj(val):
                if out is None:
                    out = np.zeros(shape, dtype=complex)
                out += c * val
                continue
            if re is None:
                re, im = np.zeros(shape), np.zeros(shape)
            # a product no other term reads is scaled in place for its last part
            owned = len(factors) > 1 or (len(pows) == 1 and pows[0][1] > 1 and pows[0] in spent)
            parts = [(acc, part) for acc, part in ((re, c.real), (im, c.imag)) if part]
            for j, (acc, part) in enumerate(parts):
                if owned and j == len(parts) - 1:
                    val *= part
                    acc += val
                else:
                    acc += part * val
        if out is None:
            out = np.zeros(shape, dtype=complex)
        if re is not None and not direct:
            out.real += re
            out.imag += im
        return out

    def box_sup(self, x, xi, r):
        """Upper bound of |self| over the complex box K_r(rho) about real points rho.

        K_r(rho) = {z : |Re z_k - rho_k| <= r, |Im z_k| <= r on every axis k},
        for real x, xi of shape (..., n) and r >= 0, a scalar or an array
        that broadcasts against the points.  On K_r a factor z_k^e is at
        most hypot(|rho_k| + r, r)^e, and |exp(i f.z)| = exp(-f.Im z), so
        |self| <= sum_terms |c| * (power bound) * exp(-f.Im z).  That sum is
        convex in Im z, so its largest value on the box [-r, r]^m of the m
        axes that carry a frequency is at one of the 2^m vertices.  The
        result broadcasts against the points; it is 0-d when neither the
        polynomial factors nor r depend on the point.
        """
        terms, top, phase_keys = self._plan
        r = np.asarray(r, dtype=float)
        z = [a[..., j] for a in (np.asarray(x), np.asarray(xi)) for j in range(self.n)]
        powers = {}  # (axis, e) -> bound of |z_axis|^e on the box
        for k, e_max in enumerate(top):
            for e in range(1, e_max + 1):
                powers[k, e] = (np.hypot(np.abs(z[k]) + r, r) if e == 1
                                else powers[k, e - 1] * powers[k, 1])
        weights = []
        for c, pows, freqs in terms:
            w = abs(c)
            for key in pows:
                w = w * powers[key]
            weights.append((w, freqs))
        axes = sorted({k for k, _ in phase_keys})
        best = np.zeros(())
        for signs in itertools.product((-1.0, 1.0), repeat=len(axes)):
            im = dict(zip(axes, signs))  # Im z_k = im[k] * r at this vertex
            total = 0.0
            for w, freqs in weights:
                s = sum(f * im[k] for k, f in freqs)
                total = total + (w * np.exp(-s * r) if s else w)
            best = np.maximum(best, total)
        return best

    def __call__(self, rho: PhasePoint) -> complex:
        return eval_symbol(self, rho)

    # ---------------------------------------------------------------- calculus

    def dx(self, j: int) -> "SymbolExpr":
        """Exact partial derivative with respect to x_j."""
        return self._diff(j, wrt_x=True)

    def dxi(self, j: int) -> "SymbolExpr":
        """Exact partial derivative with respect to xi_j."""
        return self._diff(j, wrt_x=False)

    def _diff(self, j, wrt_x):
        out = []
        for t in self.terms:
            pows = t.xpow if wrt_x else t.xipow
            freqs = t.xfreq if wrt_x else t.xifreq
            if pows[j]:
                new = list(pows)
                new[j] -= 1
                new = tuple(new)
                out.append(Term(t.coeff * pows[j],
                                new if wrt_x else t.xpow,
                                t.xipow if wrt_x else new,
                                t.xfreq, t.xifreq))
            if freqs[j]:
                out.append(Term(t.coeff * 1j * freqs[j], t.xpow, t.xipow,
                                t.xfreq, t.xifreq))
        return SymbolExpr(tuple(out), self.n, self.tube_radius).simplified()

    @cached_property
    def grad_symbols(self) -> tuple:
        """The 2n exact first-derivative symbols, x-partials first, built once.

        Each comes from dx/dxi, so it is already simplified: a zero
        derivative has empty ``terms``.
        """
        return (tuple(self.dx(j) for j in range(self.n))
                + tuple(self.dxi(j) for j in range(self.n)))

    def grad(self, x, xi):
        """The gradient (d/dx, d/dxi) at points (..., n), stacked to (..., 2n)."""
        return np.stack([d.evaluate(x, xi) for d in self.grad_symbols], axis=-1)

    def conjugate_symbol(self) -> "SymbolExpr":
        """Holomorphic extension of the complex conjugate.

        On real points it equals the pointwise conjugate of the symbol;
        coefficients are conjugated and trig frequencies negated.
        """
        return SymbolExpr(
            tuple(Term(np.conj(t.coeff), t.xpow, t.xipow,
                       tuple(-f for f in t.xfreq), tuple(-f for f in t.xifreq))
                  for t in self.terms),
            self.n, self.tube_radius).simplified()

    def real_part_symbol(self) -> "SymbolExpr":
        """(p + p*)/2; equals Re p on real points."""
        return (self + self.conjugate_symbol()) * 0.5

    def is_real_on_reals(self) -> bool:
        diff = self - self.conjugate_symbol()
        return diff.max_coeff() <= REAL_TOL * max(self.max_coeff(), 1.0)

    # -------------------------------------------------------------------- io

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "tube_radius": self.tube_radius,
            "terms": [
                {"re": float(t.coeff.real), "im": float(t.coeff.imag),
                 "xpow": list(t.xpow), "xipow": list(t.xipow),
                 "xfreq": [float(f) for f in t.xfreq],
                 "xifreq": [float(f) for f in t.xifreq]}
                for t in self.terms
            ],
        }


# --------------------------------------------------------------------- ops


def _check_point(sym: SymbolExpr, rho: PhasePoint):
    if rho.n != sym.n:
        raise DimensionMismatchError(
            f"point has dimension {rho.n}, symbol has n={sym.n}")
    if rho.max_imag > sym.tube_radius:
        warnings.warn(
            f"point leaves declared tube (|Im| = {rho.max_imag:.3g} > "
            f"tau = {sym.tube_radius:.3g}); value not certified",
            RuntimeWarning, stacklevel=3)


def eval_symbol(sym: SymbolExpr, rho: PhasePoint) -> complex:
    """Exact AST evaluation of the symbol at a phase point."""
    _check_point(sym, rho)
    return complex(sym.evaluate(rho.x, rho.xi))


def gradient(sym: SymbolExpr, rho: PhasePoint):
    """Exact (dp/dx, dp/dxi) at a point, each a length-n complex vector."""
    _check_point(sym, rho)
    g = sym.grad(rho.x, rho.xi)
    return g[:sym.n], g[sym.n:]


def poisson_bracket(f: SymbolExpr, g: SymbolExpr) -> SymbolExpr:
    """{f, g} = sum_j f_xi_j g_x_j - f_x_j g_xi_j, as a closed-form symbol."""
    if f.n != g.n:
        raise DimensionMismatchError(f"dimension mismatch: {f.n} vs {g.n}")
    n = f.n
    fd, gd = f.grad_symbols, g.grad_symbols
    out = SymbolExpr.zero(n, min(f.tube_radius, g.tube_radius))
    for j in range(n):
        out = out + fd[n + j] * gd[j] - fd[j] * gd[n + j]
    return out.simplified()


def real_bracket(p: SymbolExpr) -> SymbolExpr:
    """{Re p, Im p} as the closed form (i/2){p, conj p}.

    The result is real-valued on real points; for separated-variable
    models the term merge collapses it to the zero symbol exactly.
    """
    return (0.5j) * poisson_bracket(p, p.conjugate_symbol())


def torus_average(sym: SymbolExpr) -> SymbolExpr:
    """The average of a polynomial sym over the angles, as a polynomial in the actions.

    sym is written in zeta_j = (x_j + i xi_j)/2 and its conjugate
    (``compose_affine`` with zeta in the x slots and conj(zeta) in the xi
    slots: x_j = zeta_j + conj(zeta_j), xi_j = i conj(zeta_j) - i zeta_j,
    so no coefficient is rounded).  A monomial zeta^a conj(zeta)^b averages
    to zero over the angles unless a = b, when it is I^a / 2^|a| with the
    actions I_j = (x_j^2 + xi_j^2)/2 = 2 |zeta_j|^2.  Returns that
    polynomial in I, stored in the eta (xi) slots as ``torus_linear``
    stores it.  For cho(1, 0) and G = x1 x2, |H_p G|^2 averages to 2 I1 I2.
    """
    n, zn = sym.n, (0,) * sym.n
    L = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        L[j, j] = L[j, n + j] = 1.0
        L[n + j, j], L[n + j, n + j] = -1j, 1j
    kept = (t for t in sym.compose_affine(L, np.zeros(2 * n)).terms if t.xpow == t.xipow)
    return SymbolExpr(tuple(Term(t.coeff / 2 ** sum(t.xpow), zn, t.xpow, t.xfreq, t.xifreq)
                            for t in kept), n, sym.tube_radius)


def action_symbol(p: SymbolExpr) -> SymbolExpr:
    """ptilde(eta) = sum_j a_j eta_j + c for p = sum_j a_j (x_j^2 + xi_j^2)/2 + c.

    This covers every cho(alpha, shift); cho(1, 0) gives torus_linear()
    exactly.  Any other symbol, or a_1, a_2 linearly dependent over R
    (no invertible action map), is a ValueError.
    """
    if p.has_trig or p.total_degree > 2:
        raise ValueError("symbol is not a polynomial of degree <= 2")
    zn, zf = (0,) * p.n, (0.0,) * p.n
    coeffs = {t.key(): t.coeff for t in p.simplified().terms}
    c = coeffs.pop((zn, zn, zf, zf), 0j)
    squares = ((2, 0), (0, 2))  # x_j^2 or xi_j^2, j = 1, 2
    a = [2 * coeffs.pop((e, (0, 0), zf, zf), 0j) for e in squares]
    a_xi = [2 * coeffs.pop(((0, 0), e, zf, zf), 0j) for e in squares]
    if p.n != 2 or coeffs or a != a_xi:
        raise ValueError("the action map needs a symbol "
                         "sum_j a_j (x_j^2 + xi_j^2)/2 + c in n = 2")
    if a[0].real * a[1].imag - a[0].imag * a[1].real == 0:
        raise ValueError("no action map: a_1 and a_2 are linearly dependent over R")
    ptilde = SymbolExpr.constant(c, 2, p.tube_radius)
    for a_j, eta_j in zip(a, ((1, 0), (0, 1))):
        ptilde = ptilde + SymbolExpr.monomial(a_j, (0, 0), eta_j, tube_radius=p.tube_radius)
    return ptilde


# ------------------------------------------------------------ built-in models


def cho(alpha=1.0, shift=0.0, tube_radius=8.0) -> SymbolExpr:
    """Complex harmonic oscillator (x1^2+xi1^2)/2 + i*alpha*(x2^2+xi2^2)/2 - shift."""
    e1 = SymbolExpr.monomial(0.5, (2, 0), (0, 0), tube_radius=tube_radius)
    e2 = SymbolExpr.monomial(0.5, (0, 0), (2, 0), tube_radius=tube_radius)
    e3 = SymbolExpr.monomial(0.5j * alpha, (0, 2), (0, 0), tube_radius=tube_radius)
    e4 = SymbolExpr.monomial(0.5j * alpha, (0, 0), (0, 2), tube_radius=tube_radius)
    return (e1 + e2 + e3 + e4 - shift).simplified()


def torus_linear(tube_radius=8.0) -> SymbolExpr:
    """eta1 + i*eta2 on the action plane (etas stored in the xi slots)."""
    return (SymbolExpr.monomial(1.0, (0, 0), (1, 0), tube_radius=tube_radius)
            + SymbolExpr.monomial(1j, (0, 0), (0, 1), tube_radius=tube_radius))


def torus_coupled(c=0.3, tube_radius=8.0) -> SymbolExpr:
    """eta1 + i*eta2 + c*eta1*eta2, the coupled integrable torus model."""
    return (torus_linear(tube_radius)
            + SymbolExpr.monomial(c, (0, 0), (1, 1), tube_radius=tube_radius))


def coupling_xx(tube_radius=8.0) -> SymbolExpr:
    """Flow generator x1*x2."""
    return SymbolExpr.monomial(1.0, (1, 1), (0, 0), tube_radius=tube_radius)


def sin_x1_cos_xi2(tube_radius=1.0) -> SymbolExpr:
    """Flow generator sin(x1)*cos(xi2), a bounded trig symbol."""
    terms = []
    # sin a = (e^{ia}-e^{-ia})/2i, cos b = (e^{ib}+e^{-ib})/2
    for sx, cx in ((1, 1 / 4j), (-1, -1 / 4j)):
        for sxi in (1, -1):
            terms.append(Term(complex(cx), (0, 0), (0, 0),
                              (float(sx), 0.0), (0.0, float(sxi))))
    return SymbolExpr(tuple(terms), 2, tube_radius)


_NAME_RE = re.compile(r"^\s*([a-zA-Z][a-zA-Z0-9_-]*)\s*(?:\((.*)\))?\s*$")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _parse_scalar(expr: str) -> complex:
    """Value of a scalar argument such as '(1+i)/2' or '-0.5i'.

    Only numeric literals, the imaginary unit i, binary + - * /, unary
    signs and parentheses are accepted; the syntax tree is walked, never
    executed, so powers and names are rejected before anything is computed.
    """

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
            return node.value
        if isinstance(node, ast.Name) and node.id == "j":
            return 1j
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNOPS:
            return _UNOPS[type(node.op)](value(node.operand))
        raise SymbolJSONError([f"unsupported scalar expression: {expr!r}"])

    try:  # i -> j: python's imaginary unit and literal suffix
        return complex(value(ast.parse(expr.strip().replace("i", "j"), mode="eval").body))
    except SymbolJSONError:
        raise
    except (SyntaxError, ValueError, ArithmeticError) as exc:
        raise SymbolJSONError([f"cannot parse scalar {expr!r}: {exc}"]) from exc


def _split_args(argstr: str):
    parts, depth, cur = [], 0, []
    for ch in argstr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


BUILTIN_SYMBOLS = {
    "cho": cho,
    "torus-linear": torus_linear,
    "torus-coupled": torus_coupled,
    "coupling-xx": coupling_xx,
    "sin-x1-cos-xi2": sin_x1_cos_xi2,
}


def symbol_from_name(name: str) -> SymbolExpr:
    """Resolve a builtin symbol spec like 'cho(1,(1+i)/2)' or 'torus-linear'."""
    m = _NAME_RE.match(name)
    if not m or m.group(1) not in BUILTIN_SYMBOLS:
        raise SymbolJSONError([f"unknown builtin symbol: {name!r} "
                               f"(known: {sorted(BUILTIN_SYMBOLS)})"])
    fn = BUILTIN_SYMBOLS[m.group(1)]
    args = [_parse_scalar(a) for a in _split_args(m.group(2) or "")]
    # real-valued parameters stay real where the model expects it
    args = [a.real if a.imag == 0 else a for a in args]
    return fn(*args)


def symbol_from_json_dict(d: dict) -> SymbolExpr:
    """Build a symbol from the JSON schema; every violation is reported."""
    errors = []
    if not isinstance(d, dict):
        raise SymbolJSONError(["symbol JSON must be an object"])
    known = {"n", "terms", "tube_radius"}
    for k in d:
        if k not in known:
            errors.append(f"unknown field {k!r}")
    n = d.get("n")
    if not isinstance(n, int) or n < 1:
        errors.append("'n' must be a positive integer")
        n = 2
    tau = d.get("tube_radius", 8.0)
    if not isinstance(tau, (int, float)) or not tau > 0:
        errors.append("'tube_radius' must be a positive number")
        tau = 8.0
    raw_terms = d.get("terms")
    if not isinstance(raw_terms, list):
        errors.append("'terms' must be a list")
        raw_terms = []
    terms = []
    for i, rt in enumerate(raw_terms):
        if not isinstance(rt, dict):
            errors.append(f"terms[{i}] must be an object")
            continue
        for k in rt:
            if k not in {"re", "im", "xpow", "xipow", "xfreq", "xifreq"}:
                errors.append(f"terms[{i}]: unknown field {k!r}")
        try:
            coeff = complex(float(rt.get("re", 0.0)), float(rt.get("im", 0.0)))
            xpow = tuple(int(v) for v in rt.get("xpow", [0] * n))
            xipow = tuple(int(v) for v in rt.get("xipow", [0] * n))
            xfreq = tuple(float(v) for v in rt.get("xfreq", [0.0] * n))
            xifreq = tuple(float(v) for v in rt.get("xifreq", [0.0] * n))
        except (TypeError, ValueError) as exc:
            errors.append(f"terms[{i}]: {exc}")
            continue
        for name, v in (("xpow", xpow), ("xipow", xipow),
                        ("xfreq", xfreq), ("xifreq", xifreq)):
            if len(v) != n:
                errors.append(f"terms[{i}]: {name} has length {len(v)}, expected {n}")
        if any(v < 0 for v in xpow) or any(v < 0 for v in xipow):
            errors.append(f"terms[{i}]: exponents must be nonnegative")
        if not errors:
            terms.append(Term(coeff, xpow, xipow, xfreq, xifreq))
    if errors:
        raise SymbolJSONError(errors)
    return SymbolExpr(tuple(terms), n, float(tau))


def load_symbol(spec) -> SymbolExpr:
    """Accept a SymbolExpr, builtin name string, JSON dict, or JSON text."""
    if isinstance(spec, SymbolExpr):
        return spec
    if isinstance(spec, dict):
        return symbol_from_json_dict(spec)
    if isinstance(spec, str):
        s = spec.strip()
        if s.startswith("{"):
            try:
                return symbol_from_json_dict(json.loads(s))
            except json.JSONDecodeError as exc:
                raise SymbolJSONError(
                    [f"invalid JSON at line {exc.lineno} col {exc.colno}: {exc.msg}"]
                ) from exc
        return symbol_from_name(s)
    raise SymbolJSONError([f"cannot interpret symbol spec of type {type(spec).__name__}"])
